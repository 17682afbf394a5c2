//! HBM stack modelling: capacity scaling, stacking yield, thermals, refresh.
//!
//! §2.1 of the paper lists HBM's fundamental challenges: per-layer density
//! scaling is slowing (HBM4 ≈ +30% per layer), 3D stacking reduces yield and
//! is not expected beyond 16 layers, heat dissipation worsens with stacking,
//! and refresh burns power even when idle. This module quantifies each claim
//! so the analysis crate can print them.

use serde::{Deserialize, Serialize};

use mrm_sim::time::SimDuration;
use mrm_sim::units::GB;

/// Parameters of an HBM stack design.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HbmStackModel {
    /// DRAM layers in the stack.
    pub layers: u32,
    /// Capacity per layer, bytes.
    pub layer_capacity_bytes: u64,
    /// Per-die yield of a single DRAM layer after test (fraction).
    pub layer_yield: f64,
    /// Yield of each bonding step in the stacking process (fraction).
    /// Stacking is the "extremely complex" step §2.1 calls out: every
    /// additional layer multiplies in another bonding-yield factor.
    pub bond_yield_per_layer: f64,
    /// Refresh interval the stack must sustain.
    pub refresh_interval: SimDuration,
    /// Refresh energy, pJ/bit per refresh pass.
    pub refresh_energy_pj_bit: f64,
    /// Thermal resistance growth per layer (K/W, relative units): deeper
    /// layers are harder to cool when co-packaged with an accelerator die.
    pub thermal_resistance_per_layer: f64,
}

impl HbmStackModel {
    /// HBM3e-like stack: 12 layers of 2 GB (24 Gb) dies.
    pub fn hbm3e() -> Self {
        HbmStackModel {
            layers: 12,
            layer_capacity_bytes: 2 * GB,
            layer_yield: 0.92,
            bond_yield_per_layer: 0.985,
            refresh_interval: SimDuration::from_millis(32),
            refresh_energy_pj_bit: 0.15,
            thermal_resistance_per_layer: 0.35,
        }
    }

    /// HBM4 projection: +30% capacity per layer (§2.1 / \[50\]), up to the
    /// 16-layer industry ceiling.
    pub fn hbm4(layers: u32) -> Self {
        let mut m = Self::hbm3e();
        m.layers = layers.min(16);
        m.layer_capacity_bytes = (m.layer_capacity_bytes as f64 * 1.3) as u64;
        m
    }

    /// Total stack capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.layers) * self.layer_capacity_bytes
    }

    /// Compound manufacturing yield of the assembled stack: every layer
    /// must be good and every bond must take. This is the §2.1
    /// "3D-stacking ... significantly reduces the yield" effect; it decays
    /// geometrically in the layer count.
    pub fn stack_yield(&self) -> f64 {
        let layer_part = self.layer_yield.powi(self.layers as i32);
        // n layers need n-1 bonding steps plus base-die attach ≈ n bonds.
        let bond_part = self.bond_yield_per_layer.powi(self.layers as i32);
        layer_part * bond_part
    }

    /// Effective cost multiplier from yield loss alone: 1/yield good stacks
    /// must be started per good stack shipped.
    pub fn yield_cost_multiplier(&self) -> f64 {
        1.0 / self.stack_yield()
    }

    /// Average refresh power for the stack, watts.
    pub fn refresh_power_w(&self) -> f64 {
        let bits = self.capacity_bytes() as f64 * 8.0;
        bits * self.refresh_energy_pj_bit * 1e-12 / self.refresh_interval.as_secs_f64()
    }

    /// Relative thermal resistance of the full stack (K/W-ish units):
    /// grows with stacking height, capping practical power density.
    pub fn thermal_resistance(&self) -> f64 {
        1.0 + self.thermal_resistance_per_layer * f64::from(self.layers)
    }
}

/// Sweeps stack height and reports the §2.1 scaling story.
///
/// Returns `(layers, capacity_bytes, stack_yield, cost_multiplier,
/// refresh_w, thermal_resistance)` per height.
pub fn layer_sweep(base: &HbmStackModel, max_layers: u32) -> Vec<(u32, u64, f64, f64, f64, f64)> {
    (4..=max_layers)
        .map(|layers| {
            let m = HbmStackModel { layers, ..*base };
            (
                layers,
                m.capacity_bytes(),
                m.stack_yield(),
                m.yield_cost_multiplier(),
                m.refresh_power_w(),
                m.thermal_resistance(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hbm3e_capacity_matches_product() {
        let m = HbmStackModel::hbm3e();
        assert_eq!(m.capacity_bytes(), 24 * GB);
    }

    #[test]
    fn yield_decays_with_layers() {
        let base = HbmStackModel::hbm3e();
        let y8 = HbmStackModel { layers: 8, ..base }.stack_yield();
        let y12 = HbmStackModel { layers: 12, ..base }.stack_yield();
        let y16 = HbmStackModel { layers: 16, ..base }.stack_yield();
        assert!(y8 > y12 && y12 > y16);
        // 12-high stacking should already show a visible yield hit.
        assert!(y12 < 0.55, "stack yield {y12}");
        assert!(y12 > 0.15, "stack yield {y12}");
    }

    #[test]
    fn cost_multiplier_inverse_of_yield() {
        let m = HbmStackModel::hbm3e();
        let prod = m.stack_yield() * m.yield_cost_multiplier();
        assert!((prod - 1.0).abs() < 1e-12);
        assert!(m.yield_cost_multiplier() > 1.0);
    }

    #[test]
    fn hbm4_layer_gain() {
        let h3 = HbmStackModel::hbm3e();
        let h4 = HbmStackModel::hbm4(16);
        let gain = h4.layer_capacity_bytes as f64 / h3.layer_capacity_bytes as f64;
        assert!((gain - 1.3).abs() < 0.01, "per-layer gain {gain}");
        assert_eq!(
            HbmStackModel::hbm4(32).layers,
            16,
            "16-layer industry ceiling"
        );
    }

    #[test]
    fn refresh_power_scales_with_capacity() {
        let h12 = HbmStackModel::hbm3e();
        let h6 = HbmStackModel { layers: 6, ..h12 };
        let ratio = h12.refresh_power_w() / h6.refresh_power_w();
        assert!((ratio - 2.0).abs() < 1e-9);
        assert!(
            h12.refresh_power_w() > 0.5,
            "idle refresh burn is real: {} W",
            h12.refresh_power_w()
        );
    }

    #[test]
    fn thermal_resistance_grows() {
        let base = HbmStackModel::hbm3e();
        let t8 = HbmStackModel { layers: 8, ..base }.thermal_resistance();
        let t16 = HbmStackModel { layers: 16, ..base }.thermal_resistance();
        assert!(t16 > t8);
    }

    #[test]
    fn sweep_is_monotone_in_the_right_directions() {
        let rows = layer_sweep(&HbmStackModel::hbm3e(), 16);
        assert_eq!(rows.len(), 13);
        for w in rows.windows(2) {
            let (_, cap_a, yield_a, cost_a, refresh_a, therm_a) = w[0];
            let (_, cap_b, yield_b, cost_b, refresh_b, therm_b) = w[1];
            assert!(cap_b > cap_a);
            assert!(yield_b < yield_a);
            assert!(cost_b > cost_a);
            assert!(refresh_b > refresh_a);
            assert!(therm_b > therm_a);
        }
    }
}
