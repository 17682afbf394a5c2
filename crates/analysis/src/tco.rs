//! T5 (§2.2/§3): memory-system comparison — HBM vs. HBM+LPDDR vs. HBM+MRM.
//!
//! The §3 claim this table tests: "Combining HBM and lower-cost,
//! lower-throughput LPDDR for cooler data would reduce the overall hardware
//! cost but also reduce the bandwidth at which the data is available to the
//! GPU, and fundamentally not improve the HBM's read energy efficiency."
//! MRM, by contrast, should improve capacity, per-bit energy, *and* the
//! delivered bandwidth for the read-dominated structures.

use mrm_device::tech::presets;
use serde::{Deserialize, Serialize};

/// One memory-system configuration summary.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SystemRow {
    /// System name.
    pub system: String,
    /// Total capacity, bytes.
    pub capacity_bytes: u64,
    /// Bandwidth at which *weights + KV* (the §2 bulk) are delivered,
    /// bytes/s.
    pub bulk_read_bw: f64,
    /// Effective read energy for the bulk data, pJ/bit.
    pub bulk_read_pj_bit: f64,
    /// Always-on housekeeping (refresh) power, watts.
    pub refresh_w: f64,
    /// Relative hardware cost units (GB × cost rate).
    pub cost_units: f64,
    /// Capacity per cost unit, GB.
    pub gb_per_cost: f64,
}

/// The three §3 comparison systems, in display order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SystemKind {
    /// Bulk data (weights + KV) in 8 HBM stacks.
    HbmOnly,
    /// Hot path in 7 HBM stacks; bulk (cool KV) in 8 LPDDR packages.
    HbmLpddr,
    /// 2 HBM stacks for activations; bulk in 8 MRM packages.
    HbmMrm,
}

impl SystemKind {
    /// All systems in display order.
    pub fn all() -> [SystemKind; 3] {
        [
            SystemKind::HbmOnly,
            SystemKind::HbmLpddr,
            SystemKind::HbmMrm,
        ]
    }
}

/// Builds one §3 comparison system at B200-ish scale.
///
/// Rows are independent, so a sweep can evaluate them in parallel
/// (`mrm-sweep`).
pub fn system_row(kind: SystemKind) -> SystemRow {
    let hbm = presets::hbm3e();
    let lpddr = presets::lpddr5x();
    let mrm = presets::mrm_hours();

    let mk = |name: &str,
              caps: &[(u64, f64, f64, f64, f64)]| // (capacity, read_bw, pj, refresh_w, cost)
     -> SystemRow {
        let capacity: u64 = caps.iter().map(|c| c.0).sum();
        let cost: f64 = caps.iter().map(|c| c.4).sum();
        let refresh: f64 = caps.iter().map(|c| c.3).sum();
        // Bulk data (weights+KV) lives in the *last* listed tier by
        // convention here; its bandwidth/energy characterize delivery.
        let bulk = caps.last().expect("every system names at least one tier");
        SystemRow {
            system: name.to_string(),
            capacity_bytes: capacity,
            bulk_read_bw: bulk.1,
            bulk_read_pj_bit: bulk.2,
            refresh_w: refresh,
            cost_units: cost,
            gb_per_cost: capacity as f64 / 1e9 / cost,
        }
    };

    let hbm_unit = |n: u32| {
        (
            hbm.capacity_bytes * u64::from(n),
            hbm.read_bw * f64::from(n),
            hbm.read_energy_pj_bit,
            hbm.refresh_power_w() * f64::from(n),
            hbm.capacity_bytes as f64 * f64::from(n) / 1e9 * hbm.cost_per_gb_rel,
        )
    };
    let lpddr_unit = |n: u32| {
        (
            lpddr.capacity_bytes * u64::from(n),
            lpddr.read_bw * f64::from(n),
            lpddr.read_energy_pj_bit,
            lpddr.refresh_power_w() * f64::from(n),
            lpddr.capacity_bytes as f64 * f64::from(n) / 1e9 * lpddr.cost_per_gb_rel,
        )
    };
    let mrm_unit = |n: u32| {
        (
            mrm.capacity_bytes * u64::from(n),
            mrm.read_bw * f64::from(n),
            mrm.read_energy_pj_bit,
            0.0,
            mrm.capacity_bytes as f64 * f64::from(n) / 1e9 * mrm.cost_per_gb_rel,
        )
    };

    match kind {
        // Bulk data in HBM.
        SystemKind::HbmOnly => mk("HBM-only (8 stacks)", &[hbm_unit(8)]),
        // Bulk (cool KV) data in LPDDR; hot path still in 7 HBM stacks —
        // list HBM first, LPDDR (the bulk tier) last.
        SystemKind::HbmLpddr => mk("HBM+LPDDR (7+8)", &[hbm_unit(7), lpddr_unit(8)]),
        // Bulk data in MRM; 2 HBM stacks for activations.
        SystemKind::HbmMrm => mk("HBM+MRM (2+8)", &[hbm_unit(2), mrm_unit(8)]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison_rows() -> Vec<SystemRow> {
        SystemKind::all().into_iter().map(system_row).collect()
    }

    fn get<'a>(rows: &'a [SystemRow], n: &str) -> &'a SystemRow {
        rows.iter().find(|r| r.system.contains(n)).unwrap()
    }

    #[test]
    fn lpddr_cuts_cost_per_gb_but_also_bulk_bandwidth() {
        let rows = comparison_rows();
        let hbm = get(&rows, "HBM-only");
        let lp = get(&rows, "LPDDR");
        // More GB per cost unit...
        assert!(lp.gb_per_cost > hbm.gb_per_cost);
        // ...but the bulk data is delivered at a fraction of the bandwidth.
        assert!(
            lp.bulk_read_bw < hbm.bulk_read_bw / 5.0,
            "LPDDR bulk bw {} vs HBM {}",
            lp.bulk_read_bw,
            hbm.bulk_read_bw
        );
    }

    #[test]
    fn lpddr_does_not_improve_read_energy() {
        // §3: "fundamentally not improve the HBM's read energy efficiency."
        let rows = comparison_rows();
        let hbm = get(&rows, "HBM-only");
        let lp = get(&rows, "LPDDR");
        assert!(lp.bulk_read_pj_bit >= hbm.bulk_read_pj_bit);
    }

    #[test]
    fn mrm_improves_capacity_energy_and_bandwidth_together() {
        let rows = comparison_rows();
        let hbm = get(&rows, "HBM-only");
        let mrm = get(&rows, "HBM+MRM");
        assert!(mrm.capacity_bytes > 2 * hbm.capacity_bytes);
        assert!(mrm.bulk_read_pj_bit < hbm.bulk_read_pj_bit);
        assert!(mrm.bulk_read_bw > hbm.bulk_read_bw);
        assert!(mrm.gb_per_cost > hbm.gb_per_cost);
    }

    #[test]
    fn mrm_eliminates_always_on_refresh_for_bulk() {
        let rows = comparison_rows();
        let hbm = get(&rows, "HBM-only");
        let mrm = get(&rows, "HBM+MRM");
        // HBM-only refreshes 192 GB forever; HBM+MRM refreshes only the
        // 48 GB activation tier.
        assert!(mrm.refresh_w < hbm.refresh_w / 2.0);
    }

    #[test]
    fn all_systems_have_positive_fields() {
        for r in comparison_rows() {
            assert!(r.capacity_bytes > 0);
            assert!(r.bulk_read_bw > 0.0);
            assert!(r.cost_units > 0.0);
            assert!(r.gb_per_cost > 0.0);
        }
    }
}
