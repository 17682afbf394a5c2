//! The memory-technology database.
//!
//! One [`Technology`] value per technology the paper discusses, with the
//! datasheet-level parameters the analysis needs: latency, bandwidth, energy
//! per bit, refresh behaviour, retention, endurance, density and relative
//! cost. Endurance carries a [`Maturity`] tag because Figure 1 of the paper
//! distinguishes *product* endurance (what shipped devices are rated for)
//! from *technology potential* (what cells have demonstrated in the lab) —
//! the gap between the two is the paper's argument that SCM devices were
//! mis-targeted, not that the cells are incapable.
//!
//! Sources for the numbers are given per preset; they follow the paper's own
//! citations where it has them (Optane endurance from \[5\], Weebit RRAM from
//! \[32\], Everspin STT-MRAM from \[39\], technology surveys \[30, 47\], HBM
//! figures from \[50, 51\]).

use mrm_sim::time::SimDuration;
use mrm_sim::units::{gb_per_s, tb_per_s, GB};
use serde::{Deserialize, Serialize};

use crate::cell::{CellFamily, RetentionTradeoff};

/// Whether a parameter set describes a shipped product or demonstrated
/// technology potential.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Maturity {
    /// Rated figures from a shipping device's datasheet.
    Product,
    /// Best demonstrated capability of the underlying cell technology.
    Potential,
    /// A design point proposed in this work (MRM), derived from potentials.
    Proposed,
}

impl Maturity {
    /// Short label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            Maturity::Product => "product",
            Maturity::Potential => "potential",
            Maturity::Proposed => "proposed",
        }
    }
}

/// Coarse technology family, used for grouping in reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TechFamily {
    /// Commodity DDR DRAM.
    Dram,
    /// High Bandwidth Memory (stacked DRAM on interposer).
    Hbm,
    /// Low-power DDR DRAM.
    Lpddr,
    /// NAND Flash.
    Nand,
    /// NOR Flash.
    Nor,
    /// Phase-change memory.
    Pcm,
    /// Resistive RAM.
    Rram,
    /// Spin-transfer-torque MRAM.
    SttMram,
    /// Managed-Retention Memory (this paper's proposal).
    Mrm,
}

impl TechFamily {
    /// The cell physics family underlying this device family.
    pub fn cell_family(self) -> CellFamily {
        match self {
            TechFamily::Dram | TechFamily::Hbm | TechFamily::Lpddr => CellFamily::Dram,
            TechFamily::Nand | TechFamily::Nor => CellFamily::Flash,
            TechFamily::Pcm => CellFamily::Pcm,
            TechFamily::Rram => CellFamily::Rram,
            // MRM design points in this workspace are derived from the
            // STT-MRAM/RRAM potential envelope; STT exponents are used.
            TechFamily::SttMram | TechFamily::Mrm => CellFamily::SttMram,
        }
    }
}

/// A complete technology parameter set.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Technology {
    /// Human-readable name, e.g. `"HBM3e"` or `"RRAM (Weebit, product)"`.
    pub name: String,
    /// Device family.
    pub family: TechFamily,
    /// Product datasheet vs. demonstrated potential vs. proposed point.
    pub maturity: Maturity,
    /// Array read latency for a random access, ns.
    pub read_latency_ns: f64,
    /// Array write/program latency, ns.
    pub write_latency_ns: f64,
    /// Sustained sequential read bandwidth per device/stack, bytes/s.
    pub read_bw: f64,
    /// Sustained write bandwidth per device/stack, bytes/s.
    pub write_bw: f64,
    /// Read energy, pJ/bit, at the device interface.
    pub read_energy_pj_bit: f64,
    /// Write energy, pJ/bit.
    pub write_energy_pj_bit: f64,
    /// Static/idle power per GB, mW/GB (refresh excluded; see below).
    pub idle_mw_per_gb: f64,
    /// Cell retention time (time to first refresh / data loss).
    pub retention: SimDuration,
    /// Refresh: `Some(interval)` if the device must refresh all cells every
    /// `interval` to retain data (DRAM family), `None` otherwise.
    pub refresh_interval: Option<SimDuration>,
    /// Energy to refresh one bit once, pJ (internal RMW on the die).
    pub refresh_energy_pj_bit: f64,
    /// Rated endurance, program/erase or write cycles per cell.
    pub endurance: f64,
    /// Capacity per device/stack/package, bytes.
    pub capacity_bytes: u64,
    /// Stacked dies per package (1 for planar).
    pub layers: u32,
    /// Relative cost per GB (DDR5 DRAM ≡ 1.0).
    pub cost_per_gb_rel: f64,
    /// Whether the device exposes efficient random byte/cache-line access.
    pub byte_addressable: bool,
    /// Smallest efficient access unit, bytes (cache line for DRAM, page for
    /// NAND, block for MRM's block-oriented interface).
    pub access_unit_bytes: u64,
}

impl Technology {
    /// The retention trade-off curve anchored at this technology's shipped
    /// operating point.
    pub fn tradeoff(&self) -> RetentionTradeoff {
        let family = self.family.cell_family();
        let ceiling = match family {
            CellFamily::Dram => 1e16,
            CellFamily::Flash => 1e6,
            CellFamily::Pcm => 1e9,
            CellFamily::Rram => 1e12,
            CellFamily::SttMram => 1e15,
        };
        RetentionTradeoff {
            family,
            ref_retention: self.retention,
            ref_write_energy_pj_bit: self.write_energy_pj_bit,
            ref_write_latency_ns: self.write_latency_ns,
            ref_endurance: self.endurance,
            endurance_ceiling: ceiling,
        }
    }

    /// Average refresh power for the whole device, watts: every bit is
    /// rewritten once per refresh interval.
    ///
    /// Returns 0 for refresh-free technologies — the quantity the paper's
    /// §3 "retention becomes a cornerstone of device power management"
    /// argument is about.
    pub fn refresh_power_w(&self) -> f64 {
        match self.refresh_interval {
            None => 0.0,
            Some(interval) => {
                let bits = self.capacity_bytes as f64 * 8.0;
                let joules_per_cycle = bits * self.refresh_energy_pj_bit * 1e-12;
                joules_per_cycle / interval.as_secs_f64()
            }
        }
    }

    /// Idle (non-refresh) standby power, watts.
    pub fn idle_power_w(&self) -> f64 {
        self.idle_mw_per_gb * 1e-3 * (self.capacity_bytes as f64 / GB as f64)
    }

    /// Energy to read `bytes` sequentially, joules.
    pub fn read_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.read_energy_pj_bit * 1e-12
    }

    /// Energy to write `bytes`, joules.
    pub fn write_energy_j(&self, bytes: u64) -> f64 {
        bytes as f64 * 8.0 * self.write_energy_pj_bit * 1e-12
    }
}

/// Builders for every technology in the paper's Figure 1 and §3 discussion.
pub mod presets {
    use super::*;

    /// Commodity DDR5 DRAM DIMM (64 GB RDIMM class).
    ///
    /// Latency ~15 ns array, ~20 pJ/bit at the DIMM interface (off-package
    /// signalling dominates), 64 ms retention / 7.8 µs tREFI refresh cadence,
    /// effectively unlimited endurance. Cost is the 1.0 reference.
    pub fn ddr5() -> Technology {
        Technology {
            name: "DDR5 DRAM".into(),
            family: TechFamily::Dram,
            maturity: Maturity::Product,
            read_latency_ns: 15.0,
            write_latency_ns: 15.0,
            read_bw: gb_per_s(51.2), // two channels of DDR5-6400 ≈ 51 GB/s/DIMM
            write_bw: gb_per_s(51.2),
            read_energy_pj_bit: 20.0,
            write_energy_pj_bit: 20.0,
            idle_mw_per_gb: 2.0,
            retention: SimDuration::from_millis(64),
            refresh_interval: Some(SimDuration::from_millis(64)),
            refresh_energy_pj_bit: 0.15,
            endurance: 1e16,
            capacity_bytes: 64 * GB,
            layers: 1,
            cost_per_gb_rel: 1.0,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// HBM3e stack, B200-class (§2.1: 8 stacks × 24 GB = 192 GB, 8 TB/s
    /// aggregate → 1 TB/s per stack \[51\]; 12-high stacking \[50\]).
    ///
    /// On-interposer signalling brings interface energy down to ~3.9 pJ/bit
    /// (industry figures for HBM3-class PHYs); DRAM-array refresh still
    /// applies (tens-to-hundreds of ms, §2.1).
    pub fn hbm3e() -> Technology {
        Technology {
            name: "HBM3e".into(),
            family: TechFamily::Hbm,
            maturity: Maturity::Product,
            read_latency_ns: 110.0,
            write_latency_ns: 110.0,
            read_bw: tb_per_s(1.0),
            write_bw: tb_per_s(1.0),
            read_energy_pj_bit: 3.9,
            write_energy_pj_bit: 3.9,
            idle_mw_per_gb: 6.0,
            retention: SimDuration::from_millis(32),
            refresh_interval: Some(SimDuration::from_millis(32)),
            refresh_energy_pj_bit: 0.15,
            endurance: 1e16,
            capacity_bytes: 24 * GB,
            layers: 12,
            cost_per_gb_rel: 3.0,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// HBM4 projection: +30% capacity per layer vs. HBM3e (§2.1 / \[50\]),
    /// 16-high ceiling, ~1.6 TB/s per stack, slightly better pJ/bit.
    pub fn hbm4() -> Technology {
        let mut t = hbm3e();
        t.name = "HBM4 (projected)".into();
        t.capacity_bytes = (24.0 * 1.3 * 16.0 / 12.0 * GB as f64) as u64; // ≈ 41.6 GB
        t.layers = 16;
        t.read_bw = tb_per_s(1.6);
        t.write_bw = tb_per_s(1.6);
        t.read_energy_pj_bit = 3.5;
        t.write_energy_pj_bit = 3.5;
        t.cost_per_gb_rel = 3.5; // stacking complexity grows with height
        t
    }

    /// LPDDR5X package, GB200-superchip-class slower tier (§5 / \[35\]).
    pub fn lpddr5x() -> Technology {
        Technology {
            name: "LPDDR5X".into(),
            family: TechFamily::Lpddr,
            maturity: Maturity::Product,
            read_latency_ns: 25.0,
            write_latency_ns: 25.0,
            read_bw: gb_per_s(68.0), // x64 package at 8533 MT/s
            write_bw: gb_per_s(68.0),
            read_energy_pj_bit: 6.0,
            write_energy_pj_bit: 6.0,
            idle_mw_per_gb: 1.0,
            retention: SimDuration::from_millis(64),
            refresh_interval: Some(SimDuration::from_millis(64)),
            refresh_energy_pj_bit: 0.12,
            endurance: 1e16,
            capacity_bytes: 32 * GB,
            layers: 1,
            cost_per_gb_rel: 0.7,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// Single-level-cell NAND Flash die (fast SLC mode).
    ///
    /// The §3 argument: even SLC endurance (~1e5 P/E \[7\]) is orders of
    /// magnitude short, and page program latency (~200 µs) cannot sustain
    /// KV-cache append rates in-package.
    pub fn nand_slc() -> Technology {
        Technology {
            name: "NAND Flash (SLC)".into(),
            family: TechFamily::Nand,
            maturity: Maturity::Product,
            read_latency_ns: 25_000.0,
            write_latency_ns: 200_000.0,
            read_bw: gb_per_s(1.2),
            write_bw: gb_per_s(0.4),
            read_energy_pj_bit: 8.0,
            write_energy_pj_bit: 60.0,
            idle_mw_per_gb: 0.05,
            retention: SimDuration::from_years(10),
            refresh_interval: None,
            refresh_energy_pj_bit: 0.0,
            endurance: 1e5,
            capacity_bytes: 64 * GB,
            layers: 1,
            cost_per_gb_rel: 0.08,
            byte_addressable: false,
            access_unit_bytes: 16 * 1024,
        }
    }

    /// Triple-level-cell NAND Flash die (density-optimized).
    pub fn nand_tlc() -> Technology {
        let mut t = nand_slc();
        t.name = "NAND Flash (TLC)".into();
        t.read_latency_ns = 60_000.0;
        t.write_latency_ns = 600_000.0;
        t.write_bw = gb_per_s(0.15);
        t.endurance = 3e3;
        t.capacity_bytes = 192 * GB;
        t.cost_per_gb_rel = 0.03;
        t
    }

    /// NOR Flash (byte-addressable reads, slow block erase/program).
    pub fn nor_flash() -> Technology {
        Technology {
            name: "NOR Flash".into(),
            family: TechFamily::Nor,
            maturity: Maturity::Product,
            read_latency_ns: 100.0,
            write_latency_ns: 10_000_000.0, // word program + erase amortized
            read_bw: gb_per_s(0.4),
            write_bw: gb_per_s(0.001),
            read_energy_pj_bit: 6.0,
            write_energy_pj_bit: 500.0,
            idle_mw_per_gb: 0.05,
            retention: SimDuration::from_years(20),
            refresh_interval: None,
            refresh_energy_pj_bit: 0.0,
            endurance: 1e5,
            capacity_bytes: 2 * GB,
            layers: 1,
            cost_per_gb_rel: 2.0,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// PCM as shipped in Intel Optane DC PMM (paper ref \[5\]).
    ///
    /// Endurance derived from the 350 PBW / 128 GB / 5-year warranty point
    /// discussed in \[5\]: ≈ 3e6 rated cycles. Read ~170 ns, write ~500 ns.
    pub fn pcm_optane_product() -> Technology {
        Technology {
            name: "PCM (Optane, product)".into(),
            family: TechFamily::Pcm,
            maturity: Maturity::Product,
            read_latency_ns: 170.0,
            write_latency_ns: 500.0,
            read_bw: gb_per_s(6.8),
            write_bw: gb_per_s(2.3),
            read_energy_pj_bit: 10.0,
            write_energy_pj_bit: 120.0,
            idle_mw_per_gb: 0.8,
            retention: SimDuration::from_years(10),
            refresh_interval: None,
            refresh_energy_pj_bit: 0.0,
            endurance: 3e6,
            capacity_bytes: 128 * GB,
            layers: 1,
            cost_per_gb_rel: 0.5,
            byte_addressable: true,
            access_unit_bytes: 256,
        }
    }

    /// PCM technology potential (Lee et al. \[24\]; surveys \[30, 47\]):
    /// sub-100 ns access demonstrated, ~1e9 endurance in research cells.
    pub fn pcm_potential() -> Technology {
        let mut t = pcm_optane_product();
        t.name = "PCM (potential)".into();
        t.maturity = Maturity::Potential;
        t.read_latency_ns = 60.0;
        t.write_latency_ns = 150.0;
        t.read_bw = gb_per_s(400.0); // array-limited, wide-IO organization
        t.write_bw = gb_per_s(100.0);
        t.read_energy_pj_bit = 2.0;
        t.write_energy_pj_bit = 30.0;
        t.endurance = 1e9;
        t.cost_per_gb_rel = 0.4;
        t
    }

    /// RRAM as shipped in embedded products (Weebit-class, paper ref \[32\]):
    /// ~1e5–1e6 cycles at 10-year automotive retention.
    pub fn rram_product() -> Technology {
        Technology {
            name: "RRAM (Weebit, product)".into(),
            family: TechFamily::Rram,
            maturity: Maturity::Product,
            read_latency_ns: 100.0,
            write_latency_ns: 1_000.0,
            read_bw: gb_per_s(1.0),
            write_bw: gb_per_s(0.1),
            read_energy_pj_bit: 5.0,
            write_energy_pj_bit: 50.0,
            idle_mw_per_gb: 0.1,
            retention: SimDuration::from_years(10),
            refresh_interval: None,
            refresh_energy_pj_bit: 0.0,
            endurance: 1e5,
            capacity_bytes: GB / 8, // embedded macro scale
            layers: 1,
            cost_per_gb_rel: 4.0,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// RRAM technology potential: sub-ns switching and >1e10 endurance
    /// demonstrated for HfOx cells (Lee et al. IEDM'10 \[25\]); crossbar
    /// densities competitive with DRAM (Xu et al. HPCA'15 \[56\]).
    pub fn rram_potential() -> Technology {
        let mut t = rram_product();
        t.name = "RRAM (potential)".into();
        t.maturity = Maturity::Potential;
        t.read_latency_ns = 30.0;
        t.write_latency_ns = 50.0;
        t.read_bw = gb_per_s(800.0);
        t.write_bw = gb_per_s(200.0);
        t.read_energy_pj_bit = 1.5;
        t.write_energy_pj_bit = 10.0;
        t.endurance = 1e10;
        t.capacity_bytes = 48 * GB;
        t.layers = 4; // transistor-less crossbar stacking [56]
        t.cost_per_gb_rel = 0.8;
        t
    }

    /// STT-MRAM as shipped (Everspin-class, paper ref \[39\]): ~1e10 cycles,
    /// DDR-like interfaces at modest density.
    pub fn stt_mram_product() -> Technology {
        Technology {
            name: "STT-MRAM (Everspin, product)".into(),
            family: TechFamily::SttMram,
            maturity: Maturity::Product,
            read_latency_ns: 35.0,
            write_latency_ns: 50.0,
            read_bw: gb_per_s(3.2),
            write_bw: gb_per_s(1.6),
            read_energy_pj_bit: 3.0,
            write_energy_pj_bit: 25.0,
            idle_mw_per_gb: 0.3,
            retention: SimDuration::from_years(10),
            refresh_interval: None,
            refresh_energy_pj_bit: 0.0,
            endurance: 1e10,
            capacity_bytes: GB,
            layers: 1,
            cost_per_gb_rel: 20.0,
            byte_addressable: true,
            access_unit_bytes: 64,
        }
    }

    /// STT-MRAM technology potential: SRAM-class read performance and
    /// effectively unlimited endurance at relaxed retention (Marinelli et
    /// al. \[28\]; surveys \[30, 47\]).
    pub fn stt_mram_potential() -> Technology {
        let mut t = stt_mram_product();
        t.name = "STT-MRAM (potential)".into();
        t.maturity = Maturity::Potential;
        t.read_latency_ns = 10.0;
        t.write_latency_ns = 15.0;
        t.read_bw = gb_per_s(1_000.0);
        t.write_bw = gb_per_s(400.0);
        t.read_energy_pj_bit = 1.0;
        t.write_energy_pj_bit = 8.0;
        t.endurance = 1e15;
        t.capacity_bytes = 16 * GB;
        t.layers = 2;
        t.cost_per_gb_rel = 2.5;
        t
    }

    /// An MRM design point at the given retention target (the paper's
    /// proposal, §3): derived from the resistive-technology potential
    /// envelope with retention relaxed from 10 years to `retention`.
    ///
    /// Reads: on par or better than HBM per bit (the technologies "have
    /// read performance and energy on par or better than DRAM or even
    /// SRAM" \[28\]); density: crossbar stacking without DRAM's tall
    /// capacitors \[40, 56\] gives ~2× HBM3e per-stack capacity at lower
    /// cost; writes: slower than HBM (the accepted trade); endurance and
    /// write energy: from the [`RetentionTradeoff`] curve at `retention`.
    pub fn mrm(retention: SimDuration) -> Technology {
        let envelope = stt_mram_potential();
        let point = envelope.tradeoff().at(retention);
        Technology {
            name: format!("MRM ({retention})"),
            family: TechFamily::Mrm,
            maturity: Maturity::Proposed,
            read_latency_ns: 50.0,
            write_latency_ns: point.write_latency_ns.max(20.0),
            read_bw: tb_per_s(1.2), // per stack; wide internal IO, no refresh stalls
            write_bw: gb_per_s(120.0),
            read_energy_pj_bit: 1.5, // < HBM3e's 3.9 pJ/bit
            write_energy_pj_bit: point.write_energy_pj_bit,
            idle_mw_per_gb: 0.05, // no refresh, no cell leakage to first order
            retention,
            refresh_interval: None, // retention is managed by software, §4
            refresh_energy_pj_bit: 0.0,
            endurance: point.endurance,
            capacity_bytes: 48 * GB, // ~2× HBM3e stack capacity
            layers: 8,
            cost_per_gb_rel: 1.5,    // simpler process than 12-high stacked DRAM
            byte_addressable: false, // block-level controller interface, §4
            access_unit_bytes: 4096,
        }
    }

    /// The paper's sweet-spot MRM class: hours of retention, matching KV
    /// cache + weight-epoch lifetimes ("retention can be relaxed to days or
    /// hours", §1).
    pub fn mrm_hours() -> Technology {
        mrm(SimDuration::from_hours(12))
    }

    /// A days-retention MRM class for weights and reusable KV prefixes.
    pub fn mrm_days() -> Technology {
        mrm(SimDuration::from_days(7))
    }

    /// A minutes-retention MRM class for short-lived contexts.
    pub fn mrm_minutes() -> Technology {
        mrm(SimDuration::from_mins(10))
    }

    /// Every technology in the database, product and potential variants,
    /// in Figure-1 display order.
    pub fn all() -> Vec<Technology> {
        vec![
            ddr5(),
            hbm3e(),
            hbm4(),
            lpddr5x(),
            nand_slc(),
            nand_tlc(),
            nor_flash(),
            pcm_optane_product(),
            pcm_potential(),
            rram_product(),
            rram_potential(),
            stt_mram_product(),
            stt_mram_potential(),
            mrm_minutes(),
            mrm_hours(),
            mrm_days(),
        ]
    }

    /// A B200-class accelerator memory system: 8 HBM3e stacks, 192 GB,
    /// 8 TB/s (§2.1 / \[51\]). Returned as (stack technology, stack count).
    pub fn b200_hbm_system() -> (Technology, u32) {
        (hbm3e(), 8)
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    #[test]
    fn b200_system_matches_paper() {
        let (stack, n) = b200_hbm_system();
        let cap = stack.capacity_bytes * u64::from(n);
        assert_eq!(cap, 192 * GB, "§2.1: 192 GB per B200 package");
        let bw = stack.read_bw * f64::from(n);
        assert!((bw / 8e12 - 1.0).abs() < 0.01, "§2.1: 8 TB/s, got {bw}");
        assert_eq!(stack.layers, 12, "current HBM products have 8-12 layers");
    }

    #[test]
    fn hbm4_capacity_gain_is_thirty_percent_per_layer() {
        let h3 = hbm3e();
        let h4 = hbm4();
        let per_layer_3 = h3.capacity_bytes as f64 / f64::from(h3.layers);
        let per_layer_4 = h4.capacity_bytes as f64 / f64::from(h4.layers);
        let gain = per_layer_4 / per_layer_3;
        assert!((gain - 1.3).abs() < 0.01, "§2.1: +30%/layer, got {gain}");
        assert!(
            h4.layers <= 16,
            "§2.1: not expected to scale beyond 16 layers"
        );
    }

    #[test]
    fn refresh_power_only_for_dram_family() {
        assert!(ddr5().refresh_power_w() > 0.0);
        assert!(hbm3e().refresh_power_w() > 0.0);
        assert!(lpddr5x().refresh_power_w() > 0.0);
        assert!(nand_slc().refresh_power_w().abs() < f64::EPSILON);
        assert!(pcm_optane_product().refresh_power_w().abs() < f64::EPSILON);
        assert!(mrm_hours().refresh_power_w().abs() < f64::EPSILON);
    }

    #[test]
    fn hbm_refresh_power_is_significant() {
        // A 24 GB stack refreshing every 32 ms at 0.15 pJ/bit: ~0.9 W —
        // consistent with the §2.1 "consuming power even when idle" claim.
        let p = hbm3e().refresh_power_w();
        assert!(p > 0.3 && p < 3.0, "refresh power {p} W");
    }

    #[test]
    fn endurance_ordering_matches_figure_1() {
        // Figure 1's qualitative ordering.
        let e = |t: Technology| t.endurance;
        assert!(e(ddr5()) >= 1e15, "DRAM/HBM vastly overprovisioned");
        assert!(e(hbm3e()) >= 1e15);
        assert!(e(nand_tlc()) < e(nand_slc()));
        assert!(e(nand_slc()) <= 1e5);
        assert!(e(pcm_optane_product()) < e(pcm_potential()));
        assert!(e(rram_product()) < e(rram_potential()));
        assert!(e(stt_mram_product()) < e(stt_mram_potential()));
    }

    #[test]
    fn mrm_read_energy_beats_hbm() {
        // §3: "read performance and energy on par or better than DRAM".
        assert!(mrm_hours().read_energy_pj_bit < hbm3e().read_energy_pj_bit);
        assert!(mrm_hours().read_bw >= hbm3e().read_bw);
    }

    #[test]
    fn mrm_capacity_and_cost_beat_hbm() {
        let m = mrm_hours();
        let h = hbm3e();
        assert!(m.capacity_bytes >= 2 * h.capacity_bytes);
        assert!(m.cost_per_gb_rel < h.cost_per_gb_rel);
    }

    #[test]
    fn mrm_trades_write_performance() {
        // The accepted trade: MRM writes are slower than HBM writes.
        let m = mrm_hours();
        let h = hbm3e();
        assert!(m.write_bw < h.write_bw);
    }

    #[test]
    fn mrm_endurance_grows_as_retention_relaxes() {
        let days = mrm(SimDuration::from_days(7)).endurance;
        let hours = mrm(SimDuration::from_hours(1)).endurance;
        let mins = mrm(SimDuration::from_mins(1)).endurance;
        assert!(hours >= days);
        assert!(mins >= hours);
    }

    #[test]
    fn mrm_write_energy_below_scm_anchor() {
        // Relaxed retention must cost less write energy than the 10-year
        // potential anchor it derives from.
        let anchor = stt_mram_potential().write_energy_pj_bit;
        assert!(mrm_hours().write_energy_pj_bit < anchor);
    }

    #[test]
    fn scm_products_fail_endurance_but_potentials_pass() {
        // §3's key observation, quantified roughly: a KV-cache workload
        // needs ~1e6-1e8 writes/cell over 5 years (computed precisely in
        // mrm-analysis). Products sit below or at the edge; potentials above.
        let kv_requirement = 1e7;
        assert!(pcm_optane_product().endurance < kv_requirement);
        assert!(rram_product().endurance < kv_requirement);
        assert!(pcm_potential().endurance > kv_requirement);
        assert!(rram_potential().endurance > kv_requirement);
        assert!(stt_mram_potential().endurance > kv_requirement);
    }

    #[test]
    fn energy_helpers() {
        let h = hbm3e();
        let j = h.read_energy_j(GB);
        // 1 GB = 8e9 bits at 3.9 pJ/bit ≈ 31.2 mJ.
        assert!((j - 0.0312).abs() < 0.001, "read energy {j} J");
        assert!(h.write_energy_j(GB) > 0.0);
    }

    #[test]
    fn all_presets_are_self_consistent() {
        for t in all() {
            assert!(t.read_latency_ns > 0.0, "{}", t.name);
            assert!(t.write_latency_ns > 0.0, "{}", t.name);
            assert!(t.read_bw > 0.0, "{}", t.name);
            assert!(t.write_bw > 0.0, "{}", t.name);
            assert!(
                t.read_bw >= t.write_bw,
                "{}: reads slower than writes",
                t.name
            );
            assert!(t.endurance > 0.0, "{}", t.name);
            assert!(t.capacity_bytes > 0, "{}", t.name);
            assert!(t.cost_per_gb_rel > 0.0, "{}", t.name);
            assert!(t.access_unit_bytes.is_power_of_two(), "{}", t.name);
            if let Some(interval) = t.refresh_interval {
                assert!(t.refresh_energy_pj_bit > 0.0, "{}", t.name);
                assert_eq!(interval, t.retention, "{}", t.name);
            }
        }
    }

    #[test]
    fn tradeoff_anchors_at_datasheet() {
        for t in all() {
            let point = t.tradeoff().at(t.retention);
            // Datasheet anchor: the tradeoff returns the stored values
            // bit-identically.
            assert_eq!(
                point.write_energy_pj_bit.to_bits(),
                t.write_energy_pj_bit.to_bits(),
                "{}",
                t.name
            );
            assert_eq!(
                point.endurance.to_bits(),
                t.endurance.to_bits(),
                "{}",
                t.name
            );
        }
    }

    #[test]
    fn maturity_labels() {
        assert_eq!(Maturity::Product.label(), "product");
        assert_eq!(Maturity::Potential.label(), "potential");
        assert_eq!(Maturity::Proposed.label(), "proposed");
    }
}
