//! Energy accounting.
//!
//! The paper's §2.1 observation — "approximately a third of the energy usage
//! for an AI accelerator is the memory" — and §3's "power efficiency is
//! perhaps the most important metric" make energy a first-class output of
//! every simulation. [`EnergyBreakdown`] decomposes consumption into the
//! four components the paper argues about: useful reads, useful writes,
//! housekeeping (refresh / wear-levelling / GC traffic), and idle leakage.
//! [`EnergyMeter`] accumulates the first three per access; idle leakage is
//! charged from elapsed time by the caller that owns the clock.

use serde::{Deserialize, Serialize};

/// Decomposed energy totals, joules.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Energy spent on demand reads.
    pub read_j: f64,
    /// Energy spent on demand writes.
    pub write_j: f64,
    /// Energy spent on housekeeping: refresh, wear-levelling moves, GC
    /// rewrites, scrubbing — everything §3 calls "housekeeping operations
    /// internal to the memory device".
    pub housekeeping_j: f64,
    /// Standby/leakage energy.
    pub idle_j: f64,
}

impl EnergyBreakdown {
    /// Total energy, joules.
    pub fn total_j(&self) -> f64 {
        self.read_j + self.write_j + self.housekeeping_j + self.idle_j
    }

    /// Element-wise sum.
    pub fn merged(&self, other: &EnergyBreakdown) -> EnergyBreakdown {
        EnergyBreakdown {
            read_j: self.read_j + other.read_j,
            write_j: self.write_j + other.write_j,
            housekeeping_j: self.housekeeping_j + other.housekeeping_j,
            idle_j: self.idle_j + other.idle_j,
        }
    }
}

/// A mutable energy accumulator with per-bit rates baked in.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EnergyMeter {
    read_energy_j_per_byte: f64,
    write_energy_j_per_byte: f64,
    totals: EnergyBreakdown,
}

impl EnergyMeter {
    /// Creates a meter with the given per-bit access energies (pJ/bit).
    pub fn new(read_pj_bit: f64, write_pj_bit: f64) -> Self {
        EnergyMeter {
            read_energy_j_per_byte: read_pj_bit * 1e-12 * 8.0,
            write_energy_j_per_byte: write_pj_bit * 1e-12 * 8.0,
            totals: EnergyBreakdown::default(),
        }
    }

    /// Accounts a demand read of `bytes`.
    pub fn read(&mut self, bytes: u64) {
        self.totals.read_j += bytes as f64 * self.read_energy_j_per_byte;
    }

    /// Accounts a demand write of `bytes`.
    pub fn write(&mut self, bytes: u64) {
        self.totals.write_j += bytes as f64 * self.write_energy_j_per_byte;
    }

    /// Accounts a housekeeping read-modify-write of `bytes` (refresh, GC
    /// move, scrub rewrite): charged at read + write cost.
    pub fn housekeeping_rmw(&mut self, bytes: u64) {
        self.totals.housekeeping_j +=
            bytes as f64 * (self.read_energy_j_per_byte + self.write_energy_j_per_byte);
    }

    /// The accumulated breakdown.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::GB;

    #[test]
    fn read_write_accounting() {
        let mut m = EnergyMeter::new(4.0, 8.0);
        m.read(GB);
        m.write(GB);
        let b = m.breakdown();
        // 1 GB = 8e9 bits; 4 pJ/bit → 32 mJ; 8 pJ/bit → 64 mJ.
        assert!((b.read_j - 0.032).abs() < 1e-6);
        assert!((b.write_j - 0.064).abs() < 1e-6);
        assert!(b.housekeeping_j.abs() < f64::EPSILON);
    }

    #[test]
    fn housekeeping_rmw_charges_both_directions() {
        let mut m = EnergyMeter::new(4.0, 8.0);
        m.housekeeping_rmw(GB);
        let b = m.breakdown();
        assert!((b.housekeeping_j - 0.096).abs() < 1e-6);
        assert!(b.read_j.abs() < f64::EPSILON);
    }

    #[test]
    fn merged_adds_components() {
        let mut a = EnergyMeter::new(1.0, 1.0);
        a.read(GB);
        let mut b = EnergyMeter::new(2.0, 2.0);
        b.write(GB);
        let merged = a.breakdown().merged(&b.breakdown());
        assert!(merged.read_j > 0.0 && merged.write_j > 0.0);
        assert!(
            (merged.total_j() - (a.breakdown().total_j() + b.breakdown().total_j())).abs() < 1e-12
        );
    }
}
