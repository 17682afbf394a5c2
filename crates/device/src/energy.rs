//! Energy accounting.
//!
//! The paper's §2.1 observation — "approximately a third of the energy usage
//! for an AI accelerator is the memory" — and §3's "power efficiency is
//! perhaps the most important metric" make energy a first-class output of
//! every simulation. [`EnergyBreakdown`] decomposes consumption into the
//! four components the paper argues about: useful reads, useful writes,
//! housekeeping (refresh / wear-levelling / GC traffic), and idle leakage.
//! [`EnergyLedger`] is the one accounting that devices and tiers share: it
//! counts traffic in integers (bytes read, bytes written per retention,
//! housekeeping bytes, background time) and prices them from a
//! [`Technology`] only when asked, so the energy does not depend on the
//! order of the charges.

#[allow(clippy::disallowed_types)] // `written` is summed as integers or sorted before pricing
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use mrm_sim::time::SimDuration;

use crate::tech::Technology;

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

/// Hashes a retention's nanoseconds with one folded multiply, which is
/// cheap and spreads the low bits that select a bucket.
#[derive(Default)]
struct RetentionHasher(u64);

impl Hasher for RetentionHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a retention hashes as one u64")
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(n) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m >> 64) as u64 ^ m as u64;
    }
}

/// Traffic counted in integers and priced on demand.
#[derive(Clone, Debug, Default)]
pub struct EnergyLedger {
    /// Demand bytes read.
    read: u64,
    /// Demand bytes written per retention. Never capped: every written
    /// byte stays in the ledger, so the energy priced from it does not
    /// depend on the order of the writes. A tier writes at two or three
    /// retentions, a zone device at thousands (its retentions are
    /// continuous), so the map is a hash map, sorted only when priced.
    #[allow(clippy::disallowed_types)] // summed as integers or sorted before pricing
    written: HashMap<SimDuration, u64, BuildHasherDefault<RetentionHasher>>,
    /// Bytes read and rewritten by housekeeping (scrub or refresh).
    housekeeping: u64,
    /// Elapsed time charged for idle and refresh power.
    background: SimDuration,
}

impl EnergyLedger {
    /// Counts a demand read of `bytes`.
    pub fn read(&mut self, bytes: u64) {
        self.read += bytes;
    }

    /// Counts a demand write of `bytes` programmed for `retention`.
    pub fn write(&mut self, retention: SimDuration, bytes: u64) {
        *self.written.entry(retention).or_default() += bytes;
    }

    /// Counts a housekeeping read-modify-write of `bytes` (refresh, GC
    /// move, scrub rewrite), priced as a read plus a rewrite.
    pub fn housekeeping_rmw(&mut self, bytes: u64) {
        self.housekeeping += bytes;
    }

    /// Counts `elapsed` of background time, priced at idle power plus
    /// refresh power for DRAM-family technologies.
    pub fn background(&mut self, elapsed: SimDuration) {
        self.background += elapsed;
    }

    /// Demand traffic so far: `(bytes_read, bytes_written)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.read, self.written.values().sum())
    }

    /// Total energy at `tech`'s prices: reads at its read energy, each
    /// retention's written bytes at its point on the retention curve
    /// (summed in ascending retention order), housekeeping as a read plus
    /// a datasheet-point rewrite, and background time at idle and refresh
    /// power.
    pub fn energy(&self, tech: &Technology) -> EnergyBreakdown {
        let curve = tech.tradeoff();
        let mut written: Vec<(SimDuration, u64)> =
            self.written.iter().map(|(&rt, &b)| (rt, b)).collect();
        written.sort_unstable();
        let write_j = written.iter().fold(0.0, |j, &(rt, bytes)| {
            j + bytes as f64 * 8.0 * curve.at(rt).write_energy_pj_bit * 1e-12
        });
        let secs = self.background.as_secs_f64();
        let scrub_j =
            tech.read_energy_j(self.housekeeping) + tech.write_energy_j(self.housekeeping);
        EnergyBreakdown {
            read_j: tech.read_energy_j(self.read),
            write_j,
            housekeeping_j: scrub_j + tech.refresh_power_w() * secs,
            idle_j: tech.idle_power_w() * secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::MemoryDevice;
    use crate::tech::presets;
    use mrm_sim::time::SimTime;
    use mrm_sim::units::{GB, GIB, MIB};

    /// A technology at `read` and `write` pJ/bit.
    fn priced(read: f64, write: f64) -> Technology {
        let mut t = presets::mrm_days();
        t.read_energy_pj_bit = read;
        t.write_energy_pj_bit = write;
        t
    }

    #[test]
    fn read_write_accounting() {
        let tech = priced(4.0, 8.0);
        let mut l = EnergyLedger::default();
        l.read(GB);
        l.write(tech.retention, GB);
        let b = l.energy(&tech);
        // 1 GB = 8e9 bits; 4 pJ/bit → 32 mJ; 8 pJ/bit → 64 mJ.
        assert!((b.read_j - 0.032).abs() < 1e-6);
        assert!((b.write_j - 0.064).abs() < 1e-6);
        assert!(b.housekeeping_j.abs() < f64::EPSILON);
        assert_eq!(l.traffic(), (GB, GB));
    }

    #[test]
    fn housekeeping_rmw_charges_both_directions() {
        let tech = priced(4.0, 8.0);
        let mut l = EnergyLedger::default();
        l.housekeeping_rmw(GB);
        let b = l.energy(&tech);
        assert!((b.housekeeping_j - 0.096).abs() < 1e-6);
        assert!(b.read_j.abs() < f64::EPSILON);
        assert_eq!(l.traffic(), (0, 0));
    }

    #[test]
    fn merged_adds_components() {
        let mut a = EnergyLedger::default();
        a.read(GB);
        let mut b = EnergyLedger::default();
        let tech_b = priced(2.0, 2.0);
        b.write(tech_b.retention, GB);
        let (a, b) = (a.energy(&priced(1.0, 1.0)), b.energy(&tech_b));
        let merged = a.merged(&b);
        assert!(merged.read_j > 0.0 && merged.write_j > 0.0);
        assert!((merged.total_j() - (a.total_j() + b.total_j())).abs() < 1e-12);
    }

    /// 20 distinct retentions, more than a bounded write-point table held.
    fn many_retentions() -> Vec<SimDuration> {
        (1..=20).map(|k| SimDuration::from_mins(7 * k)).collect()
    }

    /// Asserts every component of `got` has the bits of `want`.
    fn assert_same_bits(got: EnergyBreakdown, want: EnergyBreakdown, what: &str) {
        for (g, w) in [
            (got.read_j, want.read_j),
            (got.write_j, want.write_j),
            (got.housekeeping_j, want.housekeeping_j),
            (got.idle_j, want.idle_j),
        ] {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}");
        }
    }

    /// `ops` reversed, in a fixed stride permutation, and interleaved from
    /// both ends.
    fn reorderings<T: Copy>(ops: &[T]) -> [Vec<T>; 3] {
        let reversed = ops.iter().rev().copied().collect();
        let strided = (0..ops.len()).map(|i| ops[(i * 7) % ops.len()]).collect();
        let mut ends = Vec::new();
        for i in 0..ops.len() / 2 {
            ends.push(ops[i]);
            ends.push(ops[ops.len() - 1 - i]);
        }
        [reversed, strided, ends]
    }

    #[test]
    fn energy_bits_do_not_depend_on_charge_order() {
        // `Some(rt)` writes the bytes at `rt`, `None` reads them.
        let rts = many_retentions();
        let mut ops: Vec<(u64, Option<SimDuration>)> = Vec::new();
        for (i, &rt) in rts.iter().enumerate() {
            let i = i as u64;
            ops.push((327_680 + 4096 * i, Some(rt)));
            ops.push((3 * GIB + 7 * i, None));
            ops.push((4096 * (i % 3 + 1), Some(rts[(i as usize * 7) % rts.len()])));
        }
        let charged = |ops: &[(u64, Option<SimDuration>)]| {
            let mut l = EnergyLedger::default();
            for &(bytes, rt) in ops {
                match rt {
                    Some(rt) => l.write(rt, bytes),
                    None => l.read(bytes),
                }
            }
            l
        };
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            let reference = charged(&ops).energy(&tech);
            for order in reorderings(&ops) {
                assert_same_bits(charged(&order).energy(&tech), reference, &tech.name);
            }
        }
    }

    /// A device's reads, retention-tagged writes of mixed sizes and
    /// refreshes give the same energy bits in any order.
    #[test]
    fn device_energy_bits_do_not_depend_on_charge_order() {
        #[derive(Clone, Copy)]
        enum Op {
            Read(u64),
            Write(u64, SimDuration),
            Refresh(u64),
        }
        let rts = [
            SimDuration::from_mins(10),
            SimDuration::from_hours(3),
            SimDuration::from_days(2),
            SimDuration::from_days(7),
        ];
        let mut ops = Vec::new();
        for i in 0..40u64 {
            ops.push(Op::Write(MIB + 4099 * i, rts[i as usize % rts.len()]));
            ops.push(Op::Write(
                3 * 4096 + 17 * i,
                rts[(i as usize * 3 + 1) % rts.len()],
            ));
            if i % 3 == 0 {
                ops.push(Op::Read(2 * MIB + 13 * i));
            }
            if i % 5 == 0 {
                ops.push(Op::Refresh(MIB));
            }
        }
        let charged = |ops: &[Op]| {
            let mut dev = MemoryDevice::new(presets::mrm_days());
            for (i, &op) in ops.iter().enumerate() {
                let at = SimTime::ZERO + SimDuration::from_secs(i as u64);
                let addr = (i as u64 % 7) * 4 * MIB;
                match op {
                    Op::Read(len) => {
                        dev.read(at, addr, len).unwrap();
                    }
                    Op::Write(len, rt) => {
                        dev.write_with_retention(at, addr, len, rt).unwrap();
                    }
                    Op::Refresh(len) => {
                        dev.refresh_range(at, addr, len).unwrap();
                    }
                }
            }
            dev.energy()
        };
        let reference = charged(&ops);
        for order in reorderings(&ops) {
            assert_same_bits(charged(&order), reference, "device");
        }
    }

    #[test]
    fn write_energy_sums_the_ledger_in_retention_order() {
        let rts = many_retentions();
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            let mut l = EnergyLedger::default();
            // Written in descending retention order, twice each, with a
            // per-retention size.
            for (k, &rt) in rts.iter().enumerate().rev() {
                for _ in 0..2 {
                    l.write(rt, 4096 * (k as u64 + 1));
                }
            }
            let curve = tech.tradeoff();
            let mut want = 0.0;
            for (k, &rt) in rts.iter().enumerate() {
                let bytes = 2 * 4096 * (k as u64 + 1);
                want += bytes as f64 * 8.0 * curve.at(rt).write_energy_pj_bit * 1e-12;
            }
            assert_eq!(
                l.energy(&tech).write_j.to_bits(),
                want.to_bits(),
                "{}",
                tech.name
            );
            let bytes: u64 = (1..=rts.len() as u64).map(|k| 2 * 4096 * k).sum();
            assert_eq!(l.traffic(), (0, bytes));
        }
    }
}
