//! Memory tiers: named pools with aggregate bandwidth and cost.
//!
//! A [`Tier`] aggregates `n` identical devices (HBM stacks, MRM packages,
//! LPDDR packages) into one pool with summed capacity and bandwidth — the
//! granularity the placement policies reason at. It counts the traffic it
//! carries in integer ledgers (bytes read, bytes written per retention,
//! scrub bytes, background time), prices them from the fused
//! [`Technology`] only when [`Tier::energy`] is asked, and models no
//! per-block device state.

use mrm_core::pool::{Allocation, Pool, PoolError};
use mrm_device::energy::EnergyBreakdown;
use mrm_device::tech::Technology;
use mrm_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// The role a tier plays in the §4 layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TierKind {
    /// HBM: write-heavy structures (activations) and, in the baseline,
    /// everything else too.
    Hbm,
    /// MRM: weights and KV caches (read-heavy, append-only).
    Mrm,
    /// LPDDR: the slower, cheaper cold tier.
    Lpddr,
}

impl TierKind {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TierKind::Hbm => "HBM",
            TierKind::Mrm => "MRM",
            TierKind::Lpddr => "LPDDR",
        }
    }
}

/// One memory tier: `n` devices of one technology fused into a pool.
#[derive(Clone, Debug)]
pub struct Tier {
    kind: TierKind,
    /// The device technology with capacity summed across devices.
    tech: Technology,
    pool: Pool,
    /// Aggregate sequential read bandwidth, bytes/s.
    read_bw: f64,
    /// Aggregate write bandwidth, bytes/s.
    write_bw: f64,
    /// Relative cost of the tier (capacity GB × cost/GB).
    cost_units: f64,
    /// Demand bytes read.
    bytes_read: u64,
    /// Demand bytes written per retention, ascending by retention. Never
    /// capped: every written byte stays in the ledger, so the energy
    /// priced from it does not depend on the order of the writes.
    written: Vec<(SimDuration, u64)>,
    /// Bytes read and rewritten by software scrubs.
    scrub_bytes: u64,
    /// Elapsed time charged for idle and refresh power.
    background: SimDuration,
    /// Recent read times at `read_bw`. Three entries hold a decode
    /// iteration's weights and activation reads across the varying KV
    /// read when all three land on one tier (`HbmOnly`).
    read_memo: Memo<3>,
    /// Recent per-write times at `write_bw`. Two entries hold the KV
    /// append's size across a prefill or activation write on the same
    /// tier.
    write_memo: Memo<2>,
}

/// Time to move `bytes` at `bw` bytes/s.
fn transfer_time(bytes: u64, bw: f64) -> SimDuration {
    SimDuration::from_secs_f64(bytes as f64 / bw)
}

/// The last `N` distinct transfer sizes at one bandwidth and their times,
/// most recent first. Each time is the exact value of [`transfer_time`]
/// at that bandwidth, which [`Tier::new`] fixes, so a hit returns the
/// bits the formula would.
#[derive(Clone, Copy, Debug)]
struct Memo<const N: usize>([(u64, SimDuration); N]);

impl<const N: usize> Memo<N> {
    /// Zero bytes take zero time at any bandwidth, so the empty memo is
    /// already exact.
    const EMPTY: Self = Memo([(0, SimDuration::ZERO); N]);

    /// The time to move `bytes` at `bw`, which becomes the most recent
    /// entry; a miss evicts the least recent.
    fn time(&mut self, bytes: u64, bw: f64) -> SimDuration {
        let e = &mut self.0;
        let (last, d) = match e.iter().position(|&(b, _)| b == bytes) {
            Some(i) => (i, e[i].1),
            None => (N - 1, transfer_time(bytes, bw)),
        };
        for k in (1..=last).rev() {
            e[k] = e[k - 1];
        }
        e[0] = (bytes, d);
        d
    }
}

impl Tier {
    /// Builds a tier of `devices` identical devices of `tech`.
    ///
    /// The pool spans the aggregate capacity; bandwidth sums across
    /// devices (inference reads stripe across stacks, §2.1).
    pub fn new(kind: TierKind, tech: Technology, devices: u32) -> Self {
        let mut fused = tech.clone();
        fused.capacity_bytes = tech.capacity_bytes * u64::from(devices);
        let read_bw = tech.read_bw * f64::from(devices);
        let write_bw = tech.write_bw * f64::from(devices);
        let cost_units = fused.capacity_bytes as f64 / 1e9 * tech.cost_per_gb_rel;
        Tier {
            kind,
            pool: Pool::new(fused.capacity_bytes),
            tech: fused,
            read_bw,
            write_bw,
            cost_units,
            bytes_read: 0,
            written: Vec::new(),
            scrub_bytes: 0,
            background: SimDuration::ZERO,
            read_memo: Memo::EMPTY,
            write_memo: Memo::EMPTY,
        }
    }

    /// The tier's role.
    pub fn kind(&self) -> TierKind {
        self.kind
    }

    /// Aggregate capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.pool.capacity_bytes()
    }

    /// Bytes allocated.
    pub fn used_bytes(&self) -> u64 {
        self.pool.used_bytes()
    }

    /// Relative hardware cost of the tier.
    pub fn cost_units(&self) -> f64 {
        self.cost_units
    }

    /// Demand traffic so far: `(bytes_read, bytes_written)`.
    pub fn traffic(&self) -> (u64, u64) {
        (self.bytes_read, self.written.iter().map(|&(_, b)| b).sum())
    }

    /// Allocates from the tier.
    pub fn alloc(&mut self, bytes: u64) -> Result<Allocation, PoolError> {
        self.pool.alloc(bytes)
    }

    /// Frees an allocation.
    pub fn free(&mut self, a: Allocation) -> Result<(), PoolError> {
        self.pool.free(a)
    }

    /// Time to read `bytes` sequentially at aggregate tier bandwidth.
    /// The bytes enter the read ledger.
    pub fn stream_read(&mut self, bytes: u64) -> SimDuration {
        self.bytes_read += bytes;
        self.read_memo.time(bytes, self.read_bw)
    }

    /// Time to write `bytes` sequentially at aggregate tier bandwidth. The
    /// bytes enter the write ledger under `retention`.
    pub fn stream_write(&mut self, bytes: u64, retention: SimDuration) -> SimDuration {
        self.append(bytes, &[(retention, 1)])
    }

    /// Writes `bytes` `count` times for each `(retention, count)` pair, the
    /// bytes entering the write ledger under their retention, and returns
    /// the summed write time: the same as one [`Tier::stream_write`] per
    /// write.
    pub fn append(&mut self, bytes: u64, counts: &[(SimDuration, u32)]) -> SimDuration {
        let mut writes = 0u64;
        for &(rt, n) in counts {
            self.ledger_write(rt, bytes * u64::from(n));
            writes += u64::from(n);
        }
        self.write_memo.time(bytes, self.write_bw) * writes
    }

    /// Adds `bytes` to the write ledger's `retention` entry, inserting it in
    /// retention order on first use.
    fn ledger_write(&mut self, retention: SimDuration, bytes: u64) {
        match self.written.binary_search_by_key(&retention, |&(r, _)| r) {
            Ok(i) => self.written[i].1 += bytes,
            Err(i) => self.written.insert(i, (retention, bytes)),
        }
    }

    /// Charges `elapsed` of background cost: idle power, plus refresh power
    /// for DRAM-family technologies (the §2.1 "consuming power even when
    /// the memory is idle" term).
    pub fn charge_background(&mut self, elapsed: SimDuration) {
        self.background += elapsed;
    }

    /// Charges a software scrub (read + rewrite) of `bytes`.
    pub fn charge_scrub(&mut self, bytes: u64) {
        self.scrub_bytes += bytes;
    }

    /// Total energy, priced from the ledgers: reads at the technology's
    /// read energy, each retention's written bytes at its point on the
    /// retention curve (summed in ascending retention order), scrubs as a
    /// read plus a datasheet-point rewrite, and background time at idle
    /// and refresh power.
    pub fn energy(&self) -> EnergyBreakdown {
        let tech = &self.tech;
        let curve = tech.tradeoff();
        let write_j = self.written.iter().fold(0.0, |j, &(rt, bytes)| {
            j + bytes as f64 * 8.0 * curve.at(rt).write_energy_pj_bit * 1e-12
        });
        let secs = self.background.as_secs_f64();
        let scrub_j = tech.read_energy_j(self.scrub_bytes) + tech.write_energy_j(self.scrub_bytes);
        EnergyBreakdown {
            read_j: tech.read_energy_j(self.bytes_read),
            write_j,
            housekeeping_j: scrub_j + tech.refresh_power_w() * secs,
            idle_j: tech.idle_power_w() * secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::{GB, GIB, MIB};

    fn hbm_tier() -> Tier {
        Tier::new(TierKind::Hbm, presets::hbm3e(), 8)
    }

    #[test]
    fn aggregate_capacity_and_bandwidth() {
        let mut t = hbm_tier();
        assert_eq!(t.capacity_bytes(), 192 * GB, "B200-class: 8×24 GB");
        // 8 TB/s aggregate: 8 TB streams in one second.
        let d = t.stream_read(8_000 * GB);
        assert!((d.as_secs_f64() - 1.0).abs() < 1e-6, "{d}");
    }

    #[test]
    fn cost_units_scale_with_capacity_and_rate() {
        let hbm = hbm_tier();
        let mrm = Tier::new(TierKind::Mrm, presets::mrm_hours(), 8);
        // MRM: 8×48 GB at 1.5 vs HBM 8×24 GB at 3.0.
        assert!((hbm.cost_units() - 192.0 * 3.0).abs() < 1e-6);
        assert!((mrm.cost_units() - 384.0 * 1.5).abs() < 1e-6);
        // Twice the capacity at equal spend.
        assert_eq!(mrm.capacity_bytes(), 2 * hbm.capacity_bytes());
        assert!((mrm.cost_units() - hbm.cost_units()).abs() < 1e-6);
    }

    #[test]
    fn stream_read_times_match_bandwidth() {
        let mut t = hbm_tier();
        let d = t.stream_read(8 * GIB);
        // 8 GiB at 8 TB/s ≈ 1.07 ms.
        assert!((d.as_secs_f64() * 1e3 - 1.074).abs() < 0.01, "{d}");
        assert_eq!(t.traffic().0, 8 * GIB);
    }

    #[test]
    fn stream_energy_metered() {
        let mut t = hbm_tier();
        t.stream_read(GIB);
        t.stream_write(GIB, SimDuration::from_millis(32));
        let e = t.energy();
        assert!(e.read_j > 0.0 && e.write_j > 0.0);
    }

    #[test]
    fn mrm_write_energy_scales_with_retention() {
        let mut short = Tier::new(TierKind::Mrm, presets::mrm_days(), 1);
        let mut long = Tier::new(TierKind::Mrm, presets::mrm_days(), 1);
        short.stream_write(GIB, SimDuration::from_mins(10));
        long.stream_write(GIB, SimDuration::from_days(7));
        assert!(short.energy().write_j < long.energy().write_j);
    }

    /// 20 distinct retentions, more than a bounded write-point table held.
    fn many_retentions() -> Vec<SimDuration> {
        (1..=20).map(|k| SimDuration::from_mins(7 * k)).collect()
    }

    /// One tier charged with `ops` in the given order: `Some(rt)` writes
    /// `bytes` at `rt`, `None` reads `bytes`.
    fn charged(tech: &Technology, ops: &[(u64, Option<SimDuration>)]) -> Tier {
        let mut t = Tier::new(TierKind::Mrm, tech.clone(), 2);
        for &(bytes, rt) in ops {
            match rt {
                Some(rt) => {
                    t.stream_write(bytes, rt);
                }
                None => {
                    t.stream_read(bytes);
                }
            }
        }
        t
    }

    #[test]
    fn energy_bits_do_not_depend_on_charge_order() {
        let rts = many_retentions();
        let mut ops: Vec<(u64, Option<SimDuration>)> = Vec::new();
        for (i, &rt) in rts.iter().enumerate() {
            let i = i as u64;
            ops.push((327_680 + 4096 * i, Some(rt)));
            ops.push((3 * GIB + 7 * i, None));
            ops.push((4096 * (i % 3 + 1), Some(rts[(i as usize * 7) % rts.len()])));
        }
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            let reference = charged(&tech, &ops).energy();
            // Reversed, then a fixed stride permutation, then interleaved
            // from both ends.
            let mut reversed = ops.clone();
            reversed.reverse();
            let strided: Vec<_> = (0..ops.len()).map(|i| ops[(i * 7) % ops.len()]).collect();
            let mut ends = Vec::new();
            for i in 0..ops.len() / 2 {
                ends.push(ops[i]);
                ends.push(ops[ops.len() - 1 - i]);
            }
            for order in [reversed, strided, ends] {
                let e = charged(&tech, &order).energy();
                for (got, want) in [
                    (e.read_j, reference.read_j),
                    (e.write_j, reference.write_j),
                    (e.housekeeping_j, reference.housekeeping_j),
                    (e.idle_j, reference.idle_j),
                ] {
                    assert_eq!(got.to_bits(), want.to_bits(), "{}", tech.name);
                }
            }
        }
    }

    #[test]
    fn write_energy_sums_the_ledger_in_retention_order() {
        let rts = many_retentions();
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            let mut t = Tier::new(TierKind::Mrm, tech.clone(), 2);
            // Written in descending retention order, twice each, with a
            // per-retention size.
            for (k, &rt) in rts.iter().enumerate().rev() {
                for _ in 0..2 {
                    t.stream_write(4096 * (k as u64 + 1), rt);
                }
            }
            let curve = tech.tradeoff();
            let mut want = 0.0;
            for (k, &rt) in rts.iter().enumerate() {
                let bytes = 2 * 4096 * (k as u64 + 1);
                want += bytes as f64 * 8.0 * curve.at(rt).write_energy_pj_bit * 1e-12;
            }
            assert_eq!(
                t.energy().write_j.to_bits(),
                want.to_bits(),
                "{}",
                tech.name
            );
            let bytes: u64 = (1..=rts.len() as u64).map(|k| 2 * 4096 * k).sum();
            assert_eq!(t.traffic(), (0, bytes));
        }
    }

    /// The transfer-time memo against the formula computed afresh on
    /// every call, and the ledgers against a tally kept apart.
    #[test]
    fn memoised_transfer_times_are_exact() {
        /// One tier with the reference time of every call and the bytes
        /// it should have read and written.
        struct Checked {
            tier: Tier,
            read_bw: f64,
            write_bw: f64,
            read: u64,
            written: u64,
        }
        impl Checked {
            fn new(tech: &Technology) -> Self {
                Checked {
                    tier: Tier::new(TierKind::Mrm, tech.clone(), 3),
                    read_bw: tech.read_bw * 3.0,
                    write_bw: tech.write_bw * 3.0,
                    read: 0,
                    written: 0,
                }
            }
            fn read(&mut self, bytes: u64) {
                self.read += bytes;
                let want = SimDuration::from_secs_f64(bytes as f64 / self.read_bw);
                assert_eq!(self.tier.stream_read(bytes), want, "read {bytes} B");
            }
            fn write(&mut self, bytes: u64, counts: &[(SimDuration, u32)]) {
                let n: u32 = counts.iter().map(|&(_, n)| n).sum();
                self.written += bytes * u64::from(n);
                let want = SimDuration::from_secs_f64(bytes as f64 / self.write_bw) * u64::from(n);
                let got = match counts {
                    &[(rt, 1)] => self.tier.stream_write(bytes, rt),
                    _ => self.tier.append(bytes, counts),
                };
                assert_eq!(got, want, "write {bytes} B x{n}");
            }
        }

        let mut rng = mrm_sim::rng::SimRng::seed_from(0x7E1E);
        let (weights, kvpt) = (70 * GB, 327_680);
        let rts = [SimDuration::from_mins(10), SimDuration::from_hours(3)];
        for tech in [presets::mrm_days(), presets::hbm3e(), presets::lpddr5x()] {
            // A decode iteration's transfers in `start_iteration`'s order,
            // each tagged with whether it goes to the weights/KV tier: the
            // constant weights read, a varying KV read, the append of the
            // constant KV vector, now and then a prefill write or a
            // zero-byte transfer, and the activation write and read, whose
            // size changes only with the batch length. `kv` and `act`
            // carry them as the MRM policies do, `one` as HbmOnly does.
            let [mut kv, mut act, mut one] = [0; 3].map(|_| Checked::new(&tech));
            let mut batch = 8u64;
            for _ in 0..5_000 {
                if rng.gen_bool(0.1) {
                    batch = rng.gen_range(1, 65);
                }
                let counts = vec![(rts[0], rng.next_u32() % 40), (rts[1], rng.next_u32() % 40)];
                let mut ops = vec![
                    (true, weights, None),
                    (true, rng.gen_range(0, 40 * GB), None),
                    (true, kvpt, Some(counts)),
                ];
                if rng.gen_bool(0.2) {
                    ops.push((true, rng.gen_range(1, GB), Some(vec![(rts[1], 1)])));
                }
                if rng.gen_bool(0.05) {
                    ops.push((true, 0, None));
                    ops.push((false, 0, Some(vec![(rts[0], 1)])));
                }
                ops.push((false, batch * 16_384, Some(vec![(rts[0], 1)])));
                ops.push((false, batch * 16_384, None));
                for (on_kv, bytes, counts) in ops {
                    for c in [if on_kv { &mut kv } else { &mut act }, &mut one] {
                        match &counts {
                            Some(counts) => c.write(bytes, counts),
                            None => c.read(bytes),
                        }
                    }
                }
            }
            for c in [kv, act, one] {
                assert_eq!(c.tier.traffic(), (c.read, c.written), "{}", tech.name);
            }
            // Sizes at the top of the range go straight through the memos,
            // since a tier's ledgers would overflow: the sequence hits
            // every slot of both memos and evicts from each.
            let (read_bw, write_bw) = (tech.read_bw * 3.0, tech.write_bw * 3.0);
            for k in 0..64 {
                let (a, b, c) = (u64::MAX - k, u64::MAX / 3 - (k << 40), u64::MAX / 5 + k);
                let (mut reads, mut writes) = (Memo::<3>::EMPTY, Memo::<2>::EMPTY);
                for bytes in [a, b, c, a, b, a, k, c, a, a] {
                    let want = |bw: f64| SimDuration::from_secs_f64(bytes as f64 / bw);
                    assert_eq!(reads.time(bytes, read_bw), want(read_bw), "read {bytes} B");
                    assert_eq!(
                        writes.time(bytes, write_bw),
                        want(write_bw),
                        "write {bytes} B"
                    );
                }
            }
        }
    }

    #[test]
    fn empty_append_charges_nothing() {
        let mut t = Tier::new(TierKind::Mrm, presets::mrm_days(), 1);
        assert_eq!(t.append(MIB, &[]), SimDuration::ZERO);
        assert_eq!(t.traffic(), (0, 0));
        let e = t.energy();
        assert_eq!(e.write_j.to_bits(), 0.0f64.to_bits());
        assert_eq!(e.total_j().to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn background_charges_refresh_only_for_dram() {
        let mut hbm = hbm_tier();
        let mut mrm = Tier::new(TierKind::Mrm, presets::mrm_hours(), 8);
        hbm.charge_background(SimDuration::from_secs(60));
        mrm.charge_background(SimDuration::from_secs(60));
        assert!(
            hbm.energy().housekeeping_j > 0.0,
            "HBM refreshes while idle"
        );
        assert!(
            mrm.energy().housekeeping_j.abs() < f64::EPSILON,
            "MRM does not"
        );
    }

    #[test]
    fn alloc_and_free() {
        let mut t = Tier::new(TierKind::Mrm, presets::mrm_hours(), 1);
        let a = t.alloc(16 * MIB).unwrap();
        assert_eq!(t.used_bytes(), 16 * MIB);
        t.free(a).unwrap();
        assert_eq!(t.used_bytes(), 0);
    }

    #[test]
    fn scrub_is_housekeeping() {
        let mut t = Tier::new(TierKind::Mrm, presets::mrm_hours(), 1);
        t.charge_scrub(GIB);
        assert!(t.energy().housekeeping_j > 0.0);
        assert!(t.energy().write_j.abs() < f64::EPSILON);
    }
}
