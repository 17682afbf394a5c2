//! Memory tiers: named pools with aggregate bandwidth and cost.
//!
//! A [`Tier`] aggregates `n` identical devices (HBM stacks, MRM packages,
//! LPDDR packages) into one pool with summed capacity and bandwidth — the
//! granularity the placement policies reason at. It counts the traffic it
//! carries in the same [`EnergyLedger`] a device keeps, prices it from the
//! fused [`Technology`] only when [`Tier::energy`] is asked, and models no
//! per-block device state.

use mrm_core::pool::{Allocation, Pool, PoolError};
use mrm_device::energy::{EnergyBreakdown, EnergyLedger};
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
    /// The traffic carried, with scrubs as housekeeping.
    ledger: EnergyLedger,
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
            ledger: EnergyLedger::default(),
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
        self.ledger.traffic()
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
        self.ledger.read(bytes);
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
            self.ledger.write(rt, bytes * u64::from(n));
            writes += u64::from(n);
        }
        self.write_memo.time(bytes, self.write_bw) * writes
    }

    /// Charges `elapsed` of background cost: idle power, plus refresh power
    /// for DRAM-family technologies (the §2.1 "consuming power even when
    /// the memory is idle" term).
    pub fn charge_background(&mut self, elapsed: SimDuration) {
        self.ledger.background(elapsed);
    }

    /// Charges a software scrub (read + rewrite) of `bytes`.
    pub fn charge_scrub(&mut self, bytes: u64) {
        self.ledger.housekeeping_rmw(bytes);
    }

    /// Total energy, priced from the ledger at the fused technology (see
    /// [`EnergyLedger::energy`]).
    pub fn energy(&self) -> EnergyBreakdown {
        self.ledger.energy(&self.tech)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::device::MemoryDevice;
    use mrm_device::tech::presets;
    use mrm_sim::time::SimTime;
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

    /// A device and a one-device tier of one technology price the same
    /// reads, retention-tagged writes and scrub bytes to the same bits:
    /// both keep one ledger.
    #[test]
    fn device_and_tier_price_traffic_alike() {
        let tech = presets::mrm_days();
        let mut dev = MemoryDevice::new(tech.clone());
        let mut tier = Tier::new(TierKind::Mrm, tech, 1);
        let rts = [
            SimDuration::from_mins(10),
            SimDuration::from_hours(3),
            SimDuration::from_days(2),
        ];
        for i in 0..30u64 {
            let at = SimTime::ZERO + SimDuration::from_secs(60 * i);
            let (addr, len, rt) = ((i % 5) * 8 * MIB, MIB + 4099 * i, rts[i as usize % 3]);
            dev.write_with_retention(at, addr, len, rt).unwrap();
            tier.stream_write(len, rt);
            dev.read(at, addr, len / 2 + 1).unwrap();
            tier.stream_read(len / 2 + 1);
            if i % 4 == 0 {
                tier.charge_scrub(dev.refresh_range(at, addr, len).unwrap());
            }
        }
        let (d, t) = (dev.energy(), tier.energy());
        assert!(d.read_j > 0.0 && d.write_j > 0.0 && d.housekeeping_j > 0.0);
        for (got, want) in [
            (d.read_j, t.read_j),
            (d.write_j, t.write_j),
            (d.housekeeping_j, t.housekeeping_j),
        ] {
            assert_eq!(got.to_bits(), want.to_bits());
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
