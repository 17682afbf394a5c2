//! Memory tiers: named pools with aggregate bandwidth and cost.
//!
//! A [`Tier`] aggregates `n` identical devices (HBM stacks, MRM packages,
//! LPDDR packages) into one pool with summed capacity and bandwidth — the
//! granularity the placement policies reason at. It keeps the fused
//! [`Technology`] for the energy rates it charges and models no per-block
//! device state.

use mrm_core::pool::{Allocation, Pool, PoolError};
use mrm_device::cell::WritePoints;
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
    /// Demand bytes moved (for utilization reporting).
    bytes_read: u64,
    bytes_written: u64,
    /// Metered energy (bulk streams, background, scrubs).
    energy: EnergyBreakdown,
    /// The technology's retention curve, priced once per distinct write
    /// retention: a DCM batch mixes retention classes.
    write_points: WritePoints,
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
            write_points: WritePoints::new(fused.tradeoff()),
            tech: fused,
            read_bw,
            write_bw,
            cost_units,
            bytes_read: 0,
            bytes_written: 0,
            energy: EnergyBreakdown::default(),
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
        (self.bytes_read, self.bytes_written)
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
    /// Traffic and energy are metered.
    pub fn stream_read(&mut self, bytes: u64) -> SimDuration {
        self.bytes_read += bytes;
        self.meter_read_energy(bytes);
        SimDuration::from_secs_f64(bytes as f64 / self.read_bw)
    }

    /// Time to write `bytes` sequentially at aggregate tier bandwidth,
    /// charged at the retention-scaled energy point.
    pub fn stream_write(&mut self, bytes: u64, retention: SimDuration) -> SimDuration {
        self.append_each(bytes, std::slice::from_ref(&retention))
    }

    /// Writes `bytes` once per entry of `retentions`, each charged at its
    /// own retention's energy point, and returns the summed write time.
    ///
    /// Identical, bit for bit, to one [`Tier::stream_write`] per entry in
    /// slice order: every write takes the same integer-ns time, and the
    /// energy is added to the running total one write at a time with the
    /// same per-write value.
    pub fn append_each(&mut self, bytes: u64, retentions: &[SimDuration]) -> SimDuration {
        let n = retentions.len() as u64;
        self.bytes_written += bytes * n;
        for &rt in retentions {
            let j = bytes as f64 * 8.0 * self.write_points.at(rt).write_energy_pj_bit * 1e-12;
            self.energy.write_j += j;
        }
        SimDuration::from_secs_f64(bytes as f64 / self.write_bw) * n
    }

    fn meter_read_energy(&mut self, bytes: u64) {
        self.energy.read_j += self.tech.read_energy_j(bytes);
    }

    /// Charges `elapsed` of background cost: idle power, plus refresh power
    /// for DRAM-family technologies (the §2.1 "consuming power even when
    /// the memory is idle" term).
    pub fn charge_background(&mut self, elapsed: SimDuration) {
        let tech = &self.tech;
        let idle_j = tech.idle_power_w() * elapsed.as_secs_f64();
        let refresh_j = tech.refresh_power_w() * elapsed.as_secs_f64();
        self.energy.idle_j += idle_j;
        self.energy.housekeeping_j += refresh_j;
    }

    /// Charges a software scrub (read + rewrite) of `bytes`.
    pub fn charge_scrub(&mut self, bytes: u64) {
        let tech = &self.tech;
        let j = tech.read_energy_j(bytes) + tech.write_energy_j(bytes);
        self.energy.housekeeping_j += j;
    }

    /// Total metered energy.
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy
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

    /// Checks `append_each` against one `stream_write` per entry on a twin
    /// tier, and both against writes priced straight from the curve. Both
    /// tiers start from an earlier write, so a batch summed apart and then
    /// folded into the total would round differently and fail.
    fn assert_append_matches_loop(tech: Technology, bytes: u64, retentions: &[SimDuration]) {
        let mut batched = Tier::new(TierKind::Mrm, tech.clone(), 2);
        let mut looped = Tier::new(TierKind::Mrm, tech, 2);
        for t in [&mut batched, &mut looped] {
            t.stream_write(3 * GIB + 7, SimDuration::from_secs(90));
        }
        let mut j_curve = looped.energy().write_j;
        let d_batched = batched.append_each(bytes, retentions);
        let mut d_looped = SimDuration::ZERO;
        for &rt in retentions {
            d_looped += looped.stream_write(bytes, rt);
        }
        let curve = looped.tech.tradeoff();
        for &rt in retentions {
            j_curve += bytes as f64 * 8.0 * curve.at(rt).write_energy_pj_bit * 1e-12;
        }
        assert_eq!(d_batched, d_looped);
        assert_eq!(batched.traffic(), looped.traffic());
        assert_eq!(
            batched.energy().write_j.to_bits(),
            looped.energy().write_j.to_bits()
        );
        assert_eq!(looped.energy().write_j.to_bits(), j_curve.to_bits());
    }

    #[test]
    fn append_each_matches_per_write_loop_on_ladder() {
        use mrm_controller::dcm::RetentionClass;
        let ladder = RetentionClass::ladder().map(RetentionClass::duration);
        let mixed: Vec<SimDuration> = [3, 0, 4, 4, 1, 0, 2, 3, 3, 1, 4, 0, 2, 2]
            .iter()
            .map(|&i| ladder[i])
            .collect();
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            assert_append_matches_loop(tech, 327_680, &mixed);
        }
    }

    #[test]
    fn append_each_of_nothing_charges_nothing() {
        let mut t = Tier::new(TierKind::Mrm, presets::mrm_days(), 1);
        assert_eq!(t.append_each(MIB, &[]), SimDuration::ZERO);
        assert_eq!(t.traffic(), (0, 0));
        assert_eq!(t.energy().write_j.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn append_each_past_the_table_bound_matches_loop() {
        let distinct: Vec<SimDuration> = (1..=20).map(|k| SimDuration::from_mins(7 * k)).collect();
        // Every retention twice, the second pass served from the table for
        // the first 16 and priced afresh for the rest.
        let twice: Vec<SimDuration> = distinct.iter().chain(distinct.iter()).copied().collect();
        assert_append_matches_loop(presets::mrm_days(), 4096, &twice);
    }

    #[test]
    fn table_served_write_charges_the_curve_point() {
        let r = SimDuration::from_hours(12);
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            let pj_bit = tech.tradeoff().at(r).write_energy_pj_bit;
            let mut t = Tier::new(TierKind::Mrm, tech, 1);
            t.stream_write(GIB, r);
            // The second write is served from the table.
            t.stream_write(GIB, r);
            let j = GIB as f64 * 8.0 * pj_bit * 1e-12;
            assert_eq!(t.energy().write_j.to_bits(), (0.0 + j + j).to_bits());
        }
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
