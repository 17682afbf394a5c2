//! Memory tiers: named pools with aggregate bandwidth and cost.
//!
//! A [`Tier`] aggregates `n` identical devices (HBM stacks, MRM packages,
//! LPDDR packages) into one pool with summed capacity and bandwidth — the
//! granularity the placement policies reason at.

use mrm_core::pool::{Allocation, Pool, PoolError};
use mrm_device::device::MemoryDevice;
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
    pool: Pool,
    devices: u32,
    /// Aggregate sequential read bandwidth, bytes/s.
    read_bw: f64,
    /// Aggregate write bandwidth, bytes/s.
    write_bw: f64,
    /// Relative cost of the tier (capacity GB × cost/GB).
    cost_units: f64,
    /// Demand bytes moved (for utilization reporting).
    bytes_read: u64,
    bytes_written: u64,
    /// Energy metered outside the pool device (bulk streams, background).
    extra_energy: EnergyBreakdown,
    /// Last `(retention, write pJ/bit)` operating point, memoized: batches
    /// overwhelmingly share one retention class, so the tradeoff-curve
    /// math runs once per class change instead of once per write. The
    /// cached value is the exact f64 the curve produces, so metered energy
    /// is bit-identical to the unmemoized path.
    write_point_memo: Option<(SimDuration, f64)>,
}

impl Tier {
    /// Builds a tier of `devices` identical devices of `tech`.
    ///
    /// The pool spans the aggregate capacity; bandwidth sums across
    /// devices (inference reads stripe across stacks, §2.1).
    pub fn new(kind: TierKind, tech: Technology, devices: u32) -> Self {
        Tier::with_capacity_hint(kind, tech, devices, 0)
    }

    /// [`Tier::new`] with the pool allocator pre-sized for about
    /// `expected_live` simultaneous allocations. Purely a wall-clock hint:
    /// behaviour is identical to [`Tier::new`].
    pub fn with_capacity_hint(
        kind: TierKind,
        tech: Technology,
        devices: u32,
        expected_live: usize,
    ) -> Self {
        let mut fused = tech.clone();
        fused.capacity_bytes = tech.capacity_bytes * u64::from(devices);
        let read_bw = tech.read_bw * f64::from(devices);
        let write_bw = tech.write_bw * f64::from(devices);
        let cost_units = fused.capacity_bytes as f64 / 1e9 * tech.cost_per_gb_rel;
        Tier {
            kind,
            pool: Pool::with_capacity_hint(MemoryDevice::new(fused), expected_live),
            devices,
            read_bw,
            write_bw,
            cost_units,
            bytes_read: 0,
            bytes_written: 0,
            extra_energy: EnergyBreakdown::default(),
            write_point_memo: None,
        }
    }

    /// The tier's role.
    pub fn kind(&self) -> TierKind {
        self.kind
    }

    /// Device count.
    pub fn devices(&self) -> u32 {
        self.devices
    }

    /// Aggregate capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.pool.capacity_bytes()
    }

    /// Bytes allocated.
    pub fn used_bytes(&self) -> u64 {
        self.pool.used_bytes()
    }

    /// Aggregate read bandwidth, bytes/s.
    pub fn read_bw(&self) -> f64 {
        self.read_bw
    }

    /// Aggregate write bandwidth, bytes/s.
    pub fn write_bw(&self) -> f64 {
        self.write_bw
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
    /// Traffic and energy are metered; block-level state is not walked
    /// (bulk streams like weights would make that O(device/4096) per op).
    pub fn stream_read(&mut self, bytes: u64) -> SimDuration {
        self.bytes_read += bytes;
        self.meter_read_energy(bytes);
        SimDuration::from_secs_f64(bytes as f64 / self.read_bw)
    }

    /// Time to write `bytes` sequentially at aggregate tier bandwidth,
    /// charged at the retention-scaled energy point.
    pub fn stream_write(&mut self, bytes: u64, retention: SimDuration) -> SimDuration {
        self.bytes_written += bytes;
        self.meter_write_energy(bytes, retention);
        SimDuration::from_secs_f64(bytes as f64 / self.write_bw)
    }

    fn meter_read_energy(&mut self, bytes: u64) {
        // Meter through the pool's device by charging its per-bit rate
        // directly (avoids walking per-block state for bulk streams).
        let j = self.pool.device().tech().read_energy_j(bytes);
        self.extra_energy.read_j += j;
    }

    fn meter_write_energy(&mut self, bytes: u64, retention: SimDuration) {
        let pj_bit = match self.write_point_memo {
            Some((r, pj)) if r == retention => pj,
            _ => {
                let tech = self.pool.device().tech();
                let pj = tech.tradeoff().at(retention).write_energy_pj_bit;
                self.write_point_memo = Some((retention, pj));
                pj
            }
        };
        let j = bytes as f64 * 8.0 * pj_bit * 1e-12;
        self.extra_energy.write_j += j;
    }

    /// Charges `elapsed` of background cost: idle power, plus refresh power
    /// for DRAM-family technologies (the §2.1 "consuming power even when
    /// the memory is idle" term).
    pub fn charge_background(&mut self, elapsed: SimDuration) {
        let tech = self.pool.device().tech();
        let idle_j = tech.idle_power_w() * elapsed.as_secs_f64();
        let refresh_j = tech.refresh_power_w() * elapsed.as_secs_f64();
        self.extra_energy.idle_j += idle_j;
        self.extra_energy.housekeeping_j += refresh_j;
    }

    /// Charges a software scrub (read + rewrite) of `bytes`.
    pub fn charge_scrub(&mut self, bytes: u64) {
        let tech = self.pool.device().tech();
        let j = tech.read_energy_j(bytes) + tech.write_energy_j(bytes);
        self.extra_energy.housekeeping_j += j;
    }

    /// Total energy: pool device meter plus bulk-stream metering.
    pub fn energy(&self) -> EnergyBreakdown {
        self.pool.energy().merged(&self.extra_energy)
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
        let t = hbm_tier();
        assert_eq!(t.capacity_bytes(), 192 * GB, "B200-class: 8×24 GB");
        assert!((t.read_bw() - 8e12).abs() < 1e6, "8 TB/s aggregate");
        assert_eq!(t.devices(), 8);
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
