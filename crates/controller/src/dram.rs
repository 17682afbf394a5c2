//! DRAM/HBM controller: bank scheduling plus mandatory refresh.
//!
//! The §2.1/§3 cost of DRAM's microsecond-scale cell retention is made
//! concrete here: every `tREFI` the controller must issue refreshes that (a)
//! burn energy proportional to capacity and (b) steal bank time from demand
//! traffic. Both are tracked so the analysis layer can report refresh energy
//! *and* the bandwidth tax.

use mrm_device::bank::{Bank, BankTiming, RowOutcome};

/// REF commands per full refresh pass: DDR-style devices spread a pass over
/// 8192 tREFI-spaced REF commands, each occupying the bank for tRFC.
pub const REF_COMMANDS_PER_PASS: u64 = 8192;
use mrm_device::geometry::DeviceGeometry;
use mrm_sim::time::{SimDuration, SimTime};

/// Statistics accumulated by the controller.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DramStats {
    /// Demand accesses served.
    pub accesses: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (bank idle).
    pub row_misses: u64,
    /// Row-buffer conflicts (wrong row open).
    pub row_conflicts: u64,
    /// Refresh operations issued (per bank).
    pub refreshes: u64,
    /// Total bank-time consumed by refresh.
    pub refresh_busy: SimDuration,
    /// Refresh energy consumed, joules.
    pub refresh_energy_j: f64,
}

impl DramStats {
    /// Row-buffer hit rate over all demand accesses.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            return 0.0;
        }
        self.row_hits as f64 / self.accesses as f64
    }
}

/// A DRAM/HBM memory controller over a bank array with periodic refresh.
///
/// # Examples
///
/// ```
/// use mrm_controller::dram::DramController;
/// use mrm_device::geometry::DeviceGeometry;
/// use mrm_sim::time::SimTime;
///
/// let geo = DeviceGeometry::hbm_like(1 << 30);
/// let mut ctrl = DramController::hbm_like(geo);
/// let done = ctrl.read(SimTime::ZERO, 0, 64 * 1024);
/// assert!(done > SimTime::ZERO);
/// ```
#[derive(Clone, Debug)]
pub struct DramController {
    geometry: DeviceGeometry,
    timing: BankTiming,
    banks: Vec<Bank>,
    /// All-bank refresh period (tREFI × rows-per-refresh generalized to a
    /// full-device pass every retention interval).
    refresh_period: SimDuration,
    /// Portion of the device refreshed per refresh tick (per-bank refresh).
    next_refresh: SimTime,
    /// Energy per refreshed bit, joules.
    refresh_j_per_bit: f64,
    /// Bytes per burst transfer.
    burst_bytes: u32,
    stats: DramStats,
}

impl DramController {
    /// Creates a controller with explicit parameters.
    pub fn new(
        geometry: DeviceGeometry,
        timing: BankTiming,
        refresh_period: SimDuration,
        refresh_pj_per_bit: f64,
        burst_bytes: u32,
    ) -> Self {
        let banks = (0..geometry.total_banks())
            .map(|_| Bank::new(timing))
            .collect();
        DramController {
            geometry,
            timing,
            banks,
            refresh_period,
            next_refresh: SimTime::ZERO + refresh_period,
            refresh_j_per_bit: refresh_pj_per_bit * 1e-12,
            burst_bytes: burst_bytes.max(1),
            stats: DramStats::default(),
        }
    }

    /// HBM3-like controller: 32 ms retention, 0.15 pJ/bit refresh, 64 B
    /// bursts.
    pub fn hbm_like(geometry: DeviceGeometry) -> Self {
        DramController::new(
            geometry,
            BankTiming::hbm3_like(),
            SimDuration::from_millis(32),
            0.15,
            64,
        )
    }

    /// DDR5-like controller: 64 ms retention.
    pub fn ddr5_like(geometry: DeviceGeometry) -> Self {
        DramController::new(
            geometry,
            BankTiming::ddr5_like(),
            SimDuration::from_millis(64),
            0.15,
            64,
        )
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// The refresh period (full-device pass interval).
    pub fn refresh_period(&self) -> SimDuration {
        self.refresh_period
    }

    fn bank_index(&self, channel: u32, bank: u32) -> usize {
        (channel * self.geometry.banks_per_channel + bank) as usize
    }

    /// Issues any refresh passes due by `now`. Each pass touches every bank
    /// for `tRFC` and charges energy for rewriting the whole device.
    pub fn catch_up_refresh(&mut self, now: SimTime) {
        while self.next_refresh <= now {
            let at = self.next_refresh;
            for b in &mut self.banks {
                b.refresh(at);
                self.stats.refreshes += 1;
                // One state-machine refresh stands in for the pass, but the
                // bank-time cost is the real one: 8192 REF commands of tRFC
                // each per pass (tRFC/tREFI of every second, ~5-8%).
                self.stats.refresh_busy += self.timing.t_rfc.saturating_mul(REF_COMMANDS_PER_PASS);
            }
            let bits = self.geometry.capacity_bytes() as f64 * 8.0;
            self.stats.refresh_energy_j += bits * self.refresh_j_per_bit;
            self.next_refresh = at + self.refresh_period;
        }
    }

    fn service(&mut self, now: SimTime, addr: u64, len: u64) -> SimTime {
        assert!(len > 0, "zero-length access");
        self.catch_up_refresh(now);
        let row_bytes = u64::from(self.geometry.row_bytes);
        let mut done = now;
        let mut offset = 0u64;
        while offset < len {
            let a = addr + offset;
            let chunk = (row_bytes - a % row_bytes).min(len - offset);
            let d = self.geometry.decode(a % self.geometry.capacity_bytes());
            let bursts = (chunk as u32).div_ceil(self.burst_bytes);
            let idx = self.bank_index(d.channel, d.bank);
            let res = self.banks[idx].access(now, d.row, bursts);
            match res.outcome {
                RowOutcome::Hit => self.stats.row_hits += 1,
                RowOutcome::Miss => self.stats.row_misses += 1,
                RowOutcome::Conflict => self.stats.row_conflicts += 1,
            }
            self.stats.accesses += 1;
            done = done.max(res.bank_free_at);
            offset += chunk;
        }
        done
    }

    /// Reads `[addr, addr+len)` arriving at `now`; returns completion time.
    /// Sequential spans stripe across channels/banks and overlap.
    pub fn read(&mut self, now: SimTime, addr: u64, len: u64) -> SimTime {
        self.service(now, addr, len)
    }

    /// Writes `[addr, addr+len)` arriving at `now`; returns completion time.
    pub fn write(&mut self, now: SimTime, addr: u64, len: u64) -> SimTime {
        self.service(now, addr, len)
    }

    /// Fraction of total bank-time stolen by refresh over `elapsed`.
    pub fn refresh_time_fraction(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        let total_bank_time = elapsed.as_secs_f64() * self.banks.len() as f64;
        self.stats.refresh_busy.as_secs_f64() / total_bank_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::{GIB, MIB};

    fn ctrl() -> DramController {
        DramController::hbm_like(DeviceGeometry::hbm_like(GIB))
    }

    #[test]
    fn sequential_read_stripes_across_banks() {
        let mut c = ctrl();
        // 1 MiB sequential: spans 1024 rows across 256 banks.
        let done = c.read(SimTime::ZERO, 0, MIB);
        let s = c.stats();
        assert_eq!(s.accesses, 1024);
        assert!(done > SimTime::ZERO);
        // Striping means wall time far below the serial sum of accesses.
        let serial_ns = 1024 * 30; // ~30ns per independent access
        assert!(done.as_nanos() < serial_ns, "completion {done}");
    }

    #[test]
    fn repeated_same_row_hits() {
        let mut c = ctrl();
        let t1 = c.read(SimTime::ZERO, 0, 64);
        let _t2 = c.read(t1, 0, 64);
        let s = c.stats();
        assert_eq!(s.row_hits, 1);
        assert_eq!(s.row_misses, 1);
        assert!(s.hit_rate() > 0.49);
    }

    #[test]
    fn refresh_fires_on_schedule() {
        let mut c = ctrl();
        // Jump 10 refresh periods ahead.
        let later = SimTime::ZERO + SimDuration::from_millis(320);
        c.catch_up_refresh(later);
        let s = c.stats();
        let banks = 256;
        assert_eq!(s.refreshes, 10 * banks);
        assert!(s.refresh_energy_j > 0.0);
    }

    #[test]
    fn refresh_energy_matches_capacity_math() {
        let mut c = ctrl();
        c.catch_up_refresh(SimTime::ZERO + SimDuration::from_millis(32));
        let s = c.stats();
        // One pass over ≥1 GiB at 0.15 pJ/bit ≈ ≥1.29 mJ (geometry may
        // round capacity up slightly).
        let expected = GIB as f64 * 8.0 * 0.15e-12;
        assert!(
            s.refresh_energy_j >= expected * 0.99,
            "{}",
            s.refresh_energy_j
        );
        assert!(
            s.refresh_energy_j <= expected * 1.05,
            "{}",
            s.refresh_energy_j
        );
    }

    #[test]
    fn refresh_steals_bandwidth() {
        let mut c = ctrl();
        let elapsed = SimDuration::from_secs(1);
        c.catch_up_refresh(SimTime::ZERO + elapsed);
        let frac = c.refresh_time_fraction(elapsed);
        // tRFC/tREFI ≈ 260ns / 3.9µs ≈ 6.7% of bank time.
        assert!(frac > 0.03 && frac < 0.12, "refresh fraction {frac}");
    }

    #[test]
    fn demand_after_refresh_waits() {
        let mut c = ctrl();
        let refresh_time = SimTime::ZERO + SimDuration::from_millis(32);
        // Access arriving exactly when refresh is due must finish after the
        // refresh's tRFC.
        let done = c.read(refresh_time, 0, 64);
        assert!(done >= refresh_time + SimDuration::from_nanos(260));
    }

    #[test]
    fn writes_tracked_like_reads() {
        let mut c = ctrl();
        c.write(SimTime::ZERO, 0, 4096);
        assert!(c.stats().accesses >= 4);
    }

    #[test]
    #[should_panic(expected = "zero-length access")]
    fn zero_len_panics() {
        ctrl().read(SimTime::ZERO, 0, 0);
    }
}
