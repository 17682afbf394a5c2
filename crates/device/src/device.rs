//! A generic timed, energy-metered, wear-tracked memory device.
//!
//! [`MemoryDevice`] binds a [`Technology`] parameter set to concrete state:
//! per-block write counts (wear), per-block write timestamps and retention
//! targets (data age), and the [`EnergyLedger`] a tier also keeps.
//! Controllers layer semantics (mapping, refresh policy, zones) on top; the
//! device itself answers the physical questions — how long does this
//! access take, what does it cost in energy, what is the expected raw bit
//! error rate of what you just read, and did you exceed the endurance
//! budget.

use serde::{Deserialize, Serialize};

use mrm_sim::time::{SimDuration, SimTime};

use crate::cell::{WearState, WritePoints};
use crate::energy::{EnergyBreakdown, EnergyLedger};
use crate::geometry::DeviceGeometry;
use crate::tech::{TechFamily, Technology};

/// Default number of wear/retention tracking blocks per device.
const DEFAULT_TRACKING_BLOCKS: u64 = 4096;

/// Baseline raw bit error rate of a freshly written cell.
pub const FRESH_RBER: f64 = 1e-9;

/// Errors surfaced by device operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// The access range falls outside device capacity.
    OutOfRange {
        /// Requested end offset.
        end: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A zero-length access was requested.
    EmptyAccess,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::OutOfRange { end, capacity } => {
                write!(f, "access end {end} exceeds device capacity {capacity}")
            }
            DeviceError::EmptyAccess => write!(f, "zero-length access"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// Kind of demand operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Demand read.
    Read,
    /// Demand write.
    Write,
}

/// The outcome of a timed device operation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpResult {
    /// Time the operation occupies the device (latency + transfer).
    pub service_time: SimDuration,
    /// Expected raw bit error rate of the data read (0 for writes).
    pub rber: f64,
    /// True if any touched block's data age exceeded its retention target.
    pub expired: bool,
    /// True if any touched block is past its rated endurance.
    pub worn_out: bool,
}

/// Per-block tracking state.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
struct BlockState {
    wear: WearState,
    /// When the block was last written, if ever.
    written_at: Option<SimTime>,
    /// Retention target the last write was programmed for.
    retention: SimDuration,
}

/// A timed, energy-metered, wear-tracked memory device.
///
/// # Examples
///
/// ```
/// use mrm_device::device::MemoryDevice;
/// use mrm_device::tech::presets;
/// use mrm_sim::time::SimTime;
///
/// let mut dev = MemoryDevice::new(presets::hbm3e());
/// let now = SimTime::ZERO;
/// let w = dev.write(now, 0, 1 << 20).unwrap();
/// let r = dev.read(now, 0, 1 << 20).unwrap();
/// assert!(r.service_time > w.service_time / 2);
/// assert!(!r.expired);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryDevice {
    tech: Technology,
    geometry: DeviceGeometry,
    ledger: EnergyLedger,
    /// The technology's retention curve, evaluated once per distinct
    /// write retention for the write's latency and endurance.
    write_points: WritePoints,
    blocks: Vec<BlockState>,
    block_bytes: u64,
}

impl MemoryDevice {
    /// Creates a device from a technology parameter set with a geometry
    /// appropriate for its family.
    pub fn new(tech: Technology) -> Self {
        let geometry = match tech.family {
            TechFamily::Hbm => DeviceGeometry::hbm_like(tech.capacity_bytes),
            TechFamily::Dram | TechFamily::Lpddr => DeviceGeometry::dimm_like(tech.capacity_bytes),
            _ => DeviceGeometry::block_like(
                tech.capacity_bytes,
                tech.access_unit_bytes.max(512).min(u64::from(u32::MAX)) as u32,
            ),
        };
        let capacity = tech.capacity_bytes;
        let block_bytes = (capacity / DEFAULT_TRACKING_BLOCKS)
            .max(tech.access_unit_bytes)
            .max(1);
        let n_blocks = capacity.div_ceil(block_bytes) as usize;
        MemoryDevice {
            write_points: WritePoints::new(tech.tradeoff()),
            tech,
            geometry,
            ledger: EnergyLedger::default(),
            blocks: vec![BlockState::default(); n_blocks],
            block_bytes,
        }
    }

    /// The technology parameter set this device was built from.
    pub fn tech(&self) -> &Technology {
        &self.tech
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// Device capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.tech.capacity_bytes
    }

    /// Wear/retention tracking granularity, bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Energy of the traffic so far, priced from the ledger.
    pub fn energy(&self) -> EnergyBreakdown {
        self.ledger.energy(&self.tech)
    }

    fn check_range(&self, addr: u64, len: u64) -> Result<(), DeviceError> {
        if len == 0 {
            return Err(DeviceError::EmptyAccess);
        }
        let end = addr.checked_add(len).ok_or(DeviceError::OutOfRange {
            end: u64::MAX,
            capacity: self.tech.capacity_bytes,
        })?;
        if end > self.tech.capacity_bytes {
            return Err(DeviceError::OutOfRange {
                end,
                capacity: self.tech.capacity_bytes,
            });
        }
        Ok(())
    }

    fn block_range(&self, addr: u64, len: u64) -> std::ops::Range<usize> {
        let first = (addr / self.block_bytes) as usize;
        let last = ((addr + len - 1) / self.block_bytes) as usize;
        first..last + 1
    }

    fn transfer_time(&self, len: u64, bw: f64) -> SimDuration {
        SimDuration::from_secs_f64(len as f64 / bw)
    }

    /// Reads `len` bytes at `addr` at simulation time `now`.
    ///
    /// Service time is array latency plus transfer at the rated sequential
    /// read bandwidth. The returned RBER reflects the oldest touched block's
    /// data age against its programmed retention, amplified by wear.
    pub fn read(&mut self, now: SimTime, addr: u64, len: u64) -> Result<OpResult, DeviceError> {
        self.check_range(addr, len)?;
        self.ledger.read(len);

        let tradeoff = self.tech.tradeoff();
        let mut rber: f64 = 0.0;
        let mut expired = false;
        let mut worn_out = false;
        for i in self.block_range(addr, len) {
            let b = &self.blocks[i];
            let endurance = self.tech.endurance;
            if b.wear.is_worn_out(endurance) {
                worn_out = true;
            }
            if let Some(written) = b.written_at {
                let age = now.duration_since(written);
                if age > b.retention {
                    expired = true;
                }
                let base = tradeoff.rber_at_age(b.retention, age, FRESH_RBER);
                let r = (base * b.wear.rber_multiplier(endurance)).min(0.5);
                rber = rber.max(r);
            }
        }

        let service_time = SimDuration::from_secs_f64(self.tech.read_latency_ns * 1e-9)
            + self.transfer_time(len, self.tech.read_bw);
        Ok(OpResult {
            service_time,
            rber,
            expired,
            worn_out,
        })
    }

    /// Writes `len` bytes at `addr` at time `now`, programming the touched
    /// blocks for the device's native retention target.
    pub fn write(&mut self, now: SimTime, addr: u64, len: u64) -> Result<OpResult, DeviceError> {
        self.write_with_retention(now, addr, len, self.tech.retention)
    }

    /// Writes with an explicit retention target (the DCM primitive, §4):
    /// blocks are stamped with `retention`, and the bytes enter the ledger
    /// under it, to be priced at the retention-dependent write energy of
    /// the cell trade-off.
    pub fn write_with_retention(
        &mut self,
        now: SimTime,
        addr: u64,
        len: u64,
        retention: SimDuration,
    ) -> Result<OpResult, DeviceError> {
        self.check_range(addr, len)?;
        let point = self.write_points.at(retention);
        self.ledger.write(point.retention, len);

        let mut worn_out = false;
        for i in self.block_range(addr, len) {
            let b = &mut self.blocks[i];
            b.wear.record_writes(1);
            b.written_at = Some(now);
            b.retention = point.retention;
            if b.wear.is_worn_out(point.endurance) {
                worn_out = true;
            }
        }

        let latency = SimDuration::from_secs_f64(point.write_latency_ns * 1e-9);
        let service_time = latency + self.transfer_time(len, self.tech.write_bw);
        Ok(OpResult {
            service_time,
            rber: 0.0,
            expired: false,
            worn_out,
        })
    }

    /// Refreshes (rewrites in place) the blocks overlapping `[addr, addr+len)`,
    /// charged as housekeeping. Returns the number of bytes rewritten.
    pub fn refresh_range(&mut self, now: SimTime, addr: u64, len: u64) -> Result<u64, DeviceError> {
        self.check_range(addr, len)?;
        let range = self.block_range(addr, len);
        let bytes = (range.len() as u64) * self.block_bytes;
        self.ledger.housekeeping_rmw(bytes);
        for i in range {
            let b = &mut self.blocks[i];
            if b.written_at.is_some() {
                b.wear.record_writes(1);
                b.written_at = Some(now);
            }
        }
        Ok(bytes)
    }

    /// Maximum wear fraction across blocks (1.0 = rated endurance reached).
    pub fn max_wear_fraction(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| b.wear.wear_fraction(self.tech.endurance))
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::presets;
    use mrm_sim::units::{GIB, MIB};

    fn now() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn read_times_match_bandwidth() {
        let mut dev = MemoryDevice::new(presets::hbm3e());
        let r = dev.read(now(), 0, GIB).unwrap();
        // 1 GiB at 1 TB/s ≈ 1.07 ms plus 110 ns latency.
        let ms = r.service_time.as_secs_f64() * 1e3;
        assert!((ms - 1.073).abs() < 0.01, "read time {ms} ms");
    }

    #[test]
    fn write_slower_than_read_on_mrm() {
        let mut dev = MemoryDevice::new(presets::mrm_hours());
        let r = dev.read(now(), 0, MIB).unwrap();
        let w = dev.write(now(), 0, MIB).unwrap();
        assert!(
            w.service_time > r.service_time,
            "MRM trades write performance"
        );
    }

    #[test]
    fn out_of_range_rejected() {
        let mut dev = MemoryDevice::new(presets::hbm3e());
        let cap = dev.capacity_bytes();
        assert_eq!(
            dev.read(now(), cap - 10, 20),
            Err(DeviceError::OutOfRange {
                end: cap + 10,
                capacity: cap
            })
        );
        assert_eq!(dev.write(now(), 0, 0), Err(DeviceError::EmptyAccess));
        assert!(dev.read(now(), u64::MAX, 2).is_err());
    }

    #[test]
    fn fresh_read_has_floor_rber() {
        let mut dev = MemoryDevice::new(presets::mrm_hours());
        dev.write(now(), 0, MIB).unwrap();
        let r = dev.read(now() + SimDuration::from_secs(1), 0, MIB).unwrap();
        assert!(r.rber < 1e-6, "rber {}", r.rber);
        assert!(!r.expired);
    }

    #[test]
    fn expired_read_is_flagged() {
        let mut dev = MemoryDevice::new(presets::mrm_hours());
        dev.write(now(), 0, MIB).unwrap();
        let later = now() + SimDuration::from_hours(13); // past 12h retention
        let r = dev.read(later, 0, MIB).unwrap();
        assert!(r.expired);
        assert!(r.rber > 1e-4, "decayed rber {}", r.rber);
    }

    #[test]
    fn unwritten_blocks_never_expire() {
        let mut dev = MemoryDevice::new(presets::mrm_hours());
        let r = dev
            .read(now() + SimDuration::from_days(30), 0, MIB)
            .unwrap();
        assert!(!r.expired);
        assert!(r.rber.abs() < f64::EPSILON);
    }

    #[test]
    fn dcm_write_with_shorter_retention_costs_less_energy() {
        let mut a = MemoryDevice::new(presets::mrm_days());
        let mut b = MemoryDevice::new(presets::mrm_days());
        a.write_with_retention(now(), 0, 64 * MIB, SimDuration::from_days(7))
            .unwrap();
        b.write_with_retention(now(), 0, 64 * MIB, SimDuration::from_mins(10))
            .unwrap();
        assert!(b.energy().write_j < a.energy().write_j);
    }

    #[test]
    fn dcm_retention_stamp_is_respected() {
        let mut dev = MemoryDevice::new(presets::mrm_days());
        dev.write_with_retention(now(), 0, MIB, SimDuration::from_mins(10))
            .unwrap();
        let r = dev
            .read(now() + SimDuration::from_mins(30), 0, MIB)
            .unwrap();
        assert!(
            r.expired,
            "10-minute-retention write must expire after 30 minutes"
        );
    }

    /// Replays `retentions` on twin devices: one serves repeats from its
    /// write-point table, the other is reset to an empty table before every
    /// write, so each of its writes is priced from the curve.
    fn assert_table_matches_curve(tech: Technology, retentions: &[SimDuration]) {
        let mut served = MemoryDevice::new(tech.clone());
        let mut curve = MemoryDevice::new(tech);
        for (i, &r) in retentions.iter().enumerate() {
            let at = now() + SimDuration::from_secs(i as u64);
            let addr = (i as u64 % 7) * MIB;
            curve.write_points = WritePoints::new(curve.tech.tradeoff());
            let a = served.write_with_retention(at, addr, 3 * MIB + 5, r);
            let b = curve.write_with_retention(at, addr, 3 * MIB + 5, r);
            assert_eq!(a, b, "write {i} at {r}");
            let (ea, eb) = (served.energy(), curve.energy());
            assert_eq!(ea.write_j.to_bits(), eb.write_j.to_bits(), "write {i}");
            assert_eq!(ea.total_j().to_bits(), eb.total_j().to_bits());
            assert_eq!(
                served.max_wear_fraction().to_bits(),
                curve.max_wear_fraction().to_bits()
            );
        }
    }

    #[test]
    fn table_served_writes_match_curve_priced_writes() {
        let ladder = [
            SimDuration::from_secs(30),
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            SimDuration::from_hours(12),
            SimDuration::from_days(7),
        ];
        let repeats: Vec<SimDuration> = [3, 0, 4, 4, 1, 0, 2, 3, 3, 1, 4, 0, 2, 2]
            .iter()
            .map(|&i| ladder[i])
            .collect();
        // 20 distinct retentions, twice: past the table's bound of 16.
        let distinct: Vec<SimDuration> = (1..=20).map(|k| SimDuration::from_mins(7 * k)).collect();
        let past_bound: Vec<SimDuration> = distinct.iter().chain(&distinct).copied().collect();
        for tech in [presets::mrm_days(), presets::hbm3e()] {
            assert_table_matches_curve(tech.clone(), &repeats);
            assert_table_matches_curve(tech, &past_bound);
        }
    }

    #[test]
    fn wear_accumulates_and_flags() {
        let mut tech = presets::rram_product();
        tech.endurance = 10.0; // tiny budget for the test
        let mut dev = MemoryDevice::new(tech);
        let mut worn = false;
        for _ in 0..12 {
            worn = dev.write(now(), 0, 1024).unwrap().worn_out;
        }
        assert!(worn);
        assert!(dev.max_wear_fraction() > 1.0);
    }

    #[test]
    fn refresh_range_is_housekeeping() {
        let mut dev = MemoryDevice::new(presets::mrm_hours());
        dev.write(now(), 0, MIB).unwrap();
        let before = dev.energy();
        let bytes = dev
            .refresh_range(now() + SimDuration::from_hours(6), 0, MIB)
            .unwrap();
        assert!(bytes >= MIB);
        let after = dev.energy();
        assert!(after.housekeeping_j > before.housekeeping_j);
        assert_eq!(after.write_j.to_bits(), before.write_j.to_bits());
        // Refreshed data no longer expires at the original deadline.
        let r = dev
            .read(now() + SimDuration::from_hours(13), 0, MIB)
            .unwrap();
        assert!(!r.expired);
    }
}
