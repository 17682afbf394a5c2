//! The paper's lightweight MRM block controller.
//!
//! §4, "Lightweight memory controllers": "The lack of random access
//! requirements opens up a unique prospect of a block-level access memory
//! controller ... Much of the functionality that is typically handled on the
//! device, such as refresh and wear-levelling can be left up to a software
//! control plane higher up in the stack ... akin to zoned storage interfaces
//! for Flash."
//!
//! [`MrmBlockController`] therefore exposes:
//!
//! * zones with strictly append-only write pointers (KV caches are
//!   append-only; weights are bulk-sequential) — no random writes, no
//!   device-side mapping;
//! * a **retention-deadline registry**: every append is stamped with its
//!   retention target, and the controller reports which zones are
//!   approaching expiry so the *software* control plane can decide to
//!   scrub, migrate, or drop (§4 "Retention-aware data placement");
//! * software-visible per-zone write-cycle counters for control-plane wear
//!   levelling;
//! * **no** internal refresh, GC, or wear-levelling machinery at all —
//!   that absence is the point, and the energy ledger shows it.

use mrm_device::device::{DeviceError, MemoryDevice, OpResult};
use mrm_device::energy::EnergyBreakdown;
use mrm_faults::{FaultModel, FaultStats, ReadFaults, RecoveryAction};
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::SimTelemetry;
use std::collections::VecDeque;

/// Zone identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ZoneId(pub u32);

/// Zone lifecycle state (zoned-storage style).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneState {
    /// Unwritten and available.
    Empty,
    /// Open for appends.
    Open,
    /// Finished: read-only until reset.
    Full,
    /// Retired by the recovery machinery: permanently out of service.
    Retired,
}

/// Errors from the block controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ZoneError {
    /// No such zone.
    InvalidZone,
    /// Operation requires an open zone.
    NotOpen,
    /// Append would exceed the zone capacity.
    ZoneOverflow,
    /// Read beyond the write pointer.
    ReadBeyondWritePointer,
    /// No empty zone available.
    NoEmptyZones,
    /// The zone has been retired and cannot be used again.
    ZoneRetired,
    /// Underlying device error.
    Device(DeviceError),
}

impl std::fmt::Display for ZoneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZoneError::InvalidZone => write!(f, "invalid zone id"),
            ZoneError::NotOpen => write!(f, "zone is not open"),
            ZoneError::ZoneOverflow => write!(f, "append exceeds zone capacity"),
            ZoneError::ReadBeyondWritePointer => write!(f, "read beyond write pointer"),
            ZoneError::NoEmptyZones => write!(f, "no empty zones available"),
            ZoneError::ZoneRetired => write!(f, "zone is retired"),
            ZoneError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for ZoneError {}

impl From<DeviceError> for ZoneError {
    fn from(e: DeviceError) -> Self {
        ZoneError::Device(e)
    }
}

#[derive(Clone, Debug)]
struct Zone {
    state: ZoneState,
    /// Bytes appended so far.
    write_ptr: u64,
    /// Earliest retention deadline across the zone's appends.
    deadline: SimTime,
    /// Software-visible cumulative full-zone write cycles.
    write_cycles: u64,
}

impl Zone {
    fn new() -> Self {
        Zone {
            state: ZoneState::Empty,
            write_ptr: 0,
            deadline: SimTime::MAX,
            write_cycles: 0,
        }
    }
}

/// The lightweight block-level MRM controller.
///
/// # Examples
///
/// ```
/// use mrm_controller::mrm_block::MrmBlockController;
/// use mrm_device::device::MemoryDevice;
/// use mrm_device::tech::presets;
/// use mrm_sim::time::{SimDuration, SimTime};
///
/// let dev = MemoryDevice::new(presets::mrm_hours());
/// let mut ctrl = MrmBlockController::new(dev, 256 * 1024 * 1024);
/// let z = ctrl.open_zone().unwrap();
/// ctrl.append(SimTime::ZERO, z, 4096, SimDuration::from_hours(12)).unwrap();
/// let res = ctrl.read(SimTime::ZERO, z, 0, 4096).unwrap();
/// assert!(!res.expired);
/// ```
#[derive(Clone, Debug)]
pub struct MrmBlockController {
    device: MemoryDevice,
    zone_bytes: u64,
    zones: Vec<Zone>,
    /// The expiry list: exactly the Open and Full zones, keyed
    /// `(deadline, zone)` in ascending order, so
    /// [`MrmBlockController::zones_expiring_before`] copies a prefix
    /// instead of sorting every zone.
    by_deadline: VecDeque<(SimTime, ZoneId)>,
    /// Software-initiated scrub (in-place rewrite) operations completed.
    scrub_ops: u64,
    /// Bytes rewritten by scrubs.
    scrub_bytes: u64,
    /// Optional fault-injection layer for checked reads.
    faults: Option<FaultModel>,
    /// Checked reads that needed a retry re-read.
    read_retries: u64,
    /// Checked reads that escalated to an inline scrub.
    scrub_escalations: u64,
    /// Zones permanently retired by the recovery machinery.
    zones_retired: u64,
}

/// Result of a [`MrmBlockController::read_checked`] recovery sequence.
#[derive(Clone, Copy, Debug)]
pub struct CheckedRead {
    /// The device-level result of the *final* read attempt (timing and
    /// reliability of the data actually returned to the caller).
    pub op: OpResult,
    /// Fault outcomes merged across every attempt in the sequence.
    pub faults: ReadFaults,
    /// The deepest recovery step the sequence reached.
    pub action: RecoveryAction,
}

impl CheckedRead {
    /// Whether the data handed back is good (clean, corrected, or
    /// recovered). `false` means the zone was retired and the caller must
    /// re-fetch from a colder tier or recompute.
    pub fn recovered(&self) -> bool {
        self.action != RecoveryAction::Retired
    }
}

impl MrmBlockController {
    /// Creates a controller dividing `device` into zones of `zone_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `zone_bytes` is zero or larger than the device.
    pub fn new(device: MemoryDevice, zone_bytes: u64) -> Self {
        assert!(zone_bytes > 0, "zone size must be positive");
        let n = device.capacity_bytes() / zone_bytes;
        assert!(n > 0, "zone larger than device");
        MrmBlockController {
            device,
            zone_bytes,
            zones: (0..n).map(|_| Zone::new()).collect(),
            by_deadline: VecDeque::new(),
            scrub_ops: 0,
            scrub_bytes: 0,
            faults: None,
            read_retries: 0,
            scrub_escalations: 0,
            zones_retired: 0,
        }
    }

    /// Attaches a fault-injection layer; [`MrmBlockController::read_checked`]
    /// runs every read through it and drives recovery on uncorrectables.
    pub fn attach_faults(&mut self, model: FaultModel) {
        self.faults = Some(model);
    }

    /// Cumulative fault-layer totals, if a layer is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// Checked reads that needed a retry re-read.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Checked reads that escalated to an inline scrub.
    pub fn scrub_escalations(&self) -> u64 {
        self.scrub_escalations
    }

    /// Zones permanently retired by the recovery machinery.
    pub fn zones_retired(&self) -> u64 {
        self.zones_retired
    }

    /// Number of zones.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Zone capacity, bytes.
    pub fn zone_bytes(&self) -> u64 {
        self.zone_bytes
    }

    /// The underlying device (for energy/wear inspection).
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// Accumulated device energy.
    pub fn energy(&self) -> EnergyBreakdown {
        self.device.energy()
    }

    /// The state of a zone.
    pub fn zone_state(&self, z: ZoneId) -> Result<ZoneState, ZoneError> {
        Ok(self.zone(z)?.state)
    }

    /// The write pointer of a zone.
    pub fn write_pointer(&self, z: ZoneId) -> Result<u64, ZoneError> {
        Ok(self.zone(z)?.write_ptr)
    }

    /// The earliest retention deadline of data in the zone
    /// ([`SimTime::MAX`] if empty).
    pub fn deadline(&self, z: ZoneId) -> Result<SimTime, ZoneError> {
        Ok(self.zone(z)?.deadline)
    }

    /// Software-visible write-cycle count of the zone.
    pub fn write_cycles(&self, z: ZoneId) -> Result<u64, ZoneError> {
        Ok(self.zone(z)?.write_cycles)
    }

    fn zone(&self, z: ZoneId) -> Result<&Zone, ZoneError> {
        self.zones.get(z.0 as usize).ok_or(ZoneError::InvalidZone)
    }

    fn zone_mut(&mut self, z: ZoneId) -> Result<&mut Zone, ZoneError> {
        self.zones
            .get_mut(z.0 as usize)
            .ok_or(ZoneError::InvalidZone)
    }

    fn base(&self, z: ZoneId) -> u64 {
        u64::from(z.0) * self.zone_bytes
    }

    /// Moves zone `z`'s `by_deadline` entry from key `old` to key `new`,
    /// where `None` means "not indexed": a remove, then an insert. Each
    /// has a fast path at an end of the list, which is where a scrub of
    /// the due prefix lands: it removes the head and pushes at the tail.
    /// The fast paths skip a search each: against a plain `binary_search`
    /// remove and `partition_point` insert they measured `soak_lifecycle`
    /// ×1.080 (10 pairs). `VecDeque` shifts the shorter side for a
    /// mid-list entry. Inlined: against `#[inline(never)]` here, the
    /// inlined build read `soak_lifecycle` ×1.011, `serve_steady` ×1.000
    /// and `serve_faulted` ×0.987 (10 pairs each), so out of line no
    /// longer pays overall.
    fn rekey(&mut self, z: ZoneId, old: Option<SimTime>, new: Option<SimTime>) {
        let idx = &mut self.by_deadline;
        if let Some(d) = old {
            if idx.front() == Some(&(d, z)) {
                idx.pop_front();
            } else {
                let at = idx
                    .binary_search(&(d, z))
                    .expect("a live zone is in the expiry list");
                idx.remove(at);
            }
        }
        if let Some(d) = new {
            let key = (d, z);
            if idx.back().is_none_or(|&e| e < key) {
                idx.push_back(key);
            } else {
                idx.insert(idx.partition_point(|&e| e < key), key);
            }
        }
    }

    /// Opens the lowest-numbered empty zone. Control-plane wear levelling
    /// should prefer [`MrmBlockController::open_zone_least_worn`].
    pub fn open_zone(&mut self) -> Result<ZoneId, ZoneError> {
        let idx = self
            .zones
            .iter()
            .position(|zn| zn.state == ZoneState::Empty)
            .ok_or(ZoneError::NoEmptyZones)?;
        self.zones[idx].state = ZoneState::Open;
        let z = ZoneId(idx as u32);
        self.rekey(z, None, Some(SimTime::MAX));
        Ok(z)
    }

    /// Opens the empty zone with the fewest write cycles — the software
    /// wear-levelling primitive (§4: wear-levelling "left up to a software
    /// control plane").
    pub fn open_zone_least_worn(&mut self) -> Result<ZoneId, ZoneError> {
        let idx = self
            .zones
            .iter()
            .enumerate()
            .filter(|(_, zn)| zn.state == ZoneState::Empty)
            .min_by_key(|(_, zn)| zn.write_cycles)
            .map(|(i, _)| i)
            .ok_or(ZoneError::NoEmptyZones)?;
        self.zones[idx].state = ZoneState::Open;
        let z = ZoneId(idx as u32);
        self.rekey(z, None, Some(SimTime::MAX));
        Ok(z)
    }

    /// Appends `bytes` to an open zone, programming the cells for
    /// `retention`. Returns the device-level timing/reliability result.
    pub fn append(
        &mut self,
        now: SimTime,
        z: ZoneId,
        bytes: u64,
        retention: SimDuration,
    ) -> Result<OpResult, ZoneError> {
        let zone_bytes = self.zone_bytes;
        let base = self.base(z);
        let zone = self.zone_mut(z)?;
        if zone.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if zone.state != ZoneState::Open {
            return Err(ZoneError::NotOpen);
        }
        if zone.write_ptr + bytes > zone_bytes {
            return Err(ZoneError::ZoneOverflow);
        }
        let addr = base + zone.write_ptr;
        let deadline = now.saturating_add(retention);
        let res = self
            .device
            .write_with_retention(now, addr, bytes, retention)?;
        let zone = self.zone_mut(z)?;
        zone.write_ptr += bytes;
        let old = zone.deadline;
        zone.deadline = old.min(deadline);
        if zone.write_ptr == zone_bytes {
            zone.state = ZoneState::Full;
        }
        if deadline < old {
            self.rekey(z, Some(old), Some(deadline));
        }
        Ok(res)
    }

    /// Reads `[offset, offset+len)` of a zone. Fails if the range is beyond
    /// the write pointer. The returned [`OpResult`] carries the expected
    /// RBER/expiry of the data.
    pub fn read(
        &mut self,
        now: SimTime,
        z: ZoneId,
        offset: u64,
        len: u64,
    ) -> Result<OpResult, ZoneError> {
        let base = self.base(z);
        let zone = self.zone(z)?;
        if zone.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if zone.state == ZoneState::Empty {
            return Err(ZoneError::NotOpen);
        }
        if offset + len > zone.write_ptr {
            return Err(ZoneError::ReadBeyondWritePointer);
        }
        Ok(self.device.read(now, base + offset, len)?)
    }

    /// Reads a zone range through the fault layer and, on an uncorrectable
    /// outcome, runs the recovery state machine (DESIGN.md §9):
    ///
    /// 1. **retry** — re-read the range (transient decode failures clear);
    /// 2. **scrub escalation** — rewrite the zone in place for
    ///    `scrub_retention`, then re-read at the refreshed error rate;
    /// 3. **retirement** — if the scrubbed re-read still fails (or the
    ///    device reports the region worn out), the zone is permanently
    ///    retired and the caller must restore the data from elsewhere.
    ///
    /// Without an attached fault layer this is exactly
    /// [`MrmBlockController::read`].
    pub fn read_checked(
        &mut self,
        now: SimTime,
        z: ZoneId,
        offset: u64,
        len: u64,
        scrub_retention: SimDuration,
    ) -> Result<CheckedRead, ZoneError> {
        let mut op = self.read(now, z, offset, len)?;
        let Some(model) = self.faults.as_mut() else {
            return Ok(CheckedRead {
                op,
                faults: ReadFaults::default(),
                action: RecoveryAction::None,
            });
        };
        let mut faults = model.inject_read(len, op.rber);
        if !faults.uncorrectable() && !op.worn_out {
            return Ok(CheckedRead {
                op,
                faults,
                action: RecoveryAction::None,
            });
        }
        // Step 1: retry. The re-read costs real device time/energy and the
        // injection re-samples — a transient UE clears here.
        let mut action = RecoveryAction::Retired;
        if !op.worn_out {
            self.read_retries += 1;
            op = self.read(now, z, offset, len)?;
            let model = self.faults.as_mut().expect("fault layer attached");
            let again = model.inject_read(len, op.rber);
            let clean = !again.uncorrectable();
            faults.merge(&again);
            if clean && !op.worn_out {
                action = RecoveryAction::Retried;
            }
        }
        // Step 2: scrub escalation — rewrite in place, then re-read at the
        // refreshed (fresh-write) error rate.
        if action == RecoveryAction::Retired && !op.worn_out {
            self.scrub_escalations += 1;
            self.scrub_zone(now, z, scrub_retention)?;
            op = self.read(now, z, offset, len)?;
            let model = self.faults.as_mut().expect("fault layer attached");
            let again = model.inject_read(len, op.rber);
            let clean = !again.uncorrectable();
            faults.merge(&again);
            if clean && !op.worn_out {
                action = RecoveryAction::Scrubbed;
            }
        }
        // Step 3: retirement.
        if action == RecoveryAction::Retired {
            self.retire_zone(z)?;
        }
        Ok(CheckedRead { op, faults, action })
    }

    /// Permanently takes a zone out of service. Retired zones reject every
    /// operation and are excluded from zone selection and expiry scans.
    pub fn retire_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        let zone = self.zone_mut(z)?;
        if zone.state == ZoneState::Retired {
            return Ok(());
        }
        let was = (zone.state != ZoneState::Empty).then_some(zone.deadline);
        zone.state = ZoneState::Retired;
        zone.deadline = SimTime::MAX;
        self.zones_retired += 1;
        self.rekey(z, was, None);
        Ok(())
    }

    /// Marks an open zone full (no further appends).
    pub fn finish_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        let zone = self.zone_mut(z)?;
        if zone.state != ZoneState::Open {
            return Err(ZoneError::NotOpen);
        }
        zone.state = ZoneState::Full;
        Ok(())
    }

    /// Resets a zone to empty (data dropped — fine for soft state, §4).
    /// A reset of a written zone completes one reuse cycle, which is what
    /// the software wear-leveller counts.
    pub fn reset_zone(&mut self, z: ZoneId) -> Result<(), ZoneError> {
        let zone = self.zone_mut(z)?;
        if zone.state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if zone.write_ptr > 0 {
            zone.write_cycles += 1;
        }
        let was = (zone.state != ZoneState::Empty).then_some(zone.deadline);
        zone.state = ZoneState::Empty;
        zone.write_ptr = 0;
        zone.deadline = SimTime::MAX;
        self.rekey(z, was, None);
        Ok(())
    }

    /// Open and Full zones whose earliest retention deadline is at or
    /// before `horizon`, soonest first, with equal deadlines in zone-id
    /// order — the control plane's scrub/migrate/drop work list. A copy
    /// of a prefix of the controller's deadline-ordered expiry list.
    pub fn zones_expiring_before(&self, horizon: SimTime) -> Vec<(ZoneId, SimTime)> {
        let n = self.by_deadline.partition_point(|&(d, _)| d <= horizon);
        self.by_deadline.range(..n).map(|&(d, z)| (z, d)).collect()
    }

    /// Scrubs a zone: rewrites its contents in place with a fresh
    /// `retention` target, charged as housekeeping on the device ledger.
    /// This is the *software-initiated* refresh the paper moves out of the
    /// device.
    pub fn scrub_zone(
        &mut self,
        now: SimTime,
        z: ZoneId,
        retention: SimDuration,
    ) -> Result<u64, ZoneError> {
        let base = self.base(z);
        let (written, state) = {
            let zone = self.zone(z)?;
            (zone.write_ptr, zone.state)
        };
        if state == ZoneState::Retired {
            return Err(ZoneError::ZoneRetired);
        }
        if state == ZoneState::Empty {
            return Err(ZoneError::NotOpen);
        }
        if written == 0 {
            return Ok(0);
        }
        let bytes = self.device.refresh_range(now, base, written)?;
        let zone = self.zone_mut(z)?;
        let new = now.saturating_add(retention);
        let old = std::mem::replace(&mut zone.deadline, new);
        zone.write_cycles += 1;
        self.scrub_ops += 1;
        self.scrub_bytes += bytes;
        self.rekey(z, Some(old), Some(new));
        Ok(bytes)
    }

    /// Scrub (software-refresh rewrite) operations completed so far.
    pub fn scrub_ops(&self) -> u64 {
        self.scrub_ops
    }

    /// Bytes rewritten by scrubs so far.
    pub fn scrub_bytes(&self) -> u64 {
        self.scrub_bytes
    }

    /// Observes every zone's write-cycle count into the
    /// `zone_write_cycles` histogram — the wear distribution the software
    /// wear-leveller is trying to flatten. One-shot: call at end of run,
    /// not per interval, since histogram observations accumulate.
    pub fn emit_wear_histogram(&self, sink: &mut SimTelemetry) {
        for zn in &self.zones {
            sink.observe("zone_write_cycles", zn.write_cycles as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;

    fn ctrl() -> MrmBlockController {
        let mut tech = presets::mrm_hours();
        tech.capacity_bytes = 64 * MIB; // small for tests
        MrmBlockController::new(MemoryDevice::new(tech), 4 * MIB)
    }

    /// Filters the live zones and stably sorts them by deadline, so ties
    /// keep zone-id order: the reference the indexed
    /// `zones_expiring_before` must equal.
    fn expiring_by_sort(c: &MrmBlockController, horizon: SimTime) -> Vec<(ZoneId, SimTime)> {
        let mut v: Vec<(ZoneId, SimTime)> = c
            .zones
            .iter()
            .enumerate()
            .filter(|(_, zn)| {
                !matches!(zn.state, ZoneState::Empty | ZoneState::Retired) && zn.deadline <= horizon
            })
            .map(|(i, zn)| (ZoneId(i as u32), zn.deadline))
            .collect();
        v.sort_by_key(|&(_, d)| d);
        v
    }

    #[test]
    fn zone_lifecycle() {
        let mut c = ctrl();
        assert_eq!(c.zone_count(), 16);
        let z = c.open_zone().unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Open);
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        assert_eq!(c.write_pointer(z).unwrap(), MIB);
        c.finish_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Full);
        c.reset_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Empty);
        assert_eq!(c.write_pointer(z).unwrap(), 0);
    }

    #[test]
    fn appends_are_strictly_sequential() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 1000, SimDuration::from_hours(1))
            .unwrap();
        c.append(SimTime::ZERO, z, 1000, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.write_pointer(z).unwrap(), 2000);
        // Reads below the pointer succeed; beyond it fail.
        assert!(c.read(SimTime::ZERO, z, 0, 2000).is_ok());
        assert_eq!(
            c.read(SimTime::ZERO, z, 1000, 1001).unwrap_err(),
            ZoneError::ReadBeyondWritePointer
        );
    }

    #[test]
    fn zone_overflow_rejected() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        assert_eq!(
            c.append(SimTime::ZERO, z, 5 * MIB, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::ZoneOverflow
        );
    }

    #[test]
    fn full_zone_rejects_appends() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Full);
        assert_eq!(
            c.append(SimTime::ZERO, z, 1, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::NotOpen
        );
    }

    #[test]
    fn deadline_registry_tracks_earliest() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let t0 = SimTime::ZERO;
        c.append(t0, z, 1000, SimDuration::from_hours(12)).unwrap();
        c.append(t0, z, 1000, SimDuration::from_hours(1)).unwrap(); // earlier deadline
        let d = c.deadline(z).unwrap();
        assert_eq!(d, t0 + SimDuration::from_hours(1));
        let expiring = c.zones_expiring_before(t0 + SimDuration::from_hours(2));
        assert_eq!(expiring, vec![(z, d)]);
        assert!(c
            .zones_expiring_before(t0 + SimDuration::from_mins(30))
            .is_empty());
    }

    #[test]
    fn scrub_extends_deadline_and_is_housekeeping() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        let t0 = SimTime::ZERO;
        c.append(t0, z, MIB, SimDuration::from_hours(1)).unwrap();
        let t1 = t0 + SimDuration::from_mins(50);
        let bytes = c.scrub_zone(t1, z, SimDuration::from_hours(1)).unwrap();
        assert!(bytes >= MIB);
        assert_eq!(c.deadline(z).unwrap(), t1 + SimDuration::from_hours(1));
        assert!(c.energy().housekeeping_j > 0.0);
        assert_eq!(c.write_cycles(z).unwrap(), 1);
        // Data read after the original deadline is now fine.
        let r = c.read(t0 + SimDuration::from_mins(70), z, 0, MIB).unwrap();
        assert!(!r.expired);
    }

    #[test]
    fn expired_zone_read_is_flagged() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_mins(10))
            .unwrap();
        let r = c
            .read(SimTime::ZERO + SimDuration::from_mins(30), z, 0, MIB)
            .unwrap();
        assert!(
            r.expired,
            "reads past the retention deadline must be flagged"
        );
    }

    #[test]
    fn least_worn_zone_selection() {
        let mut c = ctrl();
        let z0 = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z0, MIB, SimDuration::from_hours(1))
            .unwrap();
        // Wear z0 via scrubs, then free it.
        for _ in 0..5 {
            c.scrub_zone(SimTime::ZERO, z0, SimDuration::from_hours(1))
                .unwrap();
        }
        c.reset_zone(z0).unwrap();
        // Least-worn must now avoid z0.
        let z = c.open_zone_least_worn().unwrap();
        assert_ne!(z, z0);
        // Plain open_zone (lowest-numbered) would have picked z0 again.
        let mut c2 = ctrl();
        let a = c2.open_zone().unwrap();
        c2.reset_zone(a).unwrap();
        assert_eq!(c2.open_zone().unwrap(), a);
    }

    #[test]
    fn no_empty_zones_error() {
        let mut c = ctrl();
        for _ in 0..16 {
            c.open_zone().unwrap();
        }
        assert_eq!(c.open_zone().unwrap_err(), ZoneError::NoEmptyZones);
    }

    #[test]
    fn invalid_zone_id() {
        let mut c = ctrl();
        assert_eq!(
            c.zone_state(ZoneId(999)).unwrap_err(),
            ZoneError::InvalidZone
        );
        assert_eq!(
            c.append(SimTime::ZERO, ZoneId(999), 1, SimDuration::from_secs(1))
                .unwrap_err(),
            ZoneError::InvalidZone
        );
    }

    #[test]
    fn scrub_ledger_and_zone_wear_histogram() {
        use mrm_telemetry::SimTelemetry;
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(1))
            .unwrap();
        let scrubbed = c
            .scrub_zone(SimTime::ZERO, z, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(c.scrub_ops(), 1);
        assert_eq!(c.scrub_bytes(), scrubbed);
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        c.emit_wear_histogram(&mut t);
        let h = t.registry().histogram_by_name("zone_write_cycles").unwrap();
        assert_eq!(h.count(), c.zone_count() as u64);
    }

    #[test]
    fn read_checked_without_fault_layer_is_plain_read() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(1))
            .unwrap();
        let r = c
            .read_checked(SimTime::ZERO, z, 0, MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(r.action, mrm_faults::RecoveryAction::None);
        assert_eq!(r.faults, mrm_faults::ReadFaults::default());
        assert!(r.recovered());
        assert_eq!(c.read_retries(), 0);
        assert_eq!(c.fault_stats(), None);
    }

    #[test]
    fn fresh_data_reads_clean_through_fault_layer() {
        use mrm_faults::{FaultConfig, FaultModel};
        let mut c = ctrl();
        c.attach_faults(FaultModel::new(FaultConfig::mrm(), 42));
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        // Minutes into a 12-hour retention: RBER is far below the t=2
        // correction budget, so no recovery engages.
        let r = c
            .read_checked(
                SimTime::ZERO + SimDuration::from_mins(5),
                z,
                0,
                MIB,
                SimDuration::from_hours(12),
            )
            .unwrap();
        assert_eq!(r.action, mrm_faults::RecoveryAction::None);
        assert_eq!(
            c.read_retries() + c.scrub_escalations() + c.zones_retired(),
            0
        );
    }

    #[test]
    fn expired_read_escalates_and_scrub_recovers() {
        use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
        let mut c = ctrl();
        c.attach_faults(FaultModel::new(FaultConfig::mrm(), 7));
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, 4 * MIB, SimDuration::from_mins(10))
            .unwrap();
        // Far past the deadline the RBER saturates well above what t=2
        // absorbs over 4 MiB; the recovery ladder must engage, and the
        // scrub rewrite restores a fresh error rate.
        let late = SimTime::ZERO + SimDuration::from_mins(60);
        let r = c
            .read_checked(late, z, 0, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert!(r.faults.uncorrectable(), "{:?}", r.faults);
        assert_eq!(r.action, RecoveryAction::Scrubbed, "{:?}", r);
        assert!(r.recovered());
        assert_eq!(c.read_retries(), 1);
        assert_eq!(c.scrub_escalations(), 1);
        assert_eq!(c.zones_retired(), 0);
        // The scrubbed zone now reads clean.
        let again = c
            .read_checked(late, z, 0, 4 * MIB, SimDuration::from_hours(1))
            .unwrap();
        assert_eq!(again.action, RecoveryAction::None);
    }

    #[test]
    fn retired_zone_rejects_everything_and_leaves_selection() {
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_mins(10))
            .unwrap();
        c.retire_zone(z).unwrap();
        assert_eq!(c.zone_state(z).unwrap(), ZoneState::Retired);
        assert_eq!(c.zones_retired(), 1);
        // Idempotent.
        c.retire_zone(z).unwrap();
        assert_eq!(c.zones_retired(), 1);
        assert_eq!(
            c.read(SimTime::ZERO, z, 0, 1).unwrap_err(),
            ZoneError::ZoneRetired
        );
        assert_eq!(
            c.append(SimTime::ZERO, z, 1, SimDuration::from_secs(1))
                .unwrap_err(),
            ZoneError::ZoneRetired
        );
        assert_eq!(c.reset_zone(z).unwrap_err(), ZoneError::ZoneRetired);
        assert_eq!(
            c.scrub_zone(SimTime::ZERO, z, SimDuration::from_hours(1))
                .unwrap_err(),
            ZoneError::ZoneRetired
        );
        // Gone from the expiry work list and from zone selection.
        assert!(c.zones_expiring_before(SimTime::MAX).is_empty());
        for _ in 0..15 {
            let opened = c.open_zone_least_worn().unwrap();
            assert_ne!(opened, z);
        }
        assert_eq!(c.open_zone().unwrap_err(), ZoneError::NoEmptyZones);
    }

    #[test]
    fn no_device_side_housekeeping_when_idle() {
        // The controller performs zero internal refresh/GC: an idle
        // controller accrues no housekeeping energy.
        let mut c = ctrl();
        let z = c.open_zone().unwrap();
        c.append(SimTime::ZERO, z, MIB, SimDuration::from_hours(12))
            .unwrap();
        let before = c.energy().housekeeping_j;
        // A day of "idle" — nothing happens unless software asks.
        let r = c
            .read(SimTime::ZERO + SimDuration::from_hours(6), z, 0, MIB)
            .unwrap();
        assert!(!r.expired);
        // Idle means *no* accounting at all, so bit equality is exact.
        assert_eq!(c.energy().housekeeping_j.to_bits(), before.to_bits());
    }

    #[test]
    fn equal_deadlines_come_out_in_zone_id_order() {
        let mut c = ctrl();
        let zs: Vec<ZoneId> = (0..4).map(|_| c.open_zone().unwrap()).collect();
        let t0 = SimTime::ZERO;
        let hour = SimDuration::from_hours(1);
        // Appended in reverse id order, every zone keyed at one deadline.
        for &z in zs.iter().rev() {
            c.append(t0, z, MIB, hour).unwrap();
        }
        let d = t0 + hour;
        let want: Vec<_> = zs.iter().map(|&z| (z, d)).collect();
        assert_eq!(c.zones_expiring_before(d), want);
        // Scrub zone 2 later, then back down onto the tie; scrub zone 3
        // earlier, then back up onto it. Both moves must land in id order
        // among the equal keys.
        c.scrub_zone(t0, zs[2], SimDuration::from_hours(5)).unwrap();
        c.scrub_zone(t0, zs[2], hour).unwrap();
        c.scrub_zone(t0, zs[3], SimDuration::from_mins(1)).unwrap();
        c.scrub_zone(t0, zs[3], hour).unwrap();
        assert_eq!(c.zones_expiring_before(SimTime::MAX), want);
        assert_eq!(c.zones_expiring_before(d), expiring_by_sort(&c, d));
    }

    #[test]
    fn expiry_list_matches_the_sorting_oracle() {
        use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
        use mrm_sim::rng::SimRng;
        let mut escalations = 0;
        let mut ladder_retired = 0;
        let mut ties = 0;
        for seed in 0..40u64 {
            let mut rng = SimRng::seed_from(seed);
            let mut c = ctrl();
            // Odd seeds scale the error rate up far enough that a scrubbed
            // re-read can still fail, so the ladder retires zones.
            let ber_scale = if seed % 2 == 0 { 1.0 } else { 3e5 };
            c.attach_faults(FaultModel::new(
                FaultConfig {
                    ber_scale,
                    ..FaultConfig::mrm()
                },
                seed,
            ));
            let mut now = SimTime::ZERO;
            for step in 0..300 {
                let z = ZoneId(rng.gen_index(c.zone_count()) as u32);
                // Few distinct retentions, so appends and scrubs at one
                // `now` tie; `MAX` saturates the deadline.
                let retention = match rng.gen_index(5) {
                    0 => SimDuration::from_secs(2),
                    1 => SimDuration::from_mins(1),
                    2 => SimDuration::from_hours(1),
                    3 => SimDuration::from_secs(rng.gen_range(1, 4)),
                    _ => SimDuration::MAX,
                };
                match rng.gen_index(13) {
                    0 => {
                        let _ = c.open_zone();
                    }
                    1 => {
                        let _ = c.open_zone_least_worn();
                    }
                    2..=4 => {
                        let len = [64 * 1024, 256 * 1024, MIB][rng.gen_index(3)];
                        let _ = c.append(now, z, len, retention);
                    }
                    5 => {
                        // Includes finishing an unwritten zone: Full at MAX.
                        let _ = c.finish_zone(z);
                    }
                    6 => {
                        // Includes scrubbing an open zone with nothing in it.
                        let _ = c.scrub_zone(now, z, retention);
                    }
                    7 | 8 => {
                        let wp = c.write_pointer(z).unwrap();
                        if wp > 0 {
                            let before = c.scrub_escalations();
                            if let Ok(r) = c.read_checked(now, z, 0, wp.min(MIB), retention) {
                                escalations += c.scrub_escalations() - before;
                                ladder_retired += u64::from(r.action == RecoveryAction::Retired);
                            }
                        }
                    }
                    9 => {
                        let _ = c.reset_zone(z);
                    }
                    10 => {
                        if rng.gen_index(4) == 0 {
                            c.retire_zone(z).unwrap();
                        }
                    }
                    11 => {
                        // The soak's daily scrub: every zone due within a
                        // horizon, soonest first, all to one retention.
                        let horizon =
                            now.saturating_add(SimDuration::from_secs(rng.gen_range(0, 120)));
                        for (z, _) in c.zones_expiring_before(horizon) {
                            let _ = c.scrub_zone(now, z, retention);
                            assert_eq!(
                                c.zones_expiring_before(SimTime::MAX),
                                expiring_by_sort(&c, SimTime::MAX),
                                "seed {seed} step {step} scrub of {z:?}"
                            );
                        }
                    }
                    _ => now = now.saturating_add(SimDuration::from_secs(rng.gen_range(0, 40))),
                }
                let all = expiring_by_sort(&c, SimTime::MAX);
                assert_eq!(
                    c.zones_expiring_before(SimTime::MAX),
                    all,
                    "seed {seed} step {step}"
                );
                ties += all.windows(2).filter(|w| w[0].1 == w[1].1).count();
                let drawn = now.saturating_add(SimDuration::from_secs(rng.gen_range(0, 120)));
                let mut horizons = vec![SimTime::ZERO, now, drawn];
                // Every live deadline, exactly: the `<=` boundary with ties.
                horizons.extend(all.iter().map(|&(_, d)| d));
                for h in horizons {
                    assert_eq!(
                        c.zones_expiring_before(h),
                        expiring_by_sort(&c, h),
                        "seed {seed} step {step} horizon {h:?}"
                    );
                }
            }
        }
        assert!(escalations > 0, "no read escalated to a scrub");
        assert!(
            ladder_retired > 0,
            "the recovery ladder never retired a zone"
        );
        assert!(ties > 0, "no two live zones ever shared a deadline");
    }
}
