//! Dynamically Configurable Memory: per-write programmable retention.
//!
//! §4, "Dynamically Configurable Memory (DCM)": "the memory controller would
//! support writing at different durations and energies, allowing retention
//! time to be programmed at runtime", with the cluster-level control plane
//! "right provisioning the MRM to the workload".
//!
//! [`DcmController`] realizes the mechanism: writes carry a lifetime hint,
//! the controller quantizes it to a [`RetentionClass`] (hardware supports a
//! small ladder of write-pulse settings, not a continuum), programs the
//! device at that class's energy point, and accounts energy/endurance per
//! class so experiments can compare against fixed-retention provisioning.

use mrm_device::device::{DeviceError, MemoryDevice, OpResult};
use mrm_device::energy::EnergyBreakdown;
use mrm_faults::{FaultModel, FaultStats, ReadFaults, RecoveryAction};
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::SimTelemetry;
use serde::{Deserialize, Serialize};

/// The hardware retention ladder: the write-pulse settings a DCM device
/// exposes (§4 — "writing at different durations and energies").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RetentionClass {
    /// 30 seconds — activations, speculative state.
    Seconds30,
    /// 10 minutes — short interactive contexts.
    Minutes10,
    /// 1 hour — typical conversation contexts.
    Hours1,
    /// 12 hours — long-lived contexts, prefix caches.
    Hours12,
    /// 7 days — model weights between deployments.
    Days7,
}

impl RetentionClass {
    /// The retention duration this class programs.
    pub fn duration(self) -> SimDuration {
        match self {
            RetentionClass::Seconds30 => SimDuration::from_secs(30),
            RetentionClass::Minutes10 => SimDuration::from_mins(10),
            RetentionClass::Hours1 => SimDuration::from_hours(1),
            RetentionClass::Hours12 => SimDuration::from_hours(12),
            RetentionClass::Days7 => SimDuration::from_days(7),
        }
    }

    /// All classes, shortest first.
    pub fn ladder() -> [RetentionClass; 5] {
        [
            RetentionClass::Seconds30,
            RetentionClass::Minutes10,
            RetentionClass::Hours1,
            RetentionClass::Hours12,
            RetentionClass::Days7,
        ]
    }

    /// The cheapest class whose retention covers `lifetime` (with the given
    /// safety margin multiplier ≥ 1). Falls back to the longest class for
    /// lifetimes beyond the ladder — the control plane must then refresh.
    pub fn for_lifetime(lifetime: SimDuration, margin: f64) -> RetentionClass {
        let need = lifetime.mul_f64(margin.max(1.0));
        for c in Self::ladder() {
            if c.duration() >= need {
                return c;
            }
        }
        RetentionClass::Days7
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            RetentionClass::Seconds30 => "30s",
            RetentionClass::Minutes10 => "10m",
            RetentionClass::Hours1 => "1h",
            RetentionClass::Hours12 => "12h",
            RetentionClass::Days7 => "7d",
        }
    }
}

/// Per-class accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ClassStats {
    /// Writes issued at this class.
    pub writes: u64,
    /// Bytes written at this class.
    pub bytes: u64,
}

/// A DCM front-end over a retention-tunable device.
///
/// # Examples
///
/// ```
/// use mrm_controller::dcm::{DcmController, RetentionClass};
/// use mrm_device::device::MemoryDevice;
/// use mrm_device::tech::presets;
/// use mrm_sim::time::{SimDuration, SimTime};
///
/// let mut dcm = DcmController::new(MemoryDevice::new(presets::mrm_days()), 1.2);
/// // A KV vector expected to live ~5 minutes gets the 10-minute class.
/// let (class, _res) = dcm
///     .write(SimTime::ZERO, 0, 4096, SimDuration::from_mins(5))
///     .unwrap();
/// assert_eq!(class, RetentionClass::Minutes10);
/// ```
#[derive(Clone, Debug)]
pub struct DcmController {
    device: MemoryDevice,
    margin: f64,
    per_class: [ClassStats; 5],
    /// Write-pulse reconfigurations: consecutive writes landing on
    /// different classes. DCM hardware retunes the write circuit when the
    /// class changes, so this is the §4 "programming retention at runtime"
    /// event count.
    reconfigs: u64,
    last_class: Option<RetentionClass>,
    /// Optional fault-injection layer for checked reads.
    faults: Option<FaultModel>,
    /// Checked reads that needed a retry.
    read_retries: u64,
    /// Margin derates applied after persistent uncorrectables.
    derates: u64,
}

impl DcmController {
    /// Creates a DCM controller with a lifetime safety margin (e.g. 1.2 =
    /// program 20% longer than the hint).
    pub fn new(device: MemoryDevice, margin: f64) -> Self {
        DcmController {
            device,
            margin: margin.max(1.0),
            per_class: Default::default(),
            reconfigs: 0,
            last_class: None,
            faults: None,
            read_retries: 0,
            derates: 0,
        }
    }

    /// Attaches a fault-injection layer; [`DcmController::read_checked`]
    /// runs reads through it and derates the provisioning margin on
    /// persistent uncorrectables.
    pub fn attach_faults(&mut self, model: FaultModel) {
        self.faults = Some(model);
    }

    /// Cumulative fault-layer totals, if a layer is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The current lifetime safety margin (grows on derates).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Checked reads that needed a retry.
    pub fn read_retries(&self) -> u64 {
        self.read_retries
    }

    /// Margin derates applied after persistent uncorrectables.
    pub fn derates(&self) -> u64 {
        self.derates
    }

    /// The underlying device.
    pub fn device(&self) -> &MemoryDevice {
        &self.device
    }

    /// Accumulated energy.
    pub fn energy(&self) -> EnergyBreakdown {
        self.device.energy()
    }

    /// Per-class statistics, indexed in ladder order.
    pub fn class_stats(&self) -> [(RetentionClass, ClassStats); 5] {
        let ladder = RetentionClass::ladder();
        [
            (ladder[0], self.per_class[0]),
            (ladder[1], self.per_class[1]),
            (ladder[2], self.per_class[2]),
            (ladder[3], self.per_class[3]),
            (ladder[4], self.per_class[4]),
        ]
    }

    fn class_index(c: RetentionClass) -> usize {
        RetentionClass::ladder()
            .iter()
            .position(|&x| x == c)
            .expect("RetentionClass::ladder() covers every class")
    }

    /// Records per-class accounting and the reconfig edge for one write.
    fn account(&mut self, class: RetentionClass, len: u64) {
        let s = &mut self.per_class[Self::class_index(class)];
        s.writes += 1;
        s.bytes += len;
        if self.last_class.is_some_and(|prev| prev != class) {
            self.reconfigs += 1;
        }
        self.last_class = Some(class);
    }

    /// Number of write-pulse reconfigurations so far (consecutive writes
    /// at different retention classes).
    pub fn reconfigs(&self) -> u64 {
        self.reconfigs
    }

    /// Writes with a lifetime hint: the controller picks the cheapest
    /// covering class and programs the device at that class's energy point.
    /// Returns the class chosen and the device result.
    pub fn write(
        &mut self,
        now: SimTime,
        addr: u64,
        len: u64,
        lifetime_hint: SimDuration,
    ) -> Result<(RetentionClass, OpResult), DeviceError> {
        let class = RetentionClass::for_lifetime(lifetime_hint, self.margin);
        let res = self
            .device
            .write_with_retention(now, addr, len, class.duration())?;
        self.account(class, len);
        Ok((class, res))
    }

    /// Writes at a fixed class regardless of lifetime — the non-DCM
    /// baseline ("worst-case provisioning").
    pub fn write_fixed(
        &mut self,
        now: SimTime,
        addr: u64,
        len: u64,
        class: RetentionClass,
    ) -> Result<OpResult, DeviceError> {
        let res = self
            .device
            .write_with_retention(now, addr, len, class.duration())?;
        self.account(class, len);
        Ok(res)
    }

    /// Reads through to the device.
    pub fn read(&mut self, now: SimTime, addr: u64, len: u64) -> Result<OpResult, DeviceError> {
        self.device.read(now, addr, len)
    }

    /// Reads through the fault layer at the device's age-derived RBER. On
    /// an uncorrectable outcome the recovery is:
    ///
    /// 1. **retry** — one re-read (transient decode failures clear);
    /// 2. **derate** — a persistent UE means the cells hold retention
    ///    worse than the class ladder promised, so the controller widens
    ///    its safety margin by 25% (capped at 4×): *future* writes are
    ///    programmed at longer-retention classes. The failed read itself
    ///    is reported as [`RecoveryAction::Retired`] — this layer cannot
    ///    restore the data, the caller must re-fetch or recompute.
    ///
    /// Without an attached fault layer this is [`DcmController::read`].
    pub fn read_checked(
        &mut self,
        now: SimTime,
        addr: u64,
        len: u64,
    ) -> Result<(OpResult, ReadFaults, RecoveryAction), DeviceError> {
        let mut op = self.device.read(now, addr, len)?;
        let Some(model) = self.faults.as_mut() else {
            return Ok((op, ReadFaults::default(), RecoveryAction::None));
        };
        let mut faults = model.inject_read(len, op.rber);
        if !faults.uncorrectable() {
            return Ok((op, faults, RecoveryAction::None));
        }
        self.read_retries += 1;
        op = self.device.read(now, addr, len)?;
        let model = self.faults.as_mut().expect("fault layer attached");
        let again = model.inject_read(len, op.rber);
        let cleared = !again.uncorrectable();
        faults.merge(&again);
        if cleared {
            return Ok((op, faults, RecoveryAction::Retried));
        }
        self.derates += 1;
        self.margin = (self.margin * 1.25).min(4.0);
        Ok((op, faults, RecoveryAction::Retired))
    }

    /// Per-class constant metric names (counter interning needs `'static`).
    fn class_counters(c: RetentionClass) -> (&'static str, &'static str) {
        match c {
            RetentionClass::Seconds30 => ("dcm_writes_30s", "dcm_bytes_30s"),
            RetentionClass::Minutes10 => ("dcm_writes_10m", "dcm_bytes_10m"),
            RetentionClass::Hours1 => ("dcm_writes_1h", "dcm_bytes_1h"),
            RetentionClass::Hours12 => ("dcm_writes_12h", "dcm_bytes_12h"),
            RetentionClass::Days7 => ("dcm_writes_7d", "dcm_bytes_7d"),
        }
    }

    /// Publishes the per-class write ledger and the reconfig count into
    /// `sink`. Pull-style and idempotent (totals via
    /// [`SimTelemetry::count_to`]).
    pub fn emit_telemetry(&self, sink: &mut SimTelemetry) {
        for (class, stats) in self.class_stats() {
            let (writes, bytes) = Self::class_counters(class);
            sink.count_to(writes, stats.writes);
            sink.count_to(bytes, stats.bytes);
        }
        sink.count_to("dcm_reconfigs", self.reconfigs);
        sink.count_to("dcm_read_retries", self.read_retries);
        sink.count_to("dcm_derates", self.derates);
        sink.gauge("dcm_margin", self.margin);
        if let Some(fs) = self.fault_stats() {
            sink.count_to("dcm_fault_raw_flips", fs.raw_flips);
            sink.count_to("dcm_fault_corrected", fs.corrected);
            sink.count_to("dcm_fault_detected_ue", fs.detected_ue);
            sink.count_to("dcm_fault_miscorrected", fs.miscorrected);
            sink.count_to("dcm_fault_silent", fs.silent);
            sink.gauge("dcm_fault_raw_ber", fs.raw_ber());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;

    fn dcm() -> DcmController {
        let mut tech = presets::mrm_days();
        tech.capacity_bytes = 256 * MIB;
        DcmController::new(MemoryDevice::new(tech), 1.2)
    }

    #[test]
    fn class_ladder_is_sorted() {
        let ladder = RetentionClass::ladder();
        for w in ladder.windows(2) {
            assert!(w[0].duration() < w[1].duration());
        }
    }

    #[test]
    fn class_selection_covers_lifetime_with_margin() {
        // 55 minutes × 1.2 margin = 66 min > 1h → needs 12h class.
        let c = RetentionClass::for_lifetime(SimDuration::from_mins(55), 1.2);
        assert_eq!(c, RetentionClass::Hours12);
        // 45 minutes × 1.2 = 54 min ≤ 1h → 1h class.
        let c = RetentionClass::for_lifetime(SimDuration::from_mins(45), 1.2);
        assert_eq!(c, RetentionClass::Hours1);
        // Beyond the ladder: longest class.
        let c = RetentionClass::for_lifetime(SimDuration::from_days(30), 1.0);
        assert_eq!(c, RetentionClass::Days7);
        // Tiny lifetimes: shortest class.
        let c = RetentionClass::for_lifetime(SimDuration::from_secs(1), 1.0);
        assert_eq!(c, RetentionClass::Seconds30);
    }

    #[test]
    fn margin_below_one_is_clamped() {
        let c = RetentionClass::for_lifetime(SimDuration::from_mins(9), 0.1);
        assert_eq!(c, RetentionClass::Minutes10);
    }

    #[test]
    fn dcm_saves_write_energy_versus_fixed_worst_case() {
        // The §4 DCM claim: right-provisioned retention beats worst-case.
        let mut right = dcm();
        let mut worst = dcm();
        let lifetimes = [
            SimDuration::from_secs(10),
            SimDuration::from_mins(5),
            SimDuration::from_mins(30),
            SimDuration::from_hours(6),
        ];
        for (i, &lt) in lifetimes.iter().enumerate() {
            let addr = i as u64 * MIB;
            right.write(SimTime::ZERO, addr, MIB, lt).unwrap();
            worst
                .write_fixed(SimTime::ZERO, addr, MIB, RetentionClass::Days7)
                .unwrap();
        }
        let saved = 1.0 - right.energy().write_j / worst.energy().write_j;
        assert!(
            saved > 0.10,
            "DCM must save material write energy, saved {saved}"
        );
    }

    #[test]
    fn per_class_accounting() {
        let mut d = dcm();
        d.write(SimTime::ZERO, 0, 100, SimDuration::from_secs(5))
            .unwrap();
        d.write(SimTime::ZERO, 4096, 200, SimDuration::from_secs(5))
            .unwrap();
        d.write(SimTime::ZERO, 8192, 300, SimDuration::from_hours(10))
            .unwrap();
        let stats = d.class_stats();
        assert_eq!(stats[0].1.writes, 2); // Seconds30
        assert_eq!(stats[0].1.bytes, 300);
        assert_eq!(stats[3].1.writes, 1); // Hours12
        assert_eq!(stats[3].1.bytes, 300);
    }

    #[test]
    fn retention_stamp_respected_end_to_end() {
        let mut d = dcm();
        d.write(SimTime::ZERO, 0, MIB, SimDuration::from_mins(5))
            .unwrap();
        // 10-minute class: expired by 20 minutes.
        let r = d
            .read(SimTime::ZERO + SimDuration::from_mins(20), 0, MIB)
            .unwrap();
        assert!(r.expired);
        // But fine at 8 minutes.
        let mut d2 = dcm();
        d2.write(SimTime::ZERO, 0, MIB, SimDuration::from_mins(5))
            .unwrap();
        let r = d2
            .read(SimTime::ZERO + SimDuration::from_mins(8), 0, MIB)
            .unwrap();
        assert!(!r.expired);
    }

    #[test]
    fn labels() {
        assert_eq!(RetentionClass::Hours12.label(), "12h");
        assert_eq!(RetentionClass::Days7.label(), "7d");
    }

    #[test]
    fn reconfigs_count_class_edges() {
        let mut d = dcm();
        d.write_fixed(SimTime::ZERO, 0, 100, RetentionClass::Days7)
            .unwrap();
        d.write_fixed(SimTime::ZERO, 4096, 100, RetentionClass::Days7)
            .unwrap();
        assert_eq!(d.reconfigs(), 0, "same class twice: no retune");
        d.write(SimTime::ZERO, 8192, 100, SimDuration::from_secs(5))
            .unwrap(); // Days7 → Seconds30
        d.write(SimTime::ZERO, 12288, 100, SimDuration::from_secs(5))
            .unwrap(); // stays
        d.write_fixed(SimTime::ZERO, 16384, 100, RetentionClass::Hours1)
            .unwrap(); // Seconds30 → Hours1
        assert_eq!(d.reconfigs(), 2);
    }

    #[test]
    fn read_checked_fresh_data_needs_no_recovery() {
        use mrm_faults::FaultConfig;
        let mut d = dcm();
        d.attach_faults(FaultModel::new(FaultConfig::mrm(), 17));
        d.write(SimTime::ZERO, 0, MIB, SimDuration::from_hours(6))
            .unwrap();
        let (op, faults, action) = d
            .read_checked(SimTime::ZERO + SimDuration::from_mins(1), 0, MIB)
            .unwrap();
        assert!(!op.expired);
        assert_eq!(action, RecoveryAction::None);
        assert!(!faults.uncorrectable());
        assert_eq!(d.derates(), 0);
        assert!((d.margin() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn persistent_ue_derates_the_margin() {
        use mrm_faults::FaultConfig;
        let mut d = dcm();
        d.attach_faults(FaultModel::new(FaultConfig::mrm(), 23));
        // 10-minute class, read far past expiry: RBER saturates and the
        // UE persists through the retry, forcing a derate.
        d.write(SimTime::ZERO, 0, 4 * MIB, SimDuration::from_mins(5))
            .unwrap();
        let (op, faults, action) = d
            .read_checked(SimTime::ZERO + SimDuration::from_mins(60), 0, 4 * MIB)
            .unwrap();
        assert!(op.expired);
        assert!(faults.uncorrectable());
        assert_eq!(action, RecoveryAction::Retired);
        assert_eq!(d.derates(), 1);
        assert!((d.margin() - 1.5).abs() < 1e-12, "1.2 × 1.25 = 1.5");
        // The derated controller now rounds the same lifetime hint up to
        // a longer class: 45 min × 1.5 = 67.5 min > 1h → 12h.
        let (class, _) = d
            .write(SimTime::ZERO, 8 * MIB, 100, SimDuration::from_mins(45))
            .unwrap();
        assert_eq!(class, RetentionClass::Hours12);
        // Margin growth saturates at 4×.
        for _ in 0..20 {
            d.write(SimTime::ZERO, 0, 4 * MIB, SimDuration::from_mins(5))
                .unwrap();
            d.read_checked(SimTime::ZERO + SimDuration::from_mins(60), 0, 4 * MIB)
                .unwrap();
        }
        assert!(d.margin() <= 4.0 + 1e-12);
    }

    #[test]
    fn fault_telemetry_is_published() {
        use mrm_faults::FaultConfig;
        use mrm_telemetry::SimTelemetry;
        let mut d = dcm();
        d.attach_faults(FaultModel::new(FaultConfig::mrm(), 23));
        d.write(SimTime::ZERO, 0, 4 * MIB, SimDuration::from_mins(5))
            .unwrap();
        d.read_checked(SimTime::ZERO + SimDuration::from_mins(60), 0, 4 * MIB)
            .unwrap();
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        d.emit_telemetry(&mut t);
        let r = t.registry();
        assert_eq!(r.counter_value("dcm_read_retries"), Some(d.read_retries()));
        assert_eq!(r.counter_value("dcm_derates"), Some(d.derates()));
        assert!((r.gauge_value("dcm_margin").unwrap() - d.margin()).abs() < 1e-12);
        let fs = *d.fault_stats().unwrap();
        assert_eq!(r.counter_value("dcm_fault_raw_flips"), Some(fs.raw_flips));
    }

    #[test]
    fn telemetry_publishes_class_ledger() {
        use mrm_telemetry::SimTelemetry;
        let mut d = dcm();
        d.write(SimTime::ZERO, 0, 300, SimDuration::from_secs(5))
            .unwrap();
        d.write_fixed(SimTime::ZERO, 4096, 200, RetentionClass::Days7)
            .unwrap();
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        d.emit_telemetry(&mut t);
        d.emit_telemetry(&mut t); // idempotent republish
        let r = t.registry();
        assert_eq!(r.counter_value("dcm_writes_30s"), Some(1));
        assert_eq!(r.counter_value("dcm_bytes_30s"), Some(300));
        assert_eq!(r.counter_value("dcm_writes_7d"), Some(1));
        assert_eq!(r.counter_value("dcm_reconfigs"), Some(1));
    }
}
