//! Full-stack integration: the workload engine driving the §4 MRM stack —
//! an hours-class device behind the zoned block controller, retention
//! classes picked from lifetime hints (DCM), and checked reads through the
//! BCH fault model — across the complete integrity lifecycle: clean reads,
//! the deadline registry listing data near expiry, expiry, and scrub
//! recovery.

use mrm::controller::dcm::{DcmController, RetentionClass};
use mrm::controller::mrm_block::{MrmBlockController, ZoneError, ZoneState};
use mrm::device::device::MemoryDevice;
use mrm::device::tech::presets;
use mrm::faults::{FaultConfig, FaultModel, RecoveryAction};
use mrm::sim::time::{SimDuration, SimTime};
use mrm::sim::units::{GIB, MIB};
use mrm::workload::engine::DecodeEngine;
use mrm::workload::model::{ModelConfig, Quantization};

/// Safety margin multiplied into lifetime hints before picking a class.
const MARGIN: f64 = 1.25;

/// An hours-class MRM device (12 h native retention) split into zones.
fn controller(capacity: u64, zone_bytes: u64) -> MrmBlockController {
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = capacity;
    MrmBlockController::new(MemoryDevice::new(tech), zone_bytes)
}

/// The retention DCM programs for a lifetime hint.
fn retention_for(hint: SimDuration) -> SimDuration {
    RetentionClass::for_lifetime(hint, MARGIN).duration()
}

#[test]
fn decode_loop_over_mrm_device() {
    let model = ModelConfig::llama2_70b();
    let engine = DecodeEngine::new(model.clone(), Quantization::Fp16);
    let kvpt = model.kv_bytes_per_token(Quantization::Fp16);

    // One zone holds the whole KV cache.
    let mut ctrl = controller(8 * GIB, 512 * MIB);
    ctrl.attach_faults(FaultModel::new(FaultConfig::mrm(), 1));
    let retention = retention_for(SimDuration::from_mins(30));
    let zone = ctrl.open_zone_least_worn().unwrap();
    let mut now = SimTime::ZERO;

    // Prefill 1020 tokens, then decode 129 (the Splitwise medians).
    ctrl.append(now, zone, 1020 * kvpt, retention).unwrap();
    let mut context = 1020u32;
    #[allow(clippy::explicit_counter_loop)] // context is decode state, not an index
    for _ in 0..129 {
        let cost = engine.token_cost(context);
        assert_eq!(cost.kv_write, kvpt);
        let len = ctrl.write_pointer(zone).unwrap();
        let r = ctrl.read_checked(now, zone, 0, len, retention).unwrap();
        assert_eq!(
            r.action,
            RecoveryAction::None,
            "mid-decode read must be clean"
        );
        ctrl.append(now, zone, cost.kv_write, retention).unwrap();
        context += 1;
        now += SimDuration::from_millis(33);
    }
    assert_eq!(ctrl.write_pointer(zone).unwrap(), (1020 + 129) * kvpt);
    let fs = ctrl.fault_stats().unwrap();
    assert_eq!(fs.reads, 129);
    assert_eq!(fs.detected_ue + fs.miscorrected + fs.silent, 0);

    // The read:write asymmetry held. Each decode step read the whole cache
    // and wrote one vector: read *bytes* dominate ~120:1; in energy terms
    // MRM reads are ~4x cheaper per bit than retention-programmed writes,
    // so ~25:1 remains.
    let e = ctrl.energy();
    assert!(e.read_j > 20.0 * e.write_j, "read energy must dominate");
}

#[test]
fn integrity_lifecycle_clean_degraded_expired_scrubbed() {
    let t0 = SimTime::ZERO;
    let at = |mins: u64| t0 + SimDuration::from_mins(mins);
    // 8-minute lifetime hint -> 10-minute DCM class.
    let retention = retention_for(SimDuration::from_mins(8));
    assert_eq!(retention, RetentionClass::Minutes10.duration());
    let written = || {
        let mut ctrl = controller(8 * GIB, 64 * MIB);
        ctrl.attach_faults(FaultModel::new(FaultConfig::mrm(), 7));
        let zone = ctrl.open_zone_least_worn().unwrap();
        ctrl.append(t0, zone, 64 * MIB, retention).unwrap();
        (ctrl, zone)
    };
    // The control plane scrubs once 70% of the retention has elapsed, so
    // its work list looks 30% of a retention ahead.
    let lead = retention.mul_f64(0.3);

    // Clean: early in the window every codeword decodes.
    let (mut ctrl, zone) = written();
    let r = ctrl
        .read_checked(at(2), zone, 0, 64 * MIB, retention)
        .unwrap();
    assert_eq!(r.action, RecoveryAction::None);
    assert!(!r.faults.uncorrectable());
    assert!(ctrl.zones_expiring_before(at(2) + lead).is_empty());

    // Degraded: past the scrub margin the zone is on the work list.
    assert_eq!(
        ctrl.zones_expiring_before(at(8) + lead),
        vec![(zone, at(10))]
    );

    // Expired: past the deadline the raw errors overwhelm t = 2 and the
    // recovery ladder must engage.
    assert!(ctrl.read(at(20), zone, 0, 64 * MIB).unwrap().expired);
    let r = ctrl
        .read_checked(at(20), zone, 0, 64 * MIB, retention)
        .unwrap();
    assert!(r.faults.uncorrectable());
    assert_ne!(r.action, RecoveryAction::None);

    // Scrub just before expiry on a fresh device re-arms the deadline.
    let (mut ctrl, zone) = written();
    ctrl.scrub_zone(at(7), zone, retention).unwrap();
    assert_eq!(ctrl.deadline(zone).unwrap(), at(17));
    let r = ctrl
        .read_checked(at(12), zone, 0, 64 * MIB, retention)
        .unwrap();
    assert!(!r.op.expired);
    assert_eq!(r.action, RecoveryAction::None);
    assert!(ctrl.energy().housekeeping_j > 0.0);
}

#[test]
fn expiry_registry_feeds_the_control_plane() {
    let mut ctrl = controller(8 * GIB, 64 * MIB);
    let t0 = SimTime::ZERO;
    let short = ctrl.open_zone_least_worn().unwrap();
    let long = ctrl.open_zone_least_worn().unwrap();
    ctrl.append(t0, short, MIB, retention_for(SimDuration::from_mins(5)))
        .unwrap(); // 10m class
    ctrl.append(t0, long, MIB, retention_for(SimDuration::from_hours(8)))
        .unwrap(); // 12h class

    let due = ctrl.zones_expiring_before(t0 + SimDuration::from_hours(1));
    assert_eq!(due, vec![(short, t0 + SimDuration::from_mins(10))]);

    let later = t0 + SimDuration::from_days(1);
    let due = ctrl.zones_expiring_before(later);
    assert_eq!(due.len(), 2, "both classes expire within a day");
    assert_eq!(due[0].0, short, "soonest deadline first");

    // Dropping the short-lived data takes it off the work list.
    ctrl.reset_zone(short).unwrap();
    assert_eq!(ctrl.zones_expiring_before(later), vec![due[1]]);
}

#[test]
fn capacity_exhaustion_and_reclaim() {
    let mut ctrl = controller(GIB, 16 * MIB);
    let t0 = SimTime::ZERO;
    let retention = retention_for(SimDuration::from_hours(1));
    let zones: Vec<_> = (0..ctrl.zone_count())
        .map(|_| {
            let z = ctrl.open_zone_least_worn().unwrap();
            ctrl.append(t0, z, 16 * MIB, retention).unwrap();
            z
        })
        .collect();
    assert_eq!(zones.len(), 64);
    assert!(zones
        .iter()
        .all(|&z| ctrl.zone_state(z) == Ok(ZoneState::Full)));
    assert_eq!(
        ctrl.open_zone_least_worn().unwrap_err(),
        ZoneError::NoEmptyZones
    );

    // Soft state: resetting a zone drops its data and frees it for reuse.
    ctrl.reset_zone(zones[0]).unwrap();
    let z = ctrl.open_zone_least_worn().unwrap();
    assert_eq!(z, zones[0]);
    assert_eq!(ctrl.write_cycles(z).unwrap(), 1);
    ctrl.append(t0, z, MIB, retention).unwrap();
}

#[test]
fn dcm_routes_streams_to_distinct_classes() {
    let mut dcm = DcmController::new(MemoryDevice::new(presets::mrm_hours()), MARGIN);
    let t0 = SimTime::ZERO;
    let hints = [
        (SimDuration::from_secs(10), RetentionClass::Seconds30), // transient
        (SimDuration::from_mins(20), RetentionClass::Hours1),    // interactive
        (SimDuration::from_days(2), RetentionClass::Days7),      // archive
    ];
    for (i, (hint, class)) in (0u64..).zip(hints) {
        assert_eq!(RetentionClass::for_lifetime(hint, MARGIN), class);
        let (programmed, _) = dcm.write(t0, i * MIB, MIB, hint).unwrap();
        assert_eq!(programmed, class);
    }
    assert_eq!(
        dcm.reconfigs(),
        2,
        "each class change retunes the write pulse"
    );
}
