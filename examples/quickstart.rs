//! Quickstart: the MRM stack in five minutes.
//!
//! Builds an hours-class Managed-Retention Memory device behind the paper's
//! lightweight zoned block controller (§4) with the BCH fault model
//! attached, writes a KV cache into a zone at the retention class DCM picks
//! from its lifetime hint, reads it back through the checked ECC path,
//! watches its deadline reach the control plane's work list, scrubs it, and
//! drops it by resetting the zone.
//!
//! Run with: `cargo run --release --example quickstart`

use mrm::controller::dcm::RetentionClass;
use mrm::controller::mrm_block::MrmBlockController;
use mrm::device::device::MemoryDevice;
use mrm::device::tech::presets;
use mrm::faults::{FaultConfig, FaultModel, RecoveryAction};
use mrm::sim::time::{SimDuration, SimTime};
use mrm::sim::units::{format_bytes, GIB, MIB};

fn main() {
    // A 4 GiB hours-class MRM device (12 h native retention) in 64 MiB
    // append-only zones. Every checked read decodes through BCH t=2 over
    // 512-bit data words behind an outer CRC.
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = 4 * GIB;
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), 64 * MIB);
    let faults = FaultModel::new(FaultConfig::mrm(), 1);
    println!(
        "device: {} in {} zones of {}, ECC: BCH t={} over {}-bit codewords",
        format_bytes(ctrl.device().capacity_bytes()),
        ctrl.zone_count(),
        format_bytes(ctrl.zone_bytes()),
        faults.t(),
        faults.codeword_bits()
    );
    ctrl.attach_faults(faults);

    // A KV cache expected to live ~25 minutes (decode tail + follow-up
    // window). DCM quantizes the hint, with a 25% safety margin, onto the
    // hardware retention ladder.
    let t0 = SimTime::ZERO;
    let class = RetentionClass::for_lifetime(SimDuration::from_mins(25), 1.25);
    let retention = class.duration();
    let zone = ctrl.open_zone_least_worn().unwrap();
    println!(
        "\n25 min lifetime hint -> {} class, zone {}",
        class.label(),
        zone.0
    );

    // Append self-attention vectors as decode proceeds.
    for _ in 0..8 {
        ctrl.append(t0, zone, 4 * MIB, retention).unwrap();
    }
    println!(
        "appended {}",
        format_bytes(ctrl.write_pointer(zone).unwrap())
    );

    // Read during the healthy window: every codeword decodes.
    let r = ctrl
        .read_checked(
            t0 + SimDuration::from_mins(10),
            zone,
            0,
            16 * MIB,
            retention,
        )
        .unwrap();
    println!(
        "read @10min: rber {:.1e}, {} raw flips over {} codewords, recovery {:?}",
        r.op.rber, r.faults.raw_flips, r.faults.codewords, r.action
    );
    assert_eq!(r.action, RecoveryAction::None);

    // The deadline registry is the control plane's refresh work list: at
    // 50 minutes the zone is within 30% of its retention of expiring.
    let late = t0 + SimDuration::from_mins(50);
    let due = ctrl.zones_expiring_before(late + retention.mul_f64(0.3));
    assert_eq!(due, vec![(zone, t0 + retention)]);
    println!(
        "due for scrub at 50min: zone {} (deadline {})",
        zone.0, due[0].1
    );

    // Scrub re-arms retention (software refresh, charged as housekeeping).
    let bytes = ctrl.scrub_zone(late, zone, retention).unwrap();
    let r = ctrl
        .read_checked(
            late + SimDuration::from_mins(10),
            zone,
            0,
            16 * MIB,
            retention,
        )
        .unwrap();
    println!(
        "scrubbed {} -> deadline moves to {}, read @60min recovery {:?}",
        format_bytes(bytes),
        ctrl.deadline(zone).unwrap(),
        r.action
    );
    assert!(!r.op.expired);

    // Soft state: dropping data is free — the zone is simply reused.
    ctrl.reset_zone(zone).unwrap();
    let e = ctrl.energy();
    println!(
        "\nfinal: zone {} reset after {} write cycles, energy: {:.3} mJ demand write, {:.3} mJ housekeeping",
        zone.0,
        ctrl.write_cycles(zone).unwrap(),
        e.write_j * 1e3,
        e.housekeeping_j * 1e3
    );
}
