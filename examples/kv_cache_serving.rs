//! KV-cache serving scenario: one accelerator's decode loop with its KV
//! caches in an MRM device, driven by the workload engine.
//!
//! Shows the §2/§4 data path end to end on the zoned block controller:
//! prefill writes the prompt's self-attention vectors into an append-only
//! zone at the retention class DCM picks from the request's lifetime hint,
//! every decode step reads the whole cache through the checked ECC path
//! and appends one vector, completed contexts stay cached for follow-ups,
//! and a follow-up whose class lapsed takes the soft-state recovery path —
//! the control plane drops the zone and recomputes the prefill — instead
//! of losing data.
//!
//! Run with: `cargo run --release --example kv_cache_serving`

use mrm::controller::dcm::RetentionClass;
use mrm::controller::mrm_block::MrmBlockController;
use mrm::device::device::MemoryDevice;
use mrm::device::tech::presets;
use mrm::faults::{FaultConfig, FaultModel, RecoveryAction};
use mrm::sim::rng::SimRng;
use mrm::sim::time::{SimDuration, SimTime};
use mrm::sim::units::{format_bytes, GIB};
use mrm::workload::engine::DecodeEngine;
use mrm::workload::model::{ModelConfig, Quantization};
use mrm::workload::traces::{RequestSampler, TraceKind};

fn main() {
    let model = ModelConfig::llama2_70b();
    let quant = Quantization::Fp16;
    let engine = DecodeEngine::new(model.clone(), quant);
    let kvpt = model.kv_bytes_per_token(quant);

    // A 32 GiB hours-class MRM device holds this accelerator's KV caches,
    // one 2 GiB zone per context (a full 4096-token context is ~1.3 GB).
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = 32 * GIB;
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), 2 * GIB);
    ctrl.attach_faults(FaultModel::new(FaultConfig::mrm(), 7));
    let mut rng = SimRng::seed_from(7);
    let sampler = RequestSampler::new(TraceKind::Conversation, 4096);

    let mut now = SimTime::ZERO;
    let decode_step = SimDuration::from_millis(33); // ~30 tok/s/request

    println!(
        "serving 5 conversations; KV vectors are {} each\n",
        format_bytes(kvpt)
    );
    let mut cached = Vec::new();
    for req in 0..5 {
        let (prompt, output) = sampler.sample(&mut rng);
        // Lifetime hint: decode tail + a 10-minute follow-up window.
        let lifetime =
            SimDuration::from_secs_f64(f64::from(output) / 30.0) + SimDuration::from_mins(10);
        let class = RetentionClass::for_lifetime(lifetime, 1.25);
        let retention = class.duration();
        let zone = ctrl.open_zone_least_worn().unwrap();

        // Prefill: the whole prompt's vectors land as one append burst.
        ctrl.append(now, zone, u64::from(prompt) * kvpt, retention)
            .unwrap();

        // Decode: read-everything / append-one-vector per token (§2.2).
        let mut context = prompt;
        #[allow(clippy::explicit_counter_loop)] // context is decode state, not an index
        for _ in 0..output.min(40) {
            let cost = engine.token_cost(context);
            let cache_bytes = ctrl.write_pointer(zone).unwrap();
            let r = ctrl
                .read_checked(now, zone, 0, cache_bytes, retention)
                .unwrap();
            assert_eq!(r.action, RecoveryAction::None);
            ctrl.append(now, zone, cost.kv_write, retention).unwrap();
            context += 1;
            now += decode_step;
        }
        println!(
            "req {req}: prompt {prompt} tokens, decoded {} tokens, cache {} at class {}",
            output.min(40),
            format_bytes(ctrl.write_pointer(zone).unwrap()),
            class.label()
        );
        cached.push((zone, class));
    }

    // A follow-up inside the retention window reuses the cache...
    let (fresh, class) = cached[4];
    let soon = now + SimDuration::from_mins(5);
    let len = ctrl.write_pointer(fresh).unwrap();
    let r = ctrl
        .read_checked(soon, fresh, 0, len, class.duration())
        .unwrap();
    println!(
        "\nfollow-up @+5min on req 4: {} raw flips, recovery {:?} -> cache hit, no prefill",
        r.faults.raw_flips, r.action
    );
    assert_eq!(r.action, RecoveryAction::None);

    // ...but one after the (DCM-chosen) retention lapsed finds the zone on
    // the control plane's expiry list: the data is soft state, so the zone
    // is dropped and the prefill recomputed into a fresh zone (§4).
    let (old, class) = cached[0];
    let too_late = now + class.duration() + SimDuration::from_mins(5);
    let len = ctrl.write_pointer(old).unwrap();
    let op = ctrl.read(too_late, old, 0, len).unwrap();
    assert!(op.expired);
    let expired: Vec<_> = ctrl
        .zones_expiring_before(too_late)
        .into_iter()
        .map(|(z, _)| z)
        .collect();
    assert!(expired.contains(&old));
    ctrl.reset_zone(old).unwrap();
    let zone = ctrl.open_zone_least_worn().unwrap();
    ctrl.append(too_late, zone, len, class.duration()).unwrap();
    println!(
        "follow-up after the {} class lapsed: rber {:.1e}, {} zones past deadline -> drop zone {}, recompute the prefill into zone {}",
        class.label(),
        op.rber,
        expired.len(),
        old.0,
        zone.0
    );

    let e = ctrl.energy();
    let fs = ctrl.fault_stats().unwrap();
    println!(
        "\ndevice: {} checked reads ({} silent), write energy {:.2} mJ, scrubs {} — no device-side housekeeping ({:.2} mJ)",
        fs.reads,
        fs.silent,
        e.write_j * 1e3,
        ctrl.scrub_ops(),
        e.housekeeping_j * 1e3
    );
    assert_eq!(fs.silent, 0);
}
