//! **E7** (§4) — Dynamically Configurable Memory: per-write programmable
//! retention vs. fixed worst-case provisioning.
//!
//! "The memory controller would support writing at different durations and
//! energies, allowing retention time to be programmed at runtime,
//! effectively right provisioning the MRM to the workload."
//!
//! The experiment writes a realistic KV-lifetime mix (Splitwise output
//! lengths → expected context lifetimes) through (a) a DCM controller that
//! quantizes each hint onto the retention ladder and (b) a fixed controller
//! pinned at the longest class, then compares write energy, endurance
//! consumption, and the class distribution.
//!
//! With `--telemetry <path>` the DCM write stream also records a JSONL
//! series (per-class write/byte counters, reconfiguration events, running
//! write energy) on a synthetic clock of one write per millisecond; the
//! device writes themselves are unaffected.

use mrm_analysis::report::Table;
use mrm_bench::{
    heading, note, output_path_from_args, save_json, save_telemetry, warn_unsupported_obs,
};
use mrm_controller::dcm::{DcmController, RetentionClass};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_sim::units::{GIB, MIB};
use mrm_sweep::{threads_from_args, Grid, Sweep};
use mrm_telemetry::{export, SimTelemetry};
use mrm_tiering::lifetime::LifetimeEstimator;
use mrm_workload::traces::{RequestSampler, TraceKind};
use serde::Value;

/// A lifetime mix reflecting the §4 service diversity: "some use cases
/// have tight latency SLAs ..., some are throughput hungry ..., others are
/// background best-effort jobs". Transient speculative state lives
/// seconds; interactive contexts live the decode tail plus a follow-up
/// window; shared prefix caches live hours to days.
fn lifetime_mix(n: usize, seed: u64) -> Vec<SimDuration> {
    let mut rng = SimRng::seed_from(seed);
    let est = LifetimeEstimator::default_serving();
    let conv = RequestSampler::new(TraceKind::Conversation, 4096);
    let code = RequestSampler::new(TraceKind::Coding, 4096);
    (0..n)
        .map(|i| match i % 10 {
            // 20%: transient speculative/draft state (seconds).
            0 | 1 => SimDuration::from_secs(5 + rng.gen_range_u64(20)),
            // 20%: shared prefix caches (hours to days).
            2 | 3 => SimDuration::from_hours(4 + rng.gen_range_u64(44)),
            // 60%: interactive contexts (decode tail + follow-up window).
            _ => {
                let (_, output) = if i % 10 < 8 {
                    conv.sample(&mut rng)
                } else {
                    code.sample(&mut rng)
                };
                est.kv_lifetime(output)
            }
        })
        .collect()
}

fn main() {
    let lifetimes = lifetime_mix(2000, 42);
    let write_bytes = MIB;

    let mk = || {
        let mut tech = presets::mrm_days();
        tech.capacity_bytes = 4 * GIB;
        DcmController::new(MemoryDevice::new(tech), 1.25)
    };

    heading("E7 — DCM vs. fixed provisioning over 2000 KV-stream writes (1 MiB each)");
    let mut dcm = mk();
    let mut fixed_7d = mk();
    let mut fixed_12h = mk();
    let cap = 4 * GIB;
    // Telemetry rides a synthetic export clock (one write per simulated
    // millisecond, snapshots every 100 ms); the device writes themselves
    // stay at SimTime::ZERO, so energy and wear results are unchanged.
    let telemetry_path = output_path_from_args("--telemetry");
    warn_unsupported_obs("e7_dcm");
    let mut tele = telemetry_path
        .as_ref()
        .map(|_| SimTelemetry::new(SimDuration::from_millis(100)));
    for (i, &lt) in lifetimes.iter().enumerate() {
        let addr = (i as u64 * write_bytes) % (cap - write_bytes);
        dcm.write(SimTime::ZERO, addr, write_bytes, lt).unwrap();
        fixed_7d
            .write_fixed(SimTime::ZERO, addr, write_bytes, RetentionClass::Days7)
            .unwrap();
        fixed_12h
            .write_fixed(SimTime::ZERO, addr, write_bytes, RetentionClass::Hours12)
            .unwrap();
        if let Some(tele) = tele.as_mut() {
            let now = SimTime::ZERO + SimDuration::from_millis(i as u64 + 1);
            while let Some(at) = tele.snapshot_due(now) {
                dcm.emit_telemetry(tele);
                tele.gauge("dcm_write_j", dcm.energy().write_j);
                tele.snapshot(at);
            }
        }
    }
    if let Some(tele) = tele.as_ref() {
        if let Some(path) = telemetry_path.as_ref() {
            save_telemetry(
                path,
                &export::jsonl_tagged(
                    tele.snapshots(),
                    &[
                        ("experiment", Value::Str("e7".to_string())),
                        ("point", Value::U64(0)),
                    ],
                ),
            );
        }
    }

    let mut t = Table::new(&["controller", "write energy J", "vs fixed-7d", "max wear"]);
    let base = fixed_7d.energy().write_j;
    for (name, c) in [
        ("DCM (lifetime hints)", &dcm),
        ("fixed 12h", &fixed_12h),
        ("fixed 7d (worst case)", &fixed_7d),
    ] {
        let e = c.energy().write_j;
        t.row(&[
            name,
            &format!("{e:.4}"),
            &format!("{:+.1}%", (e / base - 1.0) * 100.0),
            &format!("{:.2e}", c.device().max_wear_fraction()),
        ]);
    }
    print!("{}", t.render());

    heading("E7b — DCM retention-class distribution (right-provisioning in action)");
    let mut t = Table::new(&["class", "writes", "bytes (MiB)"]);
    for (class, stats) in dcm.class_stats() {
        t.row(&[
            class.label(),
            &stats.writes.to_string(),
            &format!("{}", stats.bytes / MIB),
        ]);
    }
    print!("{}", t.render());

    let saved = 1.0 - dcm.energy().write_j / fixed_7d.energy().write_j;
    note(&format!(
        "DCM write-energy saving vs worst-case provisioning: {:.1}%",
        saved * 100.0
    ));
    assert!(saved > 0.03, "DCM must save energy");

    let threads = threads_from_args();
    heading(&format!(
        "E7c — margin sensitivity (hint safety margin vs. energy & expiry risk, \
         {threads} sweep threads)"
    ));
    let mut t = Table::new(&[
        "margin",
        "write energy J",
        "classes used (30s/10m/1h/12h/7d)",
    ]);
    // Each margin's controller replays the same lifetime mix independently,
    // so the sweep engine fans the grid across threads; rows come back in
    // margin order.
    let margins = [1.0, 1.25, 1.5, 2.0, 4.0];
    let margin_rows = Sweep::new(Grid::axis(margins), |&margin, _rng| {
        let mut tech = presets::mrm_days();
        tech.capacity_bytes = 4 * GIB;
        let mut c = DcmController::new(MemoryDevice::new(tech), margin);
        for (i, &lt) in lifetimes.iter().enumerate() {
            let addr = (i as u64 * write_bytes) % (cap - write_bytes);
            c.write(SimTime::ZERO, addr, write_bytes, lt).unwrap();
        }
        let dist: Vec<String> = c
            .class_stats()
            .iter()
            .map(|(_, s)| s.writes.to_string())
            .collect();
        (c.energy().write_j, dist)
    })
    .run_parallel(threads);
    for (margin, (write_j, dist)) in margins.iter().zip(&margin_rows) {
        t.row(&[
            &format!("{margin:.2}"),
            &format!("{write_j:.4}"),
            &dist.join("/"),
        ]);
    }
    print!("{}", t.render());
    note("larger margins push writes into longer classes: more energy, less expiry risk —");
    note("the §4 control-plane knob (\"the control plane ... is best-placed to dynamically decide\").");

    save_json(
        "e7_dcm",
        &(saved, dcm.class_stats().map(|(c, s)| (c.label(), s.writes))),
    );
}
