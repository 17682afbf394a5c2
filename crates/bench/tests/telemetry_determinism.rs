//! Satellite acceptance tests for the telemetry layer:
//!
//! 1. A swept cluster run exports **byte-identical** JSONL regardless of
//!    the worker-thread count (grid-order result slots + sim-time-stamped
//!    snapshots).
//! 2. Attaching a sink does not perturb the simulation (same report as
//!    the no-op-sink run).
//! 3. Every exported line parses as JSON and carries a monotonically
//!    non-decreasing `sim_time_ns` within its series.

use mrm_sim::time::SimDuration;
use mrm_sweep::{Grid, Sweep};
use mrm_telemetry::{export, SimTelemetry, Snapshot};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;
use serde::Value;

fn grid() -> Grid<ClusterConfig> {
    Grid::axis(PlacementPolicy::all()).map(|p| {
        let mut cfg = ClusterConfig::llama70b(p, 2, 8.0);
        cfg.duration = SimDuration::from_secs(20);
        cfg
    })
}

/// Runs the sweep on `threads` workers and renders the tagged JSONL export
/// in grid order.
fn sweep_jsonl(threads: usize) -> String {
    let results: Vec<(ClusterReport, Vec<Snapshot>)> =
        Sweep::new(grid(), |cfg: &ClusterConfig, _rng| {
            let mut tele = SimTelemetry::new(SimDuration::from_secs(5));
            let mut sim = ClusterSim::new(cfg.clone());
            sim.attach_telemetry(&mut tele);
            let (report, _audit) = sim.run_with_audit();
            (report, tele.into_snapshots())
        })
        .run_parallel(threads);
    let mut out = String::new();
    for (i, (report, snaps)) in results.iter().enumerate() {
        out.push_str(&export::jsonl_tagged(
            snaps,
            &[
                ("experiment", Value::Str("e9".to_string())),
                ("point", Value::U64(i as u64)),
                ("policy", Value::Str(report.policy.clone())),
            ],
        ));
    }
    out
}

#[test]
fn swept_jsonl_is_byte_identical_across_thread_counts() {
    let single = sweep_jsonl(1);
    let parallel = sweep_jsonl(8);
    assert!(!single.is_empty());
    assert_eq!(single, parallel, "JSONL must not depend on thread count");
}

#[test]
fn telemetry_sink_leaves_report_unchanged() {
    let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 2, 8.0);
    cfg.duration = SimDuration::from_secs(20);
    let (plain, _) = ClusterSim::new(cfg.clone()).run_with_audit();
    let mut tele = SimTelemetry::new(SimDuration::from_secs(5));
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(&mut tele);
    let (traced, _) = sim.run_with_audit();
    // Telemetry must be a pure observer: the whole report is byte-identical.
    assert_eq!(
        serde_json::to_string(&plain).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
    assert!(!tele.snapshots().is_empty());
}

#[test]
fn jsonl_lines_parse_with_monotone_sim_time() {
    let text = sweep_jsonl(4);
    let mut last: Vec<(String, u64, u64)> = Vec::new(); // (experiment, point) -> last ns
    let mut lines = 0;
    for line in text.lines() {
        lines += 1;
        let v: Value = serde_json::from_str(line).expect("line parses as JSON");
        let exp = v.field("experiment").as_str().expect("experiment tag");
        let Value::U64(point) = *v.field("point") else {
            panic!("point tag missing in {line}");
        };
        let Value::U64(ns) = *v.field("sim_time_ns") else {
            panic!("sim_time_ns missing in {line}");
        };
        match last.iter_mut().find(|(e, p, _)| e == exp && *p == point) {
            Some((_, _, prev)) => {
                assert!(ns >= *prev, "sim_time_ns regressed in series {exp}/{point}");
                *prev = ns;
            }
            None => last.push((exp.to_string(), point, ns)),
        }
    }
    // 4 policies × 20 s at 5 s snapshots.
    assert_eq!(lines, 16);
}
