//! **E11-faults** (§4) — retention margin vs. ECC budget vs. recovery.
//!
//! The paper's bet is that retention can be relaxed to data lifetime
//! because residual errors are *managed*: absorbed by retention-aware ECC
//! and, past the ECC budget, by recovery machinery (retry, scrub
//! escalation, re-fetch, recompute) that keeps silent data corruption at
//! zero. This sweep quantifies that pipeline end to end: KV retention is
//! provisioned at `margin × follow-up window` and the margin swept from
//! 10× down to 1× data lifetime. As the margin shrinks, the raw BER of
//! cached-KV reads climbs the Weibull retention curve; BCH t=2 corrects up
//! to its budget; what breaks through engages the cluster recovery ladder
//! — and the report shows the throughput/energy cost of living at the
//! edge.
//!
//! Flags: `--quick` (shorter runs for CI), `--seed <n>`, `--threads <n>`,
//! plus the shared observation flags: `--telemetry <path>` (JSONL series
//! per grid point), `--trace <path>` (Perfetto causal trace), and
//! `--profile <path>` (hot-handler report + folded stacks). At a fixed
//! seed the saved JSON is byte-identical for any thread count (the
//! chaos-smoke CI job diffs exactly that), and so is the trace.

use mrm_analysis::report::Table;
use mrm_bench::{check, heading, save_artifact, save_json, save_telemetry, OutputPaths};
use mrm_faults::FaultConfig;
use mrm_obs::{perfetto, profile, slo, Obs};
use mrm_sim::time::SimDuration;
use mrm_sweep::{seed_from_args, threads_from_args, Grid, Sweep};
use mrm_telemetry::{export, SimTelemetry, Snapshot};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;
use serde::{Serialize, Value};

/// Retention provisioning margins swept, ×data lifetime (generous → none).
const MARGINS: [f64; 6] = [10.0, 5.0, 2.5, 1.5, 1.25, 1.0];

/// One grid point of the sweep in the saved JSON record.
#[derive(Serialize)]
struct FaultSweepRecord {
    policy: String,
    margin: f64,
    report: ClusterReport,
}

fn config(policy: PlacementPolicy, margin: f64, secs: u64, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
    cfg.duration = SimDuration::from_secs(secs);
    // A short follow-up window so cached-KV ages span the full retention
    // class inside the simulated window (the margin knob scales retention
    // relative to this lifetime).
    cfg.followup_window = SimDuration::from_secs(20);
    cfg.hint_window = SimDuration::from_secs(20);
    cfg.followup_prob = 0.8;
    cfg.maintenance_period = SimDuration::from_secs(5);
    cfg.seed = seed;
    cfg.faults = FaultConfig {
        provision_margin: Some(margin),
        ..FaultConfig::mrm()
    };
    cfg
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let secs = if quick { 45 } else { 90 };
    let seed = seed_from_args(0xC1A5_7E12);
    let threads = threads_from_args();
    let out = OutputPaths::from_args();
    let observe = out.trace.is_some() || out.profile.is_some();

    heading(&format!(
        "E11-faults — retention margin sweep: {}x..{}x data lifetime, seed {seed}, {secs} s \
         ({threads} sweep threads{})",
        MARGINS[0],
        MARGINS[MARGINS.len() - 1],
        if quick { ", --quick" } else { "" }
    ));

    let policies = [PlacementPolicy::HbmMrm, PlacementPolicy::HbmMrmDcm];
    let grid = Grid::axis(policies)
        .cross(MARGINS)
        .map(|(p, m)| (p, m, config(p, m, secs, seed)));
    let points: Vec<(FaultSweepRecord, Vec<Snapshot>, Option<Box<Obs>>)> =
        Sweep::new(grid, move |(p, m, cfg), _rng| {
            // Snapshots are always collected: the SLO watchdog below reads
            // them, and the sink is observe-only (the saved JSON the
            // chaos-smoke job byte-compares is unchanged).
            let mut tele = SimTelemetry::new(SimDuration::from_secs(5));
            let mut obs = observe.then(|| Box::new(Obs::new(cfg.seed)));
            let mut sim = ClusterSim::new(cfg.clone());
            sim.attach_telemetry(&mut tele);
            if let Some(o) = obs.as_deref_mut() {
                sim.attach_obs(o);
            }
            let (report, _audit) = sim.run_with_audit();
            let record = FaultSweepRecord {
                policy: p.label().to_string(),
                margin: *m,
                report,
            };
            (record, tele.into_snapshots(), obs)
        })
        .run_parallel(threads);
    let results: Vec<&FaultSweepRecord> = points.iter().map(|(r, _, _)| r).collect();

    let mut t = Table::new(&[
        "system",
        "margin",
        "raw BER",
        "flips",
        "corrected",
        "UE",
        "CRC-caught",
        "silent",
        "retries",
        "refetch",
        "recompute",
        "escalate",
        "tok/s",
    ]);
    for r in &results {
        let f = &r.report.faults;
        t.row(&[
            &r.policy,
            &format!("{:.2}x", r.margin),
            &format!("{:.2e}", f.raw_ber),
            &f.raw_flips.to_string(),
            &f.corrected.to_string(),
            &f.detected_ue.to_string(),
            &f.miscorrected.to_string(),
            &f.silent.to_string(),
            &f.retries.to_string(),
            &f.weight_refetches.to_string(),
            &f.kv_recomputes.to_string(),
            &f.scrub_escalations.to_string(),
            &format!("{:.0}", r.report.tokens_per_s),
        ]);
    }
    print!("{}", t.render());

    // Per-policy endpoints of the sweep (grid is row-major: policy × margin).
    let n = MARGINS.len();
    let mrm_wide = &results[0].report.faults;
    let mrm_tight = &results[n - 1].report.faults;

    heading("Shape checks (§4: relaxed retention is *managed*, not free)");
    let checks = [
        (
            format!(
                "raw BER rises as the margin collapses ({:.2e} at 10x -> {:.2e} at 1x)",
                mrm_wide.raw_ber, mrm_tight.raw_ber
            ),
            mrm_tight.raw_ber > mrm_wide.raw_ber,
        ),
        (
            format!(
                "ECC absorbs the bulk at 1x margin ({} corrected vs {} uncorrectable)",
                mrm_tight.corrected,
                mrm_tight.detected_ue + mrm_tight.miscorrected
            ),
            mrm_tight.corrected > mrm_tight.detected_ue + mrm_tight.miscorrected,
        ),
        (
            format!(
                "errors break through the ECC budget at 1x margin ({} UEs)",
                mrm_tight.detected_ue + mrm_tight.miscorrected
            ),
            mrm_tight.detected_ue + mrm_tight.miscorrected > 0,
        ),
        (
            format!(
                "recovery machinery engages at 1x margin ({} retries, {} recomputes, {} \
                 escalations)",
                mrm_tight.retries, mrm_tight.kv_recomputes, mrm_tight.scrub_escalations
            ),
            mrm_tight.retries + mrm_tight.kv_recomputes + mrm_tight.scrub_escalations > 0,
        ),
        (
            "no breakthrough at 10x margin (generous retention needs no recovery)".to_string(),
            mrm_wide.detected_ue + mrm_wide.miscorrected + mrm_wide.retries == 0,
        ),
        (
            "cluster-level SDC is zero at every margin".to_string(),
            results.iter().all(|r| r.report.faults.silent == 0),
        ),
        (
            "the cluster keeps serving tokens at every margin".to_string(),
            results.iter().all(|r| r.report.tokens > 100),
        ),
    ];
    let mut ok = true;
    for (desc, pass) in &checks {
        ok &= check(*pass, desc);
    }

    // SLO watchdog: the REQUIRED-DURABLE and occupancy invariants must
    // hold at every snapshot of every margin — living at the retention
    // edge may cost recompute throughput, but never a required drop.
    let slos = slo::serving_default(60_000.0, 50.0);
    let mut slo_checks = 0u64;
    let mut required_drop_breaches = 0usize;
    let mut occupancy_breaches = 0usize;
    for (_, snaps, _) in &points {
        let rep = slo::evaluate(&slos, snaps);
        slo_checks += rep.checks;
        required_drop_breaches += rep.breaches_of("required-drop");
        occupancy_breaches += rep.breaches_of("hbm-occupancy")
            + rep.breaches_of("lpddr-occupancy")
            + rep.breaches_of("mrm-occupancy");
    }
    ok &= check(
        slo_checks > 0 && required_drop_breaches == 0,
        &format!("SLO: zero required-drop breaches across all margins ({slo_checks} checks)"),
    );
    ok &= check(
        occupancy_breaches == 0,
        "SLO: tier occupancy never exceeds 1.0 at any margin",
    );

    if let Some(path) = &out.telemetry {
        let mut jsonl = String::new();
        for (i, (r, snaps, _)) in points.iter().enumerate() {
            jsonl.push_str(&export::jsonl_tagged(
                snaps,
                &[
                    ("experiment", Value::Str("e11".to_string())),
                    ("point", Value::U64(i as u64)),
                    ("policy", Value::Str(r.policy.clone())),
                    ("margin", Value::F64(r.margin)),
                ],
            ));
        }
        save_telemetry(path, &jsonl);
    }
    if observe {
        let labelled: Vec<(String, &Obs)> = points
            .iter()
            .enumerate()
            .filter_map(|(i, (r, _, o))| {
                o.as_deref()
                    .map(|o| (format!("e11:{i}:{}:{}x", r.policy, r.margin), o))
            })
            .collect();
        if let Some(path) = &out.trace {
            let tracers: Vec<(String, &mrm_obs::CausalTracer)> = labelled
                .iter()
                .map(|(l, o)| (l.clone(), &o.tracer))
                .collect();
            save_artifact("trace", path, &perfetto::chrome_trace(&tracers));
        }
        if let Some(path) = &out.profile {
            let profs: Vec<(String, &mrm_obs::Profiler)> = labelled
                .iter()
                .map(|(l, o)| (l.clone(), &o.profiler))
                .collect();
            save_artifact("profile", path, &profile::artifact(&profs, 10));
        }
    }

    save_json("e11_faults", &results);
    if !ok {
        std::process::exit(1);
    }
}
