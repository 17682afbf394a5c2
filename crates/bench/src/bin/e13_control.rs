//! **E13-control** (§4) — the retention control plane, audited end to end.
//!
//! The paper's §4 claim is that *software owns retention*: every data
//! class declares a lifetime, and every store/refresh/migrate/drop is a
//! policy decision, not a side effect. This experiment runs the serving
//! cluster with the control plane's audit log attached and sweeps the two
//! regimes that matter — a healthy cluster and one provisioned at the
//! failure margin (retention == data lifetime, 40x BER) — across the MRM
//! and MRM+DCM placements. The table shows the decision histogram each
//! regime produces; the shape checks assert the §4 contract: the registry
//! fully classifies the serving data set, the recovery ladder flows
//! through the control plane (every weight re-fetch is audited), and no
//! Required-class object is ever reclaimed without a recorded re-fetch or
//! recompute.
//!
//! Flags: `--quick` (shorter runs for CI), `--seed <n>`, `--threads <n>`,
//! plus the shared observation flags: `--telemetry <path>` (sim-time JSONL
//! series per grid point), `--trace <path>` (Perfetto/Chrome trace JSON
//! with causal flow arrows), and `--profile <path>` (hot-handler report +
//! folded stacks). At a fixed seed the saved JSON, the telemetry JSONL and
//! the trace JSON are byte-identical for any thread count (the
//! control-smoke and obs-smoke CI jobs diff exactly that); only the
//! profiler's wall-clock column is machine-dependent.

use mrm_analysis::report::Table;
use mrm_bench::{check, heading, save_artifact, save_json, save_telemetry, OutputPaths};
use mrm_control::registry::RetentionRegistry;
use mrm_control::AuditAction;
use mrm_faults::FaultConfig;
use mrm_obs::{perfetto, profile, slo, validate_chrome_trace, Obs, SpanKind};
use mrm_sim::time::SimDuration;
use mrm_sweep::{seed_from_args, threads_from_args, Grid, Sweep};
use mrm_telemetry::{export, SimTelemetry, Snapshot};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;
use serde::{Serialize, Value};

/// Sim-time spacing of telemetry snapshots for every cluster run.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(5);

/// The two retention regimes swept per placement policy.
#[derive(Clone, Copy)]
enum Regime {
    /// No injected faults: the audit log shows the steady-state decision
    /// mix (stores, TTL drops, refreshes, retires).
    Healthy,
    /// Retention provisioned exactly at the data lifetime with the BER
    /// curve scaled 40x: the full recovery ladder fires and every rung
    /// must land in the audit log.
    Margin1,
}

impl Regime {
    fn label(self) -> &'static str {
        match self {
            Regime::Healthy => "healthy",
            Regime::Margin1 => "margin-1x",
        }
    }
}

/// One grid point in the saved JSON record: the cluster report (which
/// embeds the `ControlSummary` decision histogram) plus the audit-log
/// invariants checked for that run.
#[derive(Serialize)]
struct ControlRecord {
    policy: String,
    regime: String,
    audit_well_formed: bool,
    required_drop_violations: u64,
    report: ClusterReport,
}

fn config(policy: PlacementPolicy, regime: Regime, secs: u64, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
    cfg.duration = SimDuration::from_secs(secs);
    cfg.followup_window = SimDuration::from_secs(20);
    cfg.hint_window = SimDuration::from_secs(20);
    cfg.followup_prob = 0.8;
    cfg.maintenance_period = SimDuration::from_secs(5);
    cfg.seed = seed;
    if let Regime::Margin1 = regime {
        cfg.faults = FaultConfig {
            ber_scale: 40.0,
            provision_margin: Some(1.0),
            ..FaultConfig::mrm()
        };
    }
    cfg
}

/// Runs one grid point with the audit log, a telemetry sink, and (when
/// `observe` is set) the causal tracer + profiler attached, then folds
/// the log into the saved record. The sink and the obs bundle are both
/// observe-only, so attaching them never changes the record.
fn run_point(
    cfg: &ClusterConfig,
    observe: bool,
) -> (ControlRecord, Vec<Snapshot>, Option<Box<Obs>>) {
    let registry = RetentionRegistry::serving_default(cfg.followup_window);
    let mut tele = SimTelemetry::new(SNAPSHOT_EVERY);
    let mut obs = observe.then(|| Box::new(Obs::new(cfg.seed)));
    let mut sim = ClusterSim::new(cfg.clone());
    sim.attach_telemetry(&mut tele);
    if let Some(o) = obs.as_deref_mut() {
        sim.attach_obs(o);
    }
    let (report, audit) = sim.run_with_audit();

    let recs = audit.records();
    let well_formed = recs.iter().enumerate().all(|(i, r)| r.seq == i as u64)
        && recs.windows(2).all(|w| w[0].at <= w[1].at)
        && report.control.audit_records == audit.len() as u64
        && report.control.stores == audit.count(AuditAction::Store)
        && report.control.drops == audit.count(AuditAction::Drop)
        && report.control.refetches == audit.count(AuditAction::Refetch);
    let record = ControlRecord {
        policy: String::new(), // tagged by the caller from the grid point
        regime: String::new(),
        audit_well_formed: well_formed,
        required_drop_violations: audit.required_drop_violations(&registry).len() as u64,
        report,
    };
    (record, tele.into_snapshots(), obs)
}

/// Tags one grid point's snapshots and appends the JSONL lines.
fn append_series(out: &mut String, point: usize, policy: &str, regime: &str, snaps: &[Snapshot]) {
    out.push_str(&export::jsonl_tagged(
        snaps,
        &[
            ("experiment", Value::Str("e13_control".to_string())),
            ("point", Value::U64(point as u64)),
            ("policy", Value::Str(policy.to_string())),
            ("regime", Value::Str(regime.to_string())),
        ],
    ));
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    let secs = if quick { 45 } else { 90 };
    let seed = seed_from_args(0xC0_47_01);
    let threads = threads_from_args();
    let out = OutputPaths::from_args();
    let observe = out.trace.is_some() || out.profile.is_some();

    heading(&format!(
        "E13-control — audited retention decisions: 2 placements x 2 regimes, seed {seed}, \
         {secs} s ({threads} sweep threads{})",
        if quick { ", --quick" } else { "" }
    ));

    let policies = [PlacementPolicy::HbmMrm, PlacementPolicy::HbmMrmDcm];
    let regimes = [Regime::Healthy, Regime::Margin1];
    let grid = Grid::axis(policies)
        .cross(regimes)
        .map(|(p, r)| (p, r, config(p, r, secs, seed)));
    let points = Sweep::new(grid, move |(p, r, cfg), _rng| {
        let (mut record, snaps, obs) = run_point(cfg, observe);
        record.policy = p.label().to_string();
        record.regime = r.label().to_string();
        (record, snaps, obs)
    })
    .run_parallel(threads);
    let mut results: Vec<&ControlRecord> = Vec::new();
    let mut jsonl = String::new();
    for (i, (record, snaps, _)) in points.iter().enumerate() {
        append_series(&mut jsonl, i, &record.policy, &record.regime, snaps);
        results.push(record);
    }

    let mut t = Table::new(&[
        "system",
        "regime",
        "records",
        "stores",
        "refresh",
        "migrate",
        "drops",
        "retires",
        "escalate",
        "refetch",
        "recompute",
        "violations",
        "tok/s",
    ]);
    for r in &results {
        let c = &r.report.control;
        t.row(&[
            &r.policy,
            &r.regime,
            &c.audit_records.to_string(),
            &c.stores.to_string(),
            &c.refreshes.to_string(),
            &c.migrations.to_string(),
            &c.drops.to_string(),
            &c.retires.to_string(),
            &c.escalations.to_string(),
            &c.refetches.to_string(),
            &c.recomputes.to_string(),
            &r.required_drop_violations.to_string(),
            &format!("{:.0}", r.report.tokens_per_s),
        ]);
    }
    print!("{}", t.render());

    // Grid is row-major policy x regime: index 1 is HbmMrm at margin 1.
    let registry = RetentionRegistry::serving_default(SimDuration::from_secs(20));
    let faulted = &results[1];
    let healthy = &results[0];

    heading("Shape checks (§4: software owns retention, auditable end to end)");
    let checks = [
        (
            format!(
                "the registry fully classifies the serving data set ({} classes)",
                registry.len()
            ),
            registry.fully_classified(),
        ),
        (
            "every run's audit log is well-formed (dense seqs, monotone time, counts reconcile)"
                .to_string(),
            results.iter().all(|r| r.audit_well_formed),
        ),
        (
            "no Required-class object is reclaimed without audited recovery, in any regime"
                .to_string(),
            results.iter().all(|r| {
                r.required_drop_violations == 0 && r.report.control.required_drop_violations == 0
            }),
        ),
        (
            format!(
                "every decision lands in the log: the healthy cluster still audits {} records",
                healthy.report.control.audit_records
            ),
            healthy.report.control.audit_records > 0 && healthy.report.control.stores > 0,
        ),
        (
            format!(
                "the recovery ladder flows through the control plane ({} audited re-fetches == \
                 {} fault-layer re-fetches)",
                faulted.report.control.refetches, faulted.report.faults.weight_refetches
            ),
            faulted.report.faults.enabled
                && faulted.report.control.refetches == faulted.report.faults.weight_refetches,
        ),
        (
            format!(
                "living at the margin is visible as decisions: {} drops+recomputes at 1x vs {} \
                 healthy",
                faulted.report.control.drops + faulted.report.control.recomputes,
                healthy.report.control.drops + healthy.report.control.recomputes
            ),
            faulted.report.control.recomputes > healthy.report.control.recomputes,
        ),
        (
            "the cluster keeps serving tokens in every regime".to_string(),
            results.iter().all(|r| r.report.tokens > 100),
        ),
    ];
    let mut ok = true;
    for (desc, pass) in &checks {
        ok &= check(*pass, desc);
    }

    // SLO watchdog over every grid point's telemetry: the §4 contract as
    // declarative specs. Living at margin 1x may cost throughput, but a
    // Required-class drop without recovery or an over-full tier is a bug
    // in any regime.
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
        &format!("SLO: zero required-drop breaches in both regimes ({slo_checks} checks)"),
    );
    ok &= check(
        occupancy_breaches == 0,
        "SLO: tier occupancy never exceeds 1.0 in either regime",
    );

    // Observation shape checks (the PR's acceptance): the faulted
    // margin-1x run must produce a Perfetto-loadable trace in which every
    // required-class drop links causally back to an audited recovery, and
    // a profiler report naming the hot handlers.
    if observe {
        let labelled: Vec<(String, &Obs)> = points
            .iter()
            .enumerate()
            .filter_map(|(i, (r, _, o))| {
                o.as_deref()
                    .map(|o| (format!("e13:{i}:{}:{}", r.policy, r.regime), o))
            })
            .collect();
        let tracers: Vec<(String, &mrm_obs::CausalTracer)> = labelled
            .iter()
            .map(|(l, o)| (l.clone(), &o.tracer))
            .collect();
        let trace_json = perfetto::chrome_trace(&tracers);
        match validate_chrome_trace(&trace_json) {
            Ok(stats) => {
                ok &= check(
                    stats.required_drops > 0,
                    &format!(
                        "margin-1x produces required-class drop spans ({})",
                        stats.required_drops
                    ),
                );
                ok &= check(
                    stats.required_drops_with_cause == stats.required_drops,
                    &format!(
                        "every required-class drop links causally to an audited recovery \
                         ({}/{} carry a cause)",
                        stats.required_drops_with_cause, stats.required_drops
                    ),
                );
                ok &= check(
                    stats.flows > 0 && stats.async_pairs > 0,
                    &format!(
                        "the trace carries causal structure ({} flows, {} async lifecycles)",
                        stats.flows, stats.async_pairs
                    ),
                );
            }
            Err(e) => {
                ok = check(false, &format!("trace JSON validates as Chrome trace: {e}"));
            }
        }
        // Audit correlation: each faulted run's recovery spans carry the
        // audit seq the control plane returned for the decision.
        let correlated = labelled.iter().all(|(_, o)| {
            o.tracer
                .spans()
                .filter(|s| s.kind == SpanKind::Recovery)
                .all(|s| s.detail.audit_seq.is_some())
        });
        ok &= check(
            correlated,
            "every recovery span carries its audit sequence number",
        );
        // Wall-clock *ranking* is machine- and workload-dependent, so only
        // require that five hot handlers exist and that the dispatch hot
        // path is instrumented — not that any specific handler places in
        // the top five. The profiler lap-times dispatch: each event's cost
        // (including queue bookkeeping, which has no standalone frame) is
        // attributed to its handler, so the decode loop ("iter_done") must
        // appear whenever the cluster ran at all.
        let profiled = labelled.iter().all(|(_, o)| {
            let rep = o.profiler.report(5);
            let all = o.profiler.report(usize::MAX);
            rep.top.len() >= 5 && all.top.iter().any(|h| h.name == "iter_done")
        });
        ok &= check(
            profiled,
            "the profiler names the top-5 hot handlers for every point",
        );
        if let Some(path) = &out.trace {
            save_artifact("trace", path, &trace_json);
        }
        if let Some(path) = &out.profile {
            let profs: Vec<(String, &mrm_obs::Profiler)> = labelled
                .iter()
                .map(|(l, o)| (l.clone(), &o.profiler))
                .collect();
            save_artifact("profile", path, &profile::artifact(&profs, 10));
        }
    }

    save_json("e13_control", &results);
    if let Some(path) = &out.telemetry {
        save_telemetry(path, &jsonl);
    }
    if !ok {
        std::process::exit(1);
    }
}
