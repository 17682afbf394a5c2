//! **E9** (§4) — retention-aware placement & scheduling, end to end.
//!
//! The cluster simulation: Splitwise-style traffic against four memory
//! systems (HBM-only, HBM+LPDDR, HBM+MRM fixed-retention, HBM+MRM with
//! DCM), with the control plane tracking KV expiration deadlines and
//! deciding refresh / migrate / drop. Reports tokens/s, J/token,
//! housekeeping energy, cost efficiency, cache behaviour and latency.
//!
//! With `--telemetry <path>` each grid point also records a sim-time
//! JSONL series (5 s snapshots of counters, occupancy and latency
//! percentiles), concatenated in grid order — byte-identical for any
//! `--threads` value. `--trace <path>` exports the main grid's causal
//! spans as one Perfetto-loadable Chrome trace (also thread-invariant),
//! and `--profile <path>` the per-point hot-handler reports + folded
//! stacks (wall-clock, machine-dependent by design).

use mrm_analysis::report::Table;
use mrm_bench::{check, heading, save_artifact, save_json, save_telemetry, OutputPaths};
use mrm_obs::{perfetto, profile, slo, Obs};
use mrm_sim::time::SimDuration;
use mrm_sim::units::format_bytes;
use mrm_sweep::{threads_from_args, Grid, Sweep};
use mrm_telemetry::{export, SimTelemetry, Snapshot};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;
use serde::Value;

/// Sim-time spacing of telemetry snapshots for every cluster run.
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(5);

fn config(policy: PlacementPolicy, accelerators: u32, arrivals: f64, secs: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(policy, accelerators, arrivals);
    cfg.duration = SimDuration::from_secs(secs);
    cfg
}

/// Fans a grid of cluster configurations across the worker pool; the
/// reports (and, when `collect` is set, each point's telemetry snapshots;
/// when `observe` is set, its obs bundle) come back in grid order
/// regardless of thread count.
fn run_grid(
    grid: Grid<ClusterConfig>,
    threads: usize,
    collect: bool,
    observe: bool,
) -> Vec<(ClusterReport, Vec<Snapshot>, Option<Box<Obs>>)> {
    Sweep::new(grid, move |cfg: &ClusterConfig, _rng| {
        let mut tele = collect.then(|| SimTelemetry::new(SNAPSHOT_EVERY));
        let mut obs = observe.then(|| Box::new(Obs::new(cfg.seed)));
        let mut sim = ClusterSim::new(cfg.clone());
        if let Some(t) = tele.as_mut() {
            sim.attach_telemetry(t);
        }
        if let Some(o) = obs.as_deref_mut() {
            sim.attach_obs(o);
        }
        let (report, _audit) = sim.run_with_audit();
        let snaps = tele.map(SimTelemetry::into_snapshots).unwrap_or_default();
        (report, snaps, obs)
    })
    .run_parallel(threads)
}

/// Tags one grid point's snapshots and appends the JSONL lines.
fn append_series(
    out: &mut String,
    experiment: &str,
    point: usize,
    policy: &str,
    snaps: &[Snapshot],
) {
    out.push_str(&export::jsonl_tagged(
        snaps,
        &[
            ("experiment", Value::Str(experiment.to_string())),
            ("point", Value::U64(point as u64)),
            ("policy", Value::Str(policy.to_string())),
        ],
    ));
}

fn fmt_pct(p: Option<f64>) -> String {
    p.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

fn print_reports(reports: &[ClusterReport]) {
    let mut t = Table::new(&[
        "system",
        "tok/s",
        "J/token",
        "housekeeping J",
        "cost",
        "tok/s/kcost",
        "KV capacity",
        "p50 ms",
        "p99 ms",
        "hits",
        "recomputes",
        "scrubs",
    ]);
    for r in reports {
        t.row(&[
            &r.policy,
            &format!("{:.0}", r.tokens_per_s),
            &format!("{:.4}", r.j_per_token),
            &format!("{:.1}", r.housekeeping_j),
            &format!("{:.0}", r.cost_units),
            &format!("{:.1}", r.tokens_per_s_per_kcost),
            &format_bytes(r.kv_capacity_bytes),
            &fmt_pct(r.p50_latency_ms),
            &fmt_pct(r.p99_latency_ms),
            &r.cache_hits.to_string(),
            &r.recomputes.to_string(),
            &r.scrubs.to_string(),
        ]);
    }
    print!("{}", t.render());
}

fn main() {
    let accelerators = 4;
    let secs = 120;
    let threads = threads_from_args();
    let out = OutputPaths::from_args();
    let observe = out.trace.is_some() || out.profile.is_some();
    // The main grid always snapshots telemetry: the SLO shape checks below
    // read it, and the sink is observe-only (byte-identical report).
    let mut jsonl = String::new();

    heading(&format!(
        "E9 — cluster simulation: {accelerators} accelerators, Llama2-70B fp16, 120 s, 16 req/s \
         ({threads} sweep threads)"
    ));
    let grid = Grid::axis(PlacementPolicy::all()).map(|p| config(p, accelerators, 16.0, secs));
    let results = run_grid(grid, threads, true, observe);
    let reports: Vec<ClusterReport> = results.iter().map(|(r, _, _)| r.clone()).collect();
    for (i, (r, snaps, _)) in results.iter().enumerate() {
        append_series(&mut jsonl, "e9", i, &r.policy, snaps);
    }
    print_reports(&reports);

    let hbm = &reports[0];
    let lpddr = &reports[1];
    let mrm = &reports[2];
    let dcm = &reports[3];

    heading("Shape checks (§3/§4)");
    let checks = [
        (
            format!(
                "MRM matches/beats HBM throughput ({:.0} vs {:.0} tok/s)",
                mrm.tokens_per_s, hbm.tokens_per_s
            ),
            mrm.tokens_per_s >= hbm.tokens_per_s * 0.95,
        ),
        (
            format!(
                "MRM cuts J/token ({:.4} vs {:.4})",
                mrm.j_per_token, hbm.j_per_token
            ),
            mrm.j_per_token < hbm.j_per_token,
        ),
        (
            format!(
                "LPDDR tier costs throughput ({:.0} vs {:.0} tok/s)",
                lpddr.tokens_per_s, hbm.tokens_per_s
            ),
            lpddr.tokens_per_s < hbm.tokens_per_s,
        ),
        (
            format!(
                "MRM housekeeping below DRAM refresh ({:.1} vs {:.1} J)",
                mrm.housekeeping_j, hbm.housekeeping_j
            ),
            mrm.housekeeping_j < hbm.housekeeping_j,
        ),
        (
            format!(
                "MRM KV capacity headroom > 2x HBM ({} vs {})",
                format_bytes(mrm.kv_capacity_bytes),
                format_bytes(hbm.kv_capacity_bytes)
            ),
            mrm.kv_capacity_bytes > 2 * hbm.kv_capacity_bytes,
        ),
        (
            format!(
                "DCM keeps throughput within 5% of fixed MRM ({:.0} vs {:.0})",
                dcm.tokens_per_s, mrm.tokens_per_s
            ),
            (dcm.tokens_per_s / mrm.tokens_per_s - 1.0).abs() < 0.05,
        ),
    ];
    let mut ok = true;
    for (desc, pass) in &checks {
        ok &= check(*pass, desc);
    }

    // SLO watchdog over every main-grid point's snapshot stream: the
    // occupancy and required-drop invariants must hold at every sampled
    // instant, not just in the end-of-run aggregates above.
    let slos = slo::serving_default(60_000.0, 50.0);
    for (i, (r, snaps, _)) in results.iter().enumerate() {
        let rep = slo::evaluate(&slos, snaps);
        ok &= check(
            rep.passed && rep.checks > 0,
            &format!(
                "SLOs hold for point {i} ({}): {} checks, {} breaches",
                r.policy,
                rep.checks,
                rep.breaches.len()
            ),
        );
    }

    heading("E9b — load sweep: tokens/s under increasing arrival rates");
    let rates = [4.0, 8.0, 16.0, 32.0];
    let n_policies = PlacementPolicy::all().len();
    // One 16-point grid (rate × policy) instead of nested loops: the whole
    // sweep fans out at once, and row-major grid order means chunks of 4
    // reports form the table rows.
    let load_grid = Grid::axis(rates)
        .cross(PlacementPolicy::all())
        .map(|(rate, p)| config(p, 2, rate, 60));
    let load_results = run_grid(load_grid, threads, out.telemetry.is_some(), false);
    for (i, (r, snaps, _)) in load_results.iter().enumerate() {
        append_series(&mut jsonl, "e9b", i, &r.policy, snaps);
    }
    let load_reports: Vec<ClusterReport> = load_results.into_iter().map(|(r, _, _)| r).collect();
    let mut t = Table::new(&["req/s", "HBM-only", "HBM+LPDDR", "HBM+MRM", "HBM+MRM(DCM)"]);
    for (rate, row) in rates.iter().zip(load_reports.chunks(n_policies)) {
        let cells: Vec<String> = row
            .iter()
            .map(|r| format!("{:.0}", r.tokens_per_s))
            .collect();
        t.row_owned(std::iter::once(format!("{rate:.0}")).chain(cells).collect());
    }
    print!("{}", t.render());

    heading("E9c — per-tier energy breakdown (16 req/s run)");
    let mut t = Table::new(&[
        "system",
        "tier",
        "read",
        "written",
        "demand J",
        "housekeeping J",
        "idle J",
    ]);
    for r in &reports {
        for tr in &r.tiers {
            t.row(&[
                &r.policy,
                &tr.tier,
                &format_bytes(tr.bytes_read),
                &format_bytes(tr.bytes_written),
                &format!("{:.1}", tr.energy.read_j + tr.energy.write_j),
                &format!("{:.1}", tr.energy.housekeeping_j),
                &format!("{:.1}", tr.energy.idle_j),
            ]);
        }
    }
    print!("{}", t.render());

    save_json("e9_cluster", &reports);
    if let Some(path) = &out.telemetry {
        save_telemetry(path, &jsonl);
    }
    if observe {
        let labelled: Vec<(String, &Obs)> = results
            .iter()
            .enumerate()
            .filter_map(|(i, (r, _, o))| o.as_deref().map(|o| (format!("e9:{i}:{}", r.policy), o)))
            .collect();
        if let Some(path) = &out.trace {
            let points: Vec<(String, &mrm_obs::CausalTracer)> = labelled
                .iter()
                .map(|(l, o)| (l.clone(), &o.tracer))
                .collect();
            save_artifact("trace", path, &perfetto::chrome_trace(&points));
        }
        if let Some(path) = &out.profile {
            let points: Vec<(String, &mrm_obs::Profiler)> = labelled
                .iter()
                .map(|(l, o)| (l.clone(), &o.profiler))
                .collect();
            save_artifact("profile", path, &profile::artifact(&points, 10));
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
