//! The three `serve_*` workloads: fixed `ClusterConfig` shapes run
//! through the public cluster entry points, bare or with the full
//! `mrm-obs` bundle attached.

use std::time::Instant;

use mrm_faults::FaultConfig;
use mrm_obs::Obs;
use mrm_sim::time::SimDuration;
use mrm_telemetry::SimTelemetry;
use mrm_tiering::cluster::{run_cluster_observed, ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;

/// Telemetry snapshot interval of the observed run (as e9 and e11 use).
const SNAPSHOT_EVERY: SimDuration = SimDuration::from_secs(5);

#[derive(Clone, Copy)]
pub enum Shape {
    Steady,
    Faulted,
    Refresh,
}

/// The generated input of one serving run. The simulator receives only
/// this config.
pub fn config(shape: Shape, seed: u64) -> ClusterConfig {
    let (mut cfg, sim_secs) = match shape {
        // e9's fault-free hot core, below saturation.
        Shape::Steady => (
            ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 4, 6.0),
            600,
        ),
        // e11's 1x-margin point.
        Shape::Faulted => {
            let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
            cfg.followup_window = SimDuration::from_secs(20);
            cfg.hint_window = SimDuration::from_secs(20);
            cfg.followup_prob = 0.8;
            cfg.maintenance_period = SimDuration::from_secs(5);
            cfg.faults = FaultConfig {
                provision_margin: Some(1.0),
                ..FaultConfig::mrm()
            };
            (cfg, 150)
        }
        // An optimistic lifetime estimator: hints assume 20 s, follow-ups
        // arrive up to 120 s later, so the control plane must refresh.
        Shape::Refresh => {
            let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 4, 6.0);
            cfg.followup_window = SimDuration::from_secs(120);
            cfg.hint_window = SimDuration::from_secs(20);
            cfg.followup_prob = 0.6;
            cfg.maintenance_period = SimDuration::from_secs(5);
            (cfg, 900)
        }
    };
    cfg.duration = SimDuration::from_secs(sim_secs);
    cfg.seed = seed;
    cfg
}

/// One serving run's outputs.
pub struct ServeRun {
    pub report: ClusterReport,
    pub audit_records: u64,
    /// Host seconds for the whole run, set-up included.
    pub wall_s: f64,
    /// The attached bundle, on observed runs.
    pub obs: Option<Box<Obs>>,
}

/// Host seconds for `ClusterSim::new`; the simulator is dropped unused.
pub fn setup_only(cfg: &ClusterConfig) -> f64 {
    let cfg = cfg.clone();
    let t0 = Instant::now();
    let sim = std::hint::black_box(ClusterSim::new(cfg));
    let s = t0.elapsed().as_secs_f64();
    drop(sim);
    s
}

/// Runs `cfg` bare (`ClusterSim::new(..).run_with_audit()`) or with the
/// full observation bundle (`run_cluster_observed`).
pub fn run(cfg: &ClusterConfig, observed: bool) -> ServeRun {
    let cfg = cfg.clone();
    if observed {
        let mut tele = SimTelemetry::new(SNAPSHOT_EVERY);
        let mut obs = Box::new(Obs::new(cfg.seed));
        let t0 = Instant::now();
        let (report, audit) = run_cluster_observed(cfg, &mut tele, &mut obs);
        let wall_s = t0.elapsed().as_secs_f64();
        ServeRun {
            report,
            audit_records: audit.len() as u64,
            wall_s,
            obs: Some(obs),
        }
    } else {
        let t0 = Instant::now();
        let (report, audit) = ClusterSim::new(cfg).run_with_audit();
        let wall_s = t0.elapsed().as_secs_f64();
        ServeRun {
            report,
            audit_records: audit.len() as u64,
            wall_s,
            obs: None,
        }
    }
}

/// One profiled handler of an observed run.
pub struct Handler {
    /// Per-layer metric prefix.
    pub layer: &'static str,
    pub calls: u64,
    pub self_ns: u64,
    /// Whether the event loop dispatches to it (one call per event), as
    /// opposed to a frame nested inside another handler.
    pub event: bool,
}

/// Profiler handler name -> (per-layer metric prefix, event handler?).
const HANDLERS: [(&str, &str, bool); 8] = [
    ("arrival", "tiering.arrival", true),
    ("iter_done", "tiering.iter_done", true),
    ("followup", "tiering.followup", true),
    ("cache_expire", "tiering.cache_expire", true),
    ("maintenance", "tiering.maintenance", true),
    ("weight_redeploy", "tiering.weight_redeploy", true),
    ("admission", "tiering.admission", false),
    ("reconcile_plan", "control.reconcile_plan", false),
];

/// Every profiled handler with its calls and self wall time, in
/// `HANDLERS` order (the profiler's own order is by time, which varies).
pub fn handlers(obs: &Obs) -> Vec<Handler> {
    let report = obs.profiler.report(usize::MAX);
    HANDLERS
        .iter()
        .filter_map(|&(name, layer, event)| {
            let h = report.top.iter().find(|h| h.name == name)?;
            Some(Handler {
                layer,
                calls: h.calls,
                self_ns: h.wall_self_ns,
                event,
            })
        })
        .collect()
}
