//! Declarative SLO specs evaluated over telemetry snapshots.
//!
//! An [`SloSpec`] names one metric in the telemetry snapshot stream and
//! a bound on it; [`evaluate`] walks a run's snapshots at their
//! sim-time intervals and emits a typed [`SloBreach`] for every
//! violation, folded into an [`SloReport`] the experiment bins consume
//! as shape checks (e9_cluster, e11_faults, e13_control).
//!
//! Four bound kinds cover the serving SLOs the paper's argument needs:
//! per-request latency ([`SloKind::HistP99Ceiling`] on `ttft_ms`), the
//! REQUIRED-DURABLE invariant ([`SloKind::GaugeCeiling`] of zero on
//! `control_required_drop_violations`), the fault ladder's blast radius
//! ([`SloKind::RatePerSecCeiling`] on `cluster_fault_scrub_escalations`),
//! and per-tier occupancy ceilings ([`SloKind::GaugeCeiling`] on
//! `tier_*_occupancy`). Metrics absent from a snapshot are skipped, not
//! failed — a healthy run with faults disabled simply never evaluates
//! the fault SLOs.
//!
//! Evaluation is pure: snapshots in, report out. Nothing here touches
//! the simulator, so the watchdog obeys the obs determinism contract
//! by construction.

use mrm_telemetry::Snapshot;
use serde::Serialize;

/// How a metric is compared against its bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub enum SloKind {
    /// Gauge value must be ≤ bound in every snapshot.
    GaugeCeiling,
    /// Counter total must be ≤ bound in every snapshot.
    CounterCeiling,
    /// Histogram p99 must be ≤ bound in every snapshot.
    HistP99Ceiling,
    /// Counter increase rate between consecutive snapshots must be
    /// ≤ bound per simulated second.
    RatePerSecCeiling,
}

/// One declarative SLO: a metric, a comparison, a bound.
#[derive(Clone, Debug, Serialize)]
pub struct SloSpec {
    /// Report label, e.g. `ttft-p99`.
    pub name: String,
    /// Snapshot metric name, e.g. `ttft_ms`.
    pub metric: String,
    /// Comparison kind.
    pub kind: SloKind,
    /// Inclusive upper bound.
    pub bound: f64,
}

impl SloSpec {
    /// Convenience constructor.
    pub fn new(name: &str, metric: &str, kind: SloKind, bound: f64) -> Self {
        SloSpec {
            name: name.to_string(),
            metric: metric.to_string(),
            kind,
            bound,
        }
    }
}

/// A typed breach event: which SLO, when, what was observed.
#[derive(Clone, Debug, Serialize)]
pub struct SloBreach {
    /// Spec label.
    pub slo: String,
    /// Metric that broke the bound.
    pub metric: String,
    /// Snapshot sim time.
    pub at_ns: u64,
    /// Observed value (for rates, per simulated second).
    pub observed: f64,
    /// The bound it exceeded.
    pub bound: f64,
}

/// Pass/fail summary over one run's snapshot stream.
#[derive(Clone, Debug, Serialize)]
pub struct SloReport {
    /// Specs supplied.
    pub specs: u64,
    /// Snapshots examined.
    pub snapshots: u64,
    /// Individual spec×snapshot evaluations performed.
    pub checks: u64,
    /// Breaches, in snapshot order.
    pub breaches: Vec<SloBreach>,
    /// `breaches.is_empty()` — the watchdog verdict.
    pub passed: bool,
}

impl SloReport {
    /// Breaches of one spec (by label).
    pub fn breaches_of(&self, slo: &str) -> usize {
        self.breaches.iter().filter(|b| b.slo == slo).count()
    }
}

fn gauge(snap: &Snapshot, name: &str) -> Option<f64> {
    snap.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

fn counter(snap: &Snapshot, name: &str) -> Option<u64> {
    snap.counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
}

fn hist_p99(snap: &Snapshot, name: &str) -> Option<f64> {
    snap.histograms
        .iter()
        .find(|(n, h)| n == name && h.count > 0)
        .map(|(_, h)| h.p99)
}

/// Evaluates every spec against every snapshot (rates against every
/// consecutive pair). Snapshots must be in sim-time order, as the
/// telemetry layer emits them.
pub fn evaluate(specs: &[SloSpec], snapshots: &[Snapshot]) -> SloReport {
    let mut checks = 0u64;
    let mut breaches = Vec::new();
    for spec in specs {
        let mut prev: Option<(u64, u64)> = None; // (sim_time_ns, counter)
        for snap in snapshots {
            let observed = match spec.kind {
                SloKind::GaugeCeiling => gauge(snap, &spec.metric),
                SloKind::CounterCeiling => counter(snap, &spec.metric).map(|v| v as f64),
                SloKind::HistP99Ceiling => hist_p99(snap, &spec.metric),
                SloKind::RatePerSecCeiling => {
                    let cur = counter(snap, &spec.metric);
                    let rate = match (prev, cur) {
                        (Some((t0, c0)), Some(c1)) if snap.sim_time_ns > t0 => {
                            let dt_s = (snap.sim_time_ns - t0) as f64 / 1e9;
                            Some(c1.saturating_sub(c0) as f64 / dt_s)
                        }
                        _ => None,
                    };
                    if let Some(c) = cur {
                        prev = Some((snap.sim_time_ns, c));
                    }
                    rate
                }
            };
            let Some(observed) = observed else {
                continue;
            };
            checks += 1;
            if observed > spec.bound {
                breaches.push(SloBreach {
                    slo: spec.name.clone(),
                    metric: spec.metric.clone(),
                    at_ns: snap.sim_time_ns,
                    observed,
                    bound: spec.bound,
                });
            }
        }
    }
    breaches.sort_by(|a, b| a.at_ns.cmp(&b.at_ns).then_with(|| a.slo.cmp(&b.slo)));
    SloReport {
        specs: specs.len() as u64,
        snapshots: snapshots.len() as u64,
        checks,
        passed: breaches.is_empty(),
        breaches,
    }
}

/// The serving-cluster SLO set the experiment bins check: TTFT p99
/// under `ttft_p99_ms`, zero required-drop violations, scrub-escalation
/// rate under `escalations_per_s`, and every tier's occupancy ≤ 1.
pub fn serving_default(ttft_p99_ms: f64, escalations_per_s: f64) -> Vec<SloSpec> {
    vec![
        SloSpec::new("ttft-p99", "ttft_ms", SloKind::HistP99Ceiling, ttft_p99_ms),
        SloSpec::new(
            "required-drop",
            "control_required_drop_violations",
            SloKind::GaugeCeiling,
            0.0,
        ),
        SloSpec::new(
            "escalation-rate",
            "cluster_fault_scrub_escalations",
            SloKind::RatePerSecCeiling,
            escalations_per_s,
        ),
        SloSpec::new(
            "hbm-occupancy",
            "tier_hbm_occupancy",
            SloKind::GaugeCeiling,
            1.0,
        ),
        SloSpec::new(
            "lpddr-occupancy",
            "tier_lpddr_occupancy",
            SloKind::GaugeCeiling,
            1.0,
        ),
        SloSpec::new(
            "mrm-occupancy",
            "tier_mrm_occupancy",
            SloKind::GaugeCeiling,
            1.0,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::time::{SimDuration, SimTime};
    use mrm_telemetry::SimTelemetry;

    fn snaps(points: &[(u64, f64, u64)]) -> Vec<Snapshot> {
        // (sim secs, gauge "g", counter "c") per snapshot.
        let mut tele = SimTelemetry::new(SimDuration::from_secs(1));
        for (s, g, c) in points {
            tele.gauge("g", *g);
            tele.count_to("c", *c);
            tele.observe("h", *g);
            tele.snapshot(SimTime::ZERO + SimDuration::from_secs(*s));
        }
        tele.into_snapshots()
    }

    #[test]
    fn gauge_ceiling_flags_each_offending_snapshot() {
        let specs = [SloSpec::new("g-max", "g", SloKind::GaugeCeiling, 1.0)];
        let rep = evaluate(&specs, &snaps(&[(1, 0.5, 0), (2, 1.5, 0), (3, 2.5, 0)]));
        assert_eq!(rep.checks, 3);
        assert_eq!(rep.breaches.len(), 2);
        assert!(!rep.passed);
        assert_eq!(rep.breaches_of("g-max"), 2);
        assert_eq!(rep.breaches[0].at_ns, 2_000_000_000);
        assert!((rep.breaches[0].observed - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rate_ceiling_uses_consecutive_deltas() {
        let specs = [SloSpec::new("rate", "c", SloKind::RatePerSecCeiling, 2.0)];
        // 0→1 (1/s ok), 1→9 (8/s breach).
        let rep = evaluate(&specs, &snaps(&[(1, 0.0, 0), (2, 0.0, 1), (3, 0.0, 9)]));
        assert_eq!(rep.checks, 2);
        assert_eq!(rep.breaches.len(), 1);
        assert!((rep.breaches[0].observed - 8.0).abs() < 1e-12);
    }

    #[test]
    fn absent_metrics_are_skipped_not_failed() {
        let specs = serving_default(100.0, 1.0);
        let rep = evaluate(&specs, &snaps(&[(1, 0.0, 0)]));
        // None of the serving metrics exist in this synthetic stream.
        assert_eq!(rep.checks, 0);
        assert!(rep.passed);
        assert_eq!(rep.snapshots, 1);
    }

    #[test]
    fn hist_p99_ceiling_reads_summaries() {
        let specs = [SloSpec::new("h99", "h", SloKind::HistP99Ceiling, 1.0)];
        let rep = evaluate(&specs, &snaps(&[(1, 0.5, 0), (2, 50.0, 0)]));
        assert_eq!(rep.breaches.len(), 1);
        assert_eq!(rep.breaches[0].at_ns, 2_000_000_000);
    }
}
