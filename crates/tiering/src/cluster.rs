//! The end-to-end inference-cluster simulation.
//!
//! This is where the paper's pieces meet: Splitwise-style request traffic
//! (`mrm-workload`) runs against accelerators whose memory system is one of
//! the §4 placement policies (HBM-only, HBM+LPDDR, HBM+MRM fixed, HBM+MRM
//! DCM), with the retention-aware control plane tracking expiration
//! deadlines on cached KV state and deciding refresh / migrate / drop.
//!
//! The performance model is deliberately at "memory-system simulator"
//! fidelity: a decode iteration's duration is the memory time of the §2.2
//! traffic — one full weight read, every active context's KV cache read,
//! one KV vector appended per context — floored by a compute term, so
//! memory-bandwidth differences between policies translate directly into
//! token throughput, and per-bit energy differences into J/token.

use std::collections::{BTreeMap, VecDeque};

use mrm_control::expiry::{consumed_age, rearm_deadline};
use mrm_control::registry::retention_decision;
use mrm_control::{
    AuditAction, AuditLog, ControlClass, ControlPlane, ControlSummary, Reconciler, WorkKind,
};
use mrm_device::cell::RetentionTradeoff;
use mrm_device::device::FRESH_RBER;
use mrm_device::energy::EnergyBreakdown;
use mrm_device::tech::presets;
use mrm_faults::{FaultConfig, FaultModel};
use mrm_obs::{Obs, SpanId};
use mrm_sim::event::EventQueue;
use mrm_sim::rng::SimRng;
use mrm_sim::stats::LogHistogram;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::SimTelemetry;
use mrm_workload::access::DataClass;
use mrm_workload::engine::DecodeEngine;
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::replay::RequestTrace;
use mrm_workload::traces::TraceMix;
use serde::{Deserialize, Serialize};

use crate::lifetime::LifetimeEstimator;
use crate::observe::{Handler, Observer};
use crate::placement::PlacementPolicy;
use crate::tier::{Tier, TierKind};

/// Cluster configuration.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Accelerators in the cluster.
    pub accelerators: u32,
    /// Model served (same on every accelerator, §2).
    pub model: ModelConfig,
    /// Serving quantization.
    pub quant: Quantization,
    /// Memory system / placement policy.
    pub policy: PlacementPolicy,
    /// HBM stacks per accelerator.
    pub hbm_stacks: u32,
    /// LPDDR packages per accelerator (HBM+LPDDR policy).
    pub lpddr_packages: u32,
    /// MRM packages per accelerator (HBM+MRM policies).
    pub mrm_packages: u32,
    /// Cluster-wide request arrival rate, 1/s.
    pub arrivals_per_s: f64,
    /// Decode batch limit per accelerator.
    pub max_batch: u32,
    /// Context limit, tokens.
    pub max_context: u32,
    /// Prefill throughput per accelerator, tokens/s (compute-bound term).
    pub prefill_tokens_per_s: f64,
    /// Chunked-prefill budget per decode iteration, tokens (Sarathi-style
    /// piggybacking \[3\]: bounds how much prefill one iteration absorbs).
    pub prefill_chunk_tokens: u32,
    /// Compute floor per decode iteration.
    pub compute_floor: SimDuration,
    /// How long completed contexts stay cached for follow-ups.
    pub followup_window: SimDuration,
    /// The follow-up window the *lifetime estimator* assumes when hinting
    /// retention classes. Normally equal to `followup_window`; setting it
    /// lower models an optimistic estimator, forcing the §4 control plane
    /// to refresh or migrate under-provisioned data instead of losing it.
    pub hint_window: SimDuration,
    /// Probability a completed context receives a follow-up turn.
    pub followup_prob: f64,
    /// Prompt extension tokens a follow-up adds.
    pub followup_extension: u32,
    /// Whether the control plane scrubs expiring MRM data (§4 refresh
    /// decision); when false, expired cached contexts are recomputed.
    pub scrub_enabled: bool,
    /// Maintenance sweep period.
    pub maintenance_period: SimDuration,
    /// Safety margin for DCM lifetime hints.
    pub lifetime_margin: f64,
    /// Fault-injection layer (DESIGN.md §9). Disabled by default; when
    /// enabled, the weights read of every decode iteration, the cached-KV
    /// read of every follow-up hit, and the maintenance sweep's scrub
    /// verification read all pass through the deterministic injector, and
    /// uncorrectable outcomes engage the cluster-level recovery ladder
    /// (retry → re-fetch weights / recompute KV / escalate the scrub to a
    /// longer-class migration).
    pub faults: FaultConfig,
    /// Optional recorded trace to replay instead of Poisson arrivals
    /// (drop-in slot for real production traces; see `mrm_workload::replay`).
    pub trace: Option<RequestTrace>,
    /// Optional model-redeployment period (§2: "When a new model is
    /// deployed, the cluster ... loads weights for the new model"): every
    /// period, each accelerator bulk-overwrites its weight shard.
    pub weight_redeploy_period: Option<SimDuration>,
    /// Simulated wall-clock duration.
    pub duration: SimDuration,
    /// RNG seed.
    pub seed: u64,
}

impl ClusterConfig {
    /// Checks the configuration for values the simulator cannot run with.
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.accelerators == 0 {
            return Err("accelerators must be at least 1 (requests are \
                        round-robined across accelerators)"
                .to_string());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be at least 1 (no request could ever \
                        be admitted to a decode iteration)"
                .to_string());
        }
        if !(self.arrivals_per_s.is_finite() && self.arrivals_per_s >= 0.0) {
            return Err(format!(
                "arrivals_per_s must be finite and non-negative, got {}",
                self.arrivals_per_s
            ));
        }
        if self.hbm_stacks == 0 {
            return Err("hbm_stacks must be at least 1 (activations always \
                        live in HBM)"
                .to_string());
        }
        if self.maintenance_period.is_zero() {
            return Err("maintenance_period must be positive (a zero period \
                        reschedules the sweep at the same instant forever)"
                .to_string());
        }
        if self.weight_redeploy_period.is_some_and(|p| p.is_zero()) {
            return Err("weight_redeploy_period must be positive when set (a \
                        zero period reschedules the redeploy forever)"
                .to_string());
        }
        let ber_scale = self.faults.ber_scale;
        if !(ber_scale.is_finite() && ber_scale >= 0.0) {
            return Err(format!(
                "faults.ber_scale must be finite and non-negative, got {ber_scale} \
                 (a NaN scale counts reads but never injects a flip)"
            ));
        }
        if let Some(m) = self.faults.provision_margin {
            if !(m.is_finite() && m > 0.0) {
                return Err(format!(
                    "faults.provision_margin must be finite and positive when set, got {m}"
                ));
            }
        }
        let (alt_name, alt_packages) = match self.policy {
            PlacementPolicy::HbmOnly => return Ok(()),
            PlacementPolicy::HbmLpddr => ("lpddr_packages", self.lpddr_packages),
            PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm => {
                ("mrm_packages", self.mrm_packages)
            }
        };
        if alt_packages == 0 {
            return Err(format!(
                "{alt_name} must be at least 1 for the {} policy",
                self.policy.label()
            ));
        }
        Ok(())
    }

    /// The standard experiment configuration: Llama2-70B at fp16 with the
    /// Splitwise trace mix, sized per policy so each system carries the
    /// weights plus a KV working set.
    pub fn llama70b(policy: PlacementPolicy, accelerators: u32, arrivals_per_s: f64) -> Self {
        let (hbm_stacks, lpddr_packages, mrm_packages) = match policy {
            // 8 × 24 GB HBM: weights (140 GB) + KV in HBM.
            PlacementPolicy::HbmOnly => (8, 0, 0),
            // Weights stay in HBM (7 stacks, 168 GB); KV cold tier in
            // 8 × 32 GB LPDDR.
            PlacementPolicy::HbmLpddr => (7, 8, 0),
            // Activations in 2 HBM stacks; weights + KV in 8 × 48 GB MRM.
            PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm => (2, 0, 8),
        };
        ClusterConfig {
            accelerators,
            model: ModelConfig::llama2_70b(),
            quant: Quantization::Fp16,
            policy,
            hbm_stacks,
            lpddr_packages,
            mrm_packages,
            arrivals_per_s,
            max_batch: 32,
            max_context: 4096,
            prefill_tokens_per_s: 7000.0,
            prefill_chunk_tokens: 2048,
            compute_floor: SimDuration::from_millis(10),
            followup_window: SimDuration::from_mins(10),
            hint_window: SimDuration::from_mins(10),
            followup_prob: 0.4,
            followup_extension: 64,
            scrub_enabled: true,
            maintenance_period: SimDuration::from_secs(60),
            lifetime_margin: 1.25,
            faults: FaultConfig::disabled(),
            trace: None,
            weight_redeploy_period: None,
            duration: SimDuration::from_secs(120),
            seed: 0xC1A5_7E12,
        }
    }
}

/// Per-tier energy/traffic summary in the report.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TierReport {
    /// Tier label.
    pub tier: String,
    /// Aggregate capacity, bytes (per accelerator).
    pub capacity_bytes: u64,
    /// Demand bytes read (whole cluster).
    pub bytes_read: u64,
    /// Demand bytes written (whole cluster).
    pub bytes_written: u64,
    /// Energy breakdown (whole cluster).
    pub energy: EnergyBreakdown,
}

/// Fault-injection and recovery summary in the report (DESIGN.md §9).
///
/// All zeros when the fault layer is disabled. `silent` is the cluster's
/// silent-data-corruption count — the quantity the recovery pipeline
/// exists to hold at zero.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Whether the fault layer was constructed for this run.
    pub enabled: bool,
    /// Reads that went through injection at a non-zero effective RBER.
    pub reads: u64,
    /// Raw bit flips injected before any correction.
    pub raw_flips: u64,
    /// Observed raw bit error rate: flips per scanned bit.
    pub raw_ber: f64,
    /// Codewords the inner ECC corrected transparently.
    pub corrected: u64,
    /// Codewords the decoder flagged uncorrectable.
    pub detected_ue: u64,
    /// Decoder miscorrections caught by the outer CRC.
    pub miscorrected: u64,
    /// Corruption that escaped every layer (SDC).
    pub silent: u64,
    /// Read retries (first rung of the recovery ladder).
    pub retries: u64,
    /// Weight shards re-fetched after a persistent uncorrectable read.
    /// Audit: `Refetch` records.
    pub weight_refetches: u64,
    /// Follow-up cache hits demoted to recomputes by a persistent
    /// uncorrectable KV read. Audit: `Recompute` records with reason
    /// `uncorrectable-read`.
    pub kv_recomputes: u64,
    /// Maintenance refreshes escalated to a longer-class migration after
    /// the scrub verification read failed. Audit: `Escalate` records.
    pub scrub_escalations: u64,
}

/// Simulation results.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClusterReport {
    /// Policy evaluated.
    pub policy: String,
    /// Accelerator count.
    pub accelerators: u32,
    /// Simulated seconds.
    pub duration_s: f64,
    /// Requests that arrived.
    pub arrivals: u64,
    /// Requests completed. Audit: `(KvTail, Retire)` records.
    pub completions: u64,
    /// Tokens decoded.
    pub tokens: u64,
    /// Decode throughput, tokens/s (cluster).
    pub tokens_per_s: f64,
    /// Follow-ups that hit cached KV state.
    pub cache_hits: u64,
    /// Follow-ups that recomputed their context instead of reusing cached
    /// KV: its retention lapsed, its read stayed uncorrectable, or it was
    /// already gone. Audit: `Recompute` records.
    pub recomputes: u64,
    /// Control-plane scrub (refresh) operations. Audit: `Refresh` records.
    pub scrubs: u64,
    /// Rewrites at a longer retention class, planned or after a failed
    /// scrub. Audit: `Migrate` and `Escalate` records.
    pub migrations: u64,
    /// Cached contexts the maintenance sweep reclaimed because their need
    /// lapsed or ended; TTL-expiry and recompute drops are not counted.
    /// Audit: `Drop` records with reason `need-lapsed` and `Retire` records
    /// with reason `need-ended`.
    pub drops: u64,
    /// Cached contexts evicted under memory pressure (best-effort cache).
    /// Audit: `Evict` records.
    pub evictions: u64,
    /// Model (weight) redeployments performed. Audit: `(Weights, Retire)`
    /// records.
    pub redeploys: u64,
    /// Total energy, joules.
    pub energy_total_j: f64,
    /// Energy per decoded token, joules.
    pub j_per_token: f64,
    /// Energy spent on housekeeping (refresh + scrub), joules.
    pub housekeeping_j: f64,
    /// Relative hardware cost units (whole cluster).
    pub cost_units: f64,
    /// Throughput per cost: tokens/s per 1000 cost units.
    pub tokens_per_s_per_kcost: f64,
    /// KV-capacity headroom per accelerator, bytes.
    pub kv_capacity_bytes: u64,
    /// Median request latency, ms (`None` when no request completed —
    /// "no data" must not read as "0 ms").
    pub p50_latency_ms: Option<f64>,
    /// Tail request latency, ms (`None` when no request completed).
    pub p99_latency_ms: Option<f64>,
    /// Median time-to-first-token, ms (arrival to first decoded token;
    /// `None` when no token was produced).
    pub p50_ttft_ms: Option<f64>,
    /// Tail time-to-first-token, ms (`None` when no token was produced).
    pub p99_ttft_ms: Option<f64>,
    /// Decode iterations executed (all accelerators).
    pub iterations: u64,
    /// Mean decode batch size over iterations.
    pub mean_batch: f64,
    /// Fault-injection and recovery totals (all zeros when disabled).
    pub faults: FaultSummary,
    /// Control-plane decision totals from the audit log (DESIGN.md §10).
    pub control: ControlSummary,
    /// Per-tier details.
    pub tiers: Vec<TierReport>,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrival,
    IterDone { acc: usize },
    Followup { acc: usize, ctx: u64 },
    CacheExpire { acc: usize, ctx: u64 },
    Maintenance { acc: usize },
    WeightRedeploy { acc: usize },
    TraceArrival { prompt: u32, output: u32 },
}

impl Ev {
    /// The profiled handler this event dispatches to.
    fn handler(self) -> Handler {
        match self {
            Ev::Arrival | Ev::TraceArrival { .. } => Handler::Arrival,
            Ev::IterDone { .. } => Handler::IterDone,
            Ev::Followup { .. } => Handler::Followup,
            Ev::CacheExpire { .. } => Handler::CacheExpire,
            Ev::Maintenance { .. } => Handler::Maintenance,
            Ev::WeightRedeploy { .. } => Handler::WeightRedeploy,
        }
    }
}

#[derive(Clone, Debug)]
struct Pending {
    arrival: SimTime,
    prompt_tokens: u32,
    output_tokens: u32,
    /// Cached context this request continues, if any.
    reuse: Option<u64>,
}

/// One request in the decode batch, as admitted or as finished.
#[derive(Clone, Debug)]
struct Active {
    arrival: SimTime,
    /// Admission-order id: the audit identity of this request's KV tail.
    req: u64,
    /// Context tokens: at admission when pushed, at completion when
    /// returned by [`ActiveBatch::iter_done`].
    context_tokens: u32,
    /// Tokens the request decodes, at least 1.
    output_tokens: u32,
    kv_allocs: Vec<mrm_core::pool::Allocation>,
    kv_bytes: u64,
    retention: SimDuration,
}

/// The in-flight decode batch of one accelerator, in struct-of-arrays
/// layout, with the aggregates a decode iteration reads kept up to date.
///
/// An iteration reads Σ context tokens (the KV read size) and appends one
/// KV vector per slot at the slot's retention, so the batch keeps `ctx_sum`
/// and per-retention slot counts instead of handing the tier its columns.
/// A slot stores the iteration it was admitted at and the one it finishes
/// at rather than counters decremented every iteration, so an iteration in
/// which no slot finishes costs O(1) plus the first-token records of the
/// slots admitted just before it (`fresh_start..len`). Only the iteration
/// that reaches `min_finish` walks the batch, with the columnwise
/// `swap_remove` scan the per-request loop always used, so completion and
/// first-token order (and every byte of every report) are unchanged.
#[derive(Clone, Debug, Default)]
struct ActiveBatch {
    /// Decode iterations this accelerator has completed.
    done: u64,
    /// Σ context tokens over the slots, as of `done` iterations.
    ctx_sum: u64,
    /// Slot count per retention, ascending by retention, no zero counts.
    retention_counts: Vec<(SimDuration, u32)>,
    /// The earliest `finish` of any slot (unused while empty).
    min_finish: u64,
    /// The first slot admitted since the last completed iteration.
    fresh_start: usize,
    // Columns; slot `i` means the same request in every one.
    admitted: Vec<u64>,
    finish: Vec<u64>,
    admit_context: Vec<u32>,
    retention: Vec<SimDuration>,
    arrival: Vec<SimTime>,
    req: Vec<u64>,
    kv_bytes: Vec<u64>,
    kv_allocs: Vec<Vec<mrm_core::pool::Allocation>>,
}

impl ActiveBatch {
    fn len(&self) -> usize {
        self.req.len()
    }

    fn is_empty(&self) -> bool {
        self.req.is_empty()
    }

    /// Admits `a` for the next iteration.
    fn push(&mut self, a: Active) {
        debug_assert!(a.output_tokens > 0, "a request decodes at least one token");
        let finish = self.done + u64::from(a.output_tokens);
        self.min_finish = if self.is_empty() {
            finish
        } else {
            self.min_finish.min(finish)
        };
        self.ctx_sum += u64::from(a.context_tokens);
        match self
            .retention_counts
            .binary_search_by_key(&a.retention, |&(r, _)| r)
        {
            Ok(i) => self.retention_counts[i].1 += 1,
            Err(i) => self.retention_counts.insert(i, (a.retention, 1)),
        }
        self.admitted.push(self.done);
        self.finish.push(finish);
        self.admit_context.push(a.context_tokens);
        self.retention.push(a.retention);
        self.arrival.push(a.arrival);
        self.req.push(a.req);
        self.kv_bytes.push(a.kv_bytes);
        self.kv_allocs.push(a.kv_allocs);
    }

    /// Removes finished slot `i` at iteration `done`, returning it with its
    /// context at completion.
    fn swap_remove(&mut self, i: usize) -> Active {
        let admitted = self.admitted.swap_remove(i);
        let output = self.finish.swap_remove(i) - admitted;
        let context = u64::from(self.admit_context.swap_remove(i)) + output;
        self.ctx_sum -= context;
        let retention = self.retention.swap_remove(i);
        let k = self
            .retention_counts
            .binary_search_by_key(&retention, |&(r, _)| r)
            .expect("every slot's retention is counted");
        self.retention_counts[k].1 -= 1;
        if self.retention_counts[k].1 == 0 {
            self.retention_counts.remove(k);
        }
        Active {
            arrival: self.arrival.swap_remove(i),
            req: self.req.swap_remove(i),
            context_tokens: context as u32,
            output_tokens: output as u32,
            kv_allocs: self.kv_allocs.swap_remove(i),
            kv_bytes: self.kv_bytes.swap_remove(i),
            retention,
        }
    }

    /// Completes one decode iteration: every slot gains a token. Calls
    /// `first_token(arrival, req)` for each slot emitting its first token
    /// and appends each slot emitting its last to `finished`, both in the
    /// per-request scan's order. Returns the tokens emitted.
    fn iter_done(
        &mut self,
        finished: &mut Vec<Active>,
        mut first_token: impl FnMut(SimTime, u64),
    ) -> u64 {
        let emitted = self.len();
        self.done += 1;
        self.ctx_sum += emitted as u64;
        if self.done < self.min_finish {
            for i in self.fresh_start..emitted {
                first_token(self.arrival[i], self.req[i]);
            }
        } else {
            let mut i = 0;
            while i < self.len() {
                if self.admitted[i] + 1 == self.done {
                    first_token(self.arrival[i], self.req[i]);
                }
                if self.finish[i] == self.done {
                    finished.push(self.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            self.min_finish = self.finish.iter().copied().min().unwrap_or(u64::MAX);
        }
        self.fresh_start = self.len();
        emitted as u64
    }
}

/// The per-request scan [`ActiveBatch::iter_done`] replaced, kept as the
/// reference its differential test checks completion order against: every
/// iteration bumps each slot's context, decrements its remaining output,
/// records its first token once, and `swap_remove`s it when done.
#[cfg(test)]
#[derive(Debug, Default)]
struct ScanBatch {
    req: Vec<u64>,
    context_tokens: Vec<u32>,
    output_remaining: Vec<u32>,
    first_token_done: Vec<bool>,
    retention: Vec<SimDuration>,
}

#[cfg(test)]
impl ScanBatch {
    fn push(&mut self, req: u64, context: u32, output: u32, retention: SimDuration) {
        self.req.push(req);
        self.context_tokens.push(context);
        self.output_remaining.push(output);
        self.first_token_done.push(false);
        self.retention.push(retention);
    }

    /// One iteration: appends first-token reqs to `first` and finished
    /// `(req, context)` pairs to `finished`; returns the tokens emitted.
    fn iter_done(&mut self, first: &mut Vec<u64>, finished: &mut Vec<(u64, u32)>) -> u64 {
        let mut tokens = 0;
        let mut i = 0;
        while i < self.req.len() {
            self.context_tokens[i] += 1;
            self.output_remaining[i] -= 1;
            tokens += 1;
            if !self.first_token_done[i] {
                self.first_token_done[i] = true;
                first.push(self.req[i]);
            }
            if self.output_remaining[i] == 0 {
                self.output_remaining.swap_remove(i);
                self.first_token_done.swap_remove(i);
                self.retention.swap_remove(i);
                let context = self.context_tokens.swap_remove(i);
                finished.push((self.req.swap_remove(i), context));
            } else {
                i += 1;
            }
        }
        tokens
    }
}

#[derive(Clone, Debug)]
struct Cached {
    kv_allocs: Vec<mrm_core::pool::Allocation>,
    kv_bytes: u64,
    tokens: u32,
    deadline: SimTime,
    retention: SimDuration,
}

struct Accel {
    hbm: Tier,
    alt: Option<Tier>,
    batch: ActiveBatch,
    queue: VecDeque<Pending>,
    cached: BTreeMap<u64, Cached>,
    /// Control-plane reconciler for the parked-prefix class: the data path
    /// observes parks/releases in, the maintenance sweep executes the work
    /// items it plans.
    reconciler: Reconciler,
    running: bool,
    /// When the weight shard was last (re)written — the age input of the
    /// fault model's RBER curve for weights reads.
    weights_written_at: SimTime,
    /// Retention class the weight shard is currently programmed at.
    weights_retention: SimDuration,
}

impl Accel {
    fn kv_tier(&mut self, policy: PlacementPolicy) -> &mut Tier {
        match policy.tier_for(DataClass::KvCache) {
            TierKind::Hbm => &mut self.hbm,
            _ => self
                .alt
                .as_mut()
                .expect("policy requires an alternate tier"),
        }
    }

    fn weights_tier(&mut self, policy: PlacementPolicy) -> &mut Tier {
        match policy.tier_for(DataClass::Weights) {
            TierKind::Hbm => &mut self.hbm,
            _ => self
                .alt
                .as_mut()
                .expect("policy requires an alternate tier"),
        }
    }
}

/// Gauge names for each [`TierKind`], indexed by [`tier_index`].
const TIER_GAUGES: [(&str, &str); 3] = [
    ("tier_hbm_used_bytes", "tier_hbm_occupancy"),
    ("tier_lpddr_used_bytes", "tier_lpddr_occupancy"),
    ("tier_mrm_used_bytes", "tier_mrm_occupancy"),
];

/// Stable slot for a tier kind in [`TIER_GAUGES`]-shaped arrays.
fn tier_index(kind: TierKind) -> usize {
    match kind {
        TierKind::Hbm => 0,
        TierKind::Lpddr => 1,
        TierKind::Mrm => 2,
    }
}

/// The report's decision counters, folded from the audit log. Each is a
/// predicate on a record's `(class, action)`; `drops` and `kv_recomputes`
/// also read its reason. `cursor` is the number of records folded, so a
/// run that snapshots telemetry still reads each record once.
#[derive(Default)]
struct DecisionCounts {
    cursor: usize,
    completions: u64,
    redeploys: u64,
    scrubs: u64,
    scrub_bytes: u64,
    migrations: u64,
    migration_bytes: u64,
    escalations: u64,
    evictions: u64,
    refetches: u64,
    recomputes: u64,
    kv_recomputes: u64,
    drops: u64,
}

impl DecisionCounts {
    /// Folds the records appended since the last call.
    fn advance(&mut self, log: &AuditLog) {
        for r in &log.records()[self.cursor..] {
            match (r.class, r.action, r.reason) {
                (ControlClass::KvTail, AuditAction::Retire, _) => self.completions += 1,
                (ControlClass::Weights, AuditAction::Retire, _) => self.redeploys += 1,
                // The reconciler's reclaims: need lapsed (drop) or ended
                // (retire).
                (_, AuditAction::Drop, "need-lapsed") | (_, AuditAction::Retire, "need-ended") => {
                    self.drops += 1
                }
                (_, AuditAction::Refresh, _) => {
                    self.scrubs += 1;
                    self.scrub_bytes += r.bytes;
                }
                (_, AuditAction::Migrate | AuditAction::Escalate, _) => {
                    self.migrations += 1;
                    self.migration_bytes += r.bytes;
                    self.escalations += u64::from(r.action == AuditAction::Escalate);
                }
                (_, AuditAction::Evict, _) => self.evictions += 1,
                (_, AuditAction::Refetch, _) => self.refetches += 1,
                (_, AuditAction::Recompute, _) => {
                    self.recomputes += 1;
                    self.kv_recomputes += u64::from(r.reason == "uncorrectable-read");
                }
                _ => {}
            }
        }
        self.cursor = log.len();
    }
}

/// The cluster simulator.
///
/// Build it with [`ClusterSim::new`], optionally attach observers
/// ([`ClusterSim::attach_telemetry`], [`ClusterSim::attach_obs`]), then
/// [`ClusterSim::run_with_audit`]. The lifetime parameter is the borrow of
/// those observers; a bare `ClusterSim::new(cfg).run_with_audit()` never
/// sees it.
pub struct ClusterSim<'t> {
    cfg: ClusterConfig,
    accels: Vec<Accel>,
    queue: EventQueue<Ev>,
    rng: SimRng,
    mix: TraceMix,
    estimator: LifetimeEstimator,
    next_ctx: u64,
    next_req: u64,
    rr: usize,
    // The retention control plane: declared policies + the append-only
    // audit log every placement/expiry/recovery decision flows through.
    // Decisions are *routed* through it (registry policy, reconciler work
    // items); the log itself is observe-only bookkeeping.
    control: ControlPlane,
    // The decision counters, folded from `control.audit`.
    decisions: DecisionCounts,
    // Counters of what the audit log does not record.
    arrivals: u64,
    tokens: u64,
    cache_hits: u64,
    latency_ms: LogHistogram,
    ttft_ms: LogHistogram,
    kv_capacity_bytes: u64,
    iterations: u64,
    batch_sum: u64,
    // The §2.2 traffic of a decode iteration.
    engine: DecodeEngine,
    kv_native_retention: SimDuration,
    hbm_retention: SimDuration,
    // Fault layer (None unless `cfg.faults.enabled`). The injector draws
    // only from its own salted stream, never from `rng`, so enabling it at
    // `ber_scale = 0` leaves the report byte-identical to a disabled run.
    fault_layer: Option<FaultModel>,
    mrm_tradeoff: RetentionTradeoff,
    kv_on_mrm: bool,
    weights_on_mrm: bool,
    fault_retries: u64,
    // Observability only: never consulted by the simulation logic and
    // never draws from `rng`, so an attached sink cannot change a report.
    telemetry: Option<&'t mut SimTelemetry>,
    // The mrm-obs span + handler-timing hooks, same contract as the
    // telemetry sink. Every decision's audit record and span go through
    // `obs.decide`; all hook code lives in `observe.rs`.
    obs: Observer<'t>,
}

impl<'t> ClusterSim<'t> {
    /// Builds the simulator, placing weights in their tier up front.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ClusterConfig::validate`] or the
    /// configured memory system cannot hold the model weights.
    pub fn new(cfg: ClusterConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid ClusterConfig: {e}");
        }
        let mut rng = SimRng::seed_from(cfg.seed);
        let mix = TraceMix::splitwise_default(cfg.max_context, cfg.arrivals_per_s);
        let engine = DecodeEngine::new(cfg.model.clone(), cfg.quant);
        let weights_bytes = engine.weights_bytes();
        let mut kv_capacity = 0;

        let weights_native_retention = match cfg.policy.tier_for(DataClass::Weights) {
            TierKind::Hbm => presets::hbm3e().retention,
            TierKind::Lpddr => presets::lpddr5x().retention,
            TierKind::Mrm => presets::mrm_hours().retention,
        };
        let accels: Vec<Accel> = (0..cfg.accelerators)
            .map(|_| {
                let hbm = Tier::new(TierKind::Hbm, presets::hbm3e(), cfg.hbm_stacks);
                let alt = match cfg.policy {
                    PlacementPolicy::HbmLpddr => Some(Tier::new(
                        TierKind::Lpddr,
                        presets::lpddr5x(),
                        cfg.lpddr_packages,
                    )),
                    PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm => Some(Tier::new(
                        TierKind::Mrm,
                        presets::mrm_hours(),
                        cfg.mrm_packages,
                    )),
                    PlacementPolicy::HbmOnly => None,
                };
                let mut acc = Accel {
                    hbm,
                    alt,
                    batch: ActiveBatch::default(),
                    queue: VecDeque::new(),
                    cached: BTreeMap::new(),
                    reconciler: Reconciler::new(ControlClass::KvPrefix),
                    running: false,
                    weights_written_at: SimTime::ZERO,
                    weights_retention: weights_native_retention,
                };
                // Pin the weights.
                let wt = acc.weights_tier(cfg.policy);
                wt.alloc(weights_bytes).unwrap_or_else(|e| {
                    panic!("weights do not fit the {} tier: {e}", wt.kind().label())
                });
                let kvt = acc.kv_tier(cfg.policy);
                kv_capacity = kvt.capacity_bytes() - kvt.used_bytes();
                acc
            })
            .collect();

        // Pre-size the heap: every replayed trace entry is scheduled up
        // front, and the steady state keeps a follow-up/expiry event per
        // cached context plus per-accel maintenance timers in flight.
        let event_hint = cfg.trace.as_ref().map_or(0, |t| t.entries().len())
            + cfg.accelerators as usize * (cfg.max_batch as usize * 4 + 2)
            + 16;
        let mut queue = EventQueue::with_capacity(event_hint);
        // Seed arrivals (Poisson, or a recorded trace) and maintenance.
        match &cfg.trace {
            None if mix.has_arrivals() => {
                let first_gap = mix.next_interarrival(&mut rng);
                queue.schedule(SimTime::ZERO + first_gap, Ev::Arrival);
            }
            // Zero-rate mix: nothing ever arrives, so no arrival event is
            // seeded (the sim still runs maintenance to completion).
            None => {}
            Some(trace) => {
                for (at, e) in trace.replay_from(SimTime::ZERO) {
                    queue.schedule(
                        at,
                        Ev::TraceArrival {
                            prompt: e.prompt_tokens,
                            output: e.output_tokens,
                        },
                    );
                }
            }
        }
        for acc in 0..cfg.accelerators as usize {
            queue.schedule(
                SimTime::ZERO + cfg.maintenance_period,
                Ev::Maintenance { acc },
            );
            if let Some(period) = cfg.weight_redeploy_period {
                queue.schedule(SimTime::ZERO + period, Ev::WeightRedeploy { acc });
            }
        }

        let estimator = LifetimeEstimator {
            followup_window: cfg.hint_window,
            ..LifetimeEstimator::default_serving()
        };
        let kv_on_mrm = matches!(cfg.policy.tier_for(DataClass::KvCache), TierKind::Mrm);
        let weights_on_mrm = matches!(cfg.policy.tier_for(DataClass::Weights), TierKind::Mrm);
        // The e11 sweep axis: `provision_margin` re-provisions the KV
        // class at margin × follow-up window instead of the tier-native
        // class, so margin 1 means retention exactly equal to the data's
        // lifetime — the operating point where retention faults surface.
        let kv_native_retention = match (cfg.faults.provision_margin, kv_on_mrm) {
            (Some(m), true) => cfg.followup_window.mul_f64(m),
            _ => match cfg.policy.tier_for(DataClass::KvCache) {
                TierKind::Hbm => presets::hbm3e().retention,
                TierKind::Lpddr => presets::lpddr5x().retention,
                TierKind::Mrm => presets::mrm_hours().retention,
            },
        };
        let hbm_retention = presets::hbm3e().retention;
        let fault_layer = cfg
            .faults
            .enabled
            .then(|| FaultModel::new(cfg.faults, cfg.seed));

        // Declare the retention policies up front (INV-CPR-CLASSIFIED) and
        // audit the initial weight-shard stores.
        let mut control = ControlPlane::serving_default(cfg.followup_window);
        debug_assert!(control.registry.fully_classified());
        for acc in 0..u64::from(cfg.accelerators) {
            control.record(
                SimTime::ZERO,
                ControlClass::Weights,
                acc,
                AuditAction::Store,
                "deploy",
                weights_bytes,
            );
        }

        ClusterSim {
            cfg,
            accels,
            queue,
            rng,
            mix,
            estimator,
            next_ctx: 0,
            next_req: 0,
            rr: 0,
            control,
            decisions: DecisionCounts::default(),
            arrivals: 0,
            tokens: 0,
            cache_hits: 0,
            latency_ms: LogHistogram::new(16),
            ttft_ms: LogHistogram::new(16),
            kv_capacity_bytes: kv_capacity,
            iterations: 0,
            batch_sum: 0,
            engine,
            kv_native_retention,
            hbm_retention,
            fault_layer,
            mrm_tradeoff: presets::mrm_hours().tradeoff(),
            kv_on_mrm,
            weights_on_mrm,
            fault_retries: 0,
            telemetry: None,
            obs: Observer::default(),
        }
    }

    /// One fault-checked read of data written `age` ago at a
    /// `retention` class: inject at the read's raw BER, and on an
    /// uncorrectable outcome retry once (the first rung of every recovery
    /// ladder). Returns false when the error persisted and the caller must
    /// take its own recovery path. A no-op returning true when the layer
    /// is off; the raw BER is computed only when it is on.
    ///
    /// MRM decays along the Weibull retention curve; the DRAM-family tiers
    /// are pinned at the soft-error floor by their mandatory refresh.
    fn read_survives(
        &mut self,
        len_bytes: u64,
        on_mrm: bool,
        retention: SimDuration,
        age: SimDuration,
    ) -> bool {
        let Some(model) = self.fault_layer.as_mut() else {
            return true;
        };
        let rber = if on_mrm {
            self.mrm_tradeoff.rber_at_age(retention, age, FRESH_RBER)
        } else {
            FRESH_RBER
        };
        if !model.inject_read(len_bytes, rber).uncorrectable() {
            return true;
        }
        self.fault_retries += 1;
        !model.inject_read(len_bytes, rber).uncorrectable()
    }

    /// Attaches a telemetry sink for the lifetime of the run. The sink is
    /// pumped at event-dispatch boundaries, so its snapshots land on exact
    /// multiples of its interval independent of event timing; it is fed
    /// only from the simulation's own counters and never touches the RNG
    /// or the event queue, so the [`ClusterReport`] is bit-identical with
    /// or without a sink attached.
    pub fn attach_telemetry(&mut self, sink: &'t mut SimTelemetry) {
        self.telemetry = Some(sink);
    }

    /// Attaches an [`Obs`] bundle (causal spans and per-handler timings)
    /// for the lifetime of the run.
    /// Same contract as [`ClusterSim::attach_telemetry`]: the bundle is
    /// observe-only (hooks never draw RNG and never touch the event
    /// queue — lint rule D8), so the report is byte-identical with or
    /// without it.
    pub fn attach_obs(&mut self, obs: &'t mut Obs) {
        self.obs = Observer::attach(obs, self.accels.len());
    }

    /// Runs to completion and returns the report together with the full
    /// audit log — the chaos suite's oracle.
    pub fn run_with_audit(mut self) -> (ClusterReport, AuditLog) {
        let end = SimTime::ZERO + self.cfg.duration;
        // Lap-timed profiling: each run of same-handler events costs
        // ONE clock read — the `switch` at the top of `dispatch` closes
        // the previous handler's lap and opens this one's, or, when the
        // handler is the one already open, counts one more call on its
        // lap without reading the clock. Queue bookkeeping (peek,
        // telemetry pump, pop) folds into the preceding handler's lap;
        // the trailing `exit` closes the final lap.
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            self.pump_telemetry(t.min(end));
            let popped = self.queue.pop();
            let Some((now, ev)) = popped else {
                break; // unreachable: peek_time just returned Some
            };
            self.dispatch(now, ev);
        }
        self.obs.exit();
        self.finish(end)
    }

    /// Executes one popped event. The leading `switch` closes the
    /// previous handler's lap and opens this one's on a single clock
    /// read, or extends the open lap when the handler is unchanged (on
    /// the first event it acts as a plain `enter`: there is no open
    /// frame to close yet).
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.obs.switch(ev.handler());
        match ev {
            Ev::Arrival => self.on_arrival(now),
            Ev::IterDone { acc } => self.on_iter_done(now, acc),
            Ev::Followup { acc, ctx } => self.on_followup(now, acc, ctx),
            Ev::CacheExpire { acc, ctx } => self.on_cache_expire(now, acc, ctx),
            Ev::Maintenance { acc } => self.on_maintenance(now, acc),
            Ev::WeightRedeploy { acc } => self.on_weight_redeploy(now, acc),
            Ev::TraceArrival { prompt, output } => self.enqueue_request(now, prompt, output),
        }
    }

    /// Stamps every telemetry snapshot boundary due at or before `now`.
    /// Boundaries land on exact interval multiples (the sink reports the
    /// due time), so the exported series does not depend on event timing.
    fn pump_telemetry(&mut self, now: SimTime) {
        let Some(sink) = self.telemetry.take() else {
            return;
        };
        while let Some(at) = sink.snapshot_due(now) {
            self.decisions.advance(&self.control.audit);
            self.sample_into(sink);
            sink.snapshot(at);
        }
        self.telemetry = Some(sink);
    }

    /// Publishes the simulation's current counters and occupancy into a
    /// sink, with `decisions` folded up to now. Observe-only: nothing in
    /// the simulation changes.
    fn sample_into(&self, sink: &mut SimTelemetry) {
        let d = &self.decisions;
        sink.count_to("cluster_arrivals", self.arrivals);
        sink.count_to("cluster_completions", d.completions);
        sink.count_to("cluster_tokens", self.tokens);
        sink.count_to("cluster_cache_hits", self.cache_hits);
        sink.count_to("cluster_recomputes", d.recomputes);
        sink.count_to("cluster_scrubs", d.scrubs);
        sink.count_to("cluster_migrations", d.migrations);
        sink.count_to("cluster_drops", d.drops);
        sink.count_to("cluster_evictions", d.evictions);
        sink.count_to("cluster_redeploys", d.redeploys);
        sink.count_to("cluster_iterations", self.iterations);
        sink.count_to("cluster_scrub_bytes", d.scrub_bytes);
        sink.count_to("cluster_migration_bytes", d.migration_bytes);

        if let Some(model) = &self.fault_layer {
            let s = model.stats();
            sink.count_to("cluster_fault_reads", s.reads);
            sink.count_to("cluster_fault_raw_flips", s.raw_flips);
            sink.count_to("cluster_fault_corrected", s.corrected);
            sink.count_to("cluster_fault_detected_ue", s.detected_ue);
            sink.count_to("cluster_fault_miscorrected", s.miscorrected);
            sink.count_to("cluster_fault_silent", s.silent);
            sink.count_to("cluster_fault_retries", self.fault_retries);
            sink.count_to("cluster_fault_refetches", d.refetches);
            sink.count_to("cluster_fault_recomputes", d.kv_recomputes);
            sink.count_to("cluster_fault_scrub_escalations", d.escalations);
            sink.gauge("cluster_fault_raw_ber", s.raw_ber());
        }

        // Each `len` is O(1), so occupancy is summed, not kept.
        let total = |len: fn(&Accel) -> usize| self.accels.iter().map(len).sum::<usize>() as f64;
        sink.gauge("cluster_pending_requests", total(|a| a.queue.len()));
        sink.gauge("cluster_active_batch", total(|a| a.batch.len()));
        sink.gauge("cluster_cached_contexts", total(|a| a.cached.len()));

        // Per-tier occupancy, aggregated across accelerators.
        let mut used = [0u64; 3];
        let mut cap = [0u64; 3];
        {
            let mut add = |t: &Tier| {
                let i = tier_index(t.kind());
                used[i] += t.used_bytes();
                cap[i] += t.capacity_bytes();
            };
            for a in &self.accels {
                add(&a.hbm);
                if let Some(alt) = &a.alt {
                    add(alt);
                }
            }
        }
        for (i, (used_name, occ_name)) in TIER_GAUGES.iter().enumerate() {
            if cap[i] > 0 {
                sink.gauge(used_name, used[i] as f64);
                sink.gauge(occ_name, used[i] as f64 / cap[i] as f64);
            }
        }

        if let (Some(p50), Some(p99)) = (
            self.latency_ms.try_percentile(50.0),
            self.latency_ms.try_percentile(99.0),
        ) {
            sink.gauge("latency_p50_ms", p50);
            sink.gauge("latency_p99_ms", p99);
        }
        if let (Some(p50), Some(p99)) = (
            self.ttft_ms.try_percentile(50.0),
            self.ttft_ms.try_percentile(99.0),
        ) {
            sink.gauge("ttft_p50_ms", p50);
            sink.gauge("ttft_p99_ms", p99);
        }

        self.control.emit_telemetry(sink);
    }

    fn on_arrival(&mut self, now: SimTime) {
        let (_kind, prompt, output) = self.mix.sample_request(&mut self.rng);
        let gap = self.mix.next_interarrival(&mut self.rng);
        self.queue.schedule(now + gap, Ev::Arrival);
        self.enqueue_request(now, prompt, output);
    }

    /// Admits one request (from the arrival process or a replayed trace)
    /// to the next accelerator round-robin.
    fn enqueue_request(&mut self, now: SimTime, prompt: u32, output: u32) {
        self.arrivals += 1;
        let acc = self.rr % self.accels.len();
        self.rr += 1;
        self.accels[acc].queue.push_back(Pending {
            arrival: now,
            prompt_tokens: prompt,
            // Every admitted request decodes at least one token: a recorded
            // trace may carry output_tokens == 0 (e.g. a truncated entry),
            // and a batch slot finishes after its last token, never before
            // its first.
            output_tokens: output.max(1),
            reuse: None,
        });
        self.start_iteration(now, acc);
    }

    /// Admits queued requests into the batch and schedules one decode
    /// iteration sized by its memory traffic.
    fn start_iteration(&mut self, now: SimTime, acc: usize) {
        if self.accels[acc].running {
            return;
        }
        let policy = self.cfg.policy;
        let kvpt = self.engine.kv_bytes_per_token();
        let native = self.kv_native_retention;
        let kv_on_mrm = self.kv_on_mrm;
        let dcm = policy.uses_dcm();

        let mut prefill_write_bytes = 0u64;
        let mut prefill_tokens = 0u64;
        // Admission. The queue head is inspected in place — `Pending` is
        // all plain scalars, so its fields are read through the reference
        // and the entry leaves the queue (one `pop_front`, no clone) only
        // once its KV allocation has succeeded.
        //
        // The admission frame opens only when admission can actually do
        // work (a queued request and batch headroom): most calls arrive
        // from `iter_done` with an empty queue, and a frame costs two
        // clock reads. The gate reads sim state but never mutates it.
        let admittable = {
            let a = &self.accels[acc];
            a.batch.len() < self.cfg.max_batch as usize && !a.queue.is_empty()
        };
        if admittable {
            self.obs.enter(Handler::Admission);
        }
        loop {
            let a = &mut self.accels[acc];
            if a.batch.len() >= self.cfg.max_batch as usize {
                break;
            }
            let Some(p) = a.queue.front() else {
                break;
            };
            let (arrival, prompt_tokens, output_tokens, reuse) =
                (p.arrival, p.prompt_tokens, p.output_tokens, p.reuse);
            // Chunked prefill: bound the prompt tokens one iteration
            // absorbs (the first admission may exceed the budget so big
            // prompts are never starved).
            if prefill_tokens > 0
                && prefill_tokens + u64::from(prompt_tokens)
                    > u64::from(self.cfg.prefill_chunk_tokens)
            {
                break;
            }
            // Reused (follow-up) context: existing KV is already resident.
            // Consuming it retires the parked prefix — the state is
            // promoted into the live tail, a planned end of need.
            let (base_tokens, base_allocs, base_bytes) = match reuse {
                Some(ctx) => match a.cached.remove(&ctx) {
                    Some(c) => {
                        a.reconciler.observe_release(ctx);
                        self.obs.decide(
                            &mut self.control,
                            now,
                            acc,
                            ControlClass::KvPrefix,
                            ctx,
                            AuditAction::Retire,
                            "followup-consumed",
                            c.kv_bytes,
                            None,
                        );
                        (c.tokens, c.kv_allocs, c.kv_bytes)
                    }
                    None => (0, Vec::new(), 0),
                },
                None => (0, Vec::new(), 0),
            };
            let new_tokens = u64::from(prompt_tokens) + u64::from(output_tokens);
            let need = new_tokens * kvpt;
            let lifetime = self.estimator.kv_lifetime(output_tokens);
            // The per-write retention target is declared policy, not
            // inline tier logic (mrm-control owns the decision).
            let retention =
                retention_decision(kv_on_mrm, dcm, lifetime, native, self.cfg.lifetime_margin);
            // Allocate, evicting cached (completed, best-effort) contexts
            // under memory pressure: live requests outrank the follow-up
            // cache — §4's scheduler deciding "based on the state of the
            // requests that depend on that data".
            let alloc = loop {
                match a.kv_tier(policy).alloc(need) {
                    Ok(al) => break Some(al),
                    // Allocation failed — occupancy 1.0 by definition, so
                    // ask declared policy whether the prefix cache may be
                    // reclaimed under pressure (EPHEMERAL-POLICY).
                    Err(_) if self.control.may_evict(ControlClass::KvPrefix, 1.0) => {
                        // Oldest cached context first (ids are monotonic).
                        let victim = a.cached.keys().find(|&&c| Some(c) != reuse).copied();
                        match victim {
                            Some(v) => {
                                if let Some(c) = a.cached.remove(&v) {
                                    a.reconciler.observe_release(v);
                                    self.obs.decide(
                                        &mut self.control,
                                        now,
                                        acc,
                                        ControlClass::KvPrefix,
                                        v,
                                        AuditAction::Evict,
                                        "memory-pressure",
                                        c.kv_bytes,
                                        None,
                                    );
                                    let kvt = a.kv_tier(policy);
                                    for al in c.kv_allocs {
                                        let _ = kvt.free(al);
                                    }
                                }
                            }
                            None => break None,
                        }
                    }
                    Err(_) => break None,
                }
            };
            let Some(alloc) = alloc else {
                // Genuinely out of memory even with an empty cache: put
                // reused state back and stall admission.
                if let Some(ctx) = reuse {
                    if base_bytes > 0 {
                        a.cached.insert(
                            ctx,
                            Cached {
                                kv_allocs: base_allocs,
                                kv_bytes: base_bytes,
                                tokens: base_tokens,
                                deadline: SimTime::MAX,
                                retention,
                            },
                        );
                        self.obs.decide(
                            &mut self.control,
                            now,
                            acc,
                            ControlClass::KvPrefix,
                            ctx,
                            AuditAction::Store,
                            "stall-putback",
                            base_bytes,
                            None,
                        );
                    }
                }
                break;
            };
            a.queue.pop_front();
            // Admit: the request's KV tail is Required state from here to
            // completion; give it an audit identity.
            let req = self.next_req;
            self.next_req += 1;
            self.obs.decide(
                &mut self.control,
                now,
                acc,
                ControlClass::KvTail,
                req,
                AuditAction::Store,
                if reuse.is_some() {
                    "followup-admit"
                } else {
                    "admit"
                },
                need,
                None,
            );
            // Prefill traffic: the new prompt's KV vectors are written.
            prefill_write_bytes += u64::from(prompt_tokens) * kvpt;
            prefill_tokens += u64::from(prompt_tokens);
            let mut kv_allocs = base_allocs;
            kv_allocs.push(alloc);
            a.batch.push(Active {
                arrival,
                req,
                context_tokens: base_tokens + prompt_tokens,
                output_tokens,
                kv_allocs,
                kv_bytes: base_bytes + need,
                retention,
            });
        }
        if admittable {
            self.obs.exit();
        }

        let a = &mut self.accels[acc];
        if a.batch.is_empty() {
            a.running = false;
            return;
        }

        // Iteration duration from memory traffic (§2.2 arithmetic).
        let cost = self
            .engine
            .batch_cost_sum(a.batch.len() as u32, a.batch.ctx_sum);
        let weights_bytes = cost.weights_read;

        let mut t = SimDuration::ZERO;
        // Weights: one full sequential read per iteration.
        t += self.accels[acc]
            .weights_tier(policy)
            .stream_read(weights_bytes);
        // Fault check on the weights read. A persistent uncorrectable
        // outcome means the shard must be re-fetched — modelled as a bulk
        // rewrite at its current class, charged to this iteration (§4's
        // "re-fetch from a colder tier" response; weights are immutable,
        // so recovery is a reload, never data loss).
        if self.fault_layer.is_some() {
            let age = now.duration_since(self.accels[acc].weights_written_at);
            let w_ret = self.accels[acc].weights_retention;
            if !self.read_survives(weights_bytes, self.weights_on_mrm, w_ret, age) {
                // The ladder's work item: weights are Required, so the
                // only legal response is a refetch — recorded in the
                // audit log before anything else happens to the shard.
                let fault = self.obs.fault(now, acc, acc as u64, weights_bytes);
                let item = self
                    .control
                    .plan_fault_recovery(ControlClass::Weights, acc as u64);
                debug_assert_eq!(item.kind, WorkKind::Refetch);
                self.obs.decide(
                    &mut self.control,
                    now,
                    acc,
                    item.class,
                    item.id,
                    AuditAction::Refetch,
                    item.reason,
                    weights_bytes,
                    fault,
                );
                t += self.accels[acc]
                    .weights_tier(policy)
                    .stream_write(weights_bytes, w_ret);
                self.accels[acc].weights_written_at = now;
            }
        }
        // KV: all active contexts read; one vector appended per context,
        // in one tier call over the batch's per-retention counts; prefill
        // KV written. The tier and the batch are disjoint fields, so the
        // counts are lent in place.
        {
            let Accel {
                hbm, alt, batch, ..
            } = &mut self.accels[acc];
            let kvt = match policy.tier_for(DataClass::KvCache) {
                TierKind::Hbm => &mut *hbm,
                _ => alt.as_mut().expect("policy requires an alternate tier"),
            };
            t += kvt.stream_read(cost.kv_read);
            t += kvt.append(kvpt, &batch.retention_counts);
            if prefill_write_bytes > 0 {
                // Prefill writes use the first slot's retention class.
                let rt = batch.retention.first().copied().unwrap_or(native);
                t += kvt.stream_write(prefill_write_bytes, rt);
            }
        }
        // Activations: write + read back in HBM.
        let hbm = &mut self.accels[acc].hbm;
        t += hbm.stream_write(cost.activation_rw, self.hbm_retention);
        t += hbm.stream_read(cost.activation_rw);
        // Prefill compute piggybacks on the decode iteration (chunked
        // prefill, [3]): the iteration takes the max of its memory time
        // and its compute time, not their sum.
        let prefill_compute =
            SimDuration::from_secs_f64(prefill_tokens as f64 / self.cfg.prefill_tokens_per_s);
        t = t.max(self.cfg.compute_floor).max(prefill_compute);

        self.iterations += 1;
        self.batch_sum += u64::from(cost.batch);
        self.obs.iter_begin(now, acc, u64::from(cost.batch));
        self.obs.sim_cost(Handler::DecodeIter, t);
        self.accels[acc].running = true;
        self.queue.schedule(now + t, Ev::IterDone { acc });
    }

    fn on_iter_done(&mut self, now: SimTime, acc: usize) {
        let policy = self.cfg.policy;
        self.obs.iter_end(now, acc);
        self.accels[acc].running = false;
        let mut finished: Vec<Active> = Vec::new();
        let (ttft, telemetry, obs) = (&mut self.ttft_ms, &mut self.telemetry, &mut self.obs);
        self.tokens += self.accels[acc]
            .batch
            .iter_done(&mut finished, |arrival, req| {
                let ttft_ms = now.duration_since(arrival).as_secs_f64() * 1e3;
                ttft.record(ttft_ms);
                if let Some(sink) = telemetry.as_deref_mut() {
                    sink.observe("ttft_ms", ttft_ms);
                }
                obs.first_token(now, acc, req);
            });
        for r in finished {
            let latency = now.duration_since(r.arrival);
            let latency_ms = latency.as_secs_f64() * 1e3;
            self.latency_ms.record(latency_ms);
            if let Some(sink) = self.telemetry.as_deref_mut() {
                sink.observe("latency_ms", latency_ms);
            }
            // The request's KV tail is retired (its need ended with the
            // final token) and the context is parked as a KV prefix for
            // follow-ups — a class transition, recorded as such.
            self.obs.decide(
                &mut self.control,
                now,
                acc,
                ControlClass::KvTail,
                r.req,
                AuditAction::Retire,
                "completed",
                r.kv_bytes,
                None,
            );
            let ctx = self.next_ctx;
            self.next_ctx += 1;
            self.obs.decide(
                &mut self.control,
                now,
                acc,
                ControlClass::KvPrefix,
                ctx,
                AuditAction::Store,
                "park-followup",
                r.kv_bytes,
                None,
            );
            let deadline = if policy.uses_mrm() {
                rearm_deadline(now, r.retention)
            } else {
                SimTime::MAX // DRAM tiers refresh themselves
            };
            let needed_until = now + self.cfg.followup_window;
            let a = &mut self.accels[acc];
            a.cached.insert(
                ctx,
                Cached {
                    kv_allocs: r.kv_allocs,
                    kv_bytes: r.kv_bytes,
                    tokens: r.context_tokens,
                    deadline,
                    retention: r.retention,
                },
            );
            if policy.uses_mrm() {
                a.reconciler
                    .observe_store(ctx, deadline, needed_until, r.retention);
            }
            self.queue
                .schedule(now + self.cfg.followup_window, Ev::CacheExpire { acc, ctx });
            if self.rng.gen_bool(self.cfg.followup_prob) {
                let delay = self
                    .cfg
                    .followup_window
                    .mul_f64(self.rng.next_f64().max(0.01));
                self.queue.schedule(now + delay, Ev::Followup { acc, ctx });
            }
        }
        self.start_iteration(now, acc);
    }

    fn on_followup(&mut self, now: SimTime, acc: usize, ctx: u64) {
        let (_kind, _prompt, output) = self.mix.sample_request(&mut self.rng);
        let ext = self.cfg.followup_extension;
        // Fault check on the cached-KV read before the hit/miss decision:
        // a hit whose read stays uncorrectable after the retry is demoted
        // to the recompute path — KV state is soft, so the recovery for
        // lost cache lines is "drop and recompute", never an error.
        let mut hit_survived = true;
        let mut fault_span: Option<SpanId> = None;
        if self.fault_layer.is_some() {
            let probe = match self.accels[acc].cached.get(&ctx) {
                Some(c) if now <= c.deadline => {
                    // Deadline = write time + retention, so the data's age
                    // is the retention already consumed. Self-refreshing
                    // tiers park at `SimTime::MAX`: no meaningful age.
                    let age = if c.deadline == SimTime::MAX {
                        SimDuration::ZERO
                    } else {
                        consumed_age(c.retention, c.deadline.duration_since(now))
                    };
                    (c.kv_bytes, c.retention, age)
                }
                _ => (0, SimDuration::ZERO, SimDuration::ZERO),
            };
            if probe.0 > 0 {
                hit_survived = self.read_survives(probe.0, self.kv_on_mrm, probe.1, probe.2);
                if !hit_survived {
                    fault_span = self.obs.fault(now, acc, ctx, probe.0);
                }
            }
        }
        let (prompt_tokens, output_tokens, reuse) = match self.accels[acc].cached.get(&ctx) {
            Some(c) if now <= c.deadline && hit_survived => {
                // Valid cached KV: continue the context without prefill of
                // the history.
                self.cache_hits += 1;
                (ext, output, Some(ctx))
            }
            Some(c) => {
                // Retention lapsed before the follow-up — or the cached
                // KV read came back uncorrectable: recompute the whole
                // context (the §4 soft-state recovery path). The recompute
                // is recorded before the drop, which is what makes the
                // reclaim legal under the REQUIRED-DURABLE oracle.
                let (tokens, bytes) = (c.tokens, c.kv_bytes);
                let reason = if hit_survived {
                    "retention-lapsed"
                } else {
                    "uncorrectable-read"
                };
                // The recovery decision authorizes the drop recorded right
                // after it: the drop's span links back to the recovery's.
                let rec = self.obs.decide(
                    &mut self.control,
                    now,
                    acc,
                    ControlClass::KvPrefix,
                    ctx,
                    AuditAction::Recompute,
                    reason,
                    bytes,
                    fault_span,
                );
                self.obs.decide(
                    &mut self.control,
                    now,
                    acc,
                    ControlClass::KvPrefix,
                    ctx,
                    AuditAction::Drop,
                    reason,
                    bytes,
                    rec,
                );
                self.free_cached(acc, ctx);
                (tokens + ext, output, None)
            }
            None => {
                // Already evicted (window raced the follow-up): recompute
                // with a fresh sampled prompt. Nothing is cached, so there
                // is no drop to account — just the recompute itself.
                self.obs.decide(
                    &mut self.control,
                    now,
                    acc,
                    ControlClass::KvPrefix,
                    ctx,
                    AuditAction::Recompute,
                    "already-evicted",
                    0,
                    None,
                );
                let (_k, p, o) = self.mix.sample_request(&mut self.rng);
                (p, o, None)
            }
        };
        self.accels[acc].queue.push_back(Pending {
            arrival: now,
            prompt_tokens,
            output_tokens,
            reuse,
        });
        self.start_iteration(now, acc);
    }

    /// Releases a cached context's memory and tells the reconciler the
    /// object is gone. Pure mechanism: the *decision* (and its audit
    /// record) belongs to the caller.
    fn free_cached(&mut self, acc: usize, ctx: u64) {
        let policy = self.cfg.policy;
        let a = &mut self.accels[acc];
        if let Some(c) = a.cached.remove(&ctx) {
            a.reconciler.observe_release(ctx);
            let kvt = a.kv_tier(policy);
            for al in c.kv_allocs {
                let _ = kvt.free(al);
            }
        }
    }

    fn on_cache_expire(&mut self, now: SimTime, acc: usize, ctx: u64) {
        if let Some(bytes) = self.accels[acc].cached.get(&ctx).map(|c| c.kv_bytes) {
            self.obs.decide(
                &mut self.control,
                now,
                acc,
                ControlClass::KvPrefix,
                ctx,
                AuditAction::Drop,
                "ttl-expired",
                bytes,
                None,
            );
            self.free_cached(acc, ctx);
        }
        self.start_iteration(now, acc);
    }

    /// The §4 maintenance sweep, split reconciler-style: the
    /// [`Reconciler`] plans typed work items from deadlines + declared
    /// policy, and this executor carries them out in order — charging
    /// scrubs, rewriting at escalation classes, reclaiming lapsed state —
    /// with every outcome recorded in the audit log.
    ///
    /// Planning the whole sweep before executing is byte-identical to the
    /// old interleaved decide/execute loop: the plan step reads only
    /// per-object tracker state and draws no randomness, so the fault
    /// model sees the same reads in the same order.
    fn on_maintenance(&mut self, now: SimTime, acc: usize) {
        let policy = self.cfg.policy;
        if policy.uses_mrm() && self.cfg.scrub_enabled {
            let sweep = self.obs.sweep_begin(now, acc);
            let horizon = now + self.cfg.maintenance_period * 2;
            self.obs.enter(Handler::ReconcilePlan);
            let items = self.accels[acc]
                .reconciler
                .plan(now, horizon, &self.control.registry);
            self.obs.exit();
            for item in items {
                let ctx = item.id;
                match item.kind {
                    WorkKind::Refresh => {
                        let (bytes, retention, deadline) = {
                            let c = &self.accels[acc].cached[&ctx];
                            (c.kv_bytes, c.retention, c.deadline)
                        };
                        // Scrub verification read: refreshing re-reads the
                        // data at its current age. An uncorrectable outcome
                        // means re-arming the same class would keep the
                        // data at the edge of correctability — escalate to
                        // the policy's long class instead (the §4 control
                        // plane degrading its advertised retention).
                        let remaining = if deadline > now {
                            deadline.duration_since(now)
                        } else {
                            SimDuration::ZERO
                        };
                        let age = consumed_age(retention, remaining);
                        if self.read_survives(bytes, self.kv_on_mrm, retention, age) {
                            let a = &mut self.accels[acc];
                            a.kv_tier(policy).charge_scrub(bytes);
                            a.reconciler.observe_refreshed(ctx, now);
                            if let Some(c) = a.cached.get_mut(&ctx) {
                                c.deadline = rearm_deadline(now, retention);
                            }
                            self.obs.decide(
                                &mut self.control,
                                now,
                                acc,
                                item.class,
                                ctx,
                                AuditAction::Refresh,
                                item.reason,
                                bytes,
                                None,
                            );
                        } else {
                            let fault = self.obs.fault(now, acc, ctx, bytes);
                            let long = self
                                .control
                                .registry
                                .policy(ControlClass::KvPrefix)
                                .ok()
                                .and_then(|p| p.escalation_class)
                                .unwrap_or(SimDuration::from_days(7));
                            let a = &mut self.accels[acc];
                            let _ = a.kv_tier(policy).stream_write(bytes, long);
                            let new_deadline = rearm_deadline(now, long);
                            a.reconciler
                                .observe_store(ctx, new_deadline, new_deadline, long);
                            if let Some(c) = a.cached.get_mut(&ctx) {
                                c.deadline = new_deadline;
                                c.retention = long;
                            }
                            self.obs.decide(
                                &mut self.control,
                                now,
                                acc,
                                ControlClass::KvPrefix,
                                ctx,
                                AuditAction::Escalate,
                                "scrub-verify-failed",
                                bytes,
                                fault,
                            );
                        }
                    }
                    WorkKind::Migrate { to } => {
                        // Rewrite at the escalation class: one-time cost,
                        // long deadline.
                        let bytes = self.accels[acc].cached[&ctx].kv_bytes;
                        let a = &mut self.accels[acc];
                        let kvt = a.kv_tier(policy);
                        let _ = kvt.stream_write(bytes, to);
                        let deadline = rearm_deadline(now, to);
                        a.reconciler.observe_store(ctx, deadline, deadline, to);
                        if let Some(c) = a.cached.get_mut(&ctx) {
                            c.deadline = deadline;
                            c.retention = to;
                        }
                        self.obs.decide(
                            &mut self.control,
                            now,
                            acc,
                            item.class,
                            ctx,
                            AuditAction::Migrate,
                            item.reason,
                            bytes,
                            None,
                        );
                    }
                    WorkKind::RecomputeDrop | WorkKind::Retire => {
                        // Need lapsed. No recompute happens *now* — the
                        // data is simply reclaimed, and a later follow-up
                        // that misses takes the recompute path — so the
                        // record is the drop (or retire) alone.
                        let bytes = self.accels[acc]
                            .cached
                            .get(&ctx)
                            .map(|c| c.kv_bytes)
                            .unwrap_or(0);
                        let action = if item.kind == WorkKind::Retire {
                            AuditAction::Retire
                        } else {
                            AuditAction::Drop
                        };
                        self.obs.decide(
                            &mut self.control,
                            now,
                            acc,
                            ControlClass::KvPrefix,
                            ctx,
                            action,
                            item.reason,
                            bytes,
                            None,
                        );
                        self.free_cached(acc, ctx);
                    }
                    WorkKind::Refetch => unreachable!("plan never emits refetch"),
                }
            }
            self.obs.sweep_end(now, sweep);
        }
        self.queue
            .schedule(now + self.cfg.maintenance_period, Ev::Maintenance { acc });
    }

    /// §2's model swap: bulk-overwrite the weight shard in its tier. With
    /// DCM the new weights are programmed for the deployment period (they
    /// will be overwritten anyway); fixed systems pay the native class.
    fn on_weight_redeploy(&mut self, now: SimTime, acc: usize) {
        let policy = self.cfg.policy;
        let weights_bytes = self.engine.weights_bytes();
        let period = self
            .cfg
            .weight_redeploy_period
            .expect("redeploy event without period");
        let retention = retention_decision(
            policy.tier_for(DataClass::Weights) == TierKind::Mrm,
            policy.uses_dcm(),
            period,
            // The MRM preset's native retention, hoisted with its curve.
            self.mrm_tradeoff.ref_retention,
            self.cfg.lifetime_margin,
        );
        // The old shard's need ends (Retire — always legal for Required
        // data) and the new model's shard is stored in its place.
        for (action, reason) in [
            (AuditAction::Retire, "superseded"),
            (AuditAction::Store, "redeploy"),
        ] {
            self.obs.decide(
                &mut self.control,
                now,
                acc,
                ControlClass::Weights,
                acc as u64,
                action,
                reason,
                weights_bytes,
                None,
            );
        }
        let wt = self.accels[acc].weights_tier(policy);
        let _ = wt.stream_write(weights_bytes, retention);
        self.accels[acc].weights_written_at = now;
        self.accels[acc].weights_retention = retention;
        self.queue
            .schedule(now + period, Ev::WeightRedeploy { acc });
    }

    fn finish(mut self, end: SimTime) -> (ClusterReport, AuditLog) {
        // Close out any snapshot boundaries between the last event and the
        // end of the simulated window.
        self.pump_telemetry(end);
        self.decisions.advance(&self.control.audit);
        self.obs.finish(end);
        let elapsed = end.duration_since(SimTime::ZERO);
        // Background energy for the whole window on every tier.
        for a in &mut self.accels {
            a.hbm.charge_background(elapsed);
            if let Some(alt) = &mut a.alt {
                alt.charge_background(elapsed);
            }
        }

        let mut tiers: Vec<TierReport> = Vec::new();
        let mut total = EnergyBreakdown::default();
        let mut cost = 0.0;
        let add_tier = |t: &Tier, tiers: &mut Vec<TierReport>, total: &mut EnergyBreakdown| {
            let e = t.energy();
            let (r, w) = t.traffic();
            match tiers.iter_mut().find(|tr| tr.tier == t.kind().label()) {
                Some(tr) => {
                    tr.bytes_read += r;
                    tr.bytes_written += w;
                    tr.energy = tr.energy.merged(&e);
                }
                None => tiers.push(TierReport {
                    tier: t.kind().label().to_string(),
                    capacity_bytes: t.capacity_bytes(),
                    bytes_read: r,
                    bytes_written: w,
                    energy: e,
                }),
            }
            *total = total.merged(&e);
        };
        for a in &self.accels {
            add_tier(&a.hbm, &mut tiers, &mut total);
            cost += a.hbm.cost_units();
            if let Some(alt) = &a.alt {
                add_tier(alt, &mut tiers, &mut total);
                cost += alt.cost_units();
            }
        }

        let faults = match &self.fault_layer {
            Some(model) => {
                let s = model.stats();
                FaultSummary {
                    enabled: true,
                    reads: s.reads,
                    raw_flips: s.raw_flips,
                    raw_ber: s.raw_ber(),
                    corrected: s.corrected,
                    detected_ue: s.detected_ue,
                    miscorrected: s.miscorrected,
                    silent: s.silent,
                    retries: self.fault_retries,
                    weight_refetches: self.decisions.refetches,
                    kv_recomputes: self.decisions.kv_recomputes,
                    scrub_escalations: self.decisions.escalations,
                }
            }
            None => FaultSummary::default(),
        };

        let dur_s = elapsed.as_secs_f64();
        let tokens_per_s = self.tokens as f64 / dur_s;
        let report = ClusterReport {
            policy: self.cfg.policy.label().to_string(),
            accelerators: self.cfg.accelerators,
            duration_s: dur_s,
            arrivals: self.arrivals,
            completions: self.decisions.completions,
            tokens: self.tokens,
            tokens_per_s,
            cache_hits: self.cache_hits,
            recomputes: self.decisions.recomputes,
            scrubs: self.decisions.scrubs,
            migrations: self.decisions.migrations,
            drops: self.decisions.drops,
            evictions: self.decisions.evictions,
            redeploys: self.decisions.redeploys,
            energy_total_j: total.total_j(),
            j_per_token: total.total_j() / self.tokens.max(1) as f64,
            housekeeping_j: total.housekeeping_j,
            cost_units: cost,
            tokens_per_s_per_kcost: tokens_per_s / (cost / 1000.0),
            kv_capacity_bytes: self.kv_capacity_bytes,
            p50_latency_ms: self.latency_ms.try_percentile(50.0),
            p99_latency_ms: self.latency_ms.try_percentile(99.0),
            p50_ttft_ms: self.ttft_ms.try_percentile(50.0),
            p99_ttft_ms: self.ttft_ms.try_percentile(99.0),
            iterations: self.iterations,
            mean_batch: self.batch_sum as f64 / self.iterations.max(1) as f64,
            control: self.control.summary(),
            faults,
            tiers,
        };
        (report, self.control.audit)
    }
}

/// Fully-observed run: [`ClusterSim::new`], both `attach_*` calls, then
/// [`ClusterSim::run_with_audit`]. The obs bundle obeys the
/// same contract as the sink — observe-only, byte-identical report (see
/// [`ClusterSim::attach_obs`] and lint rule D8).
pub fn run_cluster_observed(
    cfg: ClusterConfig,
    sink: &mut SimTelemetry,
    obs: &mut Obs,
) -> (ClusterReport, AuditLog) {
    let mut sim = ClusterSim::new(cfg);
    sim.attach_telemetry(sink);
    sim.attach_obs(obs);
    sim.run_with_audit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_obs::SpanKind;
    use mrm_telemetry::SimTelemetry;

    fn run(cfg: ClusterConfig) -> ClusterReport {
        ClusterSim::new(cfg).run_with_audit().0
    }

    fn quick(policy: PlacementPolicy) -> ClusterReport {
        let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
        cfg.duration = SimDuration::from_secs(30);
        run(cfg)
    }

    /// Replays seeded random admission/iteration traces through the
    /// walk-free batch and the per-request scan, and checks they agree on
    /// every observable after every iteration.
    #[test]
    fn walk_free_batch_matches_per_request_scan() {
        let ladder = [
            SimDuration::from_mins(10),
            SimDuration::from_hours(1),
            SimDuration::from_hours(6),
            SimDuration::from_days(1),
            SimDuration::from_days(7),
        ];
        let (mut quiet, mut finishing, mut one_token) = (0u64, 0u64, 0u64);
        for seed in 0..200u64 {
            let mut rng = SimRng::seed_from(seed);
            let max_batch = 1 + rng.gen_range_u64(64) as usize;
            let mut fast = ActiveBatch::default();
            let mut scan = ScanBatch::default();
            let mut next_req = 0u64;
            let mut arrival_of = BTreeMap::new();
            for _ in 0..300 {
                // Admission: a burst up to the batch bound, or nothing.
                let room = (max_batch - fast.len()) as u64;
                let admit = if rng.gen_bool(0.4) {
                    rng.gen_range_u64(room + 1)
                } else {
                    0
                };
                for _ in 0..admit {
                    let output = match rng.gen_range_u64(4) {
                        0 => 1,
                        1 => 1 + rng.gen_range_u64(4) as u32,
                        _ => 1 + rng.gen_range_u64(200) as u32,
                    };
                    one_token += u64::from(output == 1);
                    let context = 1 + rng.gen_range_u64(4000) as u32;
                    let retention = ladder[rng.gen_index(ladder.len())];
                    let arrival = SimTime::from_nanos(rng.gen_range_u64(1_000_000_000_000));
                    arrival_of.insert(next_req, arrival);
                    fast.push(Active {
                        arrival,
                        req: next_req,
                        context_tokens: context,
                        output_tokens: output,
                        kv_allocs: Vec::new(),
                        kv_bytes: next_req * 3,
                        retention,
                    });
                    scan.push(next_req, context, output, retention);
                    next_req += 1;
                }
                if fast.is_empty() {
                    continue;
                }
                let (mut first_fast, mut first_scan) = (Vec::new(), Vec::new());
                let (mut done_fast, mut done_scan) = (Vec::new(), Vec::new());
                let tokens = fast.iter_done(&mut done_fast, |arrival, req| {
                    assert_eq!(arrival_of[&req], arrival);
                    first_fast.push(req);
                });
                assert_eq!(tokens, scan.iter_done(&mut first_scan, &mut done_scan));
                assert_eq!(first_fast, first_scan, "seed {seed}");
                let got: Vec<(u64, u32)> = done_fast
                    .iter()
                    .map(|a| (a.req, a.context_tokens))
                    .collect();
                assert_eq!(got, done_scan, "seed {seed}");
                for a in &done_fast {
                    assert_eq!(a.kv_bytes, a.req * 3);
                    assert_eq!(a.arrival, arrival_of[&a.req]);
                }
                if done_scan.is_empty() {
                    quiet += 1;
                } else {
                    finishing += 1;
                }
                assert_eq!(fast.req, scan.req, "seed {seed}: slot order");
                let ctx: u64 = scan.context_tokens.iter().map(|&c| u64::from(c)).sum();
                assert_eq!(fast.ctx_sum, ctx, "seed {seed}");
                let mut counts: BTreeMap<SimDuration, u32> = BTreeMap::new();
                for &rt in &scan.retention {
                    *counts.entry(rt).or_default() += 1;
                }
                let counts: Vec<(SimDuration, u32)> = counts.into_iter().collect();
                assert_eq!(fast.retention_counts, counts, "seed {seed}");
            }
        }
        assert!(quiet > 1000 && finishing > 1000 && one_token > 1000);
    }

    #[test]
    fn cluster_makes_progress_on_all_policies() {
        for p in PlacementPolicy::all() {
            let r = quick(p);
            assert!(r.tokens > 100, "{}: only {} tokens", r.policy, r.tokens);
            assert!(r.completions > 0, "{}", r.policy);
            assert!(r.tokens_per_s > 0.0);
            assert!(r.energy_total_j > 0.0);
            assert!(r.p50_latency_ms.unwrap() > 0.0);
            assert!(r.p99_latency_ms.unwrap() >= r.p50_latency_ms.unwrap());
        }
    }

    #[test]
    fn zero_admission_reports_absent_percentiles() {
        // Regression for the empty-histogram panic: a cluster that admits
        // nothing must finish cleanly with `None` percentiles, not abort in
        // `LogHistogram::percentile`.
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 0.0);
        cfg.duration = SimDuration::from_secs(30);
        let r = run(cfg);
        assert_eq!(r.completions, 0);
        assert_eq!(r.tokens, 0);
        assert_eq!(r.p50_latency_ms, None);
        assert_eq!(r.p99_latency_ms, None);
        assert_eq!(r.p99_ttft_ms, None);
    }

    #[test]
    fn observers_do_not_perturb_report_or_audit() {
        // The observe-only contract, over every attachment combination:
        // neither the telemetry sink nor the tracer + profiler bundle may
        // change the report or add, drop or reorder a control decision,
        // even with the fault layer (and its RNG) active.
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 2, 8.0);
        cfg.duration = SimDuration::from_secs(30);
        cfg.faults = FaultConfig {
            ber_scale: 40.0,
            provision_margin: Some(1.0),
            ..FaultConfig::mrm()
        };
        let (plain, plain_audit) = ClusterSim::new(cfg.clone()).run_with_audit();
        let plain_json = serde_json::to_string(&plain).unwrap();
        for (with_tele, with_obs) in [(true, false), (false, true), (true, true)] {
            let mut tele = with_tele.then(|| SimTelemetry::new(SimDuration::from_secs(5)));
            let mut obs = with_obs.then(|| Obs::new(cfg.seed));
            let mut sim = ClusterSim::new(cfg.clone());
            if let Some(t) = tele.as_mut() {
                sim.attach_telemetry(t);
            }
            if let Some(o) = obs.as_mut() {
                sim.attach_obs(o);
            }
            let (observed, audit) = sim.run_with_audit();
            let which = format!("telemetry={with_tele} obs={with_obs}");
            assert_eq!(
                serde_json::to_string(&observed).unwrap(),
                plain_json,
                "{which}"
            );
            assert_eq!(audit.records(), plain_audit.records(), "{which}");

            if let Some(tele) = &tele {
                // 30 s pumped at 5 s → exactly 6 boundary-stamped snapshots.
                let snaps = tele.snapshots();
                assert_eq!(snaps.len(), 6);
                for (k, s) in snaps.iter().enumerate() {
                    assert_eq!(s.sim_time_ns, (k as u64 + 1) * 5_000_000_000);
                }
                let reg = tele.registry();
                assert_eq!(reg.counter_value("cluster_tokens"), Some(plain.tokens));
                // Every counter folded from the audit log, at the final
                // snapshot, against the report (golden telemetry digests
                // pin the mid-run snapshots).
                let bytes = |pick: fn(AuditAction) -> bool| -> u64 {
                    let rs = plain_audit.records().iter().filter(|r| pick(r.action));
                    rs.map(|r| r.bytes).sum()
                };
                let f = &plain.faults;
                for (name, want) in [
                    ("cluster_completions", plain.completions),
                    ("cluster_recomputes", plain.recomputes),
                    ("cluster_scrubs", plain.scrubs),
                    ("cluster_migrations", plain.migrations),
                    ("cluster_drops", plain.drops),
                    ("cluster_evictions", plain.evictions),
                    ("cluster_redeploys", plain.redeploys),
                    ("cluster_fault_refetches", f.weight_refetches),
                    ("cluster_fault_recomputes", f.kv_recomputes),
                    ("cluster_fault_scrub_escalations", f.scrub_escalations),
                    ("cluster_scrub_bytes", bytes(|a| a == AuditAction::Refresh)),
                    (
                        "cluster_migration_bytes",
                        bytes(|a| matches!(a, AuditAction::Migrate | AuditAction::Escalate)),
                    ),
                ] {
                    assert_eq!(reg.counter_value(name), Some(want), "{which}: {name}");
                }
                // Under HbmMrmDcm the weights and KV live in MRM; HBM only
                // streams activations, so its occupancy gauge exists but
                // may read zero.
                assert!(reg.gauge_value("tier_hbm_occupancy").is_some());
                assert!(reg.gauge_value("tier_mrm_occupancy").unwrap() > 0.0);
                let lat = reg.histogram_by_name("latency_ms").expect("latency hist");
                assert_eq!(lat.count(), plain.completions);
            }
            if let Some(obs) = &obs {
                // And the trace actually observed something.
                assert!(obs.tracer.total() > 0, "tracer recorded no spans");
                assert!(
                    obs.tracer.spans().any(|s| s.kind == SpanKind::Admission),
                    "no admission spans"
                );
                assert!(
                    obs.tracer.spans().any(|s| s.kind == SpanKind::DecodeIter),
                    "no decode-iteration slices"
                );
                let prof = obs.profiler.report(5);
                assert!(
                    prof.top.iter().any(|h| h.name == "iter_done"),
                    "profiler missed the decode handler"
                );
            }
        }
    }

    #[test]
    fn fault_rate_zero_is_byte_identical_to_no_faults() {
        // The differential chaos test: constructing the fault layer with
        // `ber_scale = 0` must leave the entire report byte-identical to a
        // run with no layer at all — injection at zero effective RBER is a
        // true no-op (no RNG draw, no charge, no counter).
        let mut base = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
        base.duration = SimDuration::from_secs(30);
        let mut zeroed = base.clone();
        zeroed.faults = FaultConfig {
            ber_scale: 0.0,
            ..FaultConfig::mrm()
        };
        let mut plain = run(base);
        let mut zero = run(zeroed);
        // Only the `enabled` flag may differ; blank the summaries and
        // compare everything else byte for byte through serde.
        plain.faults = FaultSummary::default();
        zero.faults = FaultSummary::default();
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&zero).unwrap(),
            "a rate-0 fault layer must not perturb the simulation"
        );
    }

    /// A config provisioned so tightly that retention faults must surface:
    /// KV retention equal to the follow-up window, RBER scaled up.
    fn chaos_cfg() -> ClusterConfig {
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
        cfg.duration = SimDuration::from_secs(90);
        cfg.followup_window = SimDuration::from_secs(20);
        cfg.hint_window = SimDuration::from_secs(20);
        cfg.followup_prob = 0.8;
        cfg.maintenance_period = SimDuration::from_secs(5);
        cfg.faults = FaultConfig {
            ber_scale: 40.0,
            provision_margin: Some(1.0),
            ..FaultConfig::mrm()
        };
        cfg
    }

    #[test]
    fn seeded_faults_are_deterministic() {
        let a = run(chaos_cfg());
        let b = run(chaos_cfg());
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must produce a byte-identical faulted report"
        );
    }

    #[test]
    fn tight_margin_engages_recovery_and_blocks_sdc() {
        let r = run(chaos_cfg());
        assert!(r.faults.enabled);
        assert!(r.faults.reads > 0, "injection must have run");
        assert!(r.faults.raw_flips > 0, "margin 1 at 40x BER must flip bits");
        assert!(r.faults.corrected > 0, "ECC must absorb the bulk");
        assert!(
            r.faults.detected_ue + r.faults.miscorrected > 0,
            "retention at the data lifetime must break through t=2"
        );
        assert!(r.faults.retries > 0, "recovery must at least retry");
        assert!(
            r.faults.kv_recomputes > 0,
            "persistent KV UEs must demote hits to recomputes"
        );
        // Demoted hits are counted in the serving recompute totals too.
        assert!(r.recomputes >= r.faults.kv_recomputes);
        // The acceptance bar: the recovery pipeline holds cluster-level
        // silent data corruption at zero (outer CRC catches every BCH
        // miscorrection; everything else is retried or recomputed).
        assert_eq!(r.faults.silent, 0, "SDC must be zero: {:?}", r.faults);
        // The cluster still serves tokens through all of this.
        assert!(r.tokens > 100);
    }

    #[test]
    fn failed_scrub_verification_escalates_to_migration() {
        // Under-provisioned retention (margin 0.25: class = 5 s, needed
        // 20 s) makes the sweep refresh; the verification read at 40x BER
        // near end-of-retention fails and must escalate to the 7-day
        // class instead of re-arming the dying one.
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
        cfg.duration = SimDuration::from_secs(90);
        cfg.followup_window = SimDuration::from_secs(20);
        cfg.hint_window = SimDuration::from_secs(20);
        cfg.followup_prob = 0.2;
        cfg.maintenance_period = SimDuration::from_secs(2);
        cfg.faults = FaultConfig {
            ber_scale: 40.0,
            provision_margin: Some(0.25),
            ..FaultConfig::mrm()
        };
        let r = run(cfg);
        assert!(
            r.faults.scrub_escalations > 0,
            "failed verification reads must escalate: {:?}",
            r.faults
        );
        assert!(
            r.migrations >= r.faults.scrub_escalations,
            "every escalation is a migration"
        );
        assert_eq!(r.faults.silent, 0);
    }

    #[test]
    fn fault_telemetry_reaches_the_sink() {
        let mut tele = SimTelemetry::new(SimDuration::from_secs(5));
        let mut sim = ClusterSim::new(chaos_cfg());
        sim.attach_telemetry(&mut tele);
        let (r, _audit) = sim.run_with_audit();
        let reg = tele.registry();
        assert_eq!(
            reg.counter_value("cluster_fault_reads"),
            Some(r.faults.reads)
        );
        assert_eq!(
            reg.counter_value("cluster_fault_raw_flips"),
            Some(r.faults.raw_flips)
        );
        assert_eq!(
            reg.counter_value("cluster_fault_recomputes"),
            Some(r.faults.kv_recomputes)
        );
        assert_eq!(
            reg.counter_value("cluster_fault_silent"),
            Some(r.faults.silent)
        );
        assert!(reg.gauge_value("cluster_fault_raw_ber").unwrap() > 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let a = quick(PlacementPolicy::HbmMrm);
        let b = quick(PlacementPolicy::HbmMrm);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.completions, b.completions);
        assert!((a.energy_total_j - b.energy_total_j).abs() < 1e-9);
        assert_eq!(a.cache_hits, b.cache_hits);
    }

    #[test]
    fn mrm_beats_hbm_on_energy_per_token() {
        // §3: MRM's read energy (1.5 vs 3.9 pJ/bit) plus zero refresh must
        // show up as lower J/token.
        let hbm = quick(PlacementPolicy::HbmOnly);
        let mrm = quick(PlacementPolicy::HbmMrm);
        assert!(
            mrm.j_per_token < hbm.j_per_token,
            "MRM {} J/tok vs HBM {} J/tok",
            mrm.j_per_token,
            hbm.j_per_token
        );
    }

    #[test]
    fn lpddr_cuts_throughput() {
        // §3: LPDDR "reduce[s] the bandwidth at which the data is
        // available" — visible as lower tokens/s under load.
        let hbm = quick(PlacementPolicy::HbmOnly);
        let lpddr = quick(PlacementPolicy::HbmLpddr);
        assert!(
            lpddr.tokens_per_s < hbm.tokens_per_s,
            "LPDDR {} vs HBM {}",
            lpddr.tokens_per_s,
            hbm.tokens_per_s
        );
    }

    #[test]
    fn mrm_matches_or_beats_hbm_throughput() {
        let hbm = quick(PlacementPolicy::HbmOnly);
        let mrm = quick(PlacementPolicy::HbmMrm);
        assert!(
            mrm.tokens_per_s >= hbm.tokens_per_s * 0.95,
            "MRM {} vs HBM {}",
            mrm.tokens_per_s,
            hbm.tokens_per_s
        );
    }

    #[test]
    fn mrm_offers_more_kv_capacity() {
        let hbm = quick(PlacementPolicy::HbmOnly);
        let mrm = quick(PlacementPolicy::HbmMrm);
        assert!(mrm.kv_capacity_bytes > 2 * hbm.kv_capacity_bytes);
    }

    #[test]
    fn dram_housekeeping_exceeds_mrm() {
        let hbm = quick(PlacementPolicy::HbmOnly);
        let mrm = quick(PlacementPolicy::HbmMrm);
        assert!(
            hbm.housekeeping_j > mrm.housekeeping_j,
            "HBM refresh {} J vs MRM scrub {} J",
            hbm.housekeeping_j,
            mrm.housekeeping_j
        );
    }

    #[test]
    fn followups_produce_hits() {
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
        cfg.duration = SimDuration::from_secs(60);
        cfg.followup_prob = 0.8;
        let r = run(cfg);
        assert!(r.cache_hits > 0, "expected follow-up cache hits");
    }

    #[test]
    fn optimistic_hints_force_scrubs() {
        // The §4 refresh path: the estimator assumes a 1-minute follow-up
        // window, so DCM programs short classes — but the cache actually
        // holds contexts 30 minutes, so the maintenance sweep must scrub
        // (or migrate) to keep them alive.
        // 10-minute DCM class deadlines land ~11 min in; run past them, at
        // an arrival rate low enough that the cache is not eviction-bound
        // (0.2 req/s x 30 min x ~0.4 GB fits the 244 GB KV tier).
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 1, 0.2);
        cfg.duration = SimDuration::from_secs(1200);
        cfg.hint_window = SimDuration::from_mins(1);
        cfg.followup_window = SimDuration::from_mins(30);
        cfg.followup_prob = 0.0; // isolate the maintenance path
        cfg.maintenance_period = SimDuration::from_secs(30);
        let r = run(cfg);
        assert!(
            r.scrubs + r.migrations > 0,
            "under-provisioned retention must trigger control-plane action"
        );
    }

    #[test]
    fn migrate_fires_for_long_needs() {
        // Need (2 h) spans many 10-minute retention periods: the decision
        // logic must choose Migrate at least sometimes.
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 1, 0.05);
        cfg.duration = SimDuration::from_secs(1200);
        cfg.hint_window = SimDuration::from_mins(1);
        cfg.followup_window = SimDuration::from_hours(2);
        cfg.followup_prob = 0.0;
        cfg.maintenance_period = SimDuration::from_secs(30);
        let r = run(cfg);
        assert!(
            r.migrations > 0,
            "long-lived cached data must migrate to a longer class"
        );
    }

    #[test]
    fn scrub_disabled_turns_expiry_into_recomputes() {
        let mk = |scrub: bool| {
            let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 1, 0.2);
            cfg.duration = SimDuration::from_secs(1500);
            cfg.hint_window = SimDuration::from_mins(1);
            cfg.followup_window = SimDuration::from_mins(30);
            cfg.followup_prob = 0.9;
            cfg.scrub_enabled = scrub;
            cfg.maintenance_period = SimDuration::from_secs(30);
            run(cfg)
        };
        let with = mk(true);
        let without = mk(false);
        assert!(
            without.recomputes > with.recomputes,
            "without scrubbing, expired follow-ups must recompute: {} vs {}",
            without.recomputes,
            with.recomputes
        );
    }

    /// Runs `cfg` with obs attached and checks the trace against the
    /// audit log: every record but the initial weight deploys (made before
    /// obs can attach) and a redeploy's Retire has exactly one span, and
    /// each span names its record's id, bytes and reason, has the kind
    /// its `(class, action)` maps to, and is `required` iff its class is
    /// declared Required or it is a drop linked from a recovery span.
    /// Returns the spans that carried an audit seq.
    fn spans_match_audit(cfg: ClusterConfig) -> Vec<mrm_obs::SpanRec> {
        use std::collections::BTreeMap;
        let registry = ControlPlane::serving_default(cfg.followup_window).registry;
        let mut obs = Obs::new(cfg.seed);
        let mut sim = ClusterSim::new(cfg);
        sim.attach_obs(&mut obs);
        let (_, audit) = sim.run_with_audit();
        let t = &obs.tracer;
        assert_eq!(t.dropped(), 0, "the ring must hold the whole run");
        let kind_of: BTreeMap<SpanId, SpanKind> = t.spans().map(|s| (s.id, s.kind)).collect();
        let cause_of: BTreeMap<SpanId, SpanId> =
            t.links().iter().map(|l| (l.effect, l.cause)).collect();
        let mut spans_per_record = vec![0u32; audit.len()];
        let mut audited = Vec::new();
        for span in t.spans() {
            let Some(seq) = span.detail.audit_seq else {
                continue;
            };
            let r = audit
                .records()
                .get(seq as usize)
                .expect("span cites a missing record");
            spans_per_record[seq as usize] += 1;
            assert_eq!(r.seq, seq);
            assert_eq!(r.id, span.subject, "{r:?}");
            assert_eq!(r.bytes, span.detail.bytes, "{r:?}");
            assert_eq!(r.reason, span.detail.reason, "{r:?}");
            let want = match (r.class, r.action) {
                (ControlClass::KvTail, AuditAction::Store) => SpanKind::Admission,
                (ControlClass::KvTail, AuditAction::Retire) => SpanKind::Completion,
                (ControlClass::KvPrefix, AuditAction::Store) => SpanKind::Placement,
                (ControlClass::KvPrefix, AuditAction::Retire) => SpanKind::Retire,
                (ControlClass::KvPrefix, AuditAction::Drop) => SpanKind::Drop,
                (ControlClass::KvPrefix, AuditAction::Evict) => SpanKind::Evict,
                (_, AuditAction::Refetch | AuditAction::Recompute) => SpanKind::Recovery,
                (_, AuditAction::Refresh) => SpanKind::Refresh,
                (_, AuditAction::Migrate | AuditAction::Escalate) => SpanKind::Migrate,
                (ControlClass::Weights, AuditAction::Store) => SpanKind::Redeploy,
                other => panic!("no span expected for {other:?}"),
            };
            assert_eq!(span.kind, want, "{r:?}");
            let licensed = r.action == AuditAction::Drop
                && cause_of
                    .get(&span.id)
                    .is_some_and(|c| kind_of.get(c) == Some(&SpanKind::Recovery));
            assert_eq!(
                span.detail.required,
                registry.is_required(r.class) || licensed,
                "{r:?}"
            );
            audited.push(*span);
        }
        for (r, &n) in audit.records().iter().zip(&spans_per_record) {
            let spanless = r.class == ControlClass::Weights
                && (r.reason == "deploy" || r.action == AuditAction::Retire);
            assert_eq!(n, u32::from(!spanless), "{r:?}");
        }
        audited
    }

    #[test]
    fn trace_and_audit_agree() {
        let count =
            |spans: &[mrm_obs::SpanRec], kind| spans.iter().filter(|s| s.kind == kind).count();
        // Faults on: recoveries and the drops they license both fire.
        let spans = spans_match_audit(chaos_cfg());
        for kind in [
            SpanKind::Admission,
            SpanKind::Completion,
            SpanKind::Placement,
            SpanKind::Retire,
            SpanKind::Drop,
            SpanKind::Recovery,
        ] {
            assert!(count(&spans, kind) > 0, "no {kind:?} span");
        }
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Drop && s.detail.required),
            "no recovery-licensed drop"
        );
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 1, 4.0);
        cfg.duration = SimDuration::from_secs(120);
        cfg.weight_redeploy_period = Some(SimDuration::from_secs(30));
        assert_eq!(count(&spans_match_audit(cfg), SpanKind::Redeploy), 4);
    }

    #[test]
    fn weight_redeploys_charge_the_weights_tier() {
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 1, 4.0);
        cfg.duration = SimDuration::from_secs(120);
        cfg.weight_redeploy_period = Some(SimDuration::from_secs(30));
        let with = run(cfg.clone());
        cfg.weight_redeploy_period = None;
        let without = run(cfg);
        assert_eq!(with.redeploys, 4, "one redeploy per 30 s per accelerator");
        let w_mrm = with.tiers.iter().find(|t| t.tier == "MRM").unwrap();
        let wo_mrm = without.tiers.iter().find(|t| t.tier == "MRM").unwrap();
        assert!(
            w_mrm.bytes_written > wo_mrm.bytes_written + 3 * 140_000_000_000,
            "redeploys must bulk-write the weights"
        );
    }

    #[test]
    fn trace_replay_drives_the_cluster_reproducibly() {
        use mrm_workload::replay::RequestTrace;
        let mix = mrm_workload::traces::TraceMix::splitwise_default(4096, 6.0);
        let mut rng = mrm_sim::rng::SimRng::seed_from(5);
        let trace = RequestTrace::record(&mix, 150, &mut rng);

        let run = |trace: RequestTrace| {
            let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 999.0);
            cfg.duration = SimDuration::from_secs(40);
            cfg.trace = Some(trace);
            run(cfg)
        };
        let a = run(trace.clone());
        let b = run(trace.clone());
        assert_eq!(a.tokens, b.tokens, "trace replay must be deterministic");
        // Arrivals within the 40 s window came from the trace, not Poisson.
        let expected = trace
            .entries()
            .iter()
            .filter(|e| e.arrival <= SimDuration::from_secs(40))
            .count() as u64;
        assert_eq!(a.arrivals, expected);
        assert!(a.tokens > 0);
    }

    #[test]
    fn ttft_is_recorded_and_below_total_latency() {
        let r = quick(PlacementPolicy::HbmMrm);
        assert!(r.p50_ttft_ms.unwrap() > 0.0);
        assert!(
            r.p50_ttft_ms.unwrap() <= r.p50_latency_ms.unwrap(),
            "first token precedes completion"
        );
        assert!(r.p99_ttft_ms.unwrap() >= r.p50_ttft_ms.unwrap());
    }

    #[test]
    fn tier_reports_cover_policy() {
        let r = quick(PlacementPolicy::HbmMrm);
        let names: Vec<&str> = r.tiers.iter().map(|t| t.tier.as_str()).collect();
        assert!(names.contains(&"HBM"));
        assert!(names.contains(&"MRM"));
        let mrm = r.tiers.iter().find(|t| t.tier == "MRM").unwrap();
        assert!(
            mrm.bytes_read > mrm.bytes_written * 100,
            "read-dominated (§2.2)"
        );
    }

    #[test]
    fn zero_output_trace_entry_is_admitted_without_underflow() {
        // Regression: a trace entry with output_tokens == 0 used to
        // underflow `output_remaining` when its first iteration completed.
        // Admission clamps to one output token, so the request completes.
        let trace = RequestTrace::from_csv(
            "0.5,conversation,128,0\n1.0,coding,256,4\n1.5,conversation,64,0\n",
        )
        .unwrap();
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 1, 999.0);
        cfg.duration = SimDuration::from_secs(20);
        cfg.trace = Some(trace);
        let r = run(cfg);
        assert_eq!(r.arrivals, 3);
        assert_eq!(r.completions, 3, "zero-output requests must still finish");
        // Each zero-output request yields exactly one decode token.
        assert!(r.tokens >= 2 + 4);
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
        assert!(ok.validate().is_ok());

        let mut cfg = ok.clone();
        cfg.accelerators = 0;
        assert!(cfg.validate().unwrap_err().contains("accelerators"));

        let mut cfg = ok.clone();
        cfg.max_batch = 0;
        assert!(cfg.validate().unwrap_err().contains("max_batch"));

        let mut cfg = ok.clone();
        cfg.arrivals_per_s = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("arrivals_per_s"));

        let mut cfg = ok.clone();
        cfg.mrm_packages = 0;
        assert!(cfg.validate().unwrap_err().contains("mrm_packages"));

        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmLpddr, 2, 8.0);
        cfg.lpddr_packages = 0;
        assert!(cfg.validate().unwrap_err().contains("lpddr_packages"));

        let mut cfg = ok.clone();
        cfg.maintenance_period = SimDuration::ZERO;
        assert!(cfg.validate().unwrap_err().contains("maintenance_period"));

        let mut cfg = ok.clone();
        cfg.weight_redeploy_period = Some(SimDuration::ZERO);
        assert!(cfg
            .validate()
            .unwrap_err()
            .contains("weight_redeploy_period"));

        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            let mut cfg = ok.clone();
            cfg.faults.ber_scale = bad;
            assert!(cfg.validate().unwrap_err().contains("ber_scale"), "{bad}");
        }
        for bad in [0.0, -0.5, f64::NAN, f64::INFINITY] {
            let mut cfg = ok.clone();
            cfg.faults.provision_margin = Some(bad);
            assert!(
                cfg.validate().unwrap_err().contains("provision_margin"),
                "{bad}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid ClusterConfig: accelerators")]
    fn zero_accelerators_panics_with_clear_message() {
        // Regression: this used to die with a remainder-by-zero panic deep
        // in request admission instead of a config error.
        let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmOnly, 1, 8.0);
        cfg.accelerators = 0;
        let _ = ClusterSim::new(cfg);
    }
}
