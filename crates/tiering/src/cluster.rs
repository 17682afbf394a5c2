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
    AuditAction, AuditLog, ControlClass, ControlPlane, ControlSummary, Reconciler, WorkItem,
    WorkKind,
};
use mrm_device::cell::RetentionTradeoff;
use mrm_device::device::FRESH_RBER;
use mrm_device::energy::EnergyBreakdown;
use mrm_device::tech::presets;
use mrm_faults::{FaultConfig, FaultModel};
use mrm_obs::{Detail, HandlerId, Obs, SpanId, SpanKind};
use mrm_sim::event::EventQueue;
use mrm_sim::rng::SimRng;
use mrm_sim::stats::LogHistogram;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::TelemetrySink;
use mrm_workload::access::DataClass;
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::replay::RequestTrace;
use mrm_workload::traces::TraceMix;
use serde::{Deserialize, Serialize};

use crate::lifetime::LifetimeEstimator;
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
    pub weight_refetches: u64,
    /// Follow-up cache hits demoted to recomputes by a persistent
    /// uncorrectable KV read.
    pub kv_recomputes: u64,
    /// Maintenance refreshes escalated to a longer-class migration after
    /// the scrub verification read failed.
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
    /// Requests completed.
    pub completions: u64,
    /// Tokens decoded.
    pub tokens: u64,
    /// Decode throughput, tokens/s (cluster).
    pub tokens_per_s: f64,
    /// Follow-ups that hit cached KV state.
    pub cache_hits: u64,
    /// Follow-ups that found their KV state expired and recomputed.
    pub recomputes: u64,
    /// Control-plane scrub (refresh) operations.
    pub scrubs: u64,
    /// Control-plane migrations to a longer retention class.
    pub migrations: u64,
    /// Expired cached contexts dropped.
    pub drops: u64,
    /// Cached contexts evicted under memory pressure (best-effort cache).
    pub evictions: u64,
    /// Model (weight) redeployments performed.
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

/// Profiler handler ids, interned once at [`ClusterSim::attach_obs`] so
/// the per-event hooks never resolve a name on the dispatch path.
#[derive(Clone, Copy)]
struct ProfIds {
    arrival: HandlerId,
    iter_done: HandlerId,
    followup: HandlerId,
    cache_expire: HandlerId,
    maintenance: HandlerId,
    weight_redeploy: HandlerId,
    admission: HandlerId,
    reconcile_plan: HandlerId,
    decode_iter: HandlerId,
}

/// Stable profiler handler per event kind (pre-interned id form).
fn handler_id(ids: &ProfIds, ev: &Ev) -> HandlerId {
    match ev {
        Ev::Arrival | Ev::TraceArrival { .. } => ids.arrival,
        Ev::IterDone { .. } => ids.iter_done,
        Ev::Followup { .. } => ids.followup,
        Ev::CacheExpire { .. } => ids.cache_expire,
        Ev::Maintenance { .. } => ids.maintenance,
        Ev::WeightRedeploy { .. } => ids.weight_redeploy,
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

#[derive(Clone, Debug)]
struct Active {
    arrival: SimTime,
    /// Admission-order id: the audit identity of this request's KV tail.
    req: u64,
    context_tokens: u32,
    output_remaining: u32,
    kv_allocs: Vec<mrm_core::pool::Allocation>,
    kv_bytes: u64,
    retention: SimDuration,
    /// Whether the first output token has been produced (TTFT recorded).
    first_token_done: bool,
}

/// The in-flight decode batch in struct-of-arrays layout.
///
/// Every decode iteration scans the whole batch twice (KV read sizing over
/// `context_tokens`, per-context KV append over `retention`) and the
/// completion sweep walks four more fields; splitting them into parallel
/// dense columns keeps those scans on contiguous homogeneous memory
/// instead of striding over `Active` records dragging the cold
/// `kv_allocs` vectors through cache. Slot `i` means the same request in
/// every column, and removal is a columnwise `swap_remove` — the exact
/// ordering the AoS `Vec<Active>` had, so event order (and therefore
/// every byte of every report) is unchanged.
#[derive(Clone, Debug, Default)]
struct ActiveBatch {
    // Hot columns: scanned every iteration.
    context_tokens: Vec<u32>,
    output_remaining: Vec<u32>,
    retention: Vec<SimDuration>,
    first_token_done: Vec<bool>,
    // Warm columns: touched at TTFT and completion.
    arrival: Vec<SimTime>,
    req: Vec<u64>,
    kv_bytes: Vec<u64>,
    // Cold: allocation handles, moved only at admission and completion.
    kv_allocs: Vec<Vec<mrm_core::pool::Allocation>>,
}

impl ActiveBatch {
    fn len(&self) -> usize {
        self.req.len()
    }

    fn is_empty(&self) -> bool {
        self.req.is_empty()
    }

    fn push(&mut self, a: Active) {
        self.context_tokens.push(a.context_tokens);
        self.output_remaining.push(a.output_remaining);
        self.retention.push(a.retention);
        self.first_token_done.push(a.first_token_done);
        self.arrival.push(a.arrival);
        self.req.push(a.req);
        self.kv_bytes.push(a.kv_bytes);
        self.kv_allocs.push(a.kv_allocs);
    }

    fn swap_remove(&mut self, i: usize) -> Active {
        Active {
            context_tokens: self.context_tokens.swap_remove(i),
            output_remaining: self.output_remaining.swap_remove(i),
            retention: self.retention.swap_remove(i),
            first_token_done: self.first_token_done.swap_remove(i),
            arrival: self.arrival.swap_remove(i),
            req: self.req.swap_remove(i),
            kv_bytes: self.kv_bytes.swap_remove(i),
            kv_allocs: self.kv_allocs.swap_remove(i),
        }
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
    // Counters.
    arrivals: u64,
    completions: u64,
    tokens: u64,
    cache_hits: u64,
    recomputes: u64,
    scrubs: u64,
    migrations: u64,
    drops: u64,
    evictions: u64,
    redeploys: u64,
    scrub_bytes: u64,
    migration_bytes: u64,
    latency_ms: LogHistogram,
    ttft_ms: LogHistogram,
    kv_capacity_bytes: u64,
    iterations: u64,
    batch_sum: u64,
    // Incremental aggregates for telemetry snapshots: maintained at every
    // queue/batch/cache mutation so `sample_into` never rescans the
    // accelerators. Observability only — they feed gauges, never decisions.
    pending_total: usize,
    active_total: usize,
    cached_total: usize,
    // Per-iteration constants hoisted out of `start_iteration` (derived
    // once from `cfg`; identical values to recomputing them every
    // iteration, so this is wall-clock only).
    kvpt: u64,
    weights_bytes: u64,
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
    fault_refetches: u64,
    fault_recomputes: u64,
    fault_escalations: u64,
    // Observability only: never consulted by the simulation logic and
    // never draws from `rng`, so an attached sink cannot change a report.
    telemetry: Option<&'t mut dyn TelemetrySink>,
    // Causal tracer + profiler bundle (mrm-obs), same contract as the
    // telemetry sink. Hook sites live only in the `obs_*` helpers below —
    // lint rule D8 keeps them out of every function that draws RNG or
    // mutates the event queue.
    obs: Option<&'t mut Obs>,
    // Handler ids interned at `attach_obs`; `Some` iff `obs` is.
    prof_ids: Option<ProfIds>,
    // Start time + batch size of the in-flight decode iteration per
    // accelerator (obs bookkeeping only); recorded as a closed slice on
    // completion so the hot path skips the tracer's open-span machinery.
    iter_open: Vec<Option<(SimTime, u64)>>,
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
        let weights_bytes = cfg.model.weights_bytes(cfg.quant);
        let mut kv_capacity = 0;

        // Capacity hints are wall-clock-only: the KV tier holds the live
        // batch plus the follow-up cache, so pre-size its allocator arena
        // for a few batches' worth of allocations.
        let alloc_hint = cfg.max_batch as usize * 8;
        let weights_native_retention = match cfg.policy.tier_for(DataClass::Weights) {
            TierKind::Hbm => presets::hbm3e().retention,
            TierKind::Lpddr => presets::lpddr5x().retention,
            TierKind::Mrm => presets::mrm_hours().retention,
        };
        let accels: Vec<Accel> = (0..cfg.accelerators)
            .map(|_| {
                let hbm = Tier::with_capacity_hint(
                    TierKind::Hbm,
                    presets::hbm3e(),
                    cfg.hbm_stacks,
                    alloc_hint,
                );
                let alt = match cfg.policy {
                    PlacementPolicy::HbmLpddr => Some(Tier::with_capacity_hint(
                        TierKind::Lpddr,
                        presets::lpddr5x(),
                        cfg.lpddr_packages,
                        alloc_hint,
                    )),
                    PlacementPolicy::HbmMrm | PlacementPolicy::HbmMrmDcm => {
                        Some(Tier::with_capacity_hint(
                            TierKind::Mrm,
                            presets::mrm_hours(),
                            cfg.mrm_packages,
                            alloc_hint,
                        ))
                    }
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
        let kvpt = cfg.model.kv_bytes_per_token(cfg.quant);
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
            arrivals: 0,
            completions: 0,
            tokens: 0,
            cache_hits: 0,
            recomputes: 0,
            scrubs: 0,
            migrations: 0,
            drops: 0,
            evictions: 0,
            redeploys: 0,
            scrub_bytes: 0,
            migration_bytes: 0,
            latency_ms: LogHistogram::new(16),
            ttft_ms: LogHistogram::new(16),
            kv_capacity_bytes: kv_capacity,
            iterations: 0,
            batch_sum: 0,
            pending_total: 0,
            active_total: 0,
            cached_total: 0,
            kvpt,
            weights_bytes,
            kv_native_retention,
            hbm_retention,
            fault_layer,
            mrm_tradeoff: presets::mrm_hours().tradeoff(),
            kv_on_mrm,
            weights_on_mrm,
            fault_retries: 0,
            fault_refetches: 0,
            fault_recomputes: 0,
            fault_escalations: 0,
            telemetry: None,
            obs: None,
            prof_ids: None,
            iter_open: Vec::new(),
        }
    }

    /// Raw BER of a read `age` after a `retention`-class write. MRM decays
    /// along the Weibull retention curve; the DRAM-family tiers are pinned
    /// at the soft-error floor by their mandatory refresh.
    fn aged_rber(&self, on_mrm: bool, retention: SimDuration, age: SimDuration) -> f64 {
        if on_mrm {
            self.mrm_tradeoff.rber_at_age(retention, age, FRESH_RBER)
        } else {
            FRESH_RBER
        }
    }

    /// One fault-checked read: inject at `rber`, and on an uncorrectable
    /// outcome retry once (the first rung of every recovery ladder).
    /// Returns false when the error persisted and the caller must take its
    /// own recovery path. A no-op returning true when the layer is off.
    fn read_survives(&mut self, len_bytes: u64, rber: f64) -> bool {
        let Some(model) = self.fault_layer.as_mut() else {
            return true;
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
    pub fn attach_telemetry(&mut self, sink: &'t mut dyn TelemetrySink) {
        self.telemetry = Some(sink);
    }

    /// Attaches a causal tracer + profiler for the lifetime of the run.
    /// Same contract as [`ClusterSim::attach_telemetry`]: the bundle is
    /// observe-only (hooks never draw RNG and never touch the event
    /// queue — lint rule D8), so the report is byte-identical with or
    /// without it.
    pub fn attach_obs(&mut self, obs: &'t mut Obs) {
        self.iter_open = vec![None; self.accels.len()];
        // Resolve every handler label once, here: the per-event hooks
        // profile by pre-interned id and never look a name up again.
        let p = &mut obs.profiler;
        self.prof_ids = Some(ProfIds {
            arrival: p.handle("arrival"),
            iter_done: p.handle("iter_done"),
            followup: p.handle("followup"),
            cache_expire: p.handle("cache_expire"),
            maintenance: p.handle("maintenance"),
            weight_redeploy: p.handle("weight_redeploy"),
            admission: p.handle("admission"),
            reconcile_plan: p.handle("reconcile_plan"),
            decode_iter: p.handle("decode_iter"),
        });
        self.obs = Some(obs);
    }

    // ------------------------------------------------------------------
    // Obs hooks. Every tracer/profiler touch in this simulator lives in
    // one of these helpers; the event handlers call them by name. That
    // confinement is what lint rule D8 enforces: a function that draws
    // `SimRng`/`FaultRng` or mutates the event queue may not itself
    // mention the tracer or profiler, so observation can never sit on a
    // path that could perturb the simulation. Each hook is a `None`
    // check when detached.
    //
    // The profiler hooks take a `ProfIds` selector, not a name: ids were
    // interned at `attach_obs`. Dispatch uses lap timing — a single
    // `switch` per event closes the previous handler's lap and opens the
    // next — so the steady-state per-event cost is one `Option` check
    // and one clock read.
    // ------------------------------------------------------------------

    fn obs_prof_enter(&mut self, sel: fn(&ProfIds) -> HandlerId) {
        if let (Some(ids), Some(o)) = (self.prof_ids, self.obs.as_deref_mut()) {
            o.profiler.enter_id(sel(&ids));
        }
    }

    fn obs_prof_exit(&mut self) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.profiler.exit();
        }
    }

    /// Closes the open frame and opens `ev`'s handler frame on a single
    /// clock reading — the pop-to-dispatch lap transition.
    fn obs_prof_switch_ev(&mut self, ev: &Ev) {
        if let (Some(ids), Some(o)) = (self.prof_ids, self.obs.as_deref_mut()) {
            o.profiler.switch(handler_id(&ids, ev));
        }
    }

    /// Charges a handler with simulated time (e.g. an iteration's latency).
    fn obs_prof_sim(&mut self, sel: fn(&ProfIds) -> HandlerId, d: SimDuration) {
        if let (Some(ids), Some(o)) = (self.prof_ids, self.obs.as_deref_mut()) {
            o.profiler.sim_cost_id(sel(&ids), d);
        }
    }

    /// A request admitted into the batch: opens its session lifecycle
    /// span and records the admission decision with its audit seq.
    fn obs_admit(
        &mut self,
        at: SimTime,
        acc: usize,
        req: u64,
        seq: u64,
        bytes: u64,
        followup: bool,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer.async_begin(at, SpanKind::Session, acc as u32, req);
            o.tracer.instant(
                at,
                SpanKind::Admission,
                acc as u32,
                req,
                Detail {
                    bytes,
                    reason: if followup { "followup-admit" } else { "admit" },
                    audit_seq: Some(seq),
                    required: true, // the KV tail is Required state
                },
            );
        }
    }

    /// First token of a session (TTFT landmark).
    fn obs_first_token(&mut self, at: SimTime, acc: usize, req: u64) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer
                .instant(at, SpanKind::FirstToken, acc as u32, req, Detail::default());
        }
    }

    /// A session completed: closes its span, retires the tail (`detail`
    /// carries the retire audit seq), and opens the parked prefix's
    /// lifecycle span under `park_seq`.
    fn obs_complete(
        &mut self,
        at: SimTime,
        acc: usize,
        req: u64,
        ctx: u64,
        detail: Detail,
        park_seq: u64,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer
                .instant(at, SpanKind::Completion, acc as u32, req, detail);
            o.tracer
                .async_end(at, SpanKind::Session, req, Detail::default());
            o.tracer.async_begin(at, SpanKind::Prefix, acc as u32, ctx);
            o.tracer.instant(
                at,
                SpanKind::Placement,
                acc as u32,
                ctx,
                Detail {
                    bytes: detail.bytes,
                    reason: "park-followup",
                    audit_seq: Some(park_seq),
                    required: false,
                },
            );
        }
    }

    /// A parked prefix re-opened (stall putback re-parks consumed state).
    fn obs_prefix_begin(&mut self, at: SimTime, acc: usize, ctx: u64, bytes: u64, seq: u64) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer.async_begin(at, SpanKind::Prefix, acc as u32, ctx);
            o.tracer.instant(
                at,
                SpanKind::Placement,
                acc as u32,
                ctx,
                Detail {
                    bytes,
                    reason: "stall-putback",
                    audit_seq: Some(seq),
                    required: false,
                },
            );
        }
    }

    /// End of a parked prefix's life: retire (consumed), drop, or evict.
    /// `detail.required` marks the drops that demanded recovery before
    /// reclaim (the recompute-then-drop path) — the spans the trace
    /// checker insists must carry a causal link from an audited recovery.
    /// Returns the terminal span so callers can record that link.
    fn obs_prefix_end(
        &mut self,
        at: SimTime,
        acc: usize,
        ctx: u64,
        kind: SpanKind,
        detail: Detail,
    ) -> Option<SpanId> {
        self.obs.as_deref_mut().map(|o| {
            let span = o.tracer.instant(at, kind, acc as u32, ctx, detail);
            o.tracer
                .async_end(at, SpanKind::Prefix, ctx, Detail::default());
            span
        })
    }

    /// An uncorrectable read that survived the retry rung. Returns the
    /// fault span for linking to whatever recovery it forces.
    fn obs_fault(&mut self, at: SimTime, acc: usize, subject: u64, bytes: u64) -> Option<SpanId> {
        self.obs.as_deref_mut().map(|o| {
            o.tracer.instant(
                at,
                SpanKind::Fault,
                acc as u32,
                subject,
                Detail {
                    bytes,
                    reason: "uncorrectable-read",
                    audit_seq: None,
                    required: false,
                },
            )
        })
    }

    /// An audited recovery (refetch/recompute). Linked from the fault
    /// that forced it; returns the recovery span for linking to a drop.
    fn obs_recovery(
        &mut self,
        at: SimTime,
        acc: usize,
        subject: u64,
        detail: Detail,
        fault: Option<SpanId>,
    ) -> Option<SpanId> {
        self.obs.as_deref_mut().map(|o| {
            let span = o
                .tracer
                .instant(at, SpanKind::Recovery, acc as u32, subject, detail);
            if let Some(f) = fault {
                o.tracer.link(f, span);
            }
            span
        })
    }

    /// A maintenance work item (refresh/migrate/escalate) or redeploy.
    fn obs_work(
        &mut self,
        at: SimTime,
        acc: usize,
        kind: SpanKind,
        subject: u64,
        detail: Detail,
        cause: Option<SpanId>,
    ) {
        if let Some(o) = self.obs.as_deref_mut() {
            let span = o.tracer.instant(at, kind, acc as u32, subject, detail);
            if let Some(c) = cause {
                o.tracer.link(c, span);
            }
        }
    }

    /// Records a causal edge between two already-recorded spans.
    fn obs_link(&mut self, cause: Option<SpanId>, effect: Option<SpanId>) {
        if let Some(o) = self.obs.as_deref_mut() {
            if let (Some(c), Some(e)) = (cause, effect) {
                o.tracer.link(c, e);
            }
        }
    }

    /// Notes the start of a decode iteration on an accelerator's track.
    /// No tracer call yet: the span is recorded as one closed slice at
    /// `obs_iter_end`, which skips the open-span bookkeeping entirely.
    fn obs_iter_begin(&mut self, at: SimTime, acc: usize, batch: u64) {
        if self.obs.is_some() {
            self.iter_open[acc] = Some((at, batch));
        }
    }

    /// Records the accelerator's decode iteration as a closed slice.
    fn obs_iter_end(&mut self, at: SimTime, acc: usize) {
        if let Some(o) = self.obs.as_deref_mut() {
            if let Some((begin, batch)) = self.iter_open[acc].take() {
                o.tracer
                    .slice(begin, at, SpanKind::DecodeIter, acc as u32, batch);
            }
        }
    }

    /// Opens/closes the maintenance-sweep slice.
    fn obs_sweep_begin(&mut self, at: SimTime, acc: usize) -> Option<SpanId> {
        self.obs
            .as_deref_mut()
            .map(|o| o.tracer.begin(at, SpanKind::Maintenance, acc as u32, 0))
    }

    fn obs_sweep_end(&mut self, at: SimTime, span: Option<SpanId>) {
        if let Some(o) = self.obs.as_deref_mut() {
            if let Some(s) = span {
                o.tracer.end(at, s);
            }
        }
    }

    /// Run teardown: closes every span still open at the end time.
    fn obs_finish(&mut self, at: SimTime) {
        if let Some(o) = self.obs.as_deref_mut() {
            o.tracer.finish(at);
        }
    }

    /// Runs to completion and returns the report together with the full
    /// audit log — the chaos suite's oracle.
    pub fn run_with_audit(mut self) -> (ClusterReport, AuditLog) {
        let end = SimTime::ZERO + self.cfg.duration;
        // Lap-timed profiling: each event costs exactly ONE clock read —
        // the `switch` at the top of `dispatch` closes the previous
        // handler's lap and opens this one's. Queue bookkeeping (peek,
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
        self.obs_prof_exit();
        self.finish(end)
    }

    /// Executes one popped event. The leading `switch` closes the
    /// previous handler's lap and opens this one's on a single clock
    /// read (on the first event it acts as a plain `enter`: there is
    /// no open frame to close yet).
    fn dispatch(&mut self, now: SimTime, ev: Ev) {
        self.obs_prof_switch_ev(&ev);
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
            self.sample_into(sink);
            sink.snapshot(at);
        }
        self.telemetry = Some(sink);
    }

    /// Publishes the simulation's current counters and occupancy into a
    /// sink. Observe-only: nothing in the simulation changes.
    fn sample_into(&self, sink: &mut dyn TelemetrySink) {
        sink.count_to("cluster_arrivals", self.arrivals);
        sink.count_to("cluster_completions", self.completions);
        sink.count_to("cluster_tokens", self.tokens);
        sink.count_to("cluster_cache_hits", self.cache_hits);
        sink.count_to("cluster_recomputes", self.recomputes);
        sink.count_to("cluster_scrubs", self.scrubs);
        sink.count_to("cluster_migrations", self.migrations);
        sink.count_to("cluster_drops", self.drops);
        sink.count_to("cluster_evictions", self.evictions);
        sink.count_to("cluster_redeploys", self.redeploys);
        sink.count_to("cluster_iterations", self.iterations);
        sink.count_to("cluster_scrub_bytes", self.scrub_bytes);
        sink.count_to("cluster_migration_bytes", self.migration_bytes);

        if let Some(model) = &self.fault_layer {
            let s = model.stats();
            sink.count_to("cluster_fault_reads", s.reads);
            sink.count_to("cluster_fault_raw_flips", s.raw_flips);
            sink.count_to("cluster_fault_corrected", s.corrected);
            sink.count_to("cluster_fault_detected_ue", s.detected_ue);
            sink.count_to("cluster_fault_miscorrected", s.miscorrected);
            sink.count_to("cluster_fault_silent", s.silent);
            sink.count_to("cluster_fault_retries", self.fault_retries);
            sink.count_to("cluster_fault_refetches", self.fault_refetches);
            sink.count_to("cluster_fault_recomputes", self.fault_recomputes);
            sink.count_to("cluster_fault_scrub_escalations", self.fault_escalations);
            sink.gauge("cluster_fault_raw_ber", s.raw_ber());
        }

        // Incremental aggregates (updated at each mutation) replace the
        // per-snapshot rescan of every accelerator; the debug asserts pin
        // the counters to the ground truth.
        debug_assert_eq!(
            self.pending_total,
            self.accels.iter().map(|a| a.queue.len()).sum::<usize>()
        );
        debug_assert_eq!(
            self.active_total,
            self.accels.iter().map(|a| a.batch.len()).sum::<usize>()
        );
        debug_assert_eq!(
            self.cached_total,
            self.accels.iter().map(|a| a.cached.len()).sum::<usize>()
        );
        sink.gauge("cluster_pending_requests", self.pending_total as f64);
        sink.gauge("cluster_active_batch", self.active_total as f64);
        sink.gauge("cluster_cached_contexts", self.cached_total as f64);

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
            // which would underflow output_remaining on iteration completion.
            output_tokens: output.max(1),
            reuse: None,
        });
        self.pending_total += 1;
        self.start_iteration(now, acc);
    }

    /// Admits queued requests into the batch and schedules one decode
    /// iteration sized by its memory traffic.
    fn start_iteration(&mut self, now: SimTime, acc: usize) {
        if self.accels[acc].running {
            return;
        }
        let policy = self.cfg.policy;
        let kvpt = self.kvpt;
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
        // The profiler frame opens only when admission can actually do
        // work (a queued request and batch headroom): most calls arrive
        // from `iter_done` with an empty queue, and a frame costs two
        // clock reads. The gate reads sim state but never mutates it.
        let admittable = {
            let a = &self.accels[acc];
            a.batch.len() < self.cfg.max_batch as usize && !a.queue.is_empty()
        };
        if admittable {
            self.obs_prof_enter(|i| i.admission);
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
            let mut consumed: Option<(u64, u64)> = None; // (audit seq, bytes)
            let (base_tokens, base_allocs, base_bytes) = match reuse {
                Some(ctx) => match a.cached.remove(&ctx) {
                    Some(c) => {
                        self.cached_total -= 1;
                        a.reconciler.observe_release(ctx);
                        let seq = self.control.record(
                            now,
                            ControlClass::KvPrefix,
                            ctx,
                            AuditAction::Retire,
                            "followup-consumed",
                            c.kv_bytes,
                        );
                        consumed = Some((seq, c.kv_bytes));
                        (c.tokens, c.kv_allocs, c.kv_bytes)
                    }
                    None => (0, Vec::new(), 0),
                },
                None => (0, Vec::new(), 0),
            };
            if let (Some((seq, bytes)), Some(ctx)) = (consumed, reuse) {
                let _ = self.obs_prefix_end(
                    now,
                    acc,
                    ctx,
                    SpanKind::Retire,
                    Detail {
                        bytes,
                        reason: "followup-consumed",
                        audit_seq: Some(seq),
                        required: false,
                    },
                );
            }
            let a = &mut self.accels[acc];
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
            let mut evicted_here = 0u64;
            let mut evicted_obs: Vec<(u64, u64, u64)> = Vec::new(); // (ctx, seq, bytes)
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
                                    self.cached_total -= 1;
                                    a.reconciler.observe_release(v);
                                    let seq = self.control.record(
                                        now,
                                        ControlClass::KvPrefix,
                                        v,
                                        AuditAction::Evict,
                                        "memory-pressure",
                                        c.kv_bytes,
                                    );
                                    if self.obs.is_some() {
                                        evicted_obs.push((v, seq, c.kv_bytes));
                                    }
                                    let kvt = a.kv_tier(policy);
                                    for al in c.kv_allocs {
                                        let _ = kvt.free(al);
                                    }
                                }
                                evicted_here += 1;
                            }
                            None => break None,
                        }
                    }
                    Err(_) => break None,
                }
            };
            self.evictions += evicted_here;
            for (v, seq, bytes) in evicted_obs {
                let _ = self.obs_prefix_end(
                    now,
                    acc,
                    v,
                    SpanKind::Evict,
                    Detail {
                        bytes,
                        reason: "memory-pressure",
                        audit_seq: Some(seq),
                        required: false,
                    },
                );
            }
            let a = &mut self.accels[acc];
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
                        self.cached_total += 1;
                        let seq = self.control.record(
                            now,
                            ControlClass::KvPrefix,
                            ctx,
                            AuditAction::Store,
                            "stall-putback",
                            base_bytes,
                        );
                        self.obs_prefix_begin(now, acc, ctx, base_bytes, seq);
                    }
                }
                break;
            };
            a.queue.pop_front();
            self.pending_total -= 1;
            // Admit: the request's KV tail is Required state from here to
            // completion; give it an audit identity.
            let req = self.next_req;
            self.next_req += 1;
            let admit_seq = self.control.record(
                now,
                ControlClass::KvTail,
                req,
                AuditAction::Store,
                if reuse.is_some() {
                    "followup-admit"
                } else {
                    "admit"
                },
                need,
            );
            self.obs_admit(now, acc, req, admit_seq, need, reuse.is_some());
            let a = &mut self.accels[acc];
            // Prefill traffic: the new prompt's KV vectors are written.
            prefill_write_bytes += u64::from(prompt_tokens) * kvpt;
            prefill_tokens += u64::from(prompt_tokens);
            let mut kv_allocs = base_allocs;
            kv_allocs.push(alloc);
            a.batch.push(Active {
                arrival,
                req,
                context_tokens: base_tokens + prompt_tokens,
                output_remaining: output_tokens,
                kv_allocs,
                kv_bytes: base_bytes + need,
                retention,
                first_token_done: false,
            });
            self.active_total += 1;
        }
        if admittable {
            self.obs_prof_exit();
        }

        let a = &mut self.accels[acc];
        if a.batch.is_empty() {
            a.running = false;
            return;
        }

        // Iteration duration from memory traffic (§2.2 arithmetic).
        let weights_bytes = self.weights_bytes;
        let batch_len = a.batch.len() as u64;
        let kv_read_total: u64 = a
            .batch
            .context_tokens
            .iter()
            .map(|&c| u64::from(c) * kvpt)
            .sum();
        let act_bytes = self
            .cfg
            .model
            .activation_bytes(batch_len as u32, self.cfg.quant);

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
            let rber = self.aged_rber(self.weights_on_mrm, w_ret, age);
            if !self.read_survives(weights_bytes, rber) {
                // The ladder's work item: weights are Required, so the
                // only legal response is a refetch — recorded in the
                // audit log before anything else happens to the shard.
                let fault = self.obs_fault(now, acc, acc as u64, weights_bytes);
                let item = self
                    .control
                    .plan_fault_recovery(ControlClass::Weights, acc as u64);
                debug_assert_eq!(item.kind, WorkKind::Refetch);
                let seq0 = self.control.audit.len() as u64;
                self.control.record_work(now, &item, weights_bytes);
                let _ = self.obs_recovery(
                    now,
                    acc,
                    acc as u64,
                    Detail {
                        bytes: weights_bytes,
                        reason: "uncorrectable-read",
                        audit_seq: Some(seq0),
                        required: true,
                    },
                    fault,
                );
                self.fault_refetches += 1;
                t += self.accels[acc]
                    .weights_tier(policy)
                    .stream_write(weights_bytes, w_ret);
                self.accels[acc].weights_written_at = now;
            }
        }
        // KV: all active contexts read; one vector appended per context;
        // prefill KV written. The tier and the batch are disjoint fields,
        // so the batch is walked in place — no per-iteration `Vec` of
        // retentions on the hot path.
        {
            let Accel {
                hbm, alt, batch, ..
            } = &mut self.accels[acc];
            let kvt = match policy.tier_for(DataClass::KvCache) {
                TierKind::Hbm => &mut *hbm,
                _ => alt.as_mut().expect("policy requires an alternate tier"),
            };
            t += kvt.stream_read(kv_read_total);
            for &rt in &batch.retention {
                t += kvt.stream_write(kvpt, rt);
            }
            if prefill_write_bytes > 0 {
                // Prefill writes use the batch-average retention.
                let rt = batch.retention.first().copied().unwrap_or(native);
                t += kvt.stream_write(prefill_write_bytes, rt);
            }
        }
        // Activations: write + read back in HBM.
        let hbm_retention = self.hbm_retention;
        t += self.accels[acc].hbm.stream_write(act_bytes, hbm_retention);
        t += self.accels[acc].hbm.stream_read(act_bytes);
        // Prefill compute piggybacks on the decode iteration (chunked
        // prefill, [3]): the iteration takes the max of its memory time
        // and its compute time, not their sum.
        let prefill_compute =
            SimDuration::from_secs_f64(prefill_tokens as f64 / self.cfg.prefill_tokens_per_s);
        t = t.max(self.cfg.compute_floor).max(prefill_compute);

        self.iterations += 1;
        self.batch_sum += batch_len;
        self.obs_iter_begin(now, acc, batch_len);
        self.obs_prof_sim(|i| i.decode_iter, t);
        self.accels[acc].running = true;
        self.queue.schedule(now + t, Ev::IterDone { acc });
    }

    fn on_iter_done(&mut self, now: SimTime, acc: usize) {
        let policy = self.cfg.policy;
        self.obs_iter_end(now, acc);
        self.accels[acc].running = false;
        let mut finished: Vec<Active> = Vec::new();
        let mut first_tokens: Vec<u64> = Vec::new();
        {
            let a = &mut self.accels[acc];
            let mut i = 0;
            while i < a.batch.len() {
                a.batch.context_tokens[i] += 1;
                a.batch.output_remaining[i] -= 1;
                self.tokens += 1;
                if !a.batch.first_token_done[i] {
                    a.batch.first_token_done[i] = true;
                    let ttft = now.duration_since(a.batch.arrival[i]);
                    let ttft_ms = ttft.as_secs_f64() * 1e3;
                    self.ttft_ms.record(ttft_ms);
                    if let Some(sink) = self.telemetry.as_deref_mut() {
                        sink.observe("ttft_ms", ttft_ms);
                    }
                    if self.obs.is_some() {
                        first_tokens.push(a.batch.req[i]);
                    }
                }
                if a.batch.output_remaining[i] == 0 {
                    finished.push(a.batch.swap_remove(i));
                    self.active_total -= 1;
                } else {
                    i += 1;
                }
            }
        }
        for req in first_tokens {
            self.obs_first_token(now, acc, req);
        }
        for r in finished {
            self.completions += 1;
            let latency = now.duration_since(r.arrival);
            let latency_ms = latency.as_secs_f64() * 1e3;
            self.latency_ms.record(latency_ms);
            if let Some(sink) = self.telemetry.as_deref_mut() {
                sink.observe("latency_ms", latency_ms);
            }
            // The request's KV tail is retired (its need ended with the
            // final token) and the context is parked as a KV prefix for
            // follow-ups — a class transition, recorded as such.
            let retire_seq = self.control.record(
                now,
                ControlClass::KvTail,
                r.req,
                AuditAction::Retire,
                "completed",
                r.kv_bytes,
            );
            let ctx = self.next_ctx;
            self.next_ctx += 1;
            let park_seq = self.control.record(
                now,
                ControlClass::KvPrefix,
                ctx,
                AuditAction::Store,
                "park-followup",
                r.kv_bytes,
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
            self.cached_total += 1;
            if policy.uses_mrm() {
                a.reconciler
                    .observe_store(ctx, deadline, needed_until, r.retention);
            }
            self.obs_complete(
                now,
                acc,
                r.req,
                ctx,
                Detail {
                    bytes: r.kv_bytes,
                    reason: "completed",
                    audit_seq: Some(retire_seq),
                    required: true,
                },
                park_seq,
            );
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
                let rber = self.aged_rber(self.kv_on_mrm, probe.1, probe.2);
                hit_survived = self.read_survives(probe.0, rber);
                if !hit_survived {
                    self.fault_recomputes += 1;
                    fault_span = self.obs_fault(now, acc, ctx, probe.0);
                }
            }
        }
        let a = &mut self.accels[acc];
        match a.cached.get(&ctx) {
            Some(c) if now <= c.deadline && hit_survived => {
                // Valid cached KV: continue the context without prefill of
                // the history.
                self.cache_hits += 1;
                a.queue.push_back(Pending {
                    arrival: now,
                    prompt_tokens: ext,
                    output_tokens: output,
                    reuse: Some(ctx),
                });
                self.pending_total += 1;
            }
            Some(_) => {
                // Retention lapsed before the follow-up — or the cached
                // KV read came back uncorrectable: recompute the whole
                // context (the §4 soft-state recovery path). The recompute
                // is recorded before the drop, which is what makes the
                // reclaim legal under the REQUIRED-DURABLE oracle.
                self.recomputes += 1;
                let (tokens, bytes) = a
                    .cached
                    .get(&ctx)
                    .map(|c| (c.tokens, c.kv_bytes))
                    .unwrap_or((0, 0));
                let item = WorkItem {
                    id: ctx,
                    class: ControlClass::KvPrefix,
                    kind: WorkKind::RecomputeDrop,
                    reason: if hit_survived {
                        "retention-lapsed"
                    } else {
                        "uncorrectable-read"
                    },
                };
                let seq0 = self.control.audit.len() as u64;
                self.control.record_work(now, &item, bytes);
                // The recovery decision (audit seq0) authorizes the drop
                // (seq0 + 1): export that authorization as a flow arrow.
                let rec = self.obs_recovery(
                    now,
                    acc,
                    ctx,
                    Detail {
                        bytes,
                        reason: item.reason,
                        audit_seq: Some(seq0),
                        required: false,
                    },
                    fault_span,
                );
                let dropped = self.obs_prefix_end(
                    now,
                    acc,
                    ctx,
                    SpanKind::Drop,
                    Detail {
                        bytes,
                        reason: item.reason,
                        audit_seq: Some(seq0 + 1),
                        required: true,
                    },
                );
                self.obs_link(rec, dropped);
                self.free_cached(acc, ctx);
                let a = &mut self.accels[acc];
                a.queue.push_back(Pending {
                    arrival: now,
                    prompt_tokens: tokens + ext,
                    output_tokens: output,
                    reuse: None,
                });
                self.pending_total += 1;
            }
            None => {
                // Already evicted (window raced the follow-up): recompute
                // with a fresh sampled prompt. Nothing is cached, so there
                // is no drop to account — just the recompute itself.
                self.recomputes += 1;
                let seq = self.control.record(
                    now,
                    ControlClass::KvPrefix,
                    ctx,
                    AuditAction::Recompute,
                    "already-evicted",
                    0,
                );
                let _ = self.obs_recovery(
                    now,
                    acc,
                    ctx,
                    Detail {
                        bytes: 0,
                        reason: "already-evicted",
                        audit_seq: Some(seq),
                        required: false,
                    },
                    None,
                );
                let (_k, p, o) = self.mix.sample_request(&mut self.rng);
                let a = &mut self.accels[acc];
                a.queue.push_back(Pending {
                    arrival: now,
                    prompt_tokens: p,
                    output_tokens: o,
                    reuse: None,
                });
                self.pending_total += 1;
            }
        }
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
            self.cached_total -= 1;
        }
    }

    fn on_cache_expire(&mut self, now: SimTime, acc: usize, ctx: u64) {
        if let Some(bytes) = self.accels[acc].cached.get(&ctx).map(|c| c.kv_bytes) {
            let seq = self.control.record(
                now,
                ControlClass::KvPrefix,
                ctx,
                AuditAction::Drop,
                "ttl-expired",
                bytes,
            );
            let _ = self.obs_prefix_end(
                now,
                acc,
                ctx,
                SpanKind::Drop,
                Detail {
                    bytes,
                    reason: "ttl-expired",
                    audit_seq: Some(seq),
                    required: false,
                },
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
            let sweep = self.obs_sweep_begin(now, acc);
            let horizon = now + self.cfg.maintenance_period * 2;
            self.obs_prof_enter(|i| i.reconcile_plan);
            let items = self.accels[acc]
                .reconciler
                .plan(now, horizon, &self.control.registry);
            self.obs_prof_exit();
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
                        let rber = self.aged_rber(self.kv_on_mrm, retention, age);
                        if self.read_survives(bytes, rber) {
                            let a = &mut self.accels[acc];
                            a.kv_tier(policy).charge_scrub(bytes);
                            a.reconciler.observe_refreshed(ctx, now);
                            if let Some(c) = a.cached.get_mut(&ctx) {
                                c.deadline = rearm_deadline(now, retention);
                            }
                            let seq0 = self.control.audit.len() as u64;
                            self.control.record_work(now, &item, bytes);
                            self.obs_work(
                                now,
                                acc,
                                SpanKind::Refresh,
                                ctx,
                                Detail {
                                    bytes,
                                    reason: item.reason,
                                    audit_seq: Some(seq0),
                                    required: false,
                                },
                                None,
                            );
                            self.scrubs += 1;
                            self.scrub_bytes += bytes;
                        } else {
                            self.fault_escalations += 1;
                            let fault = self.obs_fault(now, acc, ctx, bytes);
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
                            let seq = self.control.record(
                                now,
                                ControlClass::KvPrefix,
                                ctx,
                                AuditAction::Escalate,
                                "scrub-verify-failed",
                                bytes,
                            );
                            self.obs_work(
                                now,
                                acc,
                                SpanKind::Migrate,
                                ctx,
                                Detail {
                                    bytes,
                                    reason: "scrub-verify-failed",
                                    audit_seq: Some(seq),
                                    required: false,
                                },
                                fault,
                            );
                            self.migrations += 1;
                            self.migration_bytes += bytes;
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
                        let seq0 = self.control.audit.len() as u64;
                        self.control.record_work(now, &item, bytes);
                        self.obs_work(
                            now,
                            acc,
                            SpanKind::Migrate,
                            ctx,
                            Detail {
                                bytes,
                                reason: item.reason,
                                audit_seq: Some(seq0),
                                required: false,
                            },
                            None,
                        );
                        self.migrations += 1;
                        self.migration_bytes += bytes;
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
                        let seq = self.control.record(
                            now,
                            ControlClass::KvPrefix,
                            ctx,
                            action,
                            item.reason,
                            bytes,
                        );
                        let span_kind = if item.kind == WorkKind::Retire {
                            SpanKind::Retire
                        } else {
                            SpanKind::Drop
                        };
                        let _ = self.obs_prefix_end(
                            now,
                            acc,
                            ctx,
                            span_kind,
                            Detail {
                                bytes,
                                reason: item.reason,
                                audit_seq: Some(seq),
                                required: false,
                            },
                        );
                        self.free_cached(acc, ctx);
                        self.drops += 1;
                    }
                    WorkKind::Refetch => unreachable!("plan never emits refetch"),
                }
            }
            self.obs_sweep_end(now, sweep);
        }
        self.queue
            .schedule(now + self.cfg.maintenance_period, Ev::Maintenance { acc });
    }

    /// §2's model swap: bulk-overwrite the weight shard in its tier. With
    /// DCM the new weights are programmed for the deployment period (they
    /// will be overwritten anyway); fixed systems pay the native class.
    fn on_weight_redeploy(&mut self, now: SimTime, acc: usize) {
        let policy = self.cfg.policy;
        let weights_bytes = self.cfg.model.weights_bytes(self.cfg.quant);
        let period = self
            .cfg
            .weight_redeploy_period
            .expect("redeploy event without period");
        let retention = retention_decision(
            policy.tier_for(DataClass::Weights) == TierKind::Mrm,
            policy.uses_dcm(),
            period,
            presets::mrm_hours().retention,
            self.cfg.lifetime_margin,
        );
        // The old shard's need ends (Retire — always legal for Required
        // data) and the new model's shard is stored in its place.
        self.control.record(
            now,
            ControlClass::Weights,
            acc as u64,
            AuditAction::Retire,
            "superseded",
            weights_bytes,
        );
        let seq = self.control.record(
            now,
            ControlClass::Weights,
            acc as u64,
            AuditAction::Store,
            "redeploy",
            weights_bytes,
        );
        self.obs_work(
            now,
            acc,
            SpanKind::Redeploy,
            acc as u64,
            Detail {
                bytes: weights_bytes,
                reason: "superseded",
                audit_seq: Some(seq),
                required: false,
            },
            None,
        );
        let wt = self.accels[acc].weights_tier(policy);
        let _ = wt.stream_write(weights_bytes, retention);
        self.accels[acc].weights_written_at = now;
        self.accels[acc].weights_retention = retention;
        self.redeploys += 1;
        self.queue
            .schedule(now + period, Ev::WeightRedeploy { acc });
    }

    fn finish(mut self, end: SimTime) -> (ClusterReport, AuditLog) {
        // Close out any snapshot boundaries between the last event and the
        // end of the simulated window.
        self.pump_telemetry(end);
        self.obs_finish(end);
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
                    weight_refetches: self.fault_refetches,
                    kv_recomputes: self.fault_recomputes,
                    scrub_escalations: self.fault_escalations,
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
            completions: self.completions,
            tokens: self.tokens,
            tokens_per_s,
            cache_hits: self.cache_hits,
            recomputes: self.recomputes,
            scrubs: self.scrubs,
            migrations: self.migrations,
            drops: self.drops,
            evictions: self.evictions,
            redeploys: self.redeploys,
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
    sink: &mut dyn TelemetrySink,
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
    use mrm_telemetry::SimTelemetry;

    fn run(cfg: ClusterConfig) -> ClusterReport {
        ClusterSim::new(cfg).run_with_audit().0
    }

    fn quick(policy: PlacementPolicy) -> ClusterReport {
        let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
        cfg.duration = SimDuration::from_secs(30);
        run(cfg)
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
                assert_eq!(reg.counter_value("cluster_scrubs"), Some(plain.scrubs));
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
