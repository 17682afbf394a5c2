//! `soak_lifecycle`: the `e16_soak` shape, driven from the benchmark's
//! own files so every call into a layer can be timed from outside.
//!
//! This module follows `crates/bench/src/bin/e16_soak.rs` call for call
//! (same RNG draws in the same order), so at e16's seed and full scale it
//! reproduces e16's saved counter tuple. Two things differ: each call into
//! a layer's public API goes through [`Timers::time`], which is a plain
//! call when timers are off, and a broken checkpoint invariant is an
//! `Err` for the harness to count, not a panic.

use std::time::Instant;

use mrm_control::{AuditAction, ControlClass, ControlPlane, Reconciler, RetentionRegistry};
use mrm_controller::dcm::DcmController;
use mrm_controller::ftl::{Ftl, FtlConfig};
use mrm_controller::mrm_block::{MrmBlockController, ZoneError, ZoneId, ZoneState};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
use mrm_sim::event::EventQueue;
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_sim::units::MIB;
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::sessions::SessionSampler;

/// The seed `e16_soak` runs at.
pub const E16_SEED: u64 = 0x4D52_4D16_0E16_50AC;
/// e16's full scale: three sim-years, 48 sessions a day, a retention
/// window reconfiguration every 90 days.
const DAYS: u64 = 1095;
const SESSIONS_PER_DAY: u64 = 48;
const RECONFIG_EVERY_DAYS: u64 = 90;
const ZONE_BYTES: u64 = 256 * 1024;
const DAY_NS: u64 = 86_400_000_000_000;

/// Simulated seconds one soak run advances.
pub const SIM_SECONDS: f64 = (DAYS * 86_400) as f64;

/// Follow-up windows the quarterly reconfiguration cycles through.
const FOLLOWUPS: [SimDuration; 3] = [
    SimDuration::from_secs(20),
    SimDuration::from_secs(600),
    SimDuration::from_secs(3600),
];

/// The layers the soak's calls are attributed to, with their metric
/// prefixes.
#[derive(Clone, Copy)]
pub enum Layer {
    Queue,
    Sample,
    Zones,
    Dcm,
    Ftl,
    Reconcile,
    Audit,
    Checkpoint,
}

pub const LAYER_NAMES: [&str; 8] = [
    "sim.queue",
    "workload.sample",
    "controller.zones",
    "controller.dcm",
    "controller.ftl",
    "control.reconcile",
    "control.audit",
    "control.checkpoint",
];

/// Benchmark-side timers: calls and host nanoseconds per layer. No timed
/// call nests inside another, so each layer's time is its self time.
#[derive(Default)]
pub struct Timers {
    on: bool,
    pub calls: [u64; 8],
    pub ns: [u64; 8],
}

impl Timers {
    fn time<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.ns[layer as usize] += t.elapsed().as_nanos() as u64;
        self.calls[layer as usize] += 1;
        r
    }
}

#[derive(Clone, Copy)]
enum Ev {
    Session,
    Maintain,
    Checkpoint,
}

/// What one soak run produced.
pub struct SoakRun {
    /// e16's saved tuple: checkpoints, sessions, kv_bytes,
    /// zone_rotations, work_items, reconfigs.
    pub tuple: [u64; 6],
    pub events: u64,
    /// Host seconds for the whole run, set-up included.
    pub wall_s: f64,
    pub timers: Timers,
    pub audit_records: u64,
    pub refreshes: u64,
    pub zone_reads: u64,
    pub zone_read_failures: u64,
    pub ftl_errors: u64,
    pub ftl_write_amp: f64,
    pub dcm_derates: u64,
}

struct Soak {
    t: Timers,
    rng: SimRng,
    sampler: SessionSampler,
    kv_bytes_per_token: u64,

    zones: MrmBlockController,
    cur_zone: ZoneId,
    dcm: DcmController,
    ftl: Ftl,
    ftl_dead: bool,

    control: ControlPlane,
    prefix_recon: Reconciler,
    followup_idx: usize,

    next_id: u64,
    dcm_addr: u64,
    dcm_capacity: u64,

    sessions: u64,
    kv_bytes: u64,
    zone_rotations: u64,
    zone_reads: u64,
    zone_read_failures: u64,
    ftl_errors: u64,
    work_items: u64,
    reconfigs: u64,
    checkpoints: u64,
}

impl Soak {
    /// Builds controllers, fault models and the control plane.
    fn new(seed: u64, timed: bool) -> Soak {
        let mut zone_tech = presets::mrm_hours();
        zone_tech.capacity_bytes = 32 * MIB;
        let mut zones = MrmBlockController::new(MemoryDevice::new(zone_tech), ZONE_BYTES);
        zones.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 1));
        let cur_zone = zones.open_zone().expect("fresh controller has free zones");

        let mut dcm_tech = presets::mrm_hours();
        dcm_tech.capacity_bytes = 32 * MIB;
        let dcm_capacity = dcm_tech.capacity_bytes;
        let mut dcm = DcmController::new(MemoryDevice::new(dcm_tech), 1.5);
        dcm.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 2));

        let cfg = FtlConfig {
            blocks: 64,
            pages_per_block: 16,
            page_bytes: 4096,
            logical_fraction: 0.8,
            gc_threshold_blocks: 4,
            ue_retire_threshold: 3,
            ..FtlConfig::small()
        };
        let mut ftl = Ftl::new(cfg);
        ftl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed ^ 3));

        Soak {
            t: Timers {
                on: timed,
                ..Timers::default()
            },
            rng: SimRng::seed_from(seed),
            sampler: SessionSampler::conversation_default(4096),
            kv_bytes_per_token: ModelConfig::llama2_70b().kv_bytes_per_token(Quantization::Fp16),
            zones,
            cur_zone,
            dcm,
            ftl,
            ftl_dead: false,
            control: ControlPlane::serving_default(FOLLOWUPS[0]),
            prefix_recon: Reconciler::new(ControlClass::KvPrefix),
            followup_idx: 0,
            next_id: 0,
            dcm_addr: 0,
            dcm_capacity,
            sessions: 0,
            kv_bytes: 0,
            zone_rotations: 0,
            zone_reads: 0,
            zone_read_failures: 0,
            ftl_errors: 0,
            work_items: 0,
            reconfigs: 0,
            checkpoints: 0,
        }
    }

    /// Appends into the current zone, rotating to the least-worn free
    /// zone (or resetting the oldest expiring one) when it fills.
    fn append_kv(&mut self, now: SimTime, bytes: u64, retention: SimDuration) {
        let bytes = bytes.clamp(1, ZONE_BYTES);
        for _ in 0..3 {
            let cur = self.cur_zone;
            let zones = &mut self.zones;
            match self
                .t
                .time(Layer::Zones, || zones.append(now, cur, bytes, retention))
            {
                Ok(_) => return,
                Err(ZoneError::ZoneOverflow)
                | Err(ZoneError::NotOpen)
                | Err(ZoneError::ZoneRetired) => {
                    let _ = self.t.time(Layer::Zones, || zones.finish_zone(cur));
                    self.zone_rotations += 1;
                    match self.t.time(Layer::Zones, || zones.open_zone_least_worn()) {
                        Ok(z) => self.cur_zone = z,
                        Err(_) => {
                            let horizon = now.saturating_add(SimDuration::from_days(3650));
                            let victims = self
                                .t
                                .time(Layer::Zones, || zones.zones_expiring_before(horizon));
                            let Some((victim, _)) = victims.first().copied() else {
                                return;
                            };
                            let _ = self.t.time(Layer::Zones, || zones.reset_zone(victim));
                            if let Ok(z) =
                                self.t.time(Layer::Zones, || zones.open_zone_least_worn())
                            {
                                self.cur_zone = z;
                            }
                        }
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// One interactive session: KV into zones and DCM, the parked prefix
    /// registered with the reconciler, reads through the fault ladder.
    fn session(&mut self, now: SimTime) {
        let (sampler, rng) = (&self.sampler, &mut self.rng);
        let s = self.t.time(Layer::Sample, || sampler.sample(rng));
        self.sessions += 1;
        let id = self.next_id;
        self.next_id += 1;

        let context = s.final_context_tokens();
        let bytes = (context * self.kv_bytes_per_token / 4096).clamp(4096, 128 * 1024);
        self.kv_bytes += bytes;

        let followup = FOLLOWUPS[self.followup_idx];
        let max_gap = s.max_gap();
        self.append_kv(now, bytes, max_gap.max(followup));
        let control = &mut self.control;
        self.t.time(Layer::Audit, || {
            control.record(
                now,
                ControlClass::KvPrefix,
                id,
                AuditAction::Store,
                "session-kv",
                bytes,
            )
        });
        let recon = &mut self.prefix_recon;
        self.t.time(Layer::Reconcile, || {
            recon.observe_store(
                id,
                now.saturating_add(followup),
                now.saturating_add(max_gap),
                followup,
            )
        });

        for turn in &s.turns {
            let len = (u64::from(turn.prompt_tokens) + u64::from(turn.output_tokens)).max(64);
            let addr = self.dcm_addr % (self.dcm_capacity - len);
            self.dcm_addr = self.dcm_addr.wrapping_add(len * 7 + 4096);
            let hint = turn.gap.max(SimDuration::from_secs(30));
            let dcm = &mut self.dcm;
            let _ = self.t.time(Layer::Dcm, || dcm.write(now, addr, len, hint));
            if self.rng.gen_bool(0.25) {
                if let Ok((_, _, action)) =
                    self.t.time(Layer::Dcm, || dcm.read_checked(now, addr, len))
                {
                    if action == RecoveryAction::Retired {
                        let registry = &self.control.registry;
                        let item = self
                            .t
                            .time(Layer::Reconcile, || recon.fault_recovery(id, registry));
                        let control = &mut self.control;
                        self.t
                            .time(Layer::Audit, || control.record_work(now, &item, bytes));
                        self.work_items += 1;
                    }
                }
            }
        }

        if self.rng.gen_bool(0.2) {
            let len = bytes.min(ZONE_BYTES);
            let cur = self.cur_zone;
            let zones = &mut self.zones;
            if let Ok(ptr) = self.t.time(Layer::Zones, || zones.write_pointer(cur)) {
                if ptr >= len {
                    let scrub = SimDuration::from_secs(12 * 3600);
                    self.zone_reads += 1;
                    match self.t.time(Layer::Zones, || {
                        zones.read_checked(now, cur, ptr - len, len, scrub)
                    }) {
                        Ok(r) if !r.recovered() => self.zone_read_failures += 1,
                        Err(_) => self.zone_read_failures += 1,
                        Ok(_) => {}
                    }
                }
            }
        }
    }

    /// Daily maintenance: reconcile, scrub, FTL churn, and the periodic
    /// retention-window reconfiguration.
    fn maintain(&mut self, now: SimTime, day: u64) {
        let horizon = now.saturating_add(SimDuration::from_days(1));
        let (recon, registry) = (&mut self.prefix_recon, &self.control.registry);
        let items = self
            .t
            .time(Layer::Reconcile, || recon.plan(now, horizon, registry));
        for item in &items {
            let control = &mut self.control;
            self.t
                .time(Layer::Audit, || control.record_work(now, item, 4096));
            match item.kind {
                mrm_control::WorkKind::Refresh => {
                    self.t
                        .time(Layer::Reconcile, || recon.observe_refreshed(item.id, now));
                }
                _ => self
                    .t
                    .time(Layer::Reconcile, || recon.observe_release(item.id)),
            }
        }
        self.work_items += items.len() as u64;

        let scrub_before = now.saturating_add(SimDuration::from_secs(12 * 3600));
        let zones = &mut self.zones;
        let due = self
            .t
            .time(Layer::Zones, || zones.zones_expiring_before(scrub_before));
        for (z, _) in due {
            let _ = self.t.time(Layer::Zones, || {
                zones.scrub_zone(now, z, SimDuration::from_secs(12 * 3600))
            });
        }

        if !self.ftl_dead {
            let ftl = &mut self.ftl;
            let logical = ftl.config().logical_pages();
            let year = day / 365;
            let rber = [1e-6, 7e-4, 3e-3][year.min(2) as usize];
            for _ in 0..32 {
                let lpn = self.rng.gen_range_u64(logical);
                if self.t.time(Layer::Ftl, || ftl.write(lpn)).is_err() {
                    self.ftl_errors += 1;
                    self.ftl_dead = true;
                    break;
                }
            }
            for _ in 0..8 {
                let lpn = self.rng.gen_range_u64(logical);
                let _ = self.t.time(Layer::Ftl, || ftl.trim(lpn));
            }
            for _ in 0..16 {
                let lpn = self.rng.gen_range_u64(logical);
                if self
                    .t
                    .time(Layer::Ftl, || ftl.read_checked(lpn, rber))
                    .is_err()
                {
                    self.ftl_errors += 1;
                }
            }
        }

        if day > 0 && day.is_multiple_of(RECONFIG_EVERY_DAYS) {
            self.followup_idx = (self.followup_idx + 1) % FOLLOWUPS.len();
            let w = FOLLOWUPS[self.followup_idx];
            let control = &mut self.control;
            self.t.time(Layer::Audit, || {
                control.registry = RetentionRegistry::serving_default(w);
                control.record(
                    now,
                    ControlClass::KvPrefix,
                    u64::MAX,
                    AuditAction::Migrate,
                    "retention-window-reconfigured",
                    0,
                )
            });
            self.reconfigs += 1;
        }
    }

    /// Stop-the-world invariant audit, as in e16: FTL structure, zero
    /// required-drop violations, a dense and monotone audit log, zone
    /// accounting and the DCM margin clamp.
    fn checkpoint(&mut self, day: u64) -> Result<(), String> {
        self.checkpoints += 1;

        let ftl = &self.ftl;
        self.t
            .time(Layer::Ftl, || ftl.check_invariants())
            .map_err(|e| format!("day {day}: FTL invariants violated: {e}"))?;

        let control = &self.control;
        self.t.time(Layer::Checkpoint, || {
            let bad = control.audit.required_drop_violations(&control.registry);
            if !bad.is_empty() {
                return Err(format!(
                    "day {day}: required-drop violations at seqs {bad:?}"
                ));
            }
            let records = control.audit.records();
            for (i, r) in records.iter().enumerate() {
                if r.seq != i as u64 {
                    return Err(format!("day {day}: audit seq hole at {i}"));
                }
                if i > 0 && records[i - 1].at > r.at {
                    return Err(format!("day {day}: audit time regressed at seq {i}"));
                }
            }
            Ok(())
        })?;

        let zones = &self.zones;
        self.t.time(Layer::Zones, || {
            let mut retired = 0u64;
            for i in 0..zones.zone_count() {
                let z = ZoneId(i as u32);
                let state = zones
                    .zone_state(z)
                    .map_err(|e| format!("day {day}: zone {i}: {e:?}"))?;
                let ptr = zones.write_pointer(z).unwrap_or(0);
                if ptr > ZONE_BYTES {
                    return Err(format!(
                        "day {day}: zone {i} write pointer {ptr} beyond zone"
                    ));
                }
                if state == ZoneState::Retired {
                    retired += 1;
                }
            }
            if retired != zones.zones_retired() {
                return Err(format!(
                    "day {day}: retirement counter disagrees with zone states"
                ));
            }
            Ok(())
        })?;

        let dcm = &self.dcm;
        let margin = self.t.time(Layer::Dcm, || dcm.margin());
        if !(1.0..=4.0).contains(&margin) {
            return Err(format!("day {day}: DCM margin {margin} escaped [1, 4]"));
        }
        Ok(())
    }
}

/// Host seconds to build the soak's stack (controllers, fault models,
/// control plane); the stack is dropped unused.
pub fn setup_only(seed: u64) -> f64 {
    let t0 = Instant::now();
    let soak = std::hint::black_box(Soak::new(seed, false));
    let s = t0.elapsed().as_secs_f64();
    drop(soak);
    s
}

/// One full-scale soak at `seed`. With `timed`, every call into a layer
/// is timed; the simulated outcome is the same either way.
pub fn run(seed: u64, timed: bool) -> Result<SoakRun, String> {
    let t0 = Instant::now();
    let mut soak = Soak::new(seed, timed);

    let checkpoint_every = (DAYS / 10).max(1);
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let day_d = SimDuration::from_days(1);
    for day in 0..DAYS {
        let base = SimTime::ZERO + day_d * day;
        soak.t.time(Layer::Queue, || {
            queue.schedule(base + SimDuration::from_secs(86_399), Ev::Maintain)
        });
        if day > 0 && day.is_multiple_of(checkpoint_every) {
            soak.t
                .time(Layer::Queue, || queue.schedule(base, Ev::Checkpoint));
        }
        for _ in 0..SESSIONS_PER_DAY {
            let off = SimDuration::from_secs(soak.rng.gen_range_u64(86_000));
            soak.t
                .time(Layer::Queue, || queue.schedule(base + off, Ev::Session));
        }
    }

    let mut events = 0u64;
    while let Some((t, ev)) = soak.t.time(Layer::Queue, || queue.pop()) {
        events += 1;
        let day = t.as_nanos() / DAY_NS;
        match ev {
            Ev::Session => soak.session(t),
            Ev::Maintain => soak.maintain(t, day),
            Ev::Checkpoint => soak.checkpoint(day)?,
        }
    }
    soak.checkpoint(DAYS)?;
    let wall_s = t0.elapsed().as_secs_f64();

    if soak.checkpoints < 10 {
        return Err(format!("soak made only {} checkpoints", soak.checkpoints));
    }
    if soak.sessions < DAYS * SESSIONS_PER_DAY * 9 / 10 {
        return Err(format!("soak ran only {} sessions", soak.sessions));
    }
    let summary = soak.control.summary();
    Ok(SoakRun {
        tuple: [
            soak.checkpoints,
            soak.sessions,
            soak.kv_bytes,
            soak.zone_rotations,
            soak.work_items,
            soak.reconfigs,
        ],
        events,
        wall_s,
        audit_records: summary.audit_records,
        refreshes: summary.refreshes,
        zone_reads: soak.zone_reads,
        zone_read_failures: soak.zone_read_failures,
        ftl_errors: soak.ftl_errors,
        ftl_write_amp: soak.ftl.stats().write_amplification(),
        dcm_derates: soak.dcm.derates(),
        timers: soak.t,
    })
}
