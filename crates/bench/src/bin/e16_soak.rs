//! **E16** (§4/§5) — multi-year managed-retention soak.
//!
//! The fuzzer (`mrm-fuzz`) attacks components with adversarial op
//! sequences; this experiment attacks them with *time*. One seeded run
//! drives three sim-years of sustained serving load through the whole
//! managed-retention stack at once — session KV appended into the zoned
//! block controller, per-turn lifetime hints through the DCM controller,
//! block-device churn through the wear-leveled FTL, and a live control
//! plane (registry + reconciler + audit log) that absorbs expiries,
//! retention-window reconfigurations, and fault recoveries as they
//! happen. The fault ladder escalates with device age, but the full run
//! does not reach late life through wear: it reports 0 derates and 0
//! retired zones at every checkpoint. Nothing fails the run for that
//! yet.
//!
//! At evenly spaced checkpoints the run *stops and proves* the stack is
//! still sane: FTL invariants hold, the audit log is dense and monotone
//! with zero REQUIRED-DURABLE violations, zone accounting is within
//! bounds, and the DCM safety margin stays inside its clamp. Any
//! violation panics (non-zero exit), so CI can run `--quick` as a smoke.
//!
//! Determinism is part of the contract: two runs at the same seed must
//! produce byte-identical reports. Everything is driven by `SimRng` and
//! the calendar [`EventQueue`] — no wall-clock input anywhere.

use mrm_bench::{heading, save_json};
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

const SEED: u64 = 0x4D52_4D16_0E16_50AC;
const ZONE_BYTES: u64 = 256 * 1024;

/// Scale knobs: `--quick` is the CI smoke (six sim-weeks), the default
/// is the full three-sim-year endurance run.
struct Scale {
    days: u64,
    sessions_per_day: u64,
    reconfig_every_days: u64,
    label: &'static str,
}

impl Scale {
    fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--quick") {
            Scale {
                days: 42,
                sessions_per_day: 24,
                reconfig_every_days: 10,
                label: "quick (CI smoke)",
            }
        } else {
            Scale {
                days: 1095,
                sessions_per_day: 48,
                reconfig_every_days: 90,
                label: "full (3 sim-years)",
            }
        }
    }
}

/// Events driving the soak through the calendar queue — the queue itself
/// is under test here too, across years of sim-time and day-boundary
/// rollovers.
#[derive(Clone, Copy, Debug)]
enum Ev {
    Session,
    Maintain,
    Checkpoint,
}

struct Soak {
    scale: Scale,
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

    // Counters for the checkpoint report.
    sessions: u64,
    turns: u64,
    kv_bytes: u64,
    zone_rotations: u64,
    zone_read_failures: u64,
    ftl_errors: u64,
    work_items: u64,
    reconfigs: u64,
    violations: u64,
    checkpoints: u64,
}

/// Follow-up windows the quarterly reconfiguration cycles through.
const FOLLOWUPS: [SimDuration; 3] = [
    SimDuration::from_secs(20),
    SimDuration::from_secs(600),
    SimDuration::from_secs(3600),
];

impl Soak {
    fn new(scale: Scale) -> Soak {
        let mut zone_tech = presets::mrm_hours();
        zone_tech.capacity_bytes = 32 * MIB;
        let mut zones = MrmBlockController::new(MemoryDevice::new(zone_tech), ZONE_BYTES);
        zones.attach_faults(FaultModel::new(FaultConfig::mrm(), SEED ^ 1));
        let cur_zone = zones.open_zone().expect("fresh controller has free zones");

        let mut dcm_tech = presets::mrm_hours();
        dcm_tech.capacity_bytes = 32 * MIB;
        let dcm_capacity = dcm_tech.capacity_bytes;
        let mut dcm = DcmController::new(MemoryDevice::new(dcm_tech), 1.5);
        dcm.attach_faults(FaultModel::new(FaultConfig::mrm(), SEED ^ 2));

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
        ftl.attach_faults(FaultModel::new(FaultConfig::mrm(), SEED ^ 3));

        Soak {
            rng: SimRng::seed_from(SEED),
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
            turns: 0,
            kv_bytes: 0,
            zone_rotations: 0,
            zone_read_failures: 0,
            ftl_errors: 0,
            work_items: 0,
            reconfigs: 0,
            violations: 0,
            checkpoints: 0,
            scale,
        }
    }

    /// Appends into the current zone, rotating (finish + least-worn open,
    /// falling back to resetting an old zone) when it fills. Wear spreads
    /// because rotation always picks the least-worn free zone.
    fn append_kv(&mut self, now: SimTime, bytes: u64, retention: SimDuration) {
        let bytes = bytes.clamp(1, ZONE_BYTES);
        for _ in 0..3 {
            match self.zones.append(now, self.cur_zone, bytes, retention) {
                Ok(_) => return,
                Err(ZoneError::ZoneOverflow)
                | Err(ZoneError::NotOpen)
                | Err(ZoneError::ZoneRetired) => {
                    let _ = self.zones.finish_zone(self.cur_zone);
                    self.zone_rotations += 1;
                    match self.zones.open_zone_least_worn() {
                        Ok(z) => self.cur_zone = z,
                        Err(_) => {
                            // No Empty zones left: reclaim the oldest
                            // expiring full zone and retry.
                            let horizon = now.saturating_add(SimDuration::from_days(3650));
                            let victims = self.zones.zones_expiring_before(horizon);
                            let Some((victim, _)) = victims.first().copied() else {
                                return;
                            };
                            let _ = self.zones.reset_zone(victim);
                            if let Ok(z) = self.zones.open_zone_least_worn() {
                                self.cur_zone = z;
                            }
                        }
                    }
                }
                Err(_) => return,
            }
        }
    }

    /// One interactive session: store KV in zones + DCM, register the
    /// parked prefix with the reconciler, read back through the fault
    /// ladder, and record the lifecycle in the audit log.
    fn session(&mut self, now: SimTime) {
        let s = self.sampler.sample(&mut self.rng);
        self.sessions += 1;
        self.turns += s.turns.len() as u64;
        let id = self.next_id;
        self.next_id += 1;

        let context = s.final_context_tokens();
        // The real KV footprint is GBs; the simulated device is 32 MiB.
        // Scale to a per-session footprint that still fills and rotates
        // zones at soak timescales.
        let bytes = (context * self.kv_bytes_per_token / 4096).clamp(4096, 128 * 1024);
        self.kv_bytes += bytes;

        let followup = FOLLOWUPS[self.followup_idx];
        let max_gap = s.max_gap();
        self.append_kv(now, bytes, max_gap.max(followup));
        self.control.record(
            now,
            ControlClass::KvPrefix,
            id,
            AuditAction::Store,
            "session-kv",
            bytes,
        );
        self.prefix_recon.observe_store(
            id,
            now.saturating_add(followup),
            now.saturating_add(max_gap),
            followup,
        );

        // Per-turn DCM writes with the think-gap as the lifetime hint:
        // the controller picks the covering retention class.
        for turn in &s.turns {
            let len = (u64::from(turn.prompt_tokens) + u64::from(turn.output_tokens)).max(64);
            let addr = self.dcm_addr % (self.dcm_capacity - len);
            self.dcm_addr = self.dcm_addr.wrapping_add(len * 7 + 4096);
            let hint = turn.gap.max(SimDuration::from_secs(30));
            let _ = self.dcm.write(now, addr, len, hint);
            // Read a fraction back through the fault ladder; an
            // unrecoverable read means the KV must be recomputed — which
            // the control plane records *before* the drop.
            if self.rng.gen_bool(0.25) {
                if let Ok((_, _, action)) = self.dcm.read_checked(now, addr, len) {
                    if action == RecoveryAction::Retired {
                        let item = self.prefix_recon.fault_recovery(id, &self.control.registry);
                        self.control.record_work(now, &item, bytes);
                        self.work_items += 1;
                    }
                }
            }
        }

        // Occasionally re-read the zone-resident KV through the zone
        // recovery state machine (retry → scrub escalation → retire).
        if self.rng.gen_bool(0.2) {
            let len = bytes.min(ZONE_BYTES);
            if let Ok(ptr) = self.zones.write_pointer(self.cur_zone) {
                if ptr >= len {
                    let scrub = SimDuration::from_secs(12 * 3600);
                    match self
                        .zones
                        .read_checked(now, self.cur_zone, ptr - len, len, scrub)
                    {
                        Ok(r) if !r.recovered() => self.zone_read_failures += 1,
                        Err(_) => self.zone_read_failures += 1,
                        Ok(_) => {}
                    }
                }
            }
        }
    }

    /// Daily maintenance: reconcile expiries, scrub deadline-near zones,
    /// churn the FTL, and (quarterly) reconfigure the retention window.
    fn maintain(&mut self, now: SimTime, day: u64) {
        // Reconciler pass over parked prefixes due within the next day.
        let horizon = now.saturating_add(SimDuration::from_days(1));
        let items = self.prefix_recon.plan(now, horizon, &self.control.registry);
        for item in &items {
            self.control.record_work(now, item, 4096);
            match item.kind {
                mrm_control::WorkKind::Refresh => {
                    self.prefix_recon.observe_refreshed(item.id, now);
                }
                _ => self.prefix_recon.observe_release(item.id),
            }
        }
        self.work_items += items.len() as u64;

        // Scrub zones whose retention deadline falls within 12 hours.
        let scrub_before = now.saturating_add(SimDuration::from_secs(12 * 3600));
        for (z, _) in self.zones.zones_expiring_before(scrub_before) {
            let _ = self
                .zones
                .scrub_zone(now, z, SimDuration::from_secs(12 * 3600));
        }

        // FTL churn: block-device wear with an age-escalating RBER ladder.
        if !self.ftl_dead {
            let logical = self.ftl.config().logical_pages();
            let year = day / 365;
            let rber = [1e-6, 7e-4, 3e-3][year.min(2) as usize];
            for _ in 0..32 {
                let lpn = self.rng.gen_range_u64(logical);
                if self.ftl.write(lpn).is_err() {
                    self.ftl_errors += 1;
                    self.ftl_dead = true;
                    break;
                }
            }
            for _ in 0..8 {
                let lpn = self.rng.gen_range_u64(logical);
                let _ = self.ftl.trim(lpn);
            }
            for _ in 0..16 {
                let lpn = self.rng.gen_range_u64(logical);
                match self.ftl.read_checked(lpn, rber) {
                    Ok(_) => {}
                    Err(_) => self.ftl_errors += 1,
                }
            }
        }

        // Quarterly retention-window reconfiguration: the DCM thesis is
        // that retention is a software decision, so change it live.
        if day > 0 && day.is_multiple_of(self.scale.reconfig_every_days) {
            self.followup_idx = (self.followup_idx + 1) % FOLLOWUPS.len();
            let w = FOLLOWUPS[self.followup_idx];
            self.control.registry = RetentionRegistry::serving_default(w);
            self.control.record(
                now,
                ControlClass::KvPrefix,
                u64::MAX,
                AuditAction::Migrate,
                "retention-window-reconfigured",
                0,
            );
            self.reconfigs += 1;
        }
    }

    /// Stop-the-world invariant audit. Panics (non-zero exit) on any
    /// violation; prints one deterministic line per checkpoint.
    fn checkpoint(&mut self, now: SimTime, day: u64) {
        self.checkpoints += 1;

        // 1. FTL structural invariants (map/inverse agreement, valid
        //    counts, free accounting).
        if let Err(e) = self.ftl.check_invariants() {
            self.violations += 1;
            panic!("day {day}: FTL invariants violated: {e}");
        }

        // 2. REQUIRED-DURABLE: no Required-class reclaim without a
        //    recorded recovery, under the *current* registry.
        let bad = self
            .control
            .audit
            .required_drop_violations(&self.control.registry);
        if !bad.is_empty() {
            self.violations += 1;
            panic!("day {day}: required-drop violations at seqs {bad:?}");
        }

        // 3. Audit log structure: dense seqs, nondecreasing sim-time.
        let records = self.control.audit.records();
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "day {day}: audit seq hole at {i}");
            if i > 0 {
                assert!(
                    records[i - 1].at <= r.at,
                    "day {day}: audit time regressed at seq {i}"
                );
            }
        }

        // 4. Zone accounting: write pointers within bounds, retirement
        //    bounded by the zone population.
        let zone_count = self.zones.zone_count();
        let mut full = 0u64;
        let mut retired = 0u64;
        for i in 0..zone_count {
            let z = ZoneId(i as u32);
            let state = self.zones.zone_state(z).expect("zone ids are dense");
            let ptr = self.zones.write_pointer(z).unwrap_or(0);
            assert!(
                ptr <= ZONE_BYTES,
                "day {day}: zone {i} write pointer {ptr} beyond zone"
            );
            match state {
                ZoneState::Full => full += 1,
                ZoneState::Retired => retired += 1,
                _ => {}
            }
        }
        assert_eq!(
            retired,
            self.zones.zones_retired(),
            "day {day}: retirement counter disagrees with zone states"
        );

        // 5. DCM safety margin stays inside its documented clamp.
        let margin = self.dcm.margin();
        assert!(
            (1.0..=4.0).contains(&margin),
            "day {day}: DCM margin {margin} escaped [1, 4]"
        );

        println!(
            "day {day:>4} ({:>5.2} sim-years): sessions {:>6}, kv {:>5} MiB, \
             rotations {:>4}, zones full/retired {full}/{retired}, \
             scrubs {:>4}, derates {:>2}, audit {:>6} recs, work {:>5}, \
             ftl wa {:.2}, violations 0",
            now.as_nanos() as f64 / (365.25 * 86_400e9),
            self.sessions,
            self.kv_bytes / MIB,
            self.zone_rotations,
            self.zones.scrub_ops(),
            self.dcm.derates(),
            records.len(),
            self.work_items,
            self.ftl.stats().write_amplification(),
        );
    }
}

fn main() {
    let scale = Scale::from_args();
    heading("E16 — multi-year managed-retention soak");
    println!(
        "scale: {} — {} sim-days, {} sessions/day, reconfig every {} days, seed 0x{SEED:016x}\n",
        scale.label, scale.days, scale.sessions_per_day, scale.reconfig_every_days
    );

    let days = scale.days;
    let sessions_per_day = scale.sessions_per_day;
    let checkpoint_every = (days / 10).max(1);
    let mut soak = Soak::new(scale);

    // Drive everything through the calendar queue: per-day maintenance
    // and checkpoints, plus sessions spread across each day at seeded
    // offsets. The queue crosses ~1100 day-horizons in the full run.
    let mut queue: EventQueue<Ev> = EventQueue::new();
    let day_d = SimDuration::from_days(1);
    for day in 0..days {
        let base = SimTime::ZERO + day_d * day;
        queue.schedule(base + SimDuration::from_secs(86_399), Ev::Maintain);
        if day > 0 && day.is_multiple_of(checkpoint_every) {
            queue.schedule(base, Ev::Checkpoint);
        }
        for _ in 0..sessions_per_day {
            let off = SimDuration::from_secs(soak.rng.gen_range_u64(86_000));
            queue.schedule(base + off, Ev::Session);
        }
    }

    while let Some((t, ev)) = queue.pop() {
        let day = t.as_nanos() / 86_400_000_000_000;
        match ev {
            Ev::Session => soak.session(t),
            Ev::Maintain => soak.maintain(t, day),
            Ev::Checkpoint => soak.checkpoint(t, day),
        }
    }
    // Final checkpoint at end of run.
    let end = SimTime::ZERO + day_d * days;
    soak.checkpoint(end, days);

    heading("Reading the experiment");
    println!("- every checkpoint re-proved FTL, audit, zone, and margin invariants");
    println!("  after months of accumulated wear, scrubs, and reconfigurations;");
    println!("- zone rotation + least-worn open spreads write cycles, so multi-year");
    println!("  session load never exhausts a single zone's endurance;");
    println!(
        "- {} retention-window reconfigurations were absorbed live, with the",
        soak.reconfigs
    );
    println!("  audit log staying REQUIRED-DURABLE-clean throughout (the §4 claim");
    println!("  that software-owned retention is operable, not just efficient).");

    assert_eq!(soak.violations, 0);
    assert!(soak.checkpoints >= 10, "soak must actually checkpoint");
    assert!(soak.sessions >= days * sessions_per_day * 9 / 10);
    println!(
        "\nPASS e16 soak: {} checkpoints, {} sessions, {} audit records, 0 violations",
        soak.checkpoints,
        soak.sessions,
        soak.control.audit.len(),
    );

    save_json(
        "e16_soak",
        &(
            soak.checkpoints,
            soak.sessions,
            soak.kv_bytes,
            soak.zone_rotations,
            soak.work_items,
            soak.reconfigs,
        ),
    );
}
