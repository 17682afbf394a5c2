//! Model-based invariant suite for the fault-recovery machinery.
//!
//! Each test drives a component through a random *fault script* — writes,
//! reads through the fault-injection layer, explicit retirements — while a
//! simple oracle (plain sets and maps, like the live-set spec the `pool`
//! fuzz target checks the allocator against) tracks what the state must be.
//! After every step the real implementation is checked against the oracle:
//!
//! * the FTL never leaves a live logical page pointing at a retired block,
//!   and its pool accounting balances against the oracle's live set;
//! * the MRM block controller's zone lifecycle matches the oracle exactly,
//!   and retired zones reject every operation forever;
//! * the `ExpiryTracker` never resurrects a dropped stream: once removed,
//!   an id stays invisible to every query until an explicit re-register.

// The expiry suite drives the decision API directly, as its own oracle.
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, BTreeSet};

use mrm::control::expiry::{ExpiryAction, ExpiryTracker};
use mrm::control::{AuditAction, RetentionRegistry};
use mrm::controller::ftl::{Ftl, FtlConfig};
use mrm::controller::mrm_block::{MrmBlockController, ZoneError, ZoneId, ZoneState};
use mrm::device::device::MemoryDevice;
use mrm::device::tech::presets;
use mrm::faults::{FaultConfig, FaultModel};
use mrm::sim::time::{SimDuration, SimTime};
use mrm::sim::units::MIB;
use mrm::tiering::{ClusterConfig, ClusterSim, PlacementPolicy};
use proptest::prelude::*;
use proptest::TestCaseError;

// ---- FTL: live pages never point at retired blocks ----------------------

fn chaos_ftl(seed: u64) -> Ftl {
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
    ftl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed));
    ftl
}

/// The forward map agrees with the oracle's live set, every structural
/// invariant holds, and — the retirement contract — nothing live resolves
/// to a retired block (that check lives inside `check_invariants`).
fn assert_ftl_matches_oracle(ftl: &Ftl, live: &BTreeSet<u64>) -> Result<(), TestCaseError> {
    ftl.check_invariants()
        .map_err(|e| TestCaseError::Fail(format!("structural invariant broken: {e}")))?;
    let pages = ftl.config().logical_pages();
    let mut mapped = 0u64;
    for lpn in 0..pages {
        let is_mapped = ftl.read(lpn).is_some();
        prop_assert_eq!(
            is_mapped,
            live.contains(&lpn),
            "lpn {} mapped={} but oracle says {}",
            lpn,
            is_mapped,
            live.contains(&lpn)
        );
        mapped += u64::from(is_mapped);
    }
    // Pool accounting balances: exactly the oracle's live pages are mapped.
    prop_assert_eq!(mapped, live.len() as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ftl_survives_any_fault_script(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 1..90),
    ) {
        let mut ftl = chaos_ftl(seed);
        let pages = ftl.config().logical_pages();
        let mut live: BTreeSet<u64> = BTreeSet::new();
        for &(kind, arg) in &ops {
            let lpn = arg % pages;
            match kind {
                // Writes (the common case — keep the device busy).
                0..=2 => {
                    if ftl.write(lpn).is_err() {
                        live.remove(&lpn); // data lost mid-program
                        break;
                    }
                    live.insert(lpn);
                }
                3 => {
                    ftl.trim(lpn).unwrap();
                    live.remove(&lpn);
                }
                // Checked reads across the RBER range: clean, marginal, hot.
                4..=6 => {
                    let rber = [1e-6, 7e-4, 3e-3][(kind - 4) as usize];
                    match ftl.read_checked(lpn, rber) {
                        Ok(_) => {} // recovery (remap/retire) preserves the page
                        Err(_) => {
                            live.remove(&lpn);
                            break;
                        }
                    }
                }
                // Explicit retirement, as the cluster scrubber would issue.
                _ => {
                    if ftl.blocks_retired() < 8 {
                        let block = (arg % 64) as u32;
                        if ftl.retire_block(block).is_err() {
                            break;
                        }
                    }
                }
            }
            assert_ftl_matches_oracle(&ftl, &live)?;
        }
        assert_ftl_matches_oracle(&ftl, &live)?;
    }
}

// ---- MRM block controller: zone lifecycle under fault scripts -----------

fn chaos_controller(seed: u64) -> MrmBlockController {
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = 64 * MIB;
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), 4 * MIB);
    ctrl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed));
    ctrl
}

fn assert_zones_match_oracle(
    ctrl: &MrmBlockController,
    oracle: &[ZoneState],
) -> Result<(), TestCaseError> {
    let mut retired = 0u64;
    for (i, &expect) in oracle.iter().enumerate() {
        let z = ZoneId(i as u32);
        let got = ctrl.zone_state(z).unwrap();
        prop_assert_eq!(got, expect, "zone {} state diverged from oracle", i);
        retired += u64::from(expect == ZoneState::Retired);
    }
    prop_assert_eq!(ctrl.zones_retired(), retired);
    // The expiry work list never offers retired or empty zones.
    for (z, _) in ctrl.zones_expiring_before(SimTime::MAX) {
        let st = oracle[z.0 as usize];
        prop_assert!(
            st == ZoneState::Open || st == ZoneState::Full,
            "zone {} in expiry list while {:?}",
            z.0,
            st
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn zone_lifecycle_survives_any_fault_script(
        seed in 0u64..u64::MAX,
        ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX), 1..60),
    ) {
        let mut ctrl = chaos_controller(seed);
        let zones = ctrl.zone_count();
        let mut oracle = vec![ZoneState::Empty; zones];
        let mut now = SimTime::ZERO;
        for &(kind, arg) in &ops {
            now = now.saturating_add(SimDuration::from_secs(arg % 5));
            let zi = (arg % zones as u64) as usize;
            let z = ZoneId(zi as u32);
            match kind {
                0 => {
                    // Open the lowest empty zone, mirroring the oracle.
                    if let Ok(opened) = ctrl.open_zone() {
                        prop_assert_eq!(
                            oracle[opened.0 as usize],
                            ZoneState::Empty,
                            "controller opened a non-empty zone"
                        );
                        oracle[opened.0 as usize] = ZoneState::Open;
                    }
                }
                1..=2 => {
                    // Append with short retention so later reads hit aged,
                    // error-prone data.
                    let retention = if arg & 1 == 0 {
                        SimDuration::from_secs(2)
                    } else {
                        SimDuration::from_hours(1)
                    };
                    let res = ctrl.append(now, z, 256 * 1024, retention);
                    match oracle[zi] {
                        ZoneState::Retired => prop_assert_eq!(res.unwrap_err(), ZoneError::ZoneRetired),
                        ZoneState::Open => {
                            if res.is_ok() && ctrl.write_pointer(z).unwrap() == ctrl.zone_bytes() {
                                oracle[zi] = ZoneState::Full;
                            }
                        }
                        _ => prop_assert!(res.is_err()),
                    }
                }
                3..=4 => {
                    // Checked read: ages past the 2 s retention class force
                    // the retry → scrub-escalation ladder.
                    let wp = ctrl.write_pointer(z).unwrap_or(0);
                    if oracle[zi] == ZoneState::Retired {
                        prop_assert_eq!(
                            ctrl.read_checked(now, z, 0, 1, SimDuration::from_hours(1)).unwrap_err(),
                            ZoneError::ZoneRetired
                        );
                    } else if wp > 0 && oracle[zi] != ZoneState::Empty {
                        let len = wp.min(64 * 1024);
                        let res = ctrl
                            .read_checked(now, z, 0, len, SimDuration::from_hours(1))
                            .unwrap();
                        if res.action == mrm::faults::RecoveryAction::Retired {
                            oracle[zi] = ZoneState::Retired;
                        }
                    }
                }
                5 => {
                    let res = ctrl.reset_zone(z);
                    match oracle[zi] {
                        ZoneState::Retired => prop_assert_eq!(res.unwrap_err(), ZoneError::ZoneRetired),
                        _ => {
                            res.unwrap();
                            oracle[zi] = ZoneState::Empty;
                        }
                    }
                }
                6 => {
                    let res = ctrl.finish_zone(z);
                    if oracle[zi] == ZoneState::Open {
                        res.unwrap();
                        oracle[zi] = ZoneState::Full;
                    } else {
                        prop_assert!(res.is_err());
                    }
                }
                // Explicit retirement (idempotent on already-retired zones).
                _ => {
                    ctrl.retire_zone(z).unwrap();
                    oracle[zi] = ZoneState::Retired;
                }
            }
            assert_zones_match_oracle(&ctrl, &oracle)?;
        }
    }
}

// ---- ExpiryTracker: dropped streams stay dropped ------------------------

#[derive(Clone, Copy)]
struct OracleItem {
    deadline: SimTime,
    needed_until: SimTime,
}

impl OracleItem {
    /// §4's decision, spelled out: drop when nothing needs the item past
    /// its deadline; otherwise count the retention periods the remaining
    /// need spans (a zero-retention class spans infinitely many) and
    /// migrate past four, refresh up to four.
    fn action(&self, now: SimTime, retention: SimDuration) -> ExpiryAction {
        if self.needed_until <= self.deadline {
            return ExpiryAction::Drop;
        }
        let need = self.needed_until.duration_since(now.min(self.needed_until));
        let periods = if retention.is_zero() {
            u64::MAX
        } else {
            need.as_nanos().div_ceil(retention.as_nanos())
        };
        if periods > 4 {
            ExpiryAction::Migrate
        } else {
            ExpiryAction::Refresh
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn expiry_tracker_never_resurrects_a_dropped_stream(
        ops in proptest::collection::vec(
            (0u8..6, 0u64..24, 0u64..3600, 0u64..3600),
            1..120,
        ),
    ) {
        let t0 = SimTime::ZERO;
        let at = |s: u64| t0 + SimDuration::from_secs(s);
        let retention = SimDuration::from_secs(300);

        let mut tracker = ExpiryTracker::new();
        let mut model: BTreeMap<u64, OracleItem> = BTreeMap::new();
        let mut dropped: BTreeSet<u64> = BTreeSet::new();

        for &(kind, id, a, b) in &ops {
            match kind {
                // Register — but a dropped stream is gone for good: the
                // generator never re-registers it, so any later sighting is
                // a resurrection bug.
                0..=1 if !dropped.contains(&id) => {
                    tracker.register(id, at(a), at(b), retention);
                    model.insert(id, OracleItem { deadline: at(a), needed_until: at(b) });
                }
                2 => {
                    tracker.extend_need(id, at(b));
                    if let Some(it) = model.get_mut(&id) {
                        it.needed_until = it.needed_until.max(at(b));
                    }
                }
                3 => {
                    tracker.refreshed(id, at(a));
                    if let Some(it) = model.get_mut(&id) {
                        it.deadline = at(a).saturating_add(retention);
                    }
                }
                4 => {
                    tracker.remove(id);
                    if model.remove(&id).is_some() {
                        dropped.insert(id);
                    }
                }
                // Horizon query — checked below for every step anyway.
                _ => {}
            }

            // The tracker agrees with the oracle exactly: the due list is
            // the oracle's filter, sorted by (deadline, id), each id with
            // the oracle's decision at `now`.
            prop_assert_eq!(tracker.len(), model.len());
            let now = at(a.min(b));
            let horizon = at(a.max(b));
            let mut expected: Vec<(SimTime, u64, ExpiryAction)> = model
                .iter()
                .filter(|(_, it)| it.deadline <= horizon)
                .map(|(&id, it)| (it.deadline, id, it.action(now, retention)))
                .collect();
            expected.sort_by_key(|&(deadline, id, _)| (deadline, id));
            let expected: Vec<(u64, ExpiryAction)> = expected
                .into_iter()
                .map(|(_, id, action)| (id, action))
                .collect();
            prop_assert_eq!(tracker.due(now, horizon), expected);

            // No dropped stream is ever visible again, by any query.
            for &gone in &dropped {
                prop_assert_eq!(tracker.deadline(gone), None);
                prop_assert_eq!(tracker.decide(gone, now), None);
            }
            prop_assert!(
                tracker
                    .due(now, SimTime::MAX)
                    .iter()
                    .all(|(id, _)| !dropped.contains(id)),
                "a dropped stream resurfaced in due"
            );

            // Every live item decides as the oracle does.
            for (&id, it) in &model {
                prop_assert_eq!(tracker.decide(id, now), Some(it.action(now, retention)));
            }
        }
    }
}

// ---- Audit log as chaos oracle: Required data never silently dies -------

/// A cluster provisioned at the failure margin (retention == data lifetime,
/// 40x BER) so the full recovery ladder fires: retries, scrub escalations,
/// weight re-fetches, and KV recompute demotions.
fn chaos_cluster_cfg(seed: u64, margin_q: u8) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrm, 2, 8.0);
    cfg.seed = seed;
    cfg.duration = SimDuration::from_secs(60);
    cfg.followup_window = SimDuration::from_secs(20);
    cfg.hint_window = SimDuration::from_secs(20);
    cfg.followup_prob = 0.8;
    cfg.maintenance_period = SimDuration::from_secs(5);
    cfg.faults = FaultConfig {
        ber_scale: 40.0,
        // margin 0.25 forces scrub-verify escalations; 1.0 forces
        // end-of-retention UEs on parked KV.
        provision_margin: Some(f64::from(margin_q) / 4.0),
        ..FaultConfig::mrm()
    };
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The control-plane acceptance invariant, checked from the *audit log*
    /// rather than counters: under the full fault ladder, no Required-class
    /// object is ever reclaimed without a re-fetch or recompute recorded
    /// first for the same `(class, id)` — and the log itself is well-formed
    /// (dense sequence numbers, nondecreasing sim-time, summary counts that
    /// reconcile against the raw records).
    #[test]
    fn audit_log_never_shows_an_unrecovered_required_drop(
        seed in 0u64..u64::MAX,
        margin_q in 1u8..=4,
    ) {
        let cfg = chaos_cluster_cfg(seed, margin_q);
        let registry = RetentionRegistry::serving_default(cfg.followup_window);
        let (report, audit) = ClusterSim::new(cfg).run_with_audit();

        // The ladder actually engaged — otherwise the oracle is vacuous.
        prop_assert!(report.faults.enabled);
        prop_assert!(report.faults.reads > 0, "injection must have run");
        prop_assert!(!audit.is_empty(), "decisions must have been recorded");

        // The invariant proper.
        let violations = audit.required_drop_violations(&registry);
        prop_assert!(
            violations.is_empty(),
            "Required-class objects dropped without recovery: {:?}",
            violations
        );
        prop_assert_eq!(report.control.required_drop_violations, 0);

        // Log well-formedness: dense seqs, nondecreasing time.
        for (i, r) in audit.records().iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64, "sequence numbers must be dense");
            if i > 0 {
                prop_assert!(
                    audit.records()[i - 1].at <= r.at,
                    "audit time went backwards at seq {}",
                    i
                );
            }
        }

        // The report's summary is exactly the log's action histogram.
        prop_assert_eq!(report.control.audit_records, audit.len() as u64);
        prop_assert_eq!(report.control.stores, audit.count(AuditAction::Store));
        prop_assert_eq!(report.control.drops, audit.count(AuditAction::Drop));
        prop_assert_eq!(report.control.retires, audit.count(AuditAction::Retire));
        prop_assert_eq!(report.control.refetches, audit.count(AuditAction::Refetch));
        prop_assert_eq!(report.control.recomputes, audit.count(AuditAction::Recompute));
        prop_assert_eq!(report.control.escalations, audit.count(AuditAction::Escalate));

        // Every weight re-fetch the fault layer performed flowed through
        // the control plane (the ladder *is* the work-item stream).
        prop_assert_eq!(report.control.refetches, report.faults.weight_refetches);
    }
}
