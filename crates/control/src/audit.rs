//! The append-only retention audit log.
//!
//! Every store / refresh / migrate / drop / retire / escalate decision the
//! control plane makes is recorded with its class, action, reason, and
//! sim-time. The log is the oracle the chaos tests interrogate: under
//! fault injection at full recovery-ladder depth, *no `Required`-class
//! object may be dropped without a preceding re-fetch/recompute record*
//! (REQUIRED-DURABLE). Its per-action totals flow through `mrm-telemetry`
//! as `control_*` counters — observe-only, so a run with or without a sink
//! attached is byte-identical.

use std::collections::BTreeSet;

use mrm_sim::time::SimTime;
use mrm_telemetry::SimTelemetry;
use serde::{Deserialize, Serialize};

use crate::class::ControlClass;
use crate::registry::RetentionRegistry;

/// A decision the control plane recorded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AuditAction {
    /// Data admitted to a tier (new write, cache park, redeploy).
    Store,
    /// In-place rewrite at the same retention class.
    Refresh,
    /// Moved to a longer retention class.
    Migrate,
    /// Reclaimed while a future need *could* have existed (TTL lapse,
    /// recompute-drop). The oracle checks these against durability.
    Drop,
    /// Evicted under memory pressure (a policy-authorized drop).
    Evict,
    /// Released because its declared need ended (request completed,
    /// deployment superseded). Always legal, even for `Required` classes.
    Retire,
    /// Escalated to the policy's longer retention class after a failed
    /// refresh.
    Escalate,
    /// Re-fetched from an authoritative source (model store) after loss.
    Refetch,
    /// Recomputed from inputs (prompt prefill) after loss.
    Recompute,
}

impl AuditAction {
    /// All actions, in record order.
    pub fn all() -> [AuditAction; 9] {
        [
            AuditAction::Store,
            AuditAction::Refresh,
            AuditAction::Migrate,
            AuditAction::Drop,
            AuditAction::Evict,
            AuditAction::Retire,
            AuditAction::Escalate,
            AuditAction::Refetch,
            AuditAction::Recompute,
        ]
    }

    /// Telemetry counter name (static, one per action).
    fn counter_name(self) -> &'static str {
        [
            "control_store",
            "control_refresh",
            "control_migrate",
            "control_drop",
            "control_evict",
            "control_retire",
            "control_escalate",
            "control_refetch",
            "control_recompute",
        ][self.index()]
    }

    /// Actions the oracle treats as reclaiming the object.
    fn is_reclaim(self) -> bool {
        matches!(self, AuditAction::Drop | AuditAction::Evict)
    }

    /// Actions the oracle treats as a recovery (the object was or can be
    /// re-materialized, so a subsequent drop is legal).
    fn is_recovery(self) -> bool {
        matches!(self, AuditAction::Refetch | AuditAction::Recompute)
    }

    /// Position in [`AuditAction::all`]: the slot of this action's count.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One appended decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Dense, monotonically increasing sequence number.
    pub seq: u64,
    /// Sim-time of the decision.
    pub at: SimTime,
    /// The data class the decision is about.
    pub class: ControlClass,
    /// Object identity within the class (context id, accelerator id, …).
    pub id: u64,
    /// What was decided.
    pub action: AuditAction,
    /// Why (static, machine-greppable).
    pub reason: &'static str,
    /// Bytes affected.
    pub bytes: u64,
}

/// Append-only decision log with per-action counts and the
/// REQUIRED-DURABLE index.
///
/// The index is exact because the recovered set only grows: a reclaim
/// with no earlier recovery of its `(class, id)` at append time has none
/// in any later full scan either, and one with an earlier recovery keeps
/// it. So each reclaim's verdict is settled once, in [`AuditLog::record`],
/// and only the registry (which may be reconfigured) is left to a query.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    counts: [u64; 9],
    /// Per class (by [`ControlClass::index`]): the ids with a recovery
    /// record so far.
    recovered: [BTreeSet<u64>; 5],
    /// Per class (by [`ControlClass::index`]), in append order: the seqs of
    /// reclaims with no earlier recovery of their `(class, id)`.
    unrecovered_reclaims: [Vec<u64>; 5],
}

impl AuditLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Appends a record; returns its sequence number. Sim-time must be
    /// nondecreasing (decisions are appended as the simulation advances).
    pub fn record(
        &mut self,
        at: SimTime,
        class: ControlClass,
        id: u64,
        action: AuditAction,
        reason: &'static str,
        bytes: u64,
    ) -> u64 {
        debug_assert!(
            self.records.last().is_none_or(|r| r.at <= at),
            "audit log must be appended in sim-time order"
        );
        let seq = self.records.len() as u64;
        self.counts[action.index()] += 1;
        if action.is_recovery() {
            self.recovered[class.index()].insert(id);
        } else if action.is_reclaim() && !self.recovered[class.index()].contains(&id) {
            self.unrecovered_reclaims[class.index()].push(seq);
        }
        self.records.push(AuditRecord {
            seq,
            at,
            class,
            id,
            action,
            reason,
            bytes,
        });
        seq
    }

    /// All records, in append order.
    pub fn records(&self) -> &[AuditRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// How many records carry `action`.
    pub fn count(&self, action: AuditAction) -> u64 {
        self.counts[action.index()]
    }

    /// REQUIRED-DURABLE oracle: sequence numbers, ascending, of every
    /// reclaim (drop/evict) of a class the registry treats as `Required`
    /// (an undeclared class counts as `Required`) that is *not* preceded
    /// by a recovery record (refetch/recompute) for the same `(class,
    /// id)`. An empty result is the invariant the chaos suite asserts.
    /// `Retire` (need ended) is always legal.
    pub fn required_drop_violations(&self, registry: &RetentionRegistry) -> Vec<u64> {
        let mut violations: Vec<u64> = self
            .required_lists(registry)
            .flat_map(|seqs| seqs.iter().copied())
            .collect();
        // Concatenated ascending runs: the stable sort merges them.
        violations.sort();
        violations
    }

    /// How many seqs [`AuditLog::required_drop_violations`] would return,
    /// without building the list.
    pub fn required_drop_count(&self, registry: &RetentionRegistry) -> u64 {
        self.required_lists(registry)
            .map(|seqs| seqs.len() as u64)
            .sum()
    }

    /// The unrecovered-reclaim lists of the classes `registry` treats as
    /// `Required`.
    fn required_lists<'a>(
        &'a self,
        registry: &'a RetentionRegistry,
    ) -> impl Iterator<Item = &'a Vec<u64>> + 'a {
        ControlClass::all()
            .into_iter()
            .filter(|&class| registry.is_required(class))
            .map(|class| &self.unrecovered_reclaims[class.index()])
    }

    /// Emits the `control_*` counters (monotone totals). Observe-only:
    /// republishing is idempotent.
    pub fn emit_telemetry(&self, sink: &mut SimTelemetry) {
        sink.count_to("control_audit_records", self.records.len() as u64);
        for action in AuditAction::all() {
            sink.count_to(action.counter_name(), self.count(action));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetentionPolicy;
    use mrm_sim::time::SimDuration;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn serving() -> RetentionRegistry {
        RetentionRegistry::serving_default(SimDuration::from_mins(10))
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, action) in AuditAction::all().into_iter().enumerate() {
            assert_eq!(action.index(), i, "{action:?}");
        }
    }

    #[test]
    fn seqs_are_dense_and_counts_track() {
        let mut log = AuditLog::new();
        let s0 = log.record(
            t(1),
            ControlClass::Weights,
            0,
            AuditAction::Store,
            "admit",
            10,
        );
        let s1 = log.record(
            t(2),
            ControlClass::KvPrefix,
            7,
            AuditAction::Store,
            "park",
            5,
        );
        let s2 = log.record(t(3), ControlClass::KvPrefix, 7, AuditAction::Drop, "ttl", 5);
        assert_eq!((s0, s1, s2), (0, 1, 2));
        assert_eq!(log.len(), 3);
        assert_eq!(log.count(AuditAction::Store), 2);
        assert_eq!(log.count(AuditAction::Drop), 1);
        assert_eq!(log.records()[2].reason, "ttl");
    }

    #[test]
    fn ephemeral_drop_is_not_a_violation() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            1,
            AuditAction::Store,
            "park",
            5,
        );
        log.record(t(2), ControlClass::KvPrefix, 1, AuditAction::Drop, "ttl", 5);
        assert!(log.required_drop_violations(&serving()).is_empty());
    }

    #[test]
    fn required_drop_without_recovery_is_flagged() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvTail,
            3,
            AuditAction::Store,
            "admit",
            5,
        );
        log.record(t(2), ControlClass::KvTail, 3, AuditAction::Drop, "bug", 5);
        assert_eq!(log.required_drop_violations(&serving()), vec![1]);
    }

    #[test]
    fn required_drop_after_recompute_is_legal() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvTail,
            3,
            AuditAction::Store,
            "admit",
            5,
        );
        log.record(
            t(2),
            ControlClass::KvTail,
            3,
            AuditAction::Recompute,
            "fault",
            5,
        );
        log.record(t(2), ControlClass::KvTail, 3, AuditAction::Drop, "fault", 5);
        assert!(log.required_drop_violations(&serving()).is_empty());
        // …but only for the recovered id: another id still violates.
        log.record(t(3), ControlClass::KvTail, 4, AuditAction::Drop, "bug", 5);
        assert_eq!(log.required_drop_violations(&serving()), vec![3]);
    }

    #[test]
    fn retire_of_required_is_always_legal() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::Weights,
            0,
            AuditAction::Store,
            "deploy",
            10,
        );
        log.record(
            t(2),
            ControlClass::Weights,
            0,
            AuditAction::Retire,
            "redeploy",
            10,
        );
        assert!(log.required_drop_violations(&serving()).is_empty());
    }

    #[test]
    fn unclassified_classes_are_conservatively_required() {
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::SessionState,
            9,
            AuditAction::Evict,
            "pressure",
            1,
        );
        // Empty registry: everything is treated as Required.
        assert_eq!(
            log.required_drop_violations(&RetentionRegistry::new()),
            vec![0]
        );
    }

    /// The pre-index oracle: one walk of the whole log under `registry`.
    fn full_scan(log: &AuditLog, registry: &RetentionRegistry) -> Vec<u64> {
        let mut recovered = BTreeSet::new();
        let mut violations = Vec::new();
        for r in log.records() {
            if r.action.is_recovery() {
                recovered.insert((r.class, r.id));
            } else if r.action.is_reclaim()
                && registry.is_required(r.class)
                && !recovered.contains(&(r.class, r.id))
            {
                violations.push(r.seq);
            }
        }
        violations
    }

    fn assert_index_matches_scan(log: &AuditLog, registry: &RetentionRegistry) -> Vec<u64> {
        let got = log.required_drop_violations(registry);
        assert_eq!(got, full_scan(log, registry));
        assert_eq!(log.required_drop_count(registry), got.len() as u64);
        got
    }

    #[test]
    fn index_matches_full_scan_across_reconfiguration() {
        let kv_prefix = |durability_required: bool| {
            let mut reg = serving();
            if durability_required {
                reg.declare(ControlClass::KvPrefix, RetentionPolicy::required());
            }
            reg
        };
        let mut log = AuditLog::new();
        let prefix = ControlClass::KvPrefix;
        // Reclaims of id 5 before its recovery, interleaved with a Required
        // class so the merged answer must be in seq order.
        log.record(t(1), prefix, 5, AuditAction::Store, "park", 8);
        log.record(t(2), prefix, 5, AuditAction::Evict, "pressure", 8);
        log.record(t(2), ControlClass::KvTail, 1, AuditAction::Drop, "bug", 8);
        log.record(t(3), prefix, 5, AuditAction::Drop, "ttl", 8);
        assert_eq!(assert_index_matches_scan(&log, &kv_prefix(true)), [1, 2, 3]);
        assert_eq!(assert_index_matches_scan(&log, &kv_prefix(false)), [2]);
        // Recovery of id 5, then reclaims of it (legal) and of id 6 (not).
        log.record(t(4), prefix, 5, AuditAction::Recompute, "fault", 8);
        log.record(t(4), prefix, 5, AuditAction::Drop, "fault", 8);
        log.record(t(5), prefix, 6, AuditAction::Evict, "pressure", 8);
        log.record(t(5), prefix, 5, AuditAction::Evict, "pressure", 8);
        assert_eq!(
            assert_index_matches_scan(&log, &kv_prefix(true)),
            [1, 2, 3, 6]
        );
        assert_eq!(assert_index_matches_scan(&log, &kv_prefix(false)), [2]);
        assert_eq!(
            assert_index_matches_scan(&log, &kv_prefix(true)),
            [1, 2, 3, 6]
        );
        // The empty registry treats every class as Required.
        assert_eq!(
            assert_index_matches_scan(&log, &RetentionRegistry::new()),
            [1, 2, 3, 6]
        );
    }

    #[test]
    fn required_drop_count_is_the_violation_count() {
        let mut log = AuditLog::new();
        let registries = [serving(), RetentionRegistry::new()];
        for (i, class) in ControlClass::all().into_iter().enumerate() {
            let id = i as u64 % 2;
            log.record(t(1), class, id, AuditAction::Drop, "bug", 1);
            log.record(t(1), class, 1, AuditAction::Refetch, "fault", 1);
            log.record(t(1), class, id, AuditAction::Evict, "pressure", 1);
            for reg in &registries {
                assert_index_matches_scan(&log, reg);
            }
        }
        assert_eq!(log.required_drop_count(&serving()), 6);
        assert_eq!(log.required_drop_count(&RetentionRegistry::new()), 8);
    }

    #[test]
    fn telemetry_counters_flow() {
        use mrm_telemetry::sink::SimTelemetry;

        fn counter(sink: &mut SimTelemetry, at: SimTime, name: &str) -> Option<u64> {
            sink.snapshot(at);
            let snap = sink.snapshots().last().unwrap();
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        }

        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            1,
            AuditAction::Store,
            "park",
            64,
        );
        log.record(
            t(2),
            ControlClass::KvPrefix,
            1,
            AuditAction::Refresh,
            "scrub",
            64,
        );
        let mut sink = SimTelemetry::new(SimDuration::from_secs(1));
        log.emit_telemetry(&mut sink);
        assert_eq!(counter(&mut sink, t(2), "control_audit_records"), Some(2));
        assert_eq!(counter(&mut sink, t(2), "control_store"), Some(1));
        assert_eq!(counter(&mut sink, t(2), "control_refresh"), Some(1));
        assert_eq!(counter(&mut sink, t(2), "control_drop"), Some(0));
        log.record(
            t(3),
            ControlClass::KvPrefix,
            1,
            AuditAction::Drop,
            "ttl",
            64,
        );
        log.emit_telemetry(&mut sink);
        assert_eq!(counter(&mut sink, t(3), "control_audit_records"), Some(3));
        assert_eq!(counter(&mut sink, t(3), "control_drop"), Some(1));
    }

    #[test]
    fn pressure_policy_consulted_for_evictions() {
        // Evict of an Ephemeral class under its threshold is fine; the
        // oracle only hunts Required reclaims.
        let mut reg = RetentionRegistry::new();
        reg.declare(
            ControlClass::KvPrefix,
            RetentionPolicy::ephemeral(SimDuration::from_mins(10)),
        );
        let mut log = AuditLog::new();
        log.record(
            t(1),
            ControlClass::KvPrefix,
            2,
            AuditAction::Evict,
            "pressure",
            64,
        );
        assert!(log.required_drop_violations(&reg).is_empty());
    }
}
