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
use mrm_telemetry::sink::TelemetrySink;
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

    /// Stable label (also the suffix of the `control_*` counter names).
    pub fn label(self) -> &'static str {
        match self {
            AuditAction::Store => "store",
            AuditAction::Refresh => "refresh",
            AuditAction::Migrate => "migrate",
            AuditAction::Drop => "drop",
            AuditAction::Evict => "evict",
            AuditAction::Retire => "retire",
            AuditAction::Escalate => "escalate",
            AuditAction::Refetch => "refetch",
            AuditAction::Recompute => "recompute",
        }
    }

    /// Telemetry counter name (static, one per action).
    fn counter_name(self) -> &'static str {
        match self {
            AuditAction::Store => "control_store",
            AuditAction::Refresh => "control_refresh",
            AuditAction::Migrate => "control_migrate",
            AuditAction::Drop => "control_drop",
            AuditAction::Evict => "control_evict",
            AuditAction::Retire => "control_retire",
            AuditAction::Escalate => "control_escalate",
            AuditAction::Refetch => "control_refetch",
            AuditAction::Recompute => "control_recompute",
        }
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

    fn index(self) -> usize {
        match self {
            AuditAction::Store => 0,
            AuditAction::Refresh => 1,
            AuditAction::Migrate => 2,
            AuditAction::Drop => 3,
            AuditAction::Evict => 4,
            AuditAction::Retire => 5,
            AuditAction::Escalate => 6,
            AuditAction::Refetch => 7,
            AuditAction::Recompute => 8,
        }
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

/// Append-only decision log with per-action counts.
#[derive(Clone, Debug, Default)]
pub struct AuditLog {
    records: Vec<AuditRecord>,
    counts: [u64; 9],
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

    /// REQUIRED-DURABLE oracle: sequence numbers of every reclaim
    /// (drop/evict) of a class the registry declares `Required` that is
    /// *not* preceded by a recovery record (refetch/recompute) for the
    /// same `(class, id)`. An empty result is the invariant the chaos
    /// suite asserts. `Retire` (need ended) is always legal.
    pub fn required_drop_violations(&self, registry: &RetentionRegistry) -> Vec<u64> {
        let mut recovered: BTreeSet<(ControlClass, u64)> = BTreeSet::new();
        let mut violations = Vec::new();
        for r in &self.records {
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

    /// Emits the `control_*` counters (monotone totals). Observe-only:
    /// republishing is idempotent.
    pub fn emit_telemetry(&self, sink: &mut dyn TelemetrySink) {
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
