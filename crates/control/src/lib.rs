//! # `mrm-control` — the retention control plane
//!
//! The paper's §4 thesis operationalized: *software owns retention*. Every
//! data class the serving stack stores (weights, KV prefix, KV tail,
//! activations, session state) is declared in a [`RetentionRegistry`]
//! with an explicit policy — `Required` or `Ephemeral`, TTL, escalation
//! class, pressure threshold. A [`Reconciler`] diffs observed placement
//! against those declarations each maintenance tick and emits typed
//! [`WorkItem`]s (migrate / refresh / recompute-drop / retire / refetch)
//! for the data path to execute; an append-only [`AuditLog`] records every
//! decision with its class, action, reason, and sim-time.
//!
//! The log doubles as a correctness oracle for the chaos suite: under
//! fault injection, no `Required` object may ever be reclaimed without a
//! recorded re-fetch/recompute (REQUIRED-DURABLE). Telemetry export is
//! observe-only and the reconciler draws no `SimRng`, so attaching the
//! control plane never perturbs simulated results.

pub mod audit;
pub mod class;
pub mod expiry;
pub mod policy;
pub mod reconcile;
pub mod registry;

pub use audit::{AuditAction, AuditLog, AuditRecord};
pub use class::ControlClass;
pub use expiry::{ExpiryAction, ExpiryTracker};
pub use policy::{Durability, RetentionPolicy};
pub use reconcile::{Reconciler, WorkItem, WorkKind};
pub use registry::{ControlError, RetentionRegistry};

use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::sink::TelemetrySink;
use serde::{Deserialize, Serialize};

/// Registry + audit log, wired together: the object the data path holds.
#[derive(Clone, Debug)]
pub struct ControlPlane {
    /// Declared policy per class.
    pub registry: RetentionRegistry,
    /// Every decision, in order.
    pub audit: AuditLog,
}

impl ControlPlane {
    /// A control plane over an explicit registry.
    pub fn new(registry: RetentionRegistry) -> Self {
        ControlPlane {
            registry,
            audit: AuditLog::new(),
        }
    }

    /// The serving-cluster default declarations
    /// ([`RetentionRegistry::serving_default`]).
    pub fn serving_default(followup_window: SimDuration) -> Self {
        ControlPlane::new(RetentionRegistry::serving_default(followup_window))
    }

    /// Records a decision (sugar for [`AuditLog::record`]).
    pub fn record(
        &mut self,
        at: SimTime,
        class: ControlClass,
        id: u64,
        action: AuditAction,
        reason: &'static str,
        bytes: u64,
    ) -> u64 {
        self.audit.record(at, class, id, action, reason, bytes)
    }

    /// Records the execution of a reconciler work item as its audit
    /// action(s). A `RecomputeDrop` writes the recovery record *before*
    /// the drop so the REQUIRED-DURABLE oracle sees them in order.
    pub fn record_work(&mut self, at: SimTime, item: &WorkItem, bytes: u64) {
        match item.kind {
            WorkKind::Refresh => {
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Refresh,
                    item.reason,
                    bytes,
                );
            }
            WorkKind::Migrate { .. } => {
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Migrate,
                    item.reason,
                    bytes,
                );
            }
            WorkKind::RecomputeDrop => {
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Recompute,
                    item.reason,
                    bytes,
                );
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Drop,
                    item.reason,
                    bytes,
                );
            }
            WorkKind::Retire => {
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Retire,
                    item.reason,
                    bytes,
                );
            }
            WorkKind::Refetch => {
                self.record(
                    at,
                    item.class,
                    item.id,
                    AuditAction::Refetch,
                    item.reason,
                    bytes,
                );
            }
        }
    }

    /// The recovery work item the fault ladder prescribes for a persistent
    /// uncorrectable read: weights re-fetch from the authoritative model
    /// store; KV and other recomputable state recompute-drops. Execute the
    /// item, then [`ControlPlane::record_work`] it so the oracle sees the
    /// recovery before any drop.
    pub fn plan_fault_recovery(&self, class: ControlClass, id: u64) -> WorkItem {
        let kind = match class {
            ControlClass::Weights => WorkKind::Refetch,
            _ => WorkKind::RecomputeDrop,
        };
        WorkItem {
            id,
            class,
            kind,
            reason: "uncorrectable-read",
        }
    }

    /// Whether declared policy authorizes a memory-pressure eviction of
    /// `class` at the given occupancy.
    pub fn may_evict(&self, class: ControlClass, occupancy: f64) -> bool {
        self.registry
            .policy(class)
            .map(|p| p.evictable_at(occupancy))
            .unwrap_or(false)
    }

    /// Emits the `control_*` counters and the required-drop gauge into a
    /// sink.
    pub fn emit_telemetry(&self, sink: &mut dyn TelemetrySink) {
        sink.gauge(
            "control_required_drop_violations",
            self.audit.required_drop_violations(&self.registry).len() as f64,
        );
        self.audit.emit_telemetry(sink);
    }

    /// Aggregated decision counts for reports.
    pub fn summary(&self) -> ControlSummary {
        ControlSummary {
            audit_records: self.audit.len() as u64,
            stores: self.audit.count(AuditAction::Store),
            refreshes: self.audit.count(AuditAction::Refresh),
            migrations: self.audit.count(AuditAction::Migrate),
            drops: self.audit.count(AuditAction::Drop),
            evictions: self.audit.count(AuditAction::Evict),
            retires: self.audit.count(AuditAction::Retire),
            escalations: self.audit.count(AuditAction::Escalate),
            refetches: self.audit.count(AuditAction::Refetch),
            recomputes: self.audit.count(AuditAction::Recompute),
            required_drop_violations: self.audit.required_drop_violations(&self.registry).len()
                as u64,
        }
    }
}

/// Decision counts from one run's audit log (for reports; the invariant
/// field `required_drop_violations` must be zero on any healthy run).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControlSummary {
    /// Total records appended.
    pub audit_records: u64,
    /// `Store` decisions.
    pub stores: u64,
    /// `Refresh` decisions.
    pub refreshes: u64,
    /// `Migrate` decisions.
    pub migrations: u64,
    /// `Drop` decisions.
    pub drops: u64,
    /// `Evict` decisions.
    pub evictions: u64,
    /// `Retire` decisions.
    pub retires: u64,
    /// `Escalate` decisions.
    pub escalations: u64,
    /// `Refetch` decisions.
    pub refetches: u64,
    /// `Recompute` decisions.
    pub recomputes: u64,
    /// Reclaims of `Required` classes with no preceding recovery record.
    pub required_drop_violations: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn record_work_orders_recompute_before_drop() {
        let mut cp = ControlPlane::serving_default(SimDuration::from_mins(10));
        let item = WorkItem {
            id: 3,
            class: ControlClass::KvTail,
            kind: WorkKind::RecomputeDrop,
            reason: "uncorrectable-read",
        };
        cp.record_work(t(1), &item, 64);
        let recs = cp.audit.records();
        assert_eq!(recs[0].action, AuditAction::Recompute);
        assert_eq!(recs[1].action, AuditAction::Drop);
        // The drop of a Required class is legal because the recompute
        // precedes it.
        assert!(cp.audit.required_drop_violations(&cp.registry).is_empty());
        assert_eq!(cp.summary().recomputes, 1);
        assert_eq!(cp.summary().required_drop_violations, 0);
    }

    #[test]
    fn may_evict_honors_durability_and_threshold() {
        let cp = ControlPlane::serving_default(SimDuration::from_mins(10));
        assert!(!cp.may_evict(ControlClass::Weights, 1.0));
        assert!(!cp.may_evict(ControlClass::KvTail, 1.0));
        assert!(!cp.may_evict(ControlClass::KvPrefix, 0.5));
        assert!(cp.may_evict(ControlClass::KvPrefix, 1.0));
    }

    #[test]
    fn summary_round_trips_through_serde() {
        let mut cp = ControlPlane::serving_default(SimDuration::from_mins(10));
        cp.record(
            t(1),
            ControlClass::Weights,
            0,
            AuditAction::Store,
            "deploy",
            70,
        );
        let s = cp.summary();
        let json = serde_json::to_string(&s).unwrap();
        let back: ControlSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
