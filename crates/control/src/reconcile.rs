//! The reconciler: desired vs. observed placement, as typed work items.
//!
//! Mayastor-style control loop: the data path *observes* state into the
//! reconciler (stores, releases, extended needs); each maintenance tick
//! the reconciler diffs that observed state against the declared policies
//! and emits the work items — migrate / refresh / recompute-drop / retire
//! / refetch — that the executor (the simulated cluster) carries out and
//! the audit log records.
//!
//! Determinism contract: the reconciler draws no `SimRng` and reads no
//! clock but the sim-time its caller passes in; identical observations in
//! identical order produce identical work lists.

use mrm_sim::time::{SimDuration, SimTime};

use crate::class::ControlClass;
use crate::expiry::{ExpiryAction, ExpiryTracker};
use crate::policy::Durability;
use crate::registry::RetentionRegistry;

/// What a work item asks the executor to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkKind {
    /// Rewrite in place at the current retention class.
    Refresh,
    /// Move to the given retention class.
    Migrate {
        /// Target retention period.
        to: SimDuration,
    },
    /// Reclaim now; recompute from inputs later if a need reappears.
    RecomputeDrop,
    /// Release: the declared need has ended.
    Retire,
    /// Re-materialize from the authoritative source after loss.
    Refetch,
}

/// One unit of reconciliation work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkItem {
    /// Object identity within the class.
    pub id: u64,
    /// The data class the work applies to.
    pub class: ControlClass,
    /// What to do.
    pub kind: WorkKind,
    /// Why the reconciler emitted it (static, machine-greppable).
    pub reason: &'static str,
}

/// Reconciles one class of tracked objects against declared policy.
///
/// Owns the [`ExpiryTracker`] that used to be embedded in the simulated
/// accelerator: the data path reports placements in, the plan step turns
/// deadlines plus policy into work out.
#[derive(Clone, Debug)]
pub struct Reconciler {
    class: ControlClass,
    tracker: ExpiryTracker,
    planned: u64,
}

impl Reconciler {
    /// A reconciler for one data class.
    pub fn new(class: ControlClass) -> Self {
        Reconciler {
            class,
            tracker: ExpiryTracker::new(),
            planned: 0,
        }
    }

    /// The class this reconciler manages.
    pub fn class(&self) -> ControlClass {
        self.class
    }

    /// Observes a store: the object now sits at `deadline` with the given
    /// retention period, needed until `needed_until`.
    pub fn observe_store(
        &mut self,
        id: u64,
        deadline: SimTime,
        needed_until: SimTime,
        retention: SimDuration,
    ) {
        self.tracker.register(id, deadline, needed_until, retention);
    }

    /// Observes a release: the object left the tier (retired, dropped,
    /// consumed by a follow-up).
    pub fn observe_release(&mut self, id: u64) {
        self.tracker.remove(id);
    }

    /// Observes a completed refresh: the deadline re-arms from `now`.
    pub fn observe_refreshed(&mut self, id: u64, now: SimTime) {
        self.tracker.refreshed(id, now);
    }

    /// The current retention deadline of an object.
    pub fn deadline(&self, id: u64) -> Option<SimTime> {
        self.tracker.deadline(id)
    }

    /// Number of objects under reconciliation.
    pub fn len(&self) -> usize {
        self.tracker.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.tracker.is_empty()
    }

    /// Total work items emitted over the reconciler's lifetime.
    pub fn planned(&self) -> u64 {
        self.planned
    }

    /// One reconciliation tick: diff every object whose deadline falls at
    /// or before `horizon` against the declared policy and emit work.
    ///
    /// * still needed for a few periods → [`WorkKind::Refresh`];
    /// * needed for many periods → [`WorkKind::Migrate`] to the policy's
    ///   escalation class (or stay-and-refresh when none is declared);
    /// * need lapsed, `Ephemeral` → [`WorkKind::RecomputeDrop`];
    /// * need lapsed, `Required` → [`WorkKind::Retire`] only — a
    ///   `Required` object is never emitted as a drop.
    ///
    /// Items are emitted soonest-deadline-first (id-ascending within a
    /// tie); the executor must process them in order.
    pub fn plan(
        &mut self,
        now: SimTime,
        horizon: SimTime,
        registry: &RetentionRegistry,
    ) -> Vec<WorkItem> {
        let escalation = registry
            .policy(self.class)
            .ok()
            .and_then(|p| p.escalation_class);
        let required = registry.is_required(self.class);
        let mut items = Vec::new();
        for id in self.tracker.due_before(horizon) {
            let kind = match self.tracker.decide(id, now) {
                Some(ExpiryAction::Refresh) => WorkKind::Refresh,
                Some(ExpiryAction::Migrate) => match escalation {
                    Some(to) => WorkKind::Migrate { to },
                    None => WorkKind::Refresh,
                },
                Some(ExpiryAction::Drop) | None => {
                    if required {
                        WorkKind::Retire
                    } else {
                        WorkKind::RecomputeDrop
                    }
                }
            };
            let reason = match kind {
                WorkKind::Refresh => "deadline-refresh",
                WorkKind::Migrate { .. } => "long-remaining-need",
                WorkKind::RecomputeDrop => "need-lapsed",
                WorkKind::Retire => "need-ended",
                WorkKind::Refetch => unreachable!("plan never emits refetch"),
            };
            items.push(WorkItem {
                id,
                class: self.class,
                kind,
                reason,
            });
        }
        self.planned += items.len() as u64;
        items
    }

    /// The recovery work item for an uncorrectable-read fault on `id`:
    /// `Required` weights refetch from the model store; everything else
    /// recomputes from inputs (and the corrupted copy drops).
    pub fn fault_recovery(&self, id: u64, registry: &RetentionRegistry) -> WorkItem {
        let durability = registry
            .policy(self.class)
            .map(|p| p.durability)
            .unwrap_or(Durability::Required);
        let kind = match (self.class, durability) {
            // Weights have an authoritative copy in the model store.
            (ControlClass::Weights, _) => WorkKind::Refetch,
            // KV (tail or prefix) re-materializes by prefill; the corrupt
            // copy is dropped — legally, because the recompute is recorded
            // first. Ephemeral classes recompute lazily for the same reason.
            _ => WorkKind::RecomputeDrop,
        };
        WorkItem {
            id,
            class: self.class,
            kind,
            reason: "uncorrectable-read",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::RetentionPolicy;

    fn t(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    fn serving() -> RetentionRegistry {
        RetentionRegistry::serving_default(SimDuration::from_mins(10))
    }

    #[test]
    fn plan_is_empty_with_nothing_due() {
        let mut r = Reconciler::new(ControlClass::KvPrefix);
        r.observe_store(1, t(30), t(40), SimDuration::from_mins(30));
        assert!(r.plan(t(5), t(10), &serving()).is_empty());
        assert_eq!(r.planned(), 0);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn ephemeral_lapse_is_recompute_drop() {
        let mut r = Reconciler::new(ControlClass::KvPrefix);
        // Needed until before the deadline: the need lapsed.
        r.observe_store(1, t(30), t(20), SimDuration::from_mins(30));
        let items = r.plan(t(29), t(31), &serving());
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].kind, WorkKind::RecomputeDrop);
        assert_eq!(items[0].class, ControlClass::KvPrefix);
    }

    #[test]
    fn required_lapse_is_retire_never_drop() {
        let mut r = Reconciler::new(ControlClass::KvTail);
        r.observe_store(3, t(30), t(20), SimDuration::from_mins(30));
        let items = r.plan(t(29), t(31), &serving());
        assert_eq!(items[0].kind, WorkKind::Retire);
    }

    #[test]
    fn short_need_refreshes_long_need_migrates_to_escalation_class() {
        let mut r = Reconciler::new(ControlClass::KvPrefix);
        let ret = SimDuration::from_mins(10);
        r.observe_store(1, t(10), t(30), ret); // 2 periods → refresh
        r.observe_store(2, t(10), t(600), ret); // 60 periods → migrate
        let items = r.plan(t(9), t(10), &serving());
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].id, 1);
        assert_eq!(items[0].kind, WorkKind::Refresh);
        assert_eq!(
            items[1].kind,
            WorkKind::Migrate {
                to: SimDuration::from_days(7)
            }
        );
        assert_eq!(r.planned(), 2);
    }

    #[test]
    fn migrate_falls_back_to_refresh_without_escalation_class() {
        let mut reg = RetentionRegistry::new();
        reg.declare(
            ControlClass::KvPrefix,
            RetentionPolicy::ephemeral(SimDuration::from_mins(10)),
        );
        let mut r = Reconciler::new(ControlClass::KvPrefix);
        r.observe_store(2, t(10), t(600), SimDuration::from_mins(10));
        let items = r.plan(t(9), t(10), &reg);
        assert_eq!(items[0].kind, WorkKind::Refresh);
    }

    #[test]
    fn observed_release_and_refresh_update_the_plan() {
        let mut r = Reconciler::new(ControlClass::KvPrefix);
        let ret = SimDuration::from_mins(10);
        r.observe_store(1, t(10), t(30), ret);
        r.observe_store(2, t(10), t(30), ret);
        r.observe_release(1);
        r.observe_refreshed(2, t(9));
        assert!(r.plan(t(9), t(12), &serving()).is_empty());
        assert_eq!(r.deadline(2), Some(t(19)));
    }

    #[test]
    fn fault_recovery_refetches_weights_recomputes_kv() {
        let reg = serving();
        let w = Reconciler::new(ControlClass::Weights);
        assert_eq!(w.fault_recovery(0, &reg).kind, WorkKind::Refetch);
        let kv = Reconciler::new(ControlClass::KvTail);
        assert_eq!(kv.fault_recovery(5, &reg).kind, WorkKind::RecomputeDrop);
        let pre = Reconciler::new(ControlClass::KvPrefix);
        assert_eq!(pre.fault_recovery(5, &reg).kind, WorkKind::RecomputeDrop);
    }
}
