//! The expiration tracker and the refresh / migrate / drop decision.
//!
//! §4: "The scheduler will need to track the data expiration times, and
//! decide whether to refresh it or move it to another tier based on the
//! state of the requests that depend on that data." [`ExpiryTracker`] is
//! that registry: items carry a retention deadline and a *needed-until*
//! time (from the request state); [`ExpiryTracker::decide`] turns the two
//! into the action the control plane executes.
//!
//! Deadline arithmetic here is *checked*: a deadline that silently
//! saturates converts "already expired" into "expires at the end of time",
//! which masks expiry. [`rearm_deadline`] and [`consumed_age`] assert the
//! arithmetic stays in range in debug builds and saturate (observably, via
//! the caller's audit trail) in release builds.

use std::collections::BTreeMap;

use mrm_sim::time::{SimDuration, SimTime};

/// Re-arms a retention deadline one retention period from `now`.
///
/// # Panics
///
/// Panics in debug builds if `now + retention` overflows sim time: a
/// saturated deadline would silently mean "never expires", hiding the
/// expiry of an item that in truth lapsed long ago.
pub fn rearm_deadline(now: SimTime, retention: SimDuration) -> SimTime {
    debug_assert!(
        now.checked_add(retention).is_some(),
        "rearm_deadline overflow: now={now:?} + retention={retention:?} would saturate, \
         turning an expired item into one that never expires"
    );
    now.saturating_add(retention)
}

/// How much of a retention period has been consumed when `remaining` of it
/// is left (`retention - remaining`).
///
/// # Panics
///
/// Panics in debug builds if `remaining > retention`: a saturated zero age
/// would mis-model an item as freshly written when its deadline
/// bookkeeping is inconsistent.
pub fn consumed_age(retention: SimDuration, remaining: SimDuration) -> SimDuration {
    debug_assert!(
        remaining <= retention,
        "consumed_age underflow: remaining={remaining:?} exceeds retention={retention:?}"
    );
    retention.saturating_sub(remaining)
}

/// What to do about an item approaching its retention deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExpiryAction {
    /// Rewrite in place at the same retention class (cheap, repeatable).
    Refresh,
    /// Move to a longer-retention class/tier (one-time cost; right when
    /// the remaining need spans many refresh periods).
    Migrate,
    /// Let it lapse: nothing depends on it any more (soft state, §4).
    Drop,
}

/// One tracked item.
#[derive(Clone, Copy, Debug)]
struct Item {
    deadline: SimTime,
    needed_until: SimTime,
    retention: SimDuration,
}

impl Item {
    /// §4's refresh-or-move decision for this item at `now`; see
    /// [`ExpiryTracker::decide`].
    fn action(&self, now: SimTime) -> ExpiryAction {
        if self.needed_until <= self.deadline {
            return ExpiryAction::Drop;
        }
        let remaining_need = self.needed_until.duration_since(now.min(self.needed_until));
        // A zero-retention class can never cover the need.
        let periods = match self.retention.as_nanos() {
            0 => u64::MAX,
            ret => remaining_need.as_nanos().div_ceil(ret),
        };
        if periods > 4 {
            ExpiryAction::Migrate
        } else {
            ExpiryAction::Refresh
        }
    }
}

/// A deadline registry over opaque `u64` item ids.
///
/// Each item is held once, keyed by id. Registers, refreshes and removes
/// outnumber maintenance polls by about a hundred to one on a
/// refresh-heavy run, so no deadline index is kept in step:
/// [`ExpiryTracker::due`] walks the items once per poll and sorts only
/// the due subset.
///
/// # Examples
///
/// ```
/// use mrm_sim::time::{SimDuration, SimTime};
/// use mrm_control::expiry::{ExpiryAction, ExpiryTracker};
///
/// let mut tr = ExpiryTracker::new();
/// let t0 = SimTime::ZERO;
/// let retention = SimDuration::from_mins(10);
/// tr.register(1, t0 + retention, t0 + SimDuration::from_mins(25), retention);
/// let now = t0 + SimDuration::from_mins(9);
/// let due = tr.due(now, t0 + SimDuration::from_mins(12));
/// assert_eq!(due, vec![(1, ExpiryAction::Refresh)]);
/// assert_eq!(tr.decide(1, now), Some(ExpiryAction::Refresh));
/// ```
#[derive(Clone, Debug, Default)]
pub struct ExpiryTracker {
    items: BTreeMap<u64, Item>,
}

impl ExpiryTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        ExpiryTracker::default()
    }

    /// Registers (or re-registers) an item with its current retention
    /// deadline, the time until which some request needs it, and the
    /// retention period of its current class.
    pub fn register(
        &mut self,
        id: u64,
        deadline: SimTime,
        needed_until: SimTime,
        retention: SimDuration,
    ) {
        self.items.insert(
            id,
            Item {
                deadline,
                needed_until,
                retention,
            },
        );
    }

    /// Extends the needed-until time (e.g. a follow-up arrived).
    pub fn extend_need(&mut self, id: u64, needed_until: SimTime) {
        if let Some(it) = self.items.get_mut(&id) {
            it.needed_until = it.needed_until.max(needed_until);
        }
    }

    /// Records a completed refresh: deadline re-arms one retention period
    /// from `now` ([`rearm_deadline`]: checked, not silently saturating).
    pub fn refreshed(&mut self, id: u64, now: SimTime) {
        if let Some(it) = self.items.get_mut(&id) {
            it.deadline = rearm_deadline(now, it.retention);
        }
    }

    /// Removes an item (dropped or migrated away).
    pub fn remove(&mut self, id: u64) {
        self.items.remove(&id);
    }

    /// Number of tracked items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Every item whose deadline falls at or before `horizon`, with its
    /// [`ExpiryAction`] at `now`, soonest deadline first (id-ascending
    /// within a deadline tie).
    ///
    /// One walk of the items; only the due subset is sorted.
    pub fn due(&self, now: SimTime, horizon: SimTime) -> Vec<(u64, ExpiryAction)> {
        let mut due: Vec<(SimTime, u64, ExpiryAction)> = self
            .items
            .iter()
            .filter(|(_, it)| it.deadline <= horizon)
            .map(|(&id, it)| (it.deadline, id, it.action(now)))
            .collect();
        due.sort_unstable_by_key(|&(deadline, id, _)| (deadline, id));
        due.into_iter()
            .map(|(_, id, action)| (id, action))
            .collect()
    }

    /// The deadline of an item.
    pub fn deadline(&self, id: u64) -> Option<SimTime> {
        self.items.get(&id).map(|it| it.deadline)
    }

    /// Decides what to do with an item at time `now` (§4's refresh-or-move
    /// decision):
    ///
    /// * nothing needs it past its deadline → [`ExpiryAction::Drop`];
    /// * it is needed for at most a few more retention periods →
    ///   [`ExpiryAction::Refresh`] (repeat as needed);
    /// * it is needed for many retention periods → [`ExpiryAction::Migrate`]
    ///   to a longer class (refreshing that many times would cost more
    ///   rewrites than one move).
    ///
    /// Returns `None` for unknown ids.
    pub fn decide(&self, id: u64, now: SimTime) -> Option<ExpiryAction> {
        self.items.get(&id).map(|it| it.action(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(mins: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(mins)
    }

    fn due_ids(tr: &ExpiryTracker, horizon: SimTime) -> Vec<u64> {
        tr.due(SimTime::ZERO, horizon)
            .into_iter()
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn due_ordering() {
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(30), t(60), SimDuration::from_mins(30));
        tr.register(2, t(10), t(60), SimDuration::from_mins(10));
        tr.register(3, t(50), t(60), SimDuration::from_mins(50));
        assert_eq!(due_ids(&tr, t(35)), vec![2, 1]);
        assert_eq!(due_ids(&tr, t(5)), Vec::<u64>::new());
        assert_eq!(tr.len(), 3);
    }

    #[test]
    fn due_emission_order_is_deadline_then_id() {
        // The emission order is load-bearing: the maintenance sweep
        // processes ids in exactly this order, and reordering would change
        // simulated results. Pin it: soonest deadline first, id-ascending
        // within a deadline tie — identical to the old sort of
        // `(deadline, id)` pairs.
        let mut tr = ExpiryTracker::new();
        let ret = SimDuration::from_mins(10);
        tr.register(7, t(20), t(60), ret);
        tr.register(3, t(10), t(60), ret);
        tr.register(9, t(10), t(60), ret); // same deadline as 3: id breaks tie
        tr.register(1, t(30), t(60), ret);
        assert_eq!(due_ids(&tr, t(30)), vec![3, 9, 7, 1]);
        // Re-registering moves an id's position, never duplicates it.
        tr.register(7, t(5), t(60), ret);
        assert_eq!(due_ids(&tr, t(30)), vec![7, 3, 9, 1]);
        // Refresh re-arms the deadline and the due order follows.
        tr.refreshed(3, t(25));
        assert_eq!(due_ids(&tr, t(30)), vec![7, 9, 1]);
        assert_eq!(due_ids(&tr, t(35)), vec![7, 9, 1, 3]);
        tr.remove(9);
        assert_eq!(due_ids(&tr, t(35)), vec![7, 1, 3]);
    }

    #[test]
    fn due_actions_match_decide() {
        let mut tr = ExpiryTracker::new();
        let ret = SimDuration::from_mins(10);
        tr.register(1, t(10), t(5), ret); // need lapsed: drop
        tr.register(2, t(10), t(30), ret); // 3 periods: refresh
        tr.register(3, t(10), t(600), ret); // 60 periods: migrate
        tr.register(4, t(40), t(600), ret); // not due
        let now = t(0);
        let due = tr.due(now, t(20));
        assert_eq!(
            due,
            vec![
                (1, ExpiryAction::Drop),
                (2, ExpiryAction::Refresh),
                (3, ExpiryAction::Migrate),
            ]
        );
        for (id, action) in due {
            assert_eq!(tr.decide(id, now), Some(action));
        }
    }

    #[test]
    fn four_periods_refresh_five_migrate() {
        // The boundary of the refresh-or-move rule: a need of exactly four
        // retention periods still refreshes; a nanosecond more migrates.
        let mut tr = ExpiryTracker::new();
        let ret = SimDuration::from_mins(10);
        tr.register(1, t(10), t(40), ret);
        tr.register(2, t(10), t(40) + SimDuration::from_nanos(1), ret);
        assert_eq!(
            tr.due(t(0), t(10)),
            vec![(1, ExpiryAction::Refresh), (2, ExpiryAction::Migrate)]
        );
    }

    #[test]
    fn drop_when_not_needed() {
        let mut tr = ExpiryTracker::new();
        // Needed until before the deadline: nothing to do but drop.
        tr.register(1, t(30), t(20), SimDuration::from_mins(30));
        assert_eq!(tr.decide(1, t(25)), Some(ExpiryAction::Drop));
    }

    #[test]
    fn refresh_for_short_remaining_need() {
        let mut tr = ExpiryTracker::new();
        // Needed 20 minutes past a 10-minute class: 2 refresh periods.
        tr.register(1, t(10), t(30), SimDuration::from_mins(10));
        assert_eq!(tr.decide(1, t(9)), Some(ExpiryAction::Refresh));
    }

    #[test]
    fn migrate_for_long_remaining_need() {
        let mut tr = ExpiryTracker::new();
        // Needed 10 hours past a 10-minute class: 60 refresh periods.
        tr.register(1, t(10), t(600), SimDuration::from_mins(10));
        assert_eq!(tr.decide(1, t(9)), Some(ExpiryAction::Migrate));
    }

    #[test]
    fn refresh_rearms_deadline() {
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(10), t(40), SimDuration::from_mins(10));
        tr.refreshed(1, t(9));
        assert_eq!(tr.deadline(1), Some(t(19)));
        assert!(due_ids(&tr, t(15)).is_empty());
    }

    #[test]
    fn extend_need_flips_drop_to_refresh() {
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(10), t(5), SimDuration::from_mins(10));
        assert_eq!(tr.decide(1, t(4)), Some(ExpiryAction::Drop));
        tr.extend_need(1, t(25));
        assert_eq!(tr.decide(1, t(4)), Some(ExpiryAction::Refresh));
    }

    #[test]
    fn remove_and_unknown() {
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(10), t(20), SimDuration::from_mins(10));
        tr.remove(1);
        assert!(tr.is_empty());
        assert_eq!(tr.decide(1, t(0)), None);
        assert_eq!(tr.deadline(1), None);
    }

    #[test]
    fn rearm_deadline_in_range() {
        let now = t(100);
        let ret = SimDuration::from_mins(10);
        assert_eq!(rearm_deadline(now, ret), t(110));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rearm_deadline overflow")]
    fn rearm_deadline_panics_at_sim_time_boundary() {
        // One nanosecond before the end of sim time plus any nonzero
        // retention overflows; the old saturating arithmetic would have
        // silently pinned the deadline at SimTime::MAX ("never expires").
        let _ = rearm_deadline(SimTime::MAX, SimDuration::from_nanos(1));
    }

    #[test]
    fn consumed_age_in_range() {
        let ret = SimDuration::from_mins(10);
        let remaining = SimDuration::from_mins(4);
        assert_eq!(consumed_age(ret, remaining), SimDuration::from_mins(6));
        assert_eq!(consumed_age(ret, ret), SimDuration::ZERO);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "consumed_age underflow")]
    fn consumed_age_panics_when_remaining_exceeds_retention() {
        let _ = consumed_age(SimDuration::from_mins(1), SimDuration::from_mins(2));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "rearm_deadline overflow")]
    fn refreshed_panics_instead_of_saturating_at_boundary() {
        // Regression for the silent `saturating_add` that used to live in
        // `refreshed`: an item refreshed at the sim-time boundary must not
        // quietly become immortal.
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(10), SimTime::MAX, SimDuration::MAX);
        tr.refreshed(1, t(9));
    }

    #[test]
    fn rearm_exactly_at_the_horizon_is_legal() {
        // `now + retention == SimTime::MAX` exactly: in range, not an
        // overflow — the deadline lands on the horizon, and an item parked
        // there re-arms without tripping the checked arithmetic.
        let now = SimTime::from_nanos(u64::MAX - 10);
        let ret = SimDuration::from_nanos(10);
        assert_eq!(rearm_deadline(now, ret), SimTime::MAX);
        let mut tr = ExpiryTracker::new();
        tr.register(1, t(1), SimTime::MAX, ret);
        tr.refreshed(1, now);
        assert_eq!(tr.deadline(1), Some(SimTime::MAX));
    }

    #[test]
    fn deadline_parked_at_the_horizon_is_due_only_at_the_horizon() {
        let mut tr = ExpiryTracker::new();
        tr.register(1, SimTime::MAX, SimTime::MAX, SimDuration::from_secs(1));
        assert_eq!(
            due_ids(&tr, SimTime::from_nanos(u64::MAX - 1)),
            Vec::<u64>::new()
        );
        assert_eq!(due_ids(&tr, SimTime::MAX), vec![1]);
        // Nothing needs it past its (horizon) deadline: a legal drop.
        assert_eq!(tr.decide(1, SimTime::MAX), Some(ExpiryAction::Drop));
    }

    #[test]
    fn zero_ttl_class_boundaries() {
        // A zero-retention class: the deadline re-arms to `now` itself and
        // the age arithmetic degenerates without panicking.
        let now = t(5);
        assert_eq!(rearm_deadline(now, SimDuration::ZERO), now);
        assert_eq!(
            consumed_age(SimDuration::ZERO, SimDuration::ZERO),
            SimDuration::ZERO
        );

        let mut tr = ExpiryTracker::new();
        // Needed no further than the deadline: drop.
        tr.register(1, now, now, SimDuration::ZERO);
        assert_eq!(tr.decide(1, now), Some(ExpiryAction::Drop));
        // Needed *past* a zero-TTL deadline: refreshing a zero-retention
        // class can never cover the need, so the decision must escalate to
        // a migration, not loop on refreshes.
        tr.register(2, now, now + SimDuration::from_nanos(1), SimDuration::ZERO);
        assert_eq!(tr.decide(2, now), Some(ExpiryAction::Migrate));
        // Zero-TTL items are due immediately.
        assert_eq!(due_ids(&tr, now), vec![1, 2]);
    }
}
