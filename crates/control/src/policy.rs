//! Declared retention policies.
//!
//! A policy states, per data class, what the system has *promised*: whether
//! the object must survive until its need lapses (`Required`) or may be
//! reclaimed and recomputed (`Ephemeral`), how long an unused object is
//! kept, which retention class an escalation moves it to, and above what
//! occupancy memory pressure may evict it. The reconciler and the audit
//! oracle both read these promises; nothing in the data path re-derives
//! them inline.

use mrm_sim::time::SimDuration;

/// Whether loss of the object is a correctness event or a cost event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Durability {
    /// Must never be dropped while needed; loss demands a recorded
    /// recovery (refetch or recompute) before any drop is legal.
    Required,
    /// Soft state: may lapse or be evicted under pressure; recomputable.
    Ephemeral,
}

/// The declared retention policy for one [`crate::class::ControlClass`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetentionPolicy {
    /// Correctness class of the data.
    pub durability: Durability,
    /// How long an object is kept after its last use before it lapses
    /// (`None`: kept until explicitly retired).
    pub ttl: Option<SimDuration>,
    /// Retention class an escalation (failed refresh, long remaining need)
    /// migrates the object to (`None`: escalation not available — the
    /// reconciler must refresh in place or refetch).
    pub escalation_class: Option<SimDuration>,
    /// Memory-pressure eviction is permitted once tier occupancy reaches
    /// this fraction. `1.0` means "only when allocation actually fails";
    /// anything above is "never".
    pub pressure_threshold: f64,
}

impl RetentionPolicy {
    /// A `Required` policy: no TTL, never pressure-evicted.
    pub fn required() -> Self {
        RetentionPolicy {
            durability: Durability::Required,
            ttl: None,
            escalation_class: None,
            pressure_threshold: f64::INFINITY,
        }
    }

    /// An `Ephemeral` policy with a use-based TTL, evictable at full
    /// occupancy.
    pub fn ephemeral(ttl: SimDuration) -> Self {
        RetentionPolicy {
            durability: Durability::Ephemeral,
            ttl: Some(ttl),
            escalation_class: None,
            pressure_threshold: 1.0,
        }
    }

    /// Sets the escalation retention class.
    pub fn with_escalation(mut self, class: SimDuration) -> Self {
        self.escalation_class = Some(class);
        self
    }

    /// True if memory pressure at `occupancy` (fraction of tier capacity)
    /// permits evicting this class.
    pub fn evictable_at(&self, occupancy: f64) -> bool {
        self.durability == Durability::Ephemeral && occupancy >= self.pressure_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn required_is_never_pressure_evictable() {
        let p = RetentionPolicy::required();
        assert!(!p.evictable_at(1.0));
        assert!(!p.evictable_at(f64::MAX));
    }

    #[test]
    fn ephemeral_evicts_only_at_threshold() {
        let p = RetentionPolicy {
            pressure_threshold: 0.9,
            ..RetentionPolicy::ephemeral(SimDuration::from_mins(10))
        };
        assert!(!p.evictable_at(0.5));
        assert!(p.evictable_at(0.9));
        assert!(p.evictable_at(1.0));
    }
}
