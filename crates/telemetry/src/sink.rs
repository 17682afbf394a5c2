//! The recording sink the simulators publish their measurements into.

use mrm_sim::time::{SimDuration, SimTime};

use crate::registry::{MetricsRegistry, Snapshot};

/// The recording sink: a [`MetricsRegistry`] snapshotted on a fixed
/// sim-time cadence.
///
/// It upholds the crate's determinism contract: it never draws from
/// `SimRng` and never schedules simulator events — it observes the
/// simulation, it never participates in it.
///
/// Snapshot pumping is pull-based so the host loop stays in control:
///
/// ```text
/// while let Some(at) = sink.snapshot_due(now) {
///     /* set gauges from current sim state */
///     sink.snapshot(at);
/// }
/// ```
///
/// `snapshot_due` hands back the exact interval boundary (not `now`), so
/// exported timestamps are independent of when the loop happens to pump.
///
/// # Examples
///
/// ```
/// use mrm_telemetry::SimTelemetry;
/// use mrm_sim::time::{SimDuration, SimTime};
///
/// let mut t = SimTelemetry::new(SimDuration::from_secs(1));
/// t.count("ops", 3);
/// while let Some(at) = t.snapshot_due(SimTime::from_secs(2)) {
///     t.snapshot(at);
/// }
/// assert_eq!(t.snapshots().len(), 2); // boundaries at 1 s and 2 s
/// assert_eq!(t.snapshots()[0].sim_time_ns, 1_000_000_000);
/// ```
#[derive(Clone, Debug)]
pub struct SimTelemetry {
    registry: MetricsRegistry,
    interval: SimDuration,
    next_snapshot: SimTime,
    snapshots: Vec<Snapshot>,
}

impl SimTelemetry {
    /// Creates a sink snapshotting every `interval` of sim time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero (the pump loop could never terminate).
    pub fn new(interval: SimDuration) -> Self {
        assert!(!interval.is_zero(), "snapshot interval must be non-zero");
        SimTelemetry {
            registry: MetricsRegistry::new(),
            interval,
            next_snapshot: SimTime::ZERO + interval,
            snapshots: Vec::new(),
        }
    }

    /// The configured snapshot interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Borrows the metric registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The snapshots captured so far, oldest first.
    pub fn snapshots(&self) -> &[Snapshot] {
        &self.snapshots
    }

    /// Consumes the sink, yielding its snapshots.
    pub fn into_snapshots(self) -> Vec<Snapshot> {
        self.snapshots
    }

    /// Takes one final snapshot stamped `end` unless the latest snapshot
    /// already carries that timestamp. Call after the simulation loop so
    /// the series always closes at the run's horizon.
    pub fn finish(&mut self, end: SimTime) {
        if self.snapshots.last().map(|s| s.sim_time_ns) != Some(end.as_nanos()) {
            self.snapshot(end);
        }
    }

    /// Adds `delta` to counter `name`.
    pub fn count(&mut self, name: &'static str, delta: u64) {
        self.registry.add(name, delta);
    }

    /// Raises counter `name` to `total` (monotone; for instruments that
    /// keep their own running totals).
    pub fn count_to(&mut self, name: &'static str, total: u64) {
        self.registry.set_total(name, total);
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&mut self, name: &'static str, value: f64) {
        self.registry.set(name, value);
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.registry.observe(name, value);
    }

    /// If a snapshot boundary has been reached by `now`, the boundary's
    /// timestamp; `None` otherwise. Call in a loop: multiple boundaries
    /// may be due after a long event gap.
    pub fn snapshot_due(&self, now: SimTime) -> Option<SimTime> {
        (now >= self.next_snapshot).then_some(self.next_snapshot)
    }

    /// Captures a snapshot stamped `at` and advances the boundary.
    pub fn snapshot(&mut self, at: SimTime) {
        self.snapshots.push(self.registry.snapshot(at));
        // Advance past `at` in whole intervals so a manual out-of-cadence
        // snapshot cannot stall the boundary clock.
        while self.next_snapshot <= at {
            self.next_snapshot += self.interval;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_stamp_exact_multiples() {
        let mut t = SimTelemetry::new(SimDuration::from_secs(10));
        t.count("ops", 1);
        // The loop pumps late (at t = 35 s): three boundaries are due and
        // each must be stamped at its own multiple, not at `now`.
        let now = SimTime::from_secs(35);
        while let Some(at) = t.snapshot_due(now) {
            t.snapshot(at);
        }
        let stamps: Vec<u64> = t.snapshots().iter().map(|s| s.sim_time_ns).collect();
        assert_eq!(stamps, vec![10_000_000_000, 20_000_000_000, 30_000_000_000]);
    }

    #[test]
    fn finish_closes_the_series_once() {
        let mut t = SimTelemetry::new(SimDuration::from_secs(1));
        let end = SimTime::from_secs(5);
        while let Some(at) = t.snapshot_due(end) {
            t.snapshot(at);
        }
        assert_eq!(t.snapshots().len(), 5);
        t.finish(end); // last snapshot is already at `end`
        assert_eq!(t.snapshots().len(), 5);
        t.finish(SimTime::from_secs(6));
        assert_eq!(t.snapshots().len(), 6);
        assert_eq!(t.snapshots().last().unwrap().sim_time_ns, 6_000_000_000);
    }

    #[test]
    fn counters_persist_across_snapshots() {
        let mut t = SimTelemetry::new(SimDuration::from_millis(100));
        t.count("ops", 2);
        t.snapshot(SimTime::ZERO + SimDuration::from_millis(100));
        t.count("ops", 3);
        t.snapshot(SimTime::ZERO + SimDuration::from_millis(200));
        assert_eq!(t.snapshots()[0].counters[0], ("ops".to_string(), 2));
        assert_eq!(t.snapshots()[1].counters[0], ("ops".to_string(), 5));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_interval_is_rejected() {
        let _ = SimTelemetry::new(SimDuration::ZERO);
    }
}
