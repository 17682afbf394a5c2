//! Named counters, gauges, and histograms in flat, registration-ordered
//! storage.
//!
//! A [`MetricsRegistry`] stores each metric kind in a flat `Vec` in
//! registration order, with a name index beside it. Every update names its
//! metric; the first update to a new name registers it.

use std::collections::BTreeMap;

use mrm_sim::stats::LogHistogram;
use mrm_sim::time::SimTime;
use serde::{Deserialize, Error, Serialize, Value};

/// Sub-buckets per octave for registry histograms (~4.4 % relative error).
const HISTOGRAM_SUB_BUCKETS: u32 = 16;

/// A registry of named metrics with flat storage.
///
/// Metrics are created on first update and keep their values for the
/// registry's lifetime. Iteration and snapshots report metrics in
/// registration order, which is deterministic for a deterministic
/// instrumentation path — the property the sweep determinism tests rely on.
///
/// # Examples
///
/// ```
/// use mrm_telemetry::MetricsRegistry;
/// use mrm_sim::time::SimTime;
///
/// let mut r = MetricsRegistry::new();
/// r.add("reads", 3);
/// r.set("queue_depth", 7.0);
/// r.observe("latency_ms", 12.5);
/// let snap = r.snapshot(SimTime::from_secs(1));
/// assert_eq!(snap.counters, vec![("reads".to_string(), 3)]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    counter_names: Vec<&'static str>,
    counter_values: Vec<u64>,
    counter_ids: BTreeMap<&'static str, u32>,
    gauge_names: Vec<&'static str>,
    gauge_values: Vec<f64>,
    gauge_ids: BTreeMap<&'static str, u32>,
    hist_names: Vec<&'static str>,
    hist_values: Vec<LogHistogram>,
    hist_ids: BTreeMap<&'static str, u32>,
}

/// The storage slot of metric `name`, registering it with `init()` if new.
fn slot<'a, T>(
    names: &mut Vec<&'static str>,
    values: &'a mut Vec<T>,
    ids: &mut BTreeMap<&'static str, u32>,
    name: &'static str,
    init: impl FnOnce() -> T,
) -> &'a mut T {
    let i = *ids.entry(name).or_insert_with(|| {
        names.push(name);
        values.push(init());
        (values.len() - 1) as u32
    });
    &mut values[i as usize]
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn counter(&mut self, name: &'static str) -> &mut u64 {
        slot(
            &mut self.counter_names,
            &mut self.counter_values,
            &mut self.counter_ids,
            name,
            || 0,
        )
    }

    /// Adds `n` to counter `name`.
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counter(name) += n;
    }

    /// Raises counter `name` to `total` if it is below it.
    ///
    /// This is the pull-style update used by instruments that already keep
    /// their own running totals: re-publishing the total is idempotent and
    /// keeps the counter monotone even if publishers overlap.
    pub fn set_total(&mut self, name: &'static str, total: u64) {
        let v = self.counter(name);
        *v = (*v).max(total);
    }

    /// Sets gauge `name` to `value` (last write wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        *slot(
            &mut self.gauge_names,
            &mut self.gauge_values,
            &mut self.gauge_ids,
            name,
            || 0.0,
        ) = value;
    }

    /// Records one observation into histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        slot(
            &mut self.hist_names,
            &mut self.hist_values,
            &mut self.hist_ids,
            name,
            || LogHistogram::new(HISTOGRAM_SUB_BUCKETS),
        )
        .record(value);
    }

    /// Reads a counter by name (`None` if never registered).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counter_ids
            .get(name)
            .map(|&i| self.counter_values[i as usize])
    }

    /// Reads a gauge by name (`None` if never registered).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauge_ids
            .get(name)
            .map(|&i| self.gauge_values[i as usize])
    }

    /// Borrows a histogram by name (`None` if never registered).
    pub fn histogram_by_name(&self, name: &str) -> Option<&LogHistogram> {
        self.hist_ids
            .get(name)
            .map(|&i| &self.hist_values[i as usize])
    }

    /// Iterates counters as `(name, value)` in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counter_names
            .iter()
            .zip(&self.counter_values)
            .map(|(n, v)| (*n, *v))
    }

    /// Iterates gauges as `(name, value)` in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauge_names
            .iter()
            .zip(&self.gauge_values)
            .map(|(n, v)| (*n, *v))
    }

    /// Iterates histograms as `(name, histogram)` in registration order.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.hist_names
            .iter()
            .zip(&self.hist_values)
            .map(|(n, h)| (*n, h))
    }

    /// Captures the current value of every metric, stamped with `at`.
    pub fn snapshot(&self, at: SimTime) -> Snapshot {
        Snapshot {
            sim_time_ns: at.as_nanos(),
            counters: self.counters().map(|(n, v)| (n.to_string(), v)).collect(),
            gauges: self.gauges().map(|(n, v)| (n.to_string(), v)).collect(),
            histograms: self
                .histograms()
                .map(|(n, h)| (n.to_string(), HistogramSummary::of(h)))
                .collect(),
        }
    }
}

/// Percentile-bearing summary of one histogram at snapshot time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean (0 if empty).
    pub mean: f64,
    /// Smallest observation (`None` if empty).
    pub min: Option<f64>,
    /// Largest observation (`None` if empty).
    pub max: Option<f64>,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Median, accurate to the histogram's bucket width.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarizes a histogram (percentiles plus the Welford figures).
    pub fn of(h: &LogHistogram) -> Self {
        let s = h.summary();
        HistogramSummary {
            count: s.count,
            mean: s.mean,
            min: s.min,
            max: s.max,
            std_dev: s.std_dev,
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p99: h.percentile(99.0),
        }
    }
}

/// One point-in-time capture of a registry: the JSONL record shape.
///
/// Serializes as an object with fields in the fixed order `sim_time_ns`,
/// `counters`, `gauges`, `histograms`; the three metric maps are nested
/// objects in registration order, so repeated exports of the same
/// instrumentation path are byte-identical.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Simulated time of the capture, in nanoseconds.
    pub sim_time_ns: u64,
    /// Counter totals at capture time.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at capture time.
    pub gauges: Vec<(String, f64)>,
    /// Histogram summaries at capture time.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Serialize for Snapshot {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("sim_time_ns".to_string(), Value::U64(self.sim_time_ns)),
            (
                "counters".to_string(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

fn object_entries<'v>(v: &'v Value, what: &str) -> Result<&'v [(String, Value)], Error> {
    match v {
        Value::Object(entries) => Ok(entries),
        other => Err(Error::custom(format!(
            "expected {what} object, got {}",
            other.kind()
        ))),
    }
}

impl Deserialize for Snapshot {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let sim_time_ns = u64::from_value(v.field("sim_time_ns"))
            .map_err(|e| e.in_field("Snapshot", "sim_time_ns"))?;
        let counters = object_entries(v.field("counters"), "counters")?
            .iter()
            .map(|(k, val)| Ok((k.clone(), u64::from_value(val)?)))
            .collect::<Result<_, Error>>()
            .map_err(|e| e.in_field("Snapshot", "counters"))?;
        let gauges = object_entries(v.field("gauges"), "gauges")?
            .iter()
            .map(|(k, val)| Ok((k.clone(), f64::from_value(val)?)))
            .collect::<Result<_, Error>>()
            .map_err(|e| e.in_field("Snapshot", "gauges"))?;
        let histograms = object_entries(v.field("histograms"), "histograms")?
            .iter()
            .map(|(k, val)| Ok((k.clone(), HistogramSummary::from_value(val)?)))
            .collect::<Result<_, Error>>()
            .map_err(|e| e.in_field("Snapshot", "histograms"))?;
        Ok(Snapshot {
            sim_time_ns,
            counters,
            gauges,
            histograms,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_by_name_share_one_slot() {
        let mut r = MetricsRegistry::new();
        r.add("a", 1);
        r.add("b", 10);
        r.add("a", 2);
        assert_eq!(r.counter_value("a"), Some(3));
        assert_eq!(r.counter_value("b"), Some(10));
        assert_eq!(r.counter_value("absent"), None);
        assert_eq!(r.counters().count(), 2);
    }

    #[test]
    fn set_total_is_monotone() {
        let mut r = MetricsRegistry::new();
        r.set_total("total", 5);
        r.set_total("total", 3); // stale republish must not regress
        r.set_total("total", 9);
        assert_eq!(r.counter_value("total"), Some(9));
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut r = MetricsRegistry::new();
        r.set("depth", 4.0);
        r.set("depth", 2.5);
        assert_eq!(r.gauge_value("depth"), Some(2.5));
    }

    #[test]
    fn histograms_accumulate() {
        let mut r = MetricsRegistry::new();
        for x in 1..=100 {
            r.observe("lat", f64::from(x));
        }
        let hist = r.histogram_by_name("lat").unwrap();
        assert_eq!(hist.count(), 100);
        let summary = HistogramSummary::of(hist);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.min, Some(1.0));
        assert!(
            (summary.p50 / 50.0 - 1.0).abs() < 0.1,
            "p50 {}",
            summary.p50
        );
    }

    #[test]
    fn snapshot_keeps_registration_order_and_round_trips() {
        let mut r = MetricsRegistry::new();
        r.add("zebra", 1); // registered first, sorts last
        r.add("aardvark", 2);
        r.set("occupancy", 0.75);
        r.observe("lat", 8.0);
        let snap = r.snapshot(SimTime::from_nanos(123));
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["zebra", "aardvark"]);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.starts_with("{\"sim_time_ns\":123,"), "{json}");
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_histogram_snapshot_is_json_safe() {
        let snap = Snapshot {
            sim_time_ns: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![(
                "never_observed".to_string(),
                HistogramSummary::of(&LogHistogram::new(HISTOGRAM_SUB_BUCKETS)),
            )],
        };
        let json = serde_json::to_string(&snap).unwrap();
        assert!(!json.contains("inf"), "{json}");
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.histograms[0].1.min, None);
    }
}
