//! Streaming statistics: Welford moments and log-bucketed histograms.
//!
//! Simulations in this workspace run for billions of simulated events, so all
//! statistics are single-pass and constant-memory (histograms use fixed
//! logarithmic bucketing in the style of HDR histograms).

use serde::{Deserialize, Serialize};

/// A sample was rejected by a checked recording path: non-finite (NaN or
/// ±∞), or negative where the collector requires non-negative values.
///
/// A single NaN folded into a Welford accumulator turns mean, variance,
/// min, and max all into NaN — and a merge then spreads the poison into
/// every downstream aggregate. The checked paths surface the rejection
/// instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidSample;

impl std::fmt::Display for InvalidSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sample rejected: non-finite or out of range")
    }
}

impl std::error::Error for InvalidSample {}

/// Single-pass mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use mrm_sim::stats::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.sample_variance() - 32.0 / 7.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    // Absent until the first observation: the natural sentinels (±inf) are
    // not representable in JSON (they serialize as null and fail to
    // round-trip), so emptiness is explicit.
    min: Option<f64>,
    max: Option<f64>,
    sum: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: None,
            max: None,
            sum: 0.0,
        }
    }

    /// Records one observation. Non-finite values are silently ignored;
    /// use [`StreamingStats::try_record`] to observe the rejection.
    pub fn record(&mut self, x: f64) {
        let _ = self.try_record(x);
    }

    /// Records one observation, rejecting non-finite input with an error
    /// instead of poisoning the moments (see [`InvalidSample`]).
    pub fn try_record(&mut self, x: f64) -> Result<(), InvalidSample> {
        if !x.is_finite() {
            return Err(InvalidSample);
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(x, |m| m.min(x)));
        self.max = Some(self.max.map_or(x, |m| m.max(x)));
        Ok(())
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance with Bessel's correction (0 if fewer than two).
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min.unwrap_or(f64::INFINITY)
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max.unwrap_or(f64::NEG_INFINITY)
    }

    /// The accumulator's headline figures as one serializable struct, so
    /// telemetry snapshots and bench binaries don't hand-roll per-field
    /// extraction.
    pub fn summary(&self) -> StatsSummary {
        StatsSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min,
            max: self.max,
            std_dev: self.std_dev(),
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.sum += other.sum;
        self.min = Some(self.min().min(other.min()));
        self.max = Some(self.max().max(other.max()));
    }
}

/// The headline figures of a [`StreamingStats`] accumulator, shaped for
/// serialization (see [`StreamingStats::summary`]).
///
/// `min`/`max` are `None` when no observation was recorded, mirroring the
/// accumulator's JSON-safe representation of emptiness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StatsSummary {
    /// Number of observations.
    pub count: u64,
    /// Sample mean (0 if empty).
    pub mean: f64,
    /// Smallest observation (`None` if empty).
    pub min: Option<f64>,
    /// Largest observation (`None` if empty).
    pub max: Option<f64>,
    /// Sample standard deviation (0 if fewer than two observations).
    pub std_dev: f64,
}

/// A log-scale histogram for positive values spanning many decades.
///
/// Values are bucketed by `log2` with `sub` sub-buckets per octave, giving a
/// bounded relative error of `2^(1/sub) - 1` on percentile queries. Suitable
/// for latencies (ns..hours) and endurance counts (1..1e18).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LogHistogram {
    /// `sub` buckets per power of two.
    sub: u32,
    /// Bucket counts, indexed by `octave * sub + sub_index`, octave offset 0
    /// corresponds to values in `[1, 2)`. Values below 1 go to bucket 0's
    /// underflow counter.
    counts: Vec<u64>,
    underflow: u64,
    total: u64,
    stats: StreamingStats,
}

impl LogHistogram {
    /// Maximum representable octave (`2^63`).
    const OCTAVES: u32 = 64;

    /// Creates a histogram with `sub` sub-buckets per octave.
    ///
    /// # Panics
    ///
    /// Panics if `sub` is zero or greater than 256.
    pub fn new(sub: u32) -> Self {
        assert!((1..=256).contains(&sub), "sub-bucket count out of range");
        LogHistogram {
            sub,
            counts: vec![0; (Self::OCTAVES * sub) as usize],
            underflow: 0,
            total: 0,
            stats: StreamingStats::new(),
        }
    }

    fn bucket_of(&self, x: f64) -> Option<usize> {
        if x < 1.0 {
            return None;
        }
        let lg = x.log2();
        let octave = lg.floor();
        let frac = lg - octave;
        let idx = octave as u32 * self.sub + (frac * f64::from(self.sub)) as u32;
        Some((idx as usize).min(self.counts.len() - 1))
    }

    /// Records one value. Non-finite or negative values are silently
    /// ignored; use [`LogHistogram::try_record`] to observe the rejection.
    pub fn record(&mut self, x: f64) {
        let _ = self.try_record(x);
    }

    /// Records one value, rejecting non-finite or negative input with an
    /// error instead of dropping it on the floor — a recovery-latency
    /// pipeline feeding NaN here is a bug worth surfacing, not averaging
    /// away (see [`InvalidSample`]).
    pub fn try_record(&mut self, x: f64) -> Result<(), InvalidSample> {
        if !x.is_finite() || x < 0.0 {
            return Err(InvalidSample);
        }
        self.total += 1;
        self.stats.record(x);
        match self.bucket_of(x) {
            Some(i) => self.counts[i] += 1,
            None => self.underflow += 1,
        }
        Ok(())
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded values.
    pub fn mean(&self) -> f64 {
        self.stats.mean()
    }

    /// Largest recorded value.
    pub fn max(&self) -> f64 {
        self.stats.max()
    }

    /// Smallest recorded value.
    pub fn min(&self) -> f64 {
        self.stats.min()
    }

    /// The value at percentile `p ∈ \[0, 100\]`, or `None` for an empty
    /// histogram — an empty percentile is "no data", not "zero
    /// milliseconds", and reporting 0 for it mislabels an idle system as
    /// an infinitely fast one (the same shape as the
    /// [`StreamingStats::min`]/[`StreamingStats::max`] `Option` fix).
    pub fn try_percentile(&self, p: f64) -> Option<f64> {
        (self.total > 0).then(|| self.percentile(p))
    }

    /// The value at percentile `p ∈ \[0, 100\]`, accurate to the bucket width.
    ///
    /// Returns 0 for an empty histogram; prefer
    /// [`LogHistogram::try_percentile`] anywhere "empty" and "zero" must
    /// not be conflated.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        let target = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return self.stats.min().max(0.0);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Geometric midpoint of the bucket.
                let octave = f64::from(i as u32 / self.sub);
                let subi = f64::from(i as u32 % self.sub);
                let lo = octave + subi / f64::from(self.sub);
                let hi = octave + (subi + 1.0) / f64::from(self.sub);
                return 2f64.powf(0.5 * (lo + hi));
            }
        }
        self.stats.max()
    }

    /// Summary of the recorded values (count/mean/min/max/stddev), see
    /// [`StreamingStats::summary`].
    pub fn summary(&self) -> StatsSummary {
        self.stats.summary()
    }

    /// Merges another histogram with identical bucketing.
    ///
    /// # Panics
    ///
    /// Panics if the sub-bucket counts differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert_eq!(self.sub, other.sub, "histogram bucketing mismatch");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.total += other.total;
        self.stats.merge(&other.stats);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new(16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_basics() {
        let mut s = StreamingStats::new();
        assert!(s.mean().abs() < f64::EPSILON);
        for x in 1..=100 {
            s.record(f64::from(x));
        }
        assert_eq!(s.count(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
        assert_eq!(s.min().to_bits(), 1.0f64.to_bits());
        assert_eq!(s.max().to_bits(), 100.0f64.to_bits());
        assert!((s.sample_variance() - 841.6666667).abs() < 1e-4);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let mut all = StreamingStats::new();
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        for i in 0..1000 {
            let x = f64::from(i).sin() * 10.0 + 5.0;
            all.record(x);
            if i % 2 == 0 {
                a.record(x)
            } else {
                b.record(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - all.sample_variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = StreamingStats::new();
        let mut b = StreamingStats::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let empty = StreamingStats::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn log_histogram_percentiles() {
        let mut h = LogHistogram::new(32);
        for x in 1..=10_000u64 {
            h.record(x as f64);
        }
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        assert!((p50 / 5_000.0 - 1.0).abs() < 0.05, "p50 {p50}");
        assert!((p99 / 9_900.0 - 1.0).abs() < 0.05, "p99 {p99}");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn log_histogram_wide_dynamic_range() {
        let mut h = LogHistogram::new(16);
        // Endurance-style values spanning 15 decades.
        for exp in 0..=15 {
            h.record(10f64.powi(exp));
        }
        assert_eq!(h.count(), 16);
        let p100 = h.percentile(100.0);
        assert!(p100 > 5e14 && p100 < 2e15, "p100 {p100}");
    }

    #[test]
    fn log_histogram_ignores_garbage() {
        let mut h = LogHistogram::new(8);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(-5.0);
        assert_eq!(h.count(), 0);
        h.record(0.5); // underflow bucket
        assert_eq!(h.count(), 1);
        assert_eq!(h.percentile(50.0).to_bits(), 0.5f64.to_bits());
    }

    #[test]
    fn log_histogram_merge() {
        let mut a = LogHistogram::new(16);
        let mut b = LogHistogram::new(16);
        for x in 1..=500u64 {
            a.record(x as f64);
        }
        for x in 501..=1000u64 {
            b.record(x as f64);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        let p50 = a.percentile(50.0);
        assert!((p50 / 500.0 - 1.0).abs() < 0.1, "p50 {p50}");
    }

    #[test]
    fn empty_stats_round_trip_json() {
        // Regression: empty accumulators used to serialize their sentinel
        // min/max infinities, which JSON renders as null and which then
        // failed to deserialize back.
        let s = StreamingStats::new();
        let json = serde_json::to_string(&s).unwrap();
        assert!(!json.contains("inf"), "no non-finite leak: {json}");
        let mut back: StreamingStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), 0);
        assert_eq!(back.min().to_bits(), f64::INFINITY.to_bits());
        assert_eq!(back.max().to_bits(), f64::NEG_INFINITY.to_bits());
        // A revived accumulator keeps working like a fresh one.
        back.record(2.0);
        assert_eq!(back.min().to_bits(), 2.0f64.to_bits());
        assert_eq!(back.max().to_bits(), 2.0f64.to_bits());
    }

    #[test]
    fn populated_stats_round_trip_json() {
        let mut s = StreamingStats::new();
        for x in [3.5, -1.25, 10.0] {
            s.record(x);
        }
        let back: StreamingStats =
            serde_json::from_str(&serde_json::to_string(&s).unwrap()).unwrap();
        assert_eq!(back.count(), 3);
        assert_eq!(back.min().to_bits(), (-1.25f64).to_bits());
        assert_eq!(back.max().to_bits(), 10.0f64.to_bits());
        assert!((back.mean() - s.mean()).abs() < 1e-12);
        assert!((back.sample_variance() - s.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_round_trip_json() {
        // LogHistogram embeds StreamingStats, so an empty histogram hit the
        // same non-finite JSON problem.
        let h = LogHistogram::new(8);
        let json = serde_json::to_string(&h).unwrap();
        let back: LogHistogram = serde_json::from_str(&json).unwrap();
        assert_eq!(back.count(), 0);
        assert!(back.percentile(50.0).abs() < f64::EPSILON);
    }

    #[test]
    fn try_percentile_distinguishes_empty_from_zero() {
        let mut h = LogHistogram::new(8);
        assert_eq!(h.try_percentile(50.0), None);
        h.record(0.0);
        // A genuine zero-valued sample is Some(0-ish), not None.
        let p = h.try_percentile(50.0).unwrap();
        assert!(p >= 0.0);
        h.record(8.0);
        assert_eq!(h.try_percentile(99.0), Some(h.percentile(99.0)));
    }

    #[test]
    fn summary_round_trips_and_matches_accessors() {
        let mut s = StreamingStats::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.record(x);
        }
        let sum = s.summary();
        assert_eq!(sum.count, 4);
        assert_eq!(sum.min, Some(1.0));
        assert_eq!(sum.max, Some(4.0));
        assert!((sum.mean - s.mean()).abs() < 1e-12);
        assert!((sum.std_dev - s.std_dev()).abs() < 1e-12);
        let back: StatsSummary =
            serde_json::from_str(&serde_json::to_string(&sum).unwrap()).unwrap();
        assert_eq!(back, sum);
        // Empty summaries stay JSON-safe (no non-finite sentinels).
        let empty = StreamingStats::new().summary();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min, None);
        let json = serde_json::to_string(&empty).unwrap();
        assert!(!json.contains("inf"), "{json}");
        // A histogram's summary reflects its underlying accumulator.
        let mut h = LogHistogram::new(8);
        h.record(10.0);
        h.record(30.0);
        assert_eq!(h.summary().count, 2);
        assert_eq!(h.summary().min, Some(10.0));
        assert_eq!(h.summary().max, Some(30.0));
    }

    #[test]
    fn nan_sample_is_rejected_with_an_error() {
        let mut s = StreamingStats::new();
        s.record(10.0);
        assert_eq!(s.try_record(f64::NAN), Err(InvalidSample));
        assert_eq!(s.try_record(f64::INFINITY), Err(InvalidSample));
        assert_eq!(s.try_record(f64::NEG_INFINITY), Err(InvalidSample));
        // The rejection left the accumulator untouched and unpoisoned.
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean().to_bits(), 10.0f64.to_bits());
        assert_eq!(s.min().to_bits(), 10.0f64.to_bits());
        // The unchecked path skips silently (back-compat).
        s.record(f64::NAN);
        assert_eq!(s.count(), 1);
        assert!(s.mean().is_finite());
        // The error is a real std error with a message.
        let msg = InvalidSample.to_string();
        assert!(msg.contains("rejected"), "{msg}");
    }

    #[test]
    fn nan_injection_does_not_poison_merged_percentiles() {
        // The ISSUE-5 regression scenario: a recovery-latency pipeline
        // produces one NaN sample on one shard; after the shards merge,
        // percentiles must still be finite and correct.
        let mut shard_a = LogHistogram::new(16);
        let mut shard_b = LogHistogram::new(16);
        for x in 1..=100u64 {
            shard_a.record(x as f64);
        }
        assert_eq!(shard_b.try_record(f64::NAN), Err(InvalidSample));
        assert_eq!(shard_b.try_record(-3.0), Err(InvalidSample));
        for x in 101..=200u64 {
            shard_b.record(x as f64);
        }
        shard_a.merge(&shard_b);
        assert_eq!(shard_a.count(), 200);
        let p50 = shard_a.percentile(50.0);
        assert!(p50.is_finite() && (p50 / 100.0 - 1.0).abs() < 0.1, "{p50}");
        assert!(shard_a.mean().is_finite());
        assert!(shard_a.summary().std_dev.is_finite());
    }
}
