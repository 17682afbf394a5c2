//! Probability distributions over the kernel RNG.
//!
//! The workload generators sample request inter-arrival times (exponential),
//! context lengths and think times (log-normal around the published
//! Splitwise medians), and prompt popularity (Zipf); uniform and empirical
//! quantile tables complete the set. All distributions draw from [`SimRng`]
//! so results stay deterministic and independent of external crates.

use crate::rng::SimRng;

/// A distribution over `f64` samples.
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The distribution mean, if it exists in closed form.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Clone, Copy, Debug)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(
            lo.is_finite() && hi.is_finite() && lo <= hi,
            "bad uniform bounds"
        );
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.lo + (self.hi - self.lo) * rng.next_f64()
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
}

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// Used for Poisson request arrivals: inter-arrival times of a Poisson
/// process with rate λ are Exponential(λ).
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given rate.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is not strictly positive and finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive"
        );
        Exponential { lambda }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exponential::new(1.0 / mean)
    }
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF; 1 - U avoids ln(0) since next_f64 ∈ [0,1).
        -(1.0 - rng.next_f64()).ln() / self.lambda
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.lambda)
    }
}

/// Normal distribution (Box–Muller transform).
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `mu` and standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad normal params"
        );
        Normal { mu, sigma }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Box–Muller; one of the pair is discarded to keep the sampler
        // stateless (throughput here is irrelevant next to determinism).
        let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let u2 = rng.next_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        self.mu + self.sigma * z
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
}

/// Log-normal distribution: `exp(Normal(mu, sigma))`.
///
/// Context-length distributions in LLM serving traces are heavy-tailed and
/// well approximated by log-normals around the published medians.
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    normal: Normal,
}

impl LogNormal {
    /// Creates a log-normal with underlying normal parameters `(mu, sigma)`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            normal: Normal::new(mu, sigma),
        }
    }

    /// Creates a log-normal from its *median* and the sigma of the
    /// underlying normal. The median of `LogNormal(mu, sigma)` is `exp(mu)`,
    /// which makes fitting to published medians direct.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.normal.sample(rng).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.normal.mu + 0.5 * self.normal.sigma * self.normal.sigma).exp())
    }
}

/// Zipf distribution over ranks `1..=n` with exponent `s`.
///
/// Models skewed popularity — e.g. which foundation model a request targets
/// ("a small number of the most popular ones are used at scale", §2).
/// Sampling is by binary search over a precomputed CDF, O(log n).
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s.is_finite() && s >= 0.0, "bad zipf exponent");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `1..=n` (1 is the most popular).
    pub fn sample_rank(&self, rng: &mut SimRng) -> usize {
        let u = rng.next_f64();
        match self
            .cdf
            .binary_search_by(|c| c.partial_cmp(&u).expect("CDF is NaN-free by construction"))
        {
            Ok(i) => i + 2.min(self.cdf.len() - i), // exact hit: next rank
            Err(i) => i + 1,
        }
        .min(self.cdf.len())
    }
}

impl Distribution for Zipf {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.sample_rank(rng) as f64
    }
}

/// Empirical distribution from a quantile table, with linear interpolation.
///
/// This is how published trace statistics enter the simulator: a handful of
/// `(quantile, value)` points (e.g. P25/P50/P75/P90/P99 context lengths from
/// Splitwise) define a piecewise-linear inverse CDF.
#[derive(Clone, Debug)]
pub struct Empirical {
    /// Strictly increasing quantiles in `\[0, 1\]` with their values.
    points: Vec<(f64, f64)>,
}

impl Empirical {
    /// Creates an empirical distribution from `(quantile, value)` points.
    ///
    /// Points are sorted by quantile. If the table does not start at
    /// quantile 0 or end at quantile 1, the extreme values are extended flat.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two points are given, quantiles fall outside
    /// `\[0, 1\]`, or values are not non-decreasing in quantile order.
    pub fn from_quantiles(mut points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "need at least two quantile points");
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        for w in points.windows(2) {
            assert!(
                (0.0..=1.0).contains(&w[0].0) && (0.0..=1.0).contains(&w[1].0),
                "quantiles must be in [0,1]"
            );
            assert!(w[0].1 <= w[1].1, "values must be non-decreasing");
        }
        if points[0].0 > 0.0 {
            let v = points[0].1;
            points.insert(0, (0.0, v));
        }
        if points[points.len() - 1].0 < 1.0 {
            let v = points[points.len() - 1].1;
            points.push((1.0, v));
        }
        Empirical { points }
    }

    /// Evaluates the inverse CDF at `q ∈ \[0, 1\]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        let mut prev = self.points[0];
        for &p in &self.points[1..] {
            if q <= p.0 {
                if p.0 <= prev.0 {
                    return p.1;
                }
                let t = (q - prev.0) / (p.0 - prev.0);
                return prev.1 + t * (p.1 - prev.1);
            }
            prev = p;
        }
        self.points
            .last()
            .expect("from_quantiles guarantees at least two points")
            .1
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.quantile(rng.next_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from(0xC0FFEE)
    }

    fn sample_mean<D: Distribution>(d: &D, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn uniform_mean_and_bounds() {
        let d = Uniform::new(10.0, 20.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!((10.0..20.0).contains(&x));
        }
        assert!((sample_mean(&d, 100_000) - 15.0).abs() < 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let d = Exponential::with_mean(4.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 4.0).abs() < 0.05, "mean {m}");
        assert_eq!(d.mean(), Some(4.0));
    }

    #[test]
    fn exponential_is_memoryless_positive() {
        let d = Exponential::new(2.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(5.0, 2.0);
        let mut r = rng();
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / f64::from(n);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / f64::from(n);
        assert!((mean - 5.0).abs() < 0.03, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_is_respected() {
        let d = LogNormal::from_median(1020.0, 0.8);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..100_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[50_000];
        assert!((median / 1020.0 - 1.0).abs() < 0.03, "median {median}");
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let d = Zipf::new(100, 1.2);
        let mut r = rng();
        let mut counts = vec![0u32; 101];
        for _ in 0..100_000 {
            counts[d.sample_rank(&mut r)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0);
    }

    #[test]
    fn zipf_stays_in_range() {
        let d = Zipf::new(5, 1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let k = d.sample_rank(&mut r);
            assert!((1..=5).contains(&k));
        }
    }

    #[test]
    fn empirical_interpolates_quantiles() {
        let d = Empirical::from_quantiles(vec![
            (0.25, 100.0),
            (0.50, 1020.0),
            (0.75, 2000.0),
            (0.99, 8000.0),
        ]);
        // Table knots and flat extensions return stored values exactly.
        assert_eq!(d.quantile(0.50).to_bits(), 1020.0f64.to_bits());
        assert_eq!(d.quantile(0.0).to_bits(), 100.0f64.to_bits());
        assert_eq!(d.quantile(1.0).to_bits(), 8000.0f64.to_bits());
        let mid = d.quantile(0.375);
        assert!(mid > 100.0 && mid < 1020.0);
    }

    #[test]
    fn empirical_sampling_median() {
        let d = Empirical::from_quantiles(vec![(0.0, 0.0), (0.5, 50.0), (1.0, 100.0)]);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..50_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((xs[25_000] - 50.0).abs() < 2.0);
    }

    #[test]
    #[should_panic(expected = "values must be non-decreasing")]
    fn empirical_rejects_decreasing_values() {
        let _ = Empirical::from_quantiles(vec![(0.1, 5.0), (0.9, 1.0)]);
    }
}
