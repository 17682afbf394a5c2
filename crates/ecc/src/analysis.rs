//! RBER → UBER analysis: reliability math for retention-aware ECC.
//!
//! Given a raw bit error rate `p` (from the device model's age/wear curves)
//! and a `t`-error-correcting code over `n`-bit codewords, the codeword
//! failure probability is the binomial tail `P[X > t]`, `X ~ Bin(n, p)`.
//! These functions compute that tail stably in log space (a [`FailureLaw`]
//! keeps the coefficients of one codeword length across queries), invert it
//! to find the `t` a target reliability requires, and produce the paper's
//! two §4 curves:
//!
//! * **overhead vs. codeword size at iso-reliability** — the Dolinar effect:
//!   larger blocks need proportionally fewer check bits;
//! * **scrub interval vs. ECC strength** — how long data can age toward its
//!   retention target before the decoder can no longer keep up, which is
//!   what a retention-aware control plane schedules scrubs against.

/// Natural log of the binomial coefficient `C(n, k)` via `ln Γ`.
fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// `ln(n!)` by Stirling's series for large n, exact summation for small.
fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n < 256 {
        return (2..=n).map(|i| (i as f64).ln()).sum();
    }
    let x = n as f64;
    // Stirling with 1/(12n) correction: plenty for probability work.
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
}

/// `ln x` with `x` floored at the smallest positive normal, so a `1 - p`
/// that rounds to zero gives a finite log.
fn ln_floored(x: f64) -> f64 {
    x.max(f64::MIN_POSITIVE).ln()
}

/// The uncorrectable-codeword law of one codeword length `n`: the binomial
/// tail `P[X > t]`, `X ~ Bin(n, p)`, for any `t` and `p`.
///
/// Each `ln C(n, k)` a query needs is computed once, by the same expression
/// a fresh evaluation uses, and kept; later queries reuse it. The table
/// grows on demand (a few dozen entries in practice, at most `n + 1`), so a
/// law costs nothing until it is first queried, and [`FailureLaw::at`]
/// returns exactly the bits of [`codeword_failure_prob`].
#[derive(Clone, Debug)]
pub struct FailureLaw {
    n: u64,
    /// `ln C(n, k)` for every `k < ln_choose.len()`.
    ln_choose: Vec<f64>,
}

impl FailureLaw {
    /// The law of `n`-bit codewords, with nothing computed yet.
    pub fn new(n: u64) -> Self {
        FailureLaw {
            n,
            ln_choose: Vec::new(),
        }
    }

    /// `ln C(n, k)` for `k ≤ n`, computed the first time it is needed.
    fn ln_choose(&mut self, k: u64) -> f64 {
        while self.ln_choose.len() as u64 <= k {
            let next = self.ln_choose.len() as u64;
            self.ln_choose.push(ln_choose(self.n, next));
        }
        self.ln_choose[k as usize]
    }

    /// Probability that a codeword with raw bit error rate `p` contains
    /// **more than** `t` errors — i.e. the probability the codeword is
    /// uncorrectable by a t-error-correcting code.
    ///
    /// Computed as the complement of the lower binomial CDF in log space
    /// for numerical stability down to ~1e-300.
    pub fn at(&mut self, t: u64, p: f64) -> f64 {
        let n = self.n;
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return if t < n { 1.0 } else { 0.0 };
        }
        let ln_p = p.ln();
        let ln_q = ln_floored(1.0 - p);
        // Sum the tail directly when it is the smaller side (p·n below t);
        // otherwise sum the head and subtract.
        let mean = n as f64 * p;
        if mean <= t as f64 {
            // Tail sum: k = t+1 ..= n. Terms decay geometrically; stop when
            // negligible.
            let mut total = 0.0f64;
            let mut k = t + 1;
            let mut last_term = f64::NEG_INFINITY;
            while k <= n {
                let ln_term = self.ln_choose(k) + k as f64 * ln_p + (n - k) as f64 * ln_q;
                let term = ln_term.exp();
                total += term;
                // Convergence: terms shrinking and tiny relative to total.
                if ln_term < last_term && term < total * 1e-16 {
                    break;
                }
                last_term = ln_term;
                k += 1;
            }
            total.min(1.0)
        } else {
            // Head sum: k = 0 ..= t.
            let mut head = 0.0f64;
            for k in 0..=t.min(n) {
                let ln_term = self.ln_choose(k) + k as f64 * ln_p + (n - k) as f64 * ln_q;
                head += ln_term.exp();
            }
            (1.0 - head).clamp(0.0, 1.0)
        }
    }

    /// The smallest `t` that meets `target` codeword failure probability
    /// at raw bit error rate `rber`; `None` if even `t = n` cannot (i.e.
    /// target is 0).
    pub fn required_t(&mut self, rber: f64, target: f64) -> Option<u64> {
        if target <= 0.0 {
            return None;
        }
        (0..=self.n).find(|&t| self.at(t, rber) <= target)
    }
}

/// Probability that a codeword of `n` bits with raw bit error rate `p`
/// contains **more than** `t` errors: a one-off [`FailureLaw::at`]. Callers
/// that query one `n` repeatedly keep a [`FailureLaw`] instead.
pub fn codeword_failure_prob(n: u64, t: u64, p: f64) -> f64 {
    FailureLaw::new(n).at(t, p)
}

/// The smallest `t` such that a t-error-correcting code over `n`-bit
/// codewords meets `target` codeword failure probability at raw bit error
/// rate `rber`. Returns `None` if even `t = n` cannot (i.e. target is 0).
pub fn required_t(n: u64, rber: f64, target: f64) -> Option<u64> {
    FailureLaw::new(n).required_t(rber, target)
}

/// One row of the iso-reliability overhead curve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OverheadPoint {
    /// Data bits per codeword.
    pub data_bits: u64,
    /// Codeword bits (data + parity).
    pub codeword_bits: u64,
    /// Required correction capability.
    pub t: u64,
    /// Parity bits spent (BCH-style: `m·t` with `m = ⌈log2(n+1)⌉`).
    pub parity_bits: u64,
    /// Overhead fraction: parity / codeword.
    pub overhead: f64,
    /// Achieved codeword failure probability.
    pub achieved_cw_fail: f64,
}

/// Computes the overhead a BCH-style code needs at each data-block size to
/// hold codeword reliability at `target_cw_fail` under raw bit error rate
/// `rber` — the §4 "larger code words and less overhead" curve.
///
/// For each data size the code length is found self-consistently
/// (`n = data + m·t`, `m = ⌈log2(n+1)⌉`) by fixed-point iteration.
pub fn iso_reliability_overhead(
    rber: f64,
    target_cw_fail: f64,
    data_sizes_bits: &[u64],
) -> Vec<OverheadPoint> {
    data_sizes_bits
        .iter()
        .filter_map(|&data| {
            // Fixed point on (t, m): start from n = data.
            let mut n = data;
            for _ in 0..32 {
                let mut law = FailureLaw::new(n);
                let t = law.required_t(rber, target_cw_fail)?;
                let m = u64::from(64 - (n + 1).leading_zeros()); // ⌈log2(n+1)⌉
                let n_next = data + m * t;
                if n_next == n {
                    return Some(OverheadPoint {
                        data_bits: data,
                        codeword_bits: n,
                        t,
                        parity_bits: m * t,
                        overhead: (m * t) as f64 / n as f64,
                        achieved_cw_fail: law.at(t, rber),
                    });
                }
                n = n_next;
            }
            // Fixed point oscillated by ±1; accept the last iterate.
            let t = required_t(n, rber, target_cw_fail)?;
            let m = u64::from(64 - (n + 1).leading_zeros());
            Some(OverheadPoint {
                data_bits: data,
                codeword_bits: data + m * t,
                t,
                parity_bits: m * t,
                overhead: (m * t) as f64 / (data + m * t) as f64,
                achieved_cw_fail: codeword_failure_prob(data + m * t, t, rber),
            })
        })
        .collect()
}

/// Finds the longest data age (as a fraction of the retention target, in
/// `(0, max_fraction]`) at which a `t`-error-correcting code over `n`-bit
/// codewords still meets `target_cw_fail`, given a monotone `rber(age_frac)`
/// function. Binary search; returns 0.0 if even infinitesimal age fails.
///
/// This is the scrub-scheduling primitive: the control plane must rewrite
/// (scrub) or migrate data before its age crosses the returned fraction.
pub fn max_safe_age_fraction<F>(n: u64, t: u64, target_cw_fail: f64, rber_at: F) -> f64
where
    F: Fn(f64) -> f64,
{
    let mut law = FailureLaw::new(n);
    let mut ok = |frac: f64| law.at(t, rber_at(frac)) <= target_cw_fail;
    if !ok(1e-6) {
        return 0.0;
    }
    let max_fraction = 4.0; // allow exploring past the nominal target
    if ok(max_fraction) {
        return max_fraction;
    }
    let (mut lo, mut hi) = (1e-6, max_fraction);
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if ok(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test oracle: the one-shot binomial tail, rebuilding every `ln C(n, k)`
    /// from scratch. [`FailureLaw::at`] must reproduce it bit for bit.
    fn codeword_failure_prob_reference(n: u64, t: u64, p: f64) -> f64 {
        if p <= 0.0 {
            return 0.0;
        }
        if p >= 1.0 {
            return if t < n { 1.0 } else { 0.0 };
        }
        let ln_p = p.ln();
        let ln_q = ln_floored(1.0 - p);
        // Sum the tail directly when it is the smaller side (p·n below t);
        // otherwise sum the head and subtract.
        let mean = n as f64 * p;
        if mean <= t as f64 {
            // Tail sum: k = t+1 ..= n. Terms decay geometrically; stop when
            // negligible.
            let mut total = 0.0f64;
            let mut k = t + 1;
            let mut last_term = f64::NEG_INFINITY;
            while k <= n {
                let ln_term = ln_choose(n, k) + k as f64 * ln_p + (n - k) as f64 * ln_q;
                total += ln_term.exp();
                // Convergence: terms shrinking and tiny relative to total.
                if ln_term < last_term && ln_term.exp() < total * 1e-16 {
                    break;
                }
                last_term = ln_term;
                k += 1;
            }
            total.min(1.0)
        } else {
            // Head sum: k = 0 ..= t.
            let mut head = 0.0f64;
            for k in 0..=t.min(n) {
                let ln_term = ln_choose(n, k) + k as f64 * ln_p + (n - k) as f64 * ln_q;
                head += ln_term.exp();
            }
            (1.0 - head).clamp(0.0, 1.0)
        }
    }

    #[test]
    fn kept_law_is_bit_identical_to_the_reference() {
        const TS: [u64; 4] = [0, 1, 2, 8];
        for n in [10u64, 100, 532, 4096] {
            // Log-spaced grid, 1e-12 ..= 0.5, plus each branch boundary
            // p = t/n and its two neighbours.
            let mut queries = Vec::new();
            for i in 0..=46 {
                let p = (1e-12f64.ln() + f64::from(i) / 46.0 * (0.5f64.ln() - 1e-12f64.ln())).exp();
                queries.extend(TS.map(|t| (t, p)));
            }
            for t in TS.into_iter().filter(|&t| t > 0) {
                let edge = t as f64 / n as f64;
                let bits = edge.to_bits();
                for p in [f64::from_bits(bits - 1), edge, f64::from_bits(bits + 1)] {
                    queries.extend(TS.map(|tq| (tq, p)));
                }
            }
            // Fisher–Yates under a fixed LCG, so the table fills out of
            // order; then force a head-branch query first and a deep tail
            // query second.
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n;
            for i in (1..queries.len()).rev() {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                queries.swap(i, ((state >> 33) % (i as u64 + 1)) as usize);
            }
            queries.insert(0, (8, 1e-12));
            queries.insert(0, (0, 0.5));
            let mut law = FailureLaw::new(n);
            for (t, p) in queries {
                let want = codeword_failure_prob_reference(n, t, p).to_bits();
                assert_eq!(law.at(t, p).to_bits(), want, "law n={n} t={t} p={p:e}");
                assert_eq!(
                    codeword_failure_prob(n, t, p).to_bits(),
                    want,
                    "wrapper n={n} t={t} p={p:e}"
                );
            }
            assert!(law.ln_choose.len() as u64 <= n + 1);
        }
    }

    #[test]
    fn ln_choose_small_values() {
        assert!((ln_choose(5, 2) - (10f64).ln()).abs() < 1e-9);
        assert!((ln_choose(10, 0)).abs() < 1e-9);
        assert_eq!(ln_choose(3, 5).to_bits(), f64::NEG_INFINITY.to_bits());
    }

    #[test]
    fn stirling_matches_exact() {
        // Compare exact summation and Stirling at the switchover.
        let exact: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        let stirling = ln_factorial(300);
        assert!((exact - stirling).abs() / exact < 1e-9);
    }

    #[test]
    fn failure_prob_edge_cases() {
        // The edge branches return the literals directly.
        assert!(codeword_failure_prob(100, 0, 0.0).abs() < f64::EPSILON);
        assert!((codeword_failure_prob(100, 99, 1.0) - 1.0).abs() < f64::EPSILON);
        assert!(codeword_failure_prob(100, 100, 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn failure_prob_matches_direct_computation() {
        // Small case computable directly: n=10, p=0.1, t=1.
        // P[X>1] = 1 - P[0] - P[1] = 1 - 0.9^10 - 10·0.1·0.9^9.
        let exact = 1.0 - 0.9f64.powi(10) - 10.0 * 0.1 * 0.9f64.powi(9);
        let got = codeword_failure_prob(10, 1, 0.1);
        assert!((got - exact).abs() < 1e-12, "{got} vs {exact}");
    }

    #[test]
    fn failure_prob_monotone_in_t_and_p() {
        let p = 1e-4;
        let mut last = 1.0;
        for t in 0..6 {
            let f = codeword_failure_prob(4096, t, p);
            assert!(f < last, "t={t}");
            last = f;
        }
        assert!(codeword_failure_prob(4096, 2, 1e-3) > codeword_failure_prob(4096, 2, 1e-5));
    }

    #[test]
    fn deep_tail_is_finite_and_positive() {
        let f = codeword_failure_prob(512, 8, 1e-6);
        assert!(f > 0.0 && f < 1e-30, "deep tail {f}");
    }

    #[test]
    fn required_t_inverts_failure_prob() {
        let n = 4096;
        let rber = 1e-4;
        let target = 1e-15;
        let t = required_t(n, rber, target).unwrap();
        assert!(codeword_failure_prob(n, t, rber) <= target);
        if t > 0 {
            assert!(codeword_failure_prob(n, t - 1, rber) > target);
        }
        assert_eq!(required_t(100, 0.0, 1e-15), Some(0));
        assert_eq!(required_t(100, 0.5, 0.0), None);
    }

    #[test]
    fn dolinar_overhead_falls_with_block_size() {
        // The paper's §4 claim: at equal delivered reliability, overhead
        // falls as code words grow.
        let rows = iso_reliability_overhead(1e-4, 1e-12, &[64, 512, 4096, 32768]);
        assert_eq!(rows.len(), 4);
        for w in rows.windows(2) {
            assert!(
                w[1].overhead < w[0].overhead,
                "overhead must fall: {} bits {} vs {} bits {}",
                w[0].data_bits,
                w[0].overhead,
                w[1].data_bits,
                w[1].overhead
            );
        }
        // Everyone met the target.
        for r in &rows {
            assert!(r.achieved_cw_fail <= 1e-12, "{r:?}");
        }
        // And the magnitude is material: 64-bit words pay >5x the overhead
        // of 32-kbit words.
        assert!(rows[0].overhead > 5.0 * rows[3].overhead);
    }

    #[test]
    fn max_safe_age_monotone_in_t() {
        // RBER grows quadratically in age fraction (Weibull β=2 regime).
        let rber_at = |f: f64| 1e-9 + 1e-3 * f * f;
        let weak = max_safe_age_fraction(4096, 2, 1e-12, rber_at);
        let strong = max_safe_age_fraction(4096, 8, 1e-12, rber_at);
        assert!(
            strong > weak,
            "stronger ECC must allow older data: {weak} vs {strong}"
        );
        assert!(weak > 0.0);
    }

    #[test]
    fn max_safe_age_zero_when_hopeless() {
        let rber_at = |_f: f64| 0.4;
        assert!(max_safe_age_fraction(1024, 1, 1e-12, rber_at).abs() < f64::EPSILON);
    }

    #[test]
    fn max_safe_age_caps_when_always_fine() {
        let rber_at = |_f: f64| 1e-12;
        let f = max_safe_age_fraction(512, 4, 1e-9, rber_at);
        assert!((f - 4.0).abs() < f64::EPSILON);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn failure_prob_is_a_probability(
            n in 1u64..10_000,
            t in 0u64..64,
            p in 0.0f64..0.5,
        ) {
            let f = codeword_failure_prob(n, t, p);
            prop_assert!((0.0..=1.0).contains(&f), "f={f}");
        }

        #[test]
        fn failure_prob_monotone_in_n(
            n in 64u64..4096,
            t in 0u64..8,
            p in 1e-6f64..1e-2,
        ) {
            let f1 = codeword_failure_prob(n, t, p);
            let f2 = codeword_failure_prob(n * 2, t, p);
            // More bits, same correction: can't be more reliable.
            prop_assert!(f2 >= f1 * 0.999999, "f1={f1} f2={f2}");
        }
    }
}
