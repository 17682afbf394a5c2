//! The fault model: device operating point → raw BER → decode outcomes.
//!
//! A read of `len` bytes at raw bit error rate `p` (the device model's
//! age/wear curve output, see `mrm_device::cell`) is decomposed into ECC
//! codewords. The *number* of raw flips and the per-codeword outcome
//! classes are sampled exactly from their binomial laws using
//! `mrm_ecc::analysis::codeword_failure_prob`, and a bounded number of
//! uncorrectable candidates are pushed through the *real* BCH decoder
//! (`mrm_ecc::Bch`, t = 2 over 512 data bits) on adversarially flipped
//! codewords, so detected-vs-miscorrected is decided by actual decoder
//! behaviour, not by an assumed rate.
//!
//! Outcome taxonomy (DESIGN.md §9):
//!
//! * **corrected** — at most t errors, which the inner code fixes;
//! * **detected UE** — the decoder flagged the codeword uncorrectable
//!   (recovery machinery takes over);
//! * **miscorrected** — the decoder returned *wrong* data believing it
//!   corrected; with an outer CRC configured this is caught and demoted to
//!   a detected UE, otherwise it is **silent** data corruption.
//!
//! Every sample draws from the dedicated [`FaultRng`] stream, and the
//! draws a read makes are fixed by the seed and the sampled classes, so
//! the stream stays aligned across runs and thread counts (the
//! hard-determinism contract).

use mrm_ecc::analysis::codeword_failure_prob;
use mrm_ecc::Bch;

use crate::rng::FaultRng;
use crate::stats::FaultStats;

/// Uncorrectable-candidate codewords per read classified by a real
/// decoder probe; candidates beyond the cap count as detected.
const DECODER_PROBES: u64 = 4;

/// Fault-injection configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Master switch. When false no fault layer is built at all.
    pub enabled: bool,
    /// Multiplier on the device-model RBER (0 disables injection while
    /// keeping the layer constructed — used by the differential tests).
    pub ber_scale: f64,
    /// Whether an outer CRC catches decoder miscorrections, demoting
    /// silent corruption to a detected UE (standard storage practice).
    pub outer_crc: bool,
    /// Cluster knob: when set, KV data is provisioned at
    /// `margin × followup_window` retention instead of the tier-native
    /// class — the `e11_faults` sweep axis (margin 1 = retention exactly
    /// equal to data lifetime).
    pub provision_margin: Option<f64>,
}

impl FaultConfig {
    /// Injection off; the read path behaves exactly as if the fault layer
    /// did not exist.
    pub fn disabled() -> Self {
        FaultConfig {
            enabled: false,
            ber_scale: 1.0,
            outer_crc: true,
            provision_margin: None,
        }
    }

    /// The standard MRM read-path configuration: BCH t=2 over 512-bit
    /// data words behind an outer CRC.
    pub fn mrm() -> Self {
        FaultConfig {
            enabled: true,
            ..FaultConfig::disabled()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::disabled()
    }
}

/// Outcome of one injected read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReadFaults {
    /// ECC codewords the read spanned.
    pub codewords: u64,
    /// Total bits scanned (data + parity).
    pub bits: u64,
    /// Raw bit flips injected.
    pub raw_flips: u64,
    /// Codewords corrected by the inner code.
    pub corrected: u64,
    /// Codewords flagged uncorrectable by the decoder.
    pub detected_ue: u64,
    /// Codewords miscorrected but caught by the outer CRC.
    pub miscorrected: u64,
    /// Codewords silently corrupted (escaped every layer).
    pub silent: u64,
}

impl ReadFaults {
    /// Whether recovery machinery must engage: any outcome the inner code
    /// could not transparently fix.
    pub fn uncorrectable(&self) -> bool {
        self.detected_ue > 0 || self.miscorrected > 0
    }

    /// Field-wise accumulation (used when a recovery sequence re-reads).
    pub fn merge(&mut self, o: &ReadFaults) {
        self.codewords += o.codewords;
        self.bits += o.bits;
        self.raw_flips += o.raw_flips;
        self.corrected += o.corrected;
        self.detected_ue += o.detected_ue;
        self.miscorrected += o.miscorrected;
        self.silent += o.silent;
    }
}

/// What the recovery state machine did about a read (DESIGN.md §9).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Clean or corrected inline; nothing to recover.
    #[default]
    None,
    /// A retry re-read cleared the uncorrectable outcome.
    Retried,
    /// Scrub escalation (rewrite in place, then re-read) cleared it.
    Scrubbed,
    /// Scrubbing did not clear it (or the region wore out): retired.
    Retired,
}

/// The deterministic fault injector for one controller or tier.
#[derive(Clone, Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    /// The inner code: shortened BCH, t = 2 over 512 data bits in
    /// GF(2^10) (532-bit codewords).
    codec: Bch,
    /// Codeword bits (data + parity).
    n: u64,
    /// Data bits per codeword.
    k: u64,
    /// Correction capability of the inner code.
    t: u64,
    rng: FaultRng,
    stats: FaultStats,
}

impl FaultModel {
    /// Builds the model; `sim_seed` is the *simulation* seed (the fault
    /// stream is salted away from the scheduling stream internally).
    pub fn new(cfg: FaultConfig, sim_seed: u64) -> Self {
        let codec = Bch::with_data_len(10, 2, 512);
        let (n, k, t) = (codec.n() as u64, codec.k() as u64, codec.t() as u64);
        FaultModel {
            cfg,
            codec,
            n,
            k,
            t,
            rng: FaultRng::for_seed(sim_seed),
            stats: FaultStats::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Cumulative outcome totals.
    pub fn stats(&self) -> &FaultStats {
        &self.stats
    }

    /// Codeword bits of the inner code (data + parity).
    pub fn codeword_bits(&self) -> u64 {
        self.n
    }

    /// Data bits per codeword.
    pub fn data_bits(&self) -> u64 {
        self.k
    }

    /// Correction capability of the inner code.
    pub fn t(&self) -> u64 {
        self.t
    }

    /// The RBER injection actually uses: device RBER × `ber_scale`,
    /// clamped to the physical `[0, 0.5]` range.
    pub fn effective_rber(&self, rber: f64) -> f64 {
        (rber * self.cfg.ber_scale).clamp(0.0, 0.5)
    }

    /// Injects faults into a read of `len_bytes` at device raw bit error
    /// rate `rber` and decodes them through the inner code.
    ///
    /// At zero effective RBER this is a **true no-op**: no RNG draw, no
    /// stats mutation — the guarantee behind the differential chaos test
    /// (enabled-at-rate-0 ≡ disabled, byte for byte).
    pub fn inject_read(&mut self, len_bytes: u64, rber: f64) -> ReadFaults {
        let mut out = ReadFaults::default();
        let p = self.effective_rber(rber);
        if len_bytes == 0 || p <= 0.0 {
            return out;
        }
        self.stats.reads += 1;
        let data_bits = len_bytes.saturating_mul(8);
        out.codewords = data_bits.div_ceil(self.k);
        out.bits = out.codewords.saturating_mul(self.n);
        out.raw_flips = sample_binomial(&mut self.rng, out.bits, p);
        if out.raw_flips > 0 {
            // Exact per-codeword class split: P[any error] and
            // P[uncorrectable] from the binomial law, the correctable
            // class conditioned on not-UE.
            let nf = self.n as f64;
            let p_any = -(nf * (-p).ln_1p()).exp_m1();
            let p_ue = codeword_failure_prob(self.n, self.t, p);
            let ue = sample_binomial(&mut self.rng, out.codewords, p_ue);
            let p_corr = if p_ue < 1.0 {
                ((p_any - p_ue) / (1.0 - p_ue)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            out.corrected = sample_binomial(&mut self.rng, out.codewords - ue, p_corr);
            // Raw flips landed somewhere: at least one codeword saw an
            // error even if the class sampler rounded both classes to 0.
            if ue == 0 && out.corrected == 0 {
                out.corrected = 1;
            }
            // Classify UE candidates through the real decoder on
            // adversarially flipped codewords (t+1 distinct positions),
            // drawing and decoding one probe at a time. Correctable
            // codewords are counted, never decoded: the codec's ≤t
            // guarantee is proven by the `mrm-ecc` adversarial tests and
            // the `ecc` fuzz target.
            let probes = ue.min(DECODER_PROBES);
            out.detected_ue = ue - probes;
            for _ in 0..probes {
                let (data, cw) = self.probe_input();
                match self.codec.decode(&cw) {
                    Err(_) => out.detected_ue += 1,
                    Ok((decoded, _)) if decoded == data => out.corrected += 1,
                    Ok(_) if self.cfg.outer_crc => out.miscorrected += 1,
                    Ok(_) => out.silent += 1,
                }
            }
        }
        self.stats.absorb(&out);
        out
    }

    /// Draws one probe's input: encodes random data and flips t+1
    /// distinct bits, returning `(data, codeword)`. This is the *only*
    /// RNG-consuming half of a probe; decoding is pure.
    fn probe_input(&mut self) -> (Vec<u8>, Vec<u8>) {
        let n = self.n as usize;
        let mut data = vec![0u8; self.k as usize];
        for chunk in data.chunks_mut(64) {
            let mut w = self.rng.next_u64();
            for b in chunk.iter_mut() {
                *b = (w & 1) as u8;
                w >>= 1;
            }
        }
        let mut cw = self.codec.encode(&data);
        let errors = (self.t + 1) as usize;
        let mut flipped: Vec<usize> = Vec::with_capacity(errors);
        while flipped.len() < errors {
            let i = self.rng.gen_index(n);
            if !flipped.contains(&i) {
                flipped.push(i);
                cw[i] ^= 1;
            }
        }
        (data, cw)
    }
}

/// Exact-law binomial sampler with a bounded, deterministic number of RNG
/// draws per call:
///
/// * `n ≤ 64` — exact Bernoulli counting (`n` draws);
/// * small mean — BINV inversion of a single uniform through the CDF;
/// * large mean — normal approximation via the inverse CDF of a single
///   uniform (deterministic, no rejection loop).
fn sample_binomial(rng: &mut FaultRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if p > 0.5 {
        return n - sample_binomial(rng, n, 1.0 - p);
    }
    if n <= 64 {
        let mut k = 0u64;
        for _ in 0..n {
            if rng.gen_bool(p) {
                k += 1;
            }
        }
        return k;
    }
    let mean = n as f64 * p;
    if mean < 32.0 {
        // BINV: P(0) = (1-p)^n, then the recurrence
        // P(k+1) = P(k) · (n-k)/(k+1) · p/(1-p).
        let q = 1.0 - p;
        let s = p / q;
        let mut f = (n as f64 * q.ln()).exp();
        let mut u = rng.next_f64();
        let mut k = 0u64;
        while u > f {
            u -= f;
            k += 1;
            if k > n || f < f64::MIN_POSITIVE {
                // Far-tail underflow guard; probability mass ~0 here.
                return k.min(n);
            }
            f *= s * ((n - k + 1) as f64) / k as f64;
        }
        return k;
    }
    // Normal approximation (np and n(1-p) both > 30 in this branch since
    // p ≤ 0.5 and mean ≥ 32).
    let sd = (mean * (1.0 - p)).sqrt();
    let z = inverse_normal_cdf(rng.next_f64());
    let draw = (mean + z * sd).round();
    if draw < 0.0 {
        0
    } else {
        (draw as u64).min(n)
    }
}

/// Acklam's rational approximation to the standard normal inverse CDF
/// (|relative error| < 1.2e-9) — deterministic, branch-stable, one call
/// per large-mean binomial sample.
fn inverse_normal_cdf(u: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    let u = u.clamp(1e-12, 1.0 - 1e-12);
    if u < P_LOW {
        let q = (-2.0 * u.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if u <= 1.0 - P_LOW {
        let q = u - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - u).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::MIB;

    #[test]
    fn zero_rate_is_a_true_noop() {
        let mut m = FaultModel::new(FaultConfig::mrm(), 1);
        let before = m.rng.clone();
        let r = m.inject_read(MIB, 0.0);
        assert_eq!(r, ReadFaults::default());
        assert_eq!(m.stats(), &FaultStats::default());
        // Not a single RNG draw happened.
        let mut a = before;
        let mut b = m.rng.clone();
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ber_scale_zero_is_a_true_noop() {
        let mut cfg = FaultConfig::mrm();
        cfg.ber_scale = 0.0;
        let mut m = FaultModel::new(cfg, 1);
        let r = m.inject_read(MIB, 1e-3);
        assert_eq!(r, ReadFaults::default());
        assert_eq!(m.stats().reads, 0);
    }

    #[test]
    fn bch_geometry_matches_config() {
        let m = FaultModel::new(FaultConfig::mrm(), 0);
        assert_eq!(m.data_bits(), 512);
        assert_eq!(m.t(), 2);
        // GF(2^10): 512 data + 10·2 parity = 532 bits.
        assert_eq!(m.codeword_bits(), 532);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let run = |seed| {
            let mut m = FaultModel::new(FaultConfig::mrm(), seed);
            let mut rs = Vec::new();
            for i in 0..32u64 {
                rs.push(m.inject_read(4096 + i * 128, 1e-4));
            }
            (rs, *m.stats())
        };
        let (a, sa) = run(7);
        let (b, sb) = run(7);
        assert_eq!(a, b, "same seed must flip the same bits");
        assert_eq!(sa, sb);
        let (c, _) = run(8);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn low_rber_corrects_high_rber_breaks_through() {
        let mut m = FaultModel::new(FaultConfig::mrm(), 3);
        // 64 MiB at fresh RBER: everything the code sees is correctable.
        let fresh = m.inject_read(64 * MIB, 1e-9);
        assert_eq!(fresh.detected_ue + fresh.miscorrected + fresh.silent, 0);
        // Same read at end-of-retention RBER: t=2 over 532 bits cannot
        // absorb 1e-4 on ~1M codewords without uncorrectables.
        let aged = m.inject_read(64 * MIB, 1e-4);
        assert!(aged.raw_flips > fresh.raw_flips);
        assert!(aged.corrected > 0);
        assert!(aged.uncorrectable(), "{aged:?}");
        // The outer CRC demotes every miscorrection: nothing silent.
        assert_eq!(aged.silent, 0);
    }

    #[test]
    fn without_outer_crc_miscorrections_go_silent() {
        let mut cfg = FaultConfig::mrm();
        cfg.outer_crc = false;
        let mut m = FaultModel::new(cfg, 11);
        let mut silent = 0;
        let mut caught = 0;
        for _ in 0..200 {
            let r = m.inject_read(8 * MIB, 1e-4);
            silent += r.silent;
            caught += r.miscorrected;
        }
        assert_eq!(caught, 0, "no CRC, nothing to catch");
        // BCH t=2 miscorrects some t+1 patterns onto other codewords;
        // without the CRC those are SDC.
        assert!(silent > 0, "expected some silent corruption");
    }

    #[test]
    fn outcome_classes_track_the_binomial_law() {
        // No decode checks the corrected class, so its mean is held to the
        // law it is sampled from, and the UE total to `codeword_failure_prob`.
        let p = 1e-4;
        let mut m = FaultModel::new(FaultConfig::mrm(), 5);
        let (mut codewords, mut corrected, mut ue) = (0u64, 0u64, 0u64);
        for _ in 0..256 {
            let r = m.inject_read(8 * MIB, p);
            codewords += r.codewords;
            corrected += r.corrected;
            ue += r.detected_ue + r.miscorrected + r.silent;
        }
        let n = m.codeword_bits() as f64;
        let p_any = -(n * (-p).ln_1p()).exp_m1();
        let p_ue = codeword_failure_prob(m.codeword_bits(), m.t(), p);
        for (class, got, q) in [("corrected", corrected, p_any - p_ue), ("ue", ue, p_ue)] {
            let expect = codewords as f64 * q;
            let sd = (codewords as f64 * q * (1.0 - q)).sqrt();
            assert!(
                (got as f64 - expect).abs() < 5.0 * sd,
                "{class}: {got} vs {expect:.1} (sd {sd:.1})"
            );
        }
    }

    #[test]
    fn binomial_sampler_tracks_the_mean() {
        let mut rng = FaultRng::for_seed(1);
        for &(n, p) in &[
            (50u64, 0.3f64),
            (10_000, 1e-3),
            (1_000_000, 1e-4),
            (500_000, 0.4),
        ] {
            let rounds = 300;
            let mut total = 0u64;
            for _ in 0..rounds {
                let k = sample_binomial(&mut rng, n, p);
                assert!(k <= n);
                total += k;
            }
            let mean = total as f64 / f64::from(rounds);
            let expect = n as f64 * p;
            let sd = (n as f64 * p * (1.0 - p)).sqrt();
            let tol = 5.0 * sd / f64::from(rounds).sqrt() + 1e-9;
            assert!(
                (mean - expect).abs() < tol,
                "n={n} p={p}: mean {mean} vs {expect} (tol {tol})"
            );
        }
    }

    #[test]
    fn inverse_normal_cdf_matches_known_quantiles() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.001) + 3.090232).abs() < 1e-4);
        // Extremes stay finite.
        assert!(inverse_normal_cdf(0.0).is_finite());
        assert!(inverse_normal_cdf(1.0).is_finite());
    }

    #[test]
    fn outcome_classes_are_consistent() {
        let mut m = FaultModel::new(FaultConfig::mrm(), 9);
        for i in 0..100u64 {
            let r = m.inject_read(1 + i * 4096, 5e-5);
            assert!(r.corrected + r.detected_ue + r.miscorrected + r.silent <= r.codewords);
            assert_eq!(r.bits, r.codewords * 532);
            if r.raw_flips > 0 {
                assert!(
                    r.corrected + r.detected_ue + r.miscorrected + r.silent > 0,
                    "flips must land in some class: {r:?}"
                );
            }
        }
    }
}
