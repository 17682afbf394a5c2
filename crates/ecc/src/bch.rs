//! Binary BCH codes with Berlekamp–Massey decoding.
//!
//! BCH codes are the workhorse of large-block storage ECC and the natural
//! realization of the paper's §4 point: over a block-level MRM interface,
//! code words can be thousands of bits, and a `t`-error-correcting BCH code
//! over GF(2^m) pays only ≈ `m·t` parity bits regardless of how much data a
//! codeword carries — so overhead *falls* as blocks grow (Dolinar et al.,
//! "Code Performance as a Function of Block Size" \[8\]).
//!
//! The implementation is a textbook binary BCH:
//!
//! * generator polynomial = LCM of minimal polynomials of `α¹..α^{2t}`,
//! * systematic encoding by LFSR division,
//! * decoding by syndrome computation, Berlekamp–Massey for the error
//!   locator polynomial, and Chien search for its roots,
//! * shortened codes (data width chosen freely below the natural `k`).
//!
//! Bits are one-per-`u8` (0/1), matching [`crate::hamming`].

use crate::gf::Gf;

/// Errors from BCH decoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BchError {
    /// More errors occurred than the code can correct.
    TooManyErrors,
}

impl std::fmt::Display for BchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BchError::TooManyErrors => write!(f, "uncorrectable: more than t errors"),
        }
    }
}

impl std::error::Error for BchError {}

/// A binary BCH code over GF(2^m), correcting up to `t` bit errors per
/// codeword, optionally shortened.
///
/// # Examples
///
/// ```
/// use mrm_ecc::bch::Bch;
///
/// // A t=3 code over GF(2^8): n=255, k=231 (24 parity bits).
/// let code = Bch::new(8, 3);
/// assert_eq!(code.n(), 255);
/// assert_eq!(code.parity_bits(), 24);
///
/// let data: Vec<u8> = (0..code.k()).map(|i| (i % 5 == 0) as u8).collect();
/// let mut cw = code.encode(&data);
/// cw[9] ^= 1;
/// cw[100] ^= 1;
/// cw[200] ^= 1;
/// let (decoded, fixed) = code.decode(&cw).unwrap();
/// assert_eq!(fixed, 3);
/// assert_eq!(decoded, data);
/// ```
#[derive(Clone, Debug)]
pub struct Bch {
    gf: Gf,
    /// Full (unshortened) code length `2^m − 1`.
    n_full: usize,
    /// Correctable errors per codeword.
    t: usize,
    /// Data bits per stored codeword (after shortening).
    k: usize,
    /// Bits removed by shortening.
    shorten: usize,
    /// Generator polynomial coefficients over GF(2), index = degree.
    gen: Vec<u8>,
    /// Horner hop tables for syndrome evaluation: `steps[j-1][d] = α^{j·d}`
    /// for `d ∈ 0..=64`, so the packed evaluator multiplies across a gap of
    /// `d` zero coefficients (up to a whole `u64` word) with one table
    /// lookup instead of `d` field multiplications.
    steps: Vec<Vec<u16>>,
}

impl Bch {
    /// Constructs the full-length BCH code over GF(2^m) correcting `t`
    /// errors.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero or the code has no data bits (t too large for
    /// the field).
    pub fn new(m: u32, t: usize) -> Self {
        Self::build(m, t, None)
    }

    /// Constructs a shortened BCH code carrying exactly `data_len` data
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `data_len` is zero or exceeds the natural `k` of the
    /// full-length code.
    pub fn with_data_len(m: u32, t: usize, data_len: usize) -> Self {
        Self::build(m, t, Some(data_len))
    }

    fn build(m: u32, t: usize, data_len: Option<usize>) -> Self {
        assert!(t >= 1, "t must be at least 1");
        let gf = Gf::new(m);
        let n_full = gf.order();
        let gen = generator_poly(&gf, t);
        let parity = gen.len() - 1;
        assert!(parity < n_full, "t={t} too large for GF(2^{m})");
        let k_full = n_full - parity;
        let (k, shorten) = match data_len {
            None => (k_full, 0),
            Some(d) => {
                assert!(d > 0, "data length must be positive");
                assert!(
                    d <= k_full,
                    "data length {d} exceeds k={k_full} for BCH(m={m}, t={t})"
                );
                (d, k_full - d)
            }
        };
        let steps = (1..=2 * t)
            .map(|j| {
                let aj = gf.alpha_pow(j as i64);
                let mut row = Vec::with_capacity(65);
                row.push(1u16);
                for d in 1..=64usize {
                    let prev = row[d - 1];
                    row.push(gf.mul(prev, aj));
                }
                row
            })
            .collect();
        Bch {
            gf,
            n_full,
            t,
            k,
            shorten,
            gen,
            steps,
        }
    }

    /// Stored codeword length (shortening applied).
    pub fn n(&self) -> usize {
        self.n_full - self.shorten
    }

    /// Data bits per codeword.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Correctable errors per codeword.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Parity bits per codeword.
    pub fn parity_bits(&self) -> usize {
        self.gen.len() - 1
    }

    /// Overhead: parity bits / codeword bits.
    pub fn overhead(&self) -> f64 {
        self.parity_bits() as f64 / self.n() as f64
    }

    /// Encodes `data` systematically: the returned codeword holds
    /// `parity_bits()` check bits followed by the data bits.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.k()` or any value is not 0/1.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "data length mismatch");
        let nk = self.parity_bits();
        let mut rem = vec![0u8; nk];
        // LFSR division of d(x)·x^nk by g(x); process data from the
        // highest-degree coefficient down.
        for i in (0..self.k).rev() {
            let bit = data[i];
            assert!(bit <= 1, "bits must be 0 or 1");
            let feedback = bit ^ rem[nk - 1];
            for j in (1..nk).rev() {
                rem[j] = rem[j - 1] ^ (feedback & self.gen[j]);
            }
            rem[0] = feedback & self.gen[0];
        }
        let mut cw = Vec::with_capacity(self.n());
        cw.extend_from_slice(&rem);
        cw.extend_from_slice(data);
        cw
    }

    /// Computes the 2t syndromes of a stored codeword by direct per-set-bit
    /// accumulation: `S_j = Σ_{i: c_i=1} α^{j·i}`. Retained as the reference
    /// oracle for the packed Horner evaluator below.
    #[cfg(test)]
    fn syndromes_reference(&self, cw: &[u8]) -> Vec<u16> {
        (1..=2 * self.t)
            .map(|j| {
                let mut acc = 0u16;
                for (i, &b) in cw.iter().enumerate() {
                    if b != 0 {
                        acc ^= self.gf.alpha_pow((j * i) as i64);
                    }
                }
                acc
            })
            .collect()
    }

    /// Packs a one-bit-per-byte codeword into `u64` words, bit `i % 64` of
    /// word `i / 64` holding coefficient `i`.
    fn pack_bits(cw: &[u8]) -> Vec<u64> {
        let mut words = vec![0u64; cw.len().div_ceil(64)];
        for (i, &b) in cw.iter().enumerate() {
            debug_assert!(b <= 1, "bits must be 0 or 1");
            words[i / 64] |= u64::from(b) << (i % 64);
        }
        words
    }

    /// Computes the 2t syndromes from a bit-packed codeword by Horner's
    /// rule over GF(2^m), hopping between set coefficients with the
    /// precomputed `steps` tables: `S_j = c(α^j)` costs ≈ one table-driven
    /// multiplication per set bit (zero words are skipped whole), instead of
    /// one modular exponent per set bit per syndrome.
    fn syndromes_packed(&self, words: &[u64]) -> Vec<u16> {
        (1..=2 * self.t)
            .map(|j| {
                let step = &self.steps[j - 1];
                let mut acc = 0u16;
                // `mark` = coefficient index `acc` is aligned to: acc holds
                // Σ_{i ≥ mark} c_i α^{j·(i−mark)}. Visit set bits high → low.
                let mut mark = 0usize;
                for (w_idx, &w) in words.iter().enumerate().rev() {
                    if w == 0 {
                        continue;
                    }
                    let mut x = w;
                    while x != 0 {
                        let b = 63 - x.leading_zeros() as usize;
                        x ^= 1u64 << b;
                        let i = w_idx * 64 + b;
                        if acc != 0 {
                            let mut gap = mark - i;
                            while gap > 64 {
                                acc = self.gf.mul(acc, step[64]);
                                gap -= 64;
                            }
                            acc = self.gf.mul(acc, step[gap]);
                        }
                        acc ^= 1;
                        mark = i;
                    }
                }
                // Align the accumulator down to coefficient 0.
                if acc != 0 {
                    let mut gap = mark;
                    while gap > 64 {
                        acc = self.gf.mul(acc, step[64]);
                        gap -= 64;
                    }
                    acc = self.gf.mul(acc, step[gap]);
                }
                acc
            })
            .collect()
    }

    /// Decodes a stored codeword, correcting up to `t` bit errors.
    ///
    /// Returns the recovered data and the number of bits corrected, or
    /// [`BchError::TooManyErrors`] when the error pattern exceeds the code's
    /// capability (detected via locator degree, root count, or syndrome
    /// recheck).
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.n()`.
    pub fn decode(&self, cw: &[u8]) -> Result<(Vec<u8>, usize), BchError> {
        assert_eq!(cw.len(), self.n(), "codeword length mismatch");
        let syn = self.syndromes_packed(&Self::pack_bits(cw));
        if syn.iter().all(|&s| s == 0) {
            return Ok((cw[self.parity_bits()..].to_vec(), 0));
        }

        let sigma = self.berlekamp_massey(&syn);
        let nu = sigma.len() - 1;
        if nu > self.t {
            return Err(BchError::TooManyErrors);
        }

        // Chien search over the *stored* positions only: shortening means
        // positions n()..n_full are known-zero and cannot be in error.
        let mut cw = cw.to_vec();
        let mut found = 0usize;
        for (i, bit) in cw.iter_mut().enumerate() {
            // Error at position i ⇔ σ(α^{−i}) = 0.
            let x = self.gf.alpha_pow(-(i as i64));
            if self.gf.poly_eval(&sigma, x) == 0 {
                *bit ^= 1;
                found += 1;
            }
        }
        if found != nu {
            return Err(BchError::TooManyErrors);
        }
        // Recheck: corrected word must be a valid codeword.
        let recheck = self.syndromes_packed(&Self::pack_bits(&cw));
        if recheck.iter().any(|&s| s != 0) {
            return Err(BchError::TooManyErrors);
        }
        Ok((cw[self.parity_bits()..].to_vec(), found))
    }

    /// Berlekamp–Massey: finds the minimal-degree error locator polynomial
    /// σ(x) with σ(0)=1 consistent with the syndrome sequence.
    fn berlekamp_massey(&self, syn: &[u16]) -> Vec<u16> {
        let gf = &self.gf;
        let mut c: Vec<u16> = vec![1];
        let mut b: Vec<u16> = vec![1];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut bb = 1u16;
        for i in 0..syn.len() {
            // Discrepancy.
            let mut d = syn[i];
            for j in 1..=l.min(c.len() - 1) {
                d ^= gf.mul(c[j], syn[i - j]);
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let old_c = c.clone();
                let coef = gf.div(d, bb);
                if c.len() < b.len() + m {
                    c.resize(b.len() + m, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    c[j + m] ^= gf.mul(coef, bj);
                }
                l = i + 1 - l;
                b = old_c;
                bb = d;
                m = 1;
            } else {
                let coef = gf.div(d, bb);
                if c.len() < b.len() + m {
                    c.resize(b.len() + m, 0);
                }
                for (j, &bj) in b.iter().enumerate() {
                    c[j + m] ^= gf.mul(coef, bj);
                }
                m += 1;
            }
        }
        // Trim trailing zeros so degree reflects the true locator.
        while c.len() > 1 && c.last() == Some(&0) {
            c.pop();
        }
        c
    }
}

/// Computes the generator polynomial for a t-error-correcting binary BCH
/// code over `gf`: the LCM of the minimal polynomials of α¹..α^{2t}.
fn generator_poly(gf: &Gf, t: usize) -> Vec<u8> {
    let n = gf.order();
    let mut covered = vec![false; n];
    // Generator as a GF-coefficient polynomial (coefficients stay in {0,1}
    // because each factor is a complete conjugate set).
    let mut gen: Vec<u16> = vec![1];
    for j in 1..=2 * t {
        let j = j % n;
        if j == 0 || covered[j] {
            continue;
        }
        // Cyclotomic coset of j: {j, 2j, 4j, ...} mod n.
        let mut coset = Vec::new();
        let mut cur = j;
        loop {
            covered[cur] = true;
            coset.push(cur);
            cur = (cur * 2) % n;
            if cur == j {
                break;
            }
        }
        // Minimal polynomial: Π (x + α^c) over the coset.
        let mut min_poly: Vec<u16> = vec![1];
        for &c in &coset {
            let root = gf.alpha_pow(c as i64);
            // Multiply min_poly by (x + root).
            let mut next = vec![0u16; min_poly.len() + 1];
            for (d, &coef) in min_poly.iter().enumerate() {
                next[d + 1] ^= coef; // x · coef
                next[d] ^= gf.mul(coef, root); // root · coef
            }
            min_poly = next;
        }
        // Multiply the generator by the minimal polynomial.
        let mut next = vec![0u16; gen.len() + min_poly.len() - 1];
        for (a, &ga) in gen.iter().enumerate() {
            if ga == 0 {
                continue;
            }
            for (b, &mb) in min_poly.iter().enumerate() {
                next[a + b] ^= gf.mul(ga, mb);
            }
        }
        gen = next;
    }
    gen.iter()
        .map(|&c| {
            debug_assert!(c <= 1, "generator polynomial must be binary");
            c as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_pattern(k: usize, seed: u64) -> Vec<u8> {
        (0..k)
            .map(|i| ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) >> 7 & 1) as u8)
            .collect()
    }

    #[test]
    fn known_code_parameters() {
        // Classic table values.
        let c = Bch::new(4, 1);
        assert_eq!((c.n(), c.k()), (15, 11)); // BCH(15,11,1) = Hamming
        let c = Bch::new(4, 2);
        assert_eq!((c.n(), c.k()), (15, 7)); // BCH(15,7,2)
        let c = Bch::new(4, 3);
        assert_eq!((c.n(), c.k()), (15, 5)); // BCH(15,5,3)
        let c = Bch::new(6, 2);
        assert_eq!((c.n(), c.k()), (63, 51)); // BCH(63,51,2)
        let c = Bch::new(8, 2);
        assert_eq!((c.n(), c.k()), (255, 239)); // BCH(255,239,2)
    }

    #[test]
    fn clean_roundtrip() {
        for (m, t) in [(4u32, 1usize), (4, 2), (6, 3), (8, 4), (10, 5)] {
            let code = Bch::new(m, t);
            let data = data_pattern(code.k(), u64::from(m) << 8 | t as u64);
            let cw = code.encode(&data);
            assert_eq!(cw.len(), code.n());
            let (out, fixed) = code.decode(&cw).unwrap();
            assert_eq!(fixed, 0, "m={m} t={t}");
            assert_eq!(out, data, "m={m} t={t}");
        }
    }

    #[test]
    fn corrects_exactly_t_errors() {
        let code = Bch::new(8, 4);
        let data = data_pattern(code.k(), 42);
        let cw = code.encode(&data);
        // Deterministic spread of exactly t error positions.
        let positions = [3usize, 77, 141, 250];
        let mut bad = cw.clone();
        for &p in &positions {
            bad[p] ^= 1;
        }
        let (out, fixed) = code.decode(&bad).unwrap();
        assert_eq!(fixed, 4);
        assert_eq!(out, data);
    }

    #[test]
    fn corrects_errors_in_parity_region() {
        let code = Bch::new(6, 3);
        let data = data_pattern(code.k(), 7);
        let mut cw = code.encode(&data);
        cw[0] ^= 1; // parity bit
        cw[code.parity_bits() - 1] ^= 1; // last parity bit
        let (out, fixed) = code.decode(&cw).unwrap();
        assert_eq!(fixed, 2);
        assert_eq!(out, data);
    }

    #[test]
    fn detects_more_than_t_errors_or_miscorrects_to_valid() {
        // t+1 errors are beyond the guarantee: the decoder must either
        // report failure or (rarely) land on a *valid* wrong codeword —
        // never panic or return an invalid word.
        let code = Bch::new(8, 3);
        let data = data_pattern(code.k(), 1);
        let cw = code.encode(&data);
        let mut failures = 0;
        for seed in 0..40u64 {
            let mut bad = cw.clone();
            for e in 0..4u64 {
                let pos = ((seed * 97 + e * 31) as usize * 131) % code.n();
                bad[pos] ^= 1;
            }
            match code.decode(&bad) {
                Err(BchError::TooManyErrors) => failures += 1,
                Ok((out, _)) => {
                    // If it "succeeded", the result must re-encode to a
                    // valid codeword (miscorrection), or be the original
                    // (error positions collided and cancelled).
                    let recoded = code.encode(&out);
                    assert!(code.decode(&recoded).is_ok());
                }
            }
        }
        assert!(
            failures > 20,
            "expected mostly detected failures, got {failures}"
        );
    }

    #[test]
    fn shortened_code_roundtrip() {
        // 512-bit data block protected by a t=4 code over GF(2^10).
        let code = Bch::with_data_len(10, 4, 512);
        assert_eq!(code.k(), 512);
        assert_eq!(code.parity_bits(), 40); // m·t = 10·4
        assert_eq!(code.n(), 552);
        let data = data_pattern(512, 99);
        let mut cw = code.encode(&data);
        for &p in &[0usize, 100, 300, 551] {
            cw[p] ^= 1;
        }
        let (out, fixed) = code.decode(&cw).unwrap();
        assert_eq!(fixed, 4);
        assert_eq!(out, data);
    }

    #[test]
    fn overhead_falls_with_block_size_at_fixed_t() {
        // The Dolinar observation realized: same t, bigger blocks, lower
        // overhead.
        let small = Bch::with_data_len(8, 4, 128).overhead();
        let medium = Bch::with_data_len(10, 4, 512).overhead();
        let large = Bch::with_data_len(13, 4, 4096).overhead();
        assert!(small > medium && medium > large, "{small} {medium} {large}");
    }

    #[test]
    fn generator_is_binary_and_has_expected_degree() {
        for (m, t) in [(4u32, 2usize), (6, 3), (8, 5), (10, 4)] {
            let gf = Gf::new(m);
            let gen = generator_poly(&gf, t);
            assert!(gen.iter().all(|&c| c <= 1));
            // deg(g) ≤ m·t for binary BCH.
            assert!(gen.len() - 1 <= m as usize * t, "m={m} t={t}");
            assert_eq!(*gen.last().unwrap(), 1, "monic");
        }
    }

    #[test]
    fn packed_syndromes_match_reference() {
        for (m, t) in [(4u32, 2usize), (6, 3), (8, 4), (10, 2), (10, 4)] {
            let code = Bch::new(m, t);
            for seed in 0..8u64 {
                let data = data_pattern(code.k(), seed);
                let mut cw = code.encode(&data);
                // Clean, then progressively dirtier patterns.
                for flips in 0..=(t + 2) {
                    assert_eq!(
                        code.syndromes_packed(&Bch::pack_bits(&cw)),
                        code.syndromes_reference(&cw),
                        "m={m} t={t} seed={seed} flips={flips}"
                    );
                    cw[(seed as usize * 37 + flips * 101) % code.n()] ^= 1;
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn oversized_shortening_panics() {
        let _ = Bch::with_data_len(4, 2, 8); // k is only 7
    }

    #[test]
    #[should_panic(expected = "codeword length mismatch")]
    fn wrong_codeword_length_panics() {
        let code = Bch::new(4, 1);
        let _ = code.decode(&[0u8; 14]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn bch_corrects_up_to_t_random_errors(
            data in proptest::collection::vec(0u8..=1, 231),
            errs in proptest::collection::btree_set(0usize..255, 0..=3),
        ) {
            let code = Bch::new(8, 3);
            prop_assert_eq!(code.k(), 231);
            let mut cw = code.encode(&data);
            for &p in &errs {
                cw[p] ^= 1;
            }
            let (out, fixed) = code.decode(&cw).unwrap();
            prop_assert_eq!(fixed, errs.len());
            prop_assert_eq!(out, data);
        }

        #[test]
        fn shortened_bch_corrects_up_to_t_random_errors(
            data in proptest::collection::vec(0u8..=1, 256),
            errs in proptest::collection::btree_set(0usize..296, 0..=4),
        ) {
            let code = Bch::with_data_len(10, 4, 256);
            prop_assert_eq!(code.n(), 296);
            let mut cw = code.encode(&data);
            for &p in &errs {
                cw[p] ^= 1;
            }
            let (out, fixed) = code.decode(&cw).unwrap();
            prop_assert_eq!(fixed, errs.len());
            prop_assert_eq!(out, data);
        }
    }
}
