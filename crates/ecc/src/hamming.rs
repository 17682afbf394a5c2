//! SECDED extended Hamming codes — the DRAM-style ECC baseline.
//!
//! Commodity DRAM/HBM ECC protects small words: the classic (72,64) SECDED
//! code adds 8 check bits to every 64 data bits (12.5% overhead) and corrects
//! one error / detects two per word. The MRM paper's §4 argument is that
//! block-level interfaces allow much larger code words (BCH in [`crate::bch`])
//! with lower overhead at equal or better protection; this module provides
//! the small-word baseline for that comparison.
//!
//! Bits are represented one-per-`u8` (values 0/1) for clarity.

/// Outcome of decoding one SECDED word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HammingOutcome {
    /// No error detected.
    Clean,
    /// A single-bit error was corrected at the given codeword position.
    Corrected(usize),
    /// The overall parity bit itself was wrong and was fixed.
    ParityCorrected,
    /// A double-bit error was detected; data is not trustworthy.
    DoubleError,
}

/// An extended Hamming (SECDED) code for a configurable data width.
///
/// # Examples
///
/// ```
/// use mrm_ecc::hamming::{Hamming, HammingOutcome};
///
/// let code = Hamming::secded_72_64();
/// let data: Vec<u8> = (0..64).map(|i| (i % 3 == 0) as u8).collect();
/// let mut cw = code.encode(&data);
/// cw[17] ^= 1; // inject a single-bit error
/// let (decoded, outcome) = code.decode(&cw);
/// assert_eq!(outcome, HammingOutcome::Corrected(17));
/// assert_eq!(decoded, data);
/// ```
#[derive(Clone, Debug)]
pub struct Hamming {
    /// Data bits per word.
    k: usize,
    /// Hamming parity bits (excluding the overall parity bit).
    r: usize,
}

impl Hamming {
    /// Creates a SECDED code for `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or needs more than 16 parity bits.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "data width must be positive");
        let mut r = 0usize;
        while (1usize << r) < r + k + 1 {
            r += 1;
            assert!(r <= 16, "data width too large");
        }
        Hamming { k, r }
    }

    /// The classic (72,64) DRAM SECDED geometry.
    pub fn secded_72_64() -> Self {
        let h = Hamming::new(64);
        debug_assert_eq!(h.codeword_len(), 72);
        h
    }

    /// Data bits per word.
    pub fn data_len(&self) -> usize {
        self.k
    }

    /// Total codeword bits: data + Hamming parity + overall parity.
    pub fn codeword_len(&self) -> usize {
        self.k + self.r + 1
    }

    /// Code-rate overhead: check bits / codeword bits.
    pub fn overhead(&self) -> f64 {
        (self.r + 1) as f64 / self.codeword_len() as f64
    }

    /// Encodes `data` (one bit per byte, values 0/1).
    ///
    /// Layout: index 0 holds the overall parity; indices `1..` hold the
    /// classic Hamming arrangement (powers of two are parity positions).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.data_len()` or any value is not 0/1.
    pub fn encode(&self, data: &[u8]) -> Vec<u8> {
        assert_eq!(data.len(), self.k, "data length mismatch");
        let n = self.codeword_len();
        let mut cw = vec![0u8; n];
        // Place data bits at non-power-of-two positions ≥ 1.
        let mut di = 0;
        for (pos, slot) in cw.iter_mut().enumerate().skip(1) {
            if !pos.is_power_of_two() {
                let bit = data[di];
                assert!(bit <= 1, "bits must be 0 or 1");
                *slot = bit;
                di += 1;
            }
        }
        debug_assert_eq!(di, self.k);
        // Hamming parity bits: parity bit at position 2^j covers every
        // position with bit j set.
        for j in 0..self.r {
            let p = 1usize << j;
            let mut parity = 0u8;
            for (pos, cw_bit) in cw.iter().enumerate().skip(1) {
                if pos & p != 0 && pos != p {
                    parity ^= cw_bit;
                }
            }
            cw[p] = parity;
        }
        // Overall parity over everything else (even parity).
        cw[0] = cw[1..].iter().fold(0u8, |a, &b| a ^ b);
        cw
    }

    /// Decodes a codeword, correcting a single-bit error if present.
    ///
    /// Returns the recovered data bits and the [`HammingOutcome`]. On
    /// [`HammingOutcome::DoubleError`] the returned data is best-effort and
    /// must not be trusted.
    ///
    /// # Panics
    ///
    /// Panics if `cw.len() != self.codeword_len()`.
    pub fn decode(&self, cw: &[u8]) -> (Vec<u8>, HammingOutcome) {
        assert_eq!(cw.len(), self.codeword_len(), "codeword length mismatch");
        let mut cw = cw.to_vec();
        // Syndrome: XOR of positions whose parity group fails.
        let mut syndrome = 0usize;
        for j in 0..self.r {
            let p = 1usize << j;
            let mut parity = 0u8;
            for (pos, cw_bit) in cw.iter().enumerate().skip(1) {
                if pos & p != 0 {
                    parity ^= cw_bit;
                }
            }
            if parity != 0 {
                syndrome |= p;
            }
        }
        let overall = cw.iter().fold(0u8, |a, &b| a ^ b);
        let outcome = match (syndrome, overall) {
            (0, 0) => HammingOutcome::Clean,
            (0, _) => {
                cw[0] ^= 1;
                HammingOutcome::ParityCorrected
            }
            (s, 1) if s < cw.len() => {
                cw[s] ^= 1;
                HammingOutcome::Corrected(s)
            }
            _ => HammingOutcome::DoubleError,
        };
        let data = cw
            .iter()
            .enumerate()
            .skip(1)
            .filter(|(pos, _)| !pos.is_power_of_two())
            .map(|(_, &b)| b)
            .collect();
        (data, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(k: usize, seed: u64) -> Vec<u8> {
        (0..k)
            .map(|i| (((i as u64).wrapping_mul(seed + 7) >> 3) & 1) as u8)
            .collect()
    }

    #[test]
    fn geometry_72_64() {
        let h = Hamming::secded_72_64();
        assert_eq!(h.data_len(), 64);
        assert_eq!(h.codeword_len(), 72);
        assert!((h.overhead() - 8.0 / 72.0).abs() < 1e-12);
    }

    #[test]
    fn clean_roundtrip() {
        for k in [4usize, 11, 26, 57, 64, 120] {
            let h = Hamming::new(k);
            let data = pattern(k, k as u64);
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            assert_eq!(outcome, HammingOutcome::Clean, "k={k}");
            assert_eq!(out, data, "k={k}");
        }
    }

    #[test]
    fn every_single_bit_error_is_corrected() {
        let h = Hamming::new(64);
        let data = pattern(64, 3);
        let cw = h.encode(&data);
        for i in 0..h.codeword_len() {
            let mut bad = cw.clone();
            bad[i] ^= 1;
            let (out, outcome) = h.decode(&bad);
            match outcome {
                HammingOutcome::Corrected(pos) => assert_eq!(pos, i),
                HammingOutcome::ParityCorrected => assert_eq!(i, 0),
                other => panic!("bit {i}: unexpected outcome {other:?}"),
            }
            assert_eq!(out, data, "bit {i} not corrected");
        }
    }

    #[test]
    fn every_double_bit_error_is_detected() {
        let h = Hamming::new(26);
        let data = pattern(26, 9);
        let cw = h.encode(&data);
        let n = h.codeword_len();
        for i in 0..n {
            for j in (i + 1)..n {
                let mut bad = cw.clone();
                bad[i] ^= 1;
                bad[j] ^= 1;
                let (_, outcome) = h.decode(&bad);
                assert_eq!(outcome, HammingOutcome::DoubleError, "bits {i},{j}");
            }
        }
    }

    #[test]
    fn all_zero_and_all_one_data() {
        let h = Hamming::secded_72_64();
        for bit in [0u8, 1] {
            let data = vec![bit; 64];
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            assert_eq!(outcome, HammingOutcome::Clean);
            assert_eq!(out, data);
        }
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn wrong_data_length_panics() {
        Hamming::new(8).encode(&[1, 0, 1]);
    }

    #[test]
    fn overhead_shrinks_with_word_size() {
        // The Dolinar direction even within Hamming: bigger words,
        // proportionally fewer check bits.
        let small = Hamming::new(8).overhead();
        let medium = Hamming::new(64).overhead();
        let large = Hamming::new(512).overhead();
        assert!(small > medium && medium > large);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrip_any_data(data in proptest::collection::vec(0u8..=1, 64)) {
            let h = Hamming::secded_72_64();
            let cw = h.encode(&data);
            let (out, outcome) = h.decode(&cw);
            prop_assert_eq!(outcome, HammingOutcome::Clean);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn single_error_always_corrected(
            data in proptest::collection::vec(0u8..=1, 64),
            pos in 0usize..72,
        ) {
            let h = Hamming::secded_72_64();
            let mut cw = h.encode(&data);
            cw[pos] ^= 1;
            let (out, outcome) = h.decode(&cw);
            prop_assert_ne!(outcome, HammingOutcome::DoubleError);
            prop_assert_ne!(outcome, HammingOutcome::Clean);
            prop_assert_eq!(out, data);
        }

        #[test]
        fn double_error_always_detected(
            data in proptest::collection::vec(0u8..=1, 64),
            a in 0usize..72,
            b in 0usize..72,
        ) {
            prop_assume!(a != b);
            let h = Hamming::secded_72_64();
            let mut cw = h.encode(&data);
            cw[a] ^= 1;
            cw[b] ^= 1;
            let (_, outcome) = h.decode(&cw);
            prop_assert_eq!(outcome, HammingOutcome::DoubleError);
        }
    }
}
