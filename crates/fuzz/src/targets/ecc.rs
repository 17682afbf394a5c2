//! ECC error-budget target: both codes' single decoder against the
//! budget each code promises.
//!
//! For a codeword with `e` *effective* bit flips (flip positions XOR, so
//! repeated positions cancel), SECDED must report
//! `Clean`/`Corrected`/`ParityCorrected` with exact data recovery for
//! `e ≤ 1` and `DoubleError` for `e == 2`; BCH(m=10, t=2) must decode
//! `e ≤ t` exactly (reporting `e` errors) and past the budget must either
//! refuse or miscorrect *consistently* (`Ok` with `f ≤ t` and data ≠
//! original — the recheck contract). `e` past the budget must never panic.
//! Every BCH word is also decoded from its error positions alone
//! (`Bch::decode_error` on the positions where it differs from
//! `encode(data)`), and that verdict must match `decode`'s: same refusal,
//! or the same corrected count and data.
//!
//! Sabotage mode flips one extra bit (at `seed mod n`) after the effective
//! flips are counted, so every word decodes one error away from what the
//! oracle expects — exactly the off-by-one-error class of bug the budget
//! oracle exists to catch.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_ecc::bch::Bch;
use mrm_ecc::hamming::{Hamming, HammingOutcome};

/// One ECC fuzz operation.
#[derive(Clone, Debug)]
pub enum EccOp {
    /// Encode a SECDED(72,64) word derived from `seed`, flip `flips`
    /// positions (mod codeword length), decode, and check the budget
    /// oracle.
    Secded { seed: u64, flips: Vec<u16> },
    /// Same for BCH(m=10, t=2, 256 data bits), plus the diff of
    /// `decode_error` against `decode`.
    Bch { seed: u64, flips: Vec<u16> },
}

pub struct EccTarget {
    hamming: Hamming,
    bch: Bch,
    sabotage: bool,
}

impl EccTarget {
    pub fn new(sabotage: bool) -> Self {
        EccTarget {
            hamming: Hamming::secded_72_64(),
            bch: Bch::with_data_len(10, 2, 256),
            sabotage,
        }
    }

    /// The documented sabotage: one flip the oracle does not know about.
    fn sabotage_flip(&self, cw: &mut [u8], seed: u64) {
        if self.sabotage {
            let pos = (seed % cw.len() as u64) as usize;
            cw[pos] ^= 1;
        }
    }
}

/// Derives a one-bit-per-byte data word from a seed.
fn data_bits(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = FuzzRng::new(seed);
    let mut bits = Vec::with_capacity(len);
    let mut word = 0u64;
    for i in 0..len {
        if i % 64 == 0 {
            word = rng.next_u64();
        }
        bits.push(((word >> (i % 64)) & 1) as u8);
    }
    bits
}

impl FuzzTarget for EccTarget {
    type Op = EccOp;

    fn name(&self) -> &'static str {
        "ecc"
    }

    fn corpus(&self) -> Vec<Vec<EccOp>> {
        vec![
            vec![],
            // Clean round-trips of both codes.
            vec![
                EccOp::Secded {
                    seed: 1,
                    flips: vec![],
                },
                EccOp::Bch {
                    seed: 2,
                    flips: vec![],
                },
            ],
            // The budget ladder: 1 and 2 flips for SECDED, up to t+1 for BCH.
            vec![
                EccOp::Secded {
                    seed: 3,
                    flips: vec![17],
                },
                EccOp::Secded {
                    seed: 4,
                    flips: vec![0, 71],
                },
                EccOp::Bch {
                    seed: 5,
                    flips: vec![100, 700],
                },
                EccOp::Bch {
                    seed: 6,
                    flips: vec![1, 2, 3],
                },
            ],
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> EccOp {
        let (seed, flips) = (rng.next_u64(), gen_flips(rng));
        if rng.one_in(2) {
            EccOp::Secded { seed, flips }
        } else {
            EccOp::Bch { seed, flips }
        }
    }

    fn mutate_op(&self, op: &EccOp, rng: &mut FuzzRng) -> EccOp {
        match op {
            EccOp::Secded { seed, flips } => {
                let (seed, flips) = mutate_word(*seed, flips, rng);
                EccOp::Secded { seed, flips }
            }
            EccOp::Bch { seed, flips } => {
                let (seed, flips) = mutate_word(*seed, flips, rng);
                EccOp::Bch { seed, flips }
            }
        }
    }

    fn simplify_op(&self, op: &EccOp) -> Option<EccOp> {
        match op {
            EccOp::Secded { seed, flips } => {
                let (seed, flips) = simplify_word(*seed, flips)?;
                Some(EccOp::Secded { seed, flips })
            }
            EccOp::Bch { seed, flips } => {
                let (seed, flips) = simplify_word(*seed, flips)?;
                Some(EccOp::Bch { seed, flips })
            }
        }
    }

    fn run(&self, ops: &[EccOp]) -> Result<(), String> {
        for (i, op) in ops.iter().enumerate() {
            match op {
                EccOp::Secded { seed, flips } => {
                    let data = data_bits(*seed, self.hamming.data_len());
                    let mut cw = self.hamming.encode(&data);
                    let e = effective_flips(&mut cw, flips);
                    self.sabotage_flip(&mut cw, *seed);
                    let (decoded, outcome) = self.hamming.decode(&cw);
                    match e {
                        0 => {
                            if outcome != HammingOutcome::Clean {
                                return Err(format!("op {i}: clean word decoded as {outcome:?}"));
                            }
                            if decoded != data {
                                return Err(format!("op {i}: clean word data corrupted"));
                            }
                        }
                        1 => {
                            match outcome {
                                HammingOutcome::Corrected(_) | HammingOutcome::ParityCorrected => {}
                                other => {
                                    return Err(format!("op {i}: single flip decoded as {other:?}"))
                                }
                            }
                            if decoded != data {
                                return Err(format!(
                                    "op {i}: single flip not corrected to original data"
                                ));
                            }
                        }
                        2 if outcome != HammingOutcome::DoubleError => {
                            return Err(format!("op {i}: double flip decoded as {outcome:?}"));
                        }
                        // Past the budget: anything but a panic is legal.
                        _ => {}
                    }
                }
                EccOp::Bch { seed, flips } => {
                    let data = data_bits(*seed, self.bch.k());
                    let clean = self.bch.encode(&data);
                    let mut cw = clean.clone();
                    let e = effective_flips(&mut cw, flips);
                    self.sabotage_flip(&mut cw, *seed);
                    let res = self.bch.decode(&cw);
                    let errors: Vec<usize> = (0..cw.len()).filter(|&j| cw[j] != clean[j]).collect();
                    match (self.bch.decode_error(&errors), &res) {
                        (Err(_), Err(_)) => {}
                        (Ok(fix), Ok((decoded, nerr))) => {
                            let mut fixed = cw.clone();
                            for &j in &fix {
                                fixed[j] ^= 1;
                            }
                            if fix.len() != *nerr || fixed[self.bch.parity_bits()..] != decoded[..]
                            {
                                return Err(format!(
                                    "op {i}: decode_error fixes {fix:?}, decode fixed {nerr} \
                                     errors to other data"
                                ));
                            }
                        }
                        (verdict, _) => {
                            return Err(format!(
                                "op {i}: decode_error {verdict:?} disagrees with decode {:?}",
                                res.as_ref().map(|(_, nerr)| nerr)
                            ))
                        }
                    }
                    if e <= self.bch.t() {
                        match &res {
                            Ok((decoded, nerr)) => {
                                if decoded != &data {
                                    return Err(format!(
                                        "op {i}: BCH {e} flips decoded to wrong data"
                                    ));
                                }
                                if *nerr != e {
                                    return Err(format!(
                                        "op {i}: BCH corrected {nerr} errors, injected {e}"
                                    ));
                                }
                            }
                            Err(err) => {
                                return Err(format!("op {i}: BCH refused {e} <= t flips: {err}"))
                            }
                        }
                    } else if let Ok((decoded, nerr)) = &res {
                        // Miscorrection past the budget must still satisfy
                        // the recheck contract: claims ≤ t errors and does
                        // not silently return the original data.
                        if *nerr > self.bch.t() {
                            return Err(format!("op {i}: BCH claims {nerr} > t corrections"));
                        }
                        if decoded == &data {
                            return Err(format!(
                                "op {i}: BCH decoded {e} > t flips back to the original \
                                 data while reporting success"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Counts effective flips while applying them (XOR semantics: a position
/// listed an even number of times cancels out).
fn effective_flips(cw: &mut [u8], flips: &[u16]) -> usize {
    let before = cw.to_vec();
    for &f in flips {
        let pos = usize::from(f) % cw.len();
        cw[pos] ^= 1;
    }
    before.iter().zip(cw.iter()).filter(|(a, b)| a != b).count()
}

fn gen_flips(rng: &mut FuzzRng) -> Vec<u16> {
    // Mostly 0..=3 flips (inside both budgets ± 1), occasionally a storm.
    let n = if rng.one_in(8) {
        rng.index(24)
    } else {
        rng.index(4)
    };
    (0..n).map(|_| (rng.lean_u64() & 0xFFFF) as u16).collect()
}

fn mutate_word(seed: u64, flips: &[u16], rng: &mut FuzzRng) -> (u64, Vec<u16>) {
    let mut flips = flips.to_vec();
    match rng.below(4) {
        0 => return (rng.next_u64(), flips),
        1 => flips.push((rng.lean_u64() & 0xFFFF) as u16),
        2 => {
            if !flips.is_empty() {
                let at = rng.index(flips.len());
                flips.remove(at);
            }
        }
        _ => {
            if !flips.is_empty() {
                let at = rng.index(flips.len());
                flips[at] = flips[at].wrapping_add((rng.lean_u64() & 0xFF) as u16);
            }
        }
    }
    (seed, flips)
}

fn simplify_word(seed: u64, flips: &[u16]) -> Option<(u64, Vec<u16>)> {
    if !flips.is_empty() {
        // Drop the last flip first, then shrink the data seed.
        let mut f = flips.to_vec();
        f.pop();
        return Some((seed, f));
    }
    (seed != 0).then_some((seed / 2, Vec::new()))
}
