//! The fuzzer's private random stream.
//!
//! A bare splitmix64 walk — deliberately *not* [`mrm_sim::rng::SimRng`]:
//! the simulation's xoshiro stream is a determinism-audited resource (lint
//! rules D3/D10 confine who may draw from it), while the fuzzer's stream
//! exists only to pick mutations and must never be entangled with
//! simulated randomness. splitmix64 is a bijective mix of a counter, so
//! every `(seed, iteration)` pair names one reproducible draw sequence —
//! the property crash artifacts rely on to replay.
//!
//! [`FuzzRng::lean_u64`] is the *extreme-value mutation pool*: instead of
//! uniform draws (which essentially never produce `0`, `u64::MAX`, or a
//! power-of-two boundary), a third of draws come from a table of the
//! values integer-arithmetic bugs live at — `0`, `1`, `u64::MAX`, the
//! `i64`/`u32` horizons, and off-by-one neighbours of each.

/// splitmix64 step (same constants as `mrm_core`'s deterministic treap
/// priorities — the standard Steele/Lea/Burak mix).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Folds two words into a fresh splitmix64 seed. Used to derive the
/// per-iteration stream from `(campaign_seed, iteration)`.
pub fn mix2(a: u64, b: u64) -> u64 {
    let mut s = a ^ b.rotate_left(32) ^ 0x51AF_F00D_CAFE_D00D;
    splitmix64(&mut s)
}

/// Boundary values that integer bugs cluster around. Each entry is drawn
/// with its ±1 neighbours, so the pool covers both sides of every edge.
const EXTREMES: [u64; 12] = [
    0,
    1,
    2,
    7,
    63,
    64,
    0xFF,        // u8::MAX
    0xFFFF,      // u16::MAX
    0xFFFF_FFFF, // u32::MAX
    1 << 62,
    0x7FFF_FFFF_FFFF_FFFF, // i64::MAX
    u64::MAX,
];

/// A deterministic splitmix64 stream with an extreme-value bias.
#[derive(Clone, Debug)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a stream from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        FuzzRng { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        splitmix64(&mut self.state)
    }

    /// Uniform draw in `[0, bound)` via the multiply-shift reduction
    /// (bias is irrelevant for mutation choices; reproducibility is not).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is an empty range");
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform index into a slice of length `len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        self.below(len as u64) as usize
    }

    /// Bernoulli draw: true once per `denom` draws on average.
    pub fn one_in(&mut self, denom: u64) -> bool {
        self.below(denom.max(1)) == 0
    }

    /// A value from the extreme-value mutation pool: one third of draws
    /// come from `EXTREMES` (possibly nudged ±1 to land on both sides
    /// of each boundary), the rest are uniform. Targets route every
    /// magnitude-like operand through this so lengths, deadlines and ids
    /// visit `0`, `u64::MAX`, and the power-of-two horizons often.
    pub fn lean_u64(&mut self) -> u64 {
        if self.below(3) == 0 {
            let base = EXTREMES[self.index(EXTREMES.len())];
            match self.below(4) {
                0 => base.wrapping_add(1),
                1 => base.wrapping_sub(1),
                _ => base,
            }
        } else {
            self.next_u64()
        }
    }

    /// [`FuzzRng::lean_u64`] reduced into `[0, bound)` — keeps the
    /// boundary bias (0, 1, bound−1 are frequent) while staying in range.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn lean_below(&mut self, bound: u64) -> u64 {
        let v = self.lean_u64();
        if v < bound {
            v
        } else {
            // Wrap extremes onto the range edges rather than uniformly:
            // u64::MAX maps to bound−1, keeping the "largest legal value"
            // case hot.
            match self.below(2) {
                0 => bound - 1,
                _ => v % bound,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FuzzRng::new(0xF00D);
        let mut b = FuzzRng::new(0xF00D);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mix2_separates_iterations() {
        let a = mix2(42, 0);
        let b = mix2(42, 1);
        let c = mix2(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And is stable: artifacts depend on this mapping never changing.
        assert_eq!(mix2(42, 0), a);
    }

    #[test]
    fn lean_hits_extremes_often() {
        let mut r = FuzzRng::new(7);
        let mut zeros = 0;
        let mut maxes = 0;
        for _ in 0..10_000 {
            match r.lean_u64() {
                0 => zeros += 1,
                u64::MAX => maxes += 1,
                _ => {}
            }
        }
        // Uniform draws would essentially never produce either value.
        assert!(zeros > 20, "zeros {zeros}");
        assert!(maxes > 20, "maxes {maxes}");
    }

    #[test]
    fn lean_below_in_range_and_edge_heavy() {
        let mut r = FuzzRng::new(9);
        let bound = 100u64;
        let mut edge = 0;
        for _ in 0..10_000 {
            let v = r.lean_below(bound);
            assert!(v < bound);
            if v == 0 || v == bound - 1 {
                edge += 1;
            }
        }
        assert!(edge > 200, "edge draws {edge}");
    }

    #[test]
    fn below_respects_bound() {
        let mut r = FuzzRng::new(3);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }
}
