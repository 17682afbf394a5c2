//! The dedicated fault-randomness stream.
//!
//! Determinism contract (DESIGN.md §9): every random decision the fault
//! layer makes — how many bits flip, which codewords fail, what data a
//! decoder probe sees — comes from a [`FaultRng`], a stream derived from
//! the simulation seed but *separate* from the scheduling stream. The
//! scheduling RNG is never consulted, so enabling injection cannot perturb
//! arrival times or event order, and the no-faults run of a simulation is
//! byte-identical to a disabled-faults run.
//!
//! This module is the only place in the crate allowed to name the
//! underlying generator type; `mrm-lint` rule D6 enforces that everything
//! else draws through [`FaultRng`].

use mrm_sim::rng::SimRng;

/// Fixed salt XORed into the simulation seed so the fault stream and the
/// scheduling stream never alias even though both derive from one seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED_0DD0_BA11;

/// A deterministic random stream reserved for fault injection.
///
/// Wraps the workspace generator behind a narrower API; see the module
/// docs for why the wrapper exists.
#[derive(Clone, Debug)]
pub struct FaultRng {
    inner: SimRng,
}

impl FaultRng {
    /// Derives the fault stream for a simulation seeded with `sim_seed`.
    pub fn for_seed(sim_seed: u64) -> Self {
        FaultRng {
            inner: SimRng::seed_from(sim_seed ^ FAULT_STREAM_SALT),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.next_f64()
    }

    /// Uniform index into a collection of `len` elements.
    pub fn gen_index(&mut self, len: usize) -> usize {
        self.inner.gen_index(len)
    }

    /// Bernoulli draw with probability `p`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.inner.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FaultRng::for_seed(42);
        let mut b = FaultRng::for_seed(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_is_salted_away_from_the_scheduler() {
        // The fault stream seeded from X must not replay the scheduling
        // stream seeded from X: identical prefixes would correlate "which
        // bits flip" with "when requests arrive".
        let mut fault = FaultRng::for_seed(7);
        let mut sched = SimRng::seed_from(7);
        let distinct = (0..16).any(|_| fault.next_u64() != sched.next_u64());
        assert!(distinct, "fault stream aliases the scheduling stream");
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FaultRng::for_seed(1);
        let mut b = FaultRng::for_seed(2);
        let distinct = (0..16).any(|_| a.next_u64() != b.next_u64());
        assert!(distinct);
    }
}
