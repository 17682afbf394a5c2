//! Multi-turn conversation sessions.
//!
//! §2 defines a *context* as "all the tokens from the user and the
//! corresponding responses generated by the model during the interaction" —
//! interactions have multiple turns, and the gaps between turns are exactly
//! the intervals the KV cache must survive (or be recomputed). The cluster
//! simulation approximates this with a follow-up probability; this module
//! provides the full generative model for studies that need real session
//! structure: turn counts, per-turn lengths, and think-time gaps.

use mrm_sim::dist::{Distribution, LogNormal};
use mrm_sim::rng::SimRng;
use mrm_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

use crate::traces::{RequestSampler, TraceKind};

/// One turn of a session.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Turn {
    /// New user tokens this turn adds.
    pub prompt_tokens: u32,
    /// Model output tokens this turn generates.
    pub output_tokens: u32,
    /// User think time before this turn (zero for the first).
    pub gap: SimDuration,
}

/// A complete multi-turn session.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Session {
    /// The turns, in order.
    pub turns: Vec<Turn>,
}

impl Session {
    /// Total context size after the last turn, tokens.
    pub fn final_context_tokens(&self) -> u64 {
        self.turns
            .iter()
            .map(|t| u64::from(t.prompt_tokens) + u64::from(t.output_tokens))
            .sum()
    }

    /// The longest inter-turn gap — the retention the KV cache needs to
    /// avoid any recompute within the session.
    pub fn max_gap(&self) -> SimDuration {
        self.turns
            .iter()
            .map(|t| t.gap)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Generates sessions: geometric turn counts, trace-derived turn lengths,
/// log-normal think times.
#[derive(Clone, Debug)]
pub struct SessionSampler {
    sampler: RequestSampler,
    /// Probability a session continues after each turn.
    continue_prob: f64,
    /// Hard cap on turns per session.
    max_turns: u32,
    /// Think-time distribution, seconds.
    think_time: LogNormal,
    /// Context cap, tokens.
    max_context: u32,
}

impl SessionSampler {
    /// Creates a sampler for a population.
    ///
    /// # Panics
    ///
    /// Panics unless `continue_prob ∈ [0, 1)` and `max_turns ≥ 1`.
    pub fn new(
        kind: TraceKind,
        max_context: u32,
        continue_prob: f64,
        max_turns: u32,
        median_think_secs: f64,
    ) -> Self {
        assert!(
            (0.0..1.0).contains(&continue_prob),
            "continue_prob in [0,1)"
        );
        assert!(max_turns >= 1, "need at least one turn");
        SessionSampler {
            sampler: RequestSampler::new(kind, max_context),
            continue_prob,
            max_turns,
            think_time: LogNormal::from_median(median_think_secs, 1.0),
            max_context,
        }
    }

    /// Interactive chat defaults: 60% continue, ≤8 turns, 45 s median
    /// think time.
    pub fn conversation_default(max_context: u32) -> Self {
        SessionSampler::new(TraceKind::Conversation, max_context, 0.6, 8, 45.0)
    }

    /// Draws one session. The context cap truncates later turns.
    pub fn sample(&self, rng: &mut SimRng) -> Session {
        let mut turns = Vec::new();
        let mut context = 0u32;
        for turn_idx in 0..self.max_turns {
            let (p, o) = self.sampler.sample(rng);
            // Respect the context budget; stop when it is exhausted.
            let room = self.max_context.saturating_sub(context);
            if room < 2 {
                break;
            }
            let p = p.min(room / 2).max(1);
            let o = o.min(room - p).max(1);
            let gap = if turn_idx == 0 {
                SimDuration::ZERO
            } else {
                SimDuration::from_secs_f64(self.think_time.sample(rng))
            };
            turns.push(Turn {
                prompt_tokens: p,
                output_tokens: o,
                gap,
            });
            context += p + o;
            if !rng.gen_bool(self.continue_prob) {
                break;
            }
        }
        Session { turns }
    }

    /// Mean turns per session in closed form (truncated geometric).
    pub fn expected_turns(&self) -> f64 {
        let p = self.continue_prob;
        let n = self.max_turns as i32;
        // Sum_{k=1..n} k * P(turns = k) for truncated geometric.
        (1.0 - p.powi(n)) / (1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> SessionSampler {
        SessionSampler::conversation_default(4096)
    }

    #[test]
    fn sessions_have_at_least_one_turn() {
        let s = sampler();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            let sess = s.sample(&mut rng);
            assert!(!sess.turns.is_empty());
            assert!(sess.turns.len() <= 8);
            assert_eq!(
                sess.turns[0].gap,
                SimDuration::ZERO,
                "first turn has no gap"
            );
        }
    }

    #[test]
    fn contexts_respect_the_cap() {
        let s = sampler();
        let mut rng = SimRng::seed_from(2);
        for _ in 0..2000 {
            let sess = s.sample(&mut rng);
            assert!(sess.final_context_tokens() <= 4096);
        }
    }

    #[test]
    fn empirical_turn_count_matches_expectation() {
        let s = sampler();
        let mut rng = SimRng::seed_from(3);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| s.sample(&mut rng).turns.len() as u64).sum();
        let mean = total as f64 / f64::from(n);
        let expected = s.expected_turns();
        // Context-cap truncation can only lower the mean slightly.
        assert!(
            mean <= expected * 1.02 && mean > expected * 0.75,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn gaps_are_think_time_scale() {
        let s = sampler();
        let mut rng = SimRng::seed_from(4);
        let mut gaps: Vec<f64> = Vec::new();
        for _ in 0..5000 {
            for t in s.sample(&mut rng).turns.iter().skip(1) {
                gaps.push(t.gap.as_secs_f64());
            }
        }
        assert!(!gaps.is_empty());
        gaps.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = gaps[gaps.len() / 2];
        assert!((median / 45.0 - 1.0).abs() < 0.15, "median gap {median}");
    }

    #[test]
    fn max_gap_bounds_the_retention_requirement() {
        // The control-plane question a session answers: what retention
        // class avoids intra-session recompute?
        let s = sampler();
        let mut rng = SimRng::seed_from(5);
        let mut covered_by_1h = 0;
        let mut sessions = 0;
        for _ in 0..2000 {
            let sess = s.sample(&mut rng);
            if sess.turns.len() > 1 {
                sessions += 1;
                if sess.max_gap() <= SimDuration::from_hours(1) {
                    covered_by_1h += 1;
                }
            }
        }
        // Hours-class retention covers the overwhelming majority of think
        // times — the paper's hours-to-days sweet spot again.
        assert!(f64::from(covered_by_1h) > 0.95 * f64::from(sessions));
    }

    #[test]
    fn single_turn_helpers() {
        let sess = Session {
            turns: vec![Turn {
                prompt_tokens: 10,
                output_tokens: 5,
                gap: SimDuration::ZERO,
            }],
        };
        assert_eq!(sess.final_context_tokens(), 15);
        assert_eq!(sess.max_gap(), SimDuration::ZERO);
    }
}
