//! Request populations with published Splitwise trace statistics.
//!
//! The paper's Figure-1 KV-cache endurance line "use\[s\] the throughputs and
//! median context lengths reported for the Llama2-70B model in Splitwise
//! \[37\]". We do not have the raw production traces (they are Azure
//! internal); per the substitution rule, the samplers here reproduce the
//! *published* distribution parameters of those traces:
//!
//! * **Conversation** trace: median prompt ≈ 1020 tokens, median output
//!   ≈ 129 tokens (Splitwise §3, Table/Fig. characterization).
//! * **Coding** trace: median prompt ≈ 1930 tokens, median output ≈ 13
//!   tokens.
//! * Context lengths are heavy-tailed; we model them log-normal around the
//!   published medians with a spread chosen to match the reported
//!   P90/median ratios (≈ 3–4× for prompts), truncated to the model's
//!   context limit.
//! * Splitwise-reported machine throughputs for Llama2-70B on DGX-A100:
//!   prefill ≈ several thousand tokens/s, batched decode ≈ low thousands —
//!   [`SplitwiseThroughput`] carries the values used by the endurance math.

use serde::{Deserialize, Serialize};

use mrm_sim::dist::{Distribution, Exponential, LogNormal};
use mrm_sim::rng::SimRng;
use mrm_sim::time::SimDuration;

/// Which published workload population a request is drawn from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceKind {
    /// Interactive chat: long-ish prompts, long outputs.
    Conversation,
    /// Code completion: long prompts, very short outputs.
    Coding,
}

impl TraceKind {
    /// Published median prompt length, tokens.
    pub fn median_prompt_tokens(self) -> u32 {
        match self {
            TraceKind::Conversation => 1020,
            TraceKind::Coding => 1930,
        }
    }

    /// Published median output length, tokens.
    pub fn median_output_tokens(self) -> u32 {
        match self {
            TraceKind::Conversation => 129,
            TraceKind::Coding => 13,
        }
    }

    /// Log-normal sigma fitted to the reported spread.
    fn sigma(self) -> (f64, f64) {
        match self {
            // (prompt sigma, output sigma)
            TraceKind::Conversation => (0.9, 0.9),
            TraceKind::Coding => (0.8, 1.1),
        }
    }
}

/// Splitwise-reported machine-level token throughputs for Llama2-70B,
/// used by the Figure-1 endurance requirement computation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SplitwiseThroughput {
    /// Prefill (prompt) tokens per second per machine.
    pub prefill_tokens_per_s: f64,
    /// Decode (generation) tokens per second per machine (batched).
    pub decode_tokens_per_s: f64,
}

impl SplitwiseThroughput {
    /// The values used throughout the workspace (Splitwise, ISCA'24,
    /// Llama2-70B on DGX-A100-class machines; prefill saturates several
    /// thousand tokens/s, batched decode sustains on the order of a
    /// thousand).
    pub fn llama2_70b() -> Self {
        SplitwiseThroughput {
            prefill_tokens_per_s: 7000.0,
            decode_tokens_per_s: 1500.0,
        }
    }

    /// Aggregate token write rate (every prefill and decode token appends
    /// one KV vector), tokens/s.
    pub fn total_tokens_per_s(&self) -> f64 {
        self.prefill_tokens_per_s + self.decode_tokens_per_s
    }
}

/// Samples `(prompt_tokens, output_tokens)` pairs for one population.
#[derive(Clone, Debug)]
pub struct RequestSampler {
    kind: TraceKind,
    prompt: LogNormal,
    output: LogNormal,
    max_context: u32,
}

impl RequestSampler {
    /// Creates a sampler for `kind`, truncating contexts to `max_context`.
    pub fn new(kind: TraceKind, max_context: u32) -> Self {
        let (ps, os) = kind.sigma();
        RequestSampler {
            kind,
            prompt: LogNormal::from_median(f64::from(kind.median_prompt_tokens()), ps),
            output: LogNormal::from_median(f64::from(kind.median_output_tokens()), os),
            max_context,
        }
    }

    /// The population this sampler draws from.
    pub fn kind(&self) -> TraceKind {
        self.kind
    }

    /// Draws one `(prompt_tokens, output_tokens)` pair. Both are at least 1
    /// and the pair is truncated so the final context fits `max_context`.
    pub fn sample(&self, rng: &mut SimRng) -> (u32, u32) {
        let p = self.prompt.sample(rng).round().max(1.0);
        let o = self.output.sample(rng).round().max(1.0);
        let p = (p as u32).min(self.max_context.saturating_sub(1)).max(1);
        let o = (o as u32).min(self.max_context - p).max(1);
        (p, o)
    }
}

/// A mixture of trace populations with Poisson arrivals.
#[derive(Clone, Debug)]
pub struct TraceMix {
    samplers: Vec<(f64, RequestSampler)>,
    total_weight: f64,
    interarrival: Option<Exponential>,
}

impl TraceMix {
    /// Creates a mixture from `(weight, sampler)` components and an
    /// aggregate arrival rate (requests/second). A zero rate is legal and
    /// models a drained system: the mixture never produces an arrival.
    ///
    /// # Panics
    ///
    /// Panics if no components are given, weights are non-positive, or the
    /// rate is negative or non-finite.
    pub fn new(components: Vec<(f64, RequestSampler)>, arrivals_per_s: f64) -> Self {
        assert!(!components.is_empty(), "mixture needs components");
        let total_weight: f64 = components.iter().map(|(w, _)| *w).sum();
        assert!(total_weight > 0.0, "weights must be positive");
        for (w, _) in &components {
            assert!(*w > 0.0, "weights must be positive");
        }
        assert!(
            arrivals_per_s.is_finite() && arrivals_per_s >= 0.0,
            "arrival rate must be finite and non-negative"
        );
        TraceMix {
            samplers: components,
            total_weight,
            interarrival: (arrivals_per_s > 0.0).then(|| Exponential::new(arrivals_per_s)),
        }
    }

    /// The Splitwise-style default: 70% conversation, 30% coding.
    pub fn splitwise_default(max_context: u32, arrivals_per_s: f64) -> Self {
        TraceMix::new(
            vec![
                (
                    0.7,
                    RequestSampler::new(TraceKind::Conversation, max_context),
                ),
                (0.3, RequestSampler::new(TraceKind::Coding, max_context)),
            ],
            arrivals_per_s,
        )
    }

    /// True when the mixture has a positive arrival rate. A zero-rate mix
    /// never produces an arrival, so callers must not draw gaps from it.
    pub fn has_arrivals(&self) -> bool {
        self.interarrival.is_some()
    }

    /// Draws the next inter-arrival gap.
    ///
    /// # Panics
    ///
    /// Panics if the mixture was built with a zero arrival rate; gate on
    /// [`TraceMix::has_arrivals`] first.
    pub fn next_interarrival(&self, rng: &mut SimRng) -> SimDuration {
        let exp = self
            .interarrival
            .expect("next_interarrival drawn from a zero-rate mix");
        SimDuration::from_secs_f64(exp.sample(rng))
    }

    /// Draws one request: `(kind, prompt_tokens, output_tokens)`.
    pub fn sample_request(&self, rng: &mut SimRng) -> (TraceKind, u32, u32) {
        let mut pick = rng.next_f64() * self.total_weight;
        for (w, s) in &self.samplers {
            if pick < *w {
                let (p, o) = s.sample(rng);
                return (s.kind(), p, o);
            }
            pick -= w;
        }
        let s = &self
            .samplers
            .last()
            .expect("TraceMix has at least one sampler")
            .1;
        let (p, o) = s.sample(rng);
        (s.kind(), p, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(mut xs: Vec<u32>) -> u32 {
        xs.sort_unstable();
        xs[xs.len() / 2]
    }

    #[test]
    fn medians_match_published_values() {
        let mut rng = SimRng::seed_from(1);
        for kind in [TraceKind::Conversation, TraceKind::Coding] {
            // mrm-lint: allow(U1) token-count truncation bound, not a byte capacity
            let s = RequestSampler::new(kind, 1 << 20); // effectively untruncated
            let (prompts, outputs): (Vec<u32>, Vec<u32>) =
                (0..40_001).map(|_| s.sample(&mut rng)).unzip();
            let pm = median(prompts);
            let om = median(outputs);
            let p_target = kind.median_prompt_tokens();
            let o_target = kind.median_output_tokens();
            assert!(
                (f64::from(pm) / f64::from(p_target) - 1.0).abs() < 0.06,
                "{kind:?} prompt median {pm} vs {p_target}"
            );
            assert!(
                (f64::from(om) / f64::from(o_target) - 1.0).abs() < 0.12,
                "{kind:?} output median {om} vs {o_target}"
            );
        }
    }

    #[test]
    fn contexts_fit_limit() {
        let mut rng = SimRng::seed_from(7);
        let s = RequestSampler::new(TraceKind::Coding, 4096);
        for _ in 0..20_000 {
            let (p, o) = s.sample(&mut rng);
            assert!(p >= 1 && o >= 1);
            assert!(p + o <= 4096, "context {} over limit", p + o);
        }
    }

    #[test]
    fn coding_outputs_shorter_than_conversation() {
        let mut rng = SimRng::seed_from(2);
        let conv = RequestSampler::new(TraceKind::Conversation, 4096);
        let code = RequestSampler::new(TraceKind::Coding, 4096);
        let conv_out: u64 = (0..5000).map(|_| u64::from(conv.sample(&mut rng).1)).sum();
        let code_out: u64 = (0..5000).map(|_| u64::from(code.sample(&mut rng).1)).sum();
        assert!(
            conv_out > 3 * code_out,
            "conv {conv_out} vs code {code_out}"
        );
    }

    #[test]
    fn mixture_respects_weights() {
        let mut rng = SimRng::seed_from(3);
        let mix = TraceMix::splitwise_default(4096, 10.0);
        let n = 20_000;
        let conv = (0..n)
            .filter(|_| matches!(mix.sample_request(&mut rng).0, TraceKind::Conversation))
            .count();
        let frac = conv as f64 / f64::from(n);
        assert!((frac - 0.7).abs() < 0.02, "conversation fraction {frac}");
    }

    #[test]
    fn poisson_arrivals_have_right_mean() {
        let mut rng = SimRng::seed_from(4);
        let mix = TraceMix::splitwise_default(4096, 50.0);
        let n = 50_000;
        let total: f64 = (0..n)
            .map(|_| mix.next_interarrival(&mut rng).as_secs_f64())
            .sum();
        let mean = total / f64::from(n);
        assert!((mean - 0.02).abs() < 0.001, "mean gap {mean}");
    }

    #[test]
    fn throughput_totals() {
        let t = SplitwiseThroughput::llama2_70b();
        assert!(
            t.prefill_tokens_per_s > t.decode_tokens_per_s,
            "prefill is higher throughput (§3)"
        );
        assert!((t.total_tokens_per_s() - 8500.0).abs() < f64::EPSILON);
    }
}
