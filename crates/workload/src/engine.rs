//! The per-token memory-traffic engine.
//!
//! §2.2's arithmetic, made executable: "each token generated during decode
//! requires reading all the weights, and the entire KV cache, for one
//! self-attention vector write ... which impl\[ies\] read:write ratios of over
//! 1000:1." Batching "allows weight reuse across requests" but "is limited
//! by latency requirements" — the engine models both.

use serde::{Deserialize, Serialize};

use crate::model::{ModelConfig, Quantization};

/// Memory traffic for generating one token for one request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TokenCost {
    /// Weight bytes read (after batch amortization).
    pub weights_read: u64,
    /// KV-cache bytes read (the entire context's cache).
    pub kv_read: u64,
    /// KV-cache bytes appended (one self-attention vector).
    pub kv_write: u64,
    /// Activation bytes written then read back within the pass.
    pub activation_rw: u64,
}

impl TokenCost {
    /// Total bytes read.
    pub fn reads(&self) -> u64 {
        self.weights_read + self.kv_read + self.activation_rw
    }

    /// Total bytes written.
    pub fn writes(&self) -> u64 {
        self.kv_write + self.activation_rw
    }

    /// Read:write ratio.
    pub fn read_write_ratio(&self) -> f64 {
        self.reads() as f64 / self.writes().max(1) as f64
    }
}

/// Memory traffic for one batched decode iteration (one token for each of
/// `batch` requests).
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BatchTokenCost {
    /// Requests in the batch.
    pub batch: u32,
    /// Weight bytes read once for the whole iteration.
    pub weights_read: u64,
    /// Sum of all requests' KV-cache reads.
    pub kv_read: u64,
    /// Sum of all requests' KV appends.
    pub kv_write: u64,
    /// Activation traffic for the batch.
    pub activation_rw: u64,
}

impl BatchTokenCost {
    /// Per-token average cost across the batch.
    pub fn per_token(&self) -> TokenCost {
        let b = u64::from(self.batch.max(1));
        TokenCost {
            weights_read: self.weights_read / b,
            kv_read: self.kv_read / b,
            kv_write: self.kv_write / b,
            activation_rw: self.activation_rw / b,
        }
    }

    /// Read:write ratio of the whole iteration.
    pub fn read_write_ratio(&self) -> f64 {
        let reads = self.weights_read + self.kv_read + self.activation_rw;
        let writes = self.kv_write + self.activation_rw;
        reads as f64 / writes.max(1) as f64
    }
}

/// The per-token memory-traffic engine for one model deployment.
#[derive(Clone, Debug)]
pub struct DecodeEngine {
    model: ModelConfig,
    quant: Quantization,
}

impl DecodeEngine {
    /// Creates an engine for `model` served at quantization `quant`.
    pub fn new(model: ModelConfig, quant: Quantization) -> Self {
        DecodeEngine { model, quant }
    }

    /// The model configuration.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The serving quantization.
    pub fn quant(&self) -> Quantization {
        self.quant
    }

    /// Traffic to decode one token for a single (unbatched) request whose
    /// context currently holds `context_tokens` tokens.
    pub fn token_cost(&self, context_tokens: u32) -> TokenCost {
        TokenCost {
            weights_read: self.model.weights_bytes(self.quant),
            kv_read: self
                .model
                .kv_cache_bytes(u64::from(context_tokens), self.quant),
            kv_write: self.model.kv_bytes_per_token(self.quant),
            activation_rw: self.model.activation_bytes(1, self.quant),
        }
    }

    /// Traffic for one batched decode iteration over requests with the
    /// given context sizes: weights are read **once** and amortized (§2.2
    /// "batching allows weight reuse across requests").
    pub fn batch_cost(&self, context_tokens: &[u32]) -> BatchTokenCost {
        let batch = context_tokens.len() as u32;
        let kv_read: u64 = context_tokens
            .iter()
            .map(|&c| self.model.kv_cache_bytes(u64::from(c), self.quant))
            .sum();
        BatchTokenCost {
            batch,
            weights_read: self.model.weights_bytes(self.quant),
            kv_read,
            kv_write: u64::from(batch) * self.model.kv_bytes_per_token(self.quant),
            activation_rw: self.model.activation_bytes(batch.max(1), self.quant),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::GB;

    fn engine() -> DecodeEngine {
        DecodeEngine::new(ModelConfig::llama2_70b(), Quantization::Fp16)
    }

    #[test]
    fn unbatched_ratio_exceeds_1000_to_1() {
        // §2.2: "read:write ratios of over 1000:1."
        let c = engine().token_cost(2048);
        assert!(
            c.read_write_ratio() > 1000.0,
            "ratio {}",
            c.read_write_ratio()
        );
    }

    #[test]
    fn weights_dominate_unbatched_reads() {
        let c = engine().token_cost(2048);
        assert!(c.weights_read > c.kv_read);
        assert_eq!(c.weights_read, 140 * GB);
    }

    #[test]
    fn batching_amortizes_weights_only() {
        let e = engine();
        let contexts = vec![2048u32; 32];
        let b = e.batch_cost(&contexts);
        let per = b.per_token();
        let solo = e.token_cost(2048);
        // Weights amortize 32x; KV reads do not amortize at all.
        assert_eq!(per.weights_read, solo.weights_read / 32);
        assert_eq!(per.kv_read, solo.kv_read);
        assert_eq!(per.kv_write, solo.kv_write);
    }

    #[test]
    fn batched_workload_is_still_read_dominated() {
        // Even at batch 64, the ratio stays far above storage-like levels —
        // §2.2: batching "do[es] not fundamentally change the heavily
        // read-dominated nature."
        let e = engine();
        let b = e.batch_cost(&vec![2048u32; 64]);
        assert!(
            b.read_write_ratio() > 100.0,
            "ratio {}",
            b.read_write_ratio()
        );
    }

    #[test]
    fn kv_read_grows_with_context() {
        let e = engine();
        assert!(e.token_cost(4096).kv_read > e.token_cost(1024).kv_read);
        assert_eq!(e.token_cost(0).kv_read, 0);
    }

    #[test]
    fn quantization_cuts_traffic() {
        let fp16 = DecodeEngine::new(ModelConfig::llama2_70b(), Quantization::Fp16);
        let int4 = DecodeEngine::new(ModelConfig::llama2_70b(), Quantization::Int4);
        assert_eq!(
            int4.token_cost(1024).weights_read * 4,
            fp16.token_cost(1024).weights_read
        );
    }
}
