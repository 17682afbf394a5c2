//! The §2 data classes an inference workload keeps in memory.
//!
//! Placement and lifetime estimation key on the class of the data: §4's
//! "fine-grained understanding of lifetime and access patterns of the data
//! will be required to lay out the data."

use serde::{Deserialize, Serialize};

/// Which §2 data structure a piece of data belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataClass {
    /// Model weights: non-mutable, persisted elsewhere, read every token.
    Weights,
    /// KV cache of one context: append-only soft state, read every decode
    /// step, lifetime ≈ the context's remaining lifetime.
    KvCache,
    /// Transient activations: lifetime ≈ one forward pass.
    Activation,
}

impl DataClass {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DataClass::Weights => "weights",
            DataClass::KvCache => "kv-cache",
            DataClass::Activation => "activation",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_class_properties() {
        assert_eq!(DataClass::KvCache.label(), "kv-cache");
    }
}
