//! The memory-operation stream emitted by the workload engine.
//!
//! Tiering policies and analysis consume a flat stream of [`MemOp`]s. Each
//! op carries the *data class* it touches and — crucially for MRM — an
//! expected-lifetime hint: §4's "fine-grained understanding of lifetime and
//! access patterns of the data will be required to lay out the data."

use serde::{Deserialize, Serialize};

use mrm_sim::time::SimDuration;

use crate::request::RequestId;

/// Which §2 data structure an operation touches.
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

    /// Whether losing this data is recoverable without user-visible failure
    /// (§4: weights are durably stored elsewhere; KV caches are soft state
    /// that can be recomputed; activations are regenerated every pass).
    pub fn is_soft_state(self) -> bool {
        true // every inference data class is reconstructible
    }

    /// Whether the data is ever overwritten in place (§2.2: "There are no
    /// in-place updates for weights or KV caches").
    pub fn in_place_updates(self) -> bool {
        matches!(self, DataClass::Activation)
    }
}

/// Operation kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOpKind {
    /// Sequential read.
    Read,
    /// Append to the end of a stream (KV-cache vector append).
    Append,
    /// Write (bulk weight load, activation store).
    Write,
}

/// One memory operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemOp {
    /// Operation kind.
    pub kind: MemOpKind,
    /// Data class touched.
    pub class: DataClass,
    /// Owning request (None for shared structures like weights).
    pub request: Option<RequestId>,
    /// Bytes moved.
    pub bytes: u64,
    /// Expected remaining lifetime of the data at the time of the write
    /// (the §4 DCM hint); `SimDuration::MAX` for reads.
    pub lifetime_hint: SimDuration,
}

impl MemOp {
    /// A sequential read of a shared structure.
    pub fn read(class: DataClass, bytes: u64) -> Self {
        MemOp {
            kind: MemOpKind::Read,
            class,
            request: None,
            bytes,
            lifetime_hint: SimDuration::MAX,
        }
    }

    /// An append on behalf of a request, with a lifetime hint.
    pub fn append(class: DataClass, request: RequestId, bytes: u64, lifetime: SimDuration) -> Self {
        MemOp {
            kind: MemOpKind::Append,
            class,
            request: Some(request),
            bytes,
            lifetime_hint: lifetime,
        }
    }

    /// A bulk write with a lifetime hint.
    pub fn write(class: DataClass, bytes: u64, lifetime: SimDuration) -> Self {
        MemOp {
            kind: MemOpKind::Write,
            class,
            request: None,
            bytes,
            lifetime_hint: lifetime,
        }
    }

    /// True for `Append` and `Write`.
    pub fn is_write(&self) -> bool {
        !matches!(self.kind, MemOpKind::Read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::GIB;

    #[test]
    fn constructors_set_kinds() {
        let r = MemOp::read(DataClass::Weights, 100);
        assert!(!r.is_write());
        assert_eq!(r.lifetime_hint, SimDuration::MAX);

        let a = MemOp::append(
            DataClass::KvCache,
            RequestId(3),
            64,
            SimDuration::from_mins(5),
        );
        assert!(a.is_write());
        assert_eq!(a.request, Some(RequestId(3)));

        let w = MemOp::write(DataClass::Weights, GIB, SimDuration::from_days(30));
        assert!(w.is_write());
        assert_eq!(w.kind, MemOpKind::Write);
    }

    #[test]
    fn data_class_properties() {
        assert!(DataClass::Weights.is_soft_state());
        assert!(!DataClass::Weights.in_place_updates());
        assert!(!DataClass::KvCache.in_place_updates());
        assert!(DataClass::Activation.in_place_updates());
        assert_eq!(DataClass::KvCache.label(), "kv-cache");
    }
}
