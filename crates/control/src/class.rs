//! Control-plane data classes.
//!
//! §4 of the paper enumerates the data the serving stack places in memory —
//! weights, KV caches (the reused prefix and the live decode tail behave
//! differently), activations, and session state — and argues each needs a
//! *declared* lifetime policy rather than an implicit one. [`ControlClass`]
//! is that declaration key: finer-grained than the workload-side
//! `DataClass` (`mrm-workload`), because the control plane treats a
//! completed context's cached prefix (droppable, recomputable) differently
//! from the KV tail of a running request (dropping it aborts the request).

use serde::{Deserialize, Serialize};

/// A data class as the retention control plane sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ControlClass {
    /// Model weights: read every token, refetched from the model store on
    /// loss, redeployed on a fixed cadence.
    Weights,
    /// KV cache of a *completed* context kept for follow-up turns: soft
    /// state, recomputable from the prompt at a known cost.
    KvPrefix,
    /// KV cache of a *running* request (the decode tail): dropping it
    /// aborts the request, so it must survive until completion.
    KvTail,
    /// Transient activations: lifetime of one forward pass.
    Activation,
    /// Session metadata (conversation state, routing hints): tiny, but must
    /// outlive the KV it describes.
    SessionState,
}

impl ControlClass {
    /// All classes, in declaration order.
    pub fn all() -> [ControlClass; 5] {
        [
            ControlClass::Weights,
            ControlClass::KvPrefix,
            ControlClass::KvTail,
            ControlClass::Activation,
            ControlClass::SessionState,
        ]
    }

    /// Position in [`ControlClass::all`]: the slot of this class's
    /// per-class state.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label for telemetry and reports.
    pub fn label(self) -> &'static str {
        match self {
            ControlClass::Weights => "weights",
            ControlClass::KvPrefix => "kv_prefix",
            ControlClass::KvTail => "kv_tail",
            ControlClass::Activation => "activation",
            ControlClass::SessionState => "session_state",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let mut labels: Vec<&str> = ControlClass::all().iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, class) in ControlClass::all().into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }
}
