//! # `mrm-tiering` — the retention-aware control plane
//!
//! §4 of the MRM paper sketches "a rack-scale OS for foundation model
//! inference" in which MRM "co-exist\[s\] with other types of memory, such as
//! HBM for write-heavy data structures (e.g., activations), and LPDDR as a
//! slower tier", and where "the scheduler will need to track the data
//! expiration times, and decide whether to refresh it or move it to another
//! tier based on the state of the requests that depend on that data."
//!
//! This crate is that control plane, plus the end-to-end cluster simulation
//! that evaluates it:
//!
//! * [`lifetime`] — expected-lifetime estimation per data class (the DCM
//!   input).
//! * [`tier`] — memory tiers composed from [`mrm_core::Pool`]s.
//! * [`placement`] — placement policies: HBM-only, HBM+LPDDR cold tier,
//!   HBM+MRM, HBM+MRM with DCM.
//! * [`prefix`] — vLLM-style prefix caching over chunk hashes (§2.2 \[54\]).
//! * [`wear`] — software wear-levelling evaluation under sustained KV write
//!   load (device lifetime in years).
//! * [`cluster`] — the discrete-event inference-cluster simulation:
//!   requests, prefill/decode, KV placement, expiry handling; reports
//!   tokens/s, J/token, cost, recompute rate, latency percentiles.

pub mod cluster;
pub mod lifetime;
mod observe;
pub mod placement;
pub mod prefix;
pub mod tier;
pub mod wear;

pub use cluster::{ClusterConfig, ClusterReport, ClusterSim, FaultSummary};
pub use lifetime::LifetimeEstimator;
pub use placement::PlacementPolicy;
pub use tier::{Tier, TierKind};
