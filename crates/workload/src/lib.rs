//! # `mrm-workload` — foundation-model inference as a memory workload
//!
//! §2 of the MRM paper characterizes foundation-model inference by its three
//! in-memory data structures — **model weights** (non-mutable, read every
//! token), the **KV cache** (append-only, read entirely every decode step),
//! and **activations** (transient, an order of magnitude smaller) — and by
//! its access pattern: "very large, predictable memory reads, while writes
//! are smaller and mostly append only."
//!
//! This crate turns that characterization into an executable workload:
//!
//! * [`model`] — transformer configurations and their derived memory
//!   footprints (weights bytes, KV bytes/token, activation bytes).
//! * [`traces`] — request populations with the published Splitwise
//!   distribution parameters (conversation and coding medians) and Poisson
//!   arrivals.
//! * [`replay`] — request-trace recording, CSV parsing and replay
//!   (drop-in for real production traces when available).
//! * [`sessions`] — multi-turn conversation sessions with think-time gaps
//!   (the intervals KV retention must cover).
//! * [`engine`] — the per-token memory-traffic arithmetic: what is read,
//!   appended and written for every generated token, with batching.
//! * [`access`] — the §2 [`DataClass`]es (weights, KV cache, activations)
//!   that placement and lifetime estimation key on.
//!
//! The cluster simulator in `mrm-tiering` is what runs this workload: it
//! samples requests from [`TraceMix`] (or replays a [`RequestTrace`]) and
//! sizes weights and KV from [`ModelConfig`]. The analysis layer and the
//! examples cost decode iterations with [`DecodeEngine`].

pub mod access;
pub mod engine;
pub mod model;
pub mod replay;
pub mod sessions;
pub mod traces;

pub use access::DataClass;
pub use engine::{BatchTokenCost, DecodeEngine, TokenCost};
pub use model::{ModelConfig, Quantization};
pub use replay::{RequestTrace, TraceEntry};
pub use traces::{RequestSampler, TraceKind, TraceMix};
