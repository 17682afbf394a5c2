//! `mrm-fuzz` — in-tree differential fuzzing for the mrm workspace.
//!
//! The workspace ships its oracles next to its optimised code: the
//! calendar queue retains [`mrm_sim::event::LegacyHeapQueue`], the pool
//! has a spec computed from its live set, the SECDED and BCH decoders
//! promise an exact error budget, the FTL and zone controller have plain-map models, and
//! the control plane's `AuditLog` index has a full walk of its stream. This
//! crate turns those one-shot conformance tests into a standing
//! adversary: a seeded structured-mutation engine drives open-ended op
//! traces through implementation and oracle side by side, shrinks any
//! divergence, and records it as a crash artifact that replays forever
//! from `(target, seed, iteration)` alone.
//!
//! No registry dependencies, no coverage instrumentation, no persisted
//! corpus: determinism is the design center, matching the rest of the
//! workspace (byte-identical reports across runs at the same seed).
//!
//! Layout:
//! - [`rng`] — splitmix64 stream + extreme-value mutation pool
//! - [`engine`] — `FuzzTarget` trait, input derivation, ddmin shrinking
//! - [`artifact`] — crash-artifact read/write
//! - [`targets`] — the five differential targets (ecc, pool, queue,
//!   chaos, control), each with a documented sabotage mode used by the
//!   harness's own end-to-end tests

pub mod artifact;
pub mod engine;
pub mod rng;
pub mod targets;
