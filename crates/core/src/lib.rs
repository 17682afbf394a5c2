//! # `mrm-core` — the range allocator under every memory tier
//!
//! [`pool::Pool`] is a first-fit, coalescing range allocator over a fixed
//! capacity. The tiering control plane composes one pool per tier (HBM,
//! MRM, LPDDR) and places weights and KV contexts through it. Free ranges
//! and live allocations are two address-sorted `Vec`s, sized for the few
//! hundred live allocations a tier actually holds; the `pool` fuzz target
//! checks it against a model computed from the live set alone.
//!
//! The zoned MRM device interface itself (append-only zones, per-write
//! retention, the deadline registry and checked reads through the fault
//! model) lives in `mrm-controller`.

pub mod pool;

pub use pool::{Allocation, Pool, PoolError};
