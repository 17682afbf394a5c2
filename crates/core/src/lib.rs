//! # `mrm-core` — the range allocator under every memory tier
//!
//! [`pool::Pool`] is a first-fit, coalescing range allocator over one
//! [`mrm_device::MemoryDevice`]. The tiering control plane composes one
//! pool per tier (HBM, MRM, LPDDR) and forwards timed, retention-hinted
//! reads and writes through it to the device. Free ranges live in an
//! address-keyed treap (`FreeTree`) and live allocations in a deterministic
//! open-addressing index (`LiveMap`), so allocation and free are O(log n)
//! while staying byte-identical to the flat-`Vec` first-fit allocator kept
//! as [`pool::LegacyVecPool`] (the oracle for the property tests, the
//! `pool` fuzz target and the `perf_suite` pool-churn scenario).
//!
//! The zoned MRM device interface itself (append-only zones, per-write
//! retention, the deadline registry and checked reads through the fault
//! model) lives in `mrm-controller`.

pub mod pool;

pub use pool::{Allocation, Pool, PoolError};
