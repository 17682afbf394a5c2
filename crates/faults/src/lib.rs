//! `mrm-faults`: deterministic fault injection for the MRM simulator.
//!
//! MRM's core bet (PAPER.md §4) is memory that is *allowed* to fail in
//! managed ways: retention is relaxed to data lifetime and the residual
//! raw bit errors are absorbed by retention-aware ECC, scrubbing, and
//! placement. This crate supplies the failure half of that loop:
//!
//! * [`FaultModel`] maps a device operating point (its raw bit error rate
//!   from the `mrm-device` age/wear curves) to outcome counts sampled from
//!   their binomial laws, and pushes uncorrectable candidates through the
//!   real `mrm-ecc` BCH decoder to split detected from miscorrected;
//! * [`FaultRng`] is the dedicated randomness stream those samples come
//!   from — never the scheduling stream (the crate's `clippy.toml` bans
//!   `SimRng` outside `rng.rs`), so the same seed flips the same bits at
//!   any thread count;
//! * [`FaultStats`] accumulates the taxonomy for telemetry;
//! * [`RecoveryAction`] names what the controller recovery state machines
//!   (retry → scrub escalation → retirement, in `mrm-controller`) did.

pub mod model;
pub mod rng;
pub mod stats;

pub use model::{FaultConfig, FaultModel, ReadFaults, RecoveryAction};
pub use rng::FaultRng;
pub use stats::FaultStats;
