//! # `mrm-controller` — memory controllers across the retention spectrum
//!
//! §3 of the MRM paper frames housekeeping as the tax of mismatched
//! retention: "DRAM's retention is too short, requiring frequent refreshes.
//! Flash retention is too long, which is achieved at the expense of
//! endurance, requiring FTL mechanisms (wear levelling, garbage
//! collection)." §4 then proposes what replaces them: a **lightweight
//! block-level MRM controller** whose refresh and wear-levelling are "left
//! up to a software control plane higher up in the stack", and **Dynamically
//! Configurable Memory** where retention is programmed per write.
//!
//! One module per point on that spectrum:
//!
//! * [`dram`] — DRAM/HBM controller with bank scheduling and mandatory
//!   periodic refresh (the short-retention tax, measurable in both energy
//!   and stolen bandwidth).
//! * [`ftl`] — a Flash translation layer with page mapping, garbage
//!   collection and wear levelling (the long-retention tax: write
//!   amplification).
//! * [`mrm_block`] — the paper's proposed zoned, append-oriented MRM
//!   controller with a retention-deadline registry and no device-side
//!   housekeeping.
//! * [`dcm`] — per-write programmable retention on top of the block
//!   controller.

pub mod dcm;
pub mod dram;
pub mod ftl;
pub mod mrm_block;

pub use dcm::{DcmController, RetentionClass};
pub use dram::DramController;
pub use ftl::{Ftl, FtlConfig, WearLeveling};
pub use mrm_block::{CheckedRead, MrmBlockController, ZoneId, ZoneState};
