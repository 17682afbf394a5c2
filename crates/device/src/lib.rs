//! # `mrm-device` — memory cell physics and device models
//!
//! Models the memory-technology landscape the MRM paper reasons about
//! (HotOS'25, "Storage Class Memory is Dead, All Hail Managed-Retention
//! Memory"): DRAM in its HBM/LPDDR forms, NAND/NOR Flash, and the resistive
//! technologies originally proposed for Storage Class Memory — PCM, RRAM and
//! STT-MRAM — plus the paper's proposed **Managed-Retention Memory** design
//! points derived from them.
//!
//! The central idea of the paper is encoded in [`cell::RetentionTradeoff`]:
//! at the cell level, *retention time is a continuum*, and demanding ten-year
//! retention (as SCM did) costs write energy, write latency, and endurance.
//! Relaxing retention to hours or days — matching the lifetime of inference
//! data — recovers those metrics. Everything else in the workspace (the
//! controllers, the tiering control plane, the Figure-1 endurance analysis)
//! consumes the curves and datasheet parameters defined here.
//!
//! Module map:
//!
//! * [`cell`] — retention / write-energy / endurance / error-rate physics.
//! * [`tech`] — the technology database ([`tech::Technology`]) with presets
//!   for every technology the paper cites, product and potential variants.
//! * [`geometry`] — channels / banks / rows / pages / stacked layers.
//! * [`energy`] — the energy ledger devices and tiers share.
//! * [`bank`] — the timed bank state machine used by controllers.
//! * [`hbm`] — HBM stack capacity/yield/refresh modelling (§2.1 claims).
//! * [`mlc`] — multi-level-cell variants (§3's density upside \[10\]).
//! * [`crossbar`] — transistor-less crossbar constraints (§3 / \[56\]).
//! * [`device`] — a generic timed, energy-metered, wear-tracked device.

pub mod bank;
pub mod cell;
pub mod crossbar;
pub mod device;
pub mod energy;
pub mod geometry;
pub mod hbm;
pub mod mlc;
pub mod tech;

pub use cell::{CellFamily, RetentionTradeoff, WearState};
pub use device::{DeviceError, MemoryDevice, OpKind};
pub use energy::{EnergyBreakdown, EnergyLedger};
pub use geometry::DeviceGeometry;
pub use mlc::{apply_mlc, CellLevels};
pub use tech::{Maturity, TechFamily, Technology};
