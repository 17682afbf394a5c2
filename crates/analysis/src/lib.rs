//! # `mrm-analysis` — regenerating the paper's quantitative claims
//!
//! One module per piece of the paper's evaluation content:
//!
//! * [`endurance`] — **Figure 1**: workload endurance requirements (KV
//!   cache, weight updates) vs. product & potential endurance of every
//!   memory technology.
//! * [`footprint`] — §2: weights / KV-cache / activation memory footprints
//!   across the model zoo (T1).
//! * [`rwratio`] — §2.2: the >1000:1 read:write ratio (T2).
//! * [`energy`] — §2.1/§3: HBM energy share, refresh burn, and the
//!   housekeeping cost of mismatched retention (T3, E6).
//! * [`tco`] — §2.2/§3: HBM vs. HBM+LPDDR vs. HBM+MRM system comparison
//!   (T5).
//! * [`compression`] — §2.2: KV-compression sensitivity (A5).
//! * [`sensitivity`] — tornado perturbation of the Figure-1 inputs (A6).
//! * [`provisioning`] — §2.2: the over/under-provisioning scorecard of HBM
//!   against the actual workload requirements.
//! * [`report`] — aligned-text table rendering for the harness.

pub mod compression;
pub mod endurance;
pub mod energy;
pub mod footprint;
pub mod provisioning;
pub mod report;
pub mod rwratio;
pub mod sensitivity;
pub mod tco;

pub use endurance::{figure1, EnduranceRequirements, Figure1Row};
pub use report::Table;
