//! # `mrm-telemetry` — sim-time-aware metrics
//!
//! The paper's argument turns on *housekeeping* — DRAM refresh, flash GC,
//! MRM scrubbing, tier migration — and housekeeping is invisible in an
//! end-of-run report struct. This crate makes it visible as time series:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and
//!   `LogHistogram`-backed histograms, updated by name. Plain `u64`/`f64`
//!   slots, no locks — cheap enough for the hot path of a single-threaded
//!   simulation loop.
//! - [`SimTelemetry`]: the one sink every instrumented component publishes
//!   into — a registry snapshotted at a fixed sim-time interval (stamped
//!   in [`SimTime`](mrm_sim::time::SimTime), never wall-clock). Code that
//!   can run without telemetry takes an `Option<&mut SimTelemetry>`.
//! - [`export::jsonl_tagged`]: the JSONL time-series exporter, one tagged
//!   object per snapshot.
//!
//! Individual decisions are not recorded here: the control plane's audit
//! log (`mrm-control`) is their one record, and causal spans live in
//! `mrm-obs`.
//!
//! ## Determinism contract
//!
//! Telemetry must never perturb a simulation: the sink never draws
//! from `SimRng`, never schedules simulator events, and timestamps snapshots
//! at exact interval boundaries (`k * interval`) regardless of when the
//! host loop gets around to pumping them. A run with a [`SimTelemetry`]
//! sink attached produces bit-identical results to one without — the
//! cluster integration tests enforce this.

pub mod export;
pub mod registry;
pub mod sink;

pub use registry::{HistogramSummary, MetricsRegistry, Snapshot};
pub use sink::SimTelemetry;
