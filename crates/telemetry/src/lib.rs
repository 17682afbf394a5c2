//! # `mrm-telemetry` — sim-time-aware metrics and tracing
//!
//! The paper's argument turns on *housekeeping* — DRAM refresh, flash GC,
//! MRM scrubbing, tier migration — and housekeeping is invisible in an
//! end-of-run report struct. This crate makes it visible as time series:
//!
//! - [`MetricsRegistry`]: named counters, gauges, and
//!   `LogHistogram`-backed histograms behind small copyable handle types.
//!   Plain `u64`/`f64` slots, no locks — cheap enough for the hot path of a
//!   single-threaded simulation loop.
//! - [`TelemetryEvent`]: named point events timestamped with
//!   [`SimTime`](mrm_sim::time::SimTime) (never wall-clock), recorded into
//!   the existing [`mrm_sim::trace::Trace`] ring buffer. Causal spans live
//!   in `mrm-obs`.
//! - Exporters ([`export`]): JSONL time-series snapshots taken at a
//!   configurable sim-time interval, a Prometheus-style text dump, and CSV
//!   via [`TraceRecord`](mrm_sim::trace::TraceRecord).
//! - [`TelemetrySink`]: the instrumentation-facing trait. Every method has
//!   a no-op default and [`NullSink`] overrides nothing, so disabled
//!   instrumentation compiles down to empty inlinable calls.
//!
//! ## Determinism contract
//!
//! Telemetry must never perturb a simulation: implementations never draw
//! from `SimRng`, never schedule simulator events, and timestamp snapshots
//! at exact interval boundaries (`k * interval`) regardless of when the
//! host loop gets around to pumping them. A run with a [`SimTelemetry`]
//! sink attached produces bit-identical results to one with [`NullSink`] —
//! the cluster integration tests enforce this.

pub mod export;
pub mod registry;
pub mod sink;
pub mod span;

pub use registry::{CounterId, GaugeId, HistogramId, HistogramSummary, MetricsRegistry, Snapshot};
pub use sink::{NullSink, SimTelemetry, TelemetrySink};
pub use span::TelemetryEvent;
