//! # `mrm-sim` — discrete-event simulation kernel
//!
//! The substrate under every other crate in the `mrm` workspace: a
//! deterministic discrete-event simulation core with nanosecond-resolution
//! virtual time, a splittable pseudo-random number generator, the probability
//! distributions used by the workload generators, and streaming statistics.
//!
//! Design goals:
//!
//! * **Determinism.** Given the same seed, every simulation in the workspace
//!   produces bit-identical results. The event queue breaks timestamp ties by
//!   insertion sequence, and the RNG supports stream splitting so concurrent
//!   components draw from independent substreams whose contents do not depend
//!   on interleaving.
//! * **No global state.** Everything is a value handed to the component that
//!   needs it.
//! * **No heavyweight dependencies.** The kernel implements its own RNG and
//!   distributions so simulation results cannot silently change when an
//!   external crate revs its algorithms.
//!
//! # Examples
//!
//! ```
//! use mrm_sim::event::EventQueue;
//! use mrm_sim::time::{SimDuration, SimTime};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(3), "late");
//! q.schedule(SimTime::ZERO + SimDuration::from_micros(1), "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "early");
//! assert_eq!(t.as_micros(), 1);
//! ```

pub mod dist;
pub mod event;
pub mod rng;
pub mod stats;
pub mod time;
pub mod units;

pub use dist::{Distribution, Empirical, Exponential, LogNormal, Zipf};
pub use event::{EventQueue, LegacyHeapQueue};
pub use rng::SimRng;
pub use stats::{LogHistogram, StreamingStats};
pub use time::{SimDuration, SimTime};

#[cfg(test)]
mod proptests;
