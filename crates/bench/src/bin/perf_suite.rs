//! **perf_suite** — an oracle-differential micro benchmark for the event
//! queue.
//!
//! The scenario races the calendar [`EventQueue`] against the retained
//! [`LegacyHeapQueue`] oracle it replaced, on one pinned input, asserts
//! that both produce identical output, and writes the timings to
//! `BENCH_events.json` in the current directory. The speedup comes from
//! interleaved reps ([`time_pair`]): the two sides alternate within one
//! loop, so they share allocator, cache and scheduler conditions, and the
//! ratio is the median of the per-rep ratios.
//!
//! Whole-run throughput of the simulator (events/s, simulated seconds per
//! wall second, observation overhead) is measured by the standalone
//! `simbench` package instead; see `simbench/NOTES.md`.
//!
//! Scenario:
//!
//! * `event_churn` — a dense refresh+expiry event trace through both
//!   queues; identical pop-sequence checksums are asserted, and the
//!   calendar queue carries a `floor` on `speedup_vs_heap`.
//!
//! `--quick` shrinks the workload and rep count for CI smoke runs; the
//! JSON schema (scenario keys and fields) is identical in both modes.
//! The acceptance floor is *asserted* only in full runs — quick mode is a
//! smoke test on shared CI runners where wall-clock ratios are noise.
//!
//! Wall-clock timing is deliberately confined to this crate: the root
//! `clippy.toml` bars the simulation crates from `std::time::Instant`.

use std::time::Instant;

use mrm_bench::{heading, note};
use mrm_sim::event::{EventQueue, LegacyHeapQueue};
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use serde::Serialize;

/// Wall-clock stats for one side of a scenario, all in nanoseconds.
#[derive(Clone, Copy, Debug, Serialize)]
struct Timing {
    median_ns: u64,
    min_ns: u64,
    max_ns: u64,
    reps: u32,
}

/// Folds raw per-rep samples into a [`Timing`].
fn timing_from(mut samples: Vec<u64>) -> Timing {
    let reps = samples.len() as u32;
    samples.sort_unstable();
    Timing {
        median_ns: samples[samples.len() / 2],
        min_ns: samples[0],
        max_ns: samples[samples.len() - 1],
        reps,
    }
}

/// Interleaved timings of an optimized side `a` and its oracle `b`.
struct Pair<RA, RB> {
    a: Timing,
    b: Timing,
    /// Median over reps of `b`'s time over `a`'s time in the same rep:
    /// > 1 means `a` is faster.
    speedup: f64,
    /// Each side's result from its last rep, for the caller's checksum.
    a_out: RA,
    b_out: RB,
}

/// Times `a` against `b` in interleaved reps: one untimed warm-up of each,
/// then `reps` rounds that run both back to back, alternating which goes
/// first so neither always inherits the other's cache state. The speedup
/// is the median of the per-round ratios, so a noisy round moves both of
/// its samples together instead of skewing one side alone.
fn time_pair<RA, RB>(
    reps: u32,
    mut a: impl FnMut() -> RA,
    mut b: impl FnMut() -> RB,
) -> Pair<RA, RB> {
    assert!(reps >= 1, "time_pair needs at least one rep");
    let mut a_out = std::hint::black_box(a());
    let mut b_out = std::hint::black_box(b());
    let mut a_ns = Vec::with_capacity(reps as usize);
    let mut b_ns = Vec::with_capacity(reps as usize);
    for rep in 0..reps {
        if rep % 2 == 0 {
            a_out = timed(&mut a, &mut a_ns);
            b_out = timed(&mut b, &mut b_ns);
        } else {
            b_out = timed(&mut b, &mut b_ns);
            a_out = timed(&mut a, &mut a_ns);
        }
    }
    let mut ratios: Vec<f64> = a_ns
        .iter()
        .zip(&b_ns)
        .map(|(&a, &b)| b as f64 / a.max(1) as f64)
        .collect();
    ratios.sort_by(f64::total_cmp);
    Pair {
        speedup: ratios[ratios.len() / 2],
        a: timing_from(a_ns),
        b: timing_from(b_ns),
        a_out,
        b_out,
    }
}

/// Runs `f` once, appends its wall time to `samples`, and returns its
/// result through `black_box` so the work cannot be elided.
fn timed<R>(f: &mut impl FnMut() -> R, samples: &mut Vec<u64>) -> R {
    let t0 = Instant::now();
    let r = f();
    samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
    std::hint::black_box(r)
}

fn ms(t_ns: u64) -> f64 {
    t_ns as f64 / 1e6
}

// ---------------------------------------------------------------------------
// event_churn
// ---------------------------------------------------------------------------

/// The simulator's steady-state queue shape, replayed against a queue
/// implementation: a dense population of near-future refresh events where
/// every pop reschedules, salted with far-future expiry events (the
/// calendar's overflow ladder) and same-instant FIFO bursts. RNG draws
/// happen in pop order, so two implementations with the identical
/// `(time, seq)` contract replay the identical trace — the checksum folds
/// every popped `(time, payload)` pair and must match exactly.
macro_rules! run_event_churn {
    ($Q:ty, $initial:expr, $pops:expr, $seed:expr) => {{
        let mut q: $Q = <$Q>::with_capacity($initial);
        let mut rng = SimRng::seed_from($seed);
        let mut payload = 0u64;
        for _ in 0..$initial {
            q.schedule(SimTime::from_nanos(rng.gen_range_u64(1_000_000)), payload);
            payload += 1;
        }
        let mut checksum = 0u64;
        for _ in 0..$pops {
            let Some((t, e)) = q.pop() else { break };
            checksum = checksum
                .wrapping_mul(0x100_0000_01b3)
                .wrapping_add(t.as_nanos())
                .wrapping_add(e);
            // One draw per pop decides everything, so the fixed loop cost
            // stays small relative to the queue operations under test.
            let r = rng.next_u64();
            // Refresh: the popped context reschedules into the near future.
            let d = 1 + (r >> 16) % 50_000;
            q.schedule(t + SimDuration::from_nanos(d), payload);
            payload += 1;
            let pct = r % 100;
            if pct < 2 {
                // Expiry: an occasional cache deadline far past the window.
                q.schedule(t + SimDuration::from_secs(600), payload);
                payload += 1;
            } else if pct < 3 {
                // Same-instant FIFO burst (batch completions).
                for _ in 0..8 {
                    q.schedule(t, payload);
                    payload += 1;
                }
            }
        }
        checksum.wrapping_add(q.len() as u64)
    }};
}

#[derive(Serialize)]
struct EventChurnResult {
    initial_events: usize,
    pops: usize,
    calendar: Timing,
    legacy_heap: Timing,
    /// Median per-rep heap time over calendar time: > 1 means the calendar
    /// queue is faster on the dense trace.
    speedup_vs_heap: f64,
    /// Acceptance floor on `speedup_vs_heap`, asserted in full runs.
    floor: f64,
}

fn bench_event_churn(quick: bool) -> EventChurnResult {
    // Full scale carries a cluster-sized pending set: the heap pays its
    // O(log n) comparisons and cache misses there, the calendar does not.
    let (initial, pops, reps) = if quick {
        (16_384usize, 50_000usize, 3)
    } else {
        (65_536, 500_000, 15)
    };
    let seed = 0xE7E7u64;
    let p = time_pair(
        reps,
        || run_event_churn!(EventQueue<u64>, initial, pops, seed),
        || run_event_churn!(LegacyHeapQueue<u64>, initial, pops, seed),
    );
    assert_eq!(
        p.a_out, p.b_out,
        "queues diverged: the (time, seq) pop contract must be identical"
    );
    let speedup = p.speedup;
    // The lowest ratio of ten 5-rep full runs on a shared 2-vCPU host:
    // the calendar side runs bimodally (~41 or ~61 ms), and its slow mode
    // measured as low as 1.93x. One 5-rep run in 15 later read 1.86x, so
    // full runs take 15 reps: a slow stretch moves their median less.
    let floor = 1.9;
    note(&format!(
        "event_churn: {initial} initial / {pops} pops — calendar {:.2} ms, heap {:.2} ms ({speedup:.1}x, floor {floor}x)",
        ms(p.a.median_ns),
        ms(p.b.median_ns),
    ));
    if !quick {
        assert!(
            speedup >= floor,
            "event_churn regression: calendar {speedup:.2}x vs heap is below the {floor}x floor"
        );
    }
    EventChurnResult {
        initial_events: initial,
        pops,
        calendar: p.a,
        legacy_heap: p.b,
        speedup_vs_heap: speedup,
        floor,
    }
}

// ---------------------------------------------------------------------------
// output records
// ---------------------------------------------------------------------------

#[derive(Serialize)]
struct EventsBench {
    suite: &'static str,
    quick: bool,
    scenarios: EventsScenarios,
}

#[derive(Serialize)]
struct EventsScenarios {
    event_churn: EventChurnResult,
}

fn write_record<T: Serialize>(path: &str, record: &T) {
    match serde_json::to_string_pretty(record) {
        Ok(json) => match std::fs::write(path, json + "\n") {
            Ok(()) => note(&format!("[saved {path}]")),
            Err(e) => {
                mrm_bench::warn(&format!("cannot write {path}: {e}"));
                std::process::exit(1);
            }
        },
        Err(e) => {
            mrm_bench::warn(&format!("cannot serialize {path}: {e}"));
            std::process::exit(1);
        }
    }
}

fn main() {
    let quick = std::env::args().skip(1).any(|a| a == "--quick");
    heading(&format!(
        "perf_suite — oracle-differential micro benchmark{}",
        if quick { " (--quick)" } else { "" }
    ));
    if cfg!(debug_assertions) {
        mrm_bench::warn("running unoptimized: use --release for meaningful numbers");
    }

    let events = EventsBench {
        suite: "events",
        quick,
        scenarios: EventsScenarios {
            event_churn: bench_event_churn(quick),
        },
    };
    write_record("BENCH_events.json", &events);
}
