//! **perf_suite** — oracle-differential micro benchmarks for two hot
//! structures.
//!
//! Each scenario races an optimized structure against the retained oracle
//! it replaced, on one pinned input, asserts that both produce identical
//! output, and writes the timings to `BENCH_pool.json` /
//! `BENCH_events.json` in the current directory. Every
//! speedup comes from interleaved reps ([`time_pair`]): the two sides
//! alternate within one loop, so they share allocator, cache and scheduler
//! conditions, and the ratio is the median of the per-rep ratios.
//!
//! Whole-run throughput of the simulator (events/s, simulated seconds per
//! wall second, observation overhead) is measured by the standalone
//! `simbench` package instead; see `simbench/NOTES.md`.
//!
//! Scenarios:
//!
//! * `pool_churn` — a deterministic alloc/free churn with ~10 k live
//!   allocations, run through both the tree-based [`Pool`] and the retained
//!   [`LegacyVecPool`] (the pre-optimization linear scan). Both see the
//!   identical op sequence and must produce the identical address stream —
//!   the checksum is asserted — so `speedup_vs_legacy` compares like for
//!   like.
//! * `event_churn` — a dense refresh+expiry event trace through the
//!   calendar [`EventQueue`] and the retained [`LegacyHeapQueue`] oracle;
//!   identical pop-sequence checksums are asserted, and the calendar
//!   queue carries a `floor` on `speedup_vs_heap`.
//!
//! `--quick` shrinks the workloads and rep counts for CI smoke runs; the
//! JSON schema (scenario keys and fields) is identical in both modes.
//! Acceptance floors are *asserted* only in full runs — quick mode is a
//! smoke test on shared CI runners where wall-clock ratios are noise.
//!
//! Wall-clock timing is deliberately confined to this crate: the simulation
//! crates are lint-barred from `std::time::Instant` (rule D1).

use std::time::Instant;

use mrm_bench::{heading, note};
use mrm_core::pool::{Allocation, LegacyVecPool, Pool};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_sim::event::{EventQueue, LegacyHeapQueue};
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_sim::units::{GIB, KIB, MIB};
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
// pool_churn
// ---------------------------------------------------------------------------

/// One churn op: either grow towards the live target or replace a
/// pseudo-random live allocation. The sequence is a pure function of the
/// seed, so both allocators replay the same trace.
#[derive(Clone, Copy)]
enum ChurnOp {
    Alloc { len: u64 },
    FreeAt { index: usize },
}

/// Trace generator that mirrors the replay loop's bookkeeping: the replay
/// keeps live allocations in a `Vec` and frees with `swap_remove(index)`,
/// so `FreeAt` indices are only meaningful against that exact Vec state —
/// the generator simulates the same swaps to target specific blocks.
struct TraceSim {
    ops: Vec<ChurnOp>,
    /// Replay-side live Vec, holding generator-assigned block ids.
    mirror: Vec<usize>,
    /// id -> current index in `mirror`.
    pos: Vec<usize>,
}

impl TraceSim {
    fn alloc(&mut self, len: u64) -> usize {
        let id = self.pos.len();
        self.pos.push(self.mirror.len());
        self.mirror.push(id);
        self.ops.push(ChurnOp::Alloc { len });
        id
    }

    fn free(&mut self, id: usize) {
        let index = self.pos[id];
        self.ops.push(ChurnOp::FreeAt { index });
        let last_id = *self.mirror.last().expect("free against empty mirror");
        self.mirror.swap_remove(index);
        if last_id != id {
            self.pos[last_id] = index;
        }
    }
}

/// Pre-computes the churn trace: a fragmentation phase, then `churn_ops`
/// free-one/alloc-one pairs at a stable `live_target` live count.
///
/// The fragmentation phase lays down a checkerboard: 4 KiB blocks filling
/// the low address space, every other one freed and the rest never touched
/// again, so each hole is flanked by permanently-live blocks and can never
/// coalesce. The churn phase then cycles a separate population of
/// geometric-sized blocks (1 MiB · 2^0..2^4 — the scale of real KV-cache
/// blocks, hundreds of tokens × ~160 KiB/token for a 70B model). Every
/// churn request dwarfs a 4 KiB hole, so a first-fit *scan* wades past the
/// whole speckle field on every alloc, while the max-len-augmented tree
/// descends straight to the first hole that fits. This is the allocator
/// pathology the tree exists to fix: long-lived small fragments in front
/// of a hot large-block churn.
fn churn_trace(live_target: usize, churn_ops: usize, seed: u64) -> Vec<ChurnOp> {
    let mut rng = SimRng::seed_from(seed);
    let frozen = live_target * 9 / 10;
    let churn_pool = live_target - frozen;
    let mut sim = TraceSim {
        ops: Vec::with_capacity(2 * frozen + frozen + churn_pool + churn_ops * 2),
        mirror: Vec::new(),
        pos: Vec::new(),
    };
    // Checkerboard: 2×frozen 4 KiB blocks, odd-indexed ones freed.
    let ids: Vec<usize> = (0..2 * frozen).map(|_| sim.alloc(4 * KIB)).collect();
    for id in ids.iter().skip(1).step_by(2) {
        sim.free(*id);
    }
    // Prime the churn population, then cycle it.
    let kv_len = |rng: &mut SimRng| MIB << rng.gen_range_u64(5);
    let mut churn_ids: Vec<usize> = (0..churn_pool)
        .map(|_| sim.alloc(kv_len(&mut rng)))
        .collect();
    for _ in 0..churn_ops {
        let j = rng.gen_range_u64(churn_ids.len() as u64) as usize;
        let id = churn_ids.swap_remove(j);
        sim.free(id);
        churn_ids.push(sim.alloc(kv_len(&mut rng)));
    }
    sim.ops
}

/// Replays the trace against the tree-based pool; returns an address
/// checksum (wrapping sum of every allocated address) and the end-state
/// free fragment count.
fn churn_tree(ops: &[ChurnOp], capacity: u64, hint: usize) -> (u64, usize) {
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = capacity;
    let mut pool = Pool::with_capacity_hint(MemoryDevice::new(tech), hint);
    let mut live: Vec<Allocation> = Vec::with_capacity(hint);
    let mut checksum = 0u64;
    for op in ops {
        match *op {
            ChurnOp::Alloc { len } => {
                let a = pool
                    .alloc(len)
                    .unwrap_or_else(|e| panic!("churn capacity sized wrong: {e}"));
                checksum = checksum.wrapping_add(a.addr);
                live.push(a);
            }
            ChurnOp::FreeAt { index } => {
                let a = live.swap_remove(index);
                pool.free(a)
                    .unwrap_or_else(|e| panic!("double free in churn trace: {e}"));
            }
        }
    }
    (checksum, pool.free_fragments())
}

/// Replays the identical trace against the retained linear-scan pool.
fn churn_legacy(ops: &[ChurnOp], capacity: u64) -> (u64, usize) {
    let mut pool = LegacyVecPool::new(capacity);
    let mut live: Vec<Allocation> = Vec::new();
    let mut checksum = 0u64;
    for op in ops {
        match *op {
            ChurnOp::Alloc { len } => {
                let a = pool
                    .alloc(len)
                    .unwrap_or_else(|e| panic!("churn capacity sized wrong: {e}"));
                checksum = checksum.wrapping_add(a.addr);
                live.push(a);
            }
            ChurnOp::FreeAt { index } => {
                let a = live.swap_remove(index);
                pool.free(a)
                    .unwrap_or_else(|e| panic!("double free in churn trace: {e}"));
            }
        }
    }
    (checksum, pool.free_fragments())
}

#[derive(Serialize)]
struct PoolChurnResult {
    live_allocations: usize,
    churn_ops: usize,
    /// Free fragments left when the trace ends — a determinism anchor for
    /// the trace itself (identical on both allocators by construction).
    end_fragments: usize,
    tree: Timing,
    legacy: Timing,
    /// Median per-rep legacy time over tree time: > 1 means the tree pool
    /// is faster.
    speedup_vs_legacy: f64,
}

fn bench_pool_churn(quick: bool) -> PoolChurnResult {
    let (live_target, churn_ops, reps) = if quick {
        (1_000, 5_000, 3)
    } else {
        (10_000, 50_000, 5)
    };
    // 10 k live geometric allocations average ~6.2 MiB (~61 GiB); 128 GiB
    // (simulated — nothing is actually mapped) leaves the pool uncrowded
    // so the trace never OOMs on either allocator even under
    // fragmentation.
    let capacity = 128 * GIB;
    let ops = churn_trace(live_target, churn_ops, 0x9E37_79B9);

    let p = time_pair(
        reps,
        || churn_tree(&ops, capacity, live_target),
        || churn_legacy(&ops, capacity),
    );
    assert_eq!(
        p.a_out, p.b_out,
        "allocators diverged: first-fit must be address-identical"
    );
    let end_fragments = p.a_out.1;
    note(&format!(
        "pool_churn: {live_target} live / {churn_ops} churn ops ({end_fragments} end fragments) — tree {:.2} ms, legacy {:.2} ms ({:.1}x)",
        ms(p.a.median_ns),
        ms(p.b.median_ns),
        p.speedup,
    ));
    PoolChurnResult {
        live_allocations: live_target,
        churn_ops,
        end_fragments,
        tree: p.a,
        legacy: p.b,
        speedup_vs_legacy: p.speedup,
    }
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
        (65_536, 500_000, 5)
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
    // The lowest ratio of ten full runs on a shared 2-vCPU host: the
    // calendar side runs bimodally (~41 or ~61 ms) from process to
    // process, and its slow mode measured as low as 1.93x.
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
struct PoolBench {
    suite: &'static str,
    quick: bool,
    scenarios: PoolScenarios,
}

#[derive(Serialize)]
struct PoolScenarios {
    pool_churn: PoolChurnResult,
}

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
        "perf_suite — oracle-differential micro benchmarks{}",
        if quick { " (--quick)" } else { "" }
    ));
    if cfg!(debug_assertions) {
        mrm_bench::warn("running unoptimized: use --release for meaningful numbers");
    }

    let pool = PoolBench {
        suite: "pool",
        quick,
        scenarios: PoolScenarios {
            pool_churn: bench_pool_churn(quick),
        },
    };
    write_record("BENCH_pool.json", &pool);

    let events = EventsBench {
        suite: "events",
        quick,
        scenarios: EventsScenarios {
            event_churn: bench_event_churn(quick),
        },
    };
    write_record("BENCH_events.json", &events);
}
