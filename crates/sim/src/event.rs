//! Deterministic event queue and simulation driver.
//!
//! [`EventQueue`] is a priority queue of `(SimTime, E)` pairs ordered by time
//! with FIFO tie-breaking, so two events scheduled for the same instant pop in
//! the order they were scheduled — a requirement for reproducible simulations.
//!
//! Higher layers own their event loop: they define an event enum, pop events,
//! and mutate their own state. This keeps borrow-checker friction low compared
//! with a callback-based kernel, and lets each simulation choose its own state
//! shape.
//!
//! # Calendar layout
//!
//! Internally the queue is a *calendar queue* (Brown 1988) specialized for
//! the dense near-future pattern refresh+expiry simulations generate:
//!
//! * Pending events within a sliding **window** live in day-width buckets;
//!   the width is sized from pending-event density at each window rebuild
//!   (`span / bucket_count`), so a steady-state simulation sees O(1) events
//!   per bucket and pays O(1) per schedule/pop instead of the heap's
//!   O(log n).
//! * Only the **current bucket** (the one holding the global minimum) is kept
//!   sorted, and it is sorted on demand — buckets further out absorb inserts
//!   as unordered pushes and pay one sort when the clock reaches them.
//! * Events past the window horizon fall into an **overflow ladder**: an
//!   unordered spill vector redistributed into a fresh window when the
//!   in-window buckets drain. Each rebuild sizes the bucket width from the
//!   spacing of the *nearest* events (a head-density probe), never from the
//!   full ladder span — a single far-future expiry must not stretch the
//!   buckets until the near cluster collapses into one (the classic
//!   calendar-queue bimodal pathology, which turns every near-future insert
//!   into an O(bucket) sorted insert). Events past the density-derived
//!   horizon simply stay in the ladder for a later rebuild; they are
//!   re-scanned once per rebuild, and rebuilds are spaced a whole window
//!   apart, so the ladder stays O(1) amortized per event in steady state.
//!
//! The pop order is exactly the `(time, seq)` order of the retained
//! [`LegacyHeapQueue`]: buckets partition time into disjoint ascending
//! ranges, the overflow ladder holds only times at or past the window
//! horizon, and within a bucket entries are ordered by `(time, seq)` — so
//! the FIFO tie contract (equal times pop in schedule order) is preserved
//! structurally, not probabilistically. The differential suite in
//! `tests/queue_conformance.rs` replays random interleavings against the
//! heap oracle to keep it that way.
//!
//! # The `clear` contract
//!
//! [`EventQueue::clear`] (and its oracle twin) drops pending events but the
//! clock **and** the FIFO sequence counter survive: events scheduled after a
//! clear still tie-break after anything scheduled before it, and `now()`
//! never rewinds. Simulations use `clear` to cancel a phase, not to reset
//! the world.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A pending event: ordering key is `(time, seq)` — earliest first, then FIFO.
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top. Calendar buckets reuse the same order: an ascending sort puts
        // the earliest `(time, seq)` at the *back*, where `Vec::pop` is O(1).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Bucket-count bounds for the calendar window. The floor keeps width
/// arithmetic trivially overflow-free; the ceiling bounds empty-bucket scans
/// and resident memory for million-event simulations.
const MIN_BUCKETS: usize = 16;
const MAX_BUCKETS: usize = 1 << 16;

/// Number of nearest events sampled to estimate head density at a window
/// rebuild. Small enough that the probe (one `select_nth` partition) is
/// cheap, large enough to smooth over same-instant bursts.
const PROBE_EVENTS: usize = 64;

/// Target events per bucket when sizing width from the head-density probe.
/// A few events per bucket beats exactly one: the per-bucket costs (header
/// load, empty-bucket skip, one `sort_unstable` call) amortize over the
/// bucket's population, while sorting a handful of elements stays trivial.
const EVENTS_PER_BUCKET: u64 = 8;

/// Bucket population that triggers a re-window: a bucket this dense means
/// the current width no longer matches the live distribution (the
/// bootstrap window built from the very first scheduled event is the
/// common case), so sorted inserts into it would degrade into O(bucket)
/// memmoves. Single-instant FIFO clumps are exempt — no width can split
/// them, and they drain in O(1) pops anyway.
const SPLIT_THRESHOLD: usize = 64;

/// A deterministic time-ordered event queue (calendar-bucketed; see the
/// module docs for the layout and the [`LegacyHeapQueue`] oracle).
///
/// # Examples
///
/// ```
/// use mrm_sim::event::EventQueue;
/// use mrm_sim::time::SimTime;
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick, Tock }
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_nanos(10), Ev::Tock);
/// q.schedule(SimTime::from_nanos(10), Ev::Tick); // same instant: FIFO
/// q.schedule(SimTime::from_nanos(5), Ev::Tick);
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(5), Ev::Tick));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(10), Ev::Tock));
/// assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(10), Ev::Tick));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    /// Window buckets: bucket `i` covers absolute nanoseconds
    /// `[win_start + i·width, win_start + (i+1)·width)`. Disjoint ascending
    /// ranges make cross-bucket order structural.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Index of the first possibly-nonempty bucket; when `len > 0` it is
    /// exactly the bucket holding the global minimum.
    cur: usize,
    /// Whether `buckets[cur]` is currently sorted (ascending in the reversed
    /// [`Scheduled`] order, i.e. earliest `(time, seq)` at the back).
    cur_sorted: bool,
    /// Window base, absolute nanoseconds.
    win_start: u64,
    /// Bucket width in nanoseconds — always a power of two (`1 << shift`),
    /// so the bucket index of a timestamp is a shift, not a division.
    width: u64,
    /// `width.trailing_zeros()`, cached for the `schedule` hot path.
    shift: u32,
    /// Overflow ladder: events at or past the window horizon, unordered.
    far: Vec<Scheduled<E>>,
    /// Total pending events (window + ladder).
    len: usize,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: Vec::new(),
            cur: 0,
            cur_sorted: false,
            win_start: 0,
            width: 1,
            shift: 0,
            far: Vec::new(),
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue pre-sized for about `n` pending events, so
    /// steady-state simulations never reallocate mid-run. Purely a
    /// wall-clock hint: behaviour is identical to [`EventQueue::new`].
    pub fn with_capacity(n: usize) -> Self {
        let mut q = EventQueue::new();
        q.far = Vec::with_capacity(n);
        q
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.far.reserve(additional);
    }

    /// The current simulation time: the timestamp of the last popped event,
    /// or [`SimTime::ZERO`] before any event has been popped.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error in the caller; the queue
    /// tolerates it (the event pops immediately) but debug builds assert.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled {
            time: at,
            seq,
            event,
        };
        // A past time (tolerated in release) clamps into bucket 0 territory:
        // it only ever *lowers* the index, keeping cross-bucket order intact.
        let idx = (at.as_nanos().saturating_sub(self.win_start) >> self.shift) as usize;
        if idx >= self.buckets.len() {
            self.far.push(s);
        } else if idx == self.cur && self.cur_sorted {
            // A dense current bucket means the width no longer matches the
            // live distribution: re-window instead of paying an O(bucket)
            // sorted insert — unless the bucket is a single-instant FIFO
            // clump (`first == last == s`) that no width can split.
            let b = &mut self.buckets[idx];
            let splittable = b
                .first()
                .zip(b.last())
                .is_some_and(|(f, l)| f.time != l.time || f.time != s.time);
            if b.len() >= SPLIT_THRESHOLD && splittable {
                self.far.push(s);
                self.len += 1;
                self.rewindow();
                self.normalize();
                return;
            }
            // Mid-drain insert into the current bucket. `seq` is the largest
            // ever issued, so every resident entry at or before `at` pops
            // first (FIFO ties). Scan back from the pop end past those few
            // entries instead of searching the whole bucket.
            let mut pos = b.len();
            while pos > 0 && b[pos - 1].time <= at {
                pos -= 1;
            }
            b.insert(pos, s);
        } else {
            if idx < self.cur {
                // Earlier empty bucket (only reachable when `at` precedes the
                // current bucket's range): it becomes the current bucket, and
                // one element is trivially sorted.
                debug_assert!(self.buckets[idx].is_empty());
                self.cur = idx;
                self.cur_sorted = true;
            }
            self.buckets[idx].push(s);
        }
        self.len += 1;
        // When events were already pending, every arm above preserves the
        // queue invariant (the current bucket stays nonempty and sorted):
        // ladder and later-bucket pushes don't touch it, current-bucket
        // inserts keep it sorted, earlier-bucket pushes re-point `cur` at a
        // trivially sorted singleton. Only the empty→nonempty transition
        // (where `cur` may be stale) needs a normalize.
        if self.len == 1 {
            self.normalize();
        }
    }

    /// Schedules `event` `delay` after the current simulation time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let s = self.buckets[self.cur].pop().expect("normalized queue");
        self.len -= 1;
        debug_assert!(s.time >= self.now, "time went backwards");
        self.now = s.time;
        self.normalize();
        Some((s.time, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // `normalize` runs after every mutation, so the current bucket is
        // sorted with the global minimum at its back.
        Some(
            self.buckets[self.cur]
                .last()
                .expect("normalized queue")
                .time,
        )
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops all pending events without advancing the clock. The clock and
    /// the FIFO sequence counter survive (see the module docs).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.far.clear();
        self.cur = self.buckets.len();
        self.cur_sorted = false;
        self.len = 0;
    }

    /// Restores the queue invariant after a mutation: when events are
    /// pending, `buckets[cur]` is the nonempty bucket holding the global
    /// minimum and it is sorted. Rebuilds the window from the overflow
    /// ladder when the in-window buckets have drained.
    fn normalize(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            while self.cur < self.buckets.len() {
                if self.buckets[self.cur].is_empty() {
                    self.cur += 1;
                    self.cur_sorted = false;
                    continue;
                }
                if !self.cur_sorted {
                    // An overloaded multi-instant bucket gets re-windowed
                    // at head density rather than sorted wholesale. This
                    // terminates: a rebuild puts the bucket's events at
                    // the window front with a width derived from their own
                    // spacing, and a width-1 window separates every
                    // distinct instant, leaving only unsplittable
                    // single-instant clumps.
                    let b = &self.buckets[self.cur];
                    if b.len() >= SPLIT_THRESHOLD {
                        let t0 = b[0].time;
                        if b.iter().any(|x| x.time != t0) {
                            self.rewindow();
                            continue;
                        }
                    }
                    self.buckets[self.cur].sort_unstable();
                    self.cur_sorted = true;
                }
                return;
            }
            debug_assert!(!self.far.is_empty(), "len > 0 but nothing pending");
            self.rebuild_window(u64::MAX);
        }
    }

    /// Dumps every in-window event back into the overflow ladder and
    /// re-windows from live density (see [`SPLIT_THRESHOLD`]). The new
    /// width is forced to at most half the current one: the density probe
    /// alone may land on the same width when the overloaded bucket is a
    /// few-nanosecond cluster, and halving guarantees the re-split makes
    /// progress (at width 1, every distinct instant gets its own bucket).
    fn rewindow(&mut self) {
        for i in self.cur..self.buckets.len() {
            let mut b = std::mem::take(&mut self.buckets[i]);
            self.far.append(&mut b);
            self.buckets[i] = b;
        }
        self.rebuild_window((self.width / 2).max(1));
    }

    /// Re-bases the window on the overflow ladder. Bucket width follows the
    /// spacing of the `PROBE_EVENTS` *nearest* events, so a far-future tail
    /// cannot stretch the buckets and collapse the near cluster into one;
    /// `max_width` additionally caps it (see [`EventQueue::rewindow`] —
    /// ordinary drained-window rebuilds pass `u64::MAX`). Events past the
    /// resulting horizon stay in the ladder.
    fn rebuild_window(&mut self, max_width: u64) {
        let mut spill = std::mem::take(&mut self.far);
        let count = spill
            .len()
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        // Partition the `probe` nearest events to the front. The partition
        // order is irrelevant for determinism: bucket membership depends
        // only on timestamps, and buckets are sorted by `(time, seq)`
        // before popping.
        let probe = spill.len().min(PROBE_EVENTS);
        if probe < spill.len() {
            spill.select_nth_unstable_by_key(probe - 1, |s| (s.time, s.seq));
        }
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for s in &spill[..probe] {
            lo = lo.min(s.time.as_nanos());
            hi = hi.max(s.time.as_nanos());
        }
        // ≈[`EVENTS_PER_BUCKET`] events per bucket at head density; the
        // `+ 1` keeps the width nonzero, so the nearest probed event (at
        // `lo`) always lands inside the window and the rebuilt window is
        // never empty. Rounded up to a power of two so bucket indexing is
        // a shift; `max_width` (itself always a power of two) still caps it.
        let raw = ((hi - lo) / probe as u64 + 1).saturating_mul(EVENTS_PER_BUCKET);
        let shift = if raw >= 1 << 63 {
            63
        } else {
            raw.next_power_of_two().trailing_zeros()
        };
        self.shift = shift.min(63 - max_width.leading_zeros());
        self.width = 1 << self.shift;
        self.win_start = lo;
        self.buckets.resize_with(count, Vec::new);
        for s in spill {
            // Placement by bucket index, not by a `t < horizon` comparison:
            // near the u64 horizon `win_start + width * count` saturates,
            // and an event at exactly `SimTime::MAX` would compare ≥ the
            // saturated horizon forever — respilling into the ladder on
            // every rebuild and livelocking `normalize`. The index form is
            // the same predicate without the overflow (every spilled time
            // is ≥ `win_start`, the probed minimum, so the subtraction is
            // exact).
            let t = s.time.as_nanos();
            let idx = ((t - self.win_start) >> self.shift) as usize;
            if idx < count {
                self.buckets[idx].push(s);
            } else {
                self.far.push(s);
            }
        }
        self.cur = 0;
        self.cur_sorted = false;
    }
}

/// The pre-calendar binary-heap event queue, retained verbatim as the
/// differential oracle: same API, same `(time, seq)` contract, O(log n)
/// operations. `perf_suite`'s `event_churn` scenario and the conformance
/// tests run both queues against identical traces.
pub struct LegacyHeapQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E> Default for LegacyHeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LegacyHeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        LegacyHeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Creates an empty queue pre-sized for about `n` pending events.
    pub fn with_capacity(n: usize) -> Self {
        LegacyHeapQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Reserves room for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling event in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` `delay` after the current simulation time.
    pub fn schedule_after(&mut self, delay: crate::time::SimDuration, event: E) {
        let at = self.now.saturating_add(delay);
        self.schedule(at, event);
    }

    /// Removes and returns the earliest event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.time >= self.now, "time went backwards");
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// The timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drops all pending events; the clock and sequence counter survive.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3u32);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        for i in 0..1000u32 {
            q.schedule(t, i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "a");
        q.pop();
        q.schedule_after(SimDuration::from_secs(2), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(3));
    }

    #[test]
    fn with_capacity_matches_new() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(1024);
        for i in 0..100u32 {
            let t = SimTime::from_nanos(u64::from(i % 7));
            a.schedule(t, i);
            b.schedule(t, i);
        }
        b.reserve(4096);
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y, "capacity hints must not change pop order");
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_len_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.peek_time().is_none());
        q.schedule(SimTime::from_nanos(7), ());
        q.schedule(SimTime::from_nanos(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_is_deterministic() {
        // Two identical runs produce identical sequences.
        let run = || {
            let mut q = EventQueue::new();
            let mut out = Vec::new();
            q.schedule(SimTime::from_nanos(1), 0u64);
            let mut k = 1u64;
            while let Some((t, e)) = q.pop() {
                out.push((t, e));
                if k < 50 {
                    q.schedule(t + SimDuration::from_nanos(k % 3), k);
                    q.schedule(t + SimDuration::from_nanos(k % 5), k + 100);
                    k += 1;
                }
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn far_future_events_cross_window_rebuilds() {
        // Force repeated window rebuilds: each popped event schedules one
        // far past the current horizon, and a dense burst near it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), 0u64);
        let mut next = 1u64;
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, e)) = q.pop() {
            assert!(t >= last, "time must be monotone");
            last = t;
            popped += 1;
            if next < 200 {
                // A day-scale jump (far beyond any density-derived window)
                // plus a pair of near events.
                q.schedule(t + SimDuration::from_secs(86_400), next);
                q.schedule(t + SimDuration::from_nanos(3), next + 1000);
                q.schedule(t + SimDuration::from_nanos(3), next + 2000);
                next += 1;
            }
            let _ = e;
        }
        assert_eq!(popped, 1 + 199 * 3);
    }

    #[test]
    fn mid_drain_insert_keeps_fifo_within_current_bucket() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(50);
        q.schedule(t, 0u32);
        q.schedule(t, 1);
        q.schedule(SimTime::from_nanos(40), 99);
        assert_eq!(q.pop().unwrap().1, 99);
        // The current bucket is mid-drain and sorted; same-instant inserts
        // must still pop after the earlier-scheduled ties.
        q.schedule(t, 2);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
    }

    #[test]
    fn legacy_heap_matches_calendar_on_a_burst() {
        let mut cal = EventQueue::new();
        let mut heap = LegacyHeapQueue::new();
        for i in 0..500u64 {
            let t = SimTime::from_nanos((i * 7919) % 97);
            cal.schedule(t, i);
            heap.schedule(t, i);
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.now(), heap.now());
    }
}
