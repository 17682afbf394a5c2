//! Deterministic causal spans: dense ids, per-track nesting, flow links.
//!
//! A [`CausalTracer`] records three shapes of span:
//!
//! * **slices** — [`CausalTracer::begin`]/[`CausalTracer::end`] pairs
//!   nested per track (one track per accelerator). The parent is the
//!   innermost slice open *on that track at begin time* and is captured
//!   immediately, so closing spans out of order — or dropping closed
//!   spans when the bounded ring wraps — can never corrupt parent/child
//!   attribution (the property suite drives arbitrary open/close
//!   sequences against an oracle).
//! * **instants** — zero-duration slices ([`CausalTracer::instant`]) for
//!   point decisions: admissions, work items, faults, drops. Instants
//!   carry a [`Detail`] with the audit sequence number returned by
//!   `ControlPlane::record`, which is the correlation key between a span
//!   and its audit record.
//! * **async spans** — [`CausalTracer::async_begin`]/[`async_end`]
//!   (keyed by kind + subject id, not by nesting) for lifecycles that
//!   outlive any one handler: a request from admission to completion, a
//!   parked KV prefix from store to retire.
//!
//! [`CausalTracer::link`] records a causal edge between two spans (e.g.
//! an audited recompute → the drop it authorizes); the exporter renders
//! these as Perfetto flow arrows.
//!
//! Ids are deterministic: the [`TraceId`] is a fixed mix of the run seed
//! and [`SpanId`]s are a dense per-trace counter — no entropy, so two
//! runs of the same seed produce byte-identical traces.
//!
//! [`async_end`]: CausalTracer::async_end

use std::collections::{HashMap, VecDeque};

use mrm_sim::time::SimTime;

/// Identifies one run's trace. Derived from the run seed by a fixed
/// splitmix64 finalizer — reproducible, entropy-free, and distinct
/// across seeds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Domain-separation salt so a trace id never equals the raw seed.
    const SALT: u64 = 0x0B5E_2BAD_CAFE_F00D;

    /// Derives the trace id for a run seed (splitmix64 finalizer).
    pub fn derive(seed: u64) -> Self {
        let mut z = seed ^ Self::SALT;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(z ^ (z >> 31))
    }
}

/// Dense per-trace span identifier: the n-th span recorded gets id `n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

/// The span taxonomy over the session/decision lifecycle (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Async: one request, admission → completion (subject = request id).
    Session,
    /// Async: one parked KV prefix, store → retire/drop (subject = ctx id).
    Prefix,
    /// Slice: one batched decode iteration on an accelerator.
    DecodeIter,
    /// Slice: one maintenance sweep (reconciler plan + work items).
    Maintenance,
    /// Instant: a request admitted into an accelerator queue.
    Admission,
    /// Instant: a placement decision (tier choice, KV alloc).
    Placement,
    /// Instant: first token produced for a session.
    FirstToken,
    /// Instant: a session completed and its tail retired.
    Completion,
    /// Instant: a refresh (scrub rewrite) work item.
    Refresh,
    /// Instant: a migrate work item.
    Migrate,
    /// Instant: an uncorrectable read survived by the fault ladder.
    Fault,
    /// Instant: an audited recovery (re-fetch or recompute).
    Recovery,
    /// Instant: a drop/reclaim decision.
    Drop,
    /// Instant: a memory-pressure eviction.
    Evict,
    /// Instant: a planned end of need (tail completed, prefix consumed).
    Retire,
    /// Instant: a scrub-verify failure escalated a block.
    Escalate,
    /// Instant: a weight set redeployed onto an accelerator.
    Redeploy,
}

impl SpanKind {
    /// Stable event name (Perfetto `name` field).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Prefix => "prefix",
            SpanKind::DecodeIter => "decode_iter",
            SpanKind::Maintenance => "maintenance",
            SpanKind::Admission => "admission",
            SpanKind::Placement => "placement",
            SpanKind::FirstToken => "first_token",
            SpanKind::Completion => "completion",
            SpanKind::Refresh => "refresh",
            SpanKind::Migrate => "migrate",
            SpanKind::Fault => "fault",
            SpanKind::Recovery => "recovery",
            SpanKind::Drop => "drop",
            SpanKind::Evict => "evict",
            SpanKind::Retire => "retire",
            SpanKind::Escalate => "escalate",
            SpanKind::Redeploy => "redeploy",
        }
    }

    /// Perfetto category, used to group tracks and scope async ids.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Session => "session",
            SpanKind::Prefix => "retention",
            SpanKind::DecodeIter | SpanKind::Maintenance => "exec",
            SpanKind::Admission | SpanKind::Placement => "admit",
            SpanKind::FirstToken | SpanKind::Completion => "session",
            SpanKind::Fault | SpanKind::Recovery | SpanKind::Escalate => "fault",
            SpanKind::Refresh
            | SpanKind::Migrate
            | SpanKind::Drop
            | SpanKind::Evict
            | SpanKind::Retire
            | SpanKind::Redeploy => "retention",
        }
    }
}

/// Optional per-span annotations; every field is observe-only metadata.
#[derive(Clone, Copy, Debug, Default)]
pub struct Detail {
    /// Bytes the decision governs.
    pub bytes: u64,
    /// The audit reason string (static, from the control plane).
    pub reason: &'static str,
    /// `AuditLog` sequence number correlating span ↔ audit record.
    pub audit_seq: Option<u64>,
    /// Whether the subject is a `Required`-durability class.
    pub required: bool,
}

/// One recorded span (closed slice, instant, or async endpoint pair).
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    /// Dense id.
    pub id: SpanId,
    /// Parent slice captured at begin time (`None` at track top level
    /// and for async spans).
    pub parent: Option<SpanId>,
    /// Taxonomy kind.
    pub kind: SpanKind,
    /// Track (accelerator index; `u32::MAX` = cluster-wide).
    pub track: u32,
    /// Domain id: request id, ctx id, or object id.
    pub subject: u64,
    /// Open time.
    pub begin: SimTime,
    /// Close time (== `begin` for instants).
    pub end: SimTime,
    /// True for async (`b`/`e`) spans.
    pub is_async: bool,
    /// Annotations.
    pub detail: Detail,
}

/// A causal edge: `cause` happened-before and authorized `effect`.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// Source span.
    pub cause: SpanId,
    /// Destination span.
    pub effect: SpanId,
}

/// Cluster-wide track for spans not tied to one accelerator.
pub const CLUSTER_TRACK: u32 = u32::MAX;

/// Async-span slot: the first open span inline plus spilled duplicates
/// (see the `async_open` field doc).
type AsyncSlot = (SpanRec, Vec<SpanRec>);

/// Bounded, deterministic span recorder. See the module docs for the
/// span shapes; all methods are observe-only. Recording is O(open spans)
/// worst case, O(1) typical; the read-side [`CausalTracer::span`] lookup
/// scans the retained ring.
pub struct CausalTracer {
    trace_id: TraceId,
    next: u64,
    capacity: usize,
    /// Closed spans, oldest first; evicts at `capacity`.
    closed: VecDeque<SpanRec>,
    /// Open slices in begin order (removal is by id, order-independent).
    open: Vec<SpanRec>,
    /// Per-track nesting stacks over `open` span ids.
    stacks: Vec<(u32, Vec<SpanId>)>,
    /// Open async spans keyed by (kind, subject). The value holds the
    /// first open span inline and spills re-opened duplicates into the
    /// vec (empty in the common case, so no per-key allocation). Keyed
    /// lookup keeps `async_end` O(1) however many prefixes are parked
    /// at once. The map is only ever *looked up* by key on the hot path;
    /// the one place that iterates it ([`CausalTracer::finish`]) sorts
    /// first, so hash order never reaches the trace.
    async_open: HashMap<(u8, u64), AsyncSlot>,
    links: Vec<Link>,
    dropped: u64,
}

impl CausalTracer {
    /// Default closed-span ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1 << 18;

    /// New tracer with the default ring capacity.
    pub fn new(trace_id: TraceId) -> Self {
        Self::with_capacity(trace_id, Self::DEFAULT_CAPACITY)
    }

    /// New tracer retaining at most `capacity` closed spans (oldest are
    /// evicted first; `dropped()` counts evictions).
    pub fn with_capacity(trace_id: TraceId, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        CausalTracer {
            trace_id,
            next: 0,
            capacity,
            // Preallocate a generous slab (bounded well below `capacity`'s
            // worst case) so steady-state recording never pays a growth
            // memcpy of the whole ring.
            closed: VecDeque::with_capacity(capacity.min(1 << 15)),
            open: Vec::new(),
            stacks: Vec::new(),
            async_open: HashMap::new(),
            links: Vec::new(),
            dropped: 0,
        }
    }

    /// The run's trace id.
    pub fn trace_id(&self) -> TraceId {
        self.trace_id
    }

    fn next_id(&mut self) -> SpanId {
        let id = SpanId(self.next);
        self.next += 1;
        id
    }

    fn retain(&mut self, rec: SpanRec) {
        if self.closed.len() == self.capacity {
            self.closed.pop_front();
            self.dropped += 1;
        }
        self.closed.push_back(rec);
    }

    /// Opens a slice on `track`; the parent is the innermost slice
    /// currently open on that track.
    pub fn begin(&mut self, at: SimTime, kind: SpanKind, track: u32, subject: u64) -> SpanId {
        let id = self.next_id();
        // One track lookup serves both the parent read and the push.
        let si = match self.stacks.iter().position(|(t, _)| *t == track) {
            Some(i) => i,
            None => {
                self.stacks.push((track, Vec::new()));
                self.stacks.len() - 1
            }
        };
        let parent = self.stacks[si].1.last().copied();
        self.open.push(SpanRec {
            id,
            parent,
            kind,
            track,
            subject,
            begin: at,
            end: at,
            is_async: false,
            detail: Detail::default(),
        });
        self.stacks[si].1.push(id);
        id
    }

    /// Closes the slice with `id` wherever it sits in its track's stack.
    /// Unknown ids (already closed, or evicted) are ignored.
    pub fn end(&mut self, at: SimTime, id: SpanId) {
        let Some(i) = self.open.iter().position(|s| s.id == id) else {
            return;
        };
        let mut rec = self.open.swap_remove(i);
        rec.end = at;
        // A slice can only sit in its own track's stack, and the common
        // case (well-nested begin/end) closes the innermost one.
        if let Some((_, stack)) = self.stacks.iter_mut().find(|(t, _)| *t == rec.track) {
            if stack.last() == Some(&id) {
                stack.pop();
            } else {
                stack.retain(|s| *s != id);
            }
        }
        self.retain(rec);
    }

    /// Records an already-closed slice in one step — the hot path for
    /// back-to-back spans whose bounds are both known at record time
    /// (e.g. decode iterations), skipping the open-set and stack
    /// bookkeeping of [`CausalTracer::begin`]/[`CausalTracer::end`].
    /// The parent is the innermost slice open on `track` at record time;
    /// nothing can nest *under* a slice recorded this way.
    pub fn slice(
        &mut self,
        begin: SimTime,
        end: SimTime,
        kind: SpanKind,
        track: u32,
        subject: u64,
    ) -> SpanId {
        let id = self.next_id();
        let parent = self
            .stacks
            .iter()
            .find(|(t, _)| *t == track)
            .and_then(|(_, s)| s.last().copied());
        self.retain(SpanRec {
            id,
            parent,
            kind,
            track,
            subject,
            begin,
            end,
            is_async: false,
            detail: Detail::default(),
        });
        id
    }

    /// Records a zero-duration slice (a point decision). Parent nesting
    /// follows the same rule as [`CausalTracer::begin`].
    pub fn instant(
        &mut self,
        at: SimTime,
        kind: SpanKind,
        track: u32,
        subject: u64,
        detail: Detail,
    ) -> SpanId {
        let id = self.next_id();
        let parent = self
            .stacks
            .iter()
            .find(|(t, _)| *t == track)
            .and_then(|(_, s)| s.last().copied());
        self.retain(SpanRec {
            id,
            parent,
            kind,
            track,
            subject,
            begin: at,
            end: at,
            is_async: false,
            detail,
        });
        id
    }

    /// Opens an async lifecycle span keyed by `(kind, subject)`.
    pub fn async_begin(&mut self, at: SimTime, kind: SpanKind, track: u32, subject: u64) -> SpanId {
        let id = self.next_id();
        let rec = SpanRec {
            id,
            parent: None,
            kind,
            track,
            subject,
            begin: at,
            end: at,
            is_async: true,
            detail: Detail::default(),
        };
        match self.async_open.entry((kind as u8, subject)) {
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((rec, Vec::new()));
            }
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().1.push(rec),
        }
        id
    }

    /// Closes the most recent open async span of `(kind, subject)`;
    /// unmatched ends are ignored.
    pub fn async_end(&mut self, at: SimTime, kind: SpanKind, subject: u64, detail: Detail) {
        let key = (kind as u8, subject);
        let Some((first, spill)) = self.async_open.get_mut(&key) else {
            return;
        };
        let mut rec = match spill.pop() {
            Some(r) => r,
            None => {
                let r = *first;
                self.async_open.remove(&key);
                r
            }
        };
        rec.end = at;
        rec.detail = detail;
        self.retain(rec);
    }

    /// Records a causal edge from `cause` to `effect`.
    pub fn link(&mut self, cause: SpanId, effect: SpanId) {
        self.links.push(Link { cause, effect });
    }

    /// Closes everything still open (run teardown) at `at`. Async spans
    /// close in key order — the entries are sorted before draining, so
    /// the trace bytes never depend on hash order.
    pub fn finish(&mut self, at: SimTime) {
        let open: Vec<SpanId> = self.open.iter().map(|s| s.id).collect();
        for id in open {
            self.end(at, id);
        }
        let mut entries: Vec<((u8, u64), AsyncSlot)> =
            std::mem::take(&mut self.async_open).into_iter().collect();
        entries.sort_unstable_by_key(|(key, _)| *key);
        for (_, (first, mut spill)) in entries {
            while let Some(mut rec) = spill.pop() {
                rec.end = at;
                self.retain(rec);
            }
            let mut rec = first;
            rec.end = at;
            self.retain(rec);
        }
    }

    /// Closed spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRec> + '_ {
        self.closed.iter()
    }

    /// Looks up a retained span by id: a linear scan of the ring (spans
    /// close out of id order), fine for one-off lookups. A bulk consumer
    /// indexes [`CausalTracer::spans`] once instead, as the Perfetto
    /// export does.
    pub fn span(&self, id: SpanId) -> Option<&SpanRec> {
        self.closed.iter().find(|s| s.id == id)
    }

    /// All recorded causal edges (some endpoints may have been evicted).
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Total spans ever assigned an id.
    pub fn total(&self) -> u64 {
        self.next
    }

    /// Closed spans evicted by the ring bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans currently open (slices + async).
    pub fn open_count(&self) -> usize {
        self.open.len()
            + self
                .async_open
                .values()
                .map(|(_, spill)| 1 + spill.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn tracer(cap: usize) -> CausalTracer {
        CausalTracer::with_capacity(TraceId::derive(7), cap)
    }

    #[test]
    fn trace_id_is_deterministic_and_seed_distinct() {
        assert_eq!(TraceId::derive(42), TraceId::derive(42));
        assert_ne!(TraceId::derive(1), TraceId::derive(2));
        assert_ne!(TraceId::derive(0).0, 0);
    }

    #[test]
    fn span_ids_are_dense() {
        let mut tr = tracer(16);
        let a = tr.begin(t(0), SpanKind::DecodeIter, 0, 1);
        let b = tr.instant(t(1), SpanKind::Admission, 0, 2, Detail::default());
        let c = tr.async_begin(t(1), SpanKind::Session, 0, 3);
        assert_eq!((a.0, b.0, c.0), (0, 1, 2));
        assert_eq!(tr.total(), 3);
    }

    #[test]
    fn nesting_parents_follow_track_stack() {
        let mut tr = tracer(16);
        let outer = tr.begin(t(0), SpanKind::Maintenance, 3, 0);
        let inner = tr.begin(t(1), SpanKind::DecodeIter, 3, 0);
        let other = tr.begin(t(1), SpanKind::DecodeIter, 4, 0);
        let leaf = tr.instant(t(2), SpanKind::Refresh, 3, 9, Detail::default());
        tr.end(t(3), inner);
        tr.end(t(4), outer);
        tr.end(t(4), other);
        assert_eq!(tr.span(inner).unwrap().parent, Some(outer));
        assert_eq!(tr.span(leaf).unwrap().parent, Some(inner));
        assert_eq!(tr.span(other).unwrap().parent, None);
        assert_eq!(tr.span(outer).unwrap().parent, None);
    }

    #[test]
    fn out_of_order_close_keeps_attribution() {
        let mut tr = tracer(16);
        let a = tr.begin(t(0), SpanKind::Maintenance, 0, 0);
        let b = tr.begin(t(1), SpanKind::DecodeIter, 0, 0);
        // Close the parent first: the child's parent was captured at
        // begin and must survive.
        tr.end(t(2), a);
        let c = tr.instant(t(3), SpanKind::Drop, 0, 1, Detail::default());
        tr.end(t(4), b);
        assert_eq!(tr.span(b).unwrap().parent, Some(a));
        // After `a` closed, `b` is the innermost open slice on track 0.
        assert_eq!(tr.span(c).unwrap().parent, Some(b));
    }

    #[test]
    fn ring_evicts_oldest_closed_only() {
        let mut tr = tracer(2);
        let keep = tr.begin(t(0), SpanKind::Maintenance, 0, 0);
        for i in 0..5 {
            tr.instant(t(i), SpanKind::Drop, 0, i, Detail::default());
        }
        tr.end(t(9), keep);
        assert_eq!(tr.dropped(), 4);
        assert_eq!(tr.closed.len(), 2);
        // The open span was never evictable; it closes intact.
        assert!(tr.span(keep).is_some());
        assert_eq!(tr.total(), 6);
    }

    #[test]
    fn async_spans_match_by_kind_and_subject() {
        let mut tr = tracer(16);
        let s = tr.async_begin(t(0), SpanKind::Session, 1, 77);
        tr.async_begin(t(0), SpanKind::Prefix, 1, 77);
        tr.async_end(
            t(5),
            SpanKind::Session,
            77,
            Detail {
                reason: "completed",
                ..Detail::default()
            },
        );
        let rec = tr.span(s).unwrap();
        assert_eq!(rec.end, t(5));
        assert!(rec.is_async);
        assert_eq!(rec.detail.reason, "completed");
        assert_eq!(tr.open_count(), 1);
        tr.finish(t(6));
        assert_eq!(tr.open_count(), 0);
    }

    #[test]
    fn finish_closes_open_slices() {
        let mut tr = tracer(16);
        let a = tr.begin(t(0), SpanKind::DecodeIter, 0, 0);
        tr.finish(t(9));
        assert_eq!(tr.span(a).unwrap().end, t(9));
        assert_eq!(tr.open_count(), 0);
    }
}
