//! The cluster simulator's observer: every tracer and profiler touch in
//! this crate lives here.
//!
//! A control decision is one call, [`Observer::decide`]: it appends the
//! audit record and then emits that record's span, whose shape comes from
//! one `match` on `(class, action)`:
//!
//! | decision | spans |
//! |---|---|
//! | `KvTail` Store (admission) | `Session` async begin + `Admission` instant |
//! | `KvTail` Retire (completion) | `Completion` instant + `Session` async end |
//! | `KvPrefix` Store (park, putback) | `Prefix` async begin + `Placement` instant |
//! | `KvPrefix` Retire / Drop / Evict | that kind's instant + `Prefix` async end |
//! | Refetch / Recompute | `Recovery` instant |
//! | Refresh / Migrate / Escalate | `Refresh` / `Migrate` / `Migrate` instant |
//! | `Weights` Store (redeploy) | `Redeploy` instant |
//!
//! Every other decision (a superseded weight shard's Retire) is audited
//! without a span. Each span carries its record's seq, bytes and reason;
//! `required` is the class's declared durability, and also marks a drop
//! licensed by a recovery span (the recompute-then-drop path), which is
//! the drop the trace checker requires to carry that causal link. A
//! `cause` span, when given, is linked to the decision's span.
//!
//! Lint rule D8 keeps hooks out of every function that draws randomness
//! or schedules an event; nothing here does either, so attaching an
//! observer never changes a report. Detached, every method is one
//! `Option` check (and `decide` is exactly the audit append).

use mrm_control::{AuditAction, ControlClass, ControlPlane};
use mrm_obs::{Detail, HandlerId, Obs, SpanId, SpanKind};
use mrm_sim::time::{SimDuration, SimTime};

/// A profiled handler: one per event kind plus the frames nested in
/// them. The names in [`HANDLER_NAMES`] are what profiles report.
#[derive(Clone, Copy)]
pub(crate) enum Handler {
    Arrival,
    IterDone,
    Followup,
    CacheExpire,
    Maintenance,
    WeightRedeploy,
    Admission,
    ReconcilePlan,
    DecodeIter,
}

/// Profiler label per [`Handler`], in declaration (and interning) order.
const HANDLER_NAMES: [&str; 9] = [
    "arrival",
    "iter_done",
    "followup",
    "cache_expire",
    "maintenance",
    "weight_redeploy",
    "admission",
    "reconcile_plan",
    "decode_iter",
];

/// The attached bundle with its handler ids interned once, so the
/// per-event hooks never resolve a name on the dispatch path.
struct Hooks<'t> {
    obs: &'t mut Obs,
    ids: [HandlerId; 9],
    /// Start time + batch size of each accelerator's in-flight decode
    /// iteration; recorded as one closed slice when it completes, which
    /// skips the tracer's open-span bookkeeping.
    iter_open: Vec<Option<(SimTime, u64)>>,
}

/// Observation hooks for one cluster run; inert until attached.
#[derive(Default)]
pub(crate) struct Observer<'t>(Option<Hooks<'t>>);

impl<'t> Observer<'t> {
    /// Attaches `obs` for a cluster of `accelerators`.
    pub(crate) fn attach(obs: &'t mut Obs, accelerators: usize) -> Self {
        let p = &mut obs.profiler;
        let ids = HANDLER_NAMES.map(|name| p.handle(name));
        Observer(Some(Hooks {
            obs,
            ids,
            iter_open: vec![None; accelerators],
        }))
    }

    /// Appends one audit record and emits its span on `acc`'s track (see
    /// the module table). Returns the span, for linking an effect to it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide(
        &mut self,
        control: &mut ControlPlane,
        at: SimTime,
        acc: usize,
        class: ControlClass,
        id: u64,
        action: AuditAction,
        reason: &'static str,
        bytes: u64,
        cause: Option<SpanId>,
    ) -> Option<SpanId> {
        let seq = control.record(at, class, id, action, reason, bytes);
        let h = self.0.as_mut()?;
        let licensed_drop = action == AuditAction::Drop && cause.is_some();
        let detail = Detail {
            bytes,
            reason,
            audit_seq: Some(seq),
            required: control.registry.is_required(class) || licensed_drop,
        };
        let (t, track) = (&mut h.obs.tracer, acc as u32);
        let span = match (class, action) {
            (ControlClass::KvTail, AuditAction::Store) => {
                t.async_begin(at, SpanKind::Session, track, id);
                t.instant(at, SpanKind::Admission, track, id, detail)
            }
            (ControlClass::KvTail, AuditAction::Retire) => {
                let span = t.instant(at, SpanKind::Completion, track, id, detail);
                t.async_end(at, SpanKind::Session, id, Detail::default());
                span
            }
            (ControlClass::KvPrefix, AuditAction::Store) => {
                t.async_begin(at, SpanKind::Prefix, track, id);
                t.instant(at, SpanKind::Placement, track, id, detail)
            }
            (
                ControlClass::KvPrefix,
                AuditAction::Retire | AuditAction::Drop | AuditAction::Evict,
            ) => {
                let kind = match action {
                    AuditAction::Retire => SpanKind::Retire,
                    AuditAction::Drop => SpanKind::Drop,
                    _ => SpanKind::Evict,
                };
                let span = t.instant(at, kind, track, id, detail);
                t.async_end(at, SpanKind::Prefix, id, Detail::default());
                span
            }
            (_, AuditAction::Refetch | AuditAction::Recompute) => {
                t.instant(at, SpanKind::Recovery, track, id, detail)
            }
            (_, AuditAction::Refresh) => t.instant(at, SpanKind::Refresh, track, id, detail),
            (_, AuditAction::Migrate | AuditAction::Escalate) => {
                t.instant(at, SpanKind::Migrate, track, id, detail)
            }
            (ControlClass::Weights, AuditAction::Store) => {
                t.instant(at, SpanKind::Redeploy, track, id, detail)
            }
            _ => return None,
        };
        if let Some(c) = cause {
            t.link(c, span);
        }
        Some(span)
    }

    /// An uncorrectable read that survived the retry rung. Returns the
    /// fault span, the cause of whatever recovery it forces.
    pub(crate) fn fault(
        &mut self,
        at: SimTime,
        acc: usize,
        subject: u64,
        bytes: u64,
    ) -> Option<SpanId> {
        let h = self.0.as_mut()?;
        let detail = Detail {
            bytes,
            reason: "uncorrectable-read",
            ..Detail::default()
        };
        let t = &mut h.obs.tracer;
        Some(t.instant(at, SpanKind::Fault, acc as u32, subject, detail))
    }

    /// First token of a session (the TTFT landmark).
    pub(crate) fn first_token(&mut self, at: SimTime, acc: usize, req: u64) {
        if let Some(h) = self.0.as_mut() {
            let t = &mut h.obs.tracer;
            t.instant(at, SpanKind::FirstToken, acc as u32, req, Detail::default());
        }
    }

    /// Notes the start of a decode iteration on an accelerator's track.
    pub(crate) fn iter_begin(&mut self, at: SimTime, acc: usize, batch: u64) {
        if let Some(h) = self.0.as_mut() {
            h.iter_open[acc] = Some((at, batch));
        }
    }

    /// Records the accelerator's decode iteration as a closed slice.
    pub(crate) fn iter_end(&mut self, at: SimTime, acc: usize) {
        if let Some(h) = self.0.as_mut() {
            if let Some((begin, batch)) = h.iter_open[acc].take() {
                let t = &mut h.obs.tracer;
                t.slice(begin, at, SpanKind::DecodeIter, acc as u32, batch);
            }
        }
    }

    /// Opens the maintenance-sweep slice.
    pub(crate) fn sweep_begin(&mut self, at: SimTime, acc: usize) -> Option<SpanId> {
        let h = self.0.as_mut()?;
        Some(h.obs.tracer.begin(at, SpanKind::Maintenance, acc as u32, 0))
    }

    /// Closes the maintenance-sweep slice.
    pub(crate) fn sweep_end(&mut self, at: SimTime, span: Option<SpanId>) {
        if let (Some(h), Some(s)) = (self.0.as_mut(), span) {
            h.obs.tracer.end(at, s);
        }
    }

    /// Closes the open profiler frame and opens `handler`'s on one clock
    /// reading (the dispatch lap; on the first event a plain enter), or
    /// counts one more lap, reading no clock, when `handler`'s frame is
    /// already the open one.
    pub(crate) fn switch(&mut self, handler: Handler) {
        if let Some(h) = self.0.as_mut() {
            h.obs.profiler.switch(h.ids[handler as usize]);
        }
    }

    /// Opens a nested profiler frame.
    pub(crate) fn enter(&mut self, handler: Handler) {
        if let Some(h) = self.0.as_mut() {
            h.obs.profiler.enter_id(h.ids[handler as usize]);
        }
    }

    /// Closes the innermost profiler frame.
    pub(crate) fn exit(&mut self) {
        if let Some(h) = self.0.as_mut() {
            h.obs.profiler.exit();
        }
    }

    /// Charges a handler with simulated time (an iteration's latency).
    pub(crate) fn sim_cost(&mut self, handler: Handler, d: SimDuration) {
        if let Some(h) = self.0.as_mut() {
            h.obs.profiler.sim_cost_id(h.ids[handler as usize], d);
        }
    }

    /// Run teardown: closes every span still open at the end time.
    pub(crate) fn finish(&mut self, at: SimTime) {
        if let Some(h) = self.0.as_mut() {
            h.obs.tracer.finish(at);
        }
    }
}
