//! Control-plane target: synthetic work-item streams vs the
//! [`AuditLog`] REQUIRED-DURABLE index, and tracker observations vs the
//! [`Reconciler`]'s plan.
//!
//! The audit log is the control plane's flight recorder, and
//! `required_drop_violations` is the REQUIRED-DURABLE acceptance oracle
//! the chaos suite leans on — so its index deserves an adversary. This
//! target generates arbitrary decision streams (every action × every
//! class × lean-biased ids and times) and checks the index against a
//! model kept deliberately dumb: the appended stream and a full linear
//! walk of it with a `BTreeSet` of recovered `(class, id)` pairs. Query
//! ops compare the two mid-stream under a drawn registry (each class
//! Required, Ephemeral or undeclared), so the answer must hold across
//! reconfiguration; at the end of the stream the serving default and the
//! empty registry (under which *every* class is Required) are checked,
//! plus the log's structural contract: dense sequence numbers,
//! nondecreasing sim-time, and a summary histogram that reconciles
//! against the raw records.
//!
//! Tracker ops (register, extend need, refresh, release) feed one
//! `KvPrefix` [`Reconciler`] and a plain map of `OracleItem`s, the
//! mirror `tests/fault_invariants.rs` keeps. At each `Plan` op the
//! reconciler's `(id, kind, reason)` list must equal the model's: its
//! items with `deadline <= horizon`, sorted by `(deadline, id)`, each
//! decided from scratch and mapped to a work kind under a drawn registry.
//!
//! Sabotage mode credits recovery records to the wrong class in the
//! *model*, so the index and the model disagree about which later drops
//! are violations, and leaves the model's due list in id order, so a
//! plan whose deadlines do not follow id order disagrees too.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_control::{
    AuditAction, AuditLog, ControlClass, Reconciler, RetentionPolicy, RetentionRegistry, WorkKind,
};
use mrm_sim::time::{SimDuration, SimTime, NANOS_PER_SEC};
use std::collections::{BTreeMap, BTreeSet};

/// One control fuzz operation.
#[derive(Clone, Debug)]
pub enum ControlOp {
    /// Advance the shared clock (saturating; `u64::MAX` parks it at the
    /// horizon, where every later record carries `SimTime::MAX`).
    Advance { secs: u64 },
    /// Append one decision record.
    Record {
        class_idx: u8,
        id: u64,
        action_idx: u8,
        bytes: u64,
    },
    /// Check the index mid-stream under a registry that declares class `i`
    /// Required (`durability[i] % 3 == 0`), Ephemeral (1) or not at all (2).
    Query { durability: [u8; 5] },
    /// Observe a store: deadline and need are offsets from the clock, the
    /// retention period is `RETENTION_SECS[retention_idx % 5]`.
    Track {
        id: u64,
        deadline_secs: u64,
        need_secs: u64,
        retention_idx: u8,
    },
    /// Extend a tracked object's need to `now + need_secs` (never
    /// shortening it), observed as a re-store at its current deadline.
    ExtendNeed { id: u64, need_secs: u64 },
    /// Observe a completed refresh at the current clock.
    Refresh { id: u64 },
    /// Observe a release.
    Release { id: u64 },
    /// One reconciliation tick up to `now + horizon_secs`, under the
    /// `Query` registry encoding; `escalate` gives every declared class a
    /// 7-day escalation class.
    Plan {
        horizon_secs: u64,
        durability: [u8; 5],
        escalate: bool,
    },
}

/// Retention periods a tracked object may carry, zero included.
const RETENTION_SECS: [u64; 5] = [0, 1, 30, 300, 3600];

/// One tracked object in the plain-map model.
#[derive(Clone, Copy, Debug)]
struct OracleItem {
    deadline: SimTime,
    needed_until: SimTime,
    retention: SimDuration,
}

impl OracleItem {
    /// §4's decision, spelled out, as the work a plan emits for it: drop
    /// when nothing needs the object past its deadline; otherwise count
    /// the retention periods the remaining need spans (a zero-retention
    /// class spans infinitely many) and migrate past four, if the
    /// registry declares an escalation class, or refresh.
    fn work(&self, now: SimTime, reg: &RetentionRegistry) -> (WorkKind, &'static str) {
        let class = ControlClass::KvPrefix;
        if self.needed_until <= self.deadline {
            return if reg.is_required(class) {
                (WorkKind::Retire, "need-ended")
            } else {
                (WorkKind::RecomputeDrop, "need-lapsed")
            };
        }
        let need = self.needed_until.duration_since(now.min(self.needed_until));
        let periods = if self.retention.is_zero() {
            u64::MAX
        } else {
            need.as_nanos().div_ceil(self.retention.as_nanos())
        };
        let escalation = reg.policy(class).ok().and_then(|p| p.escalation_class);
        match escalation {
            Some(to) if periods > 4 => (WorkKind::Migrate { to }, "long-remaining-need"),
            _ => (WorkKind::Refresh, "deadline-refresh"),
        }
    }
}

/// `now + secs`, saturating at the end of sim time.
fn offset(now: SimTime, secs: u64) -> SimTime {
    now.saturating_add(SimDuration::from_nanos(secs.saturating_mul(NANOS_PER_SEC)))
}

pub struct ControlTarget {
    sabotage: bool,
}

impl ControlTarget {
    pub fn new(sabotage: bool) -> Self {
        ControlTarget { sabotage }
    }
}

fn class_of(idx: u8) -> ControlClass {
    let all = ControlClass::all();
    all[usize::from(idx) % all.len()]
}

fn action_of(idx: u8) -> AuditAction {
    let all = AuditAction::all();
    all[usize::from(idx) % all.len()]
}

fn is_recovery(a: AuditAction) -> bool {
    matches!(a, AuditAction::Refetch | AuditAction::Recompute)
}

fn is_reclaim(a: AuditAction) -> bool {
    matches!(a, AuditAction::Drop | AuditAction::Evict)
}

fn registry_of(durability: &[u8; 5], escalate: bool) -> RetentionRegistry {
    let mut reg = RetentionRegistry::new();
    for (class, d) in ControlClass::all().into_iter().zip(durability) {
        let policy = match d % 3 {
            0 => RetentionPolicy::required(),
            1 => RetentionPolicy::ephemeral(SimDuration::from_secs(20)),
            _ => continue,
        };
        if escalate {
            reg.declare(class, policy.with_escalation(SimDuration::from_days(7)));
        } else {
            reg.declare(class, policy);
        }
    }
    reg
}

fn draw_durability(rng: &mut FuzzRng) -> [u8; 5] {
    std::array::from_fn(|_| rng.below(3) as u8)
}

impl ControlTarget {
    /// The model's answer: one walk of the whole appended stream. Under
    /// sabotage a recovery is credited to the next class instead of its
    /// own.
    fn scan(
        &self,
        stream: &[(ControlClass, u64, AuditAction)],
        reg: &RetentionRegistry,
    ) -> Vec<u64> {
        let mut recovered: BTreeSet<(ControlClass, u64)> = BTreeSet::new();
        let mut violations = Vec::new();
        for (seq, &(class, id, action)) in stream.iter().enumerate() {
            if is_recovery(action) {
                let credit = if self.sabotage {
                    class_of(class.index() as u8 + 1)
                } else {
                    class
                };
                recovered.insert((credit, id));
            } else if is_reclaim(action)
                && reg.is_required(class)
                && !recovered.contains(&(class, id))
            {
                violations.push(seq as u64);
            }
        }
        violations
    }

    /// The index against the model's full scan under `reg`.
    fn check_index(
        &self,
        log: &AuditLog,
        stream: &[(ControlClass, u64, AuditAction)],
        reg: &RetentionRegistry,
        what: &str,
    ) -> Result<(), String> {
        let got = log.required_drop_violations(reg);
        let want = self.scan(stream, reg);
        if got != want {
            return Err(format!(
                "{what}: index found violations {got:?}, model scan expects {want:?}"
            ));
        }
        let count = log.required_drop_count(reg);
        if count != want.len() as u64 {
            return Err(format!(
                "{what}: required_drop_count {count}, model scan found {}",
                want.len()
            ));
        }
        Ok(())
    }

    /// The model's plan: the due objects sorted by `(deadline, id)` (by id
    /// alone under sabotage), each decided from scratch.
    fn plan(
        &self,
        model: &BTreeMap<u64, OracleItem>,
        now: SimTime,
        horizon: SimTime,
        reg: &RetentionRegistry,
    ) -> Vec<(u64, WorkKind, &'static str)> {
        let mut due: Vec<(&u64, &OracleItem)> = model
            .iter()
            .filter(|(_, it)| it.deadline <= horizon)
            .collect();
        if !self.sabotage {
            due.sort_by_key(|&(&id, it)| (it.deadline, id));
        }
        due.into_iter()
            .map(|(&id, it)| {
                let (kind, reason) = it.work(now, reg);
                (id, kind, reason)
            })
            .collect()
    }

    fn gen_tracker_op(&self, rng: &mut FuzzRng) -> ControlOp {
        // Small id space so re-registers, refreshes and releases collide.
        let id = rng.lean_below(16);
        match rng.below(8) {
            0..=2 => ControlOp::Track {
                id,
                deadline_secs: rng.lean_below(2_000),
                need_secs: rng.lean_below(20_000),
                retention_idx: rng.below(5) as u8,
            },
            3 => ControlOp::ExtendNeed {
                id,
                need_secs: rng.lean_below(20_000),
            },
            4 => ControlOp::Refresh { id },
            5 => ControlOp::Release { id },
            _ => ControlOp::Plan {
                horizon_secs: rng.lean_below(2_000),
                durability: draw_durability(rng),
                escalate: rng.one_in(2),
            },
        }
    }
}

impl FuzzTarget for ControlTarget {
    type Op = ControlOp;

    fn name(&self) -> &'static str {
        "control"
    }

    fn corpus(&self) -> Vec<Vec<ControlOp>> {
        let rec = |class_idx: u8, id: u64, action_idx: u8| ControlOp::Record {
            class_idx,
            id,
            action_idx,
            bytes: 4096,
        };
        vec![
            vec![],
            // A legal recovery-then-drop pair plus unrelated churn.
            vec![
                rec(0, 1, 7), // Weights/1 refetch
                ControlOp::Advance { secs: 5 },
                rec(0, 1, 3), // Weights/1 drop — recovered, legal
                rec(1, 2, 0), // KvPrefix/2 store
                rec(1, 2, 4), // KvPrefix/2 evict
            ],
            // Drops with no recovery across all classes.
            vec![
                rec(0, 9, 3),
                rec(1, 9, 3),
                rec(2, 9, 4),
                rec(3, 9, 3),
                rec(4, 9, 4),
            ],
            // Clock parked at the horizon.
            vec![
                ControlOp::Advance { secs: u64::MAX },
                rec(2, 5, 0),
                rec(2, 5, 3),
            ],
            // KvPrefix flips Required → Ephemeral → Required between
            // queries, with reclaims of id 4 before and after its recovery.
            vec![
                rec(1, 4, 4), // KvPrefix/4 evict — unrecovered
                ControlOp::Query {
                    durability: [0, 0, 0, 0, 0],
                },
                rec(1, 4, 8), // KvPrefix/4 recompute
                rec(1, 4, 3), // KvPrefix/4 drop — recovered, legal
                ControlOp::Query {
                    durability: [0, 1, 0, 1, 0],
                },
                rec(1, 5, 3), // KvPrefix/5 drop — unrecovered
                ControlOp::Query {
                    durability: [2, 0, 2, 2, 2],
                },
            ],
            // Deadlines against id order, a deadline on the horizon, and
            // needs of exactly four and five 300 s periods.
            vec![
                ControlOp::Track {
                    id: 3,
                    deadline_secs: 10,
                    need_secs: 1_200,
                    retention_idx: 3,
                },
                ControlOp::Track {
                    id: 1,
                    deadline_secs: 20,
                    need_secs: 1_201,
                    retention_idx: 3,
                },
                ControlOp::Track {
                    id: 2,
                    deadline_secs: 10,
                    need_secs: 5,
                    retention_idx: 3,
                },
                ControlOp::Plan {
                    horizon_secs: 20,
                    durability: [0, 0, 0, 0, 0],
                    escalate: true,
                },
                ControlOp::Refresh { id: 3 },
                ControlOp::ExtendNeed {
                    id: 2,
                    need_secs: 600,
                },
                ControlOp::Release { id: 1 },
                ControlOp::Advance { secs: 300 },
                ControlOp::Plan {
                    horizon_secs: 20,
                    durability: [1, 1, 1, 1, 1],
                    escalate: false,
                },
            ],
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> ControlOp {
        if rng.one_in(4) {
            ControlOp::Advance {
                secs: rng.lean_below(10_000),
            }
        } else if rng.one_in(8) {
            ControlOp::Query {
                durability: draw_durability(rng),
            }
        } else if rng.one_in(2) {
            self.gen_tracker_op(rng)
        } else {
            ControlOp::Record {
                class_idx: (rng.below(5)) as u8,
                // Small id space so recovery/reclaim pairs actually collide.
                id: rng.lean_below(16),
                action_idx: (rng.below(9)) as u8,
                bytes: rng.lean_u64(),
            }
        }
    }

    fn mutate_op(&self, op: &ControlOp, rng: &mut FuzzRng) -> ControlOp {
        match op {
            ControlOp::Advance { .. } => ControlOp::Advance {
                secs: rng.lean_u64(),
            },
            ControlOp::Query { durability } => {
                let mut durability = *durability;
                durability[rng.index(5)] = rng.below(3) as u8;
                ControlOp::Query { durability }
            }
            ControlOp::Record {
                class_idx,
                id,
                action_idx,
                bytes,
            } => match rng.below(4) {
                0 => ControlOp::Record {
                    class_idx: (rng.below(5)) as u8,
                    id: *id,
                    action_idx: *action_idx,
                    bytes: *bytes,
                },
                1 => ControlOp::Record {
                    class_idx: *class_idx,
                    id: rng.lean_below(16),
                    action_idx: *action_idx,
                    bytes: *bytes,
                },
                2 => ControlOp::Record {
                    class_idx: *class_idx,
                    id: *id,
                    action_idx: (rng.below(9)) as u8,
                    bytes: *bytes,
                },
                _ => ControlOp::Record {
                    class_idx: *class_idx,
                    id: *id,
                    action_idx: *action_idx,
                    bytes: rng.lean_u64(),
                },
            },
            _ => self.gen_tracker_op(rng),
        }
    }

    fn simplify_op(&self, op: &ControlOp) -> Option<ControlOp> {
        match op {
            ControlOp::Advance { secs } if *secs > 0 => Some(ControlOp::Advance { secs: secs / 2 }),
            // Toward all-Required, one class at a time.
            ControlOp::Query { durability } => {
                let i = durability.iter().position(|&d| d != 0)?;
                let mut durability = *durability;
                durability[i] = 0;
                Some(ControlOp::Query { durability })
            }
            ControlOp::Record {
                class_idx,
                id,
                action_idx,
                bytes,
            } => {
                if *bytes > 0 {
                    Some(ControlOp::Record {
                        class_idx: *class_idx,
                        id: *id,
                        action_idx: *action_idx,
                        bytes: bytes / 2,
                    })
                } else if *id > 0 {
                    Some(ControlOp::Record {
                        class_idx: *class_idx,
                        id: id / 2,
                        action_idx: *action_idx,
                        bytes: 0,
                    })
                } else {
                    None
                }
            }
            ControlOp::Track {
                id,
                deadline_secs,
                need_secs,
                retention_idx,
            } if *deadline_secs > 0 || *need_secs > 0 => Some(ControlOp::Track {
                id: *id,
                deadline_secs: deadline_secs / 2,
                need_secs: need_secs / 2,
                retention_idx: *retention_idx,
            }),
            ControlOp::ExtendNeed { id, need_secs } if *need_secs > 0 => {
                Some(ControlOp::ExtendNeed {
                    id: *id,
                    need_secs: need_secs / 2,
                })
            }
            ControlOp::Plan {
                horizon_secs,
                durability,
                escalate,
            } => {
                let mut durability = *durability;
                if let Some(i) = durability.iter().position(|&d| d != 0) {
                    durability[i] = 0;
                } else if *horizon_secs == 0 {
                    return None;
                }
                Some(ControlOp::Plan {
                    horizon_secs: horizon_secs / 2,
                    durability,
                    escalate: *escalate,
                })
            }
            _ => None,
        }
    }

    fn run(&self, ops: &[ControlOp]) -> Result<(), String> {
        let serving = RetentionRegistry::serving_default(SimDuration::from_secs(20));
        let empty = RetentionRegistry::new();
        let mut log = AuditLog::new();
        let mut now = SimTime::ZERO;

        // The independent model: the appended stream (scanned whole at
        // every check), an action histogram, and the record timeline.
        let mut stream: Vec<(ControlClass, u64, AuditAction)> = Vec::new();
        let mut histogram = [0u64; 9];
        let mut times: Vec<SimTime> = Vec::new();

        // The reconciler under test and its plain-map model.
        let mut reconciler = Reconciler::new(ControlClass::KvPrefix);
        let mut model: BTreeMap<u64, OracleItem> = BTreeMap::new();
        let mut planned = 0u64;

        for op in ops {
            match op {
                ControlOp::Advance { secs } => {
                    // Saturate the secs→nanos conversion too: the corpus
                    // deliberately advances by `u64::MAX` seconds, which
                    // would overflow `from_secs`'s multiply in debug.
                    now = offset(now, *secs);
                }
                ControlOp::Record {
                    class_idx,
                    id,
                    action_idx,
                    bytes,
                } => {
                    let class = class_of(*class_idx);
                    let action = action_of(*action_idx);
                    log.record(now, class, *id, action, "fuzz-stream", *bytes);
                    stream.push((class, *id, action));
                    histogram[action.index()] += 1;
                    times.push(now);
                }
                ControlOp::Query { durability } => {
                    let reg = registry_of(durability, false);
                    let what = format!("query {durability:?} after {} records", stream.len());
                    self.check_index(&log, &stream, &reg, &what)?;
                }
                ControlOp::Track {
                    id,
                    deadline_secs,
                    need_secs,
                    retention_idx,
                } => {
                    let it = OracleItem {
                        deadline: offset(now, *deadline_secs),
                        needed_until: offset(now, *need_secs),
                        retention: SimDuration::from_secs(
                            RETENTION_SECS[usize::from(*retention_idx) % RETENTION_SECS.len()],
                        ),
                    };
                    reconciler.observe_store(*id, it.deadline, it.needed_until, it.retention);
                    model.insert(*id, it);
                }
                ControlOp::ExtendNeed { id, need_secs } => {
                    if let Some(it) = model.get_mut(id) {
                        it.needed_until = it.needed_until.max(offset(now, *need_secs));
                        reconciler.observe_store(*id, it.deadline, it.needed_until, it.retention);
                    }
                }
                ControlOp::Refresh { id } => match model.get_mut(id) {
                    // Re-arming past the end of sim time breaks the
                    // tracker's checked-arithmetic contract: skip it.
                    Some(it) => {
                        if let Some(deadline) = now.checked_add(it.retention) {
                            it.deadline = deadline;
                            reconciler.observe_refreshed(*id, now);
                        }
                    }
                    // Refreshing an untracked id is a no-op.
                    None => reconciler.observe_refreshed(*id, now),
                },
                ControlOp::Release { id } => {
                    reconciler.observe_release(*id);
                    model.remove(id);
                }
                ControlOp::Plan {
                    horizon_secs,
                    durability,
                    escalate,
                } => {
                    let reg = registry_of(durability, *escalate);
                    let horizon = offset(now, *horizon_secs);
                    let items = reconciler.plan(now, horizon, &reg);
                    if let Some(wrong) = items.iter().find(|w| w.class != ControlClass::KvPrefix) {
                        return Err(format!("plan emitted {wrong:?} outside its class"));
                    }
                    let got: Vec<(u64, WorkKind, &str)> =
                        items.iter().map(|w| (w.id, w.kind, w.reason)).collect();
                    let want = self.plan(&model, now, horizon, &reg);
                    if got != want {
                        return Err(format!(
                            "plan at {now:?} to {horizon:?} under {durability:?} (escalate \
                             {escalate}): reconciler {got:?}, model {want:?}"
                        ));
                    }
                    planned += want.len() as u64;
                    if reconciler.planned() != planned || reconciler.len() != model.len() {
                        return Err(format!(
                            "reconciler tracks {} and planned {}, model {} and {planned}",
                            reconciler.len(),
                            reconciler.planned(),
                            model.len()
                        ));
                    }
                }
            }
        }

        // The index agrees with the model under both end registries.
        self.check_index(&log, &stream, &serving, "serving registry")?;
        self.check_index(&log, &stream, &empty, "empty registry")?;

        // Structural contract: dense seqs, the recorded (nondecreasing)
        // timeline, a reconciling histogram.
        if log.len() != times.len() {
            return Err(format!(
                "log has {} records, model counted {}",
                log.len(),
                times.len()
            ));
        }
        for (i, r) in log.records().iter().enumerate() {
            if r.seq != i as u64 {
                return Err(format!("record {i} carries seq {}", r.seq));
            }
            if r.at != times[i] {
                return Err(format!(
                    "record {i} at {:?}, model logged {:?}",
                    r.at, times[i]
                ));
            }
            if i > 0 && log.records()[i - 1].at > r.at {
                return Err(format!("audit time went backwards at seq {i}"));
            }
        }
        for action in AuditAction::all() {
            if log.count(action) != histogram[action.index()] {
                return Err(format!(
                    "count({action:?}) = {}, model counted {}",
                    log.count(action),
                    histogram[action.index()]
                ));
            }
        }
        Ok(())
    }
}
