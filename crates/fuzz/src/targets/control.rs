//! Control-plane target: synthetic work-item streams vs the
//! [`AuditLog`] safety scan.
//!
//! The audit log is the control plane's flight recorder, and
//! `required_drop_violations` is the REQUIRED-DURABLE acceptance oracle
//! the chaos suite leans on — so the scan itself deserves an adversary.
//! This target generates arbitrary decision streams (every action ×
//! every class × lean-biased ids and times) and checks the scan against
//! an independent reimplementation kept deliberately dumb: a `BTreeSet`
//! of recovered `(class, id)` pairs and a linear walk. Two registries
//! are consulted — the serving default, and the empty registry (under
//! which *every* class is Required) — plus the log's structural
//! contract: dense sequence numbers, nondecreasing sim-time, and a
//! summary histogram that reconciles against the raw records.
//!
//! Sabotage mode credits recovery records to the wrong class in the
//! *model* — the scan and the model then disagree about which later
//! drops are violations.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_control::{AuditAction, AuditLog, ControlClass, RetentionRegistry};
use mrm_sim::time::{SimDuration, SimTime, NANOS_PER_SEC};
use std::collections::BTreeSet;

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
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> ControlOp {
        if rng.one_in(4) {
            ControlOp::Advance {
                secs: rng.lean_below(10_000),
            }
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
        }
    }

    fn simplify_op(&self, op: &ControlOp) -> Option<ControlOp> {
        match op {
            ControlOp::Advance { secs } if *secs > 0 => Some(ControlOp::Advance { secs: secs / 2 }),
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
            _ => None,
        }
    }

    fn run(&self, ops: &[ControlOp]) -> Result<(), String> {
        let serving = RetentionRegistry::serving_default(SimDuration::from_secs(20));
        let empty = RetentionRegistry::new();
        let mut log = AuditLog::new();
        let mut now = SimTime::ZERO;

        // The independent model: recovered pairs, expected violations per
        // registry, an action histogram, and the record timeline.
        let mut recovered: BTreeSet<(ControlClass, u64)> = BTreeSet::new();
        let mut expect_serving: Vec<u64> = Vec::new();
        let mut expect_empty: Vec<u64> = Vec::new();
        let mut histogram = [0u64; 9];
        let mut times: Vec<SimTime> = Vec::new();

        for op in ops {
            match op {
                ControlOp::Advance { secs } => {
                    // Saturate the secs→nanos conversion too: the corpus
                    // deliberately advances by `u64::MAX` seconds, which
                    // would overflow `from_secs`'s multiply in debug.
                    let d = SimDuration::from_nanos(secs.saturating_mul(NANOS_PER_SEC));
                    now = now.saturating_add(d);
                }
                ControlOp::Record {
                    class_idx,
                    id,
                    action_idx,
                    bytes,
                } => {
                    let class = class_of(*class_idx);
                    let action = action_of(*action_idx);
                    let seq = log.record(now, class, *id, action, "fuzz-stream", *bytes);
                    if is_recovery(action) {
                        let credit = if self.sabotage {
                            // Documented sabotage: the model credits the
                            // recovery to the wrong class.
                            class_of(class_idx.wrapping_add(1))
                        } else {
                            class
                        };
                        recovered.insert((credit, *id));
                    } else if is_reclaim(action) && !recovered.contains(&(class, *id)) {
                        if serving.is_required(class) {
                            expect_serving.push(seq);
                        }
                        // The empty registry treats everything as Required.
                        expect_empty.push(seq);
                    }
                    histogram[action.index()] += 1;
                    times.push(now);
                }
            }
        }

        // The scan agrees with the dumb model under both registries.
        let got_serving = log.required_drop_violations(&serving);
        if got_serving != expect_serving {
            return Err(format!(
                "serving registry: scan found violations {got_serving:?}, \
                 model expects {expect_serving:?}"
            ));
        }
        let got_empty = log.required_drop_violations(&empty);
        if got_empty != expect_empty {
            return Err(format!(
                "empty registry: scan found violations {got_empty:?}, \
                 model expects {expect_empty:?}"
            ));
        }

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
