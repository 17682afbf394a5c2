//! Control-plane target: synthetic work-item streams vs the
//! [`AuditLog`] REQUIRED-DURABLE index.
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
//! Sabotage mode credits recovery records to the wrong class in the
//! *model* — the index and the model then disagree about which later
//! drops are violations.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_control::{AuditAction, AuditLog, ControlClass, RetentionPolicy, RetentionRegistry};
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
    /// Check the index mid-stream under a registry that declares class `i`
    /// Required (`durability[i] % 3 == 0`), Ephemeral (1) or not at all (2).
    Query { durability: [u8; 5] },
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

fn registry_of(durability: &[u8; 5]) -> RetentionRegistry {
    let mut reg = RetentionRegistry::new();
    for (class, d) in ControlClass::all().into_iter().zip(durability) {
        match d % 3 {
            0 => reg.declare(class, RetentionPolicy::required()),
            1 => reg.declare(
                class,
                RetentionPolicy::ephemeral(SimDuration::from_secs(20)),
            ),
            _ => {}
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
                    log.record(now, class, *id, action, "fuzz-stream", *bytes);
                    stream.push((class, *id, action));
                    histogram[action.index()] += 1;
                    times.push(now);
                }
                ControlOp::Query { durability } => {
                    let reg = registry_of(durability);
                    let what = format!("query {durability:?} after {} records", stream.len());
                    self.check_index(&log, &stream, &reg, &what)?;
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
