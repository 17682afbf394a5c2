//! Pool spec target: [`Pool`] against a model computed from the live set.
//!
//! The model (`Spec`) keeps nothing but the capacity and the live
//! allocations, and derives every observable from them: the free ranges are
//! the non-empty gaps between the address-sorted live allocations, an
//! allocation lands at the lowest gap with length ≥ `len`, and the errors
//! are `ZeroSize`, `OutOfMemory { free }` and `InvalidFree` (double, bogus
//! and wrong-length frees). This target replays open-ended alloc/free
//! traces through both and compares every observable after every op:
//! results, `used_bytes`, `free_bytes`, `free_fragments`, and the full
//! sorted `free_ranges` list.
//!
//! `Reset { capacity }` re-creates both at an arbitrary (lean-biased)
//! capacity, so zero-capacity and one-byte pools are first-class inputs,
//! as are double frees, bogus frees, and zero-size allocations.
//!
//! Sabotage mode rounds every allocation the *model* sees up to the next
//! even size — the injected-mutation self-test: accounting diverges on the
//! first odd-sized allocation.

use crate::engine::FuzzTarget;
use crate::rng::FuzzRng;
use mrm_core::pool::{Allocation, Pool, PoolError};
use mrm_sim::units::MIB;

/// Capacities stay small enough to fragment quickly but allow multi-KiB
/// allocation storms: [0, 1 MiB].
const MAX_CAPACITY: u64 = MIB;

/// One pool fuzz operation.
#[derive(Clone, Debug)]
pub enum PoolOp {
    /// Tear the pool and the spec down and restart at this capacity
    /// (mod 1 MiB + 1).
    Reset { capacity: u64 },
    /// Allocate `len` bytes (0 probes the ZeroSize error path).
    Alloc { len: u64 },
    /// Free the `pick % live`-th live allocation.
    Free { pick: u64 },
    /// Free the `pick % live`-th live allocation *twice* (second must be
    /// InvalidFree on both sides).
    DoubleFree { pick: u64 },
    /// Free a fabricated allocation that was never handed out.
    BogusFree { addr: u64, len: u64 },
}

pub struct PoolTarget {
    sabotage: bool,
}

impl PoolTarget {
    pub fn new(sabotage: bool) -> Self {
        PoolTarget { sabotage }
    }

    fn build(&self, capacity: u64) -> (Pool, Spec) {
        (
            Pool::new(capacity),
            Spec {
                capacity,
                live: Vec::new(),
            },
        )
    }
}

/// The pool's specification: the capacity and the live set, nothing else.
struct Spec {
    capacity: u64,
    /// Live allocations, sorted by address.
    live: Vec<Allocation>,
}

impl Spec {
    fn used_bytes(&self) -> u64 {
        self.live.iter().map(|a| a.len).sum()
    }

    fn free_bytes(&self) -> u64 {
        self.capacity - self.used_bytes()
    }

    /// The non-empty gaps between live allocations, in address order.
    fn free_ranges(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut at = 0;
        for a in &self.live {
            if a.addr > at {
                out.push((at, a.addr - at));
            }
            at = a.addr + a.len;
        }
        if self.capacity > at {
            out.push((at, self.capacity - at));
        }
        out
    }

    fn alloc(&mut self, len: u64) -> Result<Allocation, PoolError> {
        if len == 0 {
            return Err(PoolError::ZeroSize);
        }
        let Some((addr, _)) = self.free_ranges().into_iter().find(|&(_, l)| l >= len) else {
            return Err(PoolError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        };
        let a = Allocation { addr, len };
        let pos = self.live.partition_point(|x| x.addr < addr);
        self.live.insert(pos, a);
        Ok(a)
    }

    fn free(&mut self, a: Allocation) -> Result<(), PoolError> {
        let pos = self
            .live
            .iter()
            .position(|x| *x == a)
            .ok_or(PoolError::InvalidFree)?;
        self.live.remove(pos);
        Ok(())
    }
}

fn compare(step: usize, p: &Pool, spec: &Spec) -> Result<(), String> {
    if p.used_bytes() != spec.used_bytes() {
        return Err(format!(
            "op {step}: used_bytes {} vs spec {}",
            p.used_bytes(),
            spec.used_bytes()
        ));
    }
    if p.free_bytes() != spec.free_bytes() {
        return Err(format!(
            "op {step}: free_bytes {} vs spec {}",
            p.free_bytes(),
            spec.free_bytes()
        ));
    }
    let (a, b) = (p.free_ranges(), spec.free_ranges());
    if p.free_fragments() != b.len() {
        return Err(format!(
            "op {step}: free_fragments {} vs spec {}",
            p.free_fragments(),
            b.len()
        ));
    }
    if a != b {
        return Err(format!("op {step}: free_ranges {a:?} vs spec {b:?}"));
    }
    Ok(())
}

impl FuzzTarget for PoolTarget {
    type Op = PoolOp;

    fn name(&self) -> &'static str {
        "pool"
    }

    fn corpus(&self) -> Vec<Vec<PoolOp>> {
        vec![
            vec![],
            // Steady-state churn at a mid capacity.
            vec![
                PoolOp::Reset {
                    capacity: 64 * 1024,
                },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::Free { pick: 1 },
                PoolOp::Alloc { len: 8192 },
                PoolOp::Free { pick: 0 },
                PoolOp::Free { pick: 0 },
            ],
            // Degenerate capacities (the satellite-3 probe).
            vec![
                PoolOp::Reset { capacity: 0 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Alloc { len: 0 },
                PoolOp::Reset { capacity: 1 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Alloc { len: 1 },
                PoolOp::Free { pick: 0 },
            ],
            // Error paths.
            vec![
                PoolOp::Reset { capacity: 4096 },
                PoolOp::Alloc { len: 4096 },
                PoolOp::DoubleFree { pick: 0 },
                PoolOp::BogusFree { addr: 17, len: 12 },
                PoolOp::Alloc { len: u64::MAX },
            ],
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> PoolOp {
        match rng.below(12) {
            0 => PoolOp::Reset {
                capacity: rng.lean_below(MAX_CAPACITY + 1),
            },
            // Allocation-heavy mix: sizes lean-biased across 0..2 MiB so
            // OutOfMemory and ZeroSize both stay hot.
            1..=6 => PoolOp::Alloc {
                len: rng.lean_below(2 * MAX_CAPACITY),
            },
            7..=9 => PoolOp::Free {
                pick: rng.next_u64(),
            },
            10 => PoolOp::DoubleFree {
                pick: rng.next_u64(),
            },
            _ => PoolOp::BogusFree {
                addr: rng.lean_u64(),
                len: rng.lean_u64(),
            },
        }
    }

    fn mutate_op(&self, op: &PoolOp, rng: &mut FuzzRng) -> PoolOp {
        match op {
            PoolOp::Reset { .. } => PoolOp::Reset {
                capacity: rng.lean_below(MAX_CAPACITY + 1),
            },
            PoolOp::Alloc { len } => PoolOp::Alloc {
                len: len.wrapping_add(rng.lean_below(8192)),
            },
            PoolOp::Free { .. } => PoolOp::Free {
                pick: rng.next_u64(),
            },
            PoolOp::DoubleFree { .. } => PoolOp::DoubleFree {
                pick: rng.next_u64(),
            },
            PoolOp::BogusFree { addr, len } => PoolOp::BogusFree {
                addr: addr.wrapping_add(rng.lean_below(64)),
                len: *len,
            },
        }
    }

    fn simplify_op(&self, op: &PoolOp) -> Option<PoolOp> {
        match op {
            PoolOp::Reset { capacity } if *capacity > 0 => Some(PoolOp::Reset {
                capacity: capacity / 2,
            }),
            PoolOp::Alloc { len } if *len > 0 => Some(PoolOp::Alloc { len: len / 2 }),
            PoolOp::Free { pick } if *pick > 0 => Some(PoolOp::Free { pick: pick / 2 }),
            PoolOp::DoubleFree { pick } if *pick > 0 => Some(PoolOp::DoubleFree { pick: pick / 2 }),
            PoolOp::BogusFree { addr, len } if *addr > 0 || *len > 0 => Some(PoolOp::BogusFree {
                addr: addr / 2,
                len: len / 2,
            }),
            _ => None,
        }
    }

    fn run(&self, ops: &[PoolOp]) -> Result<(), String> {
        let (mut p, mut spec) = self.build(64 * 1024);
        let mut live: Vec<Allocation> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                PoolOp::Reset { capacity } => {
                    let cap = capacity % (MAX_CAPACITY + 1);
                    (p, spec) = self.build(cap);
                    live.clear();
                }
                PoolOp::Alloc { len } => {
                    let spec_len = if self.sabotage {
                        // Documented sabotage: the spec allocates a
                        // rounded-up size — accounting diverges on the
                        // first odd-sized allocation.
                        len.div_ceil(2).saturating_mul(2)
                    } else {
                        *len
                    };
                    let got = p.alloc(*len);
                    let want = spec.alloc(spec_len);
                    if !self.sabotage && got != want {
                        return Err(format!("op {i}: alloc({len}) => {got:?} vs spec {want:?}"));
                    }
                    if let Ok(a) = got {
                        live.push(a);
                    }
                }
                PoolOp::Free { pick } => {
                    if !live.is_empty() {
                        let a = live.remove((pick % live.len() as u64) as usize);
                        let (got, want) = (p.free(a), spec.free(a));
                        if got != want {
                            return Err(format!("op {i}: free({a:?}) => {got:?} vs spec {want:?}"));
                        }
                    }
                }
                PoolOp::DoubleFree { pick } => {
                    if !live.is_empty() {
                        let a = live.remove((pick % live.len() as u64) as usize);
                        let (got, want) = (p.free(a), spec.free(a));
                        if got != want {
                            return Err(format!("op {i}: free({a:?}) => {got:?} vs spec {want:?}"));
                        }
                        let (got2, want2) = (p.free(a), spec.free(a));
                        if got2 != want2 || got2.is_ok() {
                            return Err(format!(
                                "op {i}: double free({a:?}) => {got2:?} vs spec {want2:?}"
                            ));
                        }
                    }
                }
                PoolOp::BogusFree { addr, len } => {
                    // Only bogus if it doesn't collide with a live
                    // allocation's exact (addr, len); skip if it does.
                    let a = Allocation {
                        addr: *addr,
                        len: *len,
                    };
                    if !live.contains(&a) {
                        let (got, want) = (p.free(a), spec.free(a));
                        if got != want {
                            return Err(format!(
                                "op {i}: bogus free({a:?}) => {got:?} vs spec {want:?}"
                            ));
                        }
                    }
                }
            }
            compare(i, &p, &spec)?;
        }
        Ok(())
    }
}
