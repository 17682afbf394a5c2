//! Chaos target: FTL + MRM zone controller under fault scripts, checked
//! against the plain-map oracles from `tests/fault_invariants.rs`.
//!
//! One trace drives both components (they share nothing, so interleaving
//! costs nothing and doubles coverage per iteration):
//!
//! * the **FTL** oracle is a `BTreeSet` of live logical pages — the
//!   forward map must agree with it exactly, `check_invariants` must
//!   hold, and nothing live may resolve to a retired block;
//! * the **zone controller** oracle is a `Vec<(ZoneState, SimTime)>` —
//!   every state transition (open, least-worn open, append-to-full,
//!   read-escalation retirement, reset, finish, explicit retire) and
//!   every deadline change (append, scrub, due-prefix scrub,
//!   read-escalation scrub) is mirrored, retired zones must reject every
//!   operation forever, and the expiry list must equal the mirror's
//!   Open/Full zones sorted by `(deadline, id)`, in full and below a
//!   horizon drawn per op.
//!
//! Fault injection needs a seed, and `run` must be a pure function of
//! the ops alone — so the fault seed is part of the trace: components
//! start from a fixed base seed and a `Reseed` op rebuilds them (and
//! resets the oracles) with a seed mixed from its salt. The full
//! 819-page FTL scan runs every `SCAN_PERIOD` ops and at the end;
//! in between, only the touched page is checked (plus the structural
//! invariants, which are cheap).
//!
//! Sabotage mode skips the oracle update on `ZoneRetire` — the very next
//! state comparison diverges.

use crate::engine::FuzzTarget;
use crate::rng::{mix2, FuzzRng};
use mrm_controller::ftl::{Ftl, FtlConfig};
use mrm_controller::mrm_block::{MrmBlockController, ZoneError, ZoneId, ZoneState};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::presets;
use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
use mrm_sim::time::{SimDuration, SimTime};
use mrm_sim::units::MIB;
use std::collections::BTreeSet;

const SCAN_PERIOD: usize = 32;
/// Base fault seed; `Reseed { salt }` mixes this with the salt.
const BASE_SEED: u64 = 0x00C0_FFEE_0B1E_55ED;

/// One chaos fuzz operation.
#[derive(Clone, Debug)]
pub enum ChaosOp {
    /// Rebuild FTL + controller with a new fault seed; oracles reset.
    Reseed {
        salt: u64,
    },
    FtlWrite {
        lpn: u64,
    },
    FtlTrim {
        lpn: u64,
    },
    /// Checked read at one of three RBER points (clean/marginal/hot).
    FtlRead {
        lpn: u64,
        rber_idx: u8,
    },
    FtlRetire {
        block: u64,
    },
    ZoneOpen,
    ZoneOpenLeastWorn,
    /// Append 256 KiB with short (2 s) or long (1 h) retention.
    ZoneAppend {
        z: u64,
        short_ttl: bool,
    },
    ZoneRead {
        z: u64,
    },
    /// Scrub for short (2 s) or long (1 h) retention.
    ZoneScrub {
        z: u64,
        short_ttl: bool,
    },
    /// The soak's daily loop: scrub every zone due within `secs`, in the
    /// expiry list's order, all for one retention.
    ZoneScrubDue {
        secs: u64,
        short_ttl: bool,
    },
    ZoneReset {
        z: u64,
    },
    ZoneFinish {
        z: u64,
    },
    ZoneRetire {
        z: u64,
    },
    /// Advance the zone clock (saturating) — ages short-TTL data past
    /// its retention class so reads hit the recovery ladder.
    Advance {
        secs: u64,
    },
}

pub struct ChaosTarget {
    sabotage: bool,
}

impl ChaosTarget {
    pub fn new(sabotage: bool) -> Self {
        ChaosTarget { sabotage }
    }
}

struct World {
    ftl: Ftl,
    /// Oracle: the set of live logical pages.
    live: BTreeSet<u64>,
    /// The FTL hit an unrecoverable error; remaining FTL ops are skipped
    /// (mirrors the `break` in the original proptest script).
    ftl_dead: bool,
    ctrl: MrmBlockController,
    /// Oracle: per-zone lifecycle state and earliest retention deadline.
    zones: Vec<(ZoneState, SimTime)>,
    now: SimTime,
}

fn build_world(seed: u64) -> World {
    let cfg = FtlConfig {
        blocks: 64,
        pages_per_block: 16,
        page_bytes: 4096,
        logical_fraction: 0.8,
        gc_threshold_blocks: 4,
        ue_retire_threshold: 3,
        ..FtlConfig::small()
    };
    let mut ftl = Ftl::new(cfg);
    ftl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed));

    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = 64 * MIB;
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), 4 * MIB);
    ctrl.attach_faults(FaultModel::new(FaultConfig::mrm(), seed.wrapping_add(1)));
    let zones = vec![(ZoneState::Empty, SimTime::MAX); ctrl.zone_count()];

    World {
        ftl,
        live: BTreeSet::new(),
        ftl_dead: false,
        ctrl,
        zones,
        now: SimTime::ZERO,
    }
}

/// The two retention classes appends and scrubs draw from.
fn retention(short_ttl: bool) -> SimDuration {
    if short_ttl {
        SimDuration::from_secs(2)
    } else {
        SimDuration::from_hours(1)
    }
}

/// Full differential scan: forward map vs live set, plus structural
/// invariants (which include "nothing live resolves to a retired block").
fn scan_ftl(step: usize, w: &World) -> Result<(), String> {
    w.ftl
        .check_invariants()
        .map_err(|e| format!("op {step}: FTL structural invariant broken: {e}"))?;
    let pages = w.ftl.config().logical_pages();
    let mut mapped = 0u64;
    for lpn in 0..pages {
        let is_mapped = w.ftl.read(lpn).is_some();
        if is_mapped != w.live.contains(&lpn) {
            return Err(format!(
                "op {step}: lpn {lpn} mapped={is_mapped} but oracle says {}",
                w.live.contains(&lpn)
            ));
        }
        mapped += u64::from(is_mapped);
    }
    if mapped != w.live.len() as u64 {
        return Err(format!(
            "op {step}: {mapped} pages mapped, oracle has {}",
            w.live.len()
        ));
    }
    Ok(())
}

/// Spot check of one logical page plus the cheap structural invariants.
fn spot_ftl(step: usize, w: &World, lpn: u64) -> Result<(), String> {
    w.ftl
        .check_invariants()
        .map_err(|e| format!("op {step}: FTL structural invariant broken: {e}"))?;
    let is_mapped = w.ftl.read(lpn).is_some();
    if is_mapped != w.live.contains(&lpn) {
        return Err(format!(
            "op {step}: lpn {lpn} mapped={is_mapped} but oracle says {}",
            w.live.contains(&lpn)
        ));
    }
    Ok(())
}

/// Zone-state differential: every zone, the retired count, and the
/// expiry work list, in full and below a horizon drawn from the step and
/// the clock: the mirror's Open/Full zones sorted by `(deadline, id)`.
fn scan_zones(step: usize, w: &World) -> Result<(), String> {
    let mut retired = 0u64;
    for (zi, &(expect, _)) in w.zones.iter().enumerate() {
        let z = ZoneId(zi as u32);
        let got = w
            .ctrl
            .zone_state(z)
            .map_err(|e| format!("op {step}: zone_state({zi}) errored: {e:?}"))?;
        if got != expect {
            return Err(format!(
                "op {step}: zone {zi} state {got:?} but oracle says {expect:?}"
            ));
        }
        retired += u64::from(expect == ZoneState::Retired);
    }
    if w.ctrl.zones_retired() != retired {
        return Err(format!(
            "op {step}: zones_retired {} but oracle counts {retired}",
            w.ctrl.zones_retired()
        ));
    }
    let live = mirror_expiring(w, SimTime::MAX);
    let pick = mix2(step as u64, w.now.as_nanos());
    let drawn = match pick % 4 {
        0 => w.now,
        1 => w
            .now
            .saturating_add(SimDuration::from_secs((pick >> 8) % 7200)),
        // An exact live deadline: the `<=` boundary, ties included.
        2 if !live.is_empty() => live[(pick >> 8) as usize % live.len()].1,
        _ => SimTime::MAX,
    };
    for horizon in [SimTime::MAX, drawn] {
        expiring_matches(step, w, horizon)?;
    }
    Ok(())
}

/// The mirror's Open/Full zones due at or before `horizon`, sorted by
/// `(deadline, id)`: what `zones_expiring_before(horizon)` must return.
fn mirror_expiring(w: &World, horizon: SimTime) -> Vec<(ZoneId, SimTime)> {
    let mut live: Vec<(SimTime, ZoneId)> = w
        .zones
        .iter()
        .enumerate()
        .filter(|(_, &(st, d))| matches!(st, ZoneState::Open | ZoneState::Full) && d <= horizon)
        .map(|(zi, &(_, d))| (d, ZoneId(zi as u32)))
        .collect();
    live.sort_unstable();
    live.into_iter().map(|(d, z)| (z, d)).collect()
}

/// The controller's expiry list before `horizon`, checked against the
/// mirror; returns it.
fn expiring_matches(
    step: usize,
    w: &World,
    horizon: SimTime,
) -> Result<Vec<(ZoneId, SimTime)>, String> {
    let got = w.ctrl.zones_expiring_before(horizon);
    let want = mirror_expiring(w, horizon);
    if got != want {
        return Err(format!(
            "op {step}: expiry list before {horizon:?} is {got:?} but oracle says {want:?}"
        ));
    }
    Ok(got)
}

/// Mirrors a successful open: the zone must have been Empty, and it is
/// now Open with nothing written.
fn mirror_open(
    step: usize,
    w: &mut World,
    opened: Result<ZoneId, ZoneError>,
) -> Result<(), String> {
    if let Ok(opened) = opened {
        let zi = opened.0 as usize;
        if w.zones[zi].0 != ZoneState::Empty {
            return Err(format!(
                "op {step}: controller opened zone {zi} which oracle has {:?}",
                w.zones[zi].0
            ));
        }
        w.zones[zi] = (ZoneState::Open, SimTime::MAX);
    }
    Ok(())
}

impl FuzzTarget for ChaosTarget {
    type Op = ChaosOp;

    fn name(&self) -> &'static str {
        "chaos"
    }

    fn corpus(&self) -> Vec<Vec<ChaosOp>> {
        vec![
            vec![],
            // FTL-heavy: writes, reads across the RBER ladder, a trim.
            vec![
                ChaosOp::FtlWrite { lpn: 1 },
                ChaosOp::FtlWrite { lpn: 2 },
                ChaosOp::FtlRead {
                    lpn: 1,
                    rber_idx: 0,
                },
                ChaosOp::FtlRead {
                    lpn: 2,
                    rber_idx: 2,
                },
                ChaosOp::FtlTrim { lpn: 1 },
                ChaosOp::FtlWrite { lpn: 1 },
                ChaosOp::FtlRetire { block: 3 },
            ],
            // Zone lifecycle with aging between appends and reads.
            vec![
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneAppend {
                    z: 0,
                    short_ttl: true,
                },
                ChaosOp::Advance { secs: 10 },
                ChaosOp::ZoneRead { z: 0 },
                ChaosOp::ZoneFinish { z: 0 },
                ChaosOp::ZoneReset { z: 0 },
                ChaosOp::ZoneRetire { z: 1 },
            ],
            // Expiry-list moves: ties at one clock, a scrub up and back
            // down onto the tie, a scrub of an empty open zone.
            vec![
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneOpenLeastWorn,
                ChaosOp::ZoneOpenLeastWorn,
                ChaosOp::ZoneAppend {
                    z: 2,
                    short_ttl: false,
                },
                ChaosOp::ZoneAppend {
                    z: 0,
                    short_ttl: false,
                },
                ChaosOp::ZoneScrub {
                    z: 1,
                    short_ttl: true,
                },
                ChaosOp::ZoneScrub {
                    z: 0,
                    short_ttl: true,
                },
                ChaosOp::ZoneScrub {
                    z: 0,
                    short_ttl: false,
                },
                ChaosOp::ZoneFinish { z: 1 },
            ],
            // The soak's scrub loop: a due prefix scrubbed to one deadline
            // (head removals, tail pushes), then an append that lowers the
            // open zone's deadline, then a due scrub to a short deadline.
            vec![
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneAppend {
                    z: 0,
                    short_ttl: false,
                },
                ChaosOp::Advance { secs: 60 },
                ChaosOp::ZoneAppend {
                    z: 1,
                    short_ttl: false,
                },
                ChaosOp::Advance { secs: 60 },
                ChaosOp::ZoneAppend {
                    z: 2,
                    short_ttl: false,
                },
                ChaosOp::Advance { secs: 600 },
                ChaosOp::ZoneScrubDue {
                    secs: 3600,
                    short_ttl: false,
                },
                ChaosOp::ZoneAppend {
                    z: 2,
                    short_ttl: true,
                },
                ChaosOp::ZoneScrubDue {
                    secs: 7200,
                    short_ttl: true,
                },
            ],
            // A reseed mid-trace.
            vec![
                ChaosOp::FtlWrite { lpn: 7 },
                ChaosOp::Reseed { salt: 1 },
                ChaosOp::FtlWrite { lpn: 7 },
                ChaosOp::ZoneOpen,
                ChaosOp::ZoneAppend {
                    z: 0,
                    short_ttl: false,
                },
            ],
        ]
    }

    fn gen_op(&self, rng: &mut FuzzRng) -> ChaosOp {
        match rng.below(19) {
            0 => ChaosOp::Reseed {
                salt: rng.below(1 << 16),
            },
            1..=4 => ChaosOp::FtlWrite {
                lpn: rng.lean_u64(),
            },
            5 => ChaosOp::FtlTrim {
                lpn: rng.lean_u64(),
            },
            6..=7 => ChaosOp::FtlRead {
                lpn: rng.lean_u64(),
                rber_idx: (rng.below(3)) as u8,
            },
            8 => ChaosOp::FtlRetire {
                block: rng.lean_u64(),
            },
            9 => ChaosOp::ZoneOpen,
            10 => ChaosOp::ZoneOpenLeastWorn,
            11..=12 => ChaosOp::ZoneAppend {
                z: rng.lean_u64(),
                short_ttl: rng.one_in(2),
            },
            13 => ChaosOp::ZoneRead { z: rng.lean_u64() },
            14 => ChaosOp::ZoneScrub {
                z: rng.lean_u64(),
                short_ttl: rng.one_in(2),
            },
            15 => match rng.below(3) {
                0 => ChaosOp::ZoneReset { z: rng.lean_u64() },
                1 => ChaosOp::ZoneFinish { z: rng.lean_u64() },
                _ => ChaosOp::ZoneRetire { z: rng.lean_u64() },
            },
            16 => ChaosOp::ZoneScrubDue {
                secs: rng.lean_below(7200),
                short_ttl: rng.one_in(2),
            },
            _ => ChaosOp::Advance {
                secs: rng.lean_below(600),
            },
        }
    }

    fn mutate_op(&self, op: &ChaosOp, rng: &mut FuzzRng) -> ChaosOp {
        match op {
            ChaosOp::Reseed { salt } => ChaosOp::Reseed {
                salt: salt.wrapping_add(1 + rng.below(64)),
            },
            ChaosOp::FtlWrite { .. } => ChaosOp::FtlWrite {
                lpn: rng.lean_u64(),
            },
            ChaosOp::FtlTrim { .. } => ChaosOp::FtlTrim {
                lpn: rng.lean_u64(),
            },
            ChaosOp::FtlRead { lpn, .. } => ChaosOp::FtlRead {
                lpn: *lpn,
                rber_idx: (rng.below(3)) as u8,
            },
            ChaosOp::FtlRetire { .. } => ChaosOp::FtlRetire {
                block: rng.lean_u64(),
            },
            ChaosOp::ZoneOpen => ChaosOp::ZoneOpenLeastWorn,
            ChaosOp::ZoneOpenLeastWorn => ChaosOp::ZoneOpen,
            ChaosOp::ZoneAppend { z, short_ttl } => ChaosOp::ZoneAppend {
                z: z.wrapping_add(rng.below(4)),
                short_ttl: !short_ttl,
            },
            ChaosOp::ZoneRead { z } => ChaosOp::ZoneRead {
                z: z.wrapping_add(rng.below(4)),
            },
            ChaosOp::ZoneScrub { z, short_ttl } => ChaosOp::ZoneScrub {
                z: z.wrapping_add(rng.below(4)),
                short_ttl: !short_ttl,
            },
            ChaosOp::ZoneScrubDue { short_ttl, .. } => ChaosOp::ZoneScrubDue {
                secs: rng.lean_below(7200),
                short_ttl: !short_ttl,
            },
            ChaosOp::ZoneReset { z } => ChaosOp::ZoneFinish { z: *z },
            ChaosOp::ZoneFinish { z } => ChaosOp::ZoneRetire { z: *z },
            ChaosOp::ZoneRetire { z } => ChaosOp::ZoneReset { z: *z },
            ChaosOp::Advance { .. } => ChaosOp::Advance {
                secs: rng.lean_below(3600),
            },
        }
    }

    fn simplify_op(&self, op: &ChaosOp) -> Option<ChaosOp> {
        match op {
            ChaosOp::Reseed { salt } if *salt > 0 => Some(ChaosOp::Reseed { salt: salt / 2 }),
            ChaosOp::FtlWrite { lpn } if *lpn > 0 => Some(ChaosOp::FtlWrite { lpn: lpn / 2 }),
            ChaosOp::FtlTrim { lpn } if *lpn > 0 => Some(ChaosOp::FtlTrim { lpn: lpn / 2 }),
            ChaosOp::FtlRead { lpn, rber_idx } if *lpn > 0 => Some(ChaosOp::FtlRead {
                lpn: lpn / 2,
                rber_idx: *rber_idx,
            }),
            ChaosOp::FtlRetire { block } if *block > 0 => {
                Some(ChaosOp::FtlRetire { block: block / 2 })
            }
            ChaosOp::ZoneAppend { z, short_ttl: true } => Some(ChaosOp::ZoneAppend {
                z: *z,
                short_ttl: false,
            }),
            ChaosOp::ZoneRead { z } if *z > 0 => Some(ChaosOp::ZoneRead { z: z / 2 }),
            ChaosOp::ZoneScrub { z, short_ttl: true } => Some(ChaosOp::ZoneScrub {
                z: *z,
                short_ttl: false,
            }),
            ChaosOp::ZoneScrub { z, short_ttl } if *z > 0 => Some(ChaosOp::ZoneScrub {
                z: z / 2,
                short_ttl: *short_ttl,
            }),
            ChaosOp::ZoneScrubDue {
                secs,
                short_ttl: true,
            } => Some(ChaosOp::ZoneScrubDue {
                secs: *secs,
                short_ttl: false,
            }),
            ChaosOp::ZoneScrubDue { secs, short_ttl } if *secs > 0 => Some(ChaosOp::ZoneScrubDue {
                secs: secs / 2,
                short_ttl: *short_ttl,
            }),
            ChaosOp::ZoneReset { z } if *z > 0 => Some(ChaosOp::ZoneReset { z: z / 2 }),
            ChaosOp::ZoneFinish { z } if *z > 0 => Some(ChaosOp::ZoneFinish { z: z / 2 }),
            ChaosOp::ZoneRetire { z } if *z > 0 => Some(ChaosOp::ZoneRetire { z: z / 2 }),
            ChaosOp::Advance { secs } if *secs > 0 => Some(ChaosOp::Advance { secs: secs / 2 }),
            _ => None,
        }
    }

    fn run(&self, ops: &[ChaosOp]) -> Result<(), String> {
        let mut w = build_world(mix2(BASE_SEED, 0));
        let pages = w.ftl.config().logical_pages();
        let zone_count = w.zones.len() as u64;
        for (i, op) in ops.iter().enumerate() {
            let mut touched_lpn = None;
            match op {
                ChaosOp::Reseed { salt } => {
                    w = build_world(mix2(BASE_SEED, *salt));
                }
                ChaosOp::FtlWrite { lpn } if !w.ftl_dead => {
                    let lpn = lpn % pages;
                    if w.ftl.write(lpn).is_err() {
                        // Data lost mid-program: the page is gone and the
                        // script treats the FTL as failed from here on.
                        w.live.remove(&lpn);
                        w.ftl_dead = true;
                    } else {
                        w.live.insert(lpn);
                    }
                    touched_lpn = Some(lpn);
                }
                ChaosOp::FtlTrim { lpn } if !w.ftl_dead => {
                    let lpn = lpn % pages;
                    w.ftl
                        .trim(lpn)
                        .map_err(|e| format!("op {i}: trim({lpn}) errored: {e:?}"))?;
                    w.live.remove(&lpn);
                    touched_lpn = Some(lpn);
                }
                ChaosOp::FtlRead { lpn, rber_idx } if !w.ftl_dead => {
                    let lpn = lpn % pages;
                    let rber = [1e-6, 7e-4, 3e-3][usize::from(*rber_idx) % 3];
                    if w.ftl.read_checked(lpn, rber).is_err() {
                        w.live.remove(&lpn);
                        w.ftl_dead = true;
                    }
                    touched_lpn = Some(lpn);
                }
                ChaosOp::FtlRetire { block } if !w.ftl_dead => {
                    // Cap retirements like the original script: past 8 the
                    // spare pool is too thin to guarantee remapping.
                    if w.ftl.blocks_retired() < 8 {
                        let block = (block % 64) as u32;
                        if w.ftl.retire_block(block).is_err() {
                            w.ftl_dead = true;
                        }
                    }
                }
                ChaosOp::FtlWrite { .. }
                | ChaosOp::FtlTrim { .. }
                | ChaosOp::FtlRead { .. }
                | ChaosOp::FtlRetire { .. } => {} // FTL is dead; skip.
                ChaosOp::ZoneOpen => {
                    let opened = w.ctrl.open_zone();
                    mirror_open(i, &mut w, opened)?;
                }
                ChaosOp::ZoneOpenLeastWorn => {
                    let opened = w.ctrl.open_zone_least_worn();
                    mirror_open(i, &mut w, opened)?;
                }
                ChaosOp::ZoneAppend { z, short_ttl } => {
                    let zi = (z % zone_count) as usize;
                    let zid = ZoneId(zi as u32);
                    let retention = retention(*short_ttl);
                    let res = w.ctrl.append(w.now, zid, 256 * 1024, retention);
                    match w.zones[zi].0 {
                        ZoneState::Retired => {
                            if res != Err(ZoneError::ZoneRetired) {
                                return Err(format!(
                                    "op {i}: append to retired zone {zi} => {res:?}"
                                ));
                            }
                        }
                        ZoneState::Open => {
                            let wp = w.ctrl.write_pointer(zid).map_err(|e| {
                                format!("op {i}: write_pointer({zi}) errored: {e:?}")
                            })?;
                            if res.is_ok() {
                                let d = &mut w.zones[zi].1;
                                *d = (*d).min(w.now.saturating_add(retention));
                                if wp == w.ctrl.zone_bytes() {
                                    w.zones[zi].0 = ZoneState::Full;
                                }
                            }
                        }
                        _ => {
                            if res.is_ok() {
                                return Err(format!(
                                    "op {i}: append to {:?} zone {zi} succeeded",
                                    w.zones[zi].0
                                ));
                            }
                        }
                    }
                }
                ChaosOp::ZoneRead { z } => {
                    let zi = (z % zone_count) as usize;
                    let zid = ZoneId(zi as u32);
                    if w.zones[zi].0 == ZoneState::Retired {
                        let res = w
                            .ctrl
                            .read_checked(w.now, zid, 0, 1, SimDuration::from_hours(1));
                        if res.as_ref().err() != Some(&ZoneError::ZoneRetired) {
                            return Err(format!("op {i}: read of retired zone {zi} => {res:?}"));
                        }
                    } else {
                        let wp = w.ctrl.write_pointer(zid).unwrap_or(0);
                        if wp > 0 && w.zones[zi].0 != ZoneState::Empty {
                            let len = wp.min(64 * 1024);
                            let res = w
                                .ctrl
                                .read_checked(w.now, zid, 0, len, SimDuration::from_hours(1))
                                .map_err(|e| {
                                    format!("op {i}: read_checked({zi}) errored: {e:?}")
                                })?;
                            match res.action {
                                RecoveryAction::Scrubbed => {
                                    w.zones[zi].1 =
                                        w.now.saturating_add(SimDuration::from_hours(1));
                                }
                                RecoveryAction::Retired => {
                                    w.zones[zi] = (ZoneState::Retired, SimTime::MAX);
                                }
                                _ => {}
                            }
                        }
                    }
                }
                ChaosOp::ZoneScrub { z, short_ttl } => {
                    let zi = (z % zone_count) as usize;
                    let zid = ZoneId(zi as u32);
                    let wp = w.ctrl.write_pointer(zid).unwrap_or(0);
                    let retention = retention(*short_ttl);
                    let res = w.ctrl.scrub_zone(w.now, zid, retention);
                    match w.zones[zi].0 {
                        ZoneState::Retired => {
                            if res != Err(ZoneError::ZoneRetired) {
                                return Err(format!(
                                    "op {i}: scrub of retired zone {zi} => {res:?}"
                                ));
                            }
                        }
                        ZoneState::Empty => {
                            if res != Err(ZoneError::NotOpen) {
                                return Err(format!("op {i}: scrub of empty zone {zi} => {res:?}"));
                            }
                        }
                        _ => {
                            res.map_err(|e| format!("op {i}: scrub_zone({zi}) errored: {e:?}"))?;
                            // An unwritten zone has nothing to rewrite and
                            // keeps its deadline.
                            if wp > 0 {
                                w.zones[zi].1 = w.now.saturating_add(retention);
                            }
                        }
                    }
                }
                ChaosOp::ZoneScrubDue { secs, short_ttl } => {
                    let horizon = w.now.saturating_add(SimDuration::from_secs(*secs));
                    let retention = retention(*short_ttl);
                    for (zid, _) in expiring_matches(i, &w, horizon)? {
                        let zi = zid.0 as usize;
                        let wp = w.ctrl.write_pointer(zid).unwrap_or(0);
                        w.ctrl
                            .scrub_zone(w.now, zid, retention)
                            .map_err(|e| format!("op {i}: scrub_zone({zi}) errored: {e:?}"))?;
                        if wp > 0 {
                            w.zones[zi].1 = w.now.saturating_add(retention);
                        }
                    }
                }
                ChaosOp::ZoneReset { z } => {
                    let zi = (z % zone_count) as usize;
                    let res = w.ctrl.reset_zone(ZoneId(zi as u32));
                    if w.zones[zi].0 == ZoneState::Retired {
                        if res != Err(ZoneError::ZoneRetired) {
                            return Err(format!("op {i}: reset of retired zone {zi} => {res:?}"));
                        }
                    } else {
                        res.map_err(|e| format!("op {i}: reset_zone({zi}) errored: {e:?}"))?;
                        w.zones[zi] = (ZoneState::Empty, SimTime::MAX);
                    }
                }
                ChaosOp::ZoneFinish { z } => {
                    let zi = (z % zone_count) as usize;
                    let res = w.ctrl.finish_zone(ZoneId(zi as u32));
                    if w.zones[zi].0 == ZoneState::Open {
                        res.map_err(|e| format!("op {i}: finish_zone({zi}) errored: {e:?}"))?;
                        w.zones[zi].0 = ZoneState::Full;
                    } else if res.is_ok() {
                        return Err(format!(
                            "op {i}: finish of {:?} zone {zi} succeeded",
                            w.zones[zi].0
                        ));
                    }
                }
                ChaosOp::ZoneRetire { z } => {
                    let zi = (z % zone_count) as usize;
                    w.ctrl
                        .retire_zone(ZoneId(zi as u32))
                        .map_err(|e| format!("op {i}: retire_zone({zi}) errored: {e:?}"))?;
                    if !self.sabotage {
                        // Documented sabotage: forget to mirror the
                        // retirement — the next zone scan diverges.
                        w.zones[zi] = (ZoneState::Retired, SimTime::MAX);
                    }
                }
                ChaosOp::Advance { secs } => {
                    w.now = w.now.saturating_add(SimDuration::from_secs(*secs));
                }
            }
            if let Some(lpn) = touched_lpn {
                spot_ftl(i, &w, lpn)?;
            }
            if i % SCAN_PERIOD == SCAN_PERIOD - 1 {
                scan_ftl(i, &w)?;
            }
            scan_zones(i, &w)?;
        }
        scan_ftl(ops.len(), &w)?;
        scan_zones(ops.len(), &w)
    }
}
