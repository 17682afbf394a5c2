//! The five differential fuzz targets and the by-name dispatcher.
//!
//! Each target owns a small op language, a corpus of seed traces, and a
//! `run` that replays a trace through the real implementation and its
//! retained oracle or model side by side. Each also carries a **sabotage mode**
//! (`Target::new(true)`): a deliberately wrong model wired in behind a
//! flag, used by the harness's own end-to-end tests (and the
//! `--sabotage` CLI flag) to prove the whole pipeline — detect, shrink,
//! artifact, replay — actually fires when the differential breaks.
//! Sabotage is never enabled in CI smoke runs.

pub mod chaos;
pub mod control;
pub mod ecc;
pub mod pool;
pub mod queue;

use crate::artifact::{parse_artifact, write_artifact, ArtifactHeader};
use crate::engine::{campaign, derive_input, run_caught, shrink, FuzzTarget};
use std::path::{Path, PathBuf};

/// Stable CLI names of all targets, in the order `run --target all` uses.
pub const TARGET_NAMES: [&str; 5] = ["ecc", "pool", "queue", "chaos", "control"];

/// Result of one campaign: where the artifact landed, if anything broke.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Path of the written crash artifact, `None` if the run was clean.
    pub artifact: Option<PathBuf>,
    /// The (shrunk) failure message, `None` if the run was clean.
    pub failure: Option<String>,
}

fn drive<T: FuzzTarget>(
    target: &T,
    seed: u64,
    iters: u64,
    artifacts_dir: &Path,
    progress: &mut dyn FnMut(u64),
) -> Result<CampaignOutcome, String> {
    match campaign(target, seed, iters, progress) {
        None => Ok(CampaignOutcome {
            artifact: None,
            failure: None,
        }),
        Some(finding) => {
            let path = write_artifact(artifacts_dir, target.name(), &finding)
                .map_err(|e| format!("writing artifact: {e}"))?;
            Ok(CampaignOutcome {
                artifact: Some(path),
                failure: Some(finding.failure),
            })
        }
    }
}

/// Runs a campaign for the named target. `sabotage` enables the target's
/// documented broken-model mode (self-test only).
pub fn campaign_by_name(
    name: &str,
    sabotage: bool,
    seed: u64,
    iters: u64,
    artifacts_dir: &Path,
    progress: &mut dyn FnMut(u64),
) -> Result<CampaignOutcome, String> {
    match name {
        "ecc" => drive(
            &ecc::EccTarget::new(sabotage),
            seed,
            iters,
            artifacts_dir,
            progress,
        ),
        "pool" => drive(
            &pool::PoolTarget::new(sabotage),
            seed,
            iters,
            artifacts_dir,
            progress,
        ),
        "queue" => drive(
            &queue::QueueTarget::new(sabotage),
            seed,
            iters,
            artifacts_dir,
            progress,
        ),
        "chaos" => drive(
            &chaos::ChaosTarget::new(sabotage),
            seed,
            iters,
            artifacts_dir,
            progress,
        ),
        "control" => drive(
            &control::ControlTarget::new(sabotage),
            seed,
            iters,
            artifacts_dir,
            progress,
        ),
        other => Err(format!(
            "unknown target {other:?} (expected one of {TARGET_NAMES:?})"
        )),
    }
}

/// Result of replaying a crash artifact.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The failure the re-derived trace produced, after re-shrinking.
    pub failure: Option<String>,
    /// True if that failure message equals the one recorded in the
    /// artifact — i.e. the artifact replays to the same failure.
    pub matches: bool,
}

fn replay_one<T: FuzzTarget>(target: &T, header: &ArtifactHeader) -> ReplayOutcome {
    let ops = derive_input(target, header.seed, header.iteration);
    if run_caught(target, &ops).is_ok() {
        return ReplayOutcome {
            failure: None,
            matches: false,
        };
    }
    // Shrinking is deterministic, so a faithful replay reproduces not
    // just *a* failure but the exact recorded (shrunk) failure message.
    let (_, failure) = shrink(target, &ops);
    let matches = failure == header.failure;
    ReplayOutcome {
        failure: Some(failure),
        matches,
    }
}

/// Replays the artifact at `path`: re-derives the trace from the recorded
/// `(target, seed, iteration)`, re-runs, re-shrinks, and compares the
/// failure message against the recorded one.
pub fn replay_artifact(path: &Path, sabotage: bool) -> Result<ReplayOutcome, String> {
    let header = parse_artifact(path)?;
    match header.target.as_str() {
        "ecc" => Ok(replay_one(&ecc::EccTarget::new(sabotage), &header)),
        "pool" => Ok(replay_one(&pool::PoolTarget::new(sabotage), &header)),
        "queue" => Ok(replay_one(&queue::QueueTarget::new(sabotage), &header)),
        "chaos" => Ok(replay_one(&chaos::ChaosTarget::new(sabotage), &header)),
        "control" => Ok(replay_one(&control::ControlTarget::new(sabotage), &header)),
        other => Err(format!("artifact names unknown target {other:?}")),
    }
}
