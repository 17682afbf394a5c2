//! # `mrm-bench` — the experiment harness
//!
//! One binary per paper experiment (see `DESIGN.md` §4 for the experiment
//! index) plus `perf_suite`, the oracle-differential micro benchmarks. Each
//! experiment binary prints the table/series the paper reports and drops a
//! machine-readable JSON record under `target/experiments/` for
//! `EXPERIMENTS.md` bookkeeping. Whole-run host throughput is measured by
//! the standalone `simbench` package (`simbench/NOTES.md`).
//!
//! Run them all with:
//!
//! ```text
//! for b in fig1_endurance t1_footprint t2_rwratio t3_hbm t4_techmatrix \
//!          t5_hybrid e6_housekeeping e7_dcm e8_ecc e9_cluster e10_wear \
//!          a1_retention_sweep a2_controller; do
//!     cargo run --release -p mrm-bench --bin $b
//! done
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use serde::Serialize;

/// Directory where experiment JSON records are written.
pub fn experiments_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    PathBuf::from(target).join("experiments")
}

/// Serializes an experiment record to `target/experiments/<id>.json`.
/// Failures are reported but non-fatal (the printed tables are the primary
/// artifact).
pub fn save_json<T: Serialize>(id: &str, record: &T) {
    let dir = experiments_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        warn(&format!("cannot create {}: {e}", dir.display()));
        return;
    }
    let path = dir.join(format!("{id}.json"));
    match serde_json::to_string_pretty(record) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                warn(&format!("cannot write {}: {e}", path.display()));
            } else {
                note(&format!("[saved {}]", path.display()));
            }
        }
        Err(e) => warn(&format!("cannot serialize {id}: {e}")),
    }
}

/// Prints an informational line. The single funnel for ad-hoc progress
/// output from the experiment binaries, so it can be restyled (or silenced)
/// in one place.
pub fn note(msg: &str) {
    println!("{msg}");
}

/// Prints a warning line to stderr.
pub fn warn(msg: &str) {
    eprintln!("warning: {msg}");
}

/// Prints a `PASS`/`FAIL` verdict line for a named acceptance check and
/// returns whether it passed, so binaries can aggregate an exit status.
pub fn check(pass: bool, desc: &str) -> bool {
    println!("[{}] {desc}", if pass { "PASS" } else { "FAIL" });
    pass
}

/// Observation artifact paths of the cluster experiments (e9, e11, e13):
/// `--telemetry <path>` (JSONL time series), `--trace <path>` (Perfetto /
/// Chrome trace-event JSON), and `--profile <path>` (profiler report +
/// folded stacks). Each flag also accepts the `=` form. Binaries without
/// a causal tracer parse only `--telemetry` (see [`warn_unsupported_obs`]).
///
/// All three parse through [`output_path_from_args`], so every path gets
/// the same error behavior: an unwritable path is a consistent fatal
/// error *before* the run starts, never a warning after minutes of
/// simulation.
#[derive(Debug, Default)]
pub struct OutputPaths {
    /// Destination for the JSONL telemetry export, when requested.
    pub telemetry: Option<PathBuf>,
    /// Destination for the causal trace JSON, when requested.
    pub trace: Option<PathBuf>,
    /// Destination for the profiler report, when requested.
    pub profile: Option<PathBuf>,
}

impl OutputPaths {
    /// Parses and preflights all three flags from `argv`.
    pub fn from_args() -> Self {
        OutputPaths {
            telemetry: output_path_from_args("--telemetry"),
            trace: output_path_from_args("--trace"),
            profile: output_path_from_args("--profile"),
        }
    }
}

/// Parses `<flag> <path>` (or `<flag>=<path>`) from `argv` and preflights
/// writability: parent directories are created and the file itself must be
/// creatable. On failure, prints one consistently-shaped error and exits
/// with status 2.
pub fn output_path_from_args(flag: &str) -> Option<PathBuf> {
    let path = PathBuf::from(mrm_sweep::flag_value_from_args(flag)?);
    if let Err(e) = preflight_writable(&path) {
        eprintln!("error: {flag} path {} is not writable: {e}", path.display());
        std::process::exit(2);
    }
    Some(path)
}

/// The writability probe behind [`output_path_from_args`]: create parents,
/// then create (or truncate) the file. The run overwrites it with real
/// content later, so an interrupted run leaves an empty artifact rather
/// than a stale one.
fn preflight_writable(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    fs::write(path, "")
}

/// Writes an observation artifact (telemetry/trace/profile), labelled in
/// the progress line; failure is a warning, not an abort — the printed
/// tables remain the primary artifact of a run.
pub fn save_artifact(what: &str, path: &Path, contents: &str) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(parent) {
                warn(&format!("cannot create {}: {e}", parent.display()));
                return;
            }
        }
    }
    match fs::write(path, contents) {
        Ok(()) => note(&format!(
            "[{what}: {} lines -> {}]",
            contents.lines().count(),
            path.display()
        )),
        Err(e) => warn(&format!("cannot write {}: {e}", path.display())),
    }
}

/// Writes a telemetry export; see [`save_artifact`].
pub fn save_telemetry(path: &std::path::Path, contents: &str) {
    save_artifact("telemetry", path, contents);
}

/// Warns when `--trace`/`--profile` were passed to a binary that has no
/// causal tracer. Only the cluster experiments emit traces and profiles,
/// so the others parse just `--telemetry`; the ignored flags' paths are
/// never preflighted, so an existing file there is left untouched.
pub fn warn_unsupported_obs(bin: &str) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    for msg in unsupported_obs_warnings(bin, &args) {
        warn(&msg);
    }
}

/// One warning per `--trace`/`--profile` flag given in `args`. Looks at
/// the flags only, never at their paths.
fn unsupported_obs_warnings(bin: &str, args: &[String]) -> Vec<String> {
    let present = |flag: &str| mrm_sweep::flag_value(flag, args.iter().cloned()).is_some();
    let mut warnings = Vec::new();
    if present("--trace") {
        warnings.push(format!(
            "{bin} does not emit a causal trace; --trace ignored"
        ));
    }
    if present("--profile") {
        warnings.push(format!("{bin} does not emit a profile; --profile ignored"));
    }
    warnings
}

/// Prints a section heading.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Renders a log10-scale ASCII bar for quantities spanning many decades
/// (endurance counts): one `#` per decade, `min_decade`-anchored.
pub fn log_bar(value: f64, min_decade: i32, max_decade: i32) -> String {
    if value <= 0.0 {
        return String::new();
    }
    let decades = value.log10();
    let filled = ((decades - f64::from(min_decade)).max(0.0)).round() as usize;
    let width = (max_decade - min_decade).max(1) as usize;
    let filled = filled.min(width);
    format!("{}{}", "#".repeat(filled), ".".repeat(width - filled))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_bar_scales() {
        assert_eq!(log_bar(1e5, 0, 10), "#####.....");
        assert_eq!(log_bar(1e10, 0, 10), "##########");
        assert_eq!(log_bar(1e15, 0, 10), "##########"); // clamped
        assert_eq!(log_bar(0.0, 0, 10), "");
        assert_eq!(log_bar(1.0, 0, 4), "....");
    }

    #[test]
    fn experiments_dir_is_under_target() {
        let d = experiments_dir();
        assert!(d.ends_with("experiments"));
    }

    #[test]
    fn preflight_creates_parents_and_rejects_unwritable() {
        let base = std::env::temp_dir().join(format!("mrm_bench_preflight_{}", std::process::id()));
        let nested = base.join("a/b/out.jsonl");
        assert!(preflight_writable(&nested).is_ok());
        assert!(nested.exists(), "preflight should create the file");
        // A path whose "parent" is a regular file cannot be written.
        let through_file = nested.join("child.json");
        assert!(preflight_writable(&through_file).is_err());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn ignored_obs_flags_warn_without_touching_their_paths() {
        let base = std::env::temp_dir().join(format!("mrm_bench_ignored_{}", std::process::id()));
        fs::create_dir_all(&base).unwrap();
        let trace = base.join("trace.json");
        let profile = base.join("profile.txt");
        fs::write(&trace, "keep me").unwrap();
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let warnings = unsupported_obs_warnings(
            "e7_dcm",
            &args(&[
                "--trace",
                trace.to_str().unwrap(),
                &format!("--profile={}", profile.display()),
            ]),
        );
        assert_eq!(
            warnings,
            vec![
                "e7_dcm does not emit a causal trace; --trace ignored".to_string(),
                "e7_dcm does not emit a profile; --profile ignored".to_string(),
            ]
        );
        // Neither path was preflighted: the existing file keeps its bytes
        // and the missing one is not created.
        assert_eq!(fs::read_to_string(&trace).unwrap(), "keep me");
        assert!(!profile.exists());
        // Absent flags, and names that merely share the prefix, stay quiet.
        assert!(unsupported_obs_warnings("e7_dcm", &args(&["--telemetry", "t.jsonl"])).is_empty());
        assert!(unsupported_obs_warnings("e7_dcm", &args(&["--traces=x"])).is_empty());
        let _ = fs::remove_dir_all(&base);
    }
}
