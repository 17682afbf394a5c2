//! Integration tests for `mrm-lint`: fixture corpora with golden output,
//! suppression via annotations, end-to-end `--deny` exit codes,
//! and the self-check that the lint is clean on its own sources.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace walk)
//! and are consumed as *text*, never compiled. Each `<name>.rs` has a
//! `<name>.expected` golden file; regenerate with
//! `MRM_LINT_BLESS=1 cargo test -p mrm-lint`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use mrm_lint::rules::{lint_source, FileCtx, RuleId};
use mrm_lint::walk::find_workspace_root;
use mrm_lint::{analyze_workspace, lint_workspace};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The context each fixture is linted under: rules are path-gated, so each
/// corpus pretends to live where its rule applies.
fn fixture_ctx(name: &str) -> FileCtx {
    let mut ctx = if name.starts_with("d4_") {
        FileCtx::classify("crates/telemetry/src/fixture.rs")
    } else if name.starts_with("d6_") {
        FileCtx::classify("crates/faults/src/fixture.rs")
    } else if name.starts_with("d7_") || name.starts_with("d8_") {
        FileCtx::classify("crates/tiering/src/fixture.rs")
    } else {
        FileCtx::classify("crates/sim/src/fixture.rs")
    };
    ctx.path = format!("fixtures/{name}.rs");
    ctx
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

#[test]
fn fixtures_match_golden_output() {
    let dir = fixtures_dir();
    let mut names: Vec<String> = fs::read_dir(&dir)
        .expect("fixtures directory exists")
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            let f = e.file_name().to_string_lossy().to_string();
            f.strip_suffix(".rs").map(str::to_string)
        })
        .collect();
    names.sort();
    assert!(
        names.len() >= 6,
        "one fixture per rule expected, found {names:?}"
    );

    let bless = std::env::var_os("MRM_LINT_BLESS").is_some();
    for name in names {
        let source = read(&dir.join(format!("{name}.rs")));
        let report = lint_source(&source, &fixture_ctx(&name));
        let mut actual = String::new();
        for v in &report.violations {
            actual.push_str(&v.render());
            actual.push('\n');
        }
        assert!(
            !report.violations.is_empty(),
            "fixture {name} must contain at least one violation"
        );
        let expected_path = dir.join(format!("{name}.expected"));
        if bless {
            fs::write(&expected_path, &actual)
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", expected_path.display()));
            continue;
        }
        let expected = read(&expected_path);
        assert_eq!(
            actual, expected,
            "golden mismatch for fixture {name}; run MRM_LINT_BLESS=1 cargo test -p mrm-lint \
             and review the diff"
        );
    }
}

/// The D9 fixture is a two-crate workspace directory (a single file cannot
/// demonstrate a cross-crate chain by construction); it is linted with
/// `lint_workspace` and blessed against its own golden file.
#[test]
fn ws_d9_fixture_matches_golden_with_full_chain() {
    let dir = fixtures_dir();
    let violations =
        lint_workspace(&dir.join("ws_d9_transitive")).expect("workspace fixture lints");
    let mut actual = String::new();
    for v in &violations {
        actual.push_str(&v.render());
        actual.push('\n');
    }
    assert!(
        violations.iter().any(|v| v.rule == RuleId::D9),
        "workspace fixture must trigger D9: {actual}"
    );
    // The acceptance check: the golden encodes a full chain, entry
    // point -> helper -> forbidden sink, with file:line hops.
    let d9 = violations
        .iter()
        .find(|v| v.rule == RuleId::D9)
        .expect("D9 violation present");
    for hop in ["run_cluster", "stage_cost", "observed_latency", "Instant"] {
        assert!(
            d9.message.contains(hop),
            "chain missing `{hop}`: {}",
            d9.message
        );
    }
    assert!(
        d9.message.contains("crates/util/src/lib.rs"),
        "chain names the sink file: {}",
        d9.message
    );
    assert!(
        d9.related.len() >= 2,
        "chain hops are attached as related sites: {:?}",
        d9.related
    );

    let expected_path = dir.join("ws_d9_transitive.expected");
    if std::env::var_os("MRM_LINT_BLESS").is_some() {
        fs::write(&expected_path, &actual)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", expected_path.display()));
        return;
    }
    assert_eq!(
        actual,
        read(&expected_path),
        "golden mismatch for ws_d9_transitive; run MRM_LINT_BLESS=1 cargo test -p mrm-lint"
    );
}

#[test]
fn every_rule_has_fixture_coverage() {
    let dir = fixtures_dir();
    let mut seen: Vec<RuleId> = Vec::new();
    for entry in fs::read_dir(&dir).expect("fixtures directory exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_some_and(|e| e == "rs") {
            let name = path
                .file_stem()
                .map(|s| s.to_string_lossy().to_string())
                .unwrap_or_default();
            let source = read(&path);
            for v in lint_source(&source, &fixture_ctx(&name)).violations {
                if !seen.contains(&v.rule) {
                    seen.push(v.rule);
                }
            }
        }
    }
    // D9 is covered by the workspace-directory fixture.
    for v in lint_workspace(&dir.join("ws_d9_transitive")).expect("workspace fixture lints") {
        if !seen.contains(&v.rule) {
            seen.push(v.rule);
        }
    }
    for rule in RuleId::ALL {
        assert!(
            seen.contains(&rule),
            "no fixture triggers {}",
            rule.as_str()
        );
    }
}

#[test]
fn allow_annotations_suppress_in_fixtures() {
    // Every fixture with a `mrm-lint: allow` comment must lint clean on the
    // annotated line (the golden files encode the remaining violations; here
    // we assert the suppression is real by deleting the annotations and
    // seeing the count rise).
    let dir = fixtures_dir();
    for name in [
        "d1_wall_clock",
        "d2_hash_map",
        "d5_unwrap",
        "d6_fault_rng",
        "d7_decision_api",
        "d10_rng_taint",
        "u1_units",
        "u2_interproc_units",
    ] {
        let source = read(&dir.join(format!("{name}.rs")));
        let with = lint_source(&source, &fixture_ctx(name)).violations.len();
        let stripped: String = source
            .lines()
            .map(|l| {
                if l.trim_start().starts_with("// mrm-lint: allow") {
                    ""
                } else {
                    l
                }
            })
            .collect::<Vec<_>>()
            .join("\n");
        let without = lint_source(&stripped, &fixture_ctx(name)).violations.len();
        assert!(
            without > with,
            "{name}: removing allow annotations must surface more violations \
             ({with} -> {without})"
        );
    }
}

// ---------------------------------------------------------------------------
// End-to-end: the binary against scratch workspaces
// ---------------------------------------------------------------------------

struct Scratch {
    root: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("mrm-lint-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        fs::write(root.join("Cargo.toml"), "[workspace]\n").expect("write scratch manifest");
        Scratch { root }
    }

    fn file(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("file path has a parent"))
            .expect("create scratch dirs");
        fs::write(path, contents).expect("write scratch file");
    }

    fn run(&self, extra: &[&str]) -> (bool, String) {
        let out = Command::new(env!("CARGO_BIN_EXE_mrm-lint"))
            .arg("--root")
            .arg(&self.root)
            .args(extra)
            .output()
            .expect("spawn mrm-lint");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        (out.status.success(), text)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
    }
}

#[test]
fn deny_exits_nonzero_on_violations_and_zero_when_clean() {
    let ws = Scratch::new("deny");
    ws.file(
        "crates/sim/src/lib.rs",
        "use std::collections::HashMap;\npub fn t() { let _ = Instant::now(); }\n",
    );
    let (ok, text) = ws.run(&["--deny"]);
    assert!(!ok, "--deny must fail on violations:\n{text}");
    assert!(text.contains("D2"), "expected a D2 diagnostic:\n{text}");
    assert!(text.contains("D1"), "expected a D1 diagnostic:\n{text}");
    // Without --deny the same run reports but exits 0.
    let (ok, _) = ws.run(&[]);
    assert!(ok, "report mode always exits zero");

    let clean = Scratch::new("clean");
    clean.file(
        "crates/sim/src/lib.rs",
        "use std::collections::BTreeMap;\npub fn t(m: &BTreeMap<u32, u32>) -> usize { m.len() }\n",
    );
    let (ok, text) = clean.run(&["--deny"]);
    assert!(ok, "clean workspace must pass --deny:\n{text}");

    // A single warning-severity D5 site fails --deny: there is no debt
    // allowance.
    let d5 = Scratch::new("single-d5");
    d5.file(
        "crates/foo/src/lib.rs",
        "pub fn a(x: Option<u32>) -> u32 { x.unwrap() }\n",
    );
    let (ok, text) = d5.run(&["--deny"]);
    assert!(!ok, "one D5 site must fail --deny:\n{text}");
    assert!(text.contains("D5"), "expected a D5 diagnostic:\n{text}");
    assert!(text.contains("0 error(s), 1 warning(s)"), "{text}");
}

#[test]
fn fixture_corpus_fails_deny_when_walked() {
    // The acceptance check: pointing the lint at the violation corpus
    // exits nonzero. Copy the fixtures into a scratch workspace laid out so
    // every rule's gate applies (sim-path / telemetry / library).
    let ws = Scratch::new("corpus");
    let dir = fixtures_dir();
    for entry in fs::read_dir(&dir).expect("fixtures directory exists") {
        let path = entry.expect("readable entry").path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let name = path
            .file_name()
            .map(|s| s.to_string_lossy().to_string())
            .unwrap_or_default();
        let dest = if name.starts_with("d4_") {
            format!("crates/telemetry/src/{name}")
        } else if name.starts_with("d6_") {
            format!("crates/faults/src/{name}")
        } else if name.starts_with("d7_") {
            format!("crates/tiering/src/{name}")
        } else {
            format!("crates/sim/src/{name}")
        };
        ws.file(&dest, &read(&path));
    }
    let (ok, text) = ws.run(&["--deny"]);
    assert!(!ok, "fixture corpus must fail --deny:\n{text}");
    for rule in ["D1", "D2", "D3", "D4", "D5", "D6", "D7", "D10", "U1", "U2"] {
        assert!(text.contains(rule), "corpus run missing {rule}:\n{text}");
    }
}

#[test]
fn transitive_wall_clock_fails_deny_while_direct_helper_is_invisible_lexically() {
    // The acceptance check for D9: a sim entry point whose helper chain
    // crosses into a non-sim crate and reads the wall clock there must fail
    // `--deny`, with the full chain in the diagnostic. The same helper with
    // no path from an entry point stays clean (reachability, not presence).
    let ws = Scratch::new("d9");
    ws.file(
        "crates/sim/src/lib.rs",
        "pub fn run_epoch(n: u64) -> u64 {\n    cost_model(n)\n}\n\
         fn cost_model(n: u64) -> u64 {\n    mrm_util::sampled_now(n)\n}\n",
    );
    ws.file(
        "crates/util/src/lib.rs",
        "pub fn sampled_now(n: u64) -> u64 {\n    n + Instant::now().elapsed().as_nanos() as u64\n}\n",
    );
    let (ok, text) = ws.run(&["--deny"]);
    assert!(!ok, "transitive wall-clock must fail --deny:\n{text}");
    assert!(text.contains("D9"), "expected a D9 diagnostic:\n{text}");
    for hop in ["run_epoch", "cost_model", "sampled_now"] {
        assert!(text.contains(hop), "chain missing `{hop}`:\n{text}");
    }

    // Sever the chain: the helper still reads the clock, but no sim entry
    // reaches it, so the workspace passes.
    let severed = Scratch::new("d9-severed");
    severed.file(
        "crates/sim/src/lib.rs",
        "pub fn run_epoch(n: u64) -> u64 {\n    n * 2\n}\n",
    );
    severed.file(
        "crates/util/src/lib.rs",
        "pub fn sampled_now(n: u64) -> u64 {\n    n + Instant::now().elapsed().as_nanos() as u64\n}\n",
    );
    let (ok, text) = severed.run(&["--deny"]);
    assert!(ok, "unreachable helper must pass --deny:\n{text}");
}

#[test]
fn sarif_output_is_well_formed_and_carries_code_flows() {
    let ws = Scratch::new("sarif");
    ws.file(
        "crates/sim/src/lib.rs",
        "pub fn run_epoch(n: u64) -> u64 {\n    mrm_util::sampled_now(n)\n}\n",
    );
    ws.file(
        "crates/util/src/lib.rs",
        "pub fn sampled_now(n: u64) -> u64 {\n    n + Instant::now().elapsed().as_nanos() as u64\n}\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_mrm-lint"))
        .arg("--root")
        .arg(&ws.root)
        .arg("--format")
        .arg("sarif")
        .output()
        .expect("spawn mrm-lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Stdout is the SARIF document and nothing else: machine-consumable.
    assert!(
        stdout.trim_start().starts_with('{') && stdout.trim_end().ends_with('}'),
        "sarif stdout must be a single JSON object:\n{stdout}"
    );
    for needle in [
        "\"version\":\"2.1.0\"",
        "sarif-2.1.0.json",
        "\"ruleId\":\"D9\"",
        "\"codeFlows\"",
        "\"relatedLocations\"",
        "mrm-lint",
    ] {
        assert!(stdout.contains(needle), "sarif missing {needle}:\n{stdout}");
    }
}

#[test]
fn explain_and_dump_callgraph_flags() {
    let ws = Scratch::new("cli");
    ws.file(
        "crates/sim/src/lib.rs",
        "pub fn run_epoch(n: u64) -> u64 {\n    helper(n)\n}\nfn helper(n: u64) -> u64 {\n    n\n}\n",
    );
    let (ok, text) = ws.run(&["--explain", "D9"]);
    assert!(ok, "--explain D9 exits zero:\n{text}");
    assert!(
        text.contains("transitively") || text.contains("call chain"),
        "--explain D9 describes the analysis:\n{text}"
    );
    let (ok, _) = ws.run(&["--explain", "Z99"]);
    assert!(!ok, "--explain with an unknown rule must fail");

    let (ok, text) = ws.run(&["--dump-callgraph"]);
    assert!(ok, "--dump-callgraph exits zero:\n{text}");
    assert!(text.contains("digraph"), "DOT output expected:\n{text}");
    assert!(
        text.contains("run_epoch") && text.contains("helper"),
        "callgraph names reachable functions:\n{text}"
    );
}

// ---------------------------------------------------------------------------
// Self-checks against the real workspace
// ---------------------------------------------------------------------------

#[test]
fn lint_is_clean_on_its_own_sources() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let own: Vec<String> = mrm_lint::walk::workspace_sources(&root)
        .expect("workspace walk succeeds")
        .into_iter()
        .filter(|f| f.starts_with("crates/lint/"))
        .collect();
    assert!(!own.is_empty(), "walk must see the lint's own sources");
    assert!(
        own.iter().all(|f| !f.contains("fixtures")),
        "fixtures must be excluded from the walk: {own:?}"
    );
    for rel in own {
        let source = read(&root.join(&rel));
        let report = lint_source(&source, &FileCtx::classify(&rel));
        assert!(
            report.violations.is_empty(),
            "mrm-lint must be clean on {rel}: {:?}",
            report.violations
        );
    }
}

#[test]
fn workspace_is_interprocedurally_clean() {
    // The real workspace must hold the D9/D10/U2 invariants without any
    // suppressions beyond what the sources annotate, and its call graph
    // must be non-trivial (entry points exist and reach helper crates).
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let analysis = analyze_workspace(&root).expect("workspace analyzes");
    let interproc: Vec<_> = analysis
        .violations
        .iter()
        .filter(|v| matches!(v.rule, RuleId::D9 | RuleId::D10 | RuleId::U2))
        .collect();
    assert!(
        interproc.is_empty(),
        "workspace must be D9/D10/U2-clean: {interproc:?}"
    );
    let dot = analysis.callgraph_dot();
    assert!(
        dot.contains("digraph") && dot.contains("->"),
        "workspace call graph must have reachable edges"
    );
}

#[test]
fn workspace_passes_deny() {
    let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    let out = Command::new(env!("CARGO_BIN_EXE_mrm-lint"))
        .arg("--root")
        .arg(&root)
        .arg("--deny")
        .output()
        .expect("spawn mrm-lint");
    assert!(
        out.status.success(),
        "the workspace must pass `mrm-lint --deny`:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}
