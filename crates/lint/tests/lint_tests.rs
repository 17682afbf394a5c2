//! Integration tests for `mrm-lint`: fixture corpora with golden output,
//! suppression via annotations, end-to-end `--deny` exit codes, the
//! self-check that the lint is clean on its own sources, D10/U2 firing
//! on mutated copies of real workspace files, and the pin that keeps the
//! workspace's `clippy.toml` name bans in step with the sim path.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace walk)
//! and are consumed as *text*, never compiled. Each `<name>.rs` has a
//! `<name>.expected` golden file; regenerate with
//! `MRM_LINT_BLESS=1 cargo test -p mrm-lint`.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mrm_lint::analyze_workspace;
use mrm_lint::manifest::sim_path_crates;
use mrm_lint::rules::{lint_source, FileCtx, RuleId, Violation};
use mrm_lint::walk::find_workspace_root;

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn workspace_root() -> PathBuf {
    find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace")
}

/// The real workspace's sim path, as `mrm-lint` derives it.
fn sim_crates() -> BTreeSet<String> {
    sim_path_crates(&workspace_root()).expect("workspace manifests are readable")
}

/// The context each fixture is linted under: rules are path-gated, so each
/// corpus pretends to live where its rule applies in this workspace.
fn fixture_ctx(name: &str) -> FileCtx {
    let path = if name.starts_with("d8_") {
        "crates/tiering/src/fixture.rs"
    } else {
        "crates/sim/src/fixture.rs"
    };
    let mut ctx = FileCtx::classify(path, &sim_crates());
    ctx.path = format!("fixtures/{name}.rs");
    ctx
}

fn render(violations: &[Violation]) -> String {
    violations.iter().map(|v| v.render() + "\n").collect()
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
        names.len() >= RuleId::ALL.len(),
        "one fixture per rule expected, found {names:?}"
    );

    let bless = std::env::var_os("MRM_LINT_BLESS").is_some();
    for name in names {
        let source = read(&dir.join(format!("{name}.rs")));
        let report = lint_source(&source, &fixture_ctx(&name));
        let actual = render(&report.violations);
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

/// The closure fixture is a workspace directory with manifests (a single
/// file cannot show a dependency edge): `mrm-tiering` links `mrm-pacing`, a
/// crate no list names, whose jitter draw touches the tracer. Its golden
/// shows D8 there. The observe-only `mrm-obs` and the unlinked `mrm-tools`
/// touch the tracer next to a pop or a draw too and stay clean.
#[test]
fn ws_closure_fixture_matches_golden() {
    let dir = fixtures_dir();
    let violations = analyze_workspace(&dir.join("ws_closure")).expect("workspace fixture lints");
    let actual = render(&violations);
    assert!(
        !violations.is_empty()
            && violations
                .iter()
                .all(|v| v.rule == RuleId::D8 && v.path == "crates/pacing/src/lib.rs"),
        "D8 must fire in the linked crate and nowhere else:\n{actual}"
    );

    let expected_path = dir.join("ws_closure.expected");
    if std::env::var_os("MRM_LINT_BLESS").is_some() {
        fs::write(&expected_path, &actual)
            .unwrap_or_else(|e| panic!("cannot bless {}: {e}", expected_path.display()));
        return;
    }
    assert_eq!(
        actual,
        read(&expected_path),
        "golden mismatch for ws_closure; run MRM_LINT_BLESS=1 cargo test -p mrm-lint"
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
        "d5_unwrap",
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
    /// A workspace whose `mrm-tiering` links the crates `links`.
    fn new(tag: &str, links: &[&str]) -> Scratch {
        let ws = Scratch::bare(tag);
        ws.file("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
        ws.link(links);
        ws
    }

    /// An empty directory.
    fn bare(tag: &str) -> Scratch {
        let root = std::env::temp_dir().join(format!("mrm-lint-e2e-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).expect("create scratch root");
        Scratch { root }
    }

    /// (Re)writes `mrm-tiering`'s manifest so it links exactly `links`
    /// (`crates/<name>`), each with a manifest of its own.
    fn link(&self, links: &[&str]) {
        let mut deps = String::new();
        for name in links {
            self.file(
                &format!("crates/{name}/Cargo.toml"),
                &format!("[package]\nname = \"mrm-{name}\"\n"),
            );
            deps.push_str(&format!("mrm-{name} = {{ path = \"../{name}\" }}\n"));
        }
        self.file(
            "crates/tiering/Cargo.toml",
            &format!("[package]\nname = \"mrm-tiering\"\n\n[dependencies]\n{deps}"),
        );
    }

    fn file(&self, rel: &str, contents: &str) {
        let path = self.root.join(rel);
        fs::create_dir_all(path.parent().expect("file path has a parent"))
            .expect("create scratch dirs");
        fs::write(path, contents).expect("write scratch file");
    }

    fn run(&self, extra: &[&str]) -> (bool, String) {
        let out = lint(&self.root, extra);
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

/// Runs the `mrm-lint` binary on `root`.
fn lint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mrm-lint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn mrm-lint")
}

#[test]
fn deny_exits_nonzero_on_violations_and_zero_when_clean() {
    let ws = Scratch::new("deny", &["sim"]);
    ws.file(
        "crates/sim/src/lib.rs",
        "pub fn t(rng: &mut R, o: &mut O) -> u64 { o.tracer.mark(); rng.next_u64() }\n\
         pub const GIB: u64 = 1 << 30;\n",
    );
    let (ok, text) = ws.run(&["--deny"]);
    assert!(!ok, "--deny must fail on violations:\n{text}");
    assert!(text.contains("D8"), "expected a D8 diagnostic:\n{text}");
    assert!(text.contains("U1"), "expected a U1 diagnostic:\n{text}");
    // Without --deny the same run reports but exits 0.
    let (ok, _) = ws.run(&[]);
    assert!(ok, "report mode always exits zero");

    let clean = Scratch::new("clean", &["sim"]);
    clean.file(
        "crates/sim/src/lib.rs",
        "use std::collections::BTreeMap;\npub fn t(m: &BTreeMap<u32, u32>) -> usize { m.len() }\n",
    );
    let (ok, text) = clean.run(&["--deny"]);
    assert!(ok, "clean workspace must pass --deny:\n{text}");

    // A single warning-severity D5 site fails --deny: there is no debt
    // allowance.
    let d5 = Scratch::new("single-d5", &[]);
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
fn root_without_a_sim_path_exits_2() {
    // A wrong `--root` must not pass the gate: with no workspace manifest,
    // or no `mrm-tiering` member, the sim path would be empty and D8
    // silent.
    let missing = Scratch::bare("missing");
    let missing_root = missing.root.join("does-not-exist");
    let empty = Scratch::bare("empty");
    let not_a_workspace = Scratch::bare("not-a-workspace");
    not_a_workspace.file("Cargo.toml", "[package]\nname = \"mrm-tiering\"\n");
    let no_tiering = Scratch::bare("no-tiering");
    no_tiering.file("Cargo.toml", "[workspace]\nmembers = [\"crates/*\"]\n");
    no_tiering.file("crates/sim/Cargo.toml", "[package]\nname = \"mrm-sim\"\n");
    no_tiering.file(
        "crates/sim/src/lib.rs",
        "pub fn t(rng: &mut R, o: &mut O) -> u64 { o.tracer.mark(); rng.next_u64() }\n",
    );
    for (root, why) in [
        (&missing_root, "cannot read workspace manifest"),
        (&empty.root, "cannot read workspace manifest"),
        (&not_a_workspace.root, "declares no [workspace]"),
        (&no_tiering.root, "no `mrm-tiering` member"),
    ] {
        let out = lint(root, &["--deny"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{} must exit 2:\n{stderr}",
            root.display()
        );
        assert!(
            stderr.contains(why),
            "{}: expected `{why}`:\n{stderr}",
            root.display()
        );
        assert!(
            out.stdout.is_empty(),
            "no report for a root that cannot be linted"
        );
    }
}

#[test]
fn fixture_corpus_fails_deny_when_walked() {
    // The acceptance check: pointing the lint at the violation corpus
    // exits nonzero. Copy the fixtures into a scratch workspace laid out so
    // every rule's gate applies (sim-path library).
    let ws = Scratch::new("corpus", &["sim"]);
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
        ws.file(&format!("crates/sim/src/{name}"), &read(&path));
    }
    let (ok, text) = ws.run(&["--deny"]);
    assert!(!ok, "fixture corpus must fail --deny:\n{text}");
    for rule in RuleId::ALL.map(RuleId::as_str) {
        assert!(text.contains(rule), "corpus run missing {rule}:\n{text}");
    }
}

#[test]
fn manifest_dependency_decides_the_sim_path() {
    // `mrm-tiering` links `mrm-pacing`, which no list names and whose draw
    // touches the tracer: D8 fires there and `--deny` fails.
    let ws = Scratch::new("closure", &["pacing"]);
    ws.file(
        "crates/tiering/src/lib.rs",
        "pub fn run_epoch(rng: &mut R, o: &mut O, n: u64) -> u64 {\n    \
         mrm_pacing::sampled_now(rng, o, n)\n}\n",
    );
    ws.file(
        "crates/pacing/src/lib.rs",
        "pub fn sampled_now(rng: &mut R, o: &mut O, n: u64) -> u64 {\n    \
         o.tracer.mark(n);\n    n + rng.next_u64() % 8\n}\n",
    );
    let (ok, text) = ws.run(&["--deny"]);
    assert!(
        !ok,
        "a linked crate tracing beside a draw must fail --deny:\n{text}"
    );
    assert!(
        text.contains("crates/pacing/src/lib.rs:2 D8"),
        "expected D8 in the linked crate:\n{text}"
    );

    // Remove only the manifest edge: `mrm-pacing` stays a workspace member
    // with the same source, but leaves the sim path.
    ws.link(&[]);
    let (ok, text) = ws.run(&["--deny"]);
    assert!(ok, "an unlinked crate is off the sim path:\n{text}");
}

#[test]
fn sarif_output_is_well_formed() {
    let ws = Scratch::new("sarif", &["sim"]);
    ws.file(
        "crates/sim/src/lib.rs",
        "pub fn t(rng: &mut R, o: &mut O) -> u64 {\n    o.tracer.mark();\n    rng.next_u64()\n}\n\
         pub fn caller(lat_ns: u64) {\n    book(lat_ns);\n}\n\
         pub fn book(cost_pj: u64) {}\n",
    );
    let out = lint(&ws.root, &["--format", "sarif"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Stdout is the SARIF document and nothing else: machine-consumable.
    assert!(
        stdout.trim_start().starts_with('{') && stdout.trim_end().ends_with('}'),
        "sarif stdout must be a single JSON object:\n{stdout}"
    );
    for needle in [
        "\"version\":\"2.1.0\"",
        "sarif-2.1.0.json",
        "\"ruleId\":\"D8\"",
        "\"ruleId\":\"U2\"",
        "\"relatedLocations\"",
        "mrm-lint",
    ] {
        assert!(stdout.contains(needle), "sarif missing {needle}:\n{stdout}");
    }
}

#[test]
fn explain_flag() {
    let ws = Scratch::new("cli", &[]);
    let (ok, text) = ws.run(&["--explain", "D8"]);
    assert!(ok, "--explain D8 exits zero:\n{text}");
    assert!(
        text.contains("Cargo") && text.contains("mrm-tiering"),
        "--explain D8 says how the sim path is derived:\n{text}"
    );
    let (ok, _) = ws.run(&["--explain", "Z99"]);
    assert!(!ok, "--explain with an unknown rule must fail");
    // The name bans moved to clippy: their old ids are unknown here.
    let (ok, _) = ws.run(&["--explain", "D1"]);
    assert!(!ok, "--explain D1 must fail: wall-clock bans are clippy's");
    let (ok, text) = ws.run(&["--rules"]);
    let ids: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert!(ok);
    assert_eq!(ids, ["D5", "D8", "D10", "U1", "U2"], "{text}");
}

// ---------------------------------------------------------------------------
// Self-checks against the real workspace
// ---------------------------------------------------------------------------

#[test]
fn lint_is_clean_on_its_own_sources() {
    let root = workspace_root();
    let sim = sim_crates();
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
        let report = lint_source(&source, &FileCtx::classify(&rel, &sim));
        assert!(
            report.violations.is_empty(),
            "mrm-lint must be clean on {rel}: {:?}",
            report.violations
        );
    }
}

/// D10 and U2 fire on real code, not only on fixtures: each case lints an
/// in-memory copy of a real workspace file with one anchored edit. An
/// anchor that no longer occurs fails the test instead of checking nothing.
#[test]
fn d10_and_u2_fire_on_mutated_real_files() {
    let root = workspace_root();
    let sim = sim_crates();
    let cases = [
        // A FaultRng draw feeding the arrival schedule.
        (
            RuleId::D10,
            "crates/tiering/src/cluster.rs",
            "let gap = self.mix.next_interarrival(&mut self.rng);",
            "let gap = SimDuration::from_nanos(self.fault_rng.next_u64() % 1_000);",
        ),
        // The weights shard's age passed as `read_survives`'s `len_bytes`.
        (
            RuleId::U2,
            "crates/tiering/src/cluster.rs",
            "self.read_survives(weights_bytes, self.weights_on_mrm, w_ret, age)",
            "self.read_survives(age_ns, self.weights_on_mrm, w_ret, age)",
        ),
    ];
    for (rule, rel, anchor, mutation) in cases {
        let source = read(&root.join(rel));
        assert_eq!(
            source.matches(anchor).count(),
            1,
            "anchor must occur once in {rel}: {anchor}"
        );
        let ctx = FileCtx::classify(rel, &sim);
        let fired = |src: &str| {
            lint_source(src, &ctx)
                .violations
                .into_iter()
                .filter(|v| v.rule == rule)
                .count()
        };
        let name = rule.as_str();
        assert_eq!(fired(&source), 0, "{rel} is {name}-clean as committed");
        assert_eq!(
            fired(&source.replacen(anchor, mutation, 1)),
            1,
            "{name} must fire once on the mutated {rel}"
        );
    }
}

#[test]
fn workspace_passes_deny() {
    let out = lint(&workspace_root(), &["--deny"]);
    assert!(
        out.status.success(),
        "the workspace must pass `mrm-lint --deny`:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

// ---------------------------------------------------------------------------
// clippy.toml scope
// ---------------------------------------------------------------------------

/// The wall-clock, unordered-map and entropy bans, as `clippy.toml` paths.
const SIM_PATH_BANS: [&str; 7] = [
    "std::time::Instant",
    "std::time::SystemTime",
    "std::collections::HashMap",
    "std::collections::HashSet",
    "std::hash::RandomState",
    "std::time::SystemTime::elapsed",
    "std::time::SystemTime::duration_since",
];

/// Every `path = "..."` a `clippy.toml` bans.
fn banned_paths(path: &Path) -> BTreeSet<String> {
    read(path)
        .lines()
        .filter_map(|l| l.split_once("path = \"")?.1.split('"').next())
        .map(str::to_string)
        .collect()
}

/// Clippy reads a crate's own `clippy.toml`, else the nearest one above it,
/// so each `crates/*` member's effective bans hold the sim-path entries
/// exactly when the manifests put the member on the sim path. The root
/// package always gets them, and the faults and telemetry files carry
/// their own crate's bans.
#[test]
fn clippy_toml_bans_follow_the_sim_path() {
    let root = workspace_root();
    let sim = sim_crates();
    let root_bans = banned_paths(&root.join("clippy.toml"));
    assert!(
        SIM_PATH_BANS.iter().all(|b| root_bans.contains(*b)),
        "the root clippy.toml must hold every sim-path ban: {root_bans:?}"
    );
    let mut members: Vec<String> = fs::read_dir(root.join("crates"))
        .expect("crates/ is listable")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| e.file_name().to_string_lossy().to_string())
        .collect();
    members.sort();
    assert!(members.len() > sim.len(), "members: {members:?}");
    for member in &members {
        let own = root.join("crates").join(member).join("clippy.toml");
        let bans = if own.is_file() {
            banned_paths(&own)
        } else {
            root_bans.clone()
        };
        for ban in SIM_PATH_BANS {
            assert_eq!(
                bans.contains(ban),
                sim.contains(member),
                "crates/{member}: `{ban}` must be banned exactly when the crate is on \
                 the sim path {sim:?}"
            );
        }
    }
    let faults = banned_paths(&root.join("crates/faults/clippy.toml"));
    assert!(faults.contains("mrm_sim::rng::SimRng"), "{faults:?}");
    let telemetry = banned_paths(&root.join("crates/telemetry/clippy.toml"));
    for ban in ["mrm_sim::rng::SimRng", "mrm_sim::event::EventQueue"] {
        assert!(
            telemetry.contains(ban),
            "telemetry must ban {ban}: {telemetry:?}"
        );
    }
}
