//! The sim path, read from the workspace's Cargo manifests.
//!
//! D8 applies to the crates whose code runs on the simulated timeline, and
//! the workspace's `clippy.toml` files give exactly those crates the
//! wall-clock, unordered-map and entropy bans (a pin test in
//! `tests/lint_tests.rs` holds the two in step). That set is derived, not
//! kept by hand: it is the `[dependencies]` closure of `mrm-tiering` (which
//! runs the cluster simulation) over the workspace members, minus the
//! observe-only `mrm-telemetry` and `mrm-obs`. A crate `mrm-tiering` comes
//! to link is on the sim path as soon as the manifest edge exists, and one
//! it stops linking leaves it. Dev-dependencies are test code and stay out.
//!
//! The reader knows the part of TOML that Cargo manifests use for these
//! facts: section headers, `key = value` lines, one-line inline tables,
//! `[dependencies.name]` tables, and `members` arrays that may span lines.
//! A member pattern may glob only its last segment (`crates/*`).

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

/// The crate whose dependency closure is the sim path.
const SIM_ROOT: &str = "mrm-tiering";

/// Crates the sim links that are held observe-only by their own contracts
/// (their `clippy.toml` files, D8 and the byte-identity CI smokes):
/// attaching them cannot perturb a run, and the wall profiler in `mrm-obs`
/// reads wall-clock by design.
/// The closure neither includes nor walks through them.
const OBSERVE_ONLY: [&str; 2] = ["mrm-telemetry", "mrm-obs"];

/// What one manifest says about the sim path.
#[derive(Debug, Default, PartialEq)]
struct Manifest {
    /// `[package] name`.
    name: Option<String>,
    /// Package names of the `[dependencies]` entries, following a
    /// `package = "..."` rename where the dependency is declared.
    deps: Vec<String>,
    /// `[workspace] members` patterns.
    members: Vec<String>,
}

/// Returns the sim-path crates of the workspace at `root`, named by their
/// `crates/<name>` directory (the naming `FileCtx` classifies paths by).
/// Members outside `crates/` (the vendored stand-ins) are followed but not
/// named: the workspace walk never audits them.
///
/// Fails when `root` has no readable workspace manifest, a member manifest
/// cannot be read, or no member is named `mrm-tiering`: an empty sim path
/// would switch D8 off without a word.
pub fn sim_path_crates(root: &Path) -> io::Result<BTreeSet<String>> {
    let ws_path = root.join("Cargo.toml");
    let ws_text = fs::read_to_string(&ws_path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot read workspace manifest {}: {e}", ws_path.display()),
        )
    })?;
    if !ws_text.contains("[workspace]") {
        return Err(invalid(format!(
            "{} declares no [workspace]",
            ws_path.display()
        )));
    }
    let ws = parse(&ws_text);

    // Package name -> (member directory, dependencies).
    let mut members: BTreeMap<String, (String, Vec<String>)> = BTreeMap::new();
    for pattern in &ws.members {
        for dir in expand_member(root, pattern)? {
            let path = root.join(&dir).join("Cargo.toml");
            let text = fs::read_to_string(&path).map_err(|e| {
                io::Error::new(
                    e.kind(),
                    format!("cannot read member manifest {}: {e}", path.display()),
                )
            })?;
            let m = parse(&text);
            if let Some(name) = m.name {
                members.insert(name, (dir, m.deps));
            }
        }
    }
    if !members.contains_key(SIM_ROOT) {
        return Err(invalid(format!(
            "no `{SIM_ROOT}` member in the workspace at {}: the sim path is its \
             dependency closure and cannot be derived without it",
            root.display()
        )));
    }

    let mut closure = BTreeSet::new();
    let mut stack = vec![SIM_ROOT.to_string()];
    while let Some(name) = stack.pop() {
        if OBSERVE_ONLY.contains(&name.as_str()) || !closure.insert(name.clone()) {
            continue;
        }
        if let Some((_, deps)) = members.get(&name) {
            stack.extend(deps.iter().cloned());
        }
    }
    Ok(closure
        .iter()
        .filter_map(|name| members.get(name)?.0.strip_prefix("crates/"))
        .map(str::to_string)
        .collect())
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Root-relative member directories for one `members` pattern, sorted.
fn expand_member(root: &Path, pattern: &str) -> io::Result<Vec<String>> {
    let Some(parent) = pattern.strip_suffix("/*") else {
        return Ok(vec![pattern.to_string()]);
    };
    let dir = root.join(parent);
    let entries = fs::read_dir(&dir).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot list members {}: {e}", dir.display()),
        )
    })?;
    let mut out: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().join("Cargo.toml").is_file())
        .map(|e| format!("{parent}/{}", e.file_name().to_string_lossy()))
        .collect();
    out.sort();
    Ok(out)
}

fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut lines = text.lines();
    while let Some(raw) = lines.next() {
        let line = strip_comment(raw).trim();
        if let Some(header) = line.strip_prefix('[').and_then(|h| h.strip_suffix(']')) {
            section = header.trim().to_string();
            if let Some(dep) = section.strip_prefix("dependencies.") {
                m.deps.push(unquote(dep));
            }
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let (key, value) = (key.trim(), value.trim());
        match section.as_str() {
            "package" if key == "name" => m.name = Some(unquote(value)),
            "workspace" if key == "members" => {
                let mut array = value.to_string();
                while !array.contains(']') {
                    let Some(next) = lines.next() else { break };
                    array.push_str(strip_comment(next));
                }
                m.members = quoted_strings(&array);
            }
            // `name = ...` or dotted `name.workspace = true`.
            "dependencies" => {
                let name = unquote(key.split('.').next().unwrap_or(key));
                m.deps.push(inline_package(value).unwrap_or(name));
            }
            s if s.starts_with("dependencies.") && key == "package" => {
                if let Some(last) = m.deps.last_mut() {
                    *last = unquote(value);
                }
            }
            _ => {}
        }
    }
    m
}

/// The `package = "..."` rename inside an inline table, if any.
fn inline_package(value: &str) -> Option<String> {
    let body = value.strip_prefix('{')?.strip_suffix('}')?;
    body.split(',').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k.trim() == "package").then(|| unquote(v.trim()))
    })
}

/// The line up to a `#` comment. A `#` inside a string cuts it too, which
/// only a value this reader ignores (a description) can contain.
fn strip_comment(line: &str) -> &str {
    line.split('#').next().unwrap_or(line)
}

fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

/// Every `"..."` string in `s`, in order.
fn quoted_strings(s: &str) -> Vec<String> {
    s.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
pub(crate) fn workspace_sim_crates() -> BTreeSet<String> {
    let root = crate::walk::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("lint crate lives inside the workspace");
    sim_path_crates(&root).expect("workspace manifests are readable")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_names_deps_and_members() {
        let m = parse(
            "[workspace]\nmembers = [\n  \"crates/*\", # the crates\n  \"tools/gen\",\n]\n\
             [package]\nname = \"mrm-x\" # trailing comment\n\
             [dependencies]\nmrm-sim.workspace = true\n\
             local = { path = \"../y\", package = \"mrm-y\" }\n\
             serde = \"1\"\n\
             [dependencies.mrm-z]\npath = \"../z\"\n\
             [dependencies.alias]\npackage = \"mrm-w\"\n\
             [dev-dependencies]\nproptest.workspace = true\n",
        );
        assert_eq!(
            m,
            Manifest {
                name: Some("mrm-x".into()),
                deps: vec![
                    "mrm-sim".into(),
                    "mrm-y".into(),
                    "serde".into(),
                    "mrm-z".into(),
                    "mrm-w".into()
                ],
                members: vec!["crates/*".into(), "tools/gen".into()],
            }
        );
    }

    #[test]
    fn real_workspace_sim_path_is_pinned() {
        // The D8 and clippy.toml scope. A manifest edit that widens or narrows
        // it changes this list in the same diff.
        let expected: BTreeSet<String> = [
            "sim",
            "core",
            "device",
            "controller",
            "control",
            "tiering",
            "workload",
            "ecc",
            "faults",
        ]
        .into_iter()
        .map(str::to_string)
        .collect();
        assert_eq!(workspace_sim_crates(), expected);
    }
}
