//! Deterministic workspace walk.
//!
//! Collects the `.rs` files the lint audits: everything under `crates/`,
//! `src/`, `tests/`, `benches/` and `examples/` at the workspace root,
//! skipping `vendor/` (offline stand-ins for external crates are not held to
//! workspace invariants), `target/` (build output), `fixtures/` (the lint's
//! own violation corpora must not fail the lint), and VCS metadata. Files
//! come back sorted so diagnostics and SARIF output are stable across runs
//! and machines.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 5] = ["target", "vendor", "fixtures", ".git", "node_modules"];

/// Top-level entries under the root that contain auditable sources.
const ROOTS: [&str; 5] = ["crates", "src", "tests", "benches", "examples"];

/// Returns repo-relative (forward-slash) paths of every auditable `.rs`
/// file under `root`, sorted.
pub fn workspace_sources(root: &Path) -> io::Result<Vec<String>> {
    let mut out = Vec::new();
    for top in ROOTS {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(&dir, &mut out)?;
        }
    }
    let mut rel: Vec<String> = out
        .iter()
        .filter_map(|p| p.strip_prefix(root).ok())
        .map(|p| {
            p.components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/")
        })
        .collect();
    rel.sort();
    Ok(rel)
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().to_string())
                .unwrap_or_default();
            if SKIP_DIRS.contains(&name.as_str()) {
                continue;
            }
            collect(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Finds the workspace root: the nearest ancestor of `start` containing a
/// `Cargo.toml` that declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_skips_vendor_target_fixtures() {
        let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("lint crate lives inside the workspace");
        let files = workspace_sources(&root).expect("workspace is readable");
        assert!(!files.is_empty());
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files.iter().all(|f| !f.contains("/target/")));
        assert!(files.iter().all(|f| !f.contains("/fixtures/")));
        assert!(files.iter().any(|f| f == "crates/sim/src/units.rs"));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order is deterministic");
    }
}
