//! # `mrm-lint` — workspace determinism & unit-safety auditor
//!
//! The paper's quantitative claims are reproducible only because every
//! simulation in this workspace is bit-identical for a given seed at any
//! thread count. That contract (DESIGN.md §3.8) was previously enforced
//! only by runtime golden tests — `sweep_determinism.rs`,
//! `telemetry_determinism.rs` — which catch a violation long after it is
//! introduced. `mrm-lint` moves the check to the source level: a
//! dependency-free token scan over the workspace that names each invariant
//! as a severity-ranked rule, and fails CI the moment one is broken.
//!
//! Two layers of analysis (DESIGN.md §6):
//!
//! * **Lexical** (D5, D8, U1): per-line token scans, path-gated by
//!   [`rules::FileCtx`]. The sim path that gates D8 is read from the
//!   workspace's Cargo manifests ([`manifest`]).
//! * **Interprocedural** (D10, U2): an item parser ([`parse`]) feeds a
//!   workspace symbol table ([`symbols`]) and name-based call resolution
//!   ([`calls`]); [`dataflow`] then runs a per-function RNG-taint pass
//!   (D10) and propagates unit-suffix dimensions through bindings and call
//!   boundaries (U2).
//!
//! The name bans — wall clock, unordered maps and ambient entropy on the sim
//! path, and the per-crate `SimRng`, event-queue and decision-API bans — are
//! clippy's `disallowed-types`/`disallowed-methods`, scoped by the
//! workspace's `clippy.toml` files, which resolve paths instead of matching
//! identifier text.
//!
//! See [`rules`] for the catalogue, [`sarif`] for the SARIF 2.1.0
//! reporter, and the `mrm-lint` binary for the CLI.
//!
//! ```
//! use std::path::Path;
//! use mrm_lint::manifest::sim_path_crates;
//! use mrm_lint::rules::{lint_source, FileCtx, RuleId};
//! use mrm_lint::walk::find_workspace_root;
//!
//! let root = find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
//!     .expect("the lint crate lives inside the workspace");
//! let sim = sim_path_crates(&root).expect("workspace manifests are readable");
//! let ctx = FileCtx::classify("crates/tiering/src/prefix.rs", &sim);
//! let src = "fn draw(&mut self) { self.rng.next_u64(); self.tracer.mark(); }";
//! let report = lint_source(src, &ctx);
//! assert_eq!(report.violations[0].rule, RuleId::D8);
//! ```

pub mod calls;
pub mod dataflow;
pub mod lexer;
pub mod manifest;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod walk;

use std::fs;
use std::io;
use std::path::Path;

use rules::{scan_lexical, FileCtx, Violation};
use symbols::{FileEntry, SymbolTable};

/// Lints every auditable source file under `root`: lexical rules per file,
/// then the workspace-wide interprocedural pass. Returns all violations,
/// sorted by (path, line, rule), suppression applied.
///
/// Fails when the walk cannot read a file, or when `root`'s manifests do
/// not yield a sim path ([`manifest::sim_path_crates`]).
///
/// The lexical layer runs in two passes: the first discovers
/// `#[cfg(test)] mod x;` declarations so the out-of-line module files they
/// point at (e.g. `crates/sim/src/proptests.rs`) are re-linted as test
/// code, where D5 does not apply. The same downgraded context feeds the
/// symbol table, so test-only modules contribute no callable definitions
/// either.
pub fn analyze_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let sim_crates = manifest::sim_path_crates(root)?;
    let files = walk::workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    let mut test_only_files: Vec<String> = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let scan = scan_lexical(&source, &FileCtx::classify(rel, &sim_crates));
        for m in &scan.test_only_modules {
            test_only_files.extend(test_module_candidates(rel, m));
        }
        sources.push((rel.clone(), source));
    }

    // Second pass with the effective (possibly downgraded) context, feeding
    // both the lexical scans and the symbol table.
    let mut scans = Vec::with_capacity(sources.len());
    let mut entries = Vec::with_capacity(sources.len());
    for (rel, source) in &sources {
        let mut ctx = FileCtx::classify(rel, &sim_crates);
        if test_only_files.contains(rel) {
            ctx.library = false;
        }
        scans.push(scan_lexical(source, &ctx));
        entries.push(FileEntry {
            parsed: parse::parse_file(source),
            ctx,
        });
    }

    // Interprocedural findings anchor in the file they are computed for,
    // so each joins that file's suppression state.
    let table = SymbolTable::build(entries);
    let mut violations = Vec::new();
    for (file_idx, mut scan) in scans.into_iter().enumerate() {
        scan.raw.extend(dataflow::analyze_file(&table, file_idx));
        violations.extend(scan.finish());
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(violations)
}

/// Paths (repo-relative) where `mod name;` declared in `decl_file` may live.
fn test_module_candidates(decl_file: &str, name: &str) -> Vec<String> {
    let (dir, stem) = match decl_file.rsplit_once('/') {
        Some((d, f)) => (d, f.trim_end_matches(".rs")),
        None => ("", decl_file.trim_end_matches(".rs")),
    };
    let base = if matches!(stem, "lib" | "mod" | "main") {
        dir.to_string()
    } else {
        format!("{dir}/{stem}")
    };
    vec![format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_candidates_resolve_siblings_and_subdirs() {
        assert_eq!(
            test_module_candidates("crates/sim/src/lib.rs", "proptests"),
            vec![
                "crates/sim/src/proptests.rs".to_string(),
                "crates/sim/src/proptests/mod.rs".to_string()
            ]
        );
        assert_eq!(
            test_module_candidates("crates/x/src/foo.rs", "inner"),
            vec![
                "crates/x/src/foo/inner.rs".to_string(),
                "crates/x/src/foo/inner/mod.rs".to_string()
            ]
        );
    }
}
