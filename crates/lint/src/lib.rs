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
//! * **Lexical** (D1–D8, U1): per-line token scans, path-gated by
//!   [`rules::FileCtx`].
//! * **Interprocedural** (D9, D10, U2): an item parser ([`parse`]) feeds a
//!   workspace symbol table ([`symbols`]) and call graph ([`callgraph`]);
//!   [`dataflow`] then walks reachability from sim entry points (D9), runs
//!   a per-function RNG-taint pass (D10), and propagates unit-suffix
//!   dimensions through bindings and call boundaries (U2).
//!
//! See [`rules`] for the catalogue, [`sarif`] for the SARIF 2.1.0
//! reporter, and the `mrm-lint` binary for the CLI.
//!
//! ```
//! use mrm_lint::rules::{lint_source, FileCtx, RuleId};
//!
//! let ctx = FileCtx::classify("crates/tiering/src/prefix.rs");
//! let report = lint_source("use std::collections::HashMap;", &ctx);
//! assert_eq!(report.violations[0].rule, RuleId::D2);
//! ```

pub mod callgraph;
pub mod dataflow;
pub mod lexer;
pub mod parse;
pub mod rules;
pub mod sarif;
pub mod symbols;
pub mod walk;

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::Path;

use callgraph::CallGraph;
use rules::{scan_lexical, FileCtx, Violation};
use symbols::{FileEntry, SymbolTable};

/// The full result of analyzing a workspace: the merged diagnostics plus
/// the symbol table and call graph they were computed on (kept for
/// `--dump-callgraph` and the tests' oracles).
pub struct WorkspaceAnalysis {
    /// All violations, sorted by (path, line, rule), suppression applied.
    pub violations: Vec<Violation>,
    pub table: SymbolTable,
    pub graph: CallGraph,
}

impl WorkspaceAnalysis {
    /// DOT export of the sim-reachable subgraph (entry points render as
    /// boxes), for `--dump-callgraph` and DESIGN.md.
    pub fn callgraph_dot(&self) -> String {
        let entries = dataflow::entry_points(&self.table);
        let parent = self.graph.reachable_from(&entries);
        let keep: BTreeSet<symbols::FnId> = parent.keys().copied().collect();
        self.graph.to_dot(&self.table, &keep, &entries)
    }
}

/// Analyzes every auditable source file under `root`: lexical rules per
/// file, then the workspace-wide interprocedural pass.
///
/// The lexical layer runs in two passes: the first discovers
/// `#[cfg(test)] mod x;` declarations so the out-of-line module files they
/// point at (e.g. `crates/sim/src/proptests.rs`) are re-linted as test
/// code, where D5 does not apply. The same downgraded context feeds the
/// symbol table, so test-only modules contribute no callable definitions
/// either.
pub fn analyze_workspace(root: &Path) -> io::Result<WorkspaceAnalysis> {
    let files = walk::workspace_sources(root)?;
    let mut sources = Vec::with_capacity(files.len());
    let mut test_only_files: Vec<String> = Vec::new();
    for rel in &files {
        let source = fs::read_to_string(root.join(rel))?;
        let scan = scan_lexical(&source, &FileCtx::classify(rel));
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
        let mut ctx = FileCtx::classify(rel);
        if test_only_files.contains(rel) {
            ctx.library = false;
        }
        scans.push(scan_lexical(source, &ctx));
        entries.push(FileEntry {
            parsed: parse::parse_file(source),
            ctx,
        });
    }

    let table = SymbolTable::build(entries);
    let graph = CallGraph::build(&table);

    // Interprocedural findings, routed to their anchor file's suppression
    // state (an `allow(D9)` sits at the chain's first call site, etc.).
    let mut inter: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    let mut route = |vs: Vec<Violation>| {
        for v in vs {
            inter.entry(v.path.clone()).or_default().push(v);
        }
    };
    for file_idx in 0..table.files.len() {
        route(dataflow::analyze_file(&table, file_idx));
    }
    route(dataflow::analyze_d9(&table, &graph));

    let mut violations = Vec::new();
    for ((rel, _), mut scan) in sources.iter().zip(scans) {
        if let Some(vs) = inter.remove(rel.as_str()) {
            scan.raw.extend(vs);
        }
        violations.extend(scan.finish());
    }
    // Findings whose anchor fell outside the walked set (cannot happen for
    // well-formed tables, but never silently drop a diagnostic).
    for (_, vs) in inter {
        violations.extend(vs);
    }
    violations.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(WorkspaceAnalysis {
        violations,
        table,
        graph,
    })
}

/// Lints every auditable source file under `root`. Convenience wrapper
/// around [`analyze_workspace`] for callers that only need diagnostics.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    Ok(analyze_workspace(root)?.violations)
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
