//! The workspace symbol table: every `fn` item from every file, flattened
//! into one arena with name-based indexes.
//!
//! Resolution in [`crate::calls`] is conservative class-hierarchy
//! analysis over names — no type inference — so the table's job is just to
//! answer "which workspace functions could this name refer to" quickly:
//! free functions by bare name, methods by method name, and `Type::method`
//! pairs by qualified name. Only *library* files contribute definitions
//! (tests, benches, examples, and bins call into the workspace but are not
//! called from it).

use std::collections::BTreeMap;

use crate::parse::{FnItem, ParsedFile};
use crate::rules::FileCtx;

/// Index of a function in the [`SymbolTable`] arena.
pub type FnId = usize;

/// One function definition with its file of origin.
#[derive(Clone, Debug)]
pub struct FnDef {
    pub item: FnItem,
    /// Repo-relative path of the defining file.
    pub path: String,
    /// Crate the file belongs to (`crates/<name>/…` → `name`; the root
    /// package's own `src`/`tests` trees → `root`).
    pub crate_name: String,
    /// Arena index of the file this fn came from, for body-token access.
    pub file: usize,
}

/// One parsed file plus its lint context.
#[derive(Debug)]
pub struct FileEntry {
    pub parsed: ParsedFile,
    pub ctx: FileCtx,
}

/// The flattened workspace symbol table.
#[derive(Debug, Default)]
pub struct SymbolTable {
    pub files: Vec<FileEntry>,
    pub fns: Vec<FnDef>,
    /// Free functions (no self type) by bare name.
    by_free_name: BTreeMap<String, Vec<FnId>>,
    /// Methods (fns with a self type) by method name.
    by_method_name: BTreeMap<String, Vec<FnId>>,
    /// `(self_ty, name)` pairs for `Type::method` path calls.
    by_qual: BTreeMap<(String, String), Vec<FnId>>,
}

/// Crate name for a repo-relative path.
pub fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

impl SymbolTable {
    /// Builds the table from parsed files. Definitions are taken only from
    /// library files; every file is retained for body access.
    pub fn build(files: Vec<FileEntry>) -> SymbolTable {
        let mut table = SymbolTable {
            files,
            ..SymbolTable::default()
        };
        for file_idx in 0..table.files.len() {
            let entry = &table.files[file_idx];
            if !entry.ctx.library {
                continue;
            }
            let path = entry.ctx.path.clone();
            let crate_name = crate_of(&path);
            for item in entry.parsed.fns.clone() {
                let id = table.fns.len();
                match &item.self_ty {
                    Some(ty) => {
                        table
                            .by_method_name
                            .entry(item.name.clone())
                            .or_default()
                            .push(id);
                        table
                            .by_qual
                            .entry((ty.clone(), item.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    None => {
                        table
                            .by_free_name
                            .entry(item.name.clone())
                            .or_default()
                            .push(id);
                    }
                }
                table.fns.push(FnDef {
                    item,
                    path: path.clone(),
                    crate_name: crate_name.clone(),
                    file: file_idx,
                });
            }
        }
        table
    }

    /// Free functions named `name`, workspace-wide.
    pub fn free_fns(&self, name: &str) -> &[FnId] {
        self.by_free_name.get(name).map_or(&[], |v| v)
    }

    /// Methods named `name` on any type, workspace-wide.
    pub fn methods(&self, name: &str) -> &[FnId] {
        self.by_method_name.get(name).map_or(&[], |v| v)
    }

    /// Methods matching a `Type::name` qualified path.
    pub fn qual_fns(&self, self_ty: &str, name: &str) -> &[FnId] {
        self.by_qual
            .get(&(self_ty.to_string(), name.to_string()))
            .map_or(&[], |v| v)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::parse::parse_file;

    fn entry(path: &str, src: &str) -> FileEntry {
        FileEntry {
            parsed: parse_file(src),
            // The table never reads the sim path.
            ctx: FileCtx::classify(path, &BTreeSet::new()),
        }
    }

    #[test]
    fn crate_names() {
        assert_eq!(crate_of("crates/sim/src/event.rs"), "sim");
        assert_eq!(crate_of("src/lib.rs"), "root");
        assert_eq!(crate_of("tests/determinism.rs"), "root");
    }

    #[test]
    fn indexes_split_free_fns_and_methods() {
        let t = SymbolTable::build(vec![
            entry(
                "crates/sim/src/lib.rs",
                "pub fn run() {}\nimpl Sim { pub fn run(&mut self) {} }\n",
            ),
            entry("crates/util/src/lib.rs", "pub fn helper() {}\n"),
        ]);
        assert_eq!(t.fns.len(), 3);
        assert_eq!(t.free_fns("run").len(), 1);
        assert_eq!(t.methods("run").len(), 1);
        assert_eq!(t.qual_fns("Sim", "run").len(), 1);
        assert_eq!(t.qual_fns("Sim", "helper").len(), 0);
        assert_eq!(t.fns[t.free_fns("helper")[0]].crate_name, "util");
    }

    #[test]
    fn non_library_files_contribute_no_definitions() {
        let t = SymbolTable::build(vec![entry("tests/smoke.rs", "fn helper() {}\n")]);
        assert_eq!(t.fns.len(), 0);
        assert_eq!(t.files.len(), 1, "file is still retained");
    }
}
