//! Call sites and their name-based resolution: conservative,
//! over-approximate. U2 checks call boundaries against what a call
//! resolves to.
//!
//! Call sites are found syntactically — an identifier directly followed by
//! `(` is a call site — and resolved by name against the symbol table
//! (class-hierarchy analysis without the hierarchy):
//!
//! * `recv.method(...)` resolves to **every** workspace method named
//!   `method`, unless the name sits on the [`METHOD_STOPLIST`] of
//!   ubiquitous std methods (`iter`, `push`, `len`, ...), which would
//!   otherwise connect everything to everything.
//! * `Type::method(...)` resolves via the qualified index; a `use`
//!   rename (`use a::B as C;`) is followed back to the original name.
//! * A bare `free_fn(...)` resolves to free functions named that,
//!   preferring same-file definitions, then same-crate, then workspace-wide.
//!
//! U2 checks a call only when every candidate agrees on the parameter's
//! dimension, so an extra candidate can only silence a check, never invent
//! one. The stoplist keeps std-library vocabulary, which workspace types
//! almost never shadow, from resolving at all.

use std::collections::BTreeMap;

use crate::lexer::{Token, TokenKind};
use crate::symbols::{FileEntry, FnId, SymbolTable};

/// Method names too generic to resolve: resolving `.iter()` to every
/// workspace `fn iter` is noise. Kept deliberately to std-library
/// vocabulary — domain verbs like `tick`, `dispatch`, `schedule` stay
/// resolvable.
pub const METHOD_STOPLIST: [&str; 36] = [
    "as_mut",
    "as_ref",
    "clone",
    "cmp",
    "collect",
    "contains",
    "default",
    "drain",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "fmt",
    "from",
    "get",
    "get_mut",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "keys",
    "len",
    "map",
    "max",
    "min",
    "new",
    "next",
    "push",
    "remove",
    "sort",
    "to_string",
    "unwrap",
    "values",
];

/// Rust keywords that look like call heads when followed by `(`.
const KEYWORDS: [&str; 10] = [
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "else",
];

/// One syntactic call site inside a body, before resolution.
#[derive(Debug)]
pub struct CallSite {
    /// Token index of the called name within the file's code tokens.
    pub name_idx: usize,
    pub name: String,
    /// `Some(recv_repr)` for `recv.name(...)` method calls.
    pub method: bool,
    /// Path qualifier for `A::B::name(...)` calls (last segment before the
    /// name, with `use` renames already applied upstream).
    pub qualifier: Option<String>,
    pub line: u32,
}

/// Extracts syntactic call sites from `code[range]`.
pub fn call_sites(code: &[Token], range: std::ops::Range<usize>) -> Vec<CallSite> {
    let mut out = Vec::new();
    for i in range.clone() {
        let t = &code[i];
        if t.kind != TokenKind::Ident || KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        let Some(next) = code.get(i + 1) else {
            continue;
        };
        if !next.is_punct("(") {
            continue;
        }
        // `fn name(` is a definition; `name!(` is a macro.
        if i > 0 && code[i - 1].is_ident("fn") {
            continue;
        }
        if i > 0 && code[i - 1].is_punct("!") {
            continue;
        }
        let method = i > 0 && code[i - 1].is_punct(".");
        let mut qualifier = None;
        if !method && i >= 2 && code[i - 1].is_punct("::") && code[i - 2].kind == TokenKind::Ident {
            qualifier = Some(code[i - 2].text.clone());
        }
        out.push(CallSite {
            name_idx: i,
            name: t.text.clone(),
            method,
            qualifier,
            line: t.line,
        });
    }
    out
}

/// Per-file rename map from `use` declarations: local alias → original
/// last-segment name, for `Alias::method(...)` qualified calls.
pub(crate) fn renames_of(file: &FileEntry) -> BTreeMap<String, String> {
    file.parsed
        .uses
        .iter()
        .filter(|u| u.local != "*")
        .filter_map(|u| {
            let orig = u.path.last()?;
            (orig != &u.local).then_some((u.local.clone(), orig.clone()))
        })
        .collect()
}

/// Resolves one call site to candidate callee ids.
pub(crate) fn resolve(
    table: &SymbolTable,
    file_idx: usize,
    renames: &BTreeMap<String, String>,
    site: &CallSite,
) -> Vec<FnId> {
    if site.method {
        if METHOD_STOPLIST.contains(&site.name.as_str()) {
            return Vec::new();
        }
        return table.methods(&site.name).to_vec();
    }
    if let Some(q) = &site.qualifier {
        let q = renames.get(q.as_str()).map_or(q.as_str(), String::as_str);
        // `Type::method` via the qualified index; a lowercase qualifier is
        // a module path (`units::to_ns`), where the name is a free fn.
        let via_qual = table.qual_fns(q, &site.name);
        if !via_qual.is_empty() {
            return via_qual.to_vec();
        }
        return table.free_fns(&site.name).to_vec();
    }
    // Bare call: prefer same-file free fns, then same-crate, then all.
    let all = table.free_fns(&site.name);
    let same_file: Vec<FnId> = all
        .iter()
        .copied()
        .filter(|&id| table.fns[id].file == file_idx)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    let caller_crate = crate_of_file(table, file_idx);
    let same_crate: Vec<FnId> = all
        .iter()
        .copied()
        .filter(|&id| table.fns[id].crate_name == caller_crate)
        .collect();
    if !same_crate.is_empty() {
        return same_crate;
    }
    all.to_vec()
}

fn crate_of_file(table: &SymbolTable, file_idx: usize) -> String {
    crate::symbols::crate_of(&table.files[file_idx].ctx.path)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::parse::parse_file;
    use crate::rules::FileCtx;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        // Resolution never reads the sim path.
        let no_sim = BTreeSet::new();
        SymbolTable::build(
            files
                .iter()
                .map(|(path, src)| FileEntry {
                    parsed: parse_file(src),
                    ctx: FileCtx::classify(path, &no_sim),
                })
                .collect(),
        )
    }

    /// `path:qual` of every fn the calls in `caller`'s body resolve to.
    fn callees(t: &SymbolTable, caller: &str) -> Vec<String> {
        let def = t
            .fns
            .iter()
            .find(|d| d.item.qual() == caller)
            .unwrap_or_else(|| panic!("no fn {caller}"));
        let file = &t.files[def.file];
        let renames = renames_of(file);
        call_sites(&file.parsed.code, def.item.body.clone())
            .iter()
            .flat_map(|site| resolve(t, def.file, &renames, site))
            .map(|id| format!("{}:{}", t.fns[id].path, t.fns[id].item.qual()))
            .collect()
    }

    #[test]
    fn free_call_prefers_same_file_then_crate_then_workspace() {
        let t = table(&[
            (
                "crates/sim/src/a.rs",
                "pub fn go() { helper(); }\nfn helper() {}\n",
            ),
            (
                "crates/sim/src/b.rs",
                "pub fn helper() {}\npub fn near() { shared(); }\n",
            ),
            ("crates/sim/src/c.rs", "pub fn shared() {}\n"),
            (
                "crates/util/src/lib.rs",
                "pub fn helper() {}\npub fn shared() {}\n",
            ),
            ("crates/ecc/src/lib.rs", "pub fn far() { helper(); }\n"),
        ]);
        assert_eq!(callees(&t, "go"), ["crates/sim/src/a.rs:helper"]);
        assert_eq!(callees(&t, "near"), ["crates/sim/src/c.rs:shared"]);
        assert_eq!(
            callees(&t, "far"),
            [
                "crates/sim/src/a.rs:helper",
                "crates/sim/src/b.rs:helper",
                "crates/util/src/lib.rs:helper"
            ]
        );
    }

    #[test]
    fn method_calls_resolve_by_name_with_stoplist() {
        // `.push` resolves to nothing although `Queue` defines one.
        let t = table(&[
            (
                "crates/sim/src/a.rs",
                "impl Sim { pub fn step(&mut self) { self.q.advance(); self.v.push(1); } }",
            ),
            (
                "crates/sim/src/q.rs",
                "impl Queue { pub fn advance(&mut self) {} pub fn push(&mut self, x: u32) {} }",
            ),
        ]);
        assert_eq!(
            callees(&t, "Sim::step"),
            ["crates/sim/src/q.rs:Queue::advance"],
            "push is stoplisted, advance is not"
        );
    }

    #[test]
    fn qualified_calls_follow_use_renames_and_module_paths() {
        let t = table(&[
            (
                "crates/sim/src/a.rs",
                "use crate::q::Queue as Q;\nfn go() { Q::advance(); }\n\
                 fn cost() { mrm_util::shared_cost(); }\n",
            ),
            (
                "crates/sim/src/q.rs",
                "impl Queue { pub fn advance() {} }\n",
            ),
            ("crates/util/src/lib.rs", "pub fn shared_cost() {}\n"),
        ]);
        assert_eq!(callees(&t, "go"), ["crates/sim/src/q.rs:Queue::advance"]);
        // A lowercase qualifier is a module path: the name is a free fn.
        assert_eq!(callees(&t, "cost"), ["crates/util/src/lib.rs:shared_cost"]);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let code = parse_file("fn f(x: bool) { if (x) {} println!(\"{}\", x); g(); }\nfn g() {}");
        let sites = call_sites(&code.code, code.fns[0].body.clone());
        let names: Vec<&str> = sites.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["g"]);
    }
}
