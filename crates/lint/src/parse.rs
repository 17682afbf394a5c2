//! A lightweight item parser on top of the lexer.
//!
//! The interprocedural rules (D10/U2) need more structure than a token
//! scan: which functions a file defines, what `impl`/`mod` they sit in,
//! their parameter names, where their bodies start and end, and what the
//! file's `use` declarations resolve a bare name to. This module recovers
//! exactly that — nothing more. It is *not* a Rust parser: expressions stay
//! flat token runs, types are never interpreted beyond their identifiers,
//! and anything the scanner does not recognize is skipped. Like the lexer,
//! parsing is total: a half-edited file degrades to fewer recognized items,
//! never to a panic.
//!
//! Known limits (documented in DESIGN.md §6.2): nested functions are
//! recorded as their own items but their tokens also remain inside the
//! enclosing body (the enclosing function's passes see them too, so a
//! finding may be attributed to both); macro-generated items are invisible; `<T as Trait>::`
//! qualified paths are not resolved.

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{matching, test_regions};

/// One parameter of a function item. Only the binding name matters to the
/// analyses (U2 reads the unit suffix; call checks count positions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Param {
    pub name: String,
}

/// One `fn` item (free function, inherent/trait method, or nested fn).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare name, e.g. `run`.
    pub name: String,
    /// The `impl`/`trait` self type this fn is a method of, if any.
    pub self_ty: Option<String>,
    /// Inline `mod` path within the file (out-of-line modules are separate
    /// files and carry their path in the file path itself).
    pub module: Vec<String>,
    /// 1-based source line of the `fn` keyword.
    pub line: u32,
    /// Parameters in declaration order (`self` included for methods).
    pub params: Vec<Param>,
    /// Code-token index range of the body *including* both braces; empty
    /// for bodyless trait-method declarations.
    pub body: std::ops::Range<usize>,
    /// True when the fn sits inside a `#[cfg(test)]` region or carries
    /// `#[test]`.
    pub is_test: bool,
}

impl FnItem {
    /// `Type::name` for methods, bare `name` for free functions.
    pub fn qual(&self) -> String {
        match &self.self_ty {
            Some(ty) => format!("{ty}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One resolved `use` binding: `local` names `path` in this file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseDecl {
    /// The name the file refers to (`*` for glob imports).
    pub local: String,
    /// Full path segments, e.g. `["mrm_core", "pool", "Pool"]`.
    pub path: Vec<String>,
}

/// Everything the parser recovered from one file.
#[derive(Clone, Debug, Default)]
pub struct ParsedFile {
    /// Code tokens (comments stripped) the `body` ranges index into.
    pub code: Vec<Token>,
    pub fns: Vec<FnItem>,
    pub uses: Vec<UseDecl>,
}

/// Parses one file's source. Never fails; unrecognized constructs are
/// skipped.
pub fn parse_file(source: &str) -> ParsedFile {
    let tokens = lex(source);
    let code: Vec<Token> = tokens
        .into_iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let refs: Vec<&Token> = code.iter().collect();
    let (in_test, _) = test_regions(&refs);
    let mut p = Parser {
        code: &refs,
        in_test: &in_test,
        fns: Vec::new(),
        uses: Vec::new(),
    };
    p.run();
    ParsedFile {
        fns: p.fns,
        uses: p.uses,
        code,
    }
}

/// An enclosing scope the scanner is currently inside, with the index of
/// its closing brace.
struct Scope {
    kind: ScopeKind,
    close: usize,
}

enum ScopeKind {
    Mod(String),
    Impl(String),
}

struct Parser<'a> {
    code: &'a [&'a Token],
    in_test: &'a [bool],
    fns: Vec<FnItem>,
    uses: Vec<UseDecl>,
}

impl<'a> Parser<'a> {
    fn run(&mut self) {
        let mut stack: Vec<Scope> = Vec::new();
        let mut i = 0usize;
        while i < self.code.len() {
            while stack.last().is_some_and(|s| s.close <= i) {
                stack.pop();
            }
            let t = self.code[i];
            if t.kind != TokenKind::Ident {
                i += 1;
                continue;
            }
            match t.text.as_str() {
                "mod" => {
                    // `mod name { ... }` contributes a path segment;
                    // `mod name;` is an out-of-line declaration — skip.
                    let name = self.code.get(i + 1).filter(|n| n.kind == TokenKind::Ident);
                    if let (Some(name), Some(open)) = (name, self.punct_at(i + 2, "{")) {
                        if let Some(close) = matching(self.code, open, "{", "}") {
                            stack.push(Scope {
                                kind: ScopeKind::Mod(name.text.clone()),
                                close,
                            });
                        }
                        i = open + 1;
                    } else {
                        i += 1;
                    }
                }
                "impl" | "trait" => {
                    let (self_ty, open) = self.impl_header(i);
                    match (self_ty, open) {
                        (Some(ty), Some(open)) => {
                            if let Some(close) = matching(self.code, open, "{", "}") {
                                stack.push(Scope {
                                    kind: ScopeKind::Impl(ty),
                                    close,
                                });
                            }
                            i = open + 1;
                        }
                        _ => i += 1,
                    }
                }
                "use" => {
                    i = self.use_decl(i);
                }
                "fn" => {
                    i = self.fn_item(i, &stack);
                }
                _ => i += 1,
            }
        }
    }

    fn punct_at(&self, idx: usize, p: &str) -> Option<usize> {
        self.code.get(idx).filter(|t| t.is_punct(p)).map(|_| idx)
    }

    /// Parses an `impl`/`trait` header starting at the keyword. Returns the
    /// self-type name (last path segment before the generics/brace; the type
    /// after `for` when present) and the body's opening-brace index.
    fn impl_header(&self, kw: usize) -> (Option<String>, Option<usize>) {
        let mut j = kw + 1;
        // Skip the generic parameter list directly after the keyword.
        if self.code.get(j).is_some_and(|t| t.is_punct("<")) {
            j = self.skip_angles(j);
        }
        let mut last_ident: Option<String> = None;
        let mut after_for: Option<String> = None;
        let mut saw_for = false;
        while let Some(t) = self.code.get(j) {
            if t.is_punct("{") {
                let ty = if saw_for { after_for } else { last_ident };
                return (ty, Some(j));
            }
            if t.is_punct(";") {
                return (None, None);
            }
            if t.is_ident("for") {
                saw_for = true;
            } else if t.is_ident("where") {
                // `where` clauses end the type path; keep scanning for `{`.
            } else if t.kind == TokenKind::Ident {
                if saw_for {
                    after_for = Some(t.text.clone());
                } else {
                    last_ident = Some(t.text.clone());
                }
            } else if t.is_punct("<") {
                j = self.skip_angles(j);
                continue;
            }
            j += 1;
        }
        (None, None)
    }

    /// Skips a balanced `<...>` run starting at an opening `<`. `<<`/`>>`
    /// count double; `->` and `=>` do not participate. Returns the index
    /// one past the closing `>`.
    fn skip_angles(&self, open: usize) -> usize {
        let mut depth = 0i32;
        let mut j = open;
        while let Some(t) = self.code.get(j) {
            match t.text.as_str() {
                "<" if t.kind == TokenKind::Punct => depth += 1,
                ">" if t.kind == TokenKind::Punct => depth -= 1,
                "<<" if t.kind == TokenKind::Punct => depth += 2,
                ">>" if t.kind == TokenKind::Punct => depth -= 2,
                ";" | "{" if t.kind == TokenKind::Punct => return j, // malformed; bail
                _ => {}
            }
            j += 1;
            if depth <= 0 {
                return j;
            }
        }
        j
    }

    /// Parses a `use` declaration starting at the keyword; returns the index
    /// one past its terminating `;`.
    fn use_decl(&mut self, kw: usize) -> usize {
        let mut end = kw + 1;
        while let Some(t) = self.code.get(end) {
            if t.is_punct(";") {
                break;
            }
            end += 1;
        }
        let mut prefix = Vec::new();
        self.use_tree(kw + 1, end, &mut prefix);
        end + 1
    }

    /// Recursively expands a use tree `a::b::{c, d as e, f::*}` within
    /// `[from, to)`.
    fn use_tree(&mut self, from: usize, to: usize, prefix: &mut Vec<String>) {
        let depth_before = prefix.len();
        let mut j = from;
        let mut last: Option<String> = None;
        while j < to {
            let t = self.code[j];
            if t.kind == TokenKind::Ident && t.text != "as" {
                last = Some(t.text.clone());
                j += 1;
            } else if t.is_ident("as") {
                // `path as rename`: bind the rename to the path so far.
                if let (Some(seg), Some(rename)) = (
                    last.take(),
                    self.code.get(j + 1).filter(|r| r.kind == TokenKind::Ident),
                ) {
                    prefix.push(seg);
                    self.uses.push(UseDecl {
                        local: rename.text.clone(),
                        path: prefix.clone(),
                    });
                    prefix.truncate(depth_before);
                }
                j += 2;
            } else if t.is_punct("::") {
                if let Some(seg) = last.take() {
                    prefix.push(seg);
                }
                j += 1;
            } else if t.is_punct("{") {
                let close = matching(self.code, j, "{", "}").unwrap_or(to).min(to);
                // Split the group at top-level commas and recurse.
                let mut part_start = j + 1;
                let mut depth = 0i32;
                for k in j + 1..close {
                    let p = self.code[k];
                    if p.is_punct("{") {
                        depth += 1;
                    } else if p.is_punct("}") {
                        depth -= 1;
                    } else if p.is_punct(",") && depth == 0 {
                        self.use_tree(part_start, k, prefix);
                        part_start = k + 1;
                    }
                }
                self.use_tree(part_start, close, prefix);
                prefix.truncate(depth_before);
                return;
            } else if t.is_punct("*") {
                prefix.push("*".to_string());
                self.uses.push(UseDecl {
                    local: "*".to_string(),
                    path: prefix.clone(),
                });
                prefix.truncate(depth_before);
                return;
            } else {
                j += 1;
            }
        }
        if let Some(seg) = last {
            prefix.push(seg);
            self.uses.push(UseDecl {
                local: prefix.last().cloned().unwrap_or_default(),
                path: prefix.clone(),
            });
        }
        prefix.truncate(depth_before);
    }

    /// Parses one `fn` item starting at the keyword; returns the index to
    /// resume scanning from (just *inside* the body, so nested items are
    /// seen too).
    fn fn_item(&mut self, kw: usize, stack: &[Scope]) -> usize {
        let Some(name) = self.code.get(kw + 1).filter(|t| t.kind == TokenKind::Ident) else {
            return kw + 1;
        };
        let mut j = kw + 2;
        if self.code.get(j).is_some_and(|t| t.is_punct("<")) {
            j = self.skip_angles(j);
        }
        let Some(open_paren) = self.punct_at(j, "(") else {
            return kw + 1;
        };
        let close_paren = match matching(self.code, open_paren, "(", ")") {
            Some(c) => c,
            None => return self.code.len(),
        };
        let params = self.params(open_paren + 1, close_paren);
        // Find the body's `{`, or `;` for a bodyless declaration. The
        // return type may contain braces only inside angle brackets or
        // parens, both of which we skip.
        let mut k = close_paren + 1;
        let mut body = 0..0;
        while let Some(t) = self.code.get(k) {
            if t.is_punct("{") {
                let close = matching(self.code, k, "{", "}").unwrap_or(self.code.len());
                body = k..(close + 1).min(self.code.len());
                break;
            }
            if t.is_punct(";") {
                break;
            }
            if t.is_punct("<") {
                k = self.skip_angles(k);
                continue;
            }
            k += 1;
        }
        let module: Vec<String> = stack
            .iter()
            .filter_map(|s| match &s.kind {
                ScopeKind::Mod(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        let self_ty = stack.iter().rev().find_map(|s| match &s.kind {
            ScopeKind::Impl(ty) => Some(ty.clone()),
            _ => None,
        });
        let resume = if body.is_empty() {
            k + 1
        } else {
            body.start + 1
        };
        self.fns.push(FnItem {
            name: name.text.clone(),
            self_ty,
            module,
            line: self.code[kw].line,
            params,
            body,
            is_test: self.in_test.get(kw).copied().unwrap_or(false),
        });
        resume
    }

    /// Extracts parameter names from `[from, to)` (the parenthesized list).
    /// Splits at commas outside `()`/`[]`/`{}` nesting; a piece's name is
    /// its first identifier before a top-level `:` (after `mut`/`ref`), or
    /// `self` for receivers. Pieces without a `:` that are not `self` are
    /// generic-argument spillover from the depth-blind comma split and are
    /// dropped.
    fn params(&self, from: usize, to: usize) -> Vec<Param> {
        let mut out = Vec::new();
        let mut depth = 0i32;
        let mut start = from;
        let flush = |lo: usize, hi: usize, out: &mut Vec<Param>| {
            let piece = &self.code[lo.min(hi)..hi];
            let is_self =
                piece.iter().any(|t| t.is_ident("self")) && !piece.iter().any(|t| t.is_punct(":"));
            if is_self {
                out.push(Param {
                    name: "self".to_string(),
                });
                return;
            }
            let colon = piece.iter().position(|t| t.is_punct(":"));
            let Some(colon) = colon else { return };
            let name = piece[..colon]
                .iter()
                .find(|t| t.kind == TokenKind::Ident && t.text != "mut" && t.text != "ref");
            if let Some(name) = name {
                out.push(Param {
                    name: name.text.clone(),
                });
            }
        };
        for k in from..to {
            let t = self.code[k];
            if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                depth += 1;
            } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                depth -= 1;
            } else if t.is_punct(",") && depth == 0 {
                flush(start, k, &mut out);
                start = k + 1;
            }
        }
        if start < to {
            flush(start, to, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(p: &ParsedFile) -> Vec<String> {
        p.fns.iter().map(|f| f.qual()).collect()
    }

    #[test]
    fn free_fns_and_methods() {
        let p = parse_file(
            "pub fn alpha(x: u64) -> u64 { x }\n\
             impl Widget { fn beta(&mut self, n_bytes: u64) {} }\n\
             impl Display for Widget { fn fmt(&self, f: &mut Formatter) -> Result { Ok(()) } }\n",
        );
        assert_eq!(names(&p), vec!["alpha", "Widget::beta", "Widget::fmt"]);
        assert_eq!(p.fns[0].params, vec![Param { name: "x".into() }]);
        assert_eq!(
            p.fns[1].params,
            vec![
                Param {
                    name: "self".into()
                },
                Param {
                    name: "n_bytes".into()
                }
            ]
        );
    }

    #[test]
    fn inline_modules_contribute_path() {
        let p = parse_file("mod outer { mod inner { fn deep() {} } fn shallow() {} }");
        assert_eq!(p.fns[0].module, vec!["outer", "inner"]);
        assert_eq!(p.fns[1].module, vec!["outer"]);
    }

    #[test]
    fn generic_fns_and_impls() {
        let p = parse_file(
            "impl<K: Ord, V> Store<K, V> { fn get_mut(&mut self, k: &K) -> Option<&mut V> { None } }\n\
             fn max_by<T, F: Fn(&T, &T) -> bool>(a: T, b: T, f: F) -> T { a }\n",
        );
        assert_eq!(names(&p), vec!["Store::get_mut", "max_by"]);
        assert_eq!(p.fns[1].params.len(), 3);
    }

    #[test]
    fn bodies_cover_braces_and_nested_fns_are_items() {
        let src = "fn outer() { fn inner(q: u8) {} inner(3); }";
        let p = parse_file(src);
        assert_eq!(names(&p), vec!["outer", "inner"]);
        let outer = &p.fns[0];
        assert!(p.code[outer.body.start].is_punct("{"));
        assert!(p.code[outer.body.end - 1].is_punct("}"));
        // The nested fn's tokens sit inside the outer body range.
        let inner = &p.fns[1];
        assert!(outer.body.start < inner.body.start && inner.body.end <= outer.body.end);
    }

    #[test]
    fn trait_decls_without_bodies() {
        let p = parse_file("trait Sink { fn observe(&mut self, v: f64); fn done(&mut self) {} }");
        assert_eq!(names(&p), vec!["Sink::observe", "Sink::done"]);
        assert!(p.fns[0].body.is_empty());
        assert!(!p.fns[1].body.is_empty());
    }

    #[test]
    fn use_trees_resolve() {
        let p = parse_file(
            "use std::collections::BTreeMap;\n\
             use mrm_core::pool::{Pool, PoolError as PErr};\n\
             use mrm_sim::prelude::*;\n",
        );
        assert!(p.uses.contains(&UseDecl {
            local: "BTreeMap".into(),
            path: vec!["std".into(), "collections".into(), "BTreeMap".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            local: "Pool".into(),
            path: vec!["mrm_core".into(), "pool".into(), "Pool".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            local: "PErr".into(),
            path: vec!["mrm_core".into(), "pool".into(), "PoolError".into()],
        }));
        assert!(p.uses.contains(&UseDecl {
            local: "*".into(),
            path: vec!["mrm_sim".into(), "prelude".into(), "*".into()],
        }));
    }

    #[test]
    fn test_regions_mark_fns() {
        let p = parse_file(
            "fn lib_code() {}\n#[cfg(test)]\nmod tests { fn helper() {} }\n#[test]\nfn t() {}\n",
        );
        assert!(!p.fns[0].is_test);
        assert!(p.fns[1].is_test);
        assert!(p.fns[2].is_test);
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn",
            "fn (",
            "fn f(",
            "impl {",
            "impl for {}",
            "use ;",
            "use a::{b,",
            "mod m {",
            "fn f<T(x: T) {}",
            "trait T { fn",
        ] {
            let _ = parse_file(src);
        }
    }
}
