//! The interprocedural analyses: D10 (RNG stream-separation taint) and U2
//! (unit-dimension propagation).
//!
//! Both are deliberately conservative over-approximations driven by names,
//! not types (DESIGN.md §6.2 spells out the limits):
//!
//! * **D10** runs per function: values drawn from a `FaultRng` are
//!   fault-tainted, single-assignment propagation carries the taint
//!   through locals, and a tainted atom inside a sink call (`SimRng`
//!   seeding, event scheduling, `TraceId` derivation) is an error. The
//!   symmetric direction (a `SimRng` draw seeding a `FaultRng`) is flagged
//!   the same way.
//! * **U2** seeds a per-function dimension environment from parameter-name
//!   suffixes, propagates through single-ident let-bindings (additive
//!   expressions preserve the class; `*`, `/`, `%`, or an unresolved call
//!   make it unknown), and checks mixing operators and call boundaries.

use std::collections::{BTreeMap, BTreeSet};

use crate::calls::{call_sites, renames_of, resolve, CallSite};
use crate::lexer::{Token, TokenKind};
use crate::rules::{unit_class, RelatedSite, RuleId, Violation, MIXING_OPS};
use crate::symbols::{FnDef, FnId, SymbolTable};

// ---------------------------------------------------------------------------
// shared token helpers
// ---------------------------------------------------------------------------

/// Index of the token matching the opener at `open_idx` (owned-token slice
/// counterpart of `rules::matching`).
fn matching(code: &[Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// End (exclusive) of the statement starting at `from`: the first `;` at
/// bracket depth zero, or `to` if none.
fn stmt_end(code: &[Token], from: usize, to: usize) -> usize {
    let mut depth = 0i32;
    for (k, t) in code.iter().enumerate().take(to).skip(from) {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                return k;
            }
            depth -= 1;
        } else if t.is_punct(";") && depth == 0 {
            return k;
        }
    }
    to
}

fn seq3(code: &[Token], i: usize, a: &str, b: &str, c: &str) -> bool {
    code.get(i).is_some_and(|t| t.is_ident(a))
        && code.get(i + 1).is_some_and(|t| t.is_punct(b))
        && code.get(i + 2).is_some_and(|t| t.is_ident(c))
}

// ---------------------------------------------------------------------------
// D10 — RNG stream-separation taint
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Stream {
    Fault,
    Sim,
}

impl Stream {
    fn name(self) -> &'static str {
        match self {
            Stream::Fault => "FaultRng",
            Stream::Sim => "SimRng",
        }
    }
}

/// Methods that draw a value from a generator.
const DRAW_METHODS: [&str; 7] = [
    "next_u64",
    "next_u32",
    "next_f64",
    "gen_range",
    "gen_range_u64",
    "gen_index",
    "gen_bool",
];

/// Which stream an identifier names a generator of: tracked bindings first,
/// then the naming convention (`fault_rng` / `sim_rng`).
fn gen_of(name: &str, gens: &BTreeMap<String, Stream>) -> Option<Stream> {
    if let Some(&k) = gens.get(name) {
        return Some(k);
    }
    if name.contains("fault_rng") {
        return Some(Stream::Fault);
    }
    if name.contains("sim_rng") {
        return Some(Stream::Sim);
    }
    None
}

/// Streams whose values appear in `expr`: tainted locals, plus direct
/// draws (`gen.next_u64()` inside the expression). Returns each stream with
/// the identifier that carried it, for diagnostics.
fn expr_taint(
    expr: &[Token],
    gens: &BTreeMap<String, Stream>,
    taints: &BTreeMap<String, Stream>,
) -> BTreeMap<Stream, String> {
    let mut found = BTreeMap::new();
    for (j, t) in expr.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        if let Some(&k) = taints.get(&t.text) {
            found.entry(k).or_insert_with(|| t.text.clone());
        }
        let is_draw = expr.get(j + 1).is_some_and(|d| d.is_punct("."))
            && expr
                .get(j + 2)
                .is_some_and(|m| DRAW_METHODS.contains(&m.text.as_str()));
        if is_draw {
            if let Some(k) = gen_of(&t.text, gens) {
                found
                    .entry(k)
                    .or_insert_with(|| format!("{}.{}", t.text, expr[j + 2].text));
            }
        }
    }
    found
}

/// D10 for one function: forward single-pass taint over statements.
fn d10_fn(table: &SymbolTable, def: &FnDef, out: &mut Vec<Violation>) {
    let file = &table.files[def.file];
    let code = &file.parsed.code;
    let body = def.item.body.clone();
    let mut gens: BTreeMap<String, Stream> = BTreeMap::new();
    let mut taints: BTreeMap<String, Stream> = BTreeMap::new();

    let mut sink = |line: u32, what: &str, stream: Stream, carrier: &str| {
        out.push(Violation {
            rule: RuleId::D10,
            path: file.ctx.path.clone(),
            line,
            message: format!(
                "{}-derived value `{carrier}` flows into {what} in `{}`: the fault \
                 stream and the scheduling stream must stay independent (same seed, \
                 same schedule, same flipped bits)",
                stream.name(),
                def.item.qual(),
            ),
            related: Vec::new(),
        });
    };

    let mut i = body.start;
    while i < body.end {
        let t = &code[i];
        // Sink heads. Args run from the `(` after the head to its match.
        let args_of = |open: usize| -> &[Token] {
            match matching(code, open, "(", ")") {
                Some(close) if close <= body.end => &code[open + 1..close],
                _ => &code[open + 1..body.end.min(code.len())],
            }
        };
        if seq3(code, i, "SimRng", "::", "seed_from")
            && code.get(i + 3).is_some_and(|p| p.is_punct("("))
        {
            let found = expr_taint(args_of(i + 3), &gens, &taints);
            if let Some(carrier) = found.get(&Stream::Fault) {
                sink(
                    code[i + 2].line,
                    "`SimRng::seed_from`",
                    Stream::Fault,
                    carrier,
                );
            }
        } else if seq3(code, i, "FaultRng", "::", "for_seed")
            && code.get(i + 3).is_some_and(|p| p.is_punct("("))
        {
            let found = expr_taint(args_of(i + 3), &gens, &taints);
            if let Some(carrier) = found.get(&Stream::Sim) {
                sink(
                    code[i + 2].line,
                    "`FaultRng::for_seed`",
                    Stream::Sim,
                    carrier,
                );
            }
        } else if (t.is_ident("schedule") || t.is_ident("schedule_after"))
            && i > body.start
            && code[i - 1].is_punct(".")
            && code.get(i + 1).is_some_and(|p| p.is_punct("("))
        {
            let found = expr_taint(args_of(i + 1), &gens, &taints);
            if let Some(carrier) = found.get(&Stream::Fault) {
                sink(
                    t.line,
                    &format!("event scheduling (`{}`)", t.text),
                    Stream::Fault,
                    carrier,
                );
            }
        } else if t.is_ident("TraceId")
            && (code.get(i + 1).is_some_and(|p| p.is_punct("("))
                || (code.get(i + 1).is_some_and(|p| p.is_punct("::"))
                    && code.get(i + 2).is_some_and(|m| m.is_ident("derive"))
                    && code.get(i + 3).is_some_and(|p| p.is_punct("("))))
        {
            let open = if code[i + 1].is_punct("(") {
                i + 1
            } else {
                i + 3
            };
            let found = expr_taint(args_of(open), &gens, &taints);
            if let Some(carrier) = found.get(&Stream::Fault) {
                sink(t.line, "`TraceId` derivation", Stream::Fault, carrier);
            }
        }

        // Bindings: `let [mut] name [: ty] = expr ;` and `name = expr ;`.
        let binding = if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|m| m.is_ident("mut")) {
                j += 1;
            }
            code.get(j)
                .filter(|n| n.kind == TokenKind::Ident)
                .map(|n| (n.text.clone(), j + 1))
        } else if t.kind == TokenKind::Ident
            && code.get(i + 1).is_some_and(|e| e.is_punct("="))
            && (i == body.start || !code[i - 1].is_punct("."))
        {
            Some((t.text.clone(), i + 1))
        } else {
            None
        };
        if let Some((name, after_name)) = binding {
            let end = stmt_end(code, after_name, body.end);
            let eq = (after_name..end).find(|&k| code[k].is_punct("="));
            if let Some(eq) = eq {
                let rhs = &code[eq + 1..end];
                let has = |k: usize, a: &str, b: &str, c: &str| seq3(rhs, k, a, b, c);
                let mut new_gen = None;
                for k in 0..rhs.len() {
                    if has(k, "FaultRng", "::", "for_seed") {
                        new_gen = Some(Stream::Fault);
                        break;
                    }
                    if has(k, "SimRng", "::", "seed_from") {
                        new_gen = Some(Stream::Sim);
                        break;
                    }
                    // `let child = parent.split();` forks the same stream.
                    if rhs[k].kind == TokenKind::Ident
                        && rhs.get(k + 1).is_some_and(|d| d.is_punct("."))
                        && rhs.get(k + 2).is_some_and(|m| m.is_ident("split"))
                    {
                        if let Some(g) = gen_of(&rhs[k].text, &gens) {
                            new_gen = Some(g);
                            break;
                        }
                    }
                }
                gens.remove(&name);
                taints.remove(&name);
                if let Some(g) = new_gen {
                    gens.insert(name, g);
                } else {
                    let found = expr_taint(rhs, &gens, &taints);
                    // A value touched by the fault stream stays fault-
                    // tainted even if sim values are mixed in.
                    if let Some((&k, _)) = found.iter().next() {
                        taints.insert(name, k);
                    }
                }
            }
        }
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// U2 — interprocedural units
// ---------------------------------------------------------------------------

/// Dimension class of a single atom: a bare local (tracked dims apply), a
/// suffixed postfix chain (`dev.stats.sum_pj`), a whole-expression call
/// (`to_ns(...)`, `x.total_bytes()`), or a cast (`lat_ns as f64`). `None`
/// when the expression is anything more compound.
fn single_atom_class(
    expr: &[Token],
    dims: &BTreeMap<String, &'static str>,
) -> Option<(&'static str, String)> {
    let mut j = 0;
    // Leading borrows do not change the dimension.
    while expr
        .get(j)
        .is_some_and(|t| t.is_punct("&") || t.is_ident("mut"))
    {
        j += 1;
    }
    let first = expr.get(j).filter(|t| t.kind == TokenKind::Ident)?;
    let mut last = first;
    let mut chain_len = 1usize;
    j += 1;
    while j + 1 < expr.len()
        && (expr[j].is_punct(".") || expr[j].is_punct("::"))
        && expr[j + 1].kind == TokenKind::Ident
    {
        last = &expr[j + 1];
        chain_len += 1;
        j += 2;
    }
    let whole = if j == expr.len() {
        true
    } else if expr[j].is_punct("(") {
        // A call spanning the rest of the expression: dimension comes from
        // the called name's suffix (`to_ns(...)` returns time).
        matching(expr, j, "(", ")") == Some(expr.len() - 1)
    } else {
        // A cast: `lat_ns as f64` keeps lat_ns's dimension.
        expr[j].is_ident("as")
    };
    if !whole {
        return None;
    }
    if let Some(c) = unit_class(&last.text) {
        return Some((c, last.text.clone()));
    }
    if chain_len == 1 && j == expr.len() {
        if let Some(&c) = dims.get(&first.text) {
            return Some((c, first.text.clone()));
        }
    }
    None
}

/// Dimension of a let-initializer. `None` (unknown) as soon as the
/// expression multiplies/divides or calls something unresolved; otherwise
/// the single class its atoms agree on.
fn infer_dim(expr: &[Token], dims: &BTreeMap<String, &'static str>) -> Option<&'static str> {
    if let Some((c, _)) = single_atom_class(expr, dims) {
        return Some(c);
    }
    let mut classes: BTreeSet<&'static str> = BTreeSet::new();
    for (j, t) in expr.iter().enumerate() {
        if t.is_punct("*") || t.is_punct("/") || t.is_punct("%") {
            return None;
        }
        if t.kind == TokenKind::Ident && expr.get(j + 1).is_some_and(|p| p.is_punct("(")) {
            return None;
        }
        if t.kind == TokenKind::Ident {
            if let Some(c) = unit_class(&t.text).or_else(|| dims.get(&t.text).copied()) {
                classes.insert(c);
            }
        }
    }
    if classes.len() == 1 {
        classes.into_iter().next()
    } else {
        None
    }
}

/// Class of the operand ending at `i` (the token left of an operator):
/// suffix of the identifier, or a tracked local. Returns (class, name,
/// from_suffix).
fn operand_class_left(
    code: &[Token],
    i: usize,
    dims: &BTreeMap<String, &'static str>,
) -> Option<(&'static str, String, bool)> {
    let t = code.get(i)?;
    if t.kind != TokenKind::Ident {
        return None;
    }
    if let Some(c) = unit_class(&t.text) {
        return Some((c, t.text.clone(), true));
    }
    dims.get(&t.text).map(|&c| (c, t.text.clone(), false))
}

/// Class of the operand starting at `j` (right of an operator): walks the
/// postfix chain for a suffixed tail, falling back to a tracked single
/// local.
fn operand_class_right(
    code: &[Token],
    mut j: usize,
    end: usize,
    dims: &BTreeMap<String, &'static str>,
) -> Option<(&'static str, String, bool)> {
    let first = code.get(j).filter(|t| t.kind == TokenKind::Ident)?;
    let mut last = first;
    let mut chain_len = 1usize;
    j += 1;
    while j + 1 < end
        && (code[j].is_punct(".") || code[j].is_punct("::"))
        && code[j + 1].kind == TokenKind::Ident
    {
        last = &code[j + 1];
        chain_len += 1;
        j += 2;
    }
    if let Some(c) = unit_class(&last.text) {
        return Some((c, last.text.clone(), true));
    }
    if chain_len == 1 {
        if let Some(&c) = dims.get(&first.text) {
            return Some((c, first.text.clone(), false));
        }
    }
    None
}

/// Splits a call's argument tokens at top-level commas.
fn split_args(args: &[Token]) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (k, t) in args.iter().enumerate() {
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            out.push(&args[start..k]);
            start = k + 1;
        }
    }
    if start < args.len() {
        out.push(&args[start..]);
    }
    out
}

/// U2 for one function.
fn u2_fn(
    table: &SymbolTable,
    def: &FnDef,
    renames: &BTreeMap<String, String>,
    out: &mut Vec<Violation>,
) {
    let file = &table.files[def.file];
    let code = &file.parsed.code;
    let body = def.item.body.clone();
    // Dimension environment, seeded from suffixed parameter names (their
    // suffix already speaks for itself; tracking them would only duplicate
    // U1) — so the map holds *propagated* classes for unsuffixed locals.
    let mut dims: BTreeMap<String, &'static str> = BTreeMap::new();
    let sites: BTreeMap<usize, CallSite> = call_sites(code, body.clone())
        .into_iter()
        .map(|s| (s.name_idx, s))
        .collect();

    let mut i = body.start;
    while i < body.end {
        let t = &code[i];
        // (a) let-binding propagation and suffixed-binding checks.
        if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|m| m.is_ident("mut")) {
                j += 1;
            }
            if let Some(name) = code.get(j).filter(|n| n.kind == TokenKind::Ident) {
                let end = stmt_end(code, j + 1, body.end);
                if let Some(eq) = (j + 1..end).find(|&k| code[k].is_punct("=")) {
                    let rhs = &code[eq + 1..end];
                    let d = infer_dim(rhs, &dims);
                    match (unit_class(&name.text), d) {
                        (Some(nc), Some(c)) if nc != c => out.push(Violation {
                            rule: RuleId::U2,
                            path: file.ctx.path.clone(),
                            line: name.line,
                            message: format!(
                                "binding `{}` is named as {nc} but its initializer has \
                                 dimension {c}; rename the binding or convert via `sim::units`",
                                name.text
                            ),
                            related: Vec::new(),
                        }),
                        (None, Some(c)) => {
                            dims.insert(name.text.clone(), c);
                        }
                        (None, None) => {
                            dims.remove(&name.text);
                        }
                        _ => {}
                    }
                }
            }
        }
        // (b) mixing operators where at least one side's class is propagated.
        if t.kind == TokenKind::Punct && MIXING_OPS.contains(&t.text.as_str()) && i > body.start {
            let lhs = operand_class_left(code, i - 1, &dims);
            let rhs = operand_class_right(code, i + 1, body.end, &dims);
            if let (Some((lc, ln, ls)), Some((rc, rn, rs))) = (lhs, rhs) {
                // Both-suffixed is U1's finding; U2 owns the propagated cases.
                if lc != rc && !(ls && rs) {
                    out.push(Violation {
                        rule: RuleId::U2,
                        path: file.ctx.path.clone(),
                        line: t.line,
                        message: format!(
                            "`{ln}` ({lc}{}) {} `{rn}` ({rc}{}) mixes unit classes through \
                             a propagated dimension; convert explicitly via `sim::units`",
                            if ls { "" } else { ", propagated" },
                            t.text,
                            if rs { "" } else { ", propagated" },
                        ),
                        related: Vec::new(),
                    });
                }
            }
        }
        // (c) call-boundary checks against callee parameter-name suffixes.
        if let Some(site) = sites.get(&i) {
            let targets = resolve(table, def.file, renames, site);
            if !targets.is_empty() {
                if let Some(close) = matching(code, i + 1, "(", ")") {
                    let args = split_args(&code[i + 2..close]);
                    check_call_dims(table, def, site, &targets, &args, &dims, out);
                }
            }
        }
        i += 1;
    }
}

/// Checks one call site's argument dimensions against the callee's
/// parameter-name suffixes. Conservative: a position is checked only when
/// every resolution candidate has a matching arity and agrees on that
/// parameter's class.
fn check_call_dims(
    table: &SymbolTable,
    caller: &FnDef,
    site: &CallSite,
    targets: &[FnId],
    args: &[&[Token]],
    dims: &BTreeMap<String, &'static str>,
    out: &mut Vec<Violation>,
) {
    let file = &table.files[caller.file];
    for (p, arg) in args.iter().enumerate() {
        let Some((ac, an)) = single_atom_class(arg, dims) else {
            continue;
        };
        let mut agreed: Option<(&'static str, String, FnId)> = None;
        let mut ok = true;
        for &tid in targets {
            let callee = &table.fns[tid].item;
            let offset =
                usize::from(site.method && callee.params.first().is_some_and(|s| s.name == "self"));
            let Some(param) = callee.params.get(p + offset) else {
                ok = false;
                break;
            };
            if callee.params.len() - offset != args.len() {
                ok = false;
                break;
            }
            let Some(pc) = unit_class(&param.name) else {
                ok = false;
                break;
            };
            match &agreed {
                None => agreed = Some((pc, param.name.clone(), tid)),
                Some((prev, _, _)) if *prev == pc => {}
                Some(_) => {
                    ok = false;
                    break;
                }
            }
        }
        let Some((pc, pname, tid)) = agreed else {
            continue;
        };
        if !ok || pc == ac {
            continue;
        }
        let callee = &table.fns[tid];
        out.push(Violation {
            rule: RuleId::U2,
            path: file.ctx.path.clone(),
            line: site.line,
            message: format!(
                "argument `{an}` ({ac}) passed to parameter `{pname}` ({pc}) of \
                 `{}`; convert explicitly via `sim::units` at the call site",
                callee.item.qual()
            ),
            related: vec![RelatedSite {
                path: callee.path.clone(),
                line: callee.item.line,
                note: format!("`{}` declared here", callee.item.qual()),
            }],
        });
    }
}

// ---------------------------------------------------------------------------
// per-file driver
// ---------------------------------------------------------------------------

/// Runs the intraprocedural analyses (D10, U2) over every non-test function
/// defined in `file_idx`.
pub fn analyze_file(table: &SymbolTable, file_idx: usize) -> Vec<Violation> {
    let mut out = Vec::new();
    let renames = renames_of(&table.files[file_idx]);
    for def in table.fns.iter().filter(|d| d.file == file_idx) {
        if def.item.is_test || def.item.body.is_empty() {
            continue;
        }
        d10_fn(table, def, &mut out);
        u2_fn(table, def, &renames, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::rules::FileCtx;
    use crate::symbols::FileEntry;

    fn table(files: &[(&str, &str)]) -> SymbolTable {
        // D10 and U2 never read the sim path.
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

    fn rules_of(vs: &[Violation]) -> Vec<RuleId> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn d10_taints_fault_draw_into_schedule_and_seed() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn go(fault_rng: &mut FaultRng, q: &mut EventQueue) {\n\
             let delay = fault_rng.next_u64();\n\
             q.schedule_after(delay, Ev::Tick);\n\
             let mut r = SimRng::seed_from(delay);\n\
             }\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::D10, RuleId::D10]);
        assert!(
            vs[0].message.contains("schedule_after"),
            "{}",
            vs[0].message
        );
        assert!(vs[1].message.contains("seed_from"), "{}", vs[1].message);
    }

    #[test]
    fn d10_sim_values_may_schedule_and_fault_values_may_not_trace() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn ok(sim_rng: &mut SimRng, q: &mut EventQueue) {\n\
             let jitter = sim_rng.next_u64();\n\
             q.schedule_after(jitter, Ev::Tick);\n\
             }\n\
             pub fn bad(fault_rng: &mut FaultRng) -> TraceId {\n\
             let salt = fault_rng.next_u64();\n\
             TraceId::derive(salt)\n\
             }\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::D10]);
        assert!(vs[0].message.contains("TraceId"), "{}", vs[0].message);
    }

    #[test]
    fn d10_reverse_direction_sim_into_fault_seed() {
        let t = table(&[(
            "crates/faults/src/lib.rs",
            "pub fn bad(sim_rng: &mut SimRng) -> FaultRng {\n\
             let s = sim_rng.next_u64();\n\
             FaultRng::for_seed(s)\n\
             }\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::D10]);
        assert!(vs[0].message.contains("for_seed"), "{}", vs[0].message);
    }

    #[test]
    fn d10_rebinding_clears_taint() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn go(fault_rng: &mut FaultRng, q: &mut EventQueue, now: u64) {\n\
             let mut x = fault_rng.next_u64();\n\
             x = now + 1;\n\
             q.schedule_after(x, Ev::Tick);\n\
             }\n",
        )]);
        assert!(analyze_file(&t, 0).is_empty());
    }

    #[test]
    fn u2_propagates_through_lets() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn f(a_ns: u64, b_ns: u64, size_bytes: u64) {\n\
             let total = a_ns + b_ns;\n\
             let _bad = total + size_bytes;\n\
             }\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::U2]);
        assert!(vs[0].message.contains("total"), "{}", vs[0].message);
    }

    #[test]
    fn u2_checks_suffixed_binding_names() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn f(a_ns: u64, b_ns: u64) { let sum_bytes = a_ns + b_ns; }\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::U2]);
    }

    #[test]
    fn u2_checks_call_boundaries() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn caller(lat_ns: u64) { book(lat_ns); }\n\
             pub fn book(cost_pj: u64) {}\n",
        )]);
        let vs = analyze_file(&t, 0);
        assert_eq!(rules_of(&vs), vec![RuleId::U2]);
        assert!(vs[0].message.contains("cost_pj"), "{}", vs[0].message);
        assert_eq!(vs[0].related.len(), 1);
    }

    #[test]
    fn u2_multiplication_and_ambiguity_stop_propagation() {
        let t = table(&[(
            "crates/sim/src/lib.rs",
            "pub fn f(a_ns: u64, w: u64, size_bytes: u64) {\n\
             let rate = a_ns * w;\n\
             let _x = rate + size_bytes;\n\
             let both = a_ns + size_bytes_to_ns(size_bytes);\n\
             }\n",
        )]);
        // `rate` has unknown dimension (multiplication); the call in `both`'s
        // initializer makes it unknown too. (`a_ns + size_bytes…` inside is
        // not flagged: the rhs atom is a call, not an ident.)
        let vs = analyze_file(&t, 0);
        assert!(rules_of(&vs).is_empty(), "{vs:?}");
    }
}
