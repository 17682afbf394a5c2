//! The workspace invariant rules and the token-level engine that checks them.
//!
//! Every rule exists because a runtime test already failed — or would fail,
//! hours of CI later — for the class of bug it catches statically:
//!
//! * **D5** keeps panics out of library hot paths: a controller that
//!   `unwrap()`s mid-sweep takes out the whole parallel run.
//! * **D8** pins the observability contract: the causal tracer and
//!   profiler are observe-only, so their hook call sites must stay out of
//!   functions that draw randomness (`SimRng`/`FaultRng` draws) or mutate
//!   the event queue. A hook sitting on one of those paths is one refactor
//!   away from reordering a draw or a schedule — which would make the run's
//!   result depend on whether observation is attached.
//! * **U1** guards the unit conventions of `sim/src/units.rs`: the paper's
//!   cost-model conclusions die silently when `*_ns` meets `*_bytes` in an
//!   addition, or a capacity is re-derived as `1 << 30` with the wrong shift.
//! * **D10/U2** are the *interprocedural* versions of the contracts above,
//!   computed in [`crate::dataflow`] on the workspace symbol table and
//!   name-based call resolution ([`crate::symbols`], [`crate::calls`]): D10
//!   taints `FaultRng`-derived values so the two-stream contract cannot be
//!   laundered through a local variable, and U2 propagates unit-suffix
//!   dimensions through let-bindings and call boundaries where U1's
//!   single-expression check goes blind.
//!
//! The bans that only forbid a *name* in a crate — wall clock, unordered
//! maps and ambient entropy on the sim path, `SimRng` and the event queue in
//! telemetry, `SimRng` in `crates/faults` outside `rng.rs`, and the expiry
//! decision API outside `mrm-control` — are clippy's `disallowed-types` and
//! `disallowed-methods`, scoped by the workspace's `clippy.toml` files
//! (DESIGN.md §6.1). The rules here are the ones that need more than a
//! resolved name.

use std::collections::BTreeSet;

use crate::lexer::{lex, Token, TokenKind};

/// Identifier of a lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Bare `unwrap()` or `expect("")` in non-test library code.
    D5,
    /// Obs hook (`tracer`/`profiler`) touched inside a function that draws
    /// randomness or mutates the event queue: observation must be confined
    /// to observe-only `Observer` methods (`crates/tiering/src/observe.rs`)
    /// off the RNG/scheduling paths.
    D8,
    /// RNG stream separation: a `FaultRng`-derived value flows into
    /// `SimRng` seeding, event-queue scheduling, or `TraceId` derivation
    /// (or a `SimRng`-derived value into `FaultRng` seeding).
    D10,
    /// Unit-suffix mixing or raw capacity literal outside `sim/src/units.rs`.
    U1,
    /// Interprocedural units: a `_ns`/`_bytes`/`_pj` dimension propagated
    /// through a let-binding or across a call boundary meets a conflicting
    /// dimension.
    U2,
    /// Malformed `mrm-lint` annotation (cannot be allowed).
    Meta,
}

/// How bad a violation is. `Error` rules are hard invariants; `Warn` rules
/// (D5) are code hygiene. `--deny` fails on either.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Error,
    Warn,
}

impl RuleId {
    pub const ALL: [RuleId; 5] = [RuleId::D5, RuleId::D8, RuleId::D10, RuleId::U1, RuleId::U2];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D5 => "D5",
            RuleId::D8 => "D8",
            RuleId::D10 => "D10",
            RuleId::U1 => "U1",
            RuleId::U2 => "U2",
            RuleId::Meta => "LINT",
        }
    }

    pub fn parse(s: &str) -> Option<RuleId> {
        match s {
            "D5" => Some(RuleId::D5),
            "D8" => Some(RuleId::D8),
            "D10" => Some(RuleId::D10),
            "U1" => Some(RuleId::U1),
            "U2" => Some(RuleId::U2),
            _ => None,
        }
    }

    pub fn severity(self) -> Severity {
        match self {
            RuleId::D5 => Severity::Warn,
            _ => Severity::Error,
        }
    }

    /// One-line description, shown by `--rules`.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D5 => "no bare unwrap()/expect(\"\") in non-test library code",
            RuleId::D8 => {
                "obs hooks (tracer/profiler) may not be touched inside functions that \
                 draw randomness or mutate the event queue; confine them to Observer \
                 methods (crates/tiering/src/observe.rs)"
            }
            RuleId::D10 => {
                "FaultRng-derived values must not flow into SimRng seeding, \
                 event scheduling, or TraceId derivation (nor SimRng draws into FaultRng)"
            }
            RuleId::U1 => {
                "no arithmetic mixing *_ns/*_bytes/*_pj identifiers; \
                 no raw capacity literals outside sim/src/units.rs"
            }
            RuleId::U2 => {
                "unit-suffix dimensions propagate through let-bindings and call \
                 boundaries; mixed-dimension arithmetic across them is an error"
            }
            RuleId::Meta => "malformed mrm-lint annotation",
        }
    }

    /// Extended explanation shown by `--explain RULE`: what the rule
    /// catches, why the invariant exists, and how to fix or suppress a
    /// finding.
    pub fn explain(self) -> &'static str {
        match self {
            RuleId::D5 => {
                "D5 — no bare unwrap()/expect(\"\") in non-test library code.\n\n\
                 A panic mid-sweep takes out the whole parallel run with no\n\
                 actionable message. Return a typed error, or use\n\
                 `expect(\"which invariant failed and why it cannot\")`. D5 is a\n\
                 warning, but `--deny` fails on any site."
            }
            RuleId::D8 => {
                "D8 — obs hooks stay off the RNG and scheduling paths.\n\n\
                 A function that both draws randomness (or mutates the event queue)\n\
                 and touches `tracer`/`profiler` directly is one refactor away from\n\
                 making results depend on whether observation is attached. Fix: move\n\
                 the hook into an `Observer` method (`crates/tiering/src/observe.rs`)\n\
                 that only observes. D8 applies to the library code of the sim-path\n\
                 crates: `mrm-tiering` and every crate it links through\n\
                 `[dependencies]`, read from the Cargo manifests, minus the\n\
                 observe-only `mrm-telemetry` and `mrm-obs`. Linking a crate puts it\n\
                 on the sim path."
            }
            RuleId::D10 => {
                "D10 — RNG stream separation, value-level.\n\n\
                 The fault stream and the scheduling stream stay independent.\n\
                 `crates/faults/clippy.toml` bans the *type* `SimRng` outside the\n\
                 `FaultRng` wrapper, but cannot see a `FaultRng` draw\n\
                 stored in a local and later fed to `SimRng::seed_from`, an event\n\
                 `schedule*` call, or `TraceId` derivation (which would couple which\n\
                 bits flip to when requests arrive, or to trace identity). D10 runs an\n\
                 intraprocedural taint pass: values drawn from a fault generator are\n\
                 fault-tainted, assignments propagate the taint, and tainted atoms in\n\
                 a sink call's arguments are errors. The reverse direction (a SimRng\n\
                 draw seeding a FaultRng) is flagged the same way."
            }
            RuleId::U1 => {
                "U1 — unit-suffix hygiene, single expression.\n\n\
                 Identifiers carry dimension via suffix: `*_ns`/`*_us`/`*_ms` (time),\n\
                 `*_bytes` (bytes), `*_pj`/`*_nj` (energy). Adding or comparing across\n\
                 classes is meaningless and silently poisons the cost model. Raw\n\
                 capacity literals (`1 << 30`, `1024 * 1024`) belong in\n\
                 `sim/src/units.rs` as named constants. Multiplication and division\n\
                 legitimately combine dimensions and are not flagged."
            }
            RuleId::U2 => {
                "U2 — unit-suffix hygiene, interprocedural.\n\n\
                 U1 dies at the first let-binding: `let total = a_ns + b_ns;` strips\n\
                 the suffix, and `total + size_bytes` passes. U2 propagates dimensions\n\
                 through single-ident let-bindings (additive expressions preserve the\n\
                 class; any `*`//`/` makes it unknown), checks suffixed binding names\n\
                 against the dimension of their initializer, and checks call\n\
                 boundaries: an argument with a known dimension passed to a workspace\n\
                 function whose parameter name carries a different suffix is an\n\
                 error. Resolution is name-based and conservative — when multiple\n\
                 candidate callees disagree about a parameter's dimension the call is\n\
                 not checked."
            }
            RuleId::Meta => {
                "LINT — malformed mrm-lint annotation.\n\n\
                 `// mrm-lint: allow(RULE, ...) reason` must name known rules and\n\
                 carry a non-empty reason; anything else is an error so a typo can\n\
                 never silently disable a rule."
            }
        }
    }
}

/// Where a file sits in the workspace, which decides which rules apply.
#[derive(Clone, Debug, Default)]
pub struct FileCtx {
    /// Repo-relative path with forward slashes (used in diagnostics).
    pub path: String,
    /// True for crates whose code runs on the simulated timeline
    /// ([`crate::manifest::sim_path_crates`]).
    pub sim_path: bool,
    /// True for library code: under `src/`, not `src/bin/`, not a
    /// test-only module file. D5 only fires here.
    pub library: bool,
    /// True for `crates/sim/src/units.rs`, the one place capacity
    /// literals are allowed to be spelled raw.
    pub units_file: bool,
}

impl FileCtx {
    /// Classifies a repo-relative path (forward slashes). `sim_crates` is
    /// the workspace's sim path, from [`crate::manifest::sim_path_crates`].
    pub fn classify(rel_path: &str, sim_crates: &BTreeSet<String>) -> FileCtx {
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
            Some(parts[1])
        } else {
            None
        };
        let in_src = parts.contains(&"src");
        let in_bin = rel_path.contains("/src/bin/");
        // Library code: a crate's (or the root package's) src/ tree, minus
        // binary targets. tests/, benches/ and examples/ are not libraries.
        let library = in_src
            && !in_bin
            && !parts
                .iter()
                .any(|p| *p == "tests" || *p == "benches" || *p == "examples");
        FileCtx {
            path: rel_path.to_string(),
            sim_path: crate_name.is_some_and(|c| sim_crates.contains(c)),
            library,
            units_file: rel_path == "crates/sim/src/units.rs",
        }
    }
}

/// A secondary location attached to a diagnostic — the declaration of the
/// callee whose parameter a U2 argument violates. Rendered as
/// `relatedLocations` in SARIF output.
#[derive(Clone, Debug)]
pub struct RelatedSite {
    pub path: String,
    pub line: u32,
    pub note: String,
}

/// One diagnostic.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: RuleId,
    pub path: String,
    pub line: u32,
    pub message: String,
    /// Supporting locations (empty for single-site rules).
    pub related: Vec<RelatedSite>,
}

impl Violation {
    /// The canonical `file:line RULE message` diagnostic line.
    pub fn render(&self) -> String {
        format!(
            "{}:{} {} {}",
            self.path,
            self.line,
            self.rule.as_str(),
            self.message
        )
    }
}

/// Everything the engine learned from one file.
#[derive(Debug, Default)]
pub struct FileReport {
    pub violations: Vec<Violation>,
    /// Module names declared as `#[cfg(test)] mod name;` — the walker marks
    /// the corresponding files (`name.rs` / `name/mod.rs`) as test-only so
    /// D5 skips them (e.g. `crates/sim/src/proptests.rs`).
    pub test_only_modules: Vec<String>,
}

/// Lints one file's source under the given context: the lexical rules plus
/// the single-file slice of the interprocedural analyses (D10 and U2 run on
/// a symbol table built from just this file; [`crate::analyze_workspace`]
/// resolves their calls across the workspace).
pub fn lint_source(source: &str, ctx: &FileCtx) -> FileReport {
    let mut scan = scan_lexical(source, ctx);
    let table = crate::symbols::SymbolTable::build(vec![crate::symbols::FileEntry {
        parsed: crate::parse::parse_file(source),
        ctx: ctx.clone(),
    }]);
    scan.raw.extend(crate::dataflow::analyze_file(&table, 0));
    let test_only_modules = std::mem::take(&mut scan.test_only_modules);
    FileReport {
        violations: scan.finish(),
        test_only_modules,
    }
}

/// The lexical rules (D5, D8, U1) for one file, with suppression *not yet
/// applied* — the caller may add interprocedural findings to `raw` before
/// calling [`LexicalScan::finish`].
pub(crate) fn scan_lexical(source: &str, ctx: &FileCtx) -> LexicalScan {
    let tokens = lex(source);
    let allows = parse_allows(&tokens, ctx);
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let (in_test, test_only_modules) = test_regions(&code);

    let mut raw = Vec::new();
    scan_d5(&code, &in_test, ctx, &mut raw);
    scan_d8(&code, &in_test, ctx, &mut raw);
    scan_u1(&code, ctx, &mut raw);

    LexicalScan {
        raw,
        allows,
        test_only_modules,
    }
}

/// One file's lexical findings plus its suppression state.
pub(crate) struct LexicalScan {
    pub(crate) raw: Vec<Violation>,
    pub(crate) allows: Allows,
    pub(crate) test_only_modules: Vec<String>,
}

impl LexicalScan {
    /// Applies suppression, appends malformed-annotation diagnostics, and
    /// returns the file's violations sorted by (line, rule).
    pub(crate) fn finish(self) -> Vec<Violation> {
        let mut violations: Vec<Violation> = self
            .raw
            .into_iter()
            .filter(|v| !self.allows.suppresses(v.rule, v.line))
            .collect();
        violations.extend(self.allows.malformed);
        violations.sort_by_key(|a| (a.line, a.rule));
        violations
    }
}

// ---------------------------------------------------------------------------
// allow annotations
// ---------------------------------------------------------------------------

pub(crate) struct Allows {
    /// (rule, line) pairs: the annotation suppresses matches on its own line
    /// and the line directly below (so it can sit above the offending code).
    sites: Vec<(RuleId, u32)>,
    pub(crate) malformed: Vec<Violation>,
}

impl Allows {
    pub(crate) fn suppresses(&self, rule: RuleId, line: u32) -> bool {
        self.sites
            .iter()
            .any(|&(r, l)| r == rule && (l == line || l + 1 == line))
    }
}

/// Parses `// mrm-lint: allow(D5, U1) reason...` comments.
pub(crate) fn parse_allows(tokens: &[Token], ctx: &FileCtx) -> Allows {
    let mut allows = Allows {
        sites: Vec::new(),
        malformed: Vec::new(),
    };
    for t in tokens {
        if !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(rest) = t.text.trim().strip_prefix("mrm-lint:") else {
            continue;
        };
        let rest = rest.trim();
        let Some(rest) = rest.strip_prefix("allow") else {
            allows.malformed.push(Violation {
                rule: RuleId::Meta,
                path: ctx.path.clone(),
                line: t.line,
                message: format!("unknown mrm-lint directive: `{}`", rest),
                related: Vec::new(),
            });
            continue;
        };
        let bad = |msg: &str| Violation {
            rule: RuleId::Meta,
            path: ctx.path.clone(),
            line: t.line,
            message: msg.to_string(),
            related: Vec::new(),
        };
        let rest = rest.trim_start();
        let Some(inner_end) = rest.strip_prefix('(').and_then(|r| r.find(')')) else {
            allows
                .malformed
                .push(bad("allow annotation needs a rule list: allow(D5) reason"));
            continue;
        };
        let inner = &rest[1..=inner_end];
        let reason = rest[inner_end + 2..].trim();
        if reason.is_empty() {
            allows.malformed.push(bad(
                "allow annotation needs a reason: // mrm-lint: allow(RULE) why it is safe",
            ));
            continue;
        }
        let mut rules = Vec::new();
        let mut ok = true;
        for part in inner.trim_end_matches(')').split(',') {
            match RuleId::parse(part.trim()) {
                Some(r) => rules.push(r),
                None => {
                    allows.malformed.push(bad(&format!(
                        "unknown rule `{}` in allow annotation",
                        part.trim()
                    )));
                    ok = false;
                }
            }
        }
        if !ok {
            continue;
        }
        allows.sites.extend(rules.into_iter().map(|r| (r, t.line)));
    }
    allows
}

// ---------------------------------------------------------------------------
// test-region detection
// ---------------------------------------------------------------------------

/// Returns, per code token, whether it sits inside a `#[cfg(test)]` item or a
/// `#[test]` function — plus the names of test-only out-of-line modules
/// (`#[cfg(test)] mod foo;`).
pub(crate) fn test_regions(code: &[&Token]) -> (Vec<bool>, Vec<String>) {
    let mut in_test = vec![false; code.len()];
    let mut test_mods = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].is_punct("#") && i + 1 < code.len() && code[i + 1].is_punct("[") {
            let attr_end = match matching(code, i + 1, "[", "]") {
                Some(e) => e,
                None => break,
            };
            let is_test_attr = {
                let inner = &code[i + 2..attr_end];
                let cfg_test = inner.first().is_some_and(|t| t.is_ident("cfg"))
                    && inner.iter().any(|t| t.is_ident("test"));
                let plain_test = inner.len() == 1 && inner[0].is_ident("test");
                cfg_test || plain_test
            };
            if is_test_attr {
                // Skip any further attributes, then the item they decorate.
                let mut j = attr_end + 1;
                while j + 1 < code.len() && code[j].is_punct("#") && code[j + 1].is_punct("[") {
                    match matching(code, j + 1, "[", "]") {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                let item_end = item_extent(code, j, &mut test_mods);
                for flag in in_test.iter_mut().take(item_end.min(code.len())).skip(i) {
                    *flag = true;
                }
                i = item_end;
                continue;
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    (in_test, test_mods)
}

/// Index of the token matching the opener at `open_idx` (same nesting level).
pub(crate) fn matching(code: &[&Token], open_idx: usize, open: &str, close: &str) -> Option<usize> {
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

/// One past the end of the item starting at `start`: the matching `}` of its
/// first top-level brace, or its terminating `;`. Records `mod name;`
/// declarations in `test_mods`.
fn item_extent(code: &[&Token], mut start: usize, test_mods: &mut Vec<String>) -> usize {
    // Skip a `pub` / `pub(crate)` visibility prefix.
    if code.get(start).is_some_and(|t| t.is_ident("pub")) {
        start += 1;
        if code.get(start).is_some_and(|t| t.is_punct("(")) {
            start = match matching(code, start, "(", ")") {
                Some(e) => e + 1,
                None => return code.len(),
            };
        }
    }
    if start + 2 < code.len() && code[start].is_ident("mod") && code[start + 2].is_punct(";") {
        test_mods.push(code[start + 1].text.clone());
        return start + 3;
    }
    let mut k = start;
    while k < code.len() {
        if code[k].is_punct(";") {
            return k + 1;
        }
        if code[k].is_punct("{") {
            return match matching(code, k, "{", "}") {
                Some(e) => e + 1,
                None => code.len(),
            };
        }
        k += 1;
    }
    code.len()
}

// ---------------------------------------------------------------------------
// rule scanners
// ---------------------------------------------------------------------------

fn push(out: &mut Vec<Violation>, rule: RuleId, ctx: &FileCtx, line: u32, message: String) {
    out.push(Violation {
        rule,
        path: ctx.path.clone(),
        line,
        message,
        related: Vec::new(),
    });
}

/// D5: bare `unwrap()` / `expect("")` in non-test library code.
fn scan_d5(code: &[&Token], in_test: &[bool], ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.library {
        return;
    }
    for i in 0..code.len() {
        if in_test[i] || !code[i].is_punct(".") {
            continue;
        }
        let Some(name) = code.get(i + 1) else {
            continue;
        };
        if !code.get(i + 2).is_some_and(|t| t.is_punct("(")) {
            continue;
        }
        if name.is_ident("unwrap") && code.get(i + 3).is_some_and(|t| t.is_punct(")")) {
            push(
                out,
                RuleId::D5,
                ctx,
                name.line,
                "bare `unwrap()` in library code: return a typed error or use \
                 `expect(\"actionable message\")`"
                    .to_string(),
            );
        } else if name.is_ident("expect")
            && code
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::Str && t.text.is_empty())
            && code.get(i + 4).is_some_and(|t| t.is_punct(")"))
        {
            push(
                out,
                RuleId::D5,
                ctx,
                name.line,
                "`expect(\"\")` carries no information: say what invariant failed".to_string(),
            );
        }
    }
}

/// Identifiers that draw from a `SimRng`/`FaultRng` stream. A function
/// whose body names one of these is on the randomness path.
const D8_DRAW_TOKENS: [&str; 11] = [
    "next_u64",
    "next_u32",
    "next_f64",
    "gen_bool",
    "gen_range",
    "gen_range_u64",
    "gen_index",
    "shuffle",
    "sample_request",
    "next_interarrival",
    "inject_read",
];

/// Identifiers that mutate the event queue. A function whose body names
/// one of these is on the scheduling path.
const D8_QUEUE_TOKENS: [&str; 3] = ["schedule", "schedule_after", "pop"];

/// The obs hook surface: any direct touch of the tracer or profiler.
const D8_HOOK_TOKENS: [&str; 2] = ["tracer", "profiler"];

/// D8: obs hook call sites are confined off the RNG/event-queue paths.
/// Within sim-path library code, any function whose body both (a) draws
/// randomness or mutates the event queue and (b) names `tracer` or
/// `profiler` directly is a violation — handlers must observe through
/// `Observer` method calls (`crates/tiering/src/observe.rs`) instead, so
/// the determinism-sensitive code cannot interleave observation with
/// draws or scheduling.
fn scan_d8(code: &[&Token], in_test: &[bool], ctx: &FileCtx, out: &mut Vec<Violation>) {
    if !ctx.sim_path || !ctx.library {
        return;
    }
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_ident("fn") || in_test.get(i).copied().unwrap_or(false) {
            i += 1;
            continue;
        }
        let name = code
            .get(i + 1)
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        // Find the body's opening brace; a `;` first means a bodyless
        // trait-method declaration.
        let mut j = i + 1;
        let mut open = None;
        while j < code.len() {
            if code[j].is_punct("{") {
                open = Some(j);
                break;
            }
            if code[j].is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let close = matching(code, open, "{", "}").unwrap_or(code.len());
        let body = &code[open..close.min(code.len())];
        let perturbs = body.iter().find(|t| {
            t.kind == TokenKind::Ident
                && (D8_DRAW_TOKENS.contains(&t.text.as_str())
                    || D8_QUEUE_TOKENS.contains(&t.text.as_str()))
        });
        if let Some(perturb) = perturbs {
            let verb = if D8_DRAW_TOKENS.contains(&perturb.text.as_str()) {
                "draws randomness"
            } else {
                "mutates the event queue"
            };
            for t in body {
                if t.kind == TokenKind::Ident && D8_HOOK_TOKENS.contains(&t.text.as_str()) {
                    push(
                        out,
                        RuleId::D8,
                        ctx,
                        t.line,
                        format!(
                            "obs hook `{}` touched inside `fn {}`, which {} via `{}`: \
                             observation is observe-only — move the hook into an \
                             Observer method (crates/tiering/src/observe.rs) off this path",
                            t.text, name, verb, perturb.text
                        ),
                    );
                }
            }
        }
        // Resume after the body: nested fns are rare and a second pass
        // over them would only duplicate diagnostics.
        i = close.min(code.len()) + 1;
    }
}

/// Unit-suffix class of an identifier, per the `sim/src/units.rs` conventions.
pub(crate) fn unit_class(ident: &str) -> Option<&'static str> {
    if ident.ends_with("_ns") || ident.ends_with("_us") || ident.ends_with("_ms") {
        Some("time")
    } else if ident.ends_with("_bytes") {
        Some("bytes")
    } else if ident.ends_with("_pj") || ident.ends_with("_nj") {
        Some("energy")
    } else {
        None
    }
}

pub(crate) const MIXING_OPS: [&str; 8] = ["+", "-", "<", ">", "<=", ">=", "==", "!="];
const CAPACITY_SHIFTS: [u128; 5] = [10, 20, 30, 40, 50];

/// U1: unit-suffix mixing across additive/comparison operators, and raw
/// capacity literals (`1 << 30`, `1024 * 1024`) outside `sim/src/units.rs`.
fn scan_u1(code: &[&Token], ctx: &FileCtx, out: &mut Vec<Violation>) {
    for i in 0..code.len() {
        let t = code[i];
        if t.kind != TokenKind::Punct {
            continue;
        }
        // (a) `a_ns + b_bytes`: the identifier immediately left of the
        // operator vs the last identifier of the postfix chain on the right
        // (`x.total_bytes`, `y.stats.sum_pj()`).
        if MIXING_OPS.contains(&t.text.as_str()) && i > 0 {
            let lhs = code[i - 1];
            if lhs.kind == TokenKind::Ident {
                if let (Some(lc), Some((rc, rt))) =
                    (unit_class(&lhs.text), rhs_unit_class(code, i + 1))
                {
                    if lc != rc {
                        push(
                            out,
                            RuleId::U1,
                            ctx,
                            t.line,
                            format!(
                                "`{}` ({}) {} `{}` ({}) mixes unit classes; convert \
                                 explicitly via `sim::units` before combining",
                                lhs.text, lc, t.text, rt, rc
                            ),
                        );
                    }
                }
            }
        }
        // (b) capacity literals.
        if ctx.units_file {
            continue;
        }
        if t.is_punct("<<") && i > 0 {
            if let (TokenKind::Int { .. }, TokenKind::Int { value: Some(sh) }) = (
                &code[i - 1].kind,
                code.get(i + 1)
                    .map(|t| t.kind.clone())
                    .unwrap_or(TokenKind::Punct),
            ) {
                if CAPACITY_SHIFTS.contains(&sh) {
                    push(
                        out,
                        RuleId::U1,
                        ctx,
                        t.line,
                        format!(
                            "raw capacity literal `{} << {}`: use the named constants \
                             in `mrm_sim::units` (KIB/MIB/GIB/TIB)",
                            code[i - 1].text,
                            sh
                        ),
                    );
                }
            }
        }
        if t.is_punct("*") && i > 0 {
            let is_1024 = |k: &TokenKind| matches!(k, TokenKind::Int { value: Some(1024) });
            if is_1024(&code[i - 1].kind) && code.get(i + 1).is_some_and(|r| is_1024(&r.kind)) {
                push(
                    out,
                    RuleId::U1,
                    ctx,
                    t.line,
                    "raw capacity literal `1024 * 1024`: use the named constants in \
                     `mrm_sim::units` (KIB/MIB/GIB/TIB)"
                        .to_string(),
                );
            }
        }
    }
}

/// Unit class of the right operand: walks the postfix chain
/// (`ident (:: | .) ident ...`) and returns the last identifier's class.
/// Stops at `as` so `lat_ns as f64` resolves to `lat_ns`, not `f64`.
fn rhs_unit_class(code: &[&Token], mut j: usize) -> Option<(&'static str, String)> {
    let mut last: Option<&Token> = None;
    while j < code.len() {
        let t = code[j];
        if t.is_ident("as") {
            break;
        }
        if t.kind == TokenKind::Ident {
            last = Some(t);
            j += 1;
        } else if t.is_punct(".") || t.is_punct("::") {
            j += 1;
        } else {
            break;
        }
    }
    let t = last?;
    unit_class(&t.text).map(|c| (c, t.text.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_sim() -> FileCtx {
        FileCtx {
            path: "crates/sim/src/x.rs".into(),
            sim_path: true,
            library: true,
            ..FileCtx::default()
        }
    }

    /// The context the real workspace gives `path`.
    fn ws_ctx(path: &str) -> FileCtx {
        FileCtx::classify(path, &crate::manifest::workspace_sim_crates())
    }

    fn rules_of(report: &FileReport) -> Vec<RuleId> {
        report.violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn classify_paths() {
        let c = ws_ctx("crates/tiering/src/prefix.rs");
        assert!(c.sim_path && c.library);
        // `mrm-tiering` links `core` for every KV allocation.
        let c = ws_ctx("crates/core/src/pool.rs");
        assert!(c.sim_path && c.library);
        // Observe-only crates are linked but stay off the sim path.
        let c = ws_ctx("crates/telemetry/src/sink.rs");
        assert!(c.library && !c.sim_path);
        let c = ws_ctx("crates/bench/src/bin/e7_dcm.rs");
        assert!(!c.library);
        let c = ws_ctx("crates/sim/src/units.rs");
        assert!(c.units_file);
        let c = ws_ctx("tests/determinism.rs");
        assert!(!c.library && !c.sim_path);
    }

    #[test]
    fn allow_suppresses_same_and_next_line() {
        let src = "// mrm-lint: allow(U1) a bound, not a byte capacity\n\
                   let m = 1024 * 1024;\n";
        let r = lint_source(src, &ctx_sim());
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Wrong rule in the annotation does not suppress.
        let src = "// mrm-lint: allow(D5) wrong rule\nlet m = 1024 * 1024;\n";
        let r = lint_source(src, &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::U1]);
    }

    #[test]
    fn allow_without_reason_is_malformed() {
        let src = "// mrm-lint: allow(U1)\nlet m = 1024 * 1024;\n";
        let r = lint_source(src, &ctx_sim());
        assert!(rules_of(&r).contains(&RuleId::Meta));
        assert!(
            rules_of(&r).contains(&RuleId::U1),
            "malformed allow must not suppress"
        );
    }

    #[test]
    fn d5_skips_cfg_test_and_records_test_mods() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n\
                   #[cfg(test)]\nmod tests {\n  fn g() { None::<u32>.unwrap(); }\n}\n\
                   #[cfg(test)]\nmod proptests;\n";
        let r = lint_source(src, &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::D5]);
        assert_eq!(r.violations[0].line, 1);
        assert_eq!(r.test_only_modules, vec!["proptests".to_string()]);
    }

    #[test]
    fn d5_expect_empty_vs_actionable() {
        let r = lint_source("fn f() { o().expect(\"\"); }", &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::D5]);
        let r = lint_source(
            "fn f() { o().expect(\"queue non-empty by invariant\"); }",
            &ctx_sim(),
        );
        assert!(r.violations.is_empty());
    }

    #[test]
    fn u1_mixing_and_literals() {
        let r = lint_source("let x = lat_ns + size_bytes;", &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::U1]);
        let r = lint_source("let x = read_ns + decode_ns;", &ctx_sim());
        assert!(r.violations.is_empty(), "same class is fine");
        let r = lint_source("let x = lat_ns * per_ns_pj;", &ctx_sim());
        assert!(
            r.violations.is_empty(),
            "multiplication legitimately mixes units"
        );
        let r = lint_source("let e_pj = total_pj + dev.stats.sum_bytes;", &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::U1], "postfix chain rhs");
        let r = lint_source("let g = 1u64 << 30;", &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::U1]);
        let r = lint_source("let m = 1024 * 1024;", &ctx_sim());
        assert_eq!(rules_of(&r), vec![RuleId::U1]);
        let r = lint_source("let flags = 1 << 3;", &ctx_sim());
        assert!(r.violations.is_empty(), "small shifts are not capacities");
        let units = ws_ctx("crates/sim/src/units.rs");
        let r = lint_source("pub const GIB: u64 = 1 << 30;", &units);
        assert!(r.violations.is_empty(), "units.rs is the one allowed home");
    }

    #[test]
    fn d8_confines_obs_hooks_off_rng_and_queue_paths() {
        // Hook inside an RNG-drawing function: violation.
        let r = lint_source(
            "fn h(&mut self) { let x = self.rng.gen_bool(0.5); \
             if let Some(o) = self.obs.as_mut() { o.tracer.instant(); } }",
            &ctx_sim(),
        );
        assert_eq!(rules_of(&r), vec![RuleId::D8]);
        // Hook inside a queue-mutating function: violation.
        let r = lint_source(
            "fn h(&mut self) { self.queue.schedule(t, ev); o.profiler.enter(\"x\"); }",
            &ctx_sim(),
        );
        assert_eq!(rules_of(&r), vec![RuleId::D8]);
        // Observing through a separate observe-only call (an `Observer`
        // method) is the sanctioned pattern.
        let r = lint_source(
            "fn h(&mut self) { self.queue.schedule(t, ev); self.obs_admit(now, acc); }",
            &ctx_sim(),
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // A helper that only observes may name the tracer freely.
        let r = lint_source(
            "fn obs_admit(&mut self) { if let Some(o) = self.obs.as_mut() { o.tracer.begin(); } }",
            &ctx_sim(),
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Test regions are out of scope (assertions, not hot paths).
        let r = lint_source(
            "#[cfg(test)]\nmod tests {\n fn t() { q.pop(); obs.tracer.total(); }\n}\n",
            &ctx_sim(),
        );
        assert!(r.violations.is_empty(), "{:?}", r.violations);
        // Non-sim-path crates are out of D8's scope.
        let r = lint_source(
            "fn h() { q.pop(); o.tracer.finish(t); }",
            &ws_ctx("crates/bench/src/lib.rs"),
        );
        assert!(r.violations.is_empty());
    }
}
