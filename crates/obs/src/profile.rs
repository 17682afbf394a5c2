//! Sim-time + wall-clock profiler over event-handler execution.
//!
//! [`Profiler::enter_id`]/[`Profiler::exit`] bracket a handler's execution;
//! frames nest, so each handler accumulates *total* wall time (itself
//! plus callees) and *self* wall time (total minus callees). Because
//! the simulator executes handlers at an instant of sim time, sim-time
//! cost is attributed explicitly: [`Profiler::sim_cost_id`] charges a
//! handler with the simulated interval it scheduled (a decode
//! iteration's duration, a maintenance period's scrub time).
//!
//! The hot path is built for per-event use: handler names are interned
//! once into [`HandlerId`]s (resolve them at attach time, not per
//! event), per-handler stats live in an id-indexed vector, and folded
//! stacks accumulate in a call-tree of id-keyed nodes — no string is
//! built and no map is walked while the simulation runs. Back-to-back
//! handlers hand off through [`Profiler::switch`], which closes one
//! frame and opens the next on a *single* clock reading.
//!
//! Exports: [`Profiler::folded`] emits `inferno`/`flamegraph.pl`-ready
//! folded stacks (`mrm;dispatch;decode_iter 1234` lines, self wall-ns
//! values), and [`Profiler::report`] the top-N hot-handler table that
//! the experiment bins write under `--profile` and `simbench`'s traced
//! run turns into per-layer metrics.
//!
//! Wall-clock readings make this the one deliberately nondeterministic
//! surface in the workspace: `mrm-obs` is *not* a sim-path crate (lint
//! D1 does not apply), and CI never byte-compares profile output —
//! only traces, which are pure sim time.

use std::collections::BTreeMap;
use std::time::Instant;

use mrm_sim::time::SimDuration;
use serde::Serialize;

/// An interned handler label — resolve once via [`Profiler::handle`],
/// then profile by id with no lookups on the event path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandlerId(u32);

/// Sentinel index for "no node" in the call-tree link fields.
const NONE: u32 = u32::MAX;

struct Frame {
    /// Call-tree node this frame accumulates into.
    node: u32,
    started: Instant,
    child_wall_ns: u64,
}

/// One position in the call tree (a unique root-to-here handler path).
/// Children form a singly linked sibling list; lists are a handful of
/// entries long (distinct callees of one handler), so a linear walk
/// beats any map.
struct Node {
    handler: u32,
    parent: u32,
    first_child: u32,
    next_sibling: u32,
    /// Accumulated self wall time at this path.
    self_ns: u64,
    /// Whether any frame completed here (folded output includes only
    /// exited paths, matching frame-exit attribution).
    exited: bool,
}

#[derive(Clone, Copy, Default)]
struct Stat {
    calls: u64,
    wall_self_ns: u64,
    wall_total_ns: u64,
    sim_ns: u64,
    /// Whether the handler was ever exited or sim-charged (interned-only
    /// ids do not count as observed handlers).
    used: bool,
}

/// One row of the hot-handler table.
#[derive(Clone, Debug, Serialize)]
pub struct HotHandler {
    /// Handler label (the name interned by [`Profiler::handle`]).
    pub name: String,
    /// Times entered.
    pub calls: u64,
    /// Wall nanoseconds excluding callees.
    pub wall_self_ns: u64,
    /// Wall nanoseconds including callees.
    pub wall_total_ns: u64,
    /// Simulated nanoseconds attributed via [`Profiler::sim_cost_id`].
    pub sim_ns: u64,
}

/// Top-N summary, serializable into perf_suite's BENCH records.
#[derive(Clone, Debug, Serialize)]
pub struct ProfileReport {
    /// Distinct handler labels seen.
    pub handlers: u64,
    /// Total wall nanoseconds across root frames.
    pub wall_total_ns: u64,
    /// Hottest handlers by self wall time, descending.
    pub top: Vec<HotHandler>,
}

/// Frame-stack profiler; see the module docs. All methods are
/// observe-only and never touch sim state.
#[derive(Default)]
pub struct Profiler {
    /// Interned handler names, indexed by `HandlerId`.
    names: Vec<&'static str>,
    /// Name → id, consulted only at interning time.
    index: BTreeMap<&'static str, u32>,
    /// Per-handler stats, indexed by `HandlerId`.
    stats: Vec<Stat>,
    stack: Vec<Frame>,
    nodes: Vec<Node>,
    /// Head of the root-level sibling list.
    root_child: u32,
    /// Root-level node per handler (`NONE` until first visit) — a memo
    /// for the top-level enter/switch hot path, which would otherwise
    /// walk the root sibling list on every event.
    root_nodes: Vec<u32>,
    /// Node of the innermost open frame (`NONE` at top level).
    cur_node: u32,
    root_wall_ns: u64,
}

impl Profiler {
    /// New, empty profiler.
    pub fn new() -> Self {
        Profiler {
            root_child: NONE,
            cur_node: NONE,
            ..Profiler::default()
        }
    }

    /// Interns `name`, returning the id to profile it by. Idempotent;
    /// call it once when wiring hooks up, never per event.
    pub fn handle(&mut self, name: &'static str) -> HandlerId {
        if let Some(&id) = self.index.get(name) {
            return HandlerId(id);
        }
        let id = self.names.len() as u32;
        self.names.push(name);
        self.stats.push(Stat::default());
        self.index.insert(name, id);
        HandlerId(id)
    }

    /// Opens a frame for a pre-resolved handler. Every `enter_id` must be
    /// matched by an `exit`.
    pub fn enter_id(&mut self, id: HandlerId) {
        self.enter_at(id, Instant::now());
    }

    /// Closes the innermost frame, attributing elapsed wall time.
    pub fn exit(&mut self) {
        self.exit_at(Instant::now());
    }

    /// Closes the innermost frame and opens one for `id` on a single
    /// clock reading — the handler-to-handler lap transition.
    pub fn switch(&mut self, id: HandlerId) {
        let t = Instant::now();
        self.exit_at(t);
        self.enter_at(id, t);
    }

    fn enter_at(&mut self, id: HandlerId, t: Instant) {
        let node = self.node_for(id.0);
        self.cur_node = node;
        self.stack.push(Frame {
            node,
            started: t,
            child_wall_ns: 0,
        });
    }

    fn exit_at(&mut self, t: Instant) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = u64::try_from(t.duration_since(frame.started).as_nanos()).unwrap_or(u64::MAX);
        let self_ns = elapsed.saturating_sub(frame.child_wall_ns);
        let node = &mut self.nodes[frame.node as usize];
        node.self_ns += self_ns;
        node.exited = true;
        let (handler, parent) = (node.handler, node.parent);
        let stat = &mut self.stats[handler as usize];
        stat.calls += 1;
        stat.wall_total_ns += elapsed;
        stat.wall_self_ns += self_ns;
        stat.used = true;
        self.cur_node = parent;
        match self.stack.last_mut() {
            Some(parent) => parent.child_wall_ns += elapsed,
            None => self.root_wall_ns += elapsed,
        }
    }

    /// The call-tree position for `handler` under the current frame,
    /// created on first visit.
    fn node_for(&mut self, handler: u32) -> u32 {
        if self.cur_node == NONE {
            if let Some(&n) = self.root_nodes.get(handler as usize) {
                if n != NONE {
                    return n;
                }
            }
        }
        let head = if self.cur_node == NONE {
            self.root_child
        } else {
            self.nodes[self.cur_node as usize].first_child
        };
        let mut c = head;
        while c != NONE {
            if self.nodes[c as usize].handler == handler {
                return c;
            }
            c = self.nodes[c as usize].next_sibling;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            handler,
            parent: self.cur_node,
            first_child: NONE,
            next_sibling: head,
            self_ns: 0,
            exited: false,
        });
        if self.cur_node == NONE {
            self.root_child = id;
            if self.root_nodes.len() <= handler as usize {
                self.root_nodes.resize(handler as usize + 1, NONE);
            }
            self.root_nodes[handler as usize] = id;
        } else {
            self.nodes[self.cur_node as usize].first_child = id;
        }
        id
    }

    /// Charges handler `id` with a simulated interval (e.g. the decode
    /// iteration latency the handler scheduled).
    pub fn sim_cost_id(&mut self, id: HandlerId, d: SimDuration) {
        let stat = &mut self.stats[id.0 as usize];
        stat.sim_ns += d.as_nanos();
        stat.used = true;
    }

    /// Flamegraph-ready folded stacks, one `stack self_ns` line each,
    /// sorted by stack key.
    pub fn folded(&self) -> String {
        let mut lines: Vec<(String, u64)> = Vec::new();
        // Depth-first over the call tree, rendering each exited path.
        let mut pending: Vec<(u32, String)> = Vec::new();
        let mut c = self.root_child;
        while c != NONE {
            pending.push((c, String::from("mrm")));
            c = self.nodes[c as usize].next_sibling;
        }
        while let Some((n, prefix)) = pending.pop() {
            let node = &self.nodes[n as usize];
            let mut key = prefix.clone();
            key.push(';');
            key.push_str(self.names[node.handler as usize]);
            let mut child = node.first_child;
            while child != NONE {
                pending.push((child, key.clone()));
                child = self.nodes[child as usize].next_sibling;
            }
            if node.exited {
                lines.push((key, node.self_ns));
            }
        }
        lines.sort();
        let mut out = String::new();
        for (key, ns) in &lines {
            out.push_str(key);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }

    /// Top-`n` handlers by self wall time (ties broken by name so the
    /// table is stable).
    pub fn report(&self, n: usize) -> ProfileReport {
        let mut top: Vec<HotHandler> = self
            .stats
            .iter()
            .zip(&self.names)
            .filter(|(s, _)| s.used)
            .map(|(s, name)| HotHandler {
                name: (*name).to_string(),
                calls: s.calls,
                wall_self_ns: s.wall_self_ns,
                wall_total_ns: s.wall_total_ns,
                sim_ns: s.sim_ns,
            })
            .collect();
        let handlers = top.len() as u64;
        top.sort_by(|a, b| {
            b.wall_self_ns
                .cmp(&a.wall_self_ns)
                .then_with(|| a.name.cmp(&b.name))
        });
        top.truncate(n);
        ProfileReport {
            handlers,
            wall_total_ns: self.root_wall_ns,
            top,
        }
    }

    /// Renders `report(n)` as an aligned text table for bin output.
    pub fn table(&self, n: usize) -> String {
        let rep = self.report(n);
        let mut out =
            String::from("handler                     calls     self ms    total ms      sim s\n");
        for h in &rep.top {
            out.push_str(&format!(
                "{:<24} {:>9} {:>11.3} {:>11.3} {:>10.1}\n",
                h.name,
                h.calls,
                h.wall_self_ns as f64 / 1e6,
                h.wall_total_ns as f64 / 1e6,
                h.sim_ns as f64 / 1e9,
            ));
        }
        out
    }
}

/// Renders the `--profile` artifact for a set of labelled grid points:
/// one JSON line per point carrying its top-`n` report, followed by a
/// `# folded` section with each point's flamegraph-ready stacks prefixed
/// by `label;`. Wall-clock values are machine-dependent by design — CI
/// byte-compares traces, never this file.
pub fn artifact(points: &[(String, &Profiler)], n: usize) -> String {
    let mut out = String::new();
    for (label, p) in points {
        // Hand-rolled envelope: the vendored serde derive does not handle
        // borrowed fields, and the label needs JSON string escaping.
        let label_json =
            serde_json::to_string(&serde_json::Value::Str(label.clone())).unwrap_or_default();
        let report_json = serde_json::to_string(&p.report(n)).unwrap_or_default();
        out.push_str(&format!(
            "{{\"point\":{label_json},\"report\":{report_json}}}\n"
        ));
    }
    out.push_str("# folded\n");
    for (label, p) in points {
        for line in p.folded().lines() {
            out.push_str(label);
            out.push(';');
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns `name` and opens a frame for it.
    fn enter(p: &mut Profiler, name: &'static str) {
        let id = p.handle(name);
        p.enter_id(id);
    }

    #[test]
    fn artifact_has_one_json_line_per_point_and_folded_section() {
        let mut p = Profiler::new();
        enter(&mut p, "dispatch");
        p.exit();
        let points = vec![("pt0".to_string(), &p)];
        let points: Vec<(String, &Profiler)> = points;
        let text = artifact(&points, 5);
        let mut lines = text.lines();
        let first = lines.next().unwrap();
        assert!(first.starts_with("{\"point\":\"pt0\","), "{first}");
        assert!(text.contains("# folded\n"));
        assert!(text.contains("pt0;mrm;dispatch "));
    }

    #[test]
    fn self_time_excludes_children() {
        let mut p = Profiler::new();
        enter(&mut p, "dispatch");
        enter(&mut p, "decode");
        p.exit();
        p.exit();
        let rep = p.report(10);
        let get = |n: &str| rep.top.iter().find(|h| h.name == n).unwrap().clone();
        let dispatch = get("dispatch");
        let decode = get("decode");
        assert_eq!(dispatch.calls, 1);
        assert!(dispatch.wall_total_ns >= decode.wall_total_ns);
        assert!(dispatch.wall_self_ns <= dispatch.wall_total_ns);
        assert_eq!(rep.handlers, 2);
        assert!(rep.wall_total_ns >= dispatch.wall_total_ns);
    }

    #[test]
    fn folded_stacks_nest_by_semicolon() {
        let mut p = Profiler::new();
        enter(&mut p, "a");
        enter(&mut p, "b");
        p.exit();
        p.exit();
        let folded = p.folded();
        assert!(folded.contains("mrm;a "));
        assert!(folded.contains("mrm;a;b "));
        for line in folded.lines() {
            let (_, v) = line.rsplit_once(' ').unwrap();
            v.parse::<u64>().unwrap();
        }
    }

    #[test]
    fn folded_lines_are_sorted_and_merge_repeat_visits() {
        let mut p = Profiler::new();
        for _ in 0..3 {
            enter(&mut p, "z");
            p.exit();
            enter(&mut p, "a");
            enter(&mut p, "b");
            p.exit();
            p.exit();
        }
        let folded = p.folded();
        let keys: Vec<&str> = folded
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        // One line per distinct path, in sorted order.
        assert_eq!(keys, vec!["mrm;a", "mrm;a;b", "mrm;z"]);
        let rep = p.report(10);
        for h in &rep.top {
            if h.name != "a" {
                continue;
            }
            assert_eq!(h.calls, 3);
        }
    }

    #[test]
    fn sim_cost_accumulates() {
        let mut p = Profiler::new();
        enter(&mut p, "decode");
        p.exit();
        let decode = p.handle("decode");
        p.sim_cost_id(decode, SimDuration::from_millis(3));
        p.sim_cost_id(decode, SimDuration::from_millis(2));
        let rep = p.report(1);
        assert_eq!(rep.top[0].sim_ns, 5_000_000);
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut p = Profiler::new();
        p.exit();
        assert_eq!(p.report(5).handlers, 0);
    }

    #[test]
    fn interned_but_unused_handles_are_not_reported() {
        let mut p = Profiler::new();
        let spare = p.handle("never_fires");
        let hot = p.handle("hot");
        assert_eq!(p.handle("hot"), hot, "interning is idempotent");
        assert_ne!(spare, hot);
        p.enter_id(hot);
        p.exit();
        let rep = p.report(10);
        assert_eq!(rep.handlers, 1);
        assert_eq!(rep.top[0].name, "hot");
    }

    #[test]
    fn switch_closes_and_opens_on_one_instant() {
        let mut p = Profiler::new();
        let a = p.handle("a");
        let b = p.handle("b");
        p.enter_id(a);
        p.switch(b);
        p.exit();
        let rep = p.report(10);
        assert_eq!(rep.handlers, 2);
        let calls: u64 = rep.top.iter().map(|h| h.calls).sum();
        assert_eq!(calls, 2);
        // Both frames were roots: total root wall covers both laps.
        let total: u64 = rep.top.iter().map(|h| h.wall_total_ns).sum();
        assert_eq!(rep.wall_total_ns, total);
        // And the folded output has both as root stacks.
        let folded = p.folded();
        assert!(folded.contains("mrm;a "));
        assert!(folded.contains("mrm;b "));
    }
}
