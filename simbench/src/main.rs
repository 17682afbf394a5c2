//! `simbench`: host-throughput benchmark for the mrm simulator.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simbench --e16-tuple
//! ```
//!
//! One single-threaded process runs one workload for `--seconds`: every
//! input is generated from `--seed`, every run's simulated output is
//! checked, and the last stdout line is one JSON object with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics of a traced
//! run (`--trace 1`). `--e16-tuple` prints the soak's counter tuple at
//! `e16_soak`'s seed, timers off and on, for comparison with the tuple
//! `e16_soak` saves. See `NOTES.md` for what each workload and metric is
//! for.

mod serve;
mod soak;

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mrm_tiering::cluster::ClusterConfig;

use serve::Shape;

/// Workload name -> serving shape, or `None` for the soak.
const WORKLOADS: [(&str, Option<Shape>); 4] = [
    ("serve_steady", Some(Shape::Steady)),
    ("serve_faulted", Some(Shape::Faulted)),
    ("serve_refresh", Some(Shape::Refresh)),
    ("soak_lifecycle", None),
];

/// Distinct inputs per run, each derived from `--seed`; every metric is
/// an aggregate over all of them, which averages out one seed's luck.
const CASES_PER_RUN: u64 = 4;
/// Stack constructions averaged into one `setup_s` sample.
const SETUP_BATCH: usize = 8;
/// Timed rounds (one bare and one observed run per input) a run makes
/// even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 3;
/// The quantile of an input's run times that stands for it. The host is
/// shared: other tenants slow stretches of a run by 10-45%, so a low
/// quantile tracks the program's own cost far more steadily than the
/// median does (see `NOTES.md`).
const TIMING_QUANTILE: f64 = 0.25;
/// What `reference_kernel` takes on the unloaded 2-vCPU host the bounds
/// were set on. End-to-end times are scaled by this over the kernel's
/// times around them, so they read as times on that host.
const REFERENCE_NOMINAL_S: f64 = 0.0075;
/// Accepted range of `trace.coverage`: the share of traced wall time the
/// per-layer self times account for.
const COVERAGE_RANGE: (f64, f64) = (0.75, 1.0);

struct Args {
    workload: &'static str,
    shape: Option<Shape>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let &(workload, shape) = WORKLOADS
        .iter()
        .find(|(w, _)| *w == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        workload,
        shape,
        seed,
        seconds,
        trace,
    })
}

/// SplitMix64 finaliser: derives independent input seeds from `--seed`.
fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed ^ k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a, for printing a short digest of a run's simulated outputs.
fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The `p` quantile of `xs`, interpolating between order statistics.
fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The run time that stands for one input: see `TIMING_QUANTILE`.
fn typical(xs: &[f64]) -> f64 {
    quantile(xs, TIMING_QUANTILE)
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Keeps the first value put in `slot`; a later one must equal it.
fn same<T: PartialEq>(slot: &mut Option<T>, v: T) -> bool {
    match slot {
        Some(first) => *first == v,
        None => {
            *slot = Some(v);
            true
        }
    }
}

/// `min..median..max` of a list of seconds, in milliseconds.
fn spread_ms(xs: &[f64]) -> String {
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(0.0, f64::max);
    if xs.is_empty() {
        return "-".into();
    }
    format!("{:.1}..{:.1}..{:.1}", lo * 1e3, median(xs) * 1e3, hi * 1e3)
}

/// Host seconds for a fixed event-loop-like kernel (binary heap, hash
/// map, small vectors) in the benchmark's own code, timed between runs to
/// track how fast the shared host runs at the moment. No repository code
/// runs in it, so no change to the simulator can move it.
fn reference_kernel() -> f64 {
    let t = Instant::now();
    let mut heap = BinaryHeap::new();
    let mut buckets: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse((x % 1_000_000, i)));
        if heap.len() > 2048 {
            let Some(Reverse((k, v))) = heap.pop() else {
                break;
            };
            let bucket = buckets.entry(k & 0x3FF).or_default();
            bucket.push(v);
            if bucket.len() > 16 {
                acc = acc.wrapping_add(bucket.iter().sum::<u64>());
                buckets.remove(&(k & 0x3FF));
            }
        }
    }
    std::hint::black_box((acc, buckets.len()));
    t.elapsed().as_secs_f64()
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One fixed input of a workload.
enum Case {
    Serve(Box<ClusterConfig>),
    Soak(u64),
}

/// One run of a case, in workload-neutral terms.
struct Rep {
    /// Host seconds for the whole run, set-up included.
    wall_s: f64,
    /// Dispatched events, when the run could count them.
    events: Option<u64>,
    /// Canonical text of the simulated outputs; identical for every run
    /// of the same input.
    digest: String,
    /// Per-layer (calls, self ns) of an observed run.
    layers: Vec<(&'static str, u64, u64)>,
    /// Per-layer counts; they repeat exactly for a given input.
    counts: Vec<(&'static str, f64)>,
}

impl Case {
    fn sim_seconds(&self) -> f64 {
        match self {
            Case::Serve(cfg) => cfg.duration.as_nanos() as f64 / 1e9,
            Case::Soak(_) => soak::SIM_SECONDS,
        }
    }

    /// Mean host seconds of `SETUP_BATCH` constructions of the stack.
    fn setup_sample(&self) -> f64 {
        let total: f64 = (0..SETUP_BATCH)
            .map(|_| match self {
                Case::Serve(cfg) => serve::setup_only(cfg),
                Case::Soak(seed) => soak::setup_only(*seed),
            })
            .sum();
        total / SETUP_BATCH as f64
    }

    /// Runs the case once and applies the per-run output check.
    fn run(&self, observed: bool) -> Result<Rep, String> {
        match self {
            Case::Serve(cfg) => {
                let r = serve::run(cfg, observed);
                let rep = &r.report;
                if rep.faults.silent != 0 {
                    return Err(format!("{} silent corruptions", rep.faults.silent));
                }
                if rep.control.required_drop_violations != 0 {
                    return Err(format!(
                        "{} required-drop violations",
                        rep.control.required_drop_violations
                    ));
                }
                if rep.tokens == 0 {
                    return Err("no tokens decoded".into());
                }
                let json = serde_json::to_string(rep).map_err(|e| format!("report json: {e:?}"))?;
                let f = &rep.faults;
                let counts = vec![
                    ("faults.reads", f.reads as f64),
                    ("faults.corrected", f.corrected as f64),
                    (
                        "faults.uncorrectable",
                        (f.detected_ue + f.miscorrected) as f64,
                    ),
                    ("faults.retries", f.retries as f64),
                    ("faults.silent", f.silent as f64),
                    ("tiering.iterations", rep.iterations as f64),
                    ("tiering.batch_sum", rep.mean_batch * rep.iterations as f64),
                    ("tiering.cache_hits", rep.cache_hits as f64),
                    ("tiering.recomputes", rep.recomputes as f64),
                    ("tiering.evictions", rep.evictions as f64),
                    ("control.audit_records", r.audit_records as f64),
                    ("control.refreshes", rep.control.refreshes as f64),
                    (
                        "control.required_drop_violations",
                        rep.control.required_drop_violations as f64,
                    ),
                ];
                let (events, layers) = match &r.obs {
                    Some(obs) => {
                        let hs = serve::handlers(obs);
                        let events = hs.iter().filter(|h| h.event).map(|h| h.calls).sum();
                        let layers = hs.iter().map(|h| (h.layer, h.calls, h.self_ns)).collect();
                        (Some(events), layers)
                    }
                    None => (None, Vec::new()),
                };
                Ok(Rep {
                    wall_s: r.wall_s,
                    events,
                    digest: format!("{json} audit_records={}", r.audit_records),
                    layers,
                    counts,
                })
            }
            Case::Soak(seed) => {
                let r = soak::run(*seed, observed)?;
                let layers = if observed {
                    soak::LAYER_NAMES
                        .iter()
                        .enumerate()
                        .map(|(i, name)| (*name, r.timers.calls[i], r.timers.ns[i]))
                        .collect()
                } else {
                    Vec::new()
                };
                let counts = vec![
                    ("control.audit_records", r.audit_records as f64),
                    ("control.refreshes", r.refreshes as f64),
                    ("control.work_items", r.tuple[4] as f64),
                    ("controller.zones.reads", r.zone_reads as f64),
                    (
                        "controller.zones.read_failures",
                        r.zone_read_failures as f64,
                    ),
                    ("controller.ftl.write_amp", r.ftl_write_amp),
                    ("controller.ftl.errors", r.ftl_errors as f64),
                    ("controller.dcm.derates", r.dcm_derates as f64),
                ];
                Ok(Rep {
                    wall_s: r.wall_s,
                    events: Some(r.events),
                    digest: format!("tuple={:?} events={} counts={counts:?}", r.tuple, r.events),
                    layers,
                    counts,
                })
            }
        }
    }
}

/// Everything recorded about one case across a run's repetitions.
#[derive(Default)]
struct CaseStats {
    digest: Option<String>,
    counts: Option<Vec<(&'static str, f64)>>,
    layer_calls: Option<Vec<(&'static str, u64)>>,
    /// Host seconds of each timed bare and observed run.
    bare_wall: Vec<f64>,
    obs_wall: Vec<f64>,
    /// The same times scaled to the reference host: see `measure`.
    bare_scaled: Vec<f64>,
    obs_scaled: Vec<f64>,
    events: Option<u64>,
    /// Per layer: self ns summed over observed runs.
    layer_ns: BTreeMap<&'static str, u64>,
}

struct Harness {
    cases: Vec<Case>,
    stats: Vec<CaseStats>,
    /// Set-up samples, unscaled and scaled.
    setup: Vec<f64>,
    setup_scaled: Vec<f64>,
    rss: Option<f64>,
    /// Every `reference_kernel` time of the run, in order.
    reference: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Harness {
    fn new(cases: Vec<Case>) -> Harness {
        let stats = cases.iter().map(|_| CaseStats::default()).collect();
        Harness {
            cases,
            stats,
            setup: Vec::new(),
            setup_scaled: Vec::new(),
            rss: None,
            reference: Vec::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(msg);
        }
    }

    /// One run of case `i`; a failed check counts against the run and
    /// never stops the others.
    fn rep(&mut self, i: usize, observed: bool) {
        self.attempted += 1;
        let case = &self.cases[i];
        let rep = match catch_unwind(AssertUnwindSafe(|| case.run(observed))) {
            Ok(Ok(rep)) => rep,
            Ok(Err(e)) => return self.fail(format!("input {i}: {e}")),
            Err(_) => return self.fail(format!("input {i}: run panicked")),
        };
        let st = &mut self.stats[i];
        let calls = observed.then(|| rep.layers.iter().map(|&(l, c, _)| (l, c)).collect());
        let repeats = same(&mut st.digest, rep.digest)
            && same(&mut st.counts, rep.counts)
            && calls.is_none_or(|c| same(&mut st.layer_calls, c))
            && rep.events.is_none_or(|e| same(&mut st.events, e));
        if !repeats {
            return self.fail(format!(
                "input {i}: simulated outputs or counts differ between runs"
            ));
        }
        if observed {
            for &(layer, _, ns) in &rep.layers {
                *st.layer_ns.entry(layer).or_default() += ns;
            }
            st.obs_wall.push(rep.wall_s);
        } else {
            st.bare_wall.push(rep.wall_s);
        }
    }

    /// The measurement, the same for both kinds of run:
    /// - one warm-up bare run of every input, checked but not timed; the
    ///   peak RSS is read after the first, so it is that of one run in a
    ///   fresh process (later runs add allocator history, which makes the
    ///   peak depend on the order of inputs);
    /// - then, per input in turn, one set-up sample, one bare and one
    ///   observed run, until `until` has passed and `MIN_ROUNDS` rounds
    ///   are done. Set-ups, bare and observed runs alternate so all see
    ///   the same host conditions. Set-ups are timed in this warm
    ///   process: in a fresh one, whether a construction page-faults
    ///   depends on the allocator's history, and a fault costs ~3 us on
    ///   this host.
    ///
    /// `reference_kernel` runs between inputs. Each input's times are
    /// scaled by `REFERENCE_NOMINAL_S` over the mean of the kernel times
    /// just before and just after them, so they read as times on the
    /// reference host at the moment they were taken.
    fn measure(&mut self, until: Instant) {
        for i in 0..self.cases.len() {
            self.rep(i, false);
            if i == 0 {
                self.rss = peak_rss_mb();
            }
        }
        for st in &mut self.stats {
            st.bare_wall.clear();
        }
        let mut before = reference_kernel();
        self.reference.push(before);
        let mut done = 0;
        'rounds: loop {
            for i in 0..self.cases.len() {
                if done >= MIN_ROUNDS && Instant::now() >= until {
                    break 'rounds;
                }
                let st = &self.stats[i];
                let (bare, obs) = (st.bare_wall.len(), st.obs_wall.len());
                let setup = self.cases[i].setup_sample();
                self.rep(i, false);
                self.rep(i, true);
                let after = reference_kernel();
                self.reference.push(after);
                let scale = REFERENCE_NOMINAL_S / ((before + after) / 2.0);
                self.setup.push(setup);
                self.setup_scaled.push(setup * scale);
                let st = &mut self.stats[i];
                st.bare_scaled
                    .extend(st.bare_wall[bare..].iter().map(|w| w * scale));
                st.obs_scaled
                    .extend(st.obs_wall[obs..].iter().map(|w| w * scale));
                before = after;
            }
            done += 1;
        }
    }

    /// Sum over cases of a per-case value; `None` if any case lacks it.
    fn sum(&self, f: impl Fn(&CaseStats) -> Option<f64>) -> Option<f64> {
        self.stats.iter().map(f).sum()
    }

    fn problem(&mut self, msg: String) {
        self.problems.push(msg);
    }
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics of an untraced run, from scaled times (see
/// `Harness::measure`), so they read as times on the reference host.
fn end_to_end(h: &mut Harness) -> Vec<Metric> {
    let sim: f64 = h.cases.iter().map(Case::sim_seconds).sum();
    let typical_sum =
        |xs: fn(&CaseStats) -> &Vec<f64>| -> f64 { h.stats.iter().map(|s| typical(xs(s))).sum() };
    println!(
        "\nreference kernel {:.3}..{:.3}..{:.3} ms (nominal {:.3} ms); unscaled: \
         {:.1} sim-s/s bare, {:.1} sim-s/s observed, set-up {:.1} us",
        quantile(&h.reference, 0.0) * 1e3,
        median(&h.reference) * 1e3,
        quantile(&h.reference, 1.0) * 1e3,
        REFERENCE_NOMINAL_S * 1e3,
        ratio(sim, typical_sum(|s| &s.bare_wall)),
        ratio(sim, typical_sum(|s| &s.obs_wall)),
        median(&h.setup) * 1e6,
    );
    let bare = typical_sum(|s| &s.bare_scaled);
    let observed = typical_sum(|s| &s.obs_scaled);
    let events = h.sum(|s| s.events.map(|e| e as f64));
    let rss = h.rss.unwrap_or_else(|| {
        h.problem("peak RSS unavailable".into());
        0.0
    });
    let events = events.unwrap_or_else(|| {
        h.problem("event count unavailable".into());
        0.0
    });
    vec![
        metric("sim_s_per_wall_s", "s/s", ratio(sim, bare)),
        metric("ns_per_event", "ns", ratio(bare * 1e9, events)),
        metric("observed_sim_s_per_wall_s", "s/s", ratio(sim, observed)),
        metric("setup_s", "s", median(&h.setup_scaled)),
        metric("peak_rss_mb", "MiB", rss),
    ]
}

/// One row of the per-layer table: a layer's totals per round (one run
/// of every case).
struct LayerRow {
    layer: &'static str,
    calls: u64,
    self_ns: f64,
}

/// The per-layer metrics of a traced run, plus its printed table and
/// sanity checks.
fn per_layer(h: &mut Harness, workload: &str) -> Vec<Metric> {
    // Per round: counts and calls summed over cases, self times averaged
    // over each case's observed runs and then summed.
    let mut rows: BTreeMap<&'static str, LayerRow> = BTreeMap::new();
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut traced_wall = 0.0;
    let (mut bare_scaled, mut obs_scaled) = (0.0, 0.0);
    let mut events = 0u64;
    for st in &h.stats {
        let n = st.obs_wall.len().max(1) as f64;
        traced_wall += st.obs_wall.iter().sum::<f64>() / n;
        bare_scaled += typical(&st.bare_scaled);
        obs_scaled += typical(&st.obs_scaled);
        events += st.events.unwrap_or(0);
        for &(layer, calls) in st.layer_calls.iter().flatten() {
            let row = rows.entry(layer).or_insert(LayerRow {
                layer,
                calls: 0,
                self_ns: 0.0,
            });
            row.calls += calls;
            row.self_ns += st.layer_ns.get(layer).copied().unwrap_or(0) as f64 / n;
        }
        for &(name, v) in st.counts.iter().flatten() {
            *counts.entry(name).or_default() += v;
        }
    }
    let covered_ns: f64 = rows.values().map(|r| r.self_ns).sum();
    let coverage = ratio(covered_ns, traced_wall * 1e9);
    let overhead = ratio(obs_scaled, bare_scaled);

    println!(
        "\nper-layer table (per round of {} inputs; traced wall {:.3} ms)",
        h.cases.len(),
        traced_wall * 1e3
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>7}",
        "layer", "calls", "self ms", "ns/call", "share"
    );
    let mut by_time: Vec<&LayerRow> = rows.values().collect();
    by_time.sort_by(|a, b| b.self_ns.total_cmp(&a.self_ns));
    for r in &by_time {
        println!(
            "{:<28} {:>10} {:>12.3} {:>12.1} {:>6.1}%",
            r.layer,
            r.calls,
            r.self_ns / 1e6,
            ratio(r.self_ns, r.calls as f64),
            100.0 * r.self_ns / (traced_wall * 1e9).max(1.0)
        );
    }
    println!(
        "trace.coverage {coverage:.4} (accepted {:.2}..={:.2}); obs.overhead_ratio {overhead:.4}",
        COVERAGE_RANGE.0, COVERAGE_RANGE.1
    );

    let row = |name: &str| rows.get(name).map_or((0, 0.0), |r| (r.calls, r.self_ns));
    let count = |name: &str| counts.get(name).copied().unwrap_or(0.0);
    let per_call = |name: &str| {
        let (c, ns) = row(name);
        ratio(ns, c as f64)
    };
    let self_ms = |name: &str| row(name).1 / 1e6;
    let calls = |name: &str| row(name).0 as f64;
    let cases = h.cases.len() as f64;

    let (mut checks, structural) = stress_checks(workload, &row, &count, traced_wall);
    checks.push((
        format!("trace.coverage {coverage:.4} within the accepted range"),
        (COVERAGE_RANGE.0..=COVERAGE_RANGE.1).contains(&coverage),
    ));
    println!("\ntraced-run checks:");
    println!("[n/a] {structural}");
    for (desc, pass) in &checks {
        println!("[{}] {desc}", if *pass { "PASS" } else { "FAIL" });
        if !pass {
            h.problem(format!("check failed: {desc}"));
        }
    }

    vec![
        metric(
            "tiering.iter_done.self_ns_per_call",
            "ns",
            per_call("tiering.iter_done"),
        ),
        metric(
            "tiering.iter_done.calls",
            "count",
            calls("tiering.iter_done"),
        ),
        metric(
            "tiering.admission.self_ns_per_call",
            "ns",
            per_call("tiering.admission"),
        ),
        metric(
            "tiering.admission.calls",
            "count",
            calls("tiering.admission"),
        ),
        metric(
            "tiering.arrival.self_ns_per_call",
            "ns",
            per_call("tiering.arrival"),
        ),
        metric(
            "tiering.followup.self_ns_per_call",
            "ns",
            per_call("tiering.followup"),
        ),
        metric("tiering.followup.calls", "count", calls("tiering.followup")),
        metric(
            "tiering.maintenance.self_ms",
            "ms",
            self_ms("tiering.maintenance"),
        ),
        metric(
            "control.reconcile_plan.self_ms",
            "ms",
            self_ms("control.reconcile_plan"),
        ),
        metric(
            "tiering.cache_expire.self_ms",
            "ms",
            self_ms("tiering.cache_expire"),
        ),
        metric("faults.reads", "count", count("faults.reads")),
        metric("faults.corrected", "count", count("faults.corrected")),
        metric(
            "faults.uncorrectable",
            "count",
            count("faults.uncorrectable"),
        ),
        metric("faults.retries", "count", count("faults.retries")),
        metric("faults.silent", "count", count("faults.silent")),
        metric("tiering.iterations", "count", count("tiering.iterations")),
        metric(
            "tiering.mean_batch",
            "requests",
            ratio(count("tiering.batch_sum"), count("tiering.iterations")),
        ),
        metric(
            "tiering.cache_hit_ratio",
            "ratio",
            ratio(
                count("tiering.cache_hits"),
                count("tiering.cache_hits") + count("tiering.recomputes"),
            ),
        ),
        metric("tiering.evictions", "count", count("tiering.evictions")),
        metric(
            "control.audit_records",
            "count",
            count("control.audit_records"),
        ),
        metric("control.refreshes", "count", count("control.refreshes")),
        metric(
            "control.required_drop_violations",
            "count",
            count("control.required_drop_violations"),
        ),
        metric("sim.events", "count", events as f64),
        metric("sim.queue.self_ms", "ms", self_ms("sim.queue")),
        metric("workload.sample.self_ms", "ms", self_ms("workload.sample")),
        metric(
            "controller.zones.self_ms",
            "ms",
            self_ms("controller.zones"),
        ),
        metric("controller.zones.calls", "count", calls("controller.zones")),
        metric("controller.dcm.self_ms", "ms", self_ms("controller.dcm")),
        metric("controller.dcm.calls", "count", calls("controller.dcm")),
        metric("controller.ftl.self_ms", "ms", self_ms("controller.ftl")),
        metric("controller.ftl.calls", "count", calls("controller.ftl")),
        metric(
            "controller.zones.read_fail_ratio",
            "ratio",
            ratio(
                count("controller.zones.read_failures"),
                count("controller.zones.reads"),
            ),
        ),
        metric(
            "controller.ftl.write_amp",
            "ratio",
            count("controller.ftl.write_amp") / cases,
        ),
        metric(
            "controller.ftl.errors",
            "count",
            count("controller.ftl.errors"),
        ),
        metric(
            "controller.dcm.derates",
            "count",
            count("controller.dcm.derates"),
        ),
        metric(
            "control.reconcile.self_ms",
            "ms",
            self_ms("control.reconcile"),
        ),
        metric("control.audit.self_ms", "ms", self_ms("control.audit")),
        metric(
            "control.checkpoint.self_ms",
            "ms",
            self_ms("control.checkpoint"),
        ),
        metric("control.work_items", "count", count("control.work_items")),
        metric("obs.overhead_ratio", "ratio", overhead),
        metric("trace.coverage", "ratio", coverage),
    ]
}

/// Checks that the workload stresses the layer it was chosen for, and
/// the stress pairing that holds by construction on it, which no run can
/// check: the cluster never calls `mrm-controller`, and the soak has no
/// cluster fault layer.
fn stress_checks(
    workload: &str,
    row: &dyn Fn(&str) -> (u64, f64),
    count: &dyn Fn(&str) -> f64,
    traced_wall: f64,
) -> (Vec<(String, bool)>, &'static str) {
    let reads = count("faults.reads");
    let refreshes = count("control.refreshes");
    let controller_calls: u64 = ["controller.zones", "controller.dcm", "controller.ftl"]
        .iter()
        .map(|l| row(l).0)
        .sum();
    let mut checks = Vec::new();
    let structural = if workload == "soak_lifecycle" {
        checks.push((
            format!("controller.* calls = {controller_calls} are > 0 in soak_lifecycle"),
            controller_calls > 0,
        ));
        "faults.* rows are 0 on soak_lifecycle: it has no cluster fault layer; \
         its injected faults show in the controller.* rows (structural)"
    } else {
        checks.push((
            format!("faults.reads = {reads} is > 0 only in serve_faulted"),
            (reads > 0.0) == (workload == "serve_faulted"),
        ));
        checks.push((
            format!("control.refreshes = {refreshes} is > 0 only in serve_refresh"),
            (refreshes > 0.0) == (workload == "serve_refresh"),
        ));
        "controller.* rows are 0 on serve_*: the cluster does not call mrm-controller \
         (structural)"
    };
    if workload == "serve_faulted" {
        let hot = row("tiering.iter_done").1 + row("tiering.followup").1;
        let share = hot / (traced_wall * 1e9).max(1.0);
        checks.push((
            format!(
                "iter_done + followup take most of the wall ({:.1}%)",
                share * 100.0
            ),
            share > 0.5,
        ));
    }
    (checks, structural)
}

/// The result line: one JSON object, metrics in the given order.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// `--e16-tuple`: the soak at e16's seed and full scale, timers off and
/// on. Exits non-zero if either run fails or the two tuples differ.
fn e16_tuple() -> i32 {
    let mut tuples = Vec::new();
    for timed in [false, true] {
        match soak::run(soak::E16_SEED, timed) {
            Ok(r) => {
                let on = if timed { "on " } else { "off" };
                println!("timers {on}: {:?}", r.tuple);
                tuples.push(r.tuple);
            }
            Err(e) => {
                eprintln!("error: soak at e16's seed failed: {e}");
                return 1;
            }
        }
    }
    if tuples[0] != tuples[1] {
        eprintln!("error: timers changed the soak's counter tuple");
        return 1;
    }
    0
}

fn main() {
    if std::env::args().any(|a| a == "--e16-tuple") {
        std::process::exit(e16_tuple());
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let cases: Vec<Case> = (0..CASES_PER_RUN)
        .map(|k| {
            let seed = mix(args.seed, k);
            match args.shape {
                Some(shape) => Case::Serve(Box::new(serve::config(shape, seed))),
                None => Case::Soak(seed),
            }
        })
        .collect();
    println!(
        "simbench {} seed {} ({} inputs, {} s, {})",
        args.workload,
        args.seed,
        cases.len(),
        args.seconds,
        if args.trace { "traced" } else { "untraced" }
    );
    let mut h = Harness::new(cases);
    h.measure(start + std::time::Duration::from_secs_f64(args.seconds));
    let metrics = if args.trace {
        per_layer(&mut h, args.workload)
    } else {
        end_to_end(&mut h)
    };

    println!("\ninputs (digest of simulated outputs, runs bare/observed):");
    for (i, (case, st)) in h.cases.iter().zip(&h.stats).enumerate() {
        let input = match case {
            Case::Serve(cfg) => format!("cluster seed {:#018x}", cfg.seed),
            Case::Soak(seed) => format!("soak seed {seed:#018x}"),
        };
        println!(
            "  {i}: {input} digest {:016x} runs {}/{} events {} wall ms {}/{}",
            st.digest.as_deref().map_or(0, fnv64),
            st.bare_wall.len(),
            st.obs_wall.len(),
            st.events.map_or("?".to_string(), |e| e.to_string()),
            spread_ms(&st.bare_wall),
            spread_ms(&st.obs_wall),
        );
    }
    println!(
        "set-up us (unscaled) {:.1}..{:.1}..{:.1}..{:.1} ({} samples of {SETUP_BATCH})",
        quantile(&h.setup, 0.0) * 1e6,
        quantile(&h.setup, 0.25) * 1e6,
        median(&h.setup) * 1e6,
        quantile(&h.setup, 1.0) * 1e6,
        h.setup.len()
    );
    println!("\nmetrics:");
    for m in &metrics {
        println!("  {:<36} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let failed_ratio = ratio(h.failed as f64, h.attempted as f64);
    println!("  {:<36} {:>18.6} ratio", "failed_run_ratio", failed_ratio);
    for p in &h.problems {
        println!("problem: {p}");
    }
    let correct = h.failed == 0 && h.problems.is_empty();
    println!("{}", result_json(correct, h.attempted, h.failed, &metrics));
}
