//! Deterministic parallel sweep engine for cluster experiments.
//!
//! A *sweep* evaluates one job over every point of a parameter grid. Points
//! are independent, so they can fan out across a thread pool — but experiment
//! output must not depend on the thread count, or results stop being
//! reproducible and regressions become impossible to bisect. This crate
//! guarantees bit-identical output for any `n_threads`:
//!
//! - every grid point gets its own [`SimRng`], derived with
//!   [`SimRng::split`] from a single base seed *in grid order*, before any
//!   thread starts — so the randomness a job sees depends only on its grid
//!   index, never on which worker picks it up;
//! - results are written into a slot keyed by grid index and returned in grid
//!   order, so the merged output is independent of completion order.
//!
//! # Examples
//!
//! ```
//! use mrm_sweep::{Grid, Sweep};
//!
//! let grid = Grid::axis([4.0, 8.0, 16.0]).cross(["hbm", "mrm"]);
//! let sweep = Sweep::new(grid, |&(load, tier), mut rng| {
//!     // Run a (toy) experiment at this grid point.
//!     (load * rng.next_f64(), tier)
//! });
//! let serial = sweep.run_parallel(1);
//! let parallel = sweep.run_parallel(8);
//! assert_eq!(serial.len(), 6);
//! assert_eq!(serial, parallel); // bit-identical, any thread count
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use mrm_sim::rng::SimRng;

/// The default base seed for sweeps that don't set one explicitly.
pub const DEFAULT_SEED: u64 = 0x4D52_4D53_5745_4550; // "MRMSWEEP"

/// An ordered list of parameter points, built by crossing axes.
///
/// The grid fixes the canonical result order: point `i` of the grid produces
/// result `i` of the sweep, whatever the thread count. `cross` nests in
/// row-major order — the later axis varies fastest — matching the nested
/// `for` loops the sweep replaces.
#[derive(Clone, Debug)]
pub struct Grid<P> {
    points: Vec<P>,
}

impl<P> Grid<P> {
    /// A one-axis grid over `values`.
    pub fn axis(values: impl IntoIterator<Item = P>) -> Self {
        Grid {
            points: values.into_iter().collect(),
        }
    }

    /// Crosses this grid with another axis; the new axis varies fastest.
    pub fn cross<Q>(self, values: impl IntoIterator<Item = Q>) -> Grid<(P, Q)>
    where
        P: Clone,
        Q: Clone,
    {
        let vs: Vec<Q> = values.into_iter().collect();
        let points = self
            .points
            .into_iter()
            .flat_map(|p| vs.iter().cloned().map(move |q| (p.clone(), q)))
            .collect();
        Grid { points }
    }

    /// Maps every point, e.g. from a parameter tuple to a full config.
    pub fn map<Q>(self, f: impl FnMut(P) -> Q) -> Grid<Q> {
        Grid {
            points: self.points.into_iter().map(f).collect(),
        }
    }

    /// Pairs every point with its grid index, so jobs can key side outputs
    /// (e.g. per-point telemetry) by index without threading a counter.
    pub fn enumerate(self) -> Grid<(usize, P)> {
        Grid {
            points: self.points.into_iter().enumerate().collect(),
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The points in grid order.
    pub fn points(&self) -> &[P] {
        &self.points
    }
}

/// A job fanned over a [`Grid`] with deterministic, order-preserving results.
///
/// The job receives the grid point and a private [`SimRng`] whose stream
/// depends only on the sweep seed and the point's grid index.
pub struct Sweep<P, R, F> {
    grid: Grid<P>,
    job: F,
    seed: u64,
    _result: std::marker::PhantomData<fn() -> R>,
}

impl<P, R, F> Sweep<P, R, F>
where
    P: Sync,
    R: Send,
    F: Fn(&P, SimRng) -> R + Sync,
{
    /// Creates a sweep of `job` over `grid` with the default seed.
    pub fn new(grid: Grid<P>, job: F) -> Self {
        Sweep {
            grid,
            job,
            seed: DEFAULT_SEED,
            _result: std::marker::PhantomData,
        }
    }

    /// Sets the base seed all per-point generators derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The grid being swept.
    pub fn grid(&self) -> &Grid<P> {
        &self.grid
    }

    /// Runs every point on the calling thread, in grid order.
    pub fn run(&self) -> Vec<R> {
        self.run_parallel(1)
    }

    /// Runs every point across `n_threads` workers and returns results in
    /// grid order.
    ///
    /// Output is bit-identical for every `n_threads >= 1`: per-point RNGs are
    /// split from the base seed in grid order before any worker starts, and
    /// each result lands in the slot of its grid index. Workers pull indices
    /// from a shared counter, so an expensive point never serializes the
    /// points behind it.
    ///
    /// # Panics
    ///
    /// Panics if any job panics (the panic is propagated).
    pub fn run_parallel(&self, n_threads: usize) -> Vec<R> {
        let n = self.grid.len();
        // Derive all per-point generators up front, in grid order. This is
        // the determinism keystone: the split sequence consumes the parent
        // stream, so it must not race with job scheduling.
        let mut base = SimRng::seed_from(self.seed);
        let rngs: Vec<SimRng> = (0..n).map(|_| base.split()).collect();

        let workers = n_threads.max(1).min(n.max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = (self.job)(&self.grid.points()[i], rngs[i].clone());
                    *slots[i]
                        .lock()
                        .expect("a sweep worker panicked while holding a result slot") = Some(r);
                });
            }
        });

        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("a sweep worker panicked while holding a result slot")
                    .expect("every grid point ran to completion")
            })
            .collect()
    }
}

/// Reads the worker count from CLI args: `--threads N` or `--threads=N`.
///
/// Defaults to the machine's available parallelism when the flag is absent;
/// `0` clamps to one worker. Bench binaries share this so CI can pin
/// `--threads 2`. A value that is not a count is fatal, as for
/// [`seed_from_args`]: one `error: --threads ...` line and exit status 2
/// before any simulation.
pub fn threads_from_args() -> usize {
    threads_from(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn threads_from(args: impl IntoIterator<Item = String>) -> Result<usize, String> {
    match flag_value("--threads", args) {
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)),
        Some(v) => v
            .parse::<usize>()
            .map(|n| n.max(1))
            .map_err(|e| format!("--threads value {v:?} is not a worker count: {e}")),
    }
}

/// Reads the base seed from CLI args: `--seed N` or `--seed=N`, `default`
/// when the flag is absent.
///
/// A value that is not a `u64` is fatal: it prints one `error: --seed ...`
/// line and exits with status 2 before any simulation, so a typo can never
/// silently rerun the default seed.
pub fn seed_from_args(default: u64) -> u64 {
    seed_from(default, std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

fn seed_from(default: u64, args: impl IntoIterator<Item = String>) -> Result<u64, String> {
    match flag_value("--seed", args) {
        None => Ok(default),
        Some(v) => v
            .parse::<u64>()
            .map_err(|e| format!("--seed value {v:?} is not a u64: {e}")),
    }
}

/// Reads the value of `--flag VALUE` or `--flag=VALUE` from the process
/// arguments (`None` when absent). Bench binaries share this for optional
/// outputs like `--telemetry <path>`.
pub fn flag_value_from_args(flag: &str) -> Option<String> {
    flag_value(flag, std::env::args().skip(1))
}

/// [`flag_value_from_args`] over an explicit argument list, for callers
/// that parse (and unit-test) against a given `argv`.
pub fn flag_value(flag: &str, args: impl IntoIterator<Item = String>) -> Option<String> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(rest) = a.strip_prefix(flag) {
            if let Some(v) = rest.strip_prefix('=') {
                return Some(v.to_string());
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_cross_is_row_major() {
        let g = Grid::axis([1, 2]).cross(["a", "b", "c"]);
        let pts: Vec<_> = g.points().to_vec();
        assert_eq!(
            pts,
            vec![(1, "a"), (1, "b"), (1, "c"), (2, "a"), (2, "b"), (2, "c")]
        );
    }

    #[test]
    fn grid_map_preserves_order() {
        let g = Grid::axis([1u64, 2, 3]).map(|x| x * 10);
        assert_eq!(g.points(), &[10, 20, 30]);
    }

    #[test]
    fn empty_grid_runs() {
        let s = Sweep::new(Grid::<u32>::axis([]), |&p, _| p);
        assert!(s.run_parallel(4).is_empty());
    }

    #[test]
    fn results_in_grid_order_any_thread_count() {
        // Jobs finish out of order (later points are cheaper), yet results
        // must come back in grid order.
        let grid = Grid::axis((0..32u64).collect::<Vec<_>>());
        let sweep = Sweep::new(grid, |&i, _| {
            std::thread::sleep(std::time::Duration::from_micros((32 - i) * 50));
            i * 2
        });
        for threads in [1, 3, 8] {
            let out = sweep.run_parallel(threads);
            assert_eq!(out, (0..32u64).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn rng_streams_depend_on_index_not_schedule() {
        let grid = Grid::axis((0..16u32).collect::<Vec<_>>());
        let sweep = Sweep::new(grid, |_, mut rng| {
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        })
        .seed(42);
        let one = sweep.run_parallel(1);
        let many = sweep.run_parallel(7);
        assert_eq!(one, many);
        // Distinct points see distinct streams.
        assert_ne!(one[0], one[1]);
    }

    #[test]
    fn seed_changes_streams() {
        let mk = |seed| {
            Sweep::new(Grid::axis([0u8]), |_, mut rng| rng.next_u64())
                .seed(seed)
                .run()
        };
        assert_ne!(mk(1), mk(2));
    }

    #[test]
    fn grid_enumerate_keys_by_index() {
        let g = Grid::axis(["a", "b"]).cross([1, 2]).enumerate();
        let pts: Vec<_> = g.points().to_vec();
        assert_eq!(
            pts,
            vec![(0, ("a", 1)), (1, ("a", 2)), (2, ("b", 1)), (3, ("b", 2))]
        );
    }

    #[test]
    fn flag_value_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            flag_value("--telemetry", args(&["--telemetry", "/tmp/t.jsonl"])),
            Some("/tmp/t.jsonl".to_string())
        );
        assert_eq!(
            flag_value("--telemetry", args(&["--threads", "2", "--telemetry=x"])),
            Some("x".to_string())
        );
        assert_eq!(flag_value("--telemetry", args(&["--threads", "2"])), None);
        // A flag that merely prefixes another name must not match.
        assert_eq!(flag_value("--tele", args(&["--telemetry=x"])), None);
        // Trailing flag with no value.
        assert_eq!(flag_value("--telemetry", args(&["--telemetry"])), None);
    }

    #[test]
    fn threads_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(threads_from(args(&["--threads", "2"])), Ok(2));
        assert_eq!(threads_from(args(&["--threads=5"])), Ok(5));
        assert_eq!(threads_from(args(&["--threads", "0"])), Ok(1));
        // An absent flag falls back to available parallelism (>=1).
        assert!(threads_from(args(&[])).unwrap() >= 1);
        // A malformed value is an error naming the flag, never a fallback.
        for bad in [
            &["--threads", "zebra"][..],
            &["--threads="],
            &["--threads", "-1"],
        ] {
            let err = threads_from(args(bad)).unwrap_err();
            assert!(err.starts_with("--threads value"), "{err}");
        }
    }

    #[test]
    fn seed_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(seed_from(9, args(&["--seed", "7"])), Ok(7));
        assert_eq!(seed_from(9, args(&["--quick", "--seed=7"])), Ok(7));
        assert_eq!(seed_from(9, args(&["--quick"])), Ok(9));
        // Garbage is an error, never a silent fallback to the default.
        for bad in ["abc", "-1", ""] {
            let err = seed_from(9, args(&["--seed", bad])).unwrap_err();
            assert!(err.starts_with("--seed value"), "{err}");
        }
    }
}
