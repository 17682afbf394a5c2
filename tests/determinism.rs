//! Determinism: every simulation in the workspace is bit-reproducible for a
//! given seed, and seed changes actually change the runs.

use mrm::sim::rng::SimRng;
use mrm::sim::time::SimDuration;
use mrm::sim::units::MIB;
use mrm::tiering::cluster::{ClusterConfig, ClusterSim};
use mrm::tiering::placement::PlacementPolicy;
use mrm::tiering::wear::{simulate_wear, WearPolicy};
use mrm::workload::traces::TraceMix;

fn quick_cfg(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 2, 8.0);
    cfg.duration = SimDuration::from_secs(20);
    cfg.seed = seed;
    cfg
}

#[test]
fn cluster_sim_is_reproducible() {
    let a = ClusterSim::new(quick_cfg(1234)).run_with_audit().0;
    let b = ClusterSim::new(quick_cfg(1234)).run_with_audit().0;
    assert_eq!(a.tokens, b.tokens);
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(a.completions, b.completions);
    assert_eq!(a.cache_hits, b.cache_hits);
    assert_eq!(a.evictions, b.evictions);
    assert!((a.energy_total_j - b.energy_total_j).abs() < 1e-9);
    assert_eq!(
        a.p99_latency_ms.map(f64::to_bits),
        b.p99_latency_ms.map(f64::to_bits)
    );
}

#[test]
fn cluster_sim_depends_on_seed() {
    let a = ClusterSim::new(quick_cfg(1)).run_with_audit().0;
    let b = ClusterSim::new(quick_cfg(2)).run_with_audit().0;
    // Different arrival draws => different token counts (astronomically
    // unlikely to collide exactly along with arrivals).
    assert!(a.tokens != b.tokens || a.arrivals != b.arrivals);
}

#[test]
fn trace_mix_reproducible_across_instances() {
    let run = |seed: u64| {
        let mix = TraceMix::splitwise_default(4096, 10.0);
        let mut rng = SimRng::seed_from(seed);
        (0..100)
            .map(|_| {
                let (_, p, o) = mix.sample_request(&mut rng);
                (p, o, mix.next_interarrival(&mut rng).as_nanos())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8));
}

#[test]
fn wear_sim_reproducible() {
    let run = || {
        let mut tech = mrm::device::tech::presets::mrm_hours();
        tech.capacity_bytes = 256 * MIB;
        simulate_wear(
            tech,
            4 * MIB,
            16 * MIB,
            (64 * MIB) as f64,
            SimDuration::from_secs(300),
            WearPolicy::LeastWorn,
            None,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a.max_zone_cycles, b.max_zone_cycles);
    assert_eq!(a.bytes_written, b.bytes_written);
}

#[test]
fn rng_split_isolation_across_components() {
    // Two components drawing from split streams see identical sequences
    // regardless of how much the *other* component consumes — the property
    // that keeps adding instrumentation from perturbing simulations.
    let consume = |n: usize| {
        let mut parent = SimRng::seed_from(99);
        let mut first = parent.split();
        let mut second = parent.split();
        for _ in 0..n {
            let _ = first.next_u64();
        }
        (0..8).map(|_| second.next_u64()).collect::<Vec<_>>()
    };
    assert_eq!(consume(1), consume(1000));
}
