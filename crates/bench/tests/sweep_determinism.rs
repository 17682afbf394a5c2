//! The sweep engine's contract: experiment output is bit-identical
//! regardless of how many worker threads evaluate the grid.

use mrm_sim::time::SimDuration;
use mrm_sweep::{Grid, Sweep};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;

fn cluster_sweep() -> Sweep<
    ClusterConfig,
    ClusterReport,
    impl Fn(&ClusterConfig, mrm_sim::rng::SimRng) -> ClusterReport + Sync,
> {
    // A small E9b-shaped grid: 2 arrival rates × all 4 policies.
    let grid = Grid::axis([6.0, 12.0])
        .cross(PlacementPolicy::all())
        .map(|(rate, policy)| {
            let mut cfg = ClusterConfig::llama70b(policy, 2, rate);
            cfg.duration = SimDuration::from_secs(15);
            cfg
        });
    Sweep::new(grid, |cfg: &ClusterConfig, _rng| {
        ClusterSim::new(cfg.clone()).run_with_audit().0
    })
}

#[test]
fn cluster_reports_are_byte_identical_across_thread_counts() {
    let sweep = cluster_sweep();
    let serial = sweep.run_parallel(1);
    let parallel = sweep.run_parallel(8);
    assert_eq!(serial.len(), 8);
    assert_eq!(parallel.len(), serial.len());
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        let ja = serde_json::to_string(a).unwrap();
        let jb = serde_json::to_string(b).unwrap();
        assert_eq!(ja, jb, "report {i} differs between 1 and 8 threads");
    }
}

#[test]
fn per_point_rng_streams_are_schedule_independent() {
    // The engine's own randomness guarantee, exercised with jobs that
    // actually consume their per-point generator.
    let grid = Grid::axis((0..24u64).collect::<Vec<_>>());
    let sweep = Sweep::new(grid, |&i, mut rng| {
        let mut acc = i;
        for _ in 0..64 {
            acc = acc.wrapping_add(rng.next_u64());
        }
        acc
    })
    .seed(7);
    assert_eq!(sweep.run_parallel(1), sweep.run_parallel(8));
}
