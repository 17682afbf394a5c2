//! The fault layer's determinism contract (mirrors `sweep_determinism.rs`):
//! with fault injection enabled and the retention margin tight enough that
//! errors break through ECC and engage recovery, cluster reports — including
//! *which* reads failed and every recovery counter — are byte-identical
//! regardless of worker thread count, at any fixed seed.

use mrm_faults::FaultConfig;
use mrm_sim::time::SimDuration;
use mrm_sweep::{Grid, Sweep};
use mrm_tiering::cluster::{ClusterConfig, ClusterReport, ClusterSim};
use mrm_tiering::placement::PlacementPolicy;

fn faulted_cfg(policy: PlacementPolicy, margin: f64, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
    cfg.duration = SimDuration::from_secs(30);
    cfg.followup_window = SimDuration::from_secs(10);
    cfg.hint_window = SimDuration::from_secs(10);
    cfg.followup_prob = 0.8;
    cfg.maintenance_period = SimDuration::from_secs(5);
    cfg.seed = seed;
    // Amplified BER so the short run still exercises the full
    // inject -> decode -> recover pipeline, not just clean reads.
    cfg.faults = FaultConfig {
        ber_scale: 40.0,
        provision_margin: Some(margin),
        ..FaultConfig::mrm()
    };
    cfg
}

fn faulted_sweep(
    seed: u64,
) -> Sweep<
    ClusterConfig,
    ClusterReport,
    impl Fn(&ClusterConfig, mrm_sim::rng::SimRng) -> ClusterReport + Sync,
> {
    // Margins from comfortable to none, for both MRM policies: the tight end
    // guarantees recovery paths (retry / recompute / escalation) actually run.
    let grid = Grid::axis([PlacementPolicy::HbmMrm, PlacementPolicy::HbmMrmDcm])
        .cross([4.0, 1.0, 0.25])
        .map(move |(policy, margin)| faulted_cfg(policy, margin, seed));
    Sweep::new(grid, |cfg: &ClusterConfig, _rng| {
        ClusterSim::new(cfg.clone()).run_with_audit().0
    })
}

#[test]
fn faulted_reports_are_byte_identical_across_thread_counts() {
    for seed in [1u64, 0xC1A5_7E12] {
        let sweep = faulted_sweep(seed);
        let serial = sweep.run_parallel(1);
        let parallel = sweep.run_parallel(8);
        assert_eq!(serial.len(), 6);
        assert_eq!(parallel.len(), serial.len());
        let injected: u64 = serial.iter().map(|r| r.faults.raw_flips).sum();
        assert!(injected > 0, "seed {seed}: the grid never injected a fault");
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            let ja = serde_json::to_string(a).unwrap();
            let jb = serde_json::to_string(b).unwrap();
            assert_eq!(
                ja, jb,
                "seed {seed}: faulted report {i} differs between 1 and 8 threads"
            );
        }
    }
}

#[test]
fn distinct_seeds_flip_distinct_bits() {
    // Determinism must come from the seed, not from a fixed error script:
    // two seeds at the same grid point diverge in the fault stream itself.
    let a = ClusterSim::new(faulted_cfg(PlacementPolicy::HbmMrm, 1.0, 1))
        .run_with_audit()
        .0;
    let b = ClusterSim::new(faulted_cfg(PlacementPolicy::HbmMrm, 1.0, 2))
        .run_with_audit()
        .0;
    assert!(a.faults.raw_flips > 0 && b.faults.raw_flips > 0);
    assert_ne!(
        serde_json::to_string(&a.faults).unwrap(),
        serde_json::to_string(&b.faults).unwrap(),
        "seeds 1 and 2 produced identical fault streams"
    );
}
