//! Inference-cluster scenario: serve Llama2-70B on four memory systems and
//! compare what the paper cares about — tokens/s, J/token, housekeeping
//! energy, capacity headroom, and cost efficiency.
//!
//! This is the §4 "retention-aware data placement and scheduling" story as
//! a runnable program: the same Splitwise-style traffic against HBM-only,
//! HBM+LPDDR, HBM+MRM (fixed retention), and HBM+MRM with DCM.
//!
//! Run with: `cargo run --release --example inference_cluster`

use mrm::analysis::report::Table;
use mrm::sim::time::SimDuration;
use mrm::sim::units::format_bytes;
use mrm::tiering::cluster::{ClusterConfig, ClusterSim};
use mrm::tiering::placement::PlacementPolicy;

fn main() {
    let accelerators = 2;
    let arrivals = 8.0;
    let secs = 60;

    println!(
        "simulating {accelerators} accelerators serving Llama2-70B fp16, {arrivals} req/s, {secs} s\n"
    );

    let mut t = Table::new(&[
        "memory system",
        "tok/s",
        "J/token",
        "housekeeping J",
        "KV capacity",
        "tok/s per 1k cost",
        "p50 ms",
        "cache hits",
        "recomputes",
        "evictions",
    ]);
    let mut reports = Vec::new();
    for policy in PlacementPolicy::all() {
        let mut cfg = ClusterConfig::llama70b(policy, accelerators, arrivals);
        cfg.duration = SimDuration::from_secs(secs);
        let (r, _audit) = ClusterSim::new(cfg).run_with_audit();
        t.row(&[
            &r.policy,
            &format!("{:.0}", r.tokens_per_s),
            &format!("{:.4}", r.j_per_token),
            &format!("{:.1}", r.housekeeping_j),
            &format_bytes(r.kv_capacity_bytes),
            &format!("{:.1}", r.tokens_per_s_per_kcost),
            &r.p50_latency_ms
                .map_or_else(|| "-".to_string(), |p| format!("{p:.0}")),
            &r.cache_hits.to_string(),
            &r.recomputes.to_string(),
            &r.evictions.to_string(),
        ]);
        reports.push(r);
    }
    print!("{}", t.render());

    let hbm = &reports[0];
    let mrm = &reports[2];
    println!(
        "\nHBM+MRM vs HBM-only: {:.1}x tokens/s, {:.1}x lower J/token, {:.1}x lower housekeeping,",
        mrm.tokens_per_s / hbm.tokens_per_s,
        hbm.j_per_token / mrm.j_per_token,
        hbm.housekeeping_j / mrm.housekeeping_j.max(1e-9),
    );
    println!(
        "{:.1}x the KV capacity headroom — the §3 opportunity, end to end.",
        mrm.kv_capacity_bytes as f64 / hbm.kv_capacity_bytes as f64
    );
}
