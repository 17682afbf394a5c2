//! Closure fixture, sim side: the cluster loop asks a linked helper crate
//! for its pacing. Nothing here breaks a rule.

pub fn run_cluster(iters: u64) -> u64 {
    let mut total = 0;
    for i in 0..iters {
        total += mrm_pacing::observed_gap(i);
    }
    total
}
