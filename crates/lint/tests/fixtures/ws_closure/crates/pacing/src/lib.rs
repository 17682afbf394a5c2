//! Closure fixture, linked side: a helper crate whose jitter draw also
//! touches the tracer. `mrm-tiering` links it, so it is on the sim path and
//! D8 fires here.

pub fn observed_gap(rng: &mut Rng, obs: &mut Obs, i: u64) -> u64 {
    let jitter = rng.next_u64() % 1_000;
    obs.tracer.mark(i);
    i + jitter
}
