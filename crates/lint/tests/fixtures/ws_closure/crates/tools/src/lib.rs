//! Closure fixture, unlinked side: a workspace member `mrm-tiering` does
//! not link. It may draw and trace in one function.

pub fn replay(rng: &mut Rng, obs: &mut Obs) -> u64 {
    obs.tracer.mark(0);
    rng.next_u64()
}
