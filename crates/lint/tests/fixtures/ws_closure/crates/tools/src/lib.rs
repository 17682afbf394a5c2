//! Closure fixture, unlinked side: a workspace member `mrm-tiering` does
//! not link. It may read the clock.

pub fn stopwatch() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}
