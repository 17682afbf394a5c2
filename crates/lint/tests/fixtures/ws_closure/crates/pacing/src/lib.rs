//! Closure fixture, linked side: a helper crate that reads the wall clock.
//! `mrm-tiering` links it, so it is on the sim path and D1 fires here.

pub fn observed_gap(i: u64) -> u64 {
    let t = Instant::now();
    i + t.elapsed().as_nanos() as u64
}
