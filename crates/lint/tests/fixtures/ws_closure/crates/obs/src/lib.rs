//! Closure fixture, observe-only side: linked by `mrm-tiering`, but the
//! closure excludes `mrm-obs`, whose wall profiler reads the clock by design.

pub fn wall_ns() -> u64 {
    Instant::now().elapsed().as_nanos() as u64
}
