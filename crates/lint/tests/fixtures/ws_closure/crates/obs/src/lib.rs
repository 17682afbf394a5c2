//! Closure fixture, observe-only side: linked by `mrm-tiering`, but the
//! closure excludes `mrm-obs`, which owns the tracer and pops its own span
//! stack next to it.

pub fn close_span(open: &mut Vec<u64>, obs: &mut Obs) {
    if let Some(id) = open.pop() {
        obs.tracer.end(id);
    }
}
