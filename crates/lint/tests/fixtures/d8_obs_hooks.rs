// D8 fixture: obs hook call sites must stay off the RNG/event-queue paths.
// Linted as if it lived at crates/tiering/src/fixture.rs.

struct Sim {
    rng: SimRng,
    queue: EventQueue<Ev>,
    obs: Option<&'static mut Obs>,
}

impl Sim {
    // VIOLATION: the handler draws randomness and touches the tracer inline.
    fn on_arrival(&mut self, now: SimTime) {
        let output = self.rng.gen_range_u64(512);
        if let Some(o) = self.obs.as_mut() {
            o.tracer.instant(now, SpanKind::Admission, 0, output, Detail::default());
        }
    }

    // VIOLATION: the handler schedules an event and brackets it with the
    // profiler directly.
    fn start_iteration(&mut self, now: SimTime) {
        if let Some(o) = self.obs.as_mut() {
            o.profiler.enter("decode_iter");
        }
        self.queue.schedule_after(now, ITER, Ev::IterDone);
    }

    // OK: the handler observes through a separate observe-only call (the
    // pattern of `Observer` methods); the helper neither draws nor schedules.
    fn on_followup(&mut self, now: SimTime) {
        let hit = self.rng.gen_bool(0.5);
        self.obs_followup(now, hit);
        if hit {
            self.queue.schedule_after(now, WINDOW, Ev::CacheExpire);
        }
    }

    // OK: an observe-only helper may name the tracer and profiler freely.
    fn obs_followup(&mut self, now: SimTime, hit: bool) {
        if let Some(o) = self.obs.as_mut() {
            o.profiler.sim_cost("followup", SimDuration::ZERO);
            o.tracer
                .instant(now, SpanKind::Placement, 0, u64::from(hit), Detail::default());
        }
    }
}

#[cfg(test)]
mod tests {
    // OK: test assertions over the tracer are not hot-path hooks.
    #[test]
    fn drains_queue_and_counts_spans() {
        let mut sim = Sim::new();
        while sim.queue.pop().is_some() {}
        assert!(sim.obs.unwrap().tracer.total() > 0);
    }
}
