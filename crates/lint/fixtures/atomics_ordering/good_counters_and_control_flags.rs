// Plain counters may relax; control-flow atomics get a stronger ordering.
fn record_hit(&self) {
    self.hits.fetch_add(1, Ordering::Relaxed);
}

fn should_stop(&self) -> bool {
    self.shutdown.load(Ordering::Acquire)
}
