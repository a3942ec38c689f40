// cc-lint-fixture-path: crates/oracle/src/oracle.rs
// Clocks in a query kernel: the answer (or its side effects) become a
// function of wall time, breaking router/monolith bit-equivalence.
fn query(&self, u: usize, v: usize) -> u64 {
    let start = Instant::now();
    let d = self.lookup(u, v);
    self.timings.record(start.elapsed());
    d
}

fn stamp(&self) -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}
