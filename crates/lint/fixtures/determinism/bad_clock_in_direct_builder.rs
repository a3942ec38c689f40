// cc-lint-fixture-path: crates/oracle/src/direct.rs
// A clock read inside a direct-build phase: the artifact stays the same,
// but phase timing logic inside the kernel invites time-dependent behavior
// (retry loops, adaptive cutoffs) that would break the bit-identity
// contract. Timing belongs to the caller, via BuildTrace::time_local.
fn build_columns(&self, graph: &Graph) -> Vec<u64> {
    let started = Instant::now();
    let columns = self.run_dijkstras(graph);
    if started.elapsed().as_secs() > 5 {
        return self.run_capped(graph); // time-dependent artifact!
    }
    columns
}
