// cc-lint-fixture-path: crates/oracle/src/oracle.rs
// The fixed shape: kernels are pure; the serving edge owns the clocks.
fn query(&self, u: usize, v: usize) -> u64 {
    self.lookup(u, v)
}
