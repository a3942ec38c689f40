// cc-lint-fixture-path: crates/oracle/src/oracle.rs
// Bare `+` on distance operands: overflow wraps (debug: panics) instead of
// clamping to MAX_FINITE_DISTANCE.
fn combine(to_landmark: u64, col: u64) -> u64 {
    to_landmark + col
}

fn accumulate(&mut self, w: u64) {
    self.best_dist += w;
}
