// cc-lint-fixture-path: crates/oracle/src/oracle.rs
// The minimized fixed version: checked_add with the MAX_FINITE_DISTANCE
// clamp, so overflow lands on the largest finite value, never the sentinel.
fn query_unchecked(&self, u: usize, v: usize) -> Dist {
    let mut best = MAX_FINITE_DISTANCE;
    for &(landmark, to_landmark) in self.ball(u) {
        let col = self.column(landmark, v);
        let via = to_landmark
            .checked_add(col)
            .map_or(MAX_FINITE_DISTANCE, |s| s.min(MAX_FINITE_DISTANCE));
        best = best.min(via);
    }
    Dist::from_raw(best)
}

fn unrelated_arithmetic(&self) -> usize {
    // Counts and offsets may use `+` freely: neither operand resolves to a
    // distance-typed name.
    self.balls.len() + self.columns.len() * 8
}
