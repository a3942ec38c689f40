// cc-lint-fixture-path: crates/oracle/src/oracle.rs
// The PR 2 bug, verbatim shape: two near-MAX finite distances saturate to
// exactly u64::MAX — the infinity sentinel — so a connected pair reports as
// unreachable.
fn query_unchecked(&self, u: usize, v: usize) -> Dist {
    let mut best = u64::MAX;
    for &(landmark, to_landmark) in self.ball(u) {
        let col = self.column(landmark, v);
        let via = to_landmark.saturating_add(col);
        if via < best {
            best = via;
        }
    }
    Dist::from_raw(best)
}
