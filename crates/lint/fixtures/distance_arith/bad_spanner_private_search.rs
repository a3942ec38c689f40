// cc-lint-fixture-path: crates/core/src/baselines.rs
// The greedy spanner's private search, minimized: a bare `+` extends a path,
// so a length past u64::MAX panics in debug and wraps in release, where the
// wrapped sum looks short enough to drop an edge the spanner needs.
fn relax(g: &Graph, v: usize, d: u64, limit: u64, heap: &mut Heap) {
    for &(u, w) in g.neighbors(v) {
        let nd = d + w;
        if nd <= limit {
            heap.push(nd, u);
        }
    }
}
