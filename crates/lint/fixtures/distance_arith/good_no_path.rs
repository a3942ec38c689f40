// cc-lint-fixture-path: crates/core/src/baselines.rs
// The no-path idiom: a path is extended in the semiring, where a length that
// overflows a word, or lands on the u64::MAX sentinel, is no path.
fn relax(g: &Graph, v: usize, at: AugDist, labels: &mut [AugDist]) {
    for &(u, w) in g.neighbors(v) {
        let cand = at.combine(AugDist { dist: w, hops: 1 });
        if cand < labels[u] {
            labels[u] = cand;
        }
    }
}

fn through(d: Dist, w: Dist) -> Dist {
    d.checked_add(w)
}
