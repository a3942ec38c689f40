// cc-lint-fixture-path: crates/server/src/handlers.rs
// An `assert!` ships in release builds: a precondition the edge already
// validated still kills a pool worker when it is asserted on the query
// path. Only `debug_assert!` compiles out.
fn handle(state: &AppState, u: usize, v: usize) -> Response {
    assert!(u < state.n(), "node {u} outside 0..{}", state.n());
    assert_ne!(u, v, "self-pairs are answered before the kernel");
    debug_assert_eq!(state.n(), state.len());
    respond(state.query(u, v))
}
