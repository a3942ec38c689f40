// cc-lint-fixture-path: crates/server/src/handlers.rs
// Panics on the serving path: a poisoned lock or malformed request kills a
// pool worker instead of degrading to an error response.
fn handle(state: &AppState, req: &Request) -> Response {
    let pair = parse_pair(req).unwrap();
    let guard = state.reload_lock.lock().expect("reload lock poisoned");
    if guard.generation() == 0 {
        panic!("no artifact loaded");
    }
    respond(pair, &guard)
}
