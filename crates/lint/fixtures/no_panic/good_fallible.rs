// cc-lint-fixture-path: crates/server/src/handlers.rs
// The fixed shape: malformed input is a 400, poison is recovered (the data
// under a cc-serve lock is replaced wholesale, never left half-written).
fn handle(state: &AppState, req: &Request) -> Response {
    let Some(pair) = parse_pair(req) else {
        return bad_request("malformed pair");
    };
    let guard = state.reload_lock.lock().unwrap_or_else(PoisonError::into_inner);
    if guard.generation() == 0 {
        return service_unavailable("no artifact loaded");
    }
    respond(pair, &guard)
}
