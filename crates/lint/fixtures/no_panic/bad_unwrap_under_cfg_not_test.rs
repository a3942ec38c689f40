// cc-lint-fixture-path: crates/server/src/handlers.rs
// `cfg(not(test))` and `cfg(any(test, ..))` gate production code in; only
// `cfg(test)` and `cfg(all(test, ..))` compile an item out. Both panics
// below ship and must be seen.
#[cfg(not(test))]
fn handle(state: &AppState, req: &Request) -> Response {
    respond(parse_pair(req).unwrap(), state)
}

#[cfg(any(test, unix))]
fn handle_batch(state: &AppState, req: &Request) -> Response {
    respond(parse_batch(req).expect("well-formed batch"), state)
}
