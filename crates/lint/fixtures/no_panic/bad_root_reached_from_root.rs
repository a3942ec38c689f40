// cc-lint-fixture-path: crates/server/src/handlers.rs
// A panic in one serving fn that another serving fn calls: both are roots,
// and the site is reported once, whichever way it is reached.
pub fn handle_distance(state: &AppState, req: &Request) -> Response {
    respond(parse_pair(req))
}

fn parse_pair(req: &Request) -> (u32, u32) {
    let (u, v) = req.query.split_once('&').unwrap();
    (number(u), number(v))
}
