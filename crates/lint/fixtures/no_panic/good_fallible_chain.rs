// cc-lint-fixture-path: crates/server/src/handlers.rs
// The fixed twin: the helper chain propagates errors instead of dying;
// the entry point degrades to an error response.
pub fn handle(req: Request) -> Response {
    match lookup(req.key) {
        Some(d) => render(d),
        None => error_response(),
    }
}

fn lookup(key: u64) -> Option<u64> {
    shard_for(key).map(|s| s.entry_distance(key))
}

fn shard_for(key: u64) -> Option<Shard> {
    SHARDS.pick(key)
}
