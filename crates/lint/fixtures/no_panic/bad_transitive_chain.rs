// cc-lint-fixture-path: crates/server/src/handlers.rs
// A serving entry point two calls away from an expect: the panic hides in
// the helper chain — which in the real workspace may live in a file outside
// the serving set — until the call graph connects them.
pub fn handle(req: Request) -> Response {
    render(lookup(req.key))
}

fn lookup(key: u64) -> u64 {
    shard_for(key).entry_distance(key)
}

fn shard_for(key: u64) -> Shard {
    SHARDS.pick(key).expect("shard table populated at boot")
}
