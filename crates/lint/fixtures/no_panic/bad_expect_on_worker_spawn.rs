// cc-lint-fixture-path: crates/server/src/pool.rs
// The worker pool as it once was: built inside the acceptor thread after
// `Server::start` had returned `Ok`, so a failed spawn killed the acceptor
// while the process reported it was listening. Startup is not exempt; the
// fix returns the spawn error to the caller.
fn spawn_workers(n: usize) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("worker-{i}"))
                .spawn(worker)
                .expect("spawn worker thread")
        })
        .collect()
}
