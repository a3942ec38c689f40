// cc-lint-fixture-path: crates/server/src/pool.rs
// The escape hatch: a reasoned allow-comment suppresses the finding and is
// recorded in the run summary.
fn spawn_workers(n: usize) -> Vec<JoinHandle<()>> {
    (0..n)
        .map(|i| {
            std::thread::Builder::new()
                .name(format!("worker-{i}"))
                .spawn(worker)
                .expect("spawn worker thread") // cc-lint: allow(no_panic) -- startup-time spawn failure is fatal by design; no requests are in flight yet
        })
        .collect()
}
