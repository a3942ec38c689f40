// cc-lint-fixture-path: crates/server/src/pool.rs
// A panic inside a block-bodied closure: the parser carves the closure out
// of `spawn_worker` as its own body, so the rule must root it too — this is
// the code a pool worker actually runs.
fn spawn_worker(rx: Receiver<Job>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(job) = rx.try_recv() {
            let reply = job.reply.take().expect("job carries a reply channel");
            reply.send(run(job));
        }
    })
}
