//! `cc-serve` end to end, in one process: build an oracle in the simulated
//! clique, snapshot it to disk, serve the snapshot over HTTP/1.1 on a real
//! loopback socket, and talk to it like any other client would.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example oracle_server
//! ```

use std::time::Instant;

use congested_clique::clique::Clique;
use congested_clique::graph::generators;
use congested_clique::oracle::OracleBuilder;
use congested_clique::serve::{BackendSpec, BlockingClient, Server, ServerConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    println!("== cc-serve: snapshot-serving front-end over the distance oracle ==\n");

    // 1. Build once in the clique (this is the only distributed step).
    let g = generators::road_like(16, 8, 30, 11)?;
    let mut clique = Clique::new(n);
    let oracle = OracleBuilder::new().epsilon(0.25).seed(3).build(&mut clique, &g)?;
    println!(
        "build: {} clique rounds, {} landmarks, {} KiB artifact",
        oracle.build_rounds(),
        oracle.landmarks().len(),
        oracle.artifact_bytes() / 1024
    );

    // 2. Snapshot to disk and reload, exactly like a serving deployment.
    //    Snapshots are versioned and checksummed; the loader reports what
    //    it validated.
    let path = std::env::temp_dir().join("cc-serve-example.snap");
    congested_clique::serve::source::write_snapshot(&oracle, &path)?;
    let loaded = congested_clique::serve::source::load_slice(
        &path,
        congested_clique::oracle::serde::from_bytes_with_header,
    )?;
    println!(
        "snapshot: {} bytes on disk (format v{}, build {}), reloads identically\n",
        std::fs::metadata(&path)?.len(),
        congested_clique::oracle::serde::SNAPSHOT_VERSION,
        loaded.info.build_id,
    );

    // 3. Serve it over a real socket (ephemeral port). Starting from the
    //    file makes it the reload source, which lets us hot-swap below.
    let handle = Server::start_from_spec(&ServerConfig::default(), BackendSpec::mono(&path))?;
    println!("serving on http://{}", handle.addr());

    // 4. Talk to it over HTTP.
    let mut client = BlockingClient::connect(handle.addr())?;
    for (u, v) in [(0usize, n - 1), (5, 77), (3, 3)] {
        let (status, body) = client.get(&format!("/distance?u={u}&v={v}"))?;
        println!("  GET /distance?u={u}&v={v:<3}  -> {status} {}", String::from_utf8(body)?);
    }

    // Validation happens at the edge: bad input is a 400, not a panic.
    let (status, body) = client.get(&format!("/distance?u=0&v={n}"))?;
    println!("  GET /distance?u=0&v={n}  -> {status} {}", String::from_utf8(body)?);
    let (status, body) = client.get("/distance?u=zero&v=1")?;
    println!("  GET /distance?u=zero&v=1 -> {status} {}", String::from_utf8(body)?);

    // Batch traffic through the sharded batch path.
    let pairs: String = (0..64).map(|i| format!("{} {}\n", i % n, (i * 31 + 9) % n)).collect();
    let t = Instant::now();
    let (status, body) = client.post("/batch", pairs.as_bytes())?;
    println!(
        "\n  POST /batch (64 pairs)   -> {status}, {} bytes in {:.1} us",
        body.len(),
        t.elapsed().as_secs_f64() * 1e6
    );

    let (_, stats) = client.get("/stats")?;
    println!("  GET /stats               -> {}", String::from_utf8(stats)?);
    let (_, artifact) = client.get("/artifact")?;
    println!("  GET /artifact            -> {}", String::from_utf8(artifact)?);

    // 5. Hot reload: rebuild with a different seed, overwrite the snapshot
    //    file, and swap it in without restarting — in-flight traffic keeps
    //    being answered throughout.
    let mut clique = Clique::new(n);
    let rebuilt = OracleBuilder::new().epsilon(0.25).seed(4).build(&mut clique, &g)?;
    congested_clique::serve::source::write_snapshot(&rebuilt, &path)?;
    let (status, body) = client.post("/reload", b"")?;
    println!("\n  POST /reload             -> {status} {}", String::from_utf8(body)?);
    std::fs::remove_file(&path).ok();

    handle.shutdown();
    println!("\nserver drained and shut down cleanly");
    Ok(())
}
