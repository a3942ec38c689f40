//! Walkthrough of the build-once / query-many distance oracle: pay the
//! distributed rounds once, then serve distance traffic locally — raw,
//! batched, cached, and snapshot/reload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example distance_oracle
//! ```

use std::time::Instant;

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, reference};
use congested_clique::oracle::{CachingOracle, OracleBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;
    let epsilon = 0.25;
    println!("== Distance oracle: build once in the clique, query forever ==");
    let g = generators::road_like(16, 16, 30, 11)?;
    println!("graph: road-like {n} nodes, {} edges, eps = {epsilon}\n", g.m());

    // Build phase: k-nearest balls (Thm 18) + hitting-set landmarks
    // (Lemma 4) + MSSP columns from the landmarks (Thm 3).
    let mut clique = Clique::new(n);
    let t = Instant::now();
    let oracle = OracleBuilder::new().epsilon(epsilon).seed(3).build(&mut clique, &g)?;
    println!("build phase (runs once):");
    println!("  clique rounds      : {}", oracle.build_rounds());
    println!("  landmarks          : {} of {n} nodes", oracle.landmarks().len());
    println!("  artifact size      : {} KiB", oracle.artifact_bytes() / 1024);
    println!("  wall time          : {:.1} ms", t.elapsed().as_secs_f64() * 1e3);

    // Query phase: purely local. The clique's round counter proves it.
    let rounds_after_build = clique.rounds();
    let sample: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 97 + 13) % n)).collect();
    let t = Instant::now();
    let answers = oracle.try_query_batch(&sample).unwrap();
    println!("\nquery phase ({} queries):", sample.len());
    println!("  clique rounds      : {} (still {rounds_after_build})", clique.rounds());
    println!("  wall time          : {:.1} us", t.elapsed().as_secs_f64() * 1e6);

    // Quality: compare against the sequential ground truth.
    let mut worst: f64 = 1.0;
    let mut exact_count = 0;
    for (i, &(u, v)) in sample.iter().enumerate() {
        let d = reference::dijkstra(&g, u)[v].expect("road network is connected");
        let est = answers[i].value().expect("connected pair");
        assert!(est >= d, "oracle must never underestimate");
        if est == d {
            exact_count += 1;
        }
        worst = worst.max(est as f64 / d as f64);
    }
    println!("\nquality over the sample:");
    println!("  exact answers      : {exact_count}/{} (ball hits)", sample.len());
    println!("  worst stretch      : {worst:.3} (guarantee: <= {:.3})", oracle.stretch_bound());

    // Serving: put a bounded cache in front for skewed traffic.
    let cached = CachingOracle::new(oracle.clone(), 4096);
    for rep in 0..3 {
        for &(u, v) in sample.iter().take(64) {
            let _ = cached.try_query(u, v).unwrap();
        }
        let s = cached.stats();
        println!(
            "  cache pass {rep}       : {} hits / {} misses (rate {:.2})",
            s.hits,
            s.misses,
            s.hit_rate()
        );
    }

    // Snapshot: ship the artifact to a serving process, no clique needed.
    let bytes = congested_clique::oracle::serde::to_bytes(&oracle);
    let reloaded = congested_clique::oracle::serde::from_bytes(&bytes)?;
    assert_eq!(reloaded, oracle);
    println!("\nsnapshot round-trip: {} bytes, reloaded artifact identical", bytes.len());
    println!("example query d(0, {}) ~= {}", n - 1, reloaded.try_query(0, n - 1).unwrap());
    Ok(())
}
