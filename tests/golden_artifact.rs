//! Golden-artifact regression: a committed CCOS snapshot that both
//! builders must reproduce **byte for byte**, forever — and a committed
//! CCSH snapshot of one of its shards, pinning the per-shard codec the
//! same way.
//!
//! The differential suite (`build_equivalence.rs`) proves the two builders
//! agree with *each other*; this file pins them both to a fixed historical
//! artifact, so an accidental change to the build pipeline (a reordered
//! tie-break, a tweaked schedule constant, a serializer change) fails
//! loudly even if it changes both builders in lockstep.
//!
//! Regenerating (only after an *intentional* format/pipeline change):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_artifact
//! ```

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::oracle::{
    serde, DirectBuilder, DistanceOracle, OracleBuilder, ShardedArtifact,
};

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/road36_eps025_seed5.ccos");
const GOLDEN_SHARD_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/road36_eps025_seed5.shard1of3.ccsh");

/// The pinned configuration: a 6×6 road-like graph, default `k`, `ε = 0.25`,
/// landmark seed 5.
fn golden_graph() -> Graph {
    generators::road_like(6, 6, 25, 3).unwrap()
}

fn golden_direct_build() -> DistanceOracle {
    DirectBuilder::new().seed(5).build(&golden_graph()).unwrap()
}

/// Canonical bytes: `created_unix_secs` pinned to 0 so the snapshot is a
/// pure function of the build inputs. (The direct build records
/// `build_rounds = 0`, making the *entire* byte stream reproducible.)
fn canonical_bytes(oracle: &DistanceOracle) -> Vec<u8> {
    serde::to_bytes_created_at(oracle, 0)
}

/// Canonical bytes of shard 1 of the golden artifact cut three ways (a
/// middle slice: non-zero start, neither first nor last), timestamp pinned.
fn canonical_shard_bytes(oracle: &DistanceOracle) -> Vec<u8> {
    let shards = ShardedArtifact::partition(oracle, 3).unwrap().into_shards();
    serde::to_shard_bytes_created_at(&shards[1], 0)
}

fn read_fixture(path: &str, regenerate: fn(&DistanceOracle) -> Vec<u8>) -> Vec<u8> {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, regenerate(&golden_direct_build())).unwrap();
    }
    std::fs::read(path).expect(
        "golden fixture missing; regenerate with UPDATE_GOLDEN=1 cargo test --test golden_artifact",
    )
}

fn read_golden() -> Vec<u8> {
    read_fixture(GOLDEN_PATH, canonical_bytes)
}

#[test]
fn direct_builder_reproduces_the_golden_bytes_exactly() {
    assert_eq!(
        canonical_bytes(&golden_direct_build()),
        read_golden(),
        "direct build no longer reproduces the committed artifact"
    );
}

#[test]
fn clique_builder_reproduces_the_golden_build_id() {
    // The clique build differs only in the header-only build_rounds field,
    // so the comparison is the payload checksum (= build id), which covers
    // every landmark, ball, nearest-landmark row, and column byte.
    let golden = serde::peek_header(&read_golden()).unwrap();
    let g = golden_graph();
    let mut clique = Clique::new(g.n());
    let oracle = OracleBuilder::new().seed(5).build(&mut clique, &g).unwrap();
    assert_eq!(
        serde::payload_checksum(&oracle),
        golden.checksum,
        "clique build no longer reproduces the committed artifact"
    );
    let header = serde::peek_header(&canonical_bytes(&oracle)).unwrap();
    assert_eq!(header.build_id(), golden.build_id());
}

#[test]
fn shard_codec_reproduces_the_golden_shard_bytes_exactly() {
    let golden = read_fixture(GOLDEN_SHARD_PATH, canonical_shard_bytes);
    assert_eq!(
        canonical_shard_bytes(&golden_direct_build()),
        golden,
        "shard 1 of 3 no longer serializes to the committed CCSH bytes"
    );
    // The committed file loads as the slice it was cut from, and the set id
    // it carries is the monolithic golden's build id.
    let (header, shard) = serde::from_shard_bytes_with_header(&golden).unwrap();
    assert_eq!((shard.index(), shard.count(), shard.owned()), (1, 3, 12..24));
    assert_eq!(header.set_build_id(), serde::peek_header(&read_golden()).unwrap().build_id());
    assert_eq!(serde::to_shard_bytes_created_at(&shard, 0), golden);
}

#[test]
fn golden_fixture_round_trips_and_serves() {
    let oracle = serde::from_bytes(&read_golden()).unwrap();
    assert_eq!(oracle.n(), 36);
    assert_eq!(oracle.seed(), 5);
    assert_eq!(oracle.epsilon().to_bits(), 0.25f64.to_bits());
    // The loaded artifact answers like the live build it snapshots.
    let live = golden_direct_build();
    for u in [0, 7, 35] {
        for v in 0..36 {
            assert_eq!(oracle.try_query(u, v).unwrap(), live.try_query(u, v).unwrap());
        }
    }
}
