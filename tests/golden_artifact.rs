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
//! Two kinds of fixture live under `tests/golden/`:
//!
//! * `road36_eps025_seed5.ccos` / `…shard1of3.ccsh` — the current format
//!   (v3), which the writer must reproduce exactly;
//! * `road36_eps025_seed5.answers.txt` — every answer of the artifact,
//!   generated before the v3 layout existed, which every way of obtaining
//!   the artifact must still give.
//!
//! Regenerating the v3 fixtures (only after an *intentional*
//! format/pipeline change):
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_artifact
//! ```

use congested_clique::clique::Clique;
use congested_clique::graph::{generators, Graph};
use congested_clique::matrix::Dist;
use congested_clique::oracle::{
    serde, DirectBuilder, DistanceOracle, OracleBuilder, OracleError, ShardRouter, ShardedArtifact,
};

const GOLDEN_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/road36_eps025_seed5.ccos");
const GOLDEN_SHARD_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/road36_eps025_seed5.shard1of3.ccsh");
const ANSWERS_PATH: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/road36_eps025_seed5.answers.txt");

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
    let (golden, _) = serde::from_bytes_with_header(&read_golden()).unwrap();
    let g = golden_graph();
    let mut clique = Clique::new(g.n());
    let oracle = OracleBuilder::new().seed(5).build(&mut clique, &g).unwrap();
    assert_eq!(
        serde::payload_checksum(&oracle),
        golden.checksum,
        "clique build no longer reproduces the committed artifact"
    );
    let (header, _) = serde::from_bytes_with_header(&canonical_bytes(&oracle)).unwrap();
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
    let (golden_header, _) = serde::from_bytes_with_header(&read_golden()).unwrap();
    assert_eq!(header.set_build_id(), golden_header.build_id());
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

/// All 36 × 36 raw answers of one side, one line per `u`, `inf` for a
/// disconnected pair — the text `road36_eps025_seed5.answers.txt` pins.
fn answers_of(query: impl Fn(usize, usize) -> Dist) -> String {
    let mut text = String::new();
    for u in 0..36 {
        let row: Vec<String> = (0..36)
            .map(|v| query(u, v).value().map_or_else(|| "inf".to_string(), |d| d.to_string()))
            .collect();
        text.push_str(&row.join(" "));
        text.push('\n');
    }
    text
}

#[test]
fn pinned_answers_hold_from_every_side() {
    let live = golden_direct_build();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(ANSWERS_PATH, answers_of(|u, v| live.try_query(u, v).unwrap())).unwrap();
    }
    let pinned = std::fs::read_to_string(ANSWERS_PATH).expect("answers fixture missing");

    let g = golden_graph();
    let mut clique = Clique::new(g.n());
    let via_clique = OracleBuilder::new().seed(5).build(&mut clique, &g).unwrap();
    let loaded = serde::from_bytes(&read_golden()).unwrap();
    // A 3-shard router whose middle slot comes off disk.
    let mut shards = ShardedArtifact::partition(&live, 3).unwrap().into_shards();
    shards[1] =
        serde::from_shard_bytes(&read_fixture(GOLDEN_SHARD_PATH, canonical_shard_bytes)).unwrap();
    let router = ShardRouter::assemble(shards).unwrap();

    type Side<'a> = (&'a str, &'a dyn Fn(usize, usize) -> Dist);
    let sides: [Side; 4] = [
        ("fresh direct build", &|u, v| live.try_query(u, v).unwrap()),
        ("clique build", &|u, v| via_clique.try_query(u, v).unwrap()),
        ("committed v3 snapshot", &|u, v| loaded.try_query(u, v).unwrap()),
        ("router with slot 1 from the shard golden", &|u, v| router.try_query(u, v).unwrap()),
    ];
    for (side, query) in sides {
        assert_eq!(answers_of(query), pinned, "{side} no longer gives the pinned answers");
    }
}

#[test]
fn a_version_2_header_is_refused_not_parsed() {
    // The v2 reader lasted the one release after v3: a file that says it is
    // version 2 is a version mismatch before any byte after the version
    // field is looked at — here the rest is a valid v3 file, and equally if
    // it is cut off right there.
    let refused = |e| matches!(e, OracleError::SnapshotVersionMismatch { found: 2, supported: 3 });
    let mut bytes = read_golden();
    bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(refused(serde::from_bytes(&bytes).unwrap_err()));
    assert!(refused(serde::from_bytes(&bytes[..8]).unwrap_err()));
    let mut shard = read_fixture(GOLDEN_SHARD_PATH, canonical_shard_bytes);
    shard[4..8].copy_from_slice(&2u32.to_le_bytes());
    assert!(refused(serde::from_shard_bytes(&shard).unwrap_err()));
}
