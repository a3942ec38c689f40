//! Deserialization fuzz-lite: `oracle::serde::from_bytes` fed bit-flipped
//! and truncated snapshots must either reject the bytes with an error or
//! produce an oracle that still *serves totally* — every query returns a
//! value (no panic, no abort), the diagonal stays zero, and the serving
//! layer's `try_query` still validates ranges.
//!
//! Since the format gained a checksummed header (v2), corruption anywhere
//! in the **payload** must be *rejected outright* — a flipped bit inside a
//! stored distance used to be able to silently change an answer while
//! leaving the structure valid; now it fails the checksum. Header flips in
//! pure-metadata fields (seed, build rounds, created-at) can still parse —
//! they change what the artifact *says about itself*, not the artifact —
//! so the serves-totally property remains the fallback for any mutation
//! that parses.
//!
//! Everything here runs against the bytes the current writer produces
//! (format v3: flat sections, ball offsets, the word-parallel checksum).
//! What only structural validation can catch is forged behind a checksum
//! recomputed with an **independent** implementation of the hash
//! (`tests/support`): a ball member listed twice, ball offsets that do not
//! start at 0 / decrease / stop short of the entry count, an entry count
//! that disagrees with `payload_len`, a column matrix larger than the
//! bytes present.
//!
//! The legacy (v1) decoder was removed after its one-release migration
//! window: any byte stream opening with the v1 magic must now fail with
//! `OracleError::LegacySnapshot`, never parse and never panic.
//!
//! **Per-shard snapshots** (magic `CCSH`) get the same treatment plus
//! their own attack surface: the shard checksum covers the shard
//! index/count/set-id fields, so a flip there is a checksum rejection, a
//! forged-but-recomputed header hits the recomputed-plan validation, shard
//! files in the wrong slots are `ShardIndexMismatch`, and sets mixing
//! `n`/`k`/`ε`/set-id are `ShardSetMismatch` — all errors, never panics.

use congested_clique::clique::Clique;
use congested_clique::graph::generators;
use congested_clique::oracle::{
    serde, DistanceOracle, OracleBuilder, OracleError, ShardRouter, ShardedArtifact,
};
use proptest::prelude::*;
use std::sync::OnceLock;

mod support;
use support::reseal;

/// One canonical snapshot, built once for the whole fuzz run.
fn snapshot() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let g = generators::gnp_weighted(30, 0.15, 40, 23).expect("graph");
        let mut clique = Clique::new(30);
        let oracle =
            OracleBuilder::new().epsilon(0.5).seed(23).build(&mut clique, &g).expect("build");
        serde::to_bytes(&oracle)
    })
}

/// Whatever deserialized must answer every pair without panicking, keep a
/// zero diagonal, and keep rejecting out-of-range ids through the fallible
/// API.
fn assert_serves_totally(oracle: &DistanceOracle) {
    let n = oracle.n();
    for u in 0..n {
        assert_eq!(oracle.try_query(u, u).unwrap().value(), Some(0), "diagonal must stay zero");
        for v in 0..n {
            // Any returned value is acceptable — the property under attack
            // is that the call *returns* instead of panicking/aborting.
            let _ = oracle.try_query(u, v).unwrap();
        }
    }
    assert!(oracle.try_query(n, 0).is_err(), "edge validation must survive");
    let pairs: Vec<(usize, usize)> = (0..n).map(|i| (i, (i * 7 + 1) % n)).collect();
    assert_eq!(oracle.try_query_batch(&pairs).expect("in-range batch").len(), n);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bit_flips_never_panic_the_decoder_or_the_queries(
        at_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        let bytes = snapshot();
        let mut mutated = bytes.to_vec();
        let at = at_frac * bytes.len() / 10_000;
        mutated[at] ^= 1 << bit;
        match serde::from_bytes(&mutated) {
            Err(_) => {} // rejection is the common, correct outcome
            Ok(oracle) => assert_serves_totally(&oracle),
        }
    }

    #[test]
    fn payload_bit_flips_are_always_rejected_by_the_checksum(
        at_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        let bytes = snapshot();
        let payload_len = bytes.len() - serde::HEADER_LEN;
        let at = serde::HEADER_LEN + at_frac * payload_len / 10_000;
        let mut mutated = bytes.to_vec();
        mutated[at] ^= 1 << bit;
        // No payload corruption may survive validation, not even one
        // that keeps the structure parseable (e.g. inside a distance).
        prop_assert!(
            serde::from_bytes(&mutated).is_err(),
            "payload flip at byte {at} bit {bit} must be rejected"
        );
    }

    #[test]
    fn legacy_v1_bytes_always_fail_with_the_dedicated_error(
        len in 0usize..4_096,
        fill_seed in 0u64..1_000_000,
    ) {
        // The v1 reader is gone: any stream opening with the v1 magic is
        // rejected by magic alone — whatever follows, however long.
        let mut bytes = b"CCO1".to_vec();
        let mut state = fill_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            bytes.push((state >> 24) as u8);
        }
        prop_assert!(matches!(serde::from_bytes(&bytes), Err(OracleError::LegacySnapshot)));
        prop_assert!(matches!(
            serde::from_shard_bytes(&bytes),
            Err(OracleError::LegacySnapshot)
        ));
    }

    #[test]
    fn multi_byte_corruption_never_panics(
        seed in 0u64..1_000_000,
        flips in 1usize..16,
    ) {
        let bytes = snapshot();
        let mut mutated = bytes.to_vec();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..flips {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let at = (state as usize) % mutated.len();
            mutated[at] = (state >> 24) as u8;
        }
        match serde::from_bytes(&mutated) {
            Err(_) => {}
            Ok(oracle) => assert_serves_totally(&oracle),
        }
    }

    #[test]
    fn resealed_corruption_never_panics_the_validator_or_the_queries(
        seed in 0u64..1_000_000,
        flips in 1usize..8,
    ) {
        // Past the checksum only the structural rules stand between forged
        // sections and the query kernel's unchecked indexing: whatever they
        // let through must still serve. Small values keep ids, indices and
        // offsets plausible so that some forgeries do get through.
        let mut mutated = snapshot().to_vec();
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
        for _ in 0..flips {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let at = 80 + (state as usize) % (mutated.len() - 80);
            mutated[at] = (state >> 24) as u8 % 32;
        }
        reseal(&mut mutated);
        match serde::from_bytes(&mutated) {
            Err(e) => prop_assert!(matches!(e, OracleError::CorruptSnapshot { .. }), "{e}"),
            Ok(oracle) => assert_serves_totally(&oracle),
        }
    }

    #[test]
    fn truncations_are_always_rejected(cut_frac in 0usize..10_000) {
        let bytes = snapshot();
        let cut = cut_frac * bytes.len() / 10_000;
        // Every strict prefix is invalid: the decoder either hits the hard
        // length checks or the trailing-bytes check, never a panic.
        prop_assert!(
            serde::from_bytes(&bytes[..cut]).is_err(),
            "strict prefix of {cut} bytes must be rejected"
        );
    }

    #[test]
    fn extensions_are_always_rejected(extra in 1usize..64, fill in 0usize..256) {
        let bytes = snapshot();
        let mut extended = bytes.to_vec();
        extended.extend(std::iter::repeat_n(fill as u8, extra));
        prop_assert!(serde::from_bytes(&extended).is_err(), "trailing bytes must be rejected");
    }

    #[test]
    fn shard_bit_flips_never_panic_and_owned_lookups_survive(
        shard_pick in 0usize..3,
        at_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        let bytes = shard_snapshot(shard_pick);
        let mut mutated = bytes.to_vec();
        let at = at_frac * bytes.len() / 10_000;
        mutated[at] ^= 1 << bit;
        match serde::from_shard_bytes(&mutated) {
            Err(_) => {} // rejection is the common, correct outcome
            Ok(shard) => {
                // Only pure-metadata header flips (seed, rounds, created)
                // can get here; the slice itself must still answer every
                // owned half-query without panicking.
                for near in shard.owned() {
                    for far in 0..shard.n() {
                        let _ = shard.half_query(near, far);
                    }
                }
            }
        }
    }

    #[test]
    fn shard_field_and_payload_flips_are_always_rejected(
        shard_pick in 0usize..3,
        at_frac in 0usize..10_000,
        bit in 0usize..8,
    ) {
        // The shard checksum covers everything from byte 80 on — the shard
        // index, shard count, set id, and the payload. No flip there may
        // parse, including one that would re-slot the shard.
        let bytes = shard_snapshot(shard_pick);
        let covered = bytes.len() - 80;
        let at = 80 + at_frac * covered / 10_000;
        let mut mutated = bytes.to_vec();
        mutated[at] ^= 1 << bit;
        prop_assert!(
            matches!(
                serde::from_shard_bytes(&mutated),
                Err(OracleError::SnapshotChecksumMismatch { .. })
            ),
            "shard flip at byte {at} bit {bit} must fail the checksum"
        );
    }

    #[test]
    fn shard_truncations_and_extensions_are_always_rejected(
        shard_pick in 0usize..3,
        cut_frac in 0usize..10_000,
        extra in 1usize..64,
    ) {
        let bytes = shard_snapshot(shard_pick);
        let cut = cut_frac * bytes.len() / 10_000;
        prop_assert!(serde::from_shard_bytes(&bytes[..cut]).is_err());
        let mut extended = bytes.to_vec();
        extended.extend(std::iter::repeat_n(0xA5u8, extra));
        prop_assert!(serde::from_shard_bytes(&extended).is_err());
    }
}

/// Per-shard snapshots of the canonical oracle, split 3 ways, built once.
fn shard_snapshot(index: usize) -> &'static [u8] {
    static BYTES: OnceLock<Vec<Vec<u8>>> = OnceLock::new();
    &BYTES.get_or_init(|| {
        let oracle = serde::from_bytes(snapshot()).expect("clean snapshot");
        ShardedArtifact::partition(&oracle, 3)
            .expect("partition")
            .shards()
            .iter()
            .map(serde::to_shard_bytes)
            .collect()
    })[index]
}

/// A second, unrelated artifact set (different graph seed), for mixing
/// attacks.
fn other_oracle() -> &'static DistanceOracle {
    static ORACLE: OnceLock<DistanceOracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let g = generators::gnp_weighted(30, 0.15, 40, 99).expect("graph");
        let mut clique = Clique::new(30);
        OracleBuilder::new().epsilon(0.5).seed(99).build(&mut clique, &g).expect("build")
    })
}

#[test]
fn loading_shard_i_as_slot_j_is_a_named_index_mismatch() {
    let shards: Vec<_> =
        (0..3).map(|i| serde::from_shard_bytes(shard_snapshot(i)).expect("clean shard")).collect();
    // Every wrong permutation fails on its first mis-slotted file.
    for (a, b, c, bad_slot, found) in
        [(1usize, 0usize, 2usize, 0u32, 1u32), (0, 2, 1, 1, 2), (2, 1, 0, 0, 2)]
    {
        let set = vec![shards[a].clone(), shards[b].clone(), shards[c].clone()];
        match ShardRouter::assemble(set) {
            Err(OracleError::ShardIndexMismatch { expected, found: f }) => {
                assert_eq!((expected, f), (bad_slot, found), "permutation ({a},{b},{c})");
            }
            other => panic!("permutation ({a},{b},{c}) must be an index mismatch, got {other:?}"),
        }
    }
    // The correct order still assembles and serves.
    assert!(ShardRouter::assemble(shards).is_ok());
}

#[test]
fn mixed_shard_sets_are_named_set_mismatches() {
    let base = serde::from_bytes(snapshot()).expect("clean snapshot");
    let ours = ShardedArtifact::partition(&base, 3).expect("partition").into_shards();

    // Same shape, different artifact generation: the set ids disagree.
    let theirs = ShardedArtifact::partition(other_oracle(), 3).expect("partition").into_shards();
    let mixed = vec![ours[0].clone(), theirs[1].clone(), ours[2].clone()];
    match ShardRouter::assemble(mixed) {
        Err(OracleError::ShardSetMismatch { what }) => {
            assert!(what.contains("set id"), "must name the field: {what}");
        }
        other => panic!("mixed set ids must be rejected, got {other:?}"),
    }

    // Different epsilon: same graph family, different build parameters.
    let g = generators::gnp_weighted(30, 0.15, 40, 23).expect("graph");
    let mut clique = Clique::new(30);
    let reparam =
        OracleBuilder::new().epsilon(0.25).seed(23).build(&mut clique, &g).expect("build");
    let reparam_shards = ShardedArtifact::partition(&reparam, 3).expect("partition").into_shards();
    let mixed = vec![ours[0].clone(), ours[1].clone(), reparam_shards[2].clone()];
    match ShardRouter::assemble(mixed) {
        Err(OracleError::ShardSetMismatch { .. }) => {}
        other => panic!("mixed build parameters must be rejected, got {other:?}"),
    }

    // An incomplete set is rejected, never a panic.
    let incomplete = ShardRouter::assemble(ours[..2].to_vec());
    assert!(matches!(incomplete, Err(OracleError::ShardSetMismatch { .. })));
}

#[test]
fn forged_shard_headers_behind_recomputed_checksums_are_still_rejected() {
    // Forge shard_index = shard_count (out of range) behind a recomputed
    // checksum: the recomputed-plan validation must reject it.
    let mut forged = shard_snapshot(0).to_vec();
    forged[80..84].copy_from_slice(&3u32.to_le_bytes());
    reseal(&mut forged);
    assert!(matches!(serde::from_shard_bytes(&forged), Err(OracleError::CorruptSnapshot { .. })));

    // Forge an impossible plan (count > n).
    let mut forged = shard_snapshot(0).to_vec();
    forged[84..88].copy_from_slice(&31u32.to_le_bytes());
    reseal(&mut forged);
    let err = serde::from_shard_bytes(&forged).expect_err("impossible plan");
    assert!(err.to_string().contains("impossible shard plan"), "{err}");

    // Forge a *valid but different* count: the owned-range size no longer
    // matches the payload's rows — structural rejection, no panic.
    let mut forged = shard_snapshot(0).to_vec();
    forged[84..88].copy_from_slice(&5u32.to_le_bytes());
    reseal(&mut forged);
    assert!(serde::from_shard_bytes(&forged).is_err());

    // Forge the set id: the file parses (it is self-consistent) but can no
    // longer join its siblings.
    let mut forged = shard_snapshot(0).to_vec();
    forged[88..96].copy_from_slice(&0xDEAD_BEEFu64.to_le_bytes());
    reseal(&mut forged);
    let alien = serde::from_shard_bytes(&forged).expect("self-consistent forgery parses");
    let mut set = vec![alien];
    for i in 1..3 {
        set.push(serde::from_shard_bytes(shard_snapshot(i)).expect("clean shard"));
    }
    assert!(matches!(ShardRouter::assemble(set), Err(OracleError::ShardSetMismatch { .. })));
}

/// Where the sections of a monolithic v3 snapshot start, derived from its
/// header the way `docs/SNAPSHOT_FORMAT.md` says: `n`, `s` and
/// `payload_len` are stored, `m = n`, and `E` is what is left.
struct Layout {
    entries: usize,
    landmarks: usize,
    ball_offsets: usize,
    ball_ids: usize,
}

fn layout(bytes: &[u8]) -> Layout {
    let field = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let (n, s, payload_len) = (field(8), field(32), field(64));
    let entries = (payload_len - (8 * n * s + 16 * n + 4 * s + 4)) / 12;
    let landmarks = 80 + 8 * (n * s + n + entries);
    let ball_offsets = landmarks + 4 * s + 4 * n;
    Layout { entries, landmarks, ball_offsets, ball_ids: ball_offsets + 4 * (n + 1) }
}

fn put_u32(bytes: &mut [u8], at: usize, x: u32) {
    bytes[at..at + 4].copy_from_slice(&x.to_le_bytes());
}

fn get_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

/// The forgery must be refused as structurally corrupt, with `what` named.
fn assert_corrupt(bytes: &[u8], what: &str) {
    match serde::from_bytes(bytes) {
        Err(OracleError::CorruptSnapshot { what: why }) => {
            assert!(why.contains(what), "expected `{what}` in: {why}");
        }
        other => panic!("`{what}` forgery must be refused as corrupt, got {other:?}"),
    }
}

#[test]
fn a_ball_member_listed_twice_is_rejected_behind_a_recomputed_checksum() {
    // The v2 reader's `is_sorted_by_key` accepted equal neighbours, so a
    // resealed file could list one member twice with two distances and the
    // binary search answered with whichever copy it probed first.
    let mut forged = snapshot().to_vec();
    let at = layout(&forged);
    assert!(get_u32(&forged, at.ball_offsets + 4) >= 2, "row 0 holds at least two members");
    let first = get_u32(&forged, at.ball_ids);
    put_u32(&mut forged, at.ball_ids + 4, first);
    reseal(&mut forged);
    assert_corrupt(&forged, "not strictly ascending");
}

#[test]
fn forged_ball_offsets_are_rejected_behind_a_recomputed_checksum() {
    let clean = snapshot();
    let at = layout(clean);
    let rows = 30;
    let forge = |index: usize, value: u32| {
        let mut forged = clean.to_vec();
        put_u32(&mut forged, at.ball_offsets + 4 * index, value);
        reseal(&mut forged);
        forged
    };
    assert_corrupt(&forge(0, 1), "first ball offset");
    let second = get_u32(clean, at.ball_offsets + 4);
    assert_corrupt(&forge(2, second - 1), "not an ascending range");
    assert_corrupt(&forge(1, at.entries as u32 + 1), "not an ascending range");
    assert_corrupt(&forge(rows, at.entries as u32 - 1), "last ball offset");
}

#[test]
fn an_entry_count_that_disagrees_with_payload_len_is_rejected() {
    // One more 12-byte entry spliced into the two per-entry sections, every
    // other section intact, `payload_len` and checksum made to match: the
    // entry count the length implies is no longer the last offset.
    let mut forged = snapshot().to_vec();
    let at = layout(&forged);
    let end = forged.len();
    forged.splice(end..end, 0u32.to_le_bytes());
    forged.splice(at.landmarks..at.landmarks, 0u64.to_le_bytes());
    let payload_len = (forged.len() - 80) as u64;
    forged[64..72].copy_from_slice(&payload_len.to_le_bytes());
    reseal(&mut forged);
    assert_corrupt(&forged, "last ball offset");
    assert_eq!(layout(&forged).entries, at.entries + 1);

    // And a payload that leaves a fraction of an entry.
    let mut forged = snapshot().to_vec();
    forged.extend_from_slice(&[0; 5]);
    let payload_len = (forged.len() - 80) as u64;
    forged[64..72].copy_from_slice(&payload_len.to_le_bytes());
    reseal(&mut forged);
    assert_corrupt(&forged, "12-byte entries");
}

#[test]
fn a_column_matrix_larger_than_the_bytes_present_is_rejected_before_allocating() {
    // `n` and `s` are each capped by the payload size, so their product can
    // be quadratic in it: claim the largest `s` the header check lets
    // through. (The header fields sit before the checksummed range, so no
    // reseal is needed — and none would help.)
    let mut forged = snapshot().to_vec();
    let payload_len = (forged.len() - 80) as u64;
    forged[32..40].copy_from_slice(&payload_len.to_le_bytes());
    assert_corrupt(&forged, "need more than");
    // Same through the shard reader, whose rows are a slice of `n`.
    let mut forged = shard_snapshot(1).to_vec();
    let payload_len = (forged.len() - 96) as u64;
    forged[32..40].copy_from_slice(&payload_len.to_le_bytes());
    assert!(matches!(serde::from_shard_bytes(&forged), Err(OracleError::CorruptSnapshot { .. })));
}
