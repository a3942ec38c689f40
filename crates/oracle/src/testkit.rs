//! Test support: artifact-equality assertions shared by the in-crate unit
//! tests and the workspace-level differential suite
//! (`tests/build_equivalence.rs`).
//!
//! Hidden from the documented API surface — this is tooling for proving
//! the [`DirectBuilder`](crate::DirectBuilder) bit-identity contract, not
//! part of the serving interface.

use crate::{serde, DistanceOracle};

/// Asserts that two oracles are the **same artifact**: identical snapshot
/// payload bytes, hence identical build ids.
///
/// The header-only `build_rounds` field is excluded: the clique builder
/// counts simulated rounds while the direct builder records 0, and the
/// snapshot format deliberately keeps that provenance out of the payload
/// checksum. Everything else — parameters, landmarks, balls,
/// nearest-landmark rows, columns — must match byte for byte.
///
/// On mismatch, panics with the first divergent section named (parameters,
/// landmarks, nearest-landmark row, ball, or column), so a differential
/// failure points at the phase that drifted rather than at byte offset
/// 40213.
///
/// # Panics
///
/// Panics (with a section-level diagnostic) if the artifacts differ
/// anywhere outside `build_rounds`.
pub fn assert_same_artifact(a: &DistanceOracle, b: &DistanceOracle) {
    // Section-level diagnostics first: a byte diff without context is
    // useless when a 100k-node differential case fails.
    assert_eq!(
        (a.n(), a.k(), a.seed(), a.epsilon().to_bits()),
        (b.n(), b.k(), b.seed(), b.epsilon().to_bits()),
        "artifacts differ in build parameters"
    );
    assert_eq!(a.landmarks(), b.landmarks(), "artifacts differ in landmark selection");
    for v in 0..a.n() {
        assert_eq!(
            a.nearest_landmark[v], b.nearest_landmark[v],
            "artifacts differ in the nearest-landmark pick of node {v}"
        );
        assert_eq!(a.balls[v], b.balls[v], "artifacts differ in the ball of node {v}");
    }
    assert_eq!(a.columns, b.columns, "artifacts differ in the landmark columns");

    // The actual contract: identical payload bytes and checksum. (The
    // sections above are a refinement of this; if they all pass and this
    // fails, the serializer itself is nondeterministic — worth its own
    // loud message.)
    let (bytes_a, bytes_b) = (payload_bytes(a), payload_bytes(b));
    assert_eq!(
        serde::payload_checksum(a),
        serde::payload_checksum(b),
        "sections match but payload checksums differ: nondeterministic serializer?"
    );
    assert_eq!(bytes_a, bytes_b, "sections match but payload bytes differ");
}

/// The snapshot bytes with both provenance fields (`created_unix_secs` via
/// the API, `build_rounds` by zeroing a clone) pinned, so the comparison
/// covers exactly the payload-checksummed content plus the parameter
/// header fields.
fn payload_bytes(oracle: &DistanceOracle) -> Vec<u8> {
    let mut pinned = oracle.clone();
    pinned.0.build_rounds = 0;
    serde::to_bytes_created_at(&pinned, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_clique::Clique;
    use cc_graph::generators;

    #[test]
    fn accepts_same_artifact_with_different_build_rounds() {
        let g = generators::gnp_weighted(24, 0.2, 20, 3).unwrap();
        let mut clique = Clique::new(24);
        let a = crate::OracleBuilder::new().build(&mut clique, &g).unwrap();
        let mut b = a.clone();
        b.0.build_rounds = 0;
        assert_same_artifact(&a, &b);
    }

    #[test]
    #[should_panic(expected = "landmark selection")]
    fn rejects_differing_artifacts_by_section() {
        let g = generators::gnp_weighted(24, 0.2, 20, 3).unwrap();
        let mut clique = Clique::new(24);
        let a = crate::OracleBuilder::new().build(&mut clique, &g).unwrap();
        let mut b = a.clone();
        b.0.landmarks.push(23);
        assert_same_artifact(&a, &b);
    }
}
