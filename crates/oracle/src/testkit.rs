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
    let (sections_a, sections_b) = (a.sections(), b.sections());
    for v in 0..a.n() {
        assert_eq!(
            sections_a.nearest_landmark[v], sections_b.nearest_landmark[v],
            "artifacts differ in the nearest-landmark pick of node {v}"
        );
        assert_eq!(a.ball(v), b.ball(v), "artifacts differ in the ball of node {v}");
    }
    assert_eq!(sections_a.columns, sections_b.columns, "artifacts differ in the landmark columns");

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

/// The checksummed part of the snapshot: everything after the fixed header,
/// whose two provenance fields (`created_unix_secs`, `build_rounds`) are the
/// only ones [`assert_same_artifact`] has not already compared.
fn payload_bytes(oracle: &DistanceOracle) -> Vec<u8> {
    serde::to_bytes_created_at(oracle, 0).split_off(serde::HEADER_LEN)
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
        let b = crate::DirectBuilder::new().build(&g).unwrap();
        assert_ne!(a.build_rounds(), b.build_rounds());
        assert_same_artifact(&a, &b);
    }

    #[test]
    #[should_panic(expected = "landmark selection")]
    fn rejects_differing_artifacts_by_section() {
        let g = generators::gnp_weighted(24, 0.2, 20, 3).unwrap();
        let a = crate::DirectBuilder::new().build(&g).unwrap();
        let mut sections = a.sections().clone();
        sections.landmarks[0] = (sections.landmarks[0] + 1) % 24;
        let b = crate::ArtifactSlice::from_sections(a.params(), 0..24, sections).unwrap();
        assert_same_artifact(&a, &DistanceOracle(b));
    }
}
