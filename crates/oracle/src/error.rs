//! Error type for oracle construction, queries and snapshots.

use cc_distance::DistanceError;

/// Everything that can go wrong building, querying or deserializing an
/// oracle.
#[derive(Debug)]
pub enum OracleError {
    /// A distributed substrate (k-nearest, hitting set, MSSP) failed.
    Build(DistanceError),
    /// A parameter was rejected before any clique communication happened.
    InvalidParameter {
        /// Human-readable description of the rejected parameter.
        what: String,
    },
    /// A serialized artifact failed validation.
    CorruptSnapshot {
        /// What was wrong with the byte stream.
        what: String,
    },
    /// A versioned snapshot was written by a different format generation
    /// than this build supports.
    SnapshotVersionMismatch {
        /// The version recorded in the snapshot header.
        found: u32,
        /// The version this build reads and writes.
        supported: u32,
    },
    /// The snapshot payload does not hash to the checksum recorded in its
    /// header: the bytes were corrupted (bit rot, torn write, truncated
    /// copy) after they were written.
    SnapshotChecksumMismatch {
        /// Checksum recorded in the header.
        stored: u64,
        /// Checksum computed over the payload actually present.
        computed: u64,
    },
    /// The bytes are a pre-versioning (v1, magic `CCO1`) snapshot. The v1
    /// reader was removed after its one-release migration window (see
    /// `docs/SNAPSHOT_FORMAT.md`); rebuild the artifact and write a current
    /// snapshot.
    LegacySnapshot,
    /// The bytes are a **per-shard** snapshot (magic `CCSH`): one slice of a
    /// sharded artifact set, not a complete oracle. Load it with
    /// `serde::from_shard_bytes` and assemble the set behind a
    /// `shard::ShardRouter`.
    ShardSnapshot,
    /// A shard snapshot declared a different shard index than the slot it
    /// was loaded into — e.g. shard 2's file offered as shard 0 of the set.
    ShardIndexMismatch {
        /// The slot the caller was filling.
        expected: u32,
        /// The index the snapshot declares for itself.
        found: u32,
    },
    /// The shards offered as one set do not describe the same artifact:
    /// they disagree on `n`, `k`, `ε`, the landmark set, the shard count,
    /// or the set id (the parent artifact's build id).
    ShardSetMismatch {
        /// Which field disagreed, and how.
        what: String,
    },
    /// A query named a node outside `0..n`. Returned by the fallible
    /// `try_query` family so a serving layer can map bad requests to a
    /// client error instead of panicking the process.
    QueryOutOfRange {
        /// First endpoint of the rejected pair.
        u: usize,
        /// Second endpoint of the rejected pair.
        v: usize,
        /// Number of nodes the oracle covers.
        n: usize,
    },
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::Build(e) => write!(f, "oracle build failed: {e}"),
            OracleError::InvalidParameter { what } => write!(f, "invalid parameter: {what}"),
            OracleError::CorruptSnapshot { what } => write!(f, "corrupt snapshot: {what}"),
            OracleError::SnapshotVersionMismatch { found, supported } => {
                write!(
                    f,
                    "snapshot format version {found} is not supported (this build reads only \
                     v{supported}; rebuild the artifact, or rewrite the file with a release that \
                     still reads v{found})"
                )
            }
            OracleError::SnapshotChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "snapshot checksum mismatch: header says {stored:016x}, payload hashes to {computed:016x}"
                )
            }
            OracleError::LegacySnapshot => {
                write!(
                    f,
                    "legacy (v1) snapshot: the v1 reader was removed; rebuild the artifact \
                     and write a current-format snapshot"
                )
            }
            OracleError::ShardSnapshot => {
                write!(
                    f,
                    "per-shard snapshot: one slice of a sharded artifact set, not a complete \
                     oracle; load it via from_shard_bytes and route through a ShardRouter"
                )
            }
            OracleError::ShardIndexMismatch { expected, found } => {
                write!(
                    f,
                    "shard snapshot declares index {found} but was loaded as shard {expected}"
                )
            }
            OracleError::ShardSetMismatch { what } => {
                write!(f, "inconsistent shard set: {what}")
            }
            OracleError::QueryOutOfRange { u, v, n } => {
                write!(f, "query ({u}, {v}) outside 0..{n}")
            }
        }
    }
}

impl std::error::Error for OracleError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OracleError::Build(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DistanceError> for OracleError {
    fn from(e: DistanceError) -> Self {
        OracleError::Build(e)
    }
}

pub(crate) fn invalid(what: impl Into<String>) -> OracleError {
    OracleError::InvalidParameter { what: what.into() }
}

/// A parameter a `cc-distance` check rejected, as this crate's
/// [`OracleError::InvalidParameter`].
pub(crate) fn rejected(e: DistanceError) -> OracleError {
    match e {
        DistanceError::InvalidParameter { what } => invalid(what),
        e => OracleError::Build(e),
    }
}

pub(crate) fn corrupt(what: impl Into<String>) -> OracleError {
    OracleError::CorruptSnapshot { what: what.into() }
}

pub(crate) fn set_mismatch(what: impl Into<String>) -> OracleError {
    OracleError::ShardSetMismatch { what: what.into() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(invalid("k = 0").to_string().contains("k = 0"));
        assert!(corrupt("bad magic").to_string().contains("bad magic"));
        let e = OracleError::QueryOutOfRange { u: 3, v: 99, n: 16 };
        assert_eq!(e.to_string(), "query (3, 99) outside 0..16");
        let e = OracleError::SnapshotVersionMismatch { found: 2, supported: 3 };
        assert!(e.to_string().contains("version 2"), "{e}");
        assert!(e.to_string().contains("only v3"), "{e}");
        let e = OracleError::SnapshotChecksumMismatch { stored: 0xabcd, computed: 0x1234 };
        assert!(e.to_string().contains("000000000000abcd"), "{e}");
        assert!(e.to_string().contains("0000000000001234"), "{e}");
        assert!(OracleError::LegacySnapshot.to_string().contains("legacy"));
        assert!(OracleError::ShardSnapshot.to_string().contains("ShardRouter"));
        let e = OracleError::ShardIndexMismatch { expected: 0, found: 2 };
        assert!(e.to_string().contains("index 2"), "{e}");
        assert!(e.to_string().contains("shard 0"), "{e}");
        let e = set_mismatch("shard 1: n = 16 but the set has n = 32");
        assert!(e.to_string().contains("inconsistent shard set"), "{e}");
        assert!(e.to_string().contains("n = 16"), "{e}");
    }
}
