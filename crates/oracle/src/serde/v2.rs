//! The **read-only** decoder of snapshot format v2, kept for one release so
//! a fleet can roll to v3 binaries before its files are rewritten
//! (`docs/SNAPSHOT_FORMAT.md`, "Compatibility policy"). It has no writer
//! and no switch: [`super::parse_header`] picks [`fnv1a`] and
//! [`super::decode`] picks [`read_sections`] when the file's own version
//! field says 2. Everything structural is left to the constructor v3 files
//! go through (`ArtifactSlice::from_sections`); this module only parses
//! safely. Delete this file, and the two `v2::` arms in `serde.rs`, with
//! the next release.
//!
//! The v2 payload, after the same header and shard fields as v3:
//!
//! ```text
//! s ×     u32 landmark ids
//! m ×     (u32 idx, u64 dist)          nearest landmark per owned node
//! m ×     u64 len, len × (u32, u64)    balls
//! n·s ×   u64                          landmark columns (MAX = ∞)
//! ```

use super::{Reader, SnapshotHeader};
use crate::error::corrupt;
use crate::oracle::Sections;
use crate::OracleError;

/// The version field of the files this module reads.
pub(super) const VERSION: u32 = 2;

/// FNV-1a 64-bit over `bytes`: the v2 checksum.
pub(super) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Parses a v2 payload into sections: every count capped by the bytes
/// remaining so allocation stays linear in the input, the `n·s` cell count
/// checked against the bytes left before allocating, and the reader
/// required to end exactly at the end of the input.
pub(super) fn read_sections(
    payload: &[u8],
    header: &SnapshotHeader,
) -> Result<Sections, OracleError> {
    let (n, s, rows) = (header.n, header.landmarks, header.owned().len());
    let mut r = Reader { bytes: payload, at: 0 };
    let landmarks = (0..s).map(|_| r.u32()).collect::<Result<Vec<u32>, _>>()?;
    let nearest_landmark =
        (0..rows).map(|_| Ok((r.u32()?, r.u64()?))).collect::<Result<Vec<_>, OracleError>>()?;
    let mut sections = Sections::with_rows(rows, landmarks, Vec::new());
    let mut ball = Vec::new();
    for pick in nearest_landmark {
        let len = r.len("ball", payload.len())?;
        ball.clear();
        for _ in 0..len {
            ball.push((r.u32()?, r.u64()?));
        }
        sections.push_row(pick, ball.iter().copied());
    }
    let cells = n.checked_mul(s).ok_or_else(|| corrupt("column matrix size overflows"))?;
    if cells > (payload.len() - r.at) / 8 {
        return Err(corrupt(format!(
            "column matrix claims {cells} cells but only {} bytes remain",
            payload.len() - r.at
        )));
    }
    sections.columns = (0..cells).map(|_| r.u64()).collect::<Result<Vec<u64>, _>>()?;
    if r.at != payload.len() {
        return Err(corrupt(format!("{} trailing bytes", payload.len() - r.at)));
    }
    Ok(sections)
}
