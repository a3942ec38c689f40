//! Snapshot an oracle to bytes and load it back — no external serde crate
//! (the build container is offline), just a **versioned, self-describing
//! little-endian layout** with an integrity checksum, so a serving process
//! can refuse a stale or corrupt artifact instead of silently loading it.
//!
//! The byte-level layout is specified in `docs/SNAPSHOT_FORMAT.md` at the
//! workspace root. Format **v3** is the in-memory layout
//! ([`crate::ArtifactSlice`]'s flat sections) written out whole, `u64`
//! sections first so every section is naturally aligned with no padding
//! (all integers little-endian; `m` owned rows, `E` ball entries):
//!
//! ```text
//! ── header, 80 bytes ─────────────────────────────────────────────
//! magic   b"CCOS"
//! u32     format version (currently 3)
//! u64     n, k; f64 epsilon (IEEE bits); u64 landmark count s
//! u64     seed, build_rounds, created_unix_secs
//! u64     payload_len, payload checksum (`checksum64`, below)
//! ── payload, payload_len bytes ───────────────────────────────────
//! n·s ×   u64   landmark columns, row-major (MAX = ∞)
//! m ×     u64   nearest-landmark distances
//! E ×     u64   ball distances
//! s ×     u32   landmark ids
//! m ×     u32   nearest-landmark indices
//! m+1 ×   u32   ball offsets (CSR: row r is entries off[r]..off[r+1])
//! E ×     u32   ball member ids
//! ```
//!
//! So [`to_bytes`] is one exact-capacity buffer filled section by section,
//! and [`from_bytes`] is a checksum pass, one bulk copy per section, and
//! the one validator every artifact goes through
//! (`ArtifactSlice::from_sections`): nothing is decoded per field and
//! nothing is allocated per node. `E` is not stored: it is what
//! `payload_len` leaves after the sections the header sizes, and must
//! equal the last ball offset.
//!
//! [`from_bytes`] rejects bad magic, an unsupported version
//! ([`OracleError::SnapshotVersionMismatch`]) and a payload whose checksum
//! disagrees with the header ([`OracleError::SnapshotChecksumMismatch`])
//! before any section is looked at, then everything structural (a length
//! the bytes present cannot hold, out-of-range indices, ∞-sentinel
//! distances, ball offsets that do not tile `0..E`, ball ids not strictly
//! ascending).
//!
//! The checksum is a word-parallel 64-bit hash defined in this file and in
//! the format document (four multiply-rotate lanes over 32-byte stripes);
//! like the FNV-1a it replaces it is an integrity check that **always**
//! detects a single-byte substitution, and it doubles as the build id.
//!
//! **Per-shard snapshots** (one slice of a [`crate::shard::ShardedArtifact`])
//! are the same file with three differences, and go through the same
//! writer and parser: the magic is `b"CCSH"`; 16 shard-field bytes (index
//! `u32`, count `u32`, set id `u64` — a [`ShardSlot`]) sit at offset 80,
//! between the fixed fields and the payload; and the per-node sections hold
//! only the owned rows. The checksum covers every byte after the fixed 80
//! — for a shard that is the shard fields *and* the payload, so a flipped
//! shard index can never slip through. [`to_shard_bytes`] /
//! [`from_shard_bytes`] are the entry points; [`from_bytes`] refuses a
//! shard file with [`OracleError::ShardSnapshot`] rather than serving a
//! slice as a whole artifact.
//!
//! **Format v2** (interleaved per-node records, FNV-1a 64) was read for
//! the one release after v3 landed and is now refused like any other
//! version this build does not write:
//! [`OracleError::SnapshotVersionMismatch`], never a parse; see the
//! compatibility policy in `docs/SNAPSHOT_FORMAT.md`.
//!
//! The pre-versioning v1 layout (magic `b"CCO1"`, no build metadata, no
//! checksum) is recognized and reported as [`OracleError::LegacySnapshot`].
//! Its reader (`from_bytes_legacy`) went the same way after its own
//! one-release migration window; v1 bytes are rejected everywhere, never
//! parsed.

use std::sync::Arc;

use cc_distance::check_epsilon;

use crate::error::corrupt;
use crate::oracle::{ArtifactSlice, BuildParams, Sections};
use crate::shard::{OracleShard, ShardPlan, ShardSlot};
use crate::{DistanceOracle, OracleError};

/// Magic bytes opening a versioned (v2+) snapshot.
pub const SNAPSHOT_MAGIC: &[u8; 4] = b"CCOS";
/// The snapshot format version this build writes, and the only one it
/// reads.
pub const SNAPSHOT_VERSION: u32 = 3;
/// Size of the fixed header in bytes.
pub const HEADER_LEN: usize = 80;

/// Magic bytes opening a per-shard snapshot.
pub const SHARD_MAGIC: &[u8; 4] = b"CCSH";
/// Size of the fixed per-shard header in bytes: the 80-byte header plus
/// shard index (`u32`), shard count (`u32`), and set id (`u64`).
pub const SHARD_HEADER_LEN: usize = 96;

/// Magic bytes of the removed legacy (v1) format, recognized only to
/// reject it with a precise error.
const LEGACY_MAGIC: &[u8; 4] = b"CCO1";

/// The parsed, validated header of a versioned snapshot — monolithic or
/// per-shard: everything an operator (or a serving tier deciding whether to
/// hot-swap) needs to know about an artifact **without** deserializing the
/// payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotHeader {
    /// Number of nodes the artifact covers (for a shard: the **parent
    /// artifact**, not just this slice).
    pub n: usize,
    /// Ball-size parameter `k` of the build.
    pub k: usize,
    /// MSSP accuracy parameter `ε` of the build.
    pub epsilon: f64,
    /// Number of landmarks (replicated into every shard).
    pub landmarks: usize,
    /// Landmark-selection seed of the build.
    pub seed: u64,
    /// Clique rounds the build charged.
    pub build_rounds: u64,
    /// Unix timestamp (seconds) when the snapshot was written; `0` when
    /// unknown.
    pub created_unix_secs: u64,
    /// Length of the payload in bytes.
    pub payload_len: u64,
    /// Checksum (the format version's hash) of every byte after the fixed
    /// 80: the payload, preceded in a per-shard snapshot by the shard
    /// fields (so a flipped shard index or set id is caught like any
    /// payload corruption).
    pub checksum: u64,
    /// The shard fields of a per-shard (`CCSH`) snapshot — which slice of
    /// which set this file is; `None` for a monolithic (`CCOS`) one.
    pub shard: Option<ShardSlot>,
}

impl SnapshotHeader {
    /// The file's build id: its checksum rendered as 16 hex digits. Two
    /// snapshots of the same built oracle share a build id no matter when
    /// they were written; any payload difference changes it. Distinct per
    /// shard (each carries a different slice); use
    /// [`SnapshotHeader::set_build_id`] for the identity a whole set shares.
    pub fn build_id(&self) -> String {
        format!("{:016x}", self.checksum)
    }

    /// The slot this file fills: the shard fields it carries, or — a
    /// monolith being the whole of a 1-shard plan — slot 0 of 1 with its
    /// own payload checksum as the set id.
    pub fn slot(&self) -> ShardSlot {
        self.shard.unwrap_or(ShardSlot { index: 0, count: 1, set_id: self.checksum })
    }

    /// The parent artifact's build id as 16 hex digits — equal across all
    /// shards of one set, and equal to the monolithic snapshot's build id.
    pub fn set_build_id(&self) -> String {
        format!("{:016x}", self.slot().set_id)
    }

    /// The node range whose rows the payload holds: `0..n` for a monolith,
    /// the range the recomputed [`ShardPlan`] assigns for a shard.
    pub fn owned(&self) -> std::ops::Range<usize> {
        // n/count/index were validated at parse time, so the plan only
        // fails to rebuild for a monolith over n = 0 nodes, whose range
        // really is empty (and a shard's empty range would be rejected by
        // the downstream owned-range checks, which beats panicking).
        let slot = self.slot();
        ShardPlan::new(self.n, slot.count as usize)
            .map_or(0..0, |plan| plan.range(slot.index as usize))
    }
}

// The checksum's constants: three odd multipliers and the four lane seeds
// (`docs/SNAPSHOT_FORMAT.md` publishes them with the pseudocode).
const K1: u64 = 0x9E37_79B1_85EB_CA87;
const K2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const K3: u64 = 0x1656_67B1_9E37_79F9;
const LANES: [u64; 4] =
    [0x6A09_E667_F3BC_C908, 0xBB67_AE85_84CA_A73B, 0x3C6E_F372_FE94_F82B, 0xA54F_F53A_5F1D_36F1];

/// One hash step. For a fixed `word` it permutes `acc`, and for a fixed
/// `acc` it permutes `word` (xor, odd multiply and rotate are each
/// invertible), which is what the substitution guarantee rests on.
#[inline]
fn mix(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(K1).rotate_left(31)
}

/// The v3 checksum: a word-parallel 64-bit hash over little-endian `u64`
/// words. Four independent lanes each take one word of every 32-byte
/// stripe; the lanes are folded into one state; the up-to-31-byte tail
/// (whole words, then the last 1–7 bytes zero-extended) and the length are
/// folded in; an xor-shift/multiply avalanche finishes.
///
/// Tiny, dependency-free, safe, and an order of magnitude faster than a
/// byte-serial hash because the four multiply chains overlap. An integrity
/// check, not an authenticity one (snapshots come from trusted storage) —
/// but with FNV-1a's guarantee: a byte enters exactly one [`mix`] as part
/// of its word, and every later step permutes the running state, so two
/// inputs that differ in a single byte (indeed a single aligned word)
/// **never** share a checksum.
fn checksum64(bytes: &[u8]) -> u64 {
    let mut lanes = LANES;
    let (stripes, tail) = bytes.as_chunks::<32>();
    for stripe in stripes {
        for (lane, word) in lanes.iter_mut().zip(stripe.as_chunks::<8>().0) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    let [mut h, b, c, d] = lanes;
    for lane in [b, c, d] {
        h = mix(h, lane);
    }
    let (words, rest) = tail.as_chunks::<8>();
    for word in words {
        h = mix(h, u64::from_le_bytes(*word));
    }
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(last));
    }
    h = mix(h, bytes.len() as u64);
    h = (h ^ (h >> 32)).wrapping_mul(K2);
    h = (h ^ (h >> 29)).wrapping_mul(K3);
    h ^ (h >> 32)
}

/// The little-endian `u64`s of a section.
fn u64s(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.as_chunks::<8>().0.iter().map(|word| u64::from_le_bytes(*word))
}

/// The little-endian `u32`s of a section.
fn u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes.as_chunks::<4>().0.iter().map(|word| u32::from_le_bytes(*word))
}

/// A bounds-checked cursor: the header fields and the section boundaries
/// are all cut from the input through `take`, so no length a file claims
/// is ever trusted past the bytes present.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, len: usize) -> Result<&'a [u8], OracleError> {
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| corrupt(format!("truncated at byte {}", self.at)))?;
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }
    fn u32(&mut self) -> Result<u32, OracleError> {
        let bytes = self.take(4)?.try_into().map_err(|_| corrupt("short u32 read"))?;
        Ok(u32::from_le_bytes(bytes))
    }
    fn u64(&mut self) -> Result<u64, OracleError> {
        let bytes = self.take(8)?.try_into().map_err(|_| corrupt("short u64 read"))?;
        Ok(u64::from_le_bytes(bytes))
    }
    fn len(&mut self, what: &str, cap: usize) -> Result<usize, OracleError> {
        let raw = self.u64()?;
        // A length can never exceed the bytes remaining, which bounds
        // allocations from hostile input.
        if raw > cap as u64 {
            return Err(corrupt(format!("{what} length {raw} exceeds plausible {cap}")));
        }
        Ok(raw as usize)
    }
}

/// The one snapshot writer, returning the bytes and the checksum stored in
/// them: the fixed 80-byte fields (magic by kind), the shard fields of
/// `slot` (if any), then the sections of `slice` in format order — one
/// exact-capacity buffer, with the checksum over everything after the
/// fixed 80 patched in last.
fn encode(
    slice: &ArtifactSlice,
    slot: Option<ShardSlot>,
    created_unix_secs: u64,
) -> (Vec<u8>, u64) {
    let (p, s) = (slice.params(), slice.sections());
    let header_len = if slot.is_some() { SHARD_HEADER_LEN } else { HEADER_LEN };
    let payload_len = 8 * (s.columns.len() + s.nearest_landmark.len() + s.ball_dists.len())
        + 4 * (s.landmarks.len()
            + s.nearest_landmark.len()
            + s.ball_offsets.len()
            + s.ball_ids.len());
    let mut buf = Vec::with_capacity(header_len + payload_len);
    buf.extend_from_slice(if slot.is_some() { SHARD_MAGIC } else { SNAPSHOT_MAGIC });
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    let fixed = [
        p.n as u64,
        p.k as u64,
        p.epsilon.to_bits(),
        s.landmarks.len() as u64,
        p.seed,
        p.build_rounds,
        created_unix_secs,
        payload_len as u64,
        0, // the checksum, patched below
    ];
    buf.extend(fixed.into_iter().flat_map(u64::to_le_bytes));
    debug_assert_eq!(buf.len(), HEADER_LEN);
    if let Some(slot) = slot {
        buf.extend_from_slice(&slot.index.to_le_bytes());
        buf.extend_from_slice(&slot.count.to_le_bytes());
        buf.extend_from_slice(&slot.set_id.to_le_bytes());
    }
    buf.extend(s.columns.iter().flat_map(|x| x.to_le_bytes()));
    buf.extend(s.nearest_landmark.iter().flat_map(|(_, d)| d.to_le_bytes()));
    buf.extend(s.ball_dists.iter().flat_map(|x| x.to_le_bytes()));
    buf.extend(s.landmarks.iter().flat_map(|x| x.to_le_bytes()));
    buf.extend(s.nearest_landmark.iter().flat_map(|(idx, _)| idx.to_le_bytes()));
    buf.extend(s.ball_offsets.iter().flat_map(|x| x.to_le_bytes()));
    buf.extend(s.ball_ids.iter().flat_map(|x| x.to_le_bytes()));
    debug_assert_eq!(buf.len(), header_len + payload_len);
    let checksum = checksum64(&buf[HEADER_LEN..]);
    buf[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    (buf, checksum)
}

fn now_unix_secs() -> u64 {
    std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// The checksum [`to_bytes`] would store for `oracle`'s payload — i.e. the
/// artifact's build id ([`SnapshotHeader::build_id`]) as a number. Lets a
/// serving layer report a stable build id for an oracle that was built
/// in-process and never touched disk.
pub fn payload_checksum(oracle: &DistanceOracle) -> u64 {
    encode(oracle, None, 0).1
}

/// The checksum [`to_shard_bytes`] would store for `shard` (over its shard
/// fields and payload) — the shard file's build id as a number, for a
/// slice that was partitioned in-process and never touched disk.
pub fn shard_checksum(shard: &OracleShard) -> u64 {
    encode(shard, Some(shard.slot), 0).1
}

/// Serializes a built oracle into a self-contained, versioned byte snapshot
/// (format v3: header with build metadata + checksummed flat sections).
pub fn to_bytes(oracle: &DistanceOracle) -> Vec<u8> {
    to_bytes_created_at(oracle, now_unix_secs())
}

/// [`to_bytes`] with an explicit `created_unix_secs` header field, for
/// callers that need byte-for-byte reproducible snapshots (tests, content-
/// addressed artifact stores).
pub fn to_bytes_created_at(oracle: &DistanceOracle, created_unix_secs: u64) -> Vec<u8> {
    encode(oracle, None, created_unix_secs).0
}

/// Serializes one shard into a self-contained per-shard snapshot (magic
/// [`SHARD_MAGIC`], 96-byte header, checksummed shard fields + payload).
pub fn to_shard_bytes(shard: &OracleShard) -> Vec<u8> {
    to_shard_bytes_created_at(shard, now_unix_secs())
}

/// [`to_shard_bytes`] with an explicit `created_unix_secs` header field,
/// for byte-for-byte reproducible shard snapshots.
pub fn to_shard_bytes_created_at(shard: &OracleShard, created_unix_secs: u64) -> Vec<u8> {
    encode(shard, Some(shard.slot), created_unix_secs).0
}

/// The one header parser. `sharded` says which file kind the caller
/// expects, which fixes the magic and whether the 16 shard-field bytes
/// follow the fixed 80; the checksum always starts at byte 80.
fn parse_header(bytes: &[u8], sharded: bool) -> Result<SnapshotHeader, OracleError> {
    let mut r = Reader { bytes, at: 0 };
    let magic = r.take(4)?;
    if magic == LEGACY_MAGIC {
        return Err(OracleError::LegacySnapshot);
    }
    if sharded {
        if magic == SNAPSHOT_MAGIC {
            return Err(corrupt(
                "monolithic snapshot (CCOS) where a per-shard snapshot (CCSH) was expected",
            ));
        }
        if magic != SHARD_MAGIC {
            return Err(corrupt("bad magic (not a shard snapshot)"));
        }
    } else {
        if magic == SHARD_MAGIC {
            return Err(OracleError::ShardSnapshot);
        }
        if magic != SNAPSHOT_MAGIC {
            return Err(corrupt("bad magic (not an oracle snapshot)"));
        }
    }
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(OracleError::SnapshotVersionMismatch {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let header_len = if sharded { SHARD_HEADER_LEN } else { HEADER_LEN };
    let payload_cap = bytes.len().saturating_sub(header_len);
    let n = r.len("n", payload_cap)?;
    let k = r.len("k", payload_cap)?;
    let epsilon = f64::from_bits(r.u64()?);
    if check_epsilon(epsilon).is_err() {
        return Err(corrupt(format!("epsilon {epsilon} out of range")));
    }
    let landmarks = r.len("landmark count", payload_cap)?;
    let seed = r.u64()?;
    let build_rounds = r.u64()?;
    let created_unix_secs = r.u64()?;
    let payload_len = r.u64()?;
    let checksum = r.u64()?;
    debug_assert_eq!(r.at, HEADER_LEN);
    if payload_len != payload_cap as u64 {
        return Err(corrupt(format!(
            "header claims a {payload_len}-byte payload but {payload_cap} bytes follow"
        )));
    }
    // The checksum covers everything after itself (shard fields + payload),
    // so corruption in the shard index / count / set id is caught here, not
    // by downstream plan validation alone.
    let computed = checksum64(&bytes[HEADER_LEN..]);
    if computed != checksum {
        return Err(OracleError::SnapshotChecksumMismatch { stored: checksum, computed });
    }
    let shard = if sharded {
        let slot = ShardSlot { index: r.u32()?, count: r.u32()?, set_id: r.u64()? };
        // The plan is a pure function of (n, count); recompute and validate
        // it rather than trusting any serialized range.
        ShardPlan::new(n, slot.count as usize)
            .map_err(|e| corrupt(format!("impossible shard plan: {e}")))?;
        if slot.index >= slot.count {
            return Err(corrupt(format!("shard index {} outside 0..{}", slot.index, slot.count)));
        }
        Some(slot)
    } else {
        None
    };
    debug_assert_eq!(r.at, header_len);
    Ok(SnapshotHeader {
        n,
        k,
        epsilon,
        landmarks,
        seed,
        build_rounds,
        created_unix_secs,
        payload_len,
        checksum,
        shard,
    })
}

/// The one decoder: [`parse_header`] (which verifies the checksum), the
/// payload cut into sections, and the one constructor that validates them.
fn decode(bytes: &[u8], sharded: bool) -> Result<(SnapshotHeader, ArtifactSlice), OracleError> {
    let header = parse_header(bytes, sharded)?;
    let payload = &bytes[if sharded { SHARD_HEADER_LEN } else { HEADER_LEN }..];
    let sections = read_sections(payload, &header)?;
    let params = BuildParams {
        n: header.n,
        k: header.k,
        epsilon: header.epsilon,
        seed: header.seed,
        build_rounds: header.build_rounds,
    };
    let slice = ArtifactSlice::from_sections(params, header.owned(), sections)?;
    Ok((header, slice))
}

/// Cuts a v3 payload into its seven sections and copies each out whole.
/// The header sizes every section but the two per-ball-entry ones — `n·s`
/// columns, `m` = |[`SnapshotHeader::owned`]| rows (`n` for a monolithic
/// snapshot, the plan's range for a shard), `s` landmarks — so what they
/// leave of the payload must be `E` whole 12-byte entries. All of it is
/// checked against the bytes present before anything is allocated: `n` and
/// `s` are only individually bounded by the input length, so their product
/// can be quadratic in it.
fn read_sections(payload: &[u8], header: &SnapshotHeader) -> Result<Sections, OracleError> {
    let (n, s, rows) = (header.n, header.landmarks, header.owned().len());
    let sized = || {
        let cells = n.checked_mul(s)?;
        let sized = cells
            .checked_mul(8)?
            .checked_add(rows.checked_mul(16)?)?
            .checked_add(s.checked_mul(4)?)?
            .checked_add(4)?;
        Some((cells, payload.len().checked_sub(sized)?))
    };
    let Some((cells, ball_bytes)) = sized() else {
        return Err(corrupt(format!(
            "an {n} × {s} column matrix and {rows} rows need more than the {} payload bytes \
             present",
            payload.len()
        )));
    };
    if ball_bytes % 12 != 0 {
        return Err(corrupt(format!(
            "{ball_bytes} bytes left for ball entries is not a whole number of 12-byte entries"
        )));
    }
    let entries = ball_bytes / 12;
    let mut r = Reader { bytes: payload, at: 0 };
    let columns = Arc::new(u64s(r.take(cells * 8)?).collect());
    let nearest_dists = r.take(rows * 8)?;
    let ball_dists = u64s(r.take(entries * 8)?).collect();
    let landmarks = u32s(r.take(s * 4)?).collect();
    let nearest_indices = r.take(rows * 4)?;
    let ball_offsets = u32s(r.take((rows + 1) * 4)?).collect();
    let ball_ids = u32s(r.take(entries * 4)?).collect();
    debug_assert_eq!(r.at, payload.len());
    let nearest_landmark = u32s(nearest_indices).zip(u64s(nearest_dists)).collect();
    Ok(Sections { columns, nearest_landmark, ball_dists, landmarks, ball_offsets, ball_ids })
}

/// Reconstructs an oracle from a [`to_bytes`] snapshot, validating the
/// header (magic, version, checksum) and the payload structure (index
/// bounds, sorted balls, sentinel rules, exact length).
///
/// # Errors
///
/// * [`OracleError::LegacySnapshot`] for removed v1 bytes.
/// * [`OracleError::ShardSnapshot`] for a per-shard snapshot (use
///   [`from_shard_bytes`]).
/// * [`OracleError::SnapshotVersionMismatch`] for a versioned snapshot
///   from a different format generation.
/// * [`OracleError::SnapshotChecksumMismatch`] when the payload does not
///   hash to the header's checksum.
/// * [`OracleError::CorruptSnapshot`] for bad magic, truncation,
///   implausible header fields, or structural payload damage.
pub fn from_bytes(bytes: &[u8]) -> Result<DistanceOracle, OracleError> {
    Ok(from_bytes_with_header(bytes)?.1)
}

/// [`from_bytes`] that also returns the validated [`SnapshotHeader`], so a
/// serving layer can report the loaded artifact's version / build id /
/// creation time without re-parsing.
///
/// # Errors
///
/// Same as [`from_bytes`].
pub fn from_bytes_with_header(
    bytes: &[u8],
) -> Result<(SnapshotHeader, DistanceOracle), OracleError> {
    let (header, slice) = decode(bytes, false)?;
    Ok((header, DistanceOracle(slice)))
}

/// Reconstructs one shard from a [`to_shard_bytes`] snapshot, validating
/// the header and the payload structure (index bounds, sorted balls,
/// sentinel rules, the owned-range size implied by the recomputed
/// [`ShardPlan`], exact length).
///
/// # Errors
///
/// * [`OracleError::LegacySnapshot`] for removed v1 bytes.
/// * [`OracleError::SnapshotVersionMismatch`] /
///   [`OracleError::SnapshotChecksumMismatch`] as for [`from_bytes`].
/// * [`OracleError::CorruptSnapshot`] for monolithic (`CCOS`) bytes, bad
///   magic, truncation, an impossible shard plan (`count == 0`,
///   `count > n`, `index >= count`), implausible header fields, or
///   structural payload damage.
pub fn from_shard_bytes(bytes: &[u8]) -> Result<OracleShard, OracleError> {
    Ok(from_shard_bytes_with_header(bytes)?.1)
}

/// [`from_shard_bytes`] that also returns the validated
/// [`SnapshotHeader`], so a serving layer can report the loaded shard's
/// identity without re-parsing.
///
/// # Errors
///
/// Same as [`from_shard_bytes`].
pub fn from_shard_bytes_with_header(
    bytes: &[u8],
) -> Result<(SnapshotHeader, OracleShard), OracleError> {
    let (header, slice) = decode(bytes, true)?;
    let slot = header.slot();
    Ok((header, OracleShard { slice, slot }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OracleBuilder;
    use cc_clique::Clique;
    use cc_graph::generators;

    fn sample() -> DistanceOracle {
        let g = generators::gnp_weighted(40, 0.12, 30, 21).unwrap();
        let mut clique = Clique::new(40);
        OracleBuilder::new().epsilon(0.5).seed(5).build(&mut clique, &g).unwrap()
    }

    #[test]
    fn round_trip_is_identity() {
        let oracle = sample();
        let bytes = to_bytes(&oracle);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(oracle, back);
        // And the reloaded oracle answers identically.
        for u in (0..40).step_by(3) {
            for v in (0..40).step_by(5) {
                assert_eq!(oracle.try_query(u, v).unwrap(), back.try_query(u, v).unwrap());
            }
        }
    }

    #[test]
    fn header_describes_the_artifact_and_survives_the_trip() {
        let oracle = sample();
        let bytes = to_bytes_created_at(&oracle, 1_753_000_000);
        let (header, back) = from_bytes_with_header(&bytes).unwrap();
        assert_eq!(back, oracle);
        assert_eq!(header.n, oracle.n());
        assert_eq!(header.k, oracle.k());
        assert_eq!(header.epsilon, oracle.epsilon());
        assert_eq!(header.landmarks, oracle.landmarks().len());
        assert_eq!(header.seed, oracle.seed());
        assert_eq!(header.build_rounds, oracle.build_rounds());
        assert_eq!(header.created_unix_secs, 1_753_000_000);
        assert_eq!(header.payload_len as usize, bytes.len() - HEADER_LEN);
        // The build id is the checksum and ignores the write timestamp.
        assert_eq!(header.build_id(), format!("{:016x}", header.checksum));
        assert_eq!(header.checksum, payload_checksum(&oracle));
        let later = from_bytes_with_header(&to_bytes_created_at(&oracle, 1_999_999_999)).unwrap().0;
        assert_eq!(later.build_id(), header.build_id());
        assert_eq!(format!("{:016x}", payload_checksum(&oracle)), header.build_id());
        // A monolith is slot 0 of a 1-shard plan whose set id is its own.
        assert_eq!(header.shard, None);
        assert_eq!(header.slot(), ShardSlot { index: 0, count: 1, set_id: header.checksum });
        assert_eq!(header.owned(), 0..oracle.n());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let oracle = sample();
        let mut bytes = to_bytes(&oracle);
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(OracleError::CorruptSnapshot { .. })));
        let mut bytes = to_bytes(&oracle);
        bytes[4] = 99;
        assert!(matches!(
            from_bytes(&bytes),
            Err(OracleError::SnapshotVersionMismatch { found: 99, supported: SNAPSHOT_VERSION })
        ));
    }

    #[test]
    fn any_payload_corruption_fails_the_checksum() {
        let oracle = sample();
        let clean = to_bytes(&oracle);
        // Flip one bit at several payload offsets, including ones (like a
        // stored distance value) that would keep the structure valid: the
        // checksum must catch every single one.
        for at in [HEADER_LEN, HEADER_LEN + 13, clean.len() / 2, clean.len() - 1] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x10;
            assert!(
                matches!(from_bytes(&bytes), Err(OracleError::SnapshotChecksumMismatch { .. })),
                "payload flip at byte {at} must fail the checksum"
            );
        }
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let bytes = to_bytes(&sample());
        for cut in [0, 3, 7, 16, HEADER_LEN - 1, HEADER_LEN, bytes.len() / 2, bytes.len() - 1] {
            assert!(from_bytes(&bytes[..cut]).is_err(), "truncation at {cut} must be rejected");
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&sample());
        bytes.push(0);
        assert!(from_bytes(&bytes).is_err());
    }

    #[test]
    fn rejects_out_of_range_indices_behind_a_recomputed_checksum() {
        let oracle = sample();
        let mut bytes = to_bytes(&oracle);
        // Corrupt the first landmark id (the first u32 after the three u64
        // sections), then recompute the checksum so only the structural
        // validation can catch it.
        let s = oracle.sections();
        let at = HEADER_LEN + 8 * (s.columns.len() + s.nearest_landmark.len() + s.ball_dists.len());
        bytes[at..at + 4].copy_from_slice(&(oracle.n() as u32 + 7).to_le_bytes());
        let sum = checksum64(&bytes[HEADER_LEN..]);
        bytes[72..80].copy_from_slice(&sum.to_le_bytes());
        let err = from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("landmark id"), "{err}");
    }

    /// Hand-built v1 bytes (the writer was removed with the reader): magic
    /// `CCO1`, version 1, the legacy scalar block, then a payload prefix.
    /// Truncated or not, structurally valid or not — v1 is rejected by
    /// magic alone, so the rest of the bytes never matters.
    fn crafted_legacy_bytes() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"CCO1");
        bytes.extend_from_slice(&1u32.to_le_bytes());
        for scalar in [3u64, 1, 7, 0, 0.5f64.to_bits(), 1] {
            bytes.extend_from_slice(&scalar.to_le_bytes());
        }
        bytes.extend_from_slice(&[0u8; 32]);
        bytes
    }

    #[test]
    fn legacy_v1_bytes_are_rejected_never_parsed() {
        let legacy = crafted_legacy_bytes();
        assert!(matches!(from_bytes(&legacy), Err(OracleError::LegacySnapshot)));
        // The shard reader names the same problem rather than misreading.
        assert!(matches!(from_shard_bytes(&legacy), Err(OracleError::LegacySnapshot)));
        // Even a bare magic prefix is identified as legacy, not "truncated".
        assert!(matches!(from_bytes(&legacy[..4]), Err(OracleError::LegacySnapshot)));
    }

    fn sample_shards(count: usize) -> Vec<OracleShard> {
        crate::ShardedArtifact::partition(&sample(), count).unwrap().into_shards()
    }

    #[test]
    fn shard_snapshots_round_trip_with_their_identity() {
        let shards = sample_shards(3);
        for shard in &shards {
            let bytes = to_shard_bytes_created_at(shard, 1_753_000_000);
            let (header, back) = from_shard_bytes_with_header(&bytes).unwrap();
            assert_eq!(&back, shard);
            assert_eq!(header.n, shard.n());
            assert_eq!(header.k, shard.k());
            assert_eq!(header.epsilon, shard.epsilon());
            assert_eq!(header.landmarks, shard.landmarks().len());
            let slot = header.shard.expect("a CCSH header carries its shard fields");
            assert_eq!(slot.index as usize, shard.index());
            assert_eq!(slot.count as usize, shard.count());
            assert_eq!(slot.set_id, shard.set_id());
            assert_eq!(header.checksum, shard_checksum(shard));
            assert_eq!(header.created_unix_secs, 1_753_000_000);
            assert_eq!(header.owned(), shard.owned());
            assert_eq!(header.payload_len as usize, bytes.len() - SHARD_HEADER_LEN);
        }
        // Shard build ids are distinct per slice; the set id is shared and
        // equals the monolithic build id; the timestamp changes neither.
        let header_at = |shard, secs| {
            from_shard_bytes_with_header(&to_shard_bytes_created_at(shard, secs)).unwrap().0
        };
        let ids: Vec<String> = shards.iter().map(|s| header_at(s, 1).build_id()).collect();
        assert_eq!(ids.len(), 3);
        assert_ne!(ids[0], ids[1]);
        let later = header_at(&shards[0], 99);
        assert_eq!(later.build_id(), ids[0]);
        assert_eq!(later.set_build_id(), format!("{:016x}", payload_checksum(&sample())));
    }

    #[test]
    fn shard_and_monolithic_readers_refuse_each_other() {
        let mono = to_bytes(&sample());
        let shard = to_shard_bytes(&sample_shards(2)[0]);
        assert!(matches!(from_bytes(&shard), Err(OracleError::ShardSnapshot)));
        let err = from_shard_bytes(&mono).unwrap_err();
        assert!(err.to_string().contains("monolithic"), "error must say why: {err}");
    }

    #[test]
    fn shard_checksum_covers_index_count_and_set_id() {
        let clean = to_shard_bytes(&sample_shards(2)[1]);
        // Flip one bit in each shard-specific header field (index at 80,
        // count at 84, set id at 88): the checksum must catch every one —
        // a forged shard index can never parse cleanly.
        for at in [80, 84, 88, 95] {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x04;
            assert!(
                matches!(
                    from_shard_bytes(&bytes),
                    Err(OracleError::SnapshotChecksumMismatch { .. })
                ),
                "shard-field flip at byte {at} must fail the checksum"
            );
        }
    }

    #[test]
    fn shard_truncation_extension_and_bad_version_are_rejected() {
        let bytes = to_shard_bytes(&sample_shards(2)[0]);
        for cut in [0, 3, 7, 16, SHARD_HEADER_LEN - 1, SHARD_HEADER_LEN, bytes.len() - 1] {
            assert!(
                from_shard_bytes(&bytes[..cut]).is_err(),
                "shard truncation at {cut} must be rejected"
            );
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(from_shard_bytes(&extended).is_err());
        let mut wrong_version = bytes;
        wrong_version[4] = 99;
        assert!(matches!(
            from_shard_bytes(&wrong_version),
            Err(OracleError::SnapshotVersionMismatch { found: 99, .. })
        ));
    }

    #[test]
    fn shard_plan_impossibilities_are_rejected_behind_a_recomputed_checksum() {
        let shard = &sample_shards(2)[0];
        // Forge shard_count = n + 1 (an impossible plan) and recompute the
        // checksum so only the plan validation can catch it.
        let mut bytes = to_shard_bytes(shard);
        let bogus_count = shard.n() as u32 + 1;
        bytes[84..88].copy_from_slice(&bogus_count.to_le_bytes());
        let sum = checksum64(&bytes[80..]);
        bytes[72..80].copy_from_slice(&sum.to_le_bytes());
        let err = from_shard_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("impossible shard plan"), "{err}");

        // Forge a *valid but different* count: the owned-range size no
        // longer matches the payload's row count — structural rejection.
        let mut bytes = to_shard_bytes(shard);
        bytes[84..88].copy_from_slice(&5u32.to_le_bytes());
        let sum = checksum64(&bytes[80..]);
        bytes[72..80].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(from_shard_bytes(&bytes), Err(OracleError::CorruptSnapshot { .. })));
    }

    /// The three vectors `docs/SNAPSHOT_FORMAT.md` publishes.
    #[test]
    fn checksum_matches_its_published_vectors() {
        assert_eq!(checksum64(b""), 0x6de9_4a62_554e_18b3);
        assert_eq!(checksum64(b"abc"), 0xd3e6_3ec3_ba6f_4475);
        let kib: Vec<u8> =
            (0..1024u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8).collect();
        assert_eq!(checksum64(&kib), 0x5ad5_a4b6_55c8_8dd1);
    }

    #[test]
    fn checksum_separates_every_length_from_its_prefix() {
        // 0..=97 crosses every stripe and tail boundary three times over
        // (32, 64, 96; every word and partial-word tail in between).
        let bytes: Vec<u8> = (0..97u32).map(|i| (i * 37 + 11) as u8).collect();
        let sums: Vec<u64> = (0..=97).map(|len| checksum64(&bytes[..len])).collect();
        for len in 1..=97 {
            assert_ne!(sums[len], sums[len - 1], "length {len} collides with its prefix");
        }
        // Zero bytes are not absorbed by the zero-extended tail either.
        let zeros = [0u8; 97];
        for len in 1..=97 {
            assert_ne!(checksum64(&zeros[..len]), checksum64(&zeros[..len - 1]), "{len} zeros");
        }
    }

    #[test]
    fn every_single_byte_substitution_changes_the_checksum() {
        // The guarantee, exhaustively, on a real (small) snapshot: every
        // byte position × three substitutions (a low bit, the high bit,
        // all bits).
        let g = generators::gnp_weighted(12, 0.3, 30, 4).unwrap();
        let mut clique = Clique::new(12);
        let small = OracleBuilder::new().build(&mut clique, &g).unwrap();
        let mut bytes = to_bytes(&small).split_off(HEADER_LEN);
        let clean = checksum64(&bytes);
        for at in 0..bytes.len() {
            for flip in [0x01, 0x80, 0xFF] {
                bytes[at] ^= flip;
                assert_ne!(checksum64(&bytes), clean, "byte {at} ^ {flip:#04x} undetected");
                bytes[at] ^= flip;
            }
        }
    }

    #[test]
    fn a_snapshot_is_its_header_plus_its_seven_sections_and_nothing_else() {
        // No length words, no padding: v2 spent 8 bytes per row on a ball
        // length where v3 spends 4 on an offset, plus 4.
        let oracle = sample();
        let s = oracle.sections();
        let want = HEADER_LEN
            + 8 * (s.columns.len() + s.nearest_landmark.len() + s.ball_dists.len())
            + 4 * (s.landmarks.len() + s.nearest_landmark.len() + s.ball_ids.len())
            + 4 * (oracle.n() + 1);
        assert_eq!(to_bytes(&oracle).len(), want);
    }
}
