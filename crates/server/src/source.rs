//! Where a served backend comes from: a [`BackendSpec`] — a **manifest
//! file** (`--manifest set.toml`) naming the mode, artifact files,
//! expected set id, and cache capacity — plus the lower-level snapshot
//! loaders and an in-process demo build in the simulated clique.
//!
//! [`BackendSpec::load`] is the single artifact-loading entry point: it
//! resolves to a [`LoadedBackend`] — a [`Backend`] plus the identities it
//! reports — and a shard set passes one gate on the way
//! ([`load_shard_set`]).

use std::error::Error;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cc_clique::Clique;
use cc_graph::{generators, Graph};
use cc_oracle::serde::{self, SnapshotHeader};
use cc_oracle::shard::ShardRouter;
use cc_oracle::{
    Backend, DirectBuilder, DistanceOracle, OracleBuilder, OracleError, ShardedArtifact,
};

use crate::reload::SnapshotInfo;

/// One snapshot file loaded from disk — a monolithic snapshot
/// (`A = DistanceOracle`) or one shard of a set (`A =
/// cc_oracle::OracleShard`) — with the header the loader verified and the
/// identity it reports.
#[derive(Debug)]
pub struct LoadedSlice<A> {
    /// The validated artifact.
    pub artifact: A,
    /// The verified file header; [`SnapshotHeader::slot`] carries the set
    /// id a manifest pin is compared against.
    pub header: SnapshotHeader,
    /// Where it came from and what it is, for `/stats` and `/artifact`.
    pub info: SnapshotInfo,
}

/// Loads one **versioned** [`cc_oracle::serde`] snapshot file through
/// `decode` — [`serde::from_bytes_with_header`] for a monolithic snapshot,
/// [`serde::from_shard_bytes_with_header`] for a per-shard one — which
/// validates magic, version, checksum and structure. Pre-versioning (v1)
/// bytes and the other kind of snapshot are rejected with their dedicated
/// errors ([`cc_oracle::OracleError::LegacySnapshot`],
/// [`cc_oracle::OracleError::ShardSnapshot`]).
///
/// # Errors
///
/// I/O errors reading the file and every validation error of `decode`.
pub fn load_slice<A>(
    path: &Path,
    decode: impl Fn(&[u8]) -> Result<(SnapshotHeader, A), OracleError>,
) -> Result<LoadedSlice<A>, Box<dyn Error>> {
    let bytes = std::fs::read(path)?;
    let (header, artifact) = decode(&bytes)?;
    let info = SnapshotInfo::from_header(&header, path.display().to_string());
    Ok(LoadedSlice { artifact, header, info })
}

/// Loads a complete shard set — `paths[i]` must hold shard `i` — through
/// the one set gate, [`ShardRouter::assemble_shared`]: every slice in its
/// slot and owning the range the recomputed
/// [`cc_oracle::shard::ShardPlan`] assigns, with matching shard count,
/// `n`, `k`, `ε`, landmarks, and set id. Returns the router and each
/// slice's per-file identity, in slot order.
///
/// Every file carries the column matrix; each decoded copy is dropped for
/// an equal one already loaded ([`cc_oracle::OracleShard::share_columns`]),
/// so a set from one build holds one matrix, and the next decode reuses
/// the freed copy's memory.
///
/// # Errors
///
/// The first per-file failure (I/O, corruption, a monolithic snapshot), or
/// the set's rejection — each prefixed with the slot and path of the file
/// to fix.
pub fn load_shard_set(
    paths: &[PathBuf],
) -> Result<(ShardRouter, Vec<SnapshotInfo>), Box<dyn Error>> {
    if paths.is_empty() {
        return Err("router mode needs at least one shard snapshot".into());
    }
    let named =
        |i: usize, e: &dyn std::fmt::Display| format!("shard {i} ({}): {e}", paths[i].display());
    let (mut shards, mut infos) =
        (Vec::with_capacity(paths.len()), Vec::with_capacity(paths.len()));
    for (i, path) in paths.iter().enumerate() {
        let mut loaded =
            load_slice(path, serde::from_shard_bytes_with_header).map_err(|e| named(i, &e))?;
        loaded.artifact.share_columns(&shards);
        shards.push(Arc::new(loaded.artifact));
        infos.push(loaded.info);
    }
    let router =
        ShardRouter::assemble_shared(shards).map_err(|fault| named(fault.slot, &fault.error))?;
    Ok((router, infos))
}

/// Replaces the file at `path` with `bytes` **atomically**: the bytes go to
/// a sibling temporary file in the same directory, which is then renamed
/// over `path`. A reader — a `POST /reload` or SIGHUP racing the rewrite —
/// sees the old file or the new one, never a torn one, and a crash
/// mid-write leaves the old file in place. No `fsync`: durability across
/// power loss is the operator's call, atomicity is ours.
fn write_atomically(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    static SEQUENCE: AtomicU64 = AtomicU64::new(0);
    let mut name = std::ffi::OsString::from(".");
    name.push(path.file_name().unwrap_or_default());
    // Unique per process and per call, so concurrent writers never share a
    // temporary file.
    let unique = SEQUENCE.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}.{unique}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    std::fs::write(&tmp, bytes).and_then(|()| std::fs::rename(&tmp, path)).inspect_err(|_| {
        // Best effort: the write error is the one worth reporting.
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Writes `oracle` to `path` as a snapshot file, atomically (temporary
/// file + rename): a concurrent reload of `path` never reads a partial
/// snapshot.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_snapshot(oracle: &DistanceOracle, path: &Path) -> std::io::Result<()> {
    write_atomically(path, &serde::to_bytes(oracle))
}

/// Partitions `oracle` into `count` shards and writes one snapshot per
/// shard into `dir` as `shard-<i>.snap`, returning the paths in index
/// order (ready to list under `shards = [...]` in a manifest). Each file is
/// replaced atomically, like [`write_snapshot`]'s.
///
/// # Errors
///
/// Partitioning errors (impossible plan) and I/O errors.
pub fn write_shard_snapshots(
    oracle: &DistanceOracle,
    count: usize,
    dir: &Path,
) -> Result<Vec<PathBuf>, Box<dyn Error>> {
    let sharded = ShardedArtifact::partition(oracle, count)?;
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(count);
    for shard in sharded.shards() {
        let path = dir.join(format!("shard-{}.snap", shard.index()));
        write_atomically(&path, &serde::to_shard_bytes(shard))?;
        paths.push(path);
    }
    Ok(paths)
}

/// A fully loaded, validated serving backend, ready to be wrapped in a
/// [`crate::Generation`]: the [`Backend`] itself, its identity for
/// `/stats` / `/artifact`, and — for a router — each slice's per-file
/// identity.
#[derive(Debug)]
pub struct LoadedBackend {
    /// The serving backend: a monolithic oracle or a shard router.
    pub backend: Backend,
    /// Identity of the artifact as a whole (the snapshot for a monolith,
    /// the set id for a shard set).
    pub info: SnapshotInfo,
    /// Per-slice snapshot identities, parallel to [`Backend::shards`];
    /// empty for a monolith.
    pub shard_infos: Vec<SnapshotInfo>,
}

impl LoadedBackend {
    /// A monolithic backend from a loaded snapshot.
    pub fn mono(oracle: DistanceOracle, info: SnapshotInfo) -> LoadedBackend {
        LoadedBackend { backend: Backend::Mono(oracle), info, shard_infos: Vec::new() }
    }

    /// A router backend, given each slice's per-file identity in slot
    /// order. The set as a whole is reported under `source` by its shared
    /// set id, or as `"mixed"` while a rolling rollout is in flight.
    pub fn router(
        router: ShardRouter,
        shard_infos: Vec<SnapshotInfo>,
        source: impl Into<String>,
    ) -> LoadedBackend {
        let mut info = SnapshotInfo::in_process(router.shards()[0].set_id(), source);
        if !router.set_uniform() {
            info.build_id = "mixed".to_owned();
        }
        LoadedBackend { backend: Backend::Router(router), info, shard_infos }
    }

    /// Number of nodes the backend covers.
    pub fn n(&self) -> usize {
        self.backend.n()
    }
}

/// An oracle built in this process and never snapshotted: a monolithic
/// backend whose identity is the build id the codec would store.
impl From<DistanceOracle> for LoadedBackend {
    fn from(oracle: DistanceOracle) -> LoadedBackend {
        let info = SnapshotInfo::in_process(serde::payload_checksum(&oracle), "in-process");
        LoadedBackend::mono(oracle, info)
    }
}

/// What `BackendSpec` points at: one snapshot file, or an ordered shard
/// file set.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SpecKind {
    Mono { path: PathBuf },
    Sharded { paths: Vec<PathBuf> },
}

/// A declarative description of the artifact a server should serve — the
/// **manifest-driven artifact API**. A spec names the mode (monolithic
/// snapshot or shard set), the file(s), an optional expected set id that
/// gates startup, and an optional result-cache capacity.
///
/// The preferred way to build one is [`BackendSpec::from_manifest`], from
/// a TOML-ish manifest file:
///
/// ```text
/// # set.toml — a 2-shard artifact set
/// mode = "sharded"
/// shards = [
///     "shard-0.snap",
///     "shard-1.snap",
/// ]
/// set_id = "29ec16e4f49bca34"   # refuse to serve any other build
/// cache_capacity = 8192
/// ```
///
/// ```text
/// # mono.toml — a monolithic snapshot
/// mode = "mono"
/// snapshot = "oracle.snap"
/// ```
///
/// Relative paths are resolved against the manifest's directory. Code
/// that already holds the file paths (tests, benches) can construct the
/// equivalent spec directly through [`BackendSpec::mono`] /
/// [`BackendSpec::sharded`], without a set-id gate.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSpec {
    kind: SpecKind,
    /// When set, [`BackendSpec::load`] refuses an artifact whose set id
    /// (shard set) or build id (monolith) differs — the rollout gate that
    /// makes "the files on disk are the build I meant" checkable.
    pub expected_set_id: Option<u64>,
    /// Result-cache capacity for the generation serving this artifact;
    /// `None` defers to the server default, `Some(0)` disables caching.
    pub cache_capacity: Option<usize>,
    /// The manifest file this spec was parsed from, if any.
    manifest: Option<PathBuf>,
}

impl BackendSpec {
    /// A spec for one monolithic snapshot file.
    pub fn mono(path: impl Into<PathBuf>) -> BackendSpec {
        BackendSpec {
            kind: SpecKind::Mono { path: path.into() },
            expected_set_id: None,
            cache_capacity: None,
            manifest: None,
        }
    }

    /// A spec for an ordered shard file set: slot `i` is `paths[i]`.
    pub fn sharded(paths: Vec<PathBuf>) -> BackendSpec {
        BackendSpec {
            kind: SpecKind::Sharded { paths },
            expected_set_id: None,
            cache_capacity: None,
            manifest: None,
        }
    }

    /// Reads and parses a manifest file; see [`BackendSpec`] for the
    /// format. Relative artifact paths are resolved against the manifest's
    /// directory.
    ///
    /// # Errors
    ///
    /// I/O errors reading the file and every parse rejection (unknown or
    /// duplicate key, missing mode, bad set id, duplicate shard path, …),
    /// each prefixed with the manifest path.
    pub fn from_manifest(path: &Path) -> Result<BackendSpec, Box<dyn Error>> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("manifest {}: {e}", path.display()))?;
        let base = path.parent().unwrap_or(Path::new("."));
        let mut spec = Self::parse_manifest(&text, base)
            .map_err(|e| format!("manifest {}: {e}", path.display()))?;
        spec.manifest = Some(path.to_path_buf());
        Ok(spec)
    }

    /// Parses manifest `text`, resolving relative paths against `base`.
    /// Exposed for tests; prefer [`BackendSpec::from_manifest`].
    ///
    /// # Errors
    ///
    /// A human-readable description of the first rejected line.
    pub fn parse_manifest(text: &str, base: &Path) -> Result<BackendSpec, String> {
        let mut mode: Option<String> = None;
        let mut snapshot: Option<PathBuf> = None;
        let mut shards: Option<Vec<PathBuf>> = None;
        let mut set_id: Option<u64> = None;
        let mut cache_capacity: Option<usize> = None;

        for (lineno, line) in logical_lines(text) {
            let reject = |what: String| format!("line {lineno}: {what}");
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| reject(format!("expected 'key = value', got '{line}'")))?;
            let (key, value) = (key.trim(), value.trim());
            let dup = |what: &str| reject(format!("duplicate key '{what}'"));
            match key {
                "mode" => {
                    if mode.is_some() {
                        return Err(dup("mode"));
                    }
                    let value = parse_string(value).map_err(&reject)?;
                    if value != "mono" && value != "sharded" {
                        return Err(reject(format!(
                            "mode must be \"mono\" or \"sharded\", got \"{value}\""
                        )));
                    }
                    mode = Some(value);
                }
                "snapshot" => {
                    if snapshot.is_some() {
                        return Err(dup("snapshot"));
                    }
                    snapshot = Some(base.join(parse_string(value).map_err(&reject)?));
                }
                "shards" => {
                    if shards.is_some() {
                        return Err(dup("shards"));
                    }
                    let entries = parse_string_array(value).map_err(&reject)?;
                    if entries.is_empty() {
                        return Err(reject("shards must name at least one file".to_owned()));
                    }
                    for (i, a) in entries.iter().enumerate() {
                        if let Some(j) = entries[..i].iter().position(|b| b == a) {
                            return Err(reject(format!(
                                "shards[{i}] duplicates shards[{j}] (\"{a}\"): every slot \
                                 needs its own shard file"
                            )));
                        }
                    }
                    shards = Some(entries.into_iter().map(|p| base.join(p)).collect());
                }
                "set_id" => {
                    if set_id.is_some() {
                        return Err(dup("set_id"));
                    }
                    let raw = parse_string(value).map_err(&reject)?;
                    if raw.len() != 16 || !raw.chars().all(|c| c.is_ascii_hexdigit()) {
                        return Err(reject(format!(
                            "set_id must be 16 hex digits (a build id as printed by \
                             /stats), got \"{raw}\""
                        )));
                    }
                    set_id =
                        Some(u64::from_str_radix(&raw, 16).map_err(|e| reject(e.to_string()))?);
                }
                "cache_capacity" => {
                    if cache_capacity.is_some() {
                        return Err(dup("cache_capacity"));
                    }
                    cache_capacity = Some(value.parse().map_err(|_| {
                        reject(format!("cache_capacity must be an integer, got '{value}'"))
                    })?);
                }
                other => {
                    return Err(reject(format!(
                        "unknown key '{other}' (expected mode, snapshot, shards, set_id, \
                         or cache_capacity)"
                    )))
                }
            }
        }

        let mode = mode.ok_or("missing 'mode = \"mono\" | \"sharded\"'")?;
        let kind = match mode.as_str() {
            "mono" => {
                if shards.is_some() {
                    return Err("mode \"mono\" takes 'snapshot', not 'shards'".to_owned());
                }
                SpecKind::Mono { path: snapshot.ok_or("mode \"mono\" needs 'snapshot = ...'")? }
            }
            _ => {
                if snapshot.is_some() {
                    return Err("mode \"sharded\" takes 'shards', not 'snapshot'".to_owned());
                }
                SpecKind::Sharded {
                    paths: shards.ok_or("mode \"sharded\" needs 'shards = [...]'")?,
                }
            }
        };
        Ok(BackendSpec { kind, expected_set_id: set_id, cache_capacity, manifest: None })
    }

    /// The manifest file this spec was parsed from, if any.
    pub fn manifest_path(&self) -> Option<&Path> {
        self.manifest.as_deref()
    }

    /// The snapshot file, when the spec is monolithic.
    pub fn mono_path(&self) -> Option<&Path> {
        match &self.kind {
            SpecKind::Mono { path } => Some(path),
            SpecKind::Sharded { .. } => None,
        }
    }

    /// One line naming what this spec serves, for logs.
    pub fn describe(&self) -> String {
        let files = match &self.kind {
            SpecKind::Mono { path } => path.display().to_string(),
            SpecKind::Sharded { paths } => format!("{}-shard set", paths.len()),
        };
        match &self.manifest {
            Some(m) => format!("{files} (manifest {})", m.display()),
            None => files,
        }
    }

    /// Loads, validates, and type-erases the artifact this spec names: the
    /// single loading entry point for startup *and* full reloads.
    ///
    /// # Errors
    ///
    /// Per-file I/O and snapshot-validation errors (each naming the file),
    /// shard-set consistency errors, and — when the spec pins
    /// `expected_set_id` — an identity mismatch naming both the offending
    /// file and the two ids.
    pub fn load(&self) -> Result<LoadedBackend, Box<dyn Error>> {
        // The pin — the one place it is checked, for startup, manifest
        // and explicit-path reloads alike — is compared against the set id
        // of a header the loader just verified (for a monolith: its own
        // payload checksum), so no artifact is re-serialized to learn its
        // identity.
        let pinned = |got: u64, what: &str, path: &Path, has: &str| match self.expected_set_id {
            Some(want) if want != got => Err(format!(
                "{what} {} {has} {got:016x}, not the pinned set_id: the manifest expects \
                     set_id {want:016x}",
                path.display()
            )),
            _ => Ok(()),
        };
        match &self.kind {
            SpecKind::Mono { path } => {
                let loaded = load_slice(path, serde::from_bytes_with_header)?;
                pinned(loaded.header.slot().set_id, "snapshot", path, "has build id")?;
                Ok(LoadedBackend::mono(loaded.artifact, loaded.info))
            }
            SpecKind::Sharded { paths } => {
                let (router, shard_infos) = load_shard_set(paths)?;
                pinned(router.shards()[0].set_id(), "shard set", &paths[0], "declares set id")?;
                Ok(LoadedBackend::router(router, shard_infos, self.describe()))
            }
        }
    }
}

/// Splits manifest text into `(line number, logical line)` pairs: strips
/// `#` comments (outside quotes) and blank lines, and joins a multi-line
/// `[...]` array onto the line that opened it.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut lines = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (i, raw) in text.lines().enumerate() {
        let stripped = strip_comment(raw);
        let trimmed = stripped.trim();
        if trimmed.is_empty() {
            continue;
        }
        match pending.take() {
            Some((start, mut acc)) => {
                acc.push(' ');
                acc.push_str(trimmed);
                if bracket_open(&acc) {
                    pending = Some((start, acc));
                } else {
                    lines.push((start, acc));
                }
            }
            None => {
                if bracket_open(trimmed) {
                    pending = Some((i + 1, trimmed.to_owned()));
                } else {
                    lines.push((i + 1, trimmed.to_owned()));
                }
            }
        }
    }
    if let Some(unclosed) = pending {
        lines.push(unclosed);
    }
    lines
}

/// True while a `[` array opened on this logical line is still unclosed.
fn bracket_open(line: &str) -> bool {
    let mut in_string = false;
    let mut depth = 0i32;
    for c in line.chars() {
        match c {
            '"' => in_string = !in_string,
            '[' if !in_string => depth += 1,
            ']' if !in_string => depth -= 1,
            _ => {}
        }
    }
    depth > 0
}

/// Removes a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> String {
    let mut in_string = false;
    let mut out = String::with_capacity(line.len());
    for c in line.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                out.push(c);
            }
            '#' if !in_string => break,
            _ => out.push(c),
        }
    }
    out
}

/// Parses a double-quoted string value.
fn parse_string(value: &str) -> Result<String, String> {
    let inner = value
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
        .ok_or_else(|| format!("expected a double-quoted string, got '{value}'"))?;
    if inner.contains('"') {
        return Err(format!("unexpected inner quote in '{value}'"));
    }
    Ok(inner.to_owned())
}

/// Parses a `["a", "b", ...]` array of strings (trailing comma allowed).
fn parse_string_array(value: &str) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|rest| rest.strip_suffix(']'))
        .ok_or_else(|| format!("expected a [\"...\"] array, got '{value}'"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue; // trailing comma
        }
        out.push(parse_string(item)?);
    }
    Ok(out)
}

/// The deterministic demo graph `cc-serve --demo n` serves: weighted
/// G(n, p) with p scaled to stay connected but sparse as `n` grows.
///
/// # Errors
///
/// Propagates generator errors (e.g. `n == 0`).
pub fn demo_graph(n: usize, seed: u64) -> Result<Graph, Box<dyn Error>> {
    let p = (4.0 * (n.max(2) as f64).ln() / n.max(2) as f64).clamp(0.02, 0.3);
    Ok(generators::gnp_weighted(n, p, 50, seed)?)
}

/// Builds the demo oracle for [`demo_graph`] in a fresh simulated clique.
///
/// # Errors
///
/// Propagates generator and oracle-build errors.
pub fn build_demo(n: usize, seed: u64, epsilon: f64) -> Result<DistanceOracle, Box<dyn Error>> {
    build_demo_traced(n, seed, epsilon).map(|(oracle, _)| oracle)
}

/// [`build_demo`], but also returning the per-phase
/// [`cc_telemetry::BuildTrace`] (the `cc-serve --demo` banner logs it and
/// exports it as `cc_build_phase_*` gauges).
///
/// # Errors
///
/// Propagates generator and oracle-build errors.
pub fn build_demo_traced(
    n: usize,
    seed: u64,
    epsilon: f64,
) -> Result<(DistanceOracle, cc_telemetry::BuildTrace), Box<dyn Error>> {
    let g = demo_graph(n, seed)?;
    let mut clique = Clique::new(n);
    Ok(OracleBuilder::new().epsilon(epsilon).seed(seed).build_traced(&mut clique, &g)?)
}

/// The graph behind `cc-serve --demo-direct N`: a road-like grid
/// ([`generators::road_like`]) with exactly `n` nodes when `n` factors as
/// `w × h` with both sides ≥ 2, else the smallest near-square grid of at
/// least `n` nodes (primes can't be grids). Deterministic in `(n, seed)`.
///
/// # Errors
///
/// Propagates generator errors (`n < 4` cannot make a 2×2 grid).
pub fn direct_demo_graph(n: usize, seed: u64) -> Result<Graph, Box<dyn Error>> {
    let root = (n as f64).sqrt() as usize;
    let w = (2..=root.max(2)).rev().find(|w| n.is_multiple_of(*w)).unwrap_or(root.max(2));
    let h = n.div_ceil(w);
    Ok(generators::road_like(w, h, 30, seed)?)
}

/// `cc-serve --demo-direct`: builds a road-like oracle through
/// [`cc_oracle::DirectBuilder`] — no clique simulation, so `n = 10⁵`
/// builds in seconds and `10⁶` is reachable. Capped landmark mode
/// (`max_landmarks`) keeps the column matrix `n × m`; see
/// `docs/BUILDERS.md` for the contract difference vs the clique build.
///
/// # Errors
///
/// Propagates generator and oracle-build errors.
pub fn build_direct_demo_traced(
    n: usize,
    seed: u64,
    epsilon: f64,
    k: usize,
    max_landmarks: usize,
) -> Result<(DistanceOracle, cc_telemetry::BuildTrace), Box<dyn Error>> {
    let g = direct_demo_graph(n, seed)?;
    Ok(DirectBuilder::new()
        .k(k)
        .epsilon(epsilon)
        .seed(seed)
        .max_landmarks(max_landmarks)
        .build_traced(&g)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load_snapshot(path: &Path) -> Result<LoadedSlice<DistanceOracle>, Box<dyn Error>> {
        load_slice(path, serde::from_bytes_with_header)
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("cc-serve-test-snap").join(name);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trips_through_disk_with_its_identity() {
        let oracle = build_demo(20, 3, 0.5).unwrap();
        let path = temp_dir("mono").join("oracle.snap");
        write_snapshot(&oracle, &path).unwrap();
        let back = load_snapshot(&path).unwrap();
        assert_eq!(back.artifact, oracle);
        assert_eq!(back.info.build_id, format!("{:016x}", serde::payload_checksum(&oracle)));
        assert_eq!(back.info.source, path.display().to_string());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn direct_demo_builds_snapshots_and_shards_like_the_clique_demo() {
        // 96 = 8 × 12: the generator finds the exact factorization.
        let (oracle, trace) = build_direct_demo_traced(96, 3, 0.25, 6, 8).unwrap();
        assert_eq!(oracle.n(), 96);
        assert_eq!(oracle.landmarks().len(), 8, "landmark cap must hold");
        assert!(trace.span("exact_columns").is_some(), "capped mode must be visible in the trace");
        // The direct artifact flows through the same snapshot + shard
        // machinery the serving tier uses.
        let path = temp_dir("direct").join("direct.snap");
        write_snapshot(&oracle, &path).unwrap();
        assert_eq!(load_snapshot(&path).unwrap().artifact, oracle);
        std::fs::remove_file(&path).ok();
        let dir = temp_dir("direct-shards");
        let paths = write_shard_snapshots(&oracle, 3, &dir).unwrap();
        let (router, _) = load_shard_set(&paths).unwrap();
        for (u, v) in [(0, 95), (17, 60), (5, 5)] {
            assert_eq!(router.try_query(u, v).unwrap(), oracle.try_query(u, v).unwrap());
        }
        for p in paths {
            std::fs::remove_file(p).ok();
        }
        // A prime n falls back to a covering grid instead of failing.
        let g = direct_demo_graph(97, 1).unwrap();
        assert!(g.n() >= 97);
    }

    #[test]
    fn a_reader_racing_rewrites_never_sees_a_torn_snapshot() {
        use std::sync::atomic::AtomicBool;
        // Two artifacts of different sizes, ~100 KB each, so a write in
        // place would spend real time truncated or half-written.
        let (a, _) = build_direct_demo_traced(900, 3, 0.25, 6, 16).unwrap();
        let (b, _) = build_direct_demo_traced(900, 4, 0.25, 6, 12).unwrap();
        // Start from an empty directory: the test ends by listing it.
        std::fs::remove_dir_all(temp_dir("atomic")).ok();
        let dir = temp_dir("atomic");
        let path = dir.join("live.snap");
        write_snapshot(&a, &path).unwrap();

        // The reader sets the pace: the writer keeps alternating A and B
        // until 200 reads have parsed, and both start together.
        let (done, start) = (AtomicBool::new(false), std::sync::Barrier::new(2));
        let (rewrites, torn) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                start.wait();
                let mut rewrites = 0u32;
                while !done.load(Ordering::SeqCst) {
                    write_snapshot(if rewrites.is_multiple_of(2) { &b } else { &a }, &path)
                        .unwrap();
                    rewrites += 1;
                }
                rewrites
            });
            start.wait();
            // The first bad read ends the run; it is reported only after the
            // writer has been told to stop, or the scope would never join.
            let torn = (0..200).find_map(|read| {
                let bytes = std::fs::read(&path).unwrap_or_default();
                match serde::from_bytes(&bytes) {
                    Ok(seen) if seen == a || seen == b => None,
                    Ok(_) => Some(format!("read {read} saw neither artifact")),
                    Err(e) => Some(format!("read {read} saw a torn snapshot: {e}")),
                }
            });
            done.store(true, Ordering::SeqCst);
            (writer.join().unwrap(), torn)
        });
        assert_eq!(torn, None);
        assert!(rewrites > 0, "the writer never ran against the reader");
        // Every temporary file was renamed away.
        let left: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(left, [std::ffi::OsString::from("live.snap")]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshot_files_are_rejected() {
        let path = temp_dir("garbage").join("garbage.snap");
        std::fs::write(&path, b"definitely not an oracle").unwrap();
        assert!(load_snapshot(&path).is_err());
        std::fs::remove_file(&path).ok();
        assert!(load_snapshot(Path::new("/nonexistent/oracle.snap")).is_err());
    }

    #[test]
    fn legacy_v1_snapshots_are_rejected_with_the_dedicated_error() {
        let path = temp_dir("legacy").join("legacy.snap");
        // Hand-built v1 prefix: the magic alone must trigger the rejection.
        let mut bytes = b"CCO1".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 56]);
        std::fs::write(&path, &bytes).unwrap();
        let err = load_snapshot(&path).unwrap_err();
        assert!(err.to_string().contains("legacy"), "error must say why: {err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_sets_round_trip_and_wrong_slots_are_named() {
        let oracle = build_demo(21, 5, 0.5).unwrap();
        let dir = temp_dir("shards");
        let paths = write_shard_snapshots(&oracle, 3, &dir).unwrap();
        assert_eq!(paths.len(), 3);

        let (router, _) = load_shard_set(&paths).unwrap();
        for u in 0..21 {
            for v in 0..21 {
                assert_eq!(
                    router.try_query(u, v).unwrap(),
                    oracle.try_query(u, v).unwrap(),
                    "({u},{v})"
                );
            }
        }

        // Shard 2's file in slot 0: rejected, and the message names slot,
        // path, and the index mismatch.
        let swapped = vec![paths[2].clone(), paths[1].clone(), paths[0].clone()];
        let err = load_shard_set(&swapped).unwrap_err().to_string();
        assert!(err.contains("shard 0"), "error must name the slot: {err}");
        assert!(err.contains("declares index 2"), "error must name the mismatch: {err}");

        // A missing file fails cleanly with its path.
        let missing = vec![paths[0].clone(), dir.join("nope.snap"), paths[2].clone()];
        let err = load_shard_set(&missing).unwrap_err().to_string();
        assert!(err.contains("nope.snap"), "error must name the file: {err}");

        // A monolithic snapshot offered as a shard is refused.
        let mono = dir.join("mono.snap");
        write_snapshot(&oracle, &mono).unwrap();
        let err = load_shard_set(&[mono.clone(), paths[1].clone(), paths[2].clone()])
            .unwrap_err()
            .to_string();
        assert!(err.contains("monolithic"), "error must say why: {err}");

        // An incomplete set is refused.
        let err = load_shard_set(&paths[..2]).unwrap_err().to_string();
        assert!(err.contains("3-shard set"), "error must name the shape: {err}");

        for p in paths {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_file(mono).ok();
    }

    #[test]
    fn manifest_parses_both_modes_with_comments_and_multiline_arrays() {
        let base = Path::new("/artifacts");
        let mono = BackendSpec::parse_manifest(
            "# a monolithic manifest\nmode = \"mono\"  # trailing comment\n\
             snapshot = \"oracle.snap\"\ncache_capacity = 512\n",
            base,
        )
        .unwrap();
        let mut want = BackendSpec::mono("/artifacts/oracle.snap");
        want.cache_capacity = Some(512);
        assert_eq!(mono, want);

        let sharded = BackendSpec::parse_manifest(
            "mode = \"sharded\"\nset_id = \"00ffee29ec16e4f4\"\nshards = [\n    \
             \"a/shard-0.snap\",  # slot 0\n    \"a/shard-1.snap\",\n]\n",
            base,
        )
        .unwrap();
        let mut want = BackendSpec::sharded(vec![
            "/artifacts/a/shard-0.snap".into(),
            "/artifacts/a/shard-1.snap".into(),
        ]);
        want.expected_set_id = Some(0x00ff_ee29_ec16_e4f4);
        assert_eq!(sharded, want);
        // An absolute path stays absolute.
        let abs = BackendSpec::parse_manifest(
            "mode = \"mono\"\nsnapshot = \"/elsewhere/o.snap\"\n",
            base,
        )
        .unwrap();
        assert_eq!(abs, BackendSpec::mono("/elsewhere/o.snap"));
    }

    #[test]
    fn manifest_rejections_name_the_problem() {
        let base = Path::new(".");
        for (text, needle) in [
            ("snapshot = \"x.snap\"\n", "missing 'mode"),
            ("mode = \"turbo\"\n", "mode must be"),
            ("mode = \"mono\"\n", "needs 'snapshot"),
            ("mode = \"sharded\"\n", "needs 'shards"),
            ("mode = \"mono\"\nshards = [\"a\"]\n", "takes 'snapshot', not 'shards'"),
            ("mode = \"sharded\"\nsnapshot = \"x\"\n", "takes 'shards', not 'snapshot'"),
            ("mode = \"mono\"\nmode = \"mono\"\nsnapshot = \"x\"\n", "duplicate key 'mode'"),
            ("mode = \"mono\"\nsnapshot = \"x\"\nturbo = 1\n", "unknown key 'turbo'"),
            ("mode = \"mono\"\nsnapshot = \"x\"\nset_id = \"xyz\"\n", "16 hex digits"),
            ("mode = \"mono\"\nsnapshot = \"x\"\nset_id = \"123\"\n", "16 hex digits"),
            ("mode = \"mono\"\nsnapshot = x.snap\n", "double-quoted"),
            ("mode = \"mono\"\nsnapshot\n", "expected 'key = value'"),
            ("mode = \"sharded\"\nshards = []\n", "at least one file"),
            (
                "mode = \"mono\"\nsnapshot = \"x\"\ncache_capacity = \"lots\"\n",
                "cache_capacity must be an integer",
            ),
            // The duplicate-slot case: one file cannot fill two slots.
            (
                "mode = \"sharded\"\nshards = [\"s0.snap\", \"s1.snap\", \"s0.snap\"]\n",
                "shards[2] duplicates shards[0]",
            ),
        ] {
            let err = BackendSpec::parse_manifest(text, base).unwrap_err();
            assert!(
                err.contains(needle),
                "manifest {text:?}: error {err:?} must contain {needle:?}"
            );
        }
    }

    #[test]
    fn manifest_load_round_trips_and_gates_on_set_id_and_files() {
        let dir = temp_dir("manifest-load");
        let oracle = build_demo(20, 3, 0.5).unwrap();
        let paths = write_shard_snapshots(&oracle, 2, &dir).unwrap();
        let set_id = serde::payload_checksum(&oracle);

        // A correct manifest loads a router backend with per-shard infos.
        let manifest = dir.join("set.toml");
        std::fs::write(
            &manifest,
            format!(
                "mode = \"sharded\"\nset_id = \"{set_id:016x}\"\n\
                 shards = [\"shard-0.snap\", \"shard-1.snap\"]\n"
            ),
        )
        .unwrap();
        let spec = BackendSpec::from_manifest(&manifest).unwrap();
        assert_eq!(spec.manifest_path(), Some(manifest.as_path()));
        let loaded = spec.load().unwrap();
        assert_eq!(loaded.n(), 20);
        assert_eq!(loaded.backend.shards().len(), 2);
        assert_eq!(loaded.shard_infos.len(), 2);
        assert_eq!(loaded.info.build_id, format!("{set_id:016x}"));
        for u in 0..20 {
            for v in 0..20 {
                assert_eq!(
                    loaded.backend.try_query(u, v).unwrap(),
                    oracle.try_query(u, v).unwrap()
                );
            }
        }

        // A wrong set id is refused, naming the file and both ids.
        std::fs::write(
            &manifest,
            "mode = \"sharded\"\nset_id = \"00000000deadbeef\"\n\
             shards = [\"shard-0.snap\", \"shard-1.snap\"]\n",
        )
        .unwrap();
        let err = BackendSpec::from_manifest(&manifest).unwrap().load().unwrap_err().to_string();
        assert!(err.contains("shard-0.snap"), "must name a file: {err}");
        assert!(err.contains("00000000deadbeef"), "must name the expected id: {err}");
        assert!(err.contains(&format!("{set_id:016x}")), "must name the found id: {err}");

        // A missing shard file is refused, naming it.
        std::fs::write(
            &manifest,
            "mode = \"sharded\"\nshards = [\"shard-0.snap\", \"gone.snap\"]\n",
        )
        .unwrap();
        let err = BackendSpec::from_manifest(&manifest).unwrap().load().unwrap_err().to_string();
        assert!(err.contains("gone.snap"), "must name the file: {err}");

        // The mono gate works the same way against the build id.
        let mono_path = dir.join("mono.snap");
        write_snapshot(&oracle, &mono_path).unwrap();
        std::fs::write(
            &manifest,
            format!("mode = \"mono\"\nsnapshot = \"mono.snap\"\nset_id = \"{set_id:016x}\"\n"),
        )
        .unwrap();
        assert!(BackendSpec::from_manifest(&manifest).unwrap().load().is_ok());
        std::fs::write(
            &manifest,
            "mode = \"mono\"\nsnapshot = \"mono.snap\"\nset_id = \"00000000deadbeef\"\n",
        )
        .unwrap();
        let err = BackendSpec::from_manifest(&manifest).unwrap().load().unwrap_err().to_string();
        assert!(err.contains("mono.snap") && err.contains("expects set_id"), "{err}");

        for p in paths {
            std::fs::remove_file(p).ok();
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_sets_from_different_builds_do_not_mix() {
        let a = build_demo(20, 6, 0.5).unwrap();
        let b = build_demo(20, 7, 0.5).unwrap();
        let dir_a = temp_dir("set-a");
        let dir_b = temp_dir("set-b");
        let paths_a = write_shard_snapshots(&a, 2, &dir_a).unwrap();
        let paths_b = write_shard_snapshots(&b, 2, &dir_b).unwrap();
        let mixed = vec![paths_a[0].clone(), paths_b[1].clone()];
        let err = load_shard_set(&mixed).unwrap_err().to_string();
        assert!(err.contains("set id"), "error must name the field: {err}");
        for p in paths_a.into_iter().chain(paths_b) {
            std::fs::remove_file(p).ok();
        }
    }
}
