//! The `cc-serve` binary: load or build a distance oracle and serve it —
//! monolithically, or as the router tier over a sharded artifact set.
//!
//! ```text
//! cc-serve --manifest SET.toml [--addr HOST:PORT] [--workers N]
//! cc-serve --demo N [--seed S] [--epsilon E] [--addr HOST:PORT] ...
//! cc-serve --demo N --write-snapshot FILE      # write a fixture and exit
//! cc-serve --demo N --shard-count K --write-shards DIR
//!                                              # write a K-shard fixture set
//! ```
//!
//! A running server hot-swaps its artifact without restarting: `POST
//! /reload` (optionally `?path=...`, or `?shard=i` in router mode) or
//! `SIGHUP` re-reads the snapshot file(s), validates, and swaps atomically
//! under traffic. See `docs/OPERATIONS.md` and `docs/SHARDING.md`.
//!
//! Unsafe code is denied (`#![deny(unsafe_code)]`): the binary's one
//! exception is the annotated `signal(2)` registration in [`sighup`], the
//! only unsafe block in the whole workspace.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use cc_server::{
    source, LoadedBackend, ReloadTarget, Server, ServerConfig, SnapshotInfo, Transport,
};
use cc_telemetry::AccessLog;

/// SIGHUP → hot reload, the classic daemon convention. The handler only
/// flips an atomic flag (the async-signal-safe subset); a watcher thread
/// does the actual load + swap.
#[cfg(unix)]
mod sighup {
    use std::sync::atomic::{AtomicBool, Ordering};

    static PENDING: AtomicBool = AtomicBool::new(false);

    /// POSIX signal number for SIGHUP.
    const SIGHUP: i32 = 1;

    // The workspace is otherwise unsafe-free; this extern declaration and
    // the call below are the single annotated exception, needed because
    // installing a signal handler has no safe std API.
    #[allow(unsafe_code)]
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> isize;
    }

    extern "C" fn on_sighup(_signum: i32) {
        PENDING.store(true, Ordering::SeqCst);
    }

    /// Returns false if the handler could not be installed (`SIG_ERR`), in
    /// which case the process keeps the default SIGHUP disposition
    /// (terminate) and the caller must warn the operator.
    #[must_use]
    #[allow(unsafe_code)]
    pub fn install() -> bool {
        // SAFETY: `on_sighup` only touches an atomic, which is within the
        // async-signal-safe subset; the handler pointer outlives the
        // process ('static fn item). SIG_ERR is (void (*)(int))-1, hence
        // the -1 comparison.
        unsafe { signal(SIGHUP, on_sighup) != -1 }
    }

    /// True once per received SIGHUP.
    pub fn take() -> bool {
        PENDING.swap(false, Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sighup {
    #[must_use]
    pub fn install() -> bool {
        false
    }
    pub fn take() -> bool {
        false
    }
}

const USAGE: &str = "\
cc-serve: HTTP front-end for a congested-clique distance oracle

USAGE:
    cc-serve --manifest FILE [OPTIONS]     serve the artifact a manifest declares
                                           (mode, snapshot/shard files, expected
                                           set id, cache capacity)
    cc-serve --demo N [OPTIONS]            build an n-node demo oracle in the
                                           simulated clique, then serve it
    cc-serve --demo-direct N [OPTIONS]     build an n-node road-like oracle with the
                                           direct (no-clique) builder — scales to
                                           10^5..10^6 nodes — then serve it
    cc-serve --demo N --write-snapshot FILE
                                           build the demo, write the snapshot, exit
                                           (also works with --demo-direct)
    cc-serve --demo N --shard-count K --write-shards DIR
                                           build the demo, write DIR/shard-<i>.snap
                                           for i in 0..K, exit
                                           (also works with --demo-direct)

OPTIONS:
    --addr HOST:PORT    bind address (default 127.0.0.1:8317; port 0 = ephemeral)
    --workers N         worker threads (default: CPU count, capped at 16)
    --transport MODE    accept/connection transport: auto (default; epoll
                        reactor on Linux, poll loop elsewhere) or poll
                        (force the portable sleep-polling loop); /stats
                        reports the resolved choice as \"transport\"
    --cache N           result-cache capacity (default 4096, 0 disables;
                        a manifest's cache_capacity takes precedence)
    --seed S            demo build seed (default 7)
    --epsilon E         demo build accuracy (default 0.25), finite and > 0;
                        answers are within the stretch_bound /artifact
                        reports, certified from the artifact's rows: at
                        most 3+2E for --demo, what the rows prove for a
                        capped --demo-direct build (docs/BUILDERS.md)
    --k K               --demo-direct ball size (default 16; --demo keeps the
                        paper's default ~sqrt(n ln n))
    --max-landmarks M   --demo-direct landmark cap (default 64): bounds the
                        column matrix to n x M so million-node artifacts fit
    --slow-query-ns NS  log requests slower than NS nanoseconds to stderr as
                        JSON lines (0 logs every request; see
                        docs/OBSERVABILITY.md)
    --write-snapshot F  write the oracle to F and exit without serving
    --write-shards DIR  write a per-shard snapshot set to DIR and exit
    --shard-count K     how many shards --write-shards cuts (default 2)
    --help              this text

OBSERVABILITY:
    GET /metrics        Prometheus text exposition: request counters,
                        per-endpoint latency histograms, pool/cache/reload
                        gauges, and (after --demo) per-phase build cost
    GET /stats          the same registry snapshot, rendered as JSON

HOT RELOAD:
    POST /reload        re-read the manifest (or /reload?path=FILE), validate,
                        and swap atomically under traffic; in router mode
                        /reload?shard=i swaps one shard and a bare /reload
                        rolls the full set
    SIGHUP              same as a bare POST /reload
";

struct Args {
    manifest: Option<PathBuf>,
    demo: Option<usize>,
    demo_direct: Option<usize>,
    k: usize,
    max_landmarks: usize,
    write_snapshot: Option<PathBuf>,
    write_shards: Option<PathBuf>,
    shard_count: usize,
    addr: String,
    workers: Option<usize>,
    transport: Transport,
    cache: usize,
    seed: u64,
    epsilon: f64,
    slow_query_ns: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        manifest: None,
        demo: None,
        demo_direct: None,
        k: 16,
        max_landmarks: 64,
        write_snapshot: None,
        write_shards: None,
        shard_count: 2,
        addr: "127.0.0.1:8317".to_owned(),
        workers: None,
        transport: Transport::Auto,
        cache: 4096,
        seed: 7,
        epsilon: 0.25,
        slow_query_ns: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Result<String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a {what}"))
        };
        match flag.as_str() {
            "--manifest" => args.manifest = Some(PathBuf::from(value("file path")?)),
            "--demo" => {
                args.demo =
                    Some(value("node count")?.parse().map_err(|_| "--demo needs an integer")?);
            }
            "--demo-direct" => {
                args.demo_direct = Some(
                    value("node count")?.parse().map_err(|_| "--demo-direct needs an integer")?,
                );
            }
            "--k" => {
                args.k = value("ball size")?.parse().map_err(|_| "--k needs an integer")?;
            }
            "--max-landmarks" => {
                args.max_landmarks =
                    value("count")?.parse().map_err(|_| "--max-landmarks needs an integer")?;
            }
            "--write-snapshot" => args.write_snapshot = Some(PathBuf::from(value("file path")?)),
            "--write-shards" => args.write_shards = Some(PathBuf::from(value("directory")?)),
            "--shard-count" => {
                args.shard_count =
                    value("count")?.parse().map_err(|_| "--shard-count needs an integer")?;
            }
            "--addr" => args.addr = value("bind address")?,
            "--workers" => {
                args.workers =
                    Some(value("count")?.parse().map_err(|_| "--workers needs an integer")?);
            }
            "--transport" => args.transport = value("mode")?.parse()?,
            "--cache" => {
                args.cache = value("capacity")?.parse().map_err(|_| "--cache needs an integer")?;
            }
            "--seed" => {
                args.seed = value("seed")?.parse().map_err(|_| "--seed needs an integer")?;
            }
            "--epsilon" => {
                args.epsilon = value("epsilon")?.parse().map_err(|_| "--epsilon needs a number")?;
            }
            "--slow-query-ns" => {
                args.slow_query_ns = Some(
                    value("threshold")?.parse().map_err(|_| "--slow-query-ns needs an integer")?,
                );
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let sources = usize::from(args.manifest.is_some())
        + usize::from(args.demo.is_some())
        + usize::from(args.demo_direct.is_some());
    if sources != 1 {
        return Err("exactly one of --manifest, --demo, or --demo-direct is required".to_owned());
    }
    if args.manifest.is_some() && (args.write_snapshot.is_some() || args.write_shards.is_some()) {
        return Err("--write-snapshot/--write-shards need --demo or --demo-direct, not --manifest"
            .to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}\n");
            }
            eprint!("{USAGE}");
            return if msg.is_empty() { ExitCode::SUCCESS } else { ExitCode::from(2) };
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Loads or builds what `args` name, then writes the fixture or serves
/// until stopped. `Err` is the message `main` reports before failing.
fn run(args: &Args) -> Result<(), String> {
    let mut config = ServerConfig::default()
        .with_addr(args.addr.clone())
        .with_cache_capacity(args.cache)
        .with_transport(args.transport);
    if let Some(workers) = args.workers {
        config = config.with_workers(workers);
    }
    if let Some(threshold_ns) = args.slow_query_ns {
        config = config.with_access_log(Arc::new(AccessLog::stderr(threshold_ns)));
    }

    // Manifest mode: the declarative path — mode, files, expected set id,
    // and cache capacity all come from the manifest, which is also
    // re-read on every bare /reload or SIGHUP.
    if let Some(manifest) = &args.manifest {
        let spec = cc_server::BackendSpec::from_manifest(manifest).map_err(|e| e.to_string())?;
        eprintln!("loading {}", spec.describe());
        let handle = Server::start_from_spec(&config, spec)
            .map_err(|e| format!("cannot serve manifest {}: {e}", manifest.display()))?;
        let desc = handle.state().generation().descriptor();
        // CI and scripts wait for this exact line on stdout.
        println!(
            "cc-serve listening on http://{} (manifest, mode={}, n={}, {} KiB)",
            handle.addr(),
            desc.mode,
            desc.n,
            desc.artifact_bytes / 1024,
        );
        run_until_stopped(handle);
        return Ok(());
    }

    let built = if let Some(n) = args.demo {
        source::build_demo_traced(n, args.seed, args.epsilon).map(|(oracle, trace)| {
            eprintln!(
                "built demo oracle: n={n}, {} rounds in the simulated clique, {} landmarks",
                oracle.build_rounds(),
                oracle.landmarks().len()
            );
            (oracle, trace, "demo")
        })
    } else {
        let n = args.demo_direct.expect("parse_args enforces exactly one source");
        source::build_direct_demo_traced(n, args.seed, args.epsilon, args.k, args.max_landmarks)
            .map(|(oracle, trace)| {
                eprintln!(
                    "built direct oracle: n={} (road-like), no clique simulation, \
                     {} landmarks (cap {}), k={}",
                    oracle.n(),
                    oracle.landmarks().len(),
                    args.max_landmarks,
                    args.k
                );
                (oracle, trace, "demo-direct")
            })
    };
    let (oracle, trace, source_label) = built.map_err(|e| format!("demo build failed: {e}"))?;
    // One line per build phase; CI greps for `build-trace phase=`.
    eprintln!("{}", trace.log_lines());

    if let Some(path) = &args.write_snapshot {
        source::write_snapshot(&oracle, path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote snapshot to {} and exiting", path.display());
        return Ok(());
    }
    if let Some(dir) = &args.write_shards {
        let paths = source::write_shard_snapshots(&oracle, args.shard_count, dir)
            .map_err(|e| format!("cannot write shard set to {}: {e}", dir.display()))?;
        println!("wrote {} shard snapshots to {} and exiting", paths.len(), dir.display());
        return Ok(());
    }

    let (n, landmarks, kib) =
        (oracle.n(), oracle.landmarks().len(), oracle.artifact_bytes() / 1024);
    let info = SnapshotInfo::in_process(cc_oracle::serde::payload_checksum(&oracle), source_label);
    let handle = Server::start(&config, LoadedBackend::mono(oracle, info))
        .map_err(|e| format!("cannot serve on {}: {e}", args.addr))?;
    // Build-phase cost next to the serving metrics on /metrics.
    trace.export_gauges(handle.state().registry());
    // CI and scripts wait for this exact line on stdout.
    println!(
        "cc-serve listening on http://{} (n={n}, landmarks={landmarks}, {kib} KiB)",
        handle.addr()
    );
    run_until_stopped(handle);
    Ok(())
}

/// Installs the SIGHUP → reload watcher and blocks until the server stops.
///
/// SIGHUP reloads the default source — the manifest, or in router mode
/// every shard from its own file — off the signal handler and off the
/// request path. A failed install or spawn must be loud: otherwise the
/// documented reload path would silently keep the default SIGHUP
/// disposition (terminate the process).
fn run_until_stopped(handle: cc_server::ServerHandle) {
    let watching = sighup::install() && {
        let state = handle.shared_state();
        std::thread::Builder::new()
            .name("cc-serve-sighup".to_owned())
            .spawn(move || loop {
                std::thread::sleep(Duration::from_millis(200));
                if sighup::take() {
                    match state.reload(&ReloadTarget::Configured) {
                        Ok(outcome) => {
                            let info = outcome.generation.info();
                            eprintln!(
                                "SIGHUP reload ok: build {} from {}",
                                info.build_id, info.source
                            );
                        }
                        Err(e) => eprintln!("SIGHUP reload failed: {e}"),
                    }
                }
            })
            .is_ok()
    };
    if !watching {
        eprintln!(
            "warning: could not install the SIGHUP handler; \
             hot reload is available via POST /reload only"
        );
    }
    handle.join();
}
