//! The repo benchmark: a pinned, identical-block ledger over four
//! workloads. See `README.md` next to this package for the measurement
//! rules, the metric → layer → workload table and what it cannot answer.
//!
//! ```text
//! ledger --workload NAME --seed N --seconds S --trace 0|1   one workload, one result line
//! ledger [--seed N] [--seconds S]                           all four, each in a child process
//! ledger --aa SETS                                          2·SETS whole runs, A/B medians against the bounds
//! ledger --smoke                                            0.3 s phases, every metric name checked
//! ```

mod alloc;
mod clique_paper;
mod fixtures;
mod host;
mod measure;
mod probes;
mod report;
mod run;
mod serve;
mod trace;
mod workload;

use report::{Parsed, END_TO_END};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workload::WORKLOADS;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// `--seconds` when the caller gives none; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--seconds` of a `--smoke` run: 0.3 s op and alt phases.
const SMOKE_SECONDS: f64 = 0.7;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: Option<usize>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? != "0",
            "--aa" => args.aa = Some(value()?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Where span files and temporary snapshots go: next to the build, hence
/// inside the checkout and out of git's sight.
fn out_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let target =
        exe.parent().and_then(|p| p.parent()).expect("executable sits in <target>/<profile>/");
    target.join("ledger")
}

/// One workload in this process; prints the header, the metrics by name
/// with unit, and the result line last.
fn run_one(name: &str, args: &Args) -> ExitCode {
    if !WORKLOADS.contains(&name) {
        eprintln!("unknown workload {name}; known: {WORKLOADS:?}");
        return ExitCode::from(2);
    }
    let nproc = host::allowed_cpus().len();
    // Rule 1: before any thread exists, and no metrics unless confined.
    let cpu = match host::pin_to_highest_allowed_cpu() {
        Ok(cpu) => cpu,
        Err(why) => {
            eprintln!("not confined to one CPU, so no metrics: {why}");
            return ExitCode::from(3);
        }
    };
    println!("{}", host::header(cpu, nproc, args.seed, name));
    if args.smoke {
        measure::set_quick();
    }
    let steal_before = host::steal_ticks(cpu);

    let out = out_dir();
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).expect("create the benchmark's temp dir");
    let outcome = if args.trace {
        run::traced(name, args.seed, args.seconds, &tmp, &out)
    } else {
        run::untraced(name, args.seed, args.seconds, &tmp)
    };
    std::fs::remove_dir_all(&tmp).ok();

    print!("{}", outcome.diagnostics.render_lines());
    print!("{}", outcome.metrics.render_lines());
    if let Some(why) = &outcome.tally.first_failure {
        println!("# first failure: {why}");
    }
    println!(
        "# loadavg_after=\"{}\" steal_ticks={}",
        host::loadavg(),
        host::steal_ticks(cpu) - steal_before
    );
    let correct = outcome.tally.failed == 0 && outcome.metrics.all_finite();
    println!(
        "{}",
        report::result_line(
            correct,
            outcome.tally.attempted,
            outcome.tally.failed,
            &outcome.metrics
        )
    );
    exit_code(correct)
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process (so `peak_rss_mb` is its own) and
/// reads its result line back. The child's output is passed through.
/// `smoke` children skip warm-ups and sample minimums.
fn run_child(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Parsed, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .args(smoke.then_some("--smoke"))
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let parsed = stdout.lines().last().and_then(report::parse_result_line);
    match parsed {
        Some(p) if output.status.success() && p.correct && p.failed == 0 => Ok(p),
        Some(p) => Err(format!("{name}: {} operations failed ({})", p.failed, output.status)),
        None => Err(format!("{name}: no result line ({})", output.status)),
    }
}

/// All four workloads once; `None` if any failed.
fn run_set(seed: u64, seconds: f64) -> Option<Vec<Parsed>> {
    let mut set = Vec::new();
    for name in WORKLOADS {
        match run_child(name, seed, seconds, false, false) {
            Ok(parsed) => set.push(parsed),
            Err(why) => {
                eprintln!("{why}");
                return None;
            }
        }
    }
    Some(set)
}

fn run_all(args: &Args) -> ExitCode {
    let Some(set) = run_set(args.seed, args.seconds) else { return ExitCode::FAILURE };
    println!("\n{:<14} {:<14} {:>18} unit", "workload", "metric", "value");
    for (name, parsed) in WORKLOADS.iter().zip(&set) {
        for metric in END_TO_END {
            println!(
                "{name:<14} {:<14} {:>18.4} {}",
                metric.name, parsed.values[metric.name], metric.unit
            );
        }
    }
    ExitCode::SUCCESS
}

/// `--aa SETS`: the same code measured as set A and set B alternately; the
/// benchmark must agree with itself within its own bounds.
fn run_aa(args: &Args, sets: usize) -> ExitCode {
    let mut runs: [Vec<Vec<Parsed>>; 2] = [Vec::new(), Vec::new()];
    for i in 0..2 * sets {
        println!("# A/A run {} of {} (set {})", i + 1, 2 * sets, ["A", "B"][i % 2]);
        let Some(set) = run_set(args.seed, args.seconds) else { return ExitCode::FAILURE };
        runs[i % 2].push(set);
    }
    let mut ok = true;
    println!("\n| workload | metric | median A | median B | B vs A | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for (w, name) in WORKLOADS.iter().enumerate() {
        for metric in END_TO_END {
            let values = |side: usize| -> Vec<f64> {
                runs[side].iter().map(|set| set[w].values[metric.name]).collect()
            };
            let (a, b) = (values(0), values(1));
            let (ma, mb) = (report::median(&a), report::median(&b));
            let diff = (mb - ma) / ma;
            let all_equal = a.iter().chain(&b).all(|v| *v == a[0]);
            let pass = if metric.exact { all_equal } else { diff.abs() <= metric.bound };
            ok &= pass;
            println!(
                "| {name} | {} | {ma:.4} | {mb:.4} | {:+.2}% | {:.1}% | {} |",
                metric.name,
                diff * 100.0,
                metric.bound * 100.0,
                if pass { "ok" } else { "FAIL" }
            );
        }
    }
    exit_code(ok)
}

/// `--smoke`: every mode's code path with short phases, and every metric
/// `BENCHMARK.json` names printed exactly once per workload with a finite
/// value (non-zero for the end-to-end ones).
fn run_smoke(args: &Args) -> ExitCode {
    let Ok(json) = std::fs::read_to_string("BENCHMARK.json") else {
        eprintln!("--smoke reads BENCHMARK.json from the current directory (the repo root)");
        return ExitCode::from(2);
    };
    let mut ok = report::names_in_benchmark_json(&json, "workloads") == WORKLOADS;
    if !ok {
        eprintln!("BENCHMARK.json does not list the workloads {WORKLOADS:?}");
    }
    for metric in END_TO_END.iter().filter(|m| !m.declared_in(&json)) {
        eprintln!("BENCHMARK.json does not declare {metric:?} as the harness does");
        ok = false;
    }
    for name in WORKLOADS {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut want = report::names_in_benchmark_json(&json, section);
            let parsed = match run_child(name, args.seed, SMOKE_SECONDS, trace, true) {
                Ok(parsed) => parsed,
                Err(why) => {
                    eprintln!("{why}");
                    return ExitCode::FAILURE;
                }
            };
            let mut got = parsed.names.clone();
            want.sort();
            got.sort();
            if want != got {
                let missing: Vec<_> = want.iter().filter(|n| !got.contains(n)).collect();
                let extra: Vec<_> = got.iter().filter(|n| !want.contains(n)).collect();
                eprintln!(
                    "{name} {section}: missing {missing:?}, unexpected or repeated {extra:?}"
                );
                ok = false;
            }
            for (metric, value) in &parsed.values {
                if !value.is_finite() || (!trace && *value == 0.0) {
                    eprintln!("{name} {section}: {metric} = {value}");
                    ok = false;
                }
            }
        }
    }
    println!("# smoke {}", if ok { "passed" } else { "FAILED" });
    exit_code(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}");
            return ExitCode::from(2);
        }
    };
    match (&args.workload, args.aa, args.smoke) {
        (Some(name), _, _) => run_one(name, &args),
        (None, Some(sets), _) => run_aa(&args, sets),
        (None, None, true) => run_smoke(&args),
        (None, None, false) => run_all(&args),
    }
}
