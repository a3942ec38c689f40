//! One workload, one process: the untraced run that yields the end-to-end
//! metrics and the traced run that yields the per-layer ones.

use crate::host;
use crate::measure::{self, us, Samples, Steps, WARMUP_BLOCKS};
use crate::probes;
use crate::report::Metrics;
use crate::trace::Tracer;
use crate::workload::{self, Finished, Phase, Tally, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// Shares of `--seconds` an untraced run gives its phases (rule 5): the
/// same on every commit.
const SETUP_SHARE: f64 = 0.10;
const OP_SHARE: f64 = 0.45;
const ALT_SHARE: f64 = 0.45;

/// Shares of `--seconds` a traced run gives the workload's own phases
/// (set-up, then op and alt each untraced and traced); the probes take the
/// rest.
const TRACED_SETUP_SHARE: f64 = 0.04;
const TRACED_PHASE_SHARE: f64 = 0.06;
/// Interference on the build host comes in bursts: a pinned 18 ms compute
/// loop sampled every 2 s for 5 min read +15–50% for 2–6 s at a time, a
/// quarter of the time. One 9 s phase can sit inside a dense stretch of
/// bursts; slices spread over the whole run rarely do, and rule 3 reads the
/// fast tail of whatever clean stretches there were.
const SECONDS_PER_ROUND: f64 = 5.0;
const MAX_ROUNDS: u32 = 4;
/// Traced blocks whose calls are replayed in process under child spans.
const REPLAYED_BLOCKS: usize = 3;

/// What one run reports.
pub struct Outcome {
    /// The metrics for the result line.
    pub metrics: Metrics,
    /// Ungated numbers printed above the result line only.
    pub diagnostics: Metrics,
    /// Operations attempted and failed.
    pub tally: Tally,
}

fn secs(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// Rule 5: repeats the complete set-up for `budget` (at least three times),
/// tearing each down, and keeps the last.
fn set_up_repeatedly(
    name: &str,
    seed: u64,
    dir: &Path,
    budget: Duration,
    steps: &mut Steps,
) -> Box<dyn Workload> {
    let phase = Instant::now();
    loop {
        let workload = workload::set_up(name, seed, dir, steps).expect("known workload");
        if steps.reps() >= 3 && phase.elapsed() >= budget {
            return workload;
        }
        workload.tear_down();
    }
}

/// Repeats `phase`'s block for `budget` after `warmups` untimed blocks and
/// checks what can only be checked once the slice is over.
fn run_slice(
    workload: &mut dyn Workload,
    phase: Phase,
    budget: Duration,
    warmups: usize,
    tracer: &mut Tracer,
) -> Samples {
    let ops = workload.ops(phase);
    let mut blocks = 0;
    let samples = measure::repeat(budget, warmups, ops, || {
        blocks += 1;
        let replay = tracer.enabled() && blocks > warmups && blocks <= warmups + REPLAYED_BLOCKS;
        workload.block(phase, tracer, replay)
    });
    workload.after_phase(phase);
    samples
}

/// The op and alt phases of an untraced run, as alternating slices: one
/// round per [`SECONDS_PER_ROUND`] of `--seconds`, at most [`MAX_ROUNDS`].
/// A later round warms up with one block; its blocks join the phase's
/// samples.
fn run_interleaved(
    workload: &mut dyn Workload,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Samples, Samples) {
    let rounds = ((seconds / SECONDS_PER_ROUND) as u32).clamp(1, MAX_ROUNDS);
    let (op_slice, alt_slice) =
        (secs(seconds, OP_SHARE) / rounds, secs(seconds, ALT_SHARE) / rounds);
    let mut op = run_slice(workload, Phase::Op, op_slice, WARMUP_BLOCKS, tracer);
    let mut alt = run_slice(workload, Phase::Alt, alt_slice, WARMUP_BLOCKS, tracer);
    for _ in 1..rounds {
        op.merge(run_slice(workload, Phase::Op, op_slice, 1, tracer));
        alt.merge(run_slice(workload, Phase::Alt, alt_slice, 1, tracer));
    }
    (op, alt)
}

fn phase_diagnostics(d: &mut Metrics, label: &str, samples: &Samples) {
    d.set(&format!("diag.{label}_p50_us"), "us", us(samples.p50()));
    d.set(&format!("diag.{label}_p99_us"), "us", us(samples.p99()));
    d.set(&format!("diag.{label}_blocks"), "count", samples.len() as f64);
}

fn end_to_end(steps: &Steps, op: &Samples, alt: &Samples, finished: &Finished) -> Metrics {
    let mut m = Metrics::default();
    m.set("setup_s", "s", steps.setup_s());
    m.set("op_p01_us", "us", us(op.p01()));
    m.set("alt_p01_us", "us", us(alt.p01()));
    m.set("peak_rss_mb", "MB", host::peak_rss_mb());
    m.set("cost_count", "count", finished.cost_count as f64);
    m.set("stretch_max", "ratio", finished.stretch_max);
    m
}

/// The untraced run: set-up phase, op phase, alt phase, verification.
pub fn untraced(name: &str, seed: u64, seconds: f64, dir: &Path) -> Outcome {
    let mut steps = Steps::default();
    let mut tracer = Tracer::new();
    let mut workload = set_up_repeatedly(name, seed, dir, secs(seconds, SETUP_SHARE), &mut steps);
    let (op, alt) = run_interleaved(workload.as_mut(), seconds, &mut tracer);
    let finished = workload.finish();

    let mut diagnostics = Metrics::default();
    phase_diagnostics(&mut diagnostics, "op", &op);
    phase_diagnostics(&mut diagnostics, "alt", &alt);
    diagnostics.set("diag.setup_reps", "count", steps.reps() as f64);
    for (step, s) in steps.third_fastest() {
        diagnostics.set(&format!("diag.setup.{step}_ms"), "ms", s * 1e3);
    }
    Outcome {
        metrics: end_to_end(&steps, &op, &alt, &finished),
        diagnostics,
        tally: finished.tally,
    }
}

/// The traced run: the workload's phases once untraced and once under
/// spans (their ratio is the tracing overhead), the span file, then the
/// per-layer probes, which are the same whatever the workload.
pub fn traced(name: &str, seed: u64, seconds: f64, dir: &Path, out_dir: &Path) -> Outcome {
    let mut steps = Steps::default();
    let mut tracer = Tracer::new();
    let budget = secs(seconds, TRACED_PHASE_SHARE);
    let mut workload =
        set_up_repeatedly(name, seed, dir, secs(seconds, TRACED_SETUP_SHARE), &mut steps);
    let op = run_slice(workload.as_mut(), Phase::Op, budget, WARMUP_BLOCKS, &mut tracer);
    tracer.set_enabled(true);
    let op_traced = run_slice(workload.as_mut(), Phase::Op, budget, WARMUP_BLOCKS, &mut tracer);
    tracer.set_enabled(false);
    let alt = run_slice(workload.as_mut(), Phase::Alt, budget, WARMUP_BLOCKS, &mut tracer);
    tracer.set_enabled(true);
    let alt_traced = run_slice(workload.as_mut(), Phase::Alt, budget, WARMUP_BLOCKS, &mut tracer);
    tracer.set_enabled(false);
    let finished = workload.finish();

    let span_file = out_dir.join(format!("trace-{name}.jsonl"));
    tracer.write_jsonl(&span_file).expect("write span file");

    let mut diagnostics = end_to_end(&steps, &op, &alt, &finished);
    diagnostics.set("trace.alt_overhead_pct", "%", (alt_traced.p01() / alt.p01() - 1.0) * 100.0);
    diagnostics.set("trace.spans", "count", tracer.len() as f64);
    for (span, (count, total_ns, self_ns)) in tracer.summary() {
        diagnostics.set(&format!("span.{span}.count"), "count", count as f64);
        diagnostics.set(
            &format!("span.{span}.mean_us"),
            "us",
            total_ns as f64 / count as f64 / 1e3,
        );
        diagnostics.set(
            &format!("span.{span}.self_mean_us"),
            "us",
            self_ns as f64 / count as f64 / 1e3,
        );
    }

    let mut metrics = Metrics::default();
    let mut tally = finished.tally;
    probes::run_all(seed, seconds, dir, &mut metrics, &mut tally);
    phase_diagnostics(&mut metrics, "op", &op);
    phase_diagnostics(&mut metrics, "alt", &alt);
    metrics.set("diag.setup_reps", "count", steps.reps() as f64);
    metrics.set("trace.overhead_pct", "%", (op_traced.p01() / op.p01() - 1.0) * 100.0);
    Outcome { metrics, diagnostics, tally }
}
