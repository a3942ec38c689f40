//! Identical-block timing (measurement rules 2, 3 and 5).

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Untimed repetitions of a block before its phase's clock starts.
pub const WARMUP_BLOCKS: usize = 3;

static QUICK: AtomicBool = AtomicBool::new(false);

/// A smoke run checks code paths, not values: once this is set, timing
/// loops skip warm-ups and are content with one sample. Set before any
/// timing.
pub fn set_quick() {
    // Relaxed: set once on the main thread before anything reads it.
    QUICK.store(true, Ordering::Relaxed);
}

/// Seconds as microseconds.
pub fn us(seconds: f64) -> f64 {
    seconds * 1e6
}

/// Seconds as nanoseconds.
pub fn ns(seconds: f64) -> f64 {
    seconds * 1e9
}

/// Samples a timing needs whatever its budget: three, so that rule 3 has a
/// third-fastest to read; one in a smoke run.
pub fn min_samples() -> usize {
    if QUICK.load(Ordering::Relaxed) {
        1
    } else {
        3
    }
}

/// Per-operation times of one phase, in seconds, sorted ascending.
#[derive(Debug, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Samples from per-operation times in any order (at least one).
    pub fn new(mut seconds_per_op: Vec<f64>) -> Samples {
        assert!(!seconds_per_op.is_empty(), "a phase needs at least one sample");
        seconds_per_op.sort_by(f64::total_cmp);
        Samples(seconds_per_op)
    }

    /// Adds the samples of another slice of the same phase.
    pub fn merge(&mut self, other: Samples) {
        self.0.extend(other.0);
        self.0.sort_by(f64::total_cmp);
    }

    /// Number of timed blocks.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn at_quantile(&self, q: f64) -> f64 {
        self.0[((self.0.len() as f64 * q) as usize).min(self.0.len() - 1)]
    }

    /// Rule 3: the first percentile, and never fewer than the third-fastest
    /// sample. On a shared host interference only ever adds time, so the
    /// fast tail is what repeats: the median of a pinned 200-GET block moved
    /// 30.7 → 42.5 µs between runs while its first percentile held
    /// 29.6–30.2; a strict minimum once read 23.6 against a 29.7 first
    /// percentile, hence not the minimum either.
    pub fn p01(&self) -> f64 {
        let rank = ((self.0.len() as f64 * 0.01) as usize).max(2);
        self.0[rank.min(self.0.len() - 1)]
    }

    /// Median — a diagnostic, never gated.
    pub fn p50(&self) -> f64 {
        self.at_quantile(0.5)
    }

    /// 99th percentile — a diagnostic, never gated.
    pub fn p99(&self) -> f64 {
        self.at_quantile(0.99)
    }
}

/// Rule 2: repeats one fixed block back to back for `budget` after
/// `warmups` untimed repetitions, at least [`min_samples`] times. `block` times its
/// own measured part (so that response checks stay outside the clock) and
/// returns it; a sample is that time divided by `ops`.
pub fn repeat(
    budget: Duration,
    warmups: usize,
    ops: usize,
    mut block: impl FnMut() -> Duration,
) -> Samples {
    let warmups = if min_samples() == 1 { 0 } else { warmups };
    for _ in 0..warmups {
        block();
    }
    let phase = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_samples() || phase.elapsed() < budget {
        samples.push(block().as_secs_f64() / ops as f64);
    }
    Samples::new(samples)
}

/// [`repeat`] for a block with nothing to check: the whole closure is timed.
pub fn repeat_timed(
    budget: Duration,
    warmups: usize,
    ops: usize,
    mut block: impl FnMut(),
) -> Samples {
    repeat(budget, warmups, ops, || {
        let t = Instant::now();
        block();
        t.elapsed()
    })
}

/// Rule 5: per-step times across repetitions of a complete set-up.
///
/// `setup_s` is the sum over steps of each step's third-fastest time:
/// across six processes that read 40.9–41.6 ms where "fastest complete
/// set-up of 60" spread 14%, because one repetition rarely has every step
/// undisturbed.
#[derive(Debug, Default)]
pub struct Steps {
    steps: Vec<(&'static str, Vec<f64>)>,
}

impl Steps {
    /// Runs `f` as one occurrence of step `name` and records its wall time.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.record(name, t.elapsed().as_secs_f64());
        out
    }

    /// Records one occurrence of step `name` timed elsewhere.
    pub fn record(&mut self, name: &'static str, secs: f64) {
        match self.steps.iter_mut().find(|(n, _)| *n == name) {
            Some((_, times)) => times.push(secs),
            None => self.steps.push((name, vec![secs])),
        }
    }

    /// Complete set-ups recorded so far.
    pub fn reps(&self) -> usize {
        self.steps.first().map_or(0, |(_, t)| t.len())
    }

    /// `(step, third-fastest seconds)` in first-seen order.
    pub fn third_fastest(&self) -> Vec<(&'static str, f64)> {
        self.steps
            .iter()
            .map(|(name, times)| {
                let mut sorted = times.clone();
                sorted.sort_by(f64::total_cmp);
                (*name, sorted[2.min(sorted.len() - 1)])
            })
            .collect()
    }

    /// The `setup_s` metric.
    pub fn setup_s(&self) -> f64 {
        self.third_fastest().iter().map(|(_, s)| s).sum()
    }
}
