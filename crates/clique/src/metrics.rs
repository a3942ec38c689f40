use std::collections::BTreeMap;
use std::fmt;

/// Communication statistics of one accounting bucket (a phase or the total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Rounds charged to this bucket.
    pub rounds: u64,
    /// Messages (envelopes) delivered in this bucket.
    pub messages: u64,
    /// Words moved in this bucket.
    pub words: u64,
    /// Primitive invocations attributed to this bucket.
    pub invocations: u64,
}

impl PhaseStats {
    fn absorb(&mut self, rounds: u64, messages: u64, words: u64) {
        self.rounds += rounds;
        self.messages += messages;
        self.words += words;
        self.invocations += 1;
    }
}

/// The round ledger: rounds, messages and words, in total and per phase
/// label ([`Clique::with_phase`](crate::Clique::with_phase)). A
/// [`Clique`](crate::Clique) keeps its running totals in one, which
/// [`Clique::metrics`](crate::Clique::metrics) borrows and
/// [`Clique::report`](crate::Clique::report) clones for a result to carry.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
///
/// let mut clique = Clique::new(4);
/// clique.charge("setup", 3);
/// let report = clique.report();
/// assert_eq!(report.rounds, 3);
/// assert_eq!(report.n, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundReport {
    /// Number of nodes in the clique the algorithm ran on.
    pub n: usize,
    /// Total rounds the run charged.
    pub rounds: u64,
    /// Total messages the run delivered.
    pub messages: u64,
    /// Total words the run moved.
    pub words: u64,
    /// Per-phase breakdown of the run.
    pub phases: BTreeMap<String, PhaseStats>,
}

impl RoundReport {
    /// An empty ledger for a clique of `n` nodes.
    pub(crate) fn new(n: usize) -> Self {
        RoundReport { n, rounds: 0, messages: 0, words: 0, phases: BTreeMap::new() }
    }

    pub(crate) fn record(&mut self, phase: &str, rounds: u64, messages: u64, words: u64) {
        self.rounds += rounds;
        self.messages += messages;
        self.words += words;
        // A label is copied only the first time it is seen.
        if let Some(stats) = self.phases.get_mut(phase) {
            stats.absorb(rounds, messages, words);
        } else {
            let mut stats = PhaseStats::default();
            stats.absorb(rounds, messages, words);
            self.phases.insert(phase.to_owned(), stats);
        }
    }
}

impl fmt::Display for RoundReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "n={} rounds={} messages={} words={}",
            self.n, self.rounds, self.messages, self.words
        )?;
        for (phase, stats) in &self.phases {
            writeln!(
                f,
                "  {:<40} rounds={:<8} msgs={:<10} words={}",
                phase, stats.rounds, stats.messages, stats.words
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates_totals_and_phases() {
        let mut m = RoundReport::new(8);
        m.record("a", 2, 10, 20);
        m.record("a", 1, 5, 5);
        m.record("b", 3, 0, 0);
        assert_eq!(m.rounds, 6);
        assert_eq!(m.messages, 15);
        assert_eq!(m.words, 25);
        assert_eq!(m.phases["a"].rounds, 3);
        assert_eq!(m.phases["a"].invocations, 2);
        assert_eq!(m.phases["b"].rounds, 3);
    }

    #[test]
    fn report_display_lists_phases() {
        let mut report = RoundReport::new(8);
        report.record("knearest/square", 4, 2, 2);
        let s = report.to_string();
        assert!(s.contains("rounds=4"));
        assert!(s.contains("knearest/square"));
    }
}
