/// Round-cost constants for the simulator primitives, and the only three
/// rules that turn a load into rounds: [`Clique`](crate::Clique)'s
/// primitives charge through them and the product planner predicts through
/// them, so a prediction cannot drift from the charge it models.
///
/// The paper charges `O(1)` rounds for Lenzen routing and sorting and absorbs
/// the constants. The simulator makes the constants explicit and
/// configurable so that experiments can check that *relative* results (which
/// algorithm wins, where crossovers fall) are insensitive to them:
///
/// * [`CostModel::unit`] (the default) charges one round per `n`-word batch
///   per primitive invocation — the information-theoretic floor, which makes
///   round counts directly readable against the paper's bounds.
/// * [`CostModel::conservative`] charges the constants from Lenzen's
///   deterministic routing/sorting papers (16 and 10 rounds per batch).
///
/// # Example
///
/// ```
/// use cc_clique::{Clique, CostModel};
///
/// let cons = Clique::with_cost_model(8, CostModel::conservative());
/// assert_eq!(cons.cost_model().route_rounds(9, 8), 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    /// Rounds charged per `n`-word-per-node batch delivered by routing.
    route_per_unit: u64,
    /// Rounds charged per `n`-word-per-node batch handled by sorting.
    sort_per_unit: u64,
    /// Rounds charged per broadcast word.
    broadcast_per_unit: u64,
}

impl CostModel {
    /// One round per full-bandwidth batch: the reading most aligned with the
    /// paper's asymptotic statements.
    pub fn unit() -> Self {
        CostModel { route_per_unit: 1, sort_per_unit: 1, broadcast_per_unit: 1 }
    }

    /// Constants taken from Lenzen's deterministic routing (16 rounds) and
    /// sorting (10 rounds) algorithms; useful for sensitivity analysis.
    pub fn conservative() -> Self {
        CostModel { route_per_unit: 16, sort_per_unit: 10, broadcast_per_unit: 1 }
    }

    /// Lenzen's routing on `n` nodes whose busiest node sends or receives
    /// `load` words: one unit per `⌈load/n⌉`.
    pub fn route_rounds(&self, load: u64, n: usize) -> u64 {
        self.route_per_unit * load.div_ceil(n as u64)
    }

    /// Lenzen's sorting on `n` nodes whose busiest node holds `load` words:
    /// one unit per `⌈load/n⌉`.
    pub fn sort_rounds(&self, load: u64, n: usize) -> u64 {
        self.sort_per_unit * load.div_ceil(n as u64)
    }

    /// An all-to-all broadcast whose widest entry is `words` words: one
    /// unit per word, and at least one.
    pub fn broadcast_rounds(&self, words: u64) -> u64 {
        self.broadcast_per_unit * words.max(1)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::unit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_unit() {
        assert_eq!(CostModel::default(), CostModel::unit());
    }

    #[test]
    fn conservative_dominates_unit() {
        let u = CostModel::unit();
        let c = CostModel::conservative();
        for load in [0, 1, 7, 8, 9, 100] {
            assert!(c.route_rounds(load, 8) >= u.route_rounds(load, 8));
            assert!(c.sort_rounds(load, 8) >= u.sort_rounds(load, 8));
            assert!(c.broadcast_rounds(load) >= u.broadcast_rounds(load));
        }
    }

    #[test]
    fn rules_charge_per_started_unit() {
        let c = CostModel::conservative();
        assert_eq!([0, 1, 4, 5, 8].map(|load| c.route_rounds(load, 4)), [0, 16, 16, 32, 32]);
        assert_eq!([0, 1, 4, 5, 8].map(|load| c.sort_rounds(load, 4)), [0, 10, 10, 20, 20]);
        assert_eq!([0, 1, 3].map(|words| c.broadcast_rounds(words)), [1, 1, 3]);
    }
}
