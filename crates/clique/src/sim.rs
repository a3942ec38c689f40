use crate::{CliqueError, CostModel, NodeId, Payload, Result, RoundReport};

/// A message in flight: `payload` travelling from `src` to `dst`.
///
/// # Example
///
/// ```
/// use cc_clique::Envelope;
///
/// let e = Envelope::new(0, 3, (7u32, 9u64));
/// assert_eq!(e.src, 0);
/// assert_eq!(e.dst, 3);
/// assert_eq!(e.payload, (7, 9));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<T> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// The message content.
    pub payload: T,
}

impl<T> Envelope<T> {
    /// Creates a new envelope.
    pub fn new(src: NodeId, dst: NodeId, payload: T) -> Self {
        Envelope { src, dst, payload }
    }
}

/// The Congested Clique simulator: `n` nodes, full connectivity, synchronous
/// rounds, `O(log n)`-bit messages.
///
/// A `Clique` owns no algorithm state — algorithms keep per-node state in
/// their own `Vec`s indexed by [`NodeId`] and call the primitives here for
/// every piece of cross-node communication. The simulator physically delivers
/// the data, enforces the model's bandwidth constraints and accounts rounds
/// (see the [crate docs](crate) for the cost contract of each primitive).
///
/// # Example
///
/// ```
/// use cc_clique::{Clique, Envelope};
///
/// # fn main() -> Result<(), cc_clique::CliqueError> {
/// let mut clique = Clique::new(8);
/// // All-to-all: every node tells every other node its id.
/// let ids: Vec<u64> = (0..8u64).collect();
/// let known = clique.all_broadcast(ids)?;
/// assert_eq!(known[5], 5);
/// assert_eq!(clique.metrics().rounds, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Clique {
    n: usize,
    cost: CostModel,
    /// The running totals; [`Clique::report`] clones them.
    report: RoundReport,
    /// The open phases' labels joined with `/`, maintained incrementally by
    /// [`Clique::with_phase`] so that recording a primitive allocates nothing.
    phase_prefix: String,
    /// Number of open phases (an empty label still counts as one).
    phase_depth: usize,
}

impl Clique {
    /// Creates a clique of `n` nodes with the default (unit) cost model.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::with_cost_model(n, CostModel::default())
    }

    /// Creates a clique of `n` nodes with an explicit [`CostModel`].
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn with_cost_model(n: usize, cost: CostModel) -> Self {
        assert!(n > 0, "a congested clique needs at least one node");
        Clique { n, cost, report: RoundReport::new(n), phase_prefix: String::new(), phase_depth: 0 }
    }

    /// Number of nodes in the clique.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The cost model in effect.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// The running totals since construction.
    pub fn metrics(&self) -> &RoundReport {
        &self.report
    }

    /// Total rounds charged so far.
    pub fn rounds(&self) -> u64 {
        self.report.rounds
    }

    /// A snapshot of the running totals.
    pub fn report(&self) -> RoundReport {
        self.report.clone()
    }

    /// Runs `f` with all communication attributed to phase `label`.
    ///
    /// Phases nest; nested labels are joined with `/` in the metrics
    /// breakdown.
    ///
    /// # Example
    ///
    /// ```
    /// use cc_clique::Clique;
    ///
    /// let mut clique = Clique::new(4);
    /// clique.with_phase("apsp", |c| {
    ///     c.with_phase("knearest", |c| c.charge("inner", 2));
    /// });
    /// assert!(clique.metrics().phases.contains_key("apsp/knearest/inner"));
    /// ```
    pub fn with_phase<R>(&mut self, label: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        let mark = self.phase_prefix.len();
        if self.phase_depth > 0 {
            self.phase_prefix.push('/');
        }
        self.phase_prefix.push_str(label);
        self.phase_depth += 1;
        let out = f(self);
        self.phase_depth -= 1;
        self.phase_prefix.truncate(mark);
        out
    }

    /// Records one primitive invocation under the current phase, with `leaf`
    /// appended to the label (in place, then removed again).
    fn record(&mut self, leaf: &str, rounds: u64, messages: u64, words: u64) {
        let mark = self.phase_prefix.len();
        if self.phase_depth > 0 && !leaf.is_empty() {
            self.phase_prefix.push('/');
        }
        self.phase_prefix.push_str(leaf);
        self.report.record(&self.phase_prefix, rounds, messages, words);
        self.phase_prefix.truncate(mark);
    }

    fn check_node(&self, v: NodeId) -> Result<()> {
        if v >= self.n {
            Err(CliqueError::InvalidNode { node: v, n: self.n })
        } else {
            Ok(())
        }
    }

    fn check_len<T>(&self, per_node: &[T]) -> Result<()> {
        if per_node.len() != self.n {
            Err(CliqueError::WrongLength { expected: self.n, got: per_node.len() })
        } else {
            Ok(())
        }
    }

    /// Charges `rounds` rounds explicitly, attributed to the current phase.
    ///
    /// Used for primitives whose cost is cited from the literature rather
    /// than decomposed into routing. Three sites charge in this workspace:
    /// the Lemma 4 hitting set (`O((log log n)³)`), the spanner baseline's
    /// cited construction, and diameter's `N_k(w)` announcement.
    pub fn charge(&mut self, label: &str, rounds: u64) {
        self.record(label, rounds, 0, 0);
    }

    /// Delivers an arbitrary message pattern via Lenzen's routing.
    ///
    /// Returns the inbox of every node (indexed by destination, messages in
    /// deterministic `(src, insertion)` order). With per-node load
    /// `L = max_v max(sent_v, received_v)` words, charges
    /// [`CostModel::route_rounds`] of `L` — `O(1)` whenever every node sends
    /// and receives at most `n` words, exactly the contract the paper uses.
    ///
    /// # Errors
    ///
    /// Returns [`CliqueError::InvalidNode`] if any envelope references a node
    /// outside the clique.
    pub fn route<T: Payload>(&mut self, msgs: Vec<Envelope<T>>) -> Result<Vec<Vec<Envelope<T>>>> {
        let [inboxes] = self.route_together([msgs])?;
        Ok(inboxes)
    }

    /// Delivers `K` independent message patterns in shared rounds: Lenzen's
    /// routing of their union.
    ///
    /// Returns one set of inboxes per batch, each exactly what
    /// [`Clique::route`] of that batch alone returns. With per-node load
    /// `L = max_v max(Σ_b sent_v, Σ_b received_v)` words summed over the
    /// batches, charges [`CostModel::route_rounds`] of `L` once — not a sum
    /// of per-batch ceilings. Batches that are all empty are free; a
    /// non-empty batch of zero-word envelopes is charged as load 1.
    ///
    /// # Errors
    ///
    /// Returns [`CliqueError::InvalidNode`] if any envelope of any batch
    /// references a node outside the clique; no metric is touched then.
    pub fn route_together<T: Payload, const K: usize>(
        &mut self,
        batches: [Vec<Envelope<T>>; K],
    ) -> Result<[Vec<Vec<Envelope<T>>>; K]> {
        // The one pass over the batches: validate, sum the loads, count each
        // inbox and notice whether each batch already is in `src` order.
        let mut sent = vec![0u64; self.n];
        let mut recv = vec![0u64; self.n];
        let mut shapes = [(); K].map(|()| (vec![0usize; self.n], true));
        let (mut messages, mut words) = (0u64, 0u64);
        for (msgs, (inbox_len, in_src_order)) in batches.iter().zip(&mut shapes) {
            let mut prev_src = 0;
            for m in msgs {
                self.check_node(m.src)?;
                self.check_node(m.dst)?;
                let w = m.payload.words() as u64;
                sent[m.src] += w;
                recv[m.dst] += w;
                inbox_len[m.dst] += 1;
                words += w;
                *in_src_order &= prev_src <= m.src;
                prev_src = m.src;
            }
            messages += msgs.len() as u64;
        }
        let load = sent.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        let load = if messages == 0 { 0 } else { load.max(1) };
        self.record("route", self.cost.route_rounds(load, self.n), messages, words);

        // Deterministic delivery order: stable by source, preserving the
        // per-source insertion order. Callers almost always emit per source
        // in ascending order, so the sort is the exception.
        let mut shapes = shapes.into_iter();
        Ok(batches.map(|mut msgs| {
            let (inbox_len, in_src_order) = shapes.next().expect("one shape per batch");
            if !in_src_order {
                msgs.sort_by_key(|m| m.src);
            }
            let mut inboxes: Vec<Vec<Envelope<T>>> =
                inbox_len.into_iter().map(Vec::with_capacity).collect();
            for m in msgs {
                inboxes[m.dst].push(m);
            }
            inboxes
        }))
    }

    /// Every node broadcasts its entry of `per_node` to every other node.
    ///
    /// After this call all nodes know the whole vector, which is returned.
    /// Charges [`CostModel::broadcast_rounds`] of `max_v words_v`: each node
    /// can deliver one word to all others per round.
    ///
    /// # Errors
    ///
    /// Returns [`CliqueError::WrongLength`] if `per_node.len() != n`.
    pub fn all_broadcast<T: Payload>(&mut self, per_node: Vec<T>) -> Result<Vec<T>> {
        self.check_len(&per_node)?;
        let max_w = per_node.iter().map(|p| p.words() as u64).max().unwrap_or(0);
        let total_w: u64 = per_node.iter().map(|p| p.words() as u64).sum();
        let rounds = self.cost.broadcast_rounds(max_w);
        let fanout = self.n as u64 - 1;
        self.record("all_broadcast", rounds, self.n as u64 * fanout, total_w * fanout);
        Ok(per_node)
    }

    /// Globally sorts all items via Lenzen's sorting algorithm.
    ///
    /// Input: each node holds a batch of comparable items. Output: node `i`
    /// receives the `i`-th contiguous run of the global sorted order, with
    /// run length `ceil(total/n)` (the last run may be shorter). With
    /// `L = max_v items_v · words_per_item`, charges
    /// [`CostModel::sort_rounds`] of `L` — `O(1)` when every node holds at
    /// most `n` words, the precondition of Lenzen's algorithm. For `L > n`
    /// the charge grows linearly in `L/n`, what moving every node's items
    /// in `ceil(L/n)` batches of `n` words costs. Lemma 13's summation
    /// relies on that charge: it sorts every node's whole list of
    /// intermediate values in one call.
    ///
    /// Ties are broken by the items' full `Ord`; callers that need a strict
    /// global order should include a tiebreaker (e.g. `(key, src, seq)`).
    ///
    /// # Errors
    ///
    /// Returns [`CliqueError::WrongLength`] if `per_node.len() != n`.
    pub fn sort<T: Payload + Ord>(&mut self, per_node: Vec<Vec<T>>) -> Result<Vec<Vec<T>>> {
        self.check_len(&per_node)?;
        let mut load = 0u64;
        let mut total_words = 0u64;
        let mut total = 0usize;
        for items in &per_node {
            let w: u64 = items.iter().map(|it| it.words() as u64).sum();
            load = load.max(w);
            total_words += w;
            total += items.len();
        }
        let load = if total == 0 { 0 } else { load.max(1) };
        self.record("sort", self.cost.sort_rounds(load, self.n), total as u64, total_words);

        let mut all: Vec<T> = Vec::with_capacity(total);
        for items in per_node {
            all.extend(items);
        }
        all.sort();
        let run = total.div_ceil(self.n).max(1);
        let mut out: Vec<Vec<T>> = Vec::with_capacity(self.n);
        let mut iter = all.into_iter();
        for _ in 0..self.n {
            // `Take` of an exact-size iterator: one allocation of the run's
            // exact length.
            out.push(iter.by_ref().take(run).collect());
        }
        debug_assert!(iter.next().is_none());
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let _ = Clique::new(0);
    }

    #[test]
    fn route_unit_load_costs_one_round() {
        let mut c = Clique::new(4);
        let msgs = (0..4).map(|v| Envelope::new(v, (v + 1) % 4, v as u64)).collect();
        let inboxes = c.route(msgs).unwrap();
        assert_eq!(c.rounds(), 1);
        assert_eq!(inboxes.iter().map(Vec::len).sum::<usize>(), 4);
        assert_eq!(inboxes[1][0].payload, 0);
    }

    #[test]
    fn route_empty_is_free() {
        let mut c = Clique::new(4);
        let inboxes = c.route(Vec::<Envelope<u64>>::new()).unwrap();
        assert_eq!(c.rounds(), 0);
        assert!(inboxes.iter().all(Vec::is_empty));
    }

    #[test]
    fn route_overloaded_receiver_charges_extra_rounds() {
        let n = 4;
        let mut c = Clique::new(n);
        // Node 0 receives 3 words from each node (12 words total > n=4):
        // ceil(12/4) = 3 rounds.
        let msgs = (0..n).map(|v| Envelope::new(v, 0, [v as u64; 3])).collect();
        c.route(msgs).unwrap();
        assert_eq!(c.rounds(), 3);
    }

    #[test]
    fn route_overloaded_sender_charges_extra_rounds() {
        let n = 4;
        let mut c = Clique::new(n);
        // Node 0 sends 2 words to each node: 8 words, ceil(8/4) = 2 rounds.
        let msgs = (0..n).map(|d| Envelope::new(0, d, (1u64, 2u64))).collect();
        c.route(msgs).unwrap();
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    fn route_rejects_bad_node() {
        let mut c = Clique::new(4);
        let err = c.route(vec![Envelope::new(0, 9, 1u64)]).unwrap_err();
        assert_eq!(err, CliqueError::InvalidNode { node: 9, n: 4 });
    }

    #[test]
    fn route_is_deterministic() {
        let build = || {
            vec![
                Envelope::new(3, 0, 30u64),
                Envelope::new(1, 0, 10u64),
                Envelope::new(1, 0, 11u64),
                Envelope::new(2, 0, 20u64),
            ]
        };
        let mut c1 = Clique::new(4);
        let mut c2 = Clique::new(4);
        let a = c1.route(build()).unwrap();
        let b = c2.route(build()).unwrap();
        assert_eq!(a, b);
        // Sorted by src, insertion order within src.
        let payloads: Vec<u64> = a[0].iter().map(|e| e.payload).collect();
        assert_eq!(payloads, vec![10, 11, 20, 30]);
    }

    #[test]
    fn all_broadcast_charges_max_words() {
        let mut c = Clique::new(3);
        let data = vec![vec![], vec![1u64, 2, 3], vec![9]];
        // Vec<T> is not Payload; use fixed tuples instead to model words.
        drop(data);
        let per_node = vec![(1u64, 1u64), (2, 2), (3, 3)];
        let out = c.all_broadcast(per_node.clone()).unwrap();
        assert_eq!(out, per_node);
        assert_eq!(c.rounds(), 2);
    }

    #[test]
    fn all_broadcast_rejects_wrong_length() {
        let mut c = Clique::new(3);
        let err = c.all_broadcast(vec![1u64]).unwrap_err();
        assert_eq!(err, CliqueError::WrongLength { expected: 3, got: 1 });
    }

    #[test]
    fn sort_orders_globally_and_batches() {
        let mut c = Clique::new(3);
        let input = vec![vec![5u64, 1], vec![4, 4], vec![2, 0]];
        let out = c.sort(input).unwrap();
        assert_eq!(out, vec![vec![0, 1], vec![2, 4], vec![4, 5]]);
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn sort_charges_by_load() {
        let mut c = Clique::new(2);
        // Node 0 holds 6 one-word items; load 6, n = 2 => 3 rounds.
        let out = c.sort(vec![vec![6u64, 5, 4, 3, 2, 1], vec![]]).unwrap();
        assert_eq!(c.rounds(), 3);
        assert_eq!(out[0], vec![1, 2, 3]);
        assert_eq!(out[1], vec![4, 5, 6]);
    }

    #[test]
    fn phases_nest_in_metrics() {
        let mut c = Clique::new(2);
        c.with_phase("outer", |c| {
            c.with_phase("inner", |c| {
                c.route(vec![Envelope::new(0, 1, 1u64)]).unwrap();
            });
        });
        assert!(c.metrics().phases.contains_key("outer/inner/route"));
        assert_eq!(c.rounds(), 1);
    }

    #[test]
    fn report_snapshots_metrics() {
        let mut c = Clique::new(2);
        c.charge("x", 5);
        let r = c.report();
        assert_eq!(r.rounds, 5);
        assert_eq!(r.n, 2);
    }

    #[test]
    fn conservative_cost_model_scales_route() {
        let mut c = Clique::with_cost_model(4, CostModel::conservative());
        c.route(vec![Envelope::new(0, 1, 1u64)]).unwrap();
        assert_eq!(c.rounds(), 16);
    }

    /// The delivery contract, written the slow way: stable-sort the batch by
    /// `src`, then bucket by `dst`.
    fn route_reference<T: Clone>(n: usize, msgs: &[Envelope<T>]) -> Vec<Vec<Envelope<T>>> {
        let mut sorted = msgs.to_vec();
        sorted.sort_by_key(|m| m.src);
        let mut inboxes = vec![Vec::new(); n];
        for m in sorted {
            inboxes[m.dst].push(m);
        }
        inboxes
    }

    /// `len` envelopes over `n` nodes with sources drawn by `src_of(index)`;
    /// the payload is the insertion index, so order mistakes are visible.
    fn batch(n: usize, len: usize, src_of: impl Fn(usize) -> usize) -> Vec<Envelope<u64>> {
        (0..len).map(|i| Envelope::new(src_of(i) % n, (i * 7 + i / 3) % n, i as u64)).collect()
    }

    #[test]
    fn route_delivers_like_stable_sort_then_bucket() {
        let n = 6;
        let len = 50;
        let cases: [(&str, Vec<Envelope<u64>>); 4] = [
            ("already in src order", batch(n, len, |i| i * n / len)),
            ("reverse src order", batch(n, len, |i| (len - 1 - i) * n / len)),
            ("interleaved", batch(n, len, |i| i * 5 + i / 4)),
            ("single source", batch(n, len, |_| 3)),
        ];
        for (what, msgs) in cases {
            let mut c = Clique::new(n);
            let got = c.route(msgs.clone()).unwrap();
            assert_eq!(got, route_reference(n, &msgs), "{what}");
            assert_eq!(c.metrics().messages, len as u64, "{what}");
        }
    }

    #[test]
    fn route_inboxes_are_allocated_at_their_final_size() {
        let n = 5;
        for msgs in [batch(n, 40, |i| i / 8), batch(n, 40, |i| 40 - i), Vec::new()] {
            let mut c = Clique::new(n);
            for inbox in c.route(msgs).unwrap() {
                assert_eq!(inbox.capacity(), inbox.len(), "an inbox grew or was over-reserved");
            }
        }
    }

    #[test]
    fn route_error_anywhere_in_the_batch_charges_nothing() {
        let n = 4;
        for bad_at in [0, 7, 19] {
            for bad_src in [true, false] {
                let mut msgs = batch(n, 20, |i| i / 5);
                let bad = if bad_src { Envelope::new(n, 0, 0) } else { Envelope::new(0, n + 3, 0) };
                let node = if bad_src { n } else { n + 3 };
                msgs.insert(bad_at, bad);
                let mut c = Clique::new(n);
                c.charge("before", 2);
                let before = c.metrics().clone();
                let err = c.route(msgs).unwrap_err();
                assert_eq!(err, CliqueError::InvalidNode { node, n });
                assert_eq!(c.rounds(), 2);
                assert_eq!(c.metrics(), &before, "a rejected batch must leave no trace");
            }
        }
    }

    #[test]
    fn sort_matches_flatten_sort_chunk() {
        let n = 5;
        for total in [0usize, 1, 4, 5, 6, 23] {
            let per_node: Vec<Vec<(u64, u64)>> = (0..n)
                .map(|v| {
                    (0..total)
                        .filter(|i| (i * 3 + 1) % n == v)
                        .map(|i| ((i * 37 % 11) as u64, i as u64))
                        .collect()
                })
                .collect();
            let mut all: Vec<(u64, u64)> = per_node.iter().flatten().copied().collect();
            all.sort();
            let run = total.div_ceil(n).max(1);
            let mut expected: Vec<Vec<(u64, u64)>> = all.chunks(run).map(<[_]>::to_vec).collect();
            expected.resize(n, Vec::new());
            let mut c = Clique::new(n);
            assert_eq!(c.sort(per_node).unwrap(), expected, "total = {total}");
            assert_eq!(c.metrics().messages, total as u64);
            assert_eq!(c.metrics().words, 2 * total as u64);
        }
    }

    /// The phase label as it was first defined: the open labels and the
    /// primitive's leaf joined with `/`.
    fn phase_label_reference(stack: &[&str], leaf: &str) -> String {
        if stack.is_empty() {
            leaf.to_owned()
        } else {
            let mut s = stack.join("/");
            if !leaf.is_empty() {
                s.push('/');
                s.push_str(leaf);
            }
            s
        }
    }

    #[test]
    fn incremental_phase_prefix_matches_joining_the_stack() {
        let stacks: [&[&str]; 6] =
            [&[], &["a"], &["a", "b/c", "d"], &[""], &["", "x"], &["x", "", "y"]];
        for stack in stacks {
            for leaf in ["route", ""] {
                fn nest(c: &mut Clique, stack: &[&str], leaf: &str) {
                    match stack.split_first() {
                        Some((label, rest)) => c.with_phase(label, |c| nest(c, rest, leaf)),
                        None => c.charge(leaf, 1),
                    }
                }
                let mut c = Clique::new(2);
                nest(&mut c, stack, leaf);
                let want = phase_label_reference(stack, leaf);
                assert_eq!(c.metrics().phases.keys().collect::<Vec<_>>(), vec![&want]);
                // The prefix is restored on the way out.
                c.charge("after", 1);
                assert!(c.metrics().phases.contains_key("after"));
            }
        }
    }
}
