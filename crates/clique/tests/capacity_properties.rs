//! Property-based tests for the simulator's accounting invariants: round
//! charges always reflect the worst per-node load, delivery is lossless and
//! deterministic, and capacity rules can't be cheated.

use cc_clique::{Clique, CliqueError, CostModel, Envelope, Payload};
use proptest::prelude::*;

fn arb_msgs(n: usize, max: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..n, 0..n, 0u64..1000), 0..max)
}

fn envelopes(msgs: &[(usize, usize, u64)]) -> Vec<Envelope<u64>> {
    msgs.iter().map(|&(s, d, p)| Envelope::new(s, d, p)).collect()
}

/// `len` one-word messages from node 0 to nodes `1, 2, …` in turn.
fn from_node_0(n: usize, len: usize) -> Vec<Envelope<u64>> {
    (0..len).map(|i| Envelope::new(0, 1 + i % (n - 1), i as u64)).collect()
}

#[test]
fn route_together_charges_the_summed_load_once() {
    let n = 8;
    // Two half loads on node 0 fill one round together, as one batch would.
    let mut c = Clique::new(n);
    c.route_together([from_node_0(n, n / 2), from_node_0(n, n / 2)]).unwrap();
    assert_eq!(c.rounds(), 1);
    // Two full loads need two.
    let mut c = Clique::new(n);
    c.route_together([from_node_0(n, n), from_node_0(n, n)]).unwrap();
    assert_eq!(c.rounds(), 2);
    // Separately, the half loads would have cost a round each.
    let mut c = Clique::new(n);
    c.route(from_node_0(n, n / 2)).unwrap();
    c.route(from_node_0(n, n / 2)).unwrap();
    assert_eq!(c.rounds(), 2);
}

#[test]
fn route_together_of_empty_batches_is_free() {
    let mut c = Clique::new(5);
    let [a, b] = c.route_together([Vec::<Envelope<u64>>::new(), Vec::new()]).unwrap();
    assert!(a.iter().chain(&b).all(Vec::is_empty));
    assert_eq!((a.len(), b.len()), (5, 5));
    assert_eq!((c.rounds(), c.metrics().messages), (0, 0));
}

#[test]
fn route_together_rejects_a_bad_endpoint_in_any_batch_untouched() {
    let n = 4;
    for bad_batch in 0..3 {
        let mut batches = [from_node_0(n, 5), from_node_0(n, 3), from_node_0(n, 7)];
        batches[bad_batch].insert(1, Envelope::new(2, n + 1, 0));
        let mut c = Clique::new(n);
        c.charge("before", 2);
        let before = c.metrics().clone();
        let err = c.route_together(batches).unwrap_err();
        assert_eq!(err, CliqueError::InvalidNode { node: n + 1, n });
        assert_eq!(c.metrics(), &before, "batch {bad_batch}: a rejected call leaves no trace");
    }
}

proptest! {
    #[test]
    fn route_charges_exactly_ceil_of_max_load(msgs in arb_msgs(6, 120)) {
        let n = 6;
        let mut clique = Clique::new(n);
        let mut sent = vec![0u64; n];
        let mut recv = vec![0u64; n];
        for &(s, d, _) in &msgs {
            sent[s] += 1;
            recv[d] += 1;
        }
        let load = sent.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        let expected = if msgs.is_empty() { 0 } else { load.div_ceil(n as u64).max(1) };
        let inboxes = clique.route(envelopes(&msgs)).unwrap();
        prop_assert_eq!(clique.rounds(), expected);
        // Lossless: every message arrives exactly once.
        let delivered: usize = inboxes.iter().map(Vec::len).sum();
        prop_assert_eq!(delivered, msgs.len());
    }

    #[test]
    fn route_delivery_is_order_insensitive(msgs in arb_msgs(5, 40), seed in 0u64..1000) {
        // Shuffling the submission order must not change what arrives
        // (delivery is grouped by source, insertion-ordered per source —
        // so we compare as multisets per destination).
        let n = 5;
        let build = |order: &[usize]| {
            let mut clique = Clique::new(n);
            let envelopes: Vec<Envelope<u64>> =
                order.iter().map(|&i| msgs[i]).map(|(s, d, p)| Envelope::new(s, d, p)).collect();
            let mut inboxes = clique.route(envelopes).unwrap();
            for inbox in &mut inboxes {
                inbox.sort_by_key(|e| (e.src, e.payload));
            }
            (inboxes, clique.rounds())
        };
        let identity: Vec<usize> = (0..msgs.len()).collect();
        let mut shuffled = identity.clone();
        // Cheap deterministic shuffle.
        for i in (1..shuffled.len()).rev() {
            let j = (seed as usize).wrapping_mul(31).wrapping_add(i) % (i + 1);
            shuffled.swap(i, j);
        }
        let (a, ra) = build(&identity);
        let (b, rb) = build(&shuffled);
        prop_assert_eq!(a, b);
        prop_assert_eq!(ra, rb);
    }

    #[test]
    fn sort_is_a_permutation_and_batches_bounded(
        items in prop::collection::vec(prop::collection::vec(0u64..100, 0..8), 4)
    ) {
        let mut clique = Clique::new(4);
        let mut expected: Vec<u64> = items.iter().flatten().copied().collect();
        expected.sort_unstable();
        let out = clique.sort(items).unwrap();
        let flat: Vec<u64> = out.iter().flatten().copied().collect();
        prop_assert_eq!(flat, expected);
        let run = out.iter().map(Vec::len).max().unwrap_or(0);
        for (i, batch) in out.iter().enumerate() {
            // All batches except possibly trailing ones are full runs.
            prop_assert!(batch.len() <= run);
            if batch.is_empty() {
                prop_assert!(out.iter().skip(i).all(Vec::is_empty));
            }
        }
    }

    #[test]
    fn route_together_delivers_each_batch_as_route_would(
        a in arb_msgs(6, 50),
        b in arb_msgs(6, 50),
        c in arb_msgs(6, 50),
    ) {
        // Each batch's inboxes are those of routing it alone; the rounds are
        // those of routing the union: one ceiling of the summed loads.
        let n = 6;
        let batches = [&a, &b, &c].map(|msgs| envelopes(msgs));
        let mut together = Clique::new(n);
        let got = together.route_together(batches.clone()).unwrap();
        for (batch, inboxes) in batches.iter().zip(&got) {
            let mut alone = Clique::new(n);
            prop_assert_eq!(&alone.route(batch.clone()).unwrap(), inboxes);
        }
        let union: Vec<Envelope<u64>> = batches.concat();
        let mut once = Clique::new(n);
        once.route(union.clone()).unwrap();
        prop_assert_eq!(together.rounds(), once.rounds());
        prop_assert_eq!(together.metrics().messages, union.len() as u64);
        prop_assert_eq!(together.metrics().phases["route"].invocations, 1);
    }

    #[test]
    fn conservative_cost_model_scales_linearly(msgs in arb_msgs(6, 60)) {
        let mut unit = Clique::new(6);
        unit.route(envelopes(&msgs)).unwrap();
        let mut cons = Clique::with_cost_model(6, CostModel::conservative());
        cons.route(envelopes(&msgs)).unwrap();
        prop_assert_eq!(cons.rounds(), 16 * unit.rounds());
    }
}

/// A payload of one word (`None`) or three (`Some`), so that a load is not a
/// message count.
type Wide = Option<(u64, u64, u64)>;

fn wide(p: u64) -> Wide {
    p.is_multiple_of(2).then_some((p, p, p))
}

fn wide_envelopes(msgs: &[(usize, usize, u64)]) -> Vec<Envelope<Wide>> {
    msgs.iter().map(|&(s, d, p)| Envelope::new(s, d, wide(p))).collect()
}

/// The busiest node's words sent or received, summed over `batches`.
fn busiest_route_load(n: usize, batches: &[&[Envelope<Wide>]]) -> u64 {
    let (mut sent, mut recv) = (vec![0u64; n], vec![0u64; n]);
    for m in batches.iter().copied().flatten() {
        sent[m.src] += m.payload.words() as u64;
        recv[m.dst] += m.payload.words() as u64;
    }
    sent.into_iter().chain(recv).max().unwrap_or(0)
}

proptest! {
    #[test]
    fn every_primitive_charges_its_cost_rule_of_the_busiest_load(
        a in arb_msgs(6, 60),
        b in arb_msgs(6, 60),
        held in prop::collection::vec(prop::collection::vec(0u64..100, 0..20), 6),
        broadcast in prop::collection::vec(0u64..100, 6),
        conservative in 0u64..2,
    ) {
        let n = 6;
        let cost = if conservative == 1 { CostModel::conservative() } else { CostModel::unit() };
        let mut clique = Clique::with_cost_model(n, cost);
        let (a, b) = (wide_envelopes(&a), wide_envelopes(&b));

        let before = clique.rounds();
        clique.route(a.clone()).unwrap();
        prop_assert_eq!(clique.rounds() - before, cost.route_rounds(busiest_route_load(n, &[&a]), n));

        let before = clique.rounds();
        let load = busiest_route_load(n, &[&a, &b]);
        clique.route_together([a, b]).unwrap();
        prop_assert_eq!(clique.rounds() - before, cost.route_rounds(load, n));

        let held: Vec<Vec<Wide>> =
            held.iter().map(|items| items.iter().map(|&p| wide(p)).collect()).collect();
        let load = held.iter().map(|items| items.iter().map(|p| p.words() as u64).sum()).max();
        let before = clique.rounds();
        clique.sort(held).unwrap();
        prop_assert_eq!(clique.rounds() - before, cost.sort_rounds(load.unwrap_or(0), n));

        let entries: Vec<Wide> = broadcast.iter().map(|&p| wide(p)).collect();
        let widest = entries.iter().map(|p| p.words() as u64).max().unwrap_or(0);
        let before = clique.rounds();
        clique.all_broadcast(entries).unwrap();
        prop_assert_eq!(clique.rounds() - before, cost.broadcast_rounds(widest));
    }
}
