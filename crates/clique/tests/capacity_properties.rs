//! Property-based tests for the simulator's accounting invariants: round
//! charges always reflect the worst per-node load, delivery is lossless and
//! deterministic, and capacity rules can't be cheated.

use cc_clique::{Clique, CostModel, Envelope};
use proptest::prelude::*;

fn arb_msgs(n: usize, max: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0..n, 0..n, 0u64..1000), 0..max)
}

proptest! {
    #[test]
    fn route_charges_exactly_ceil_of_max_load(msgs in arb_msgs(6, 120)) {
        let n = 6;
        let mut clique = Clique::new(n);
        let envelopes: Vec<Envelope<u64>> =
            msgs.iter().map(|&(s, d, p)| Envelope::new(s, d, p)).collect();
        let mut sent = vec![0u64; n];
        let mut recv = vec![0u64; n];
        for &(s, d, _) in &msgs {
            sent[s] += 1;
            recv[d] += 1;
        }
        let load = sent.iter().chain(recv.iter()).copied().max().unwrap_or(0);
        let expected = if msgs.is_empty() { 0 } else { load.div_ceil(n as u64).max(1) };
        let inboxes = clique.route(envelopes).unwrap();
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
    fn conservative_cost_model_scales_linearly(msgs in arb_msgs(6, 60)) {
        let envelopes = |v: &Vec<(usize, usize, u64)>| -> Vec<Envelope<u64>> {
            v.iter().map(|&(s, d, p)| Envelope::new(s, d, p)).collect()
        };
        let mut unit = Clique::new(6);
        unit.route(envelopes(&msgs)).unwrap();
        let mut cons = Clique::with_cost_model(6, CostModel::conservative());
        cons.route(envelopes(&msgs)).unwrap();
        prop_assert_eq!(cons.rounds(), 16 * unit.rounds());
    }
}
