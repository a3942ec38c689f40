//! The one hop loop: repeat a deterministic step until nothing changes.
//!
//! Theorem 19's `U_{i+1} = W ⋆ U_i`, Theorem 18's squarings, the hopset's
//! levels and the dense-squaring baseline all repeat a step a bounded number
//! of times, and on most inputs the iterate stops changing long before the
//! bound. Since the step is a function of the iterate, `f(x) = x` implies
//! `fᵏ(x) = x`: stopping at the first fixpoint returns the bound-iteration
//! output bit for bit.
//!
//! Termination is detected inside the model. After each step every node
//! compares what it now holds with what it held (local, free) and the nodes
//! exchange one-word "changed" flags by an `all_broadcast`, charged under the
//! phase leaf `fixpoint`; the loop ends when every flag is 0. When the bound
//! binds (a path, for hop-bounded detection) that is one extra round per
//! step and no step saved.

use cc_clique::{Clique, CliqueError};

/// Applies `step` to the iterate until no node's part of it changes, at most
/// `bound` times, and returns the final iterate.
///
/// `start[v]` is what node `v` holds initially; `step` maps the whole iterate
/// to the next one and must be deterministic in it.
///
/// # Errors
///
/// Whatever `step` returns, or a [`CliqueError`] (converted) if `step`
/// returns an iterate whose length is not the clique size.
pub fn iterate_to_fixpoint<T, E>(
    clique: &mut Clique,
    start: Vec<T>,
    bound: usize,
    mut step: impl FnMut(&mut Clique, &[T]) -> Result<Vec<T>, E>,
) -> Result<Vec<T>, E>
where
    T: PartialEq,
    E: From<CliqueError>,
{
    let mut held = start;
    for _ in 0..bound {
        let next = step(clique, &held)?;
        let changed: Vec<u64> =
            next.iter().enumerate().map(|(v, x)| u64::from(held.get(v) != Some(x))).collect();
        held = next;
        let changed = clique.with_phase("fixpoint", |cl| cl.all_broadcast(changed))?;
        if changed.iter().all(|&flag| flag == 0) {
            break;
        }
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixpoint_rounds(clique: &Clique) -> u64 {
        clique.metrics().phases["fixpoint/all_broadcast"].rounds
    }

    #[test]
    fn stops_one_step_after_the_last_change() {
        // Every node counts up to 3: steps 1..=3 change something, step 4
        // changes nothing and is the one that ends the loop.
        let mut clique = Clique::new(4);
        let mut steps = 0;
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 10, |_, x| {
            steps += 1;
            Ok::<_, CliqueError>(x.iter().map(|&v| (v + 1).min(3)).collect())
        })
        .unwrap();
        assert_eq!(out, vec![3; 4]);
        assert_eq!(steps, 4);
        assert_eq!(fixpoint_rounds(&clique), 4);
        assert_eq!(clique.rounds(), 4);
    }

    #[test]
    fn one_changing_node_keeps_everyone_going() {
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32, 9, 9, 9], 10, |_, x| {
            Ok::<_, CliqueError>(x.iter().map(|&v| (v + 1).min(9)).collect())
        })
        .unwrap();
        assert_eq!(out, vec![9; 4]);
        assert_eq!(fixpoint_rounds(&clique), 10);
    }

    #[test]
    fn the_bound_binds_and_costs_one_flag_round_per_step() {
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 5, |_, x| {
            Ok::<_, CliqueError>(x.iter().map(|&v| v + 1).collect())
        })
        .unwrap();
        assert_eq!(out, vec![5; 4]);
        assert_eq!(fixpoint_rounds(&clique), 5);
    }

    #[test]
    fn a_zero_bound_runs_nothing() {
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![7u32; 4], 0, |_, _| {
            Err::<Vec<u32>, _>(CliqueError::EmptyClique)
        })
        .unwrap();
        assert_eq!(out, vec![7; 4]);
        assert_eq!(clique.rounds(), 0);
    }

    #[test]
    fn step_errors_and_wrong_lengths_surface() {
        let mut clique = Clique::new(4);
        let err = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 3, |_, _| {
            Err::<Vec<u32>, _>(CliqueError::EmptyClique)
        });
        assert_eq!(err, Err(CliqueError::EmptyClique));
        let err = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 3, |_, _| {
            Ok::<_, CliqueError>(vec![0u32; 3])
        });
        assert!(matches!(err, Err(CliqueError::WrongLength { expected: 4, got: 3 })));
    }
}
