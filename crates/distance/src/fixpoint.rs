//! The one hop loop: repeat a deterministic step until nothing changes.
//!
//! Theorem 18's squarings, the hopset's levels, the exact squaring
//! baselines and the witnessed paths all repeat a step a bounded number of
//! times, and on most inputs the iterate stops changing long before the
//! bound. Since the step is a function of the iterate, `f(x) = x` implies
//! `fᵏ(x) = x`: stopping at the first fixpoint returns the bound-iteration
//! output bit for bit.
//!
//! Theorem 19's `U_{i+1} = W ⋆ U_i` stops the same way but runs its own
//! loop, as its step reads only what the last one changed: it multiplies
//! the frontier, and a frontier with no entry is the fixpoint, which its
//! row counts show ([`crate::source_detection_all`]).
//!
//! Termination is detected inside the model, by the loop itself. After
//! each step every node compares what it now holds with what it held
//! (local, free), and before the next step every node broadcasts that
//! "changed" bit (one word, one round, charged under the phase leaf
//! `fixpoint`). Once no bit is set the loop ends. The first step has no bit
//! to send, and none is sent after the last one: a loop that runs `s` steps
//! pays `s − 1` flag rounds if the bound ends it and `s` if a flag round
//! does. A step never decides the exit; it only computes the next iterate.

use cc_clique::{Clique, CliqueError};

/// Applies `step` to the iterate until no node's part of it changes, at most
/// `bound` times, and returns the final iterate.
///
/// `start[v]` is what node `v` holds initially. `step(clique, held)` is
/// handed the whole iterate and returns the next one, which must be
/// deterministic in `held`. From the second step on, the loop first
/// broadcasts every node's bit of whether the previous step changed its part
/// (phase leaf `fixpoint`) and stops if no bit is set.
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
    let mut changed: Option<Vec<bool>> = None;
    for _ in 0..bound {
        if let Some(changed) = changed {
            let flags = clique.with_phase("fixpoint", |cl| cl.all_broadcast(changed))?;
            if !flags.contains(&true) {
                break;
            }
        }
        let next = step(clique, &held)?;
        if next.len() != clique.n() {
            return Err(CliqueError::WrongLength { expected: clique.n(), got: next.len() }.into());
        }
        changed = Some(next.iter().enumerate().map(|(v, x)| held.get(v) != Some(x)).collect());
        held = next;
    }
    Ok(held)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixpoint_rounds(clique: &Clique) -> u64 {
        clique.metrics().phases.get("fixpoint/all_broadcast").map_or(0, |p| p.rounds)
    }

    /// A step that adds one to every part, up to `cap`, and sends nothing.
    fn count_up(x: &[u32], cap: u32) -> Result<Vec<u32>, CliqueError> {
        Ok(x.iter().map(|&v| (v + 1).min(cap)).collect())
    }

    #[test]
    fn stops_one_step_after_the_last_change() {
        // Every node counts up to 3: steps 1..=3 change something, step 4
        // changes nothing, and the flag round before step 5 ends the loop.
        let mut clique = Clique::new(4);
        let mut steps = 0;
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 10, |_, x| {
            steps += 1;
            count_up(x, 3)
        });
        assert_eq!(out.unwrap(), vec![3; 4]);
        assert_eq!(steps, 4);
        assert_eq!(fixpoint_rounds(&clique), 4);
        assert_eq!(clique.rounds(), 4);
    }

    #[test]
    fn one_changing_node_keeps_everyone_going() {
        // Only node 0 changes, in steps 1..=9, and its bit keeps all four
        // going: a flag round precedes each of steps 2..=10, the bound ends
        // the loop after step 10, and no flag follows it.
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32, 9, 9, 9], 10, |_, x| count_up(x, 9));
        assert_eq!(out.unwrap(), vec![9; 4]);
        assert_eq!(fixpoint_rounds(&clique), 9);
    }

    #[test]
    fn a_standalone_flag_is_sent_between_steps_not_after_the_last() {
        // The bound binds: 5 steps, 4 flag rounds, each charged under the
        // caller's phase.
        let mut clique = Clique::new(4);
        let out = clique.with_phase("outer", |cl| {
            iterate_to_fixpoint(cl, vec![0u32; 4], 5, |_, x| count_up(x, u32::MAX))
        });
        assert_eq!(out.unwrap(), vec![5; 4]);
        assert_eq!(clique.metrics().phases["outer/fixpoint/all_broadcast"].invocations, 4);
        assert_eq!(clique.rounds(), 4);
    }

    #[test]
    fn a_bound_of_one_sends_no_flag() {
        // One step has no step before it to report on, and none after it.
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 1, |_, x| count_up(x, 3));
        assert_eq!(out.unwrap(), vec![1; 4]);
        assert_eq!(clique.rounds(), 0);
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
