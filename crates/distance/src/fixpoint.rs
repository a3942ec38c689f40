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
//! Termination is detected inside the model. After each step every node
//! compares what it now holds with what it held (local, free), and the next
//! step opens by broadcasting that "changed" bit. A step that opens with a
//! counts broadcast carries the bit in the high bit of its count word
//! ([`cc_matmul::layout::broadcast_counts`]), at no extra round; any other
//! step spends one flag round on it ([`broadcast_changed`], charged under the
//! phase leaf `fixpoint`). Once no bit is set the step stops before anything
//! else and the loop ends. The first step has no bit to send, and none is
//! sent after the last one: when the bound binds (a path, for hop-bounded
//! detection), the loop costs no round beyond its steps.

use cc_clique::{Clique, CliqueError};

/// Applies `step` to the iterate until no node's part of it changes, at most
/// `bound` times, and returns the final iterate.
///
/// `start[v]` is what node `v` holds initially. `step(clique, held, changed)`
/// is handed the whole iterate and, from the second step on, each node's bit
/// of whether the previous step changed its part (`None` on the first step).
/// It opens by broadcasting those bits — folded into its first counts
/// broadcast or by [`broadcast_changed`] — and returns `Ok(None)` if the
/// broadcast showed no bit set, or else `Ok(Some(next))`, the next iterate,
/// which must be deterministic in `held`.
///
/// # Errors
///
/// Whatever `step` returns, or a [`CliqueError`] (converted) if `step`
/// returns an iterate whose length is not the clique size.
pub fn iterate_to_fixpoint<T, E>(
    clique: &mut Clique,
    start: Vec<T>,
    bound: usize,
    mut step: impl FnMut(&mut Clique, &[T], Option<&[bool]>) -> Result<Option<Vec<T>>, E>,
) -> Result<Vec<T>, E>
where
    T: PartialEq,
    E: From<CliqueError>,
{
    let mut held = start;
    let mut changed: Option<Vec<bool>> = None;
    for _ in 0..bound {
        let Some(next) = step(clique, &held, changed.as_deref())? else { break };
        if next.len() != clique.n() {
            return Err(CliqueError::WrongLength { expected: clique.n(), got: next.len() }.into());
        }
        changed = Some(next.iter().enumerate().map(|(v, x)| held.get(v) != Some(x)).collect());
        held = next;
    }
    Ok(held)
}

/// The standalone flag round, for a step that does not open with a counts
/// broadcast: every node broadcasts its bit of `changed` (one word). Returns
/// `None` on the first step, which sends nothing, and else whether any bit
/// was set.
///
/// # Errors
///
/// Returns [`CliqueError::WrongLength`] if `changed` is not one bit per node.
pub fn broadcast_changed(
    clique: &mut Clique,
    changed: Option<&[bool]>,
) -> Result<Option<bool>, CliqueError> {
    let Some(changed) = changed else { return Ok(None) };
    let flags = clique.with_phase("fixpoint", |cl| cl.all_broadcast(changed.to_vec()))?;
    Ok(Some(flags.contains(&true)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_matmul::{layout, MatmulError};
    use cc_matrix::{Dist, MinPlus, SparseRow};

    fn fixpoint_rounds(clique: &Clique) -> u64 {
        clique.metrics().phases.get("fixpoint/all_broadcast").map_or(0, |p| p.rounds)
    }

    /// A step that opens with a standalone flag round and then adds one to
    /// every part, up to `cap`.
    fn count_up(
        clique: &mut Clique,
        x: &[u32],
        changed: Option<&[bool]>,
        cap: u32,
    ) -> Result<Option<Vec<u32>>, CliqueError> {
        if broadcast_changed(clique, changed)? == Some(false) {
            return Ok(None);
        }
        Ok(Some(x.iter().map(|&v| (v + 1).min(cap)).collect()))
    }

    #[test]
    fn stops_one_step_after_the_last_change() {
        // Every node counts up to 3: steps 1..=3 change something, step 4
        // changes nothing, and step 5's opening flag round ends the loop.
        let mut clique = Clique::new(4);
        let mut steps = 0;
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 10, |cl, x, changed| {
            let next = count_up(cl, x, changed, 3)?;
            steps += usize::from(next.is_some());
            Ok::<_, CliqueError>(next)
        });
        assert_eq!(out.unwrap(), vec![3; 4]);
        assert_eq!(steps, 4);
        assert_eq!(fixpoint_rounds(&clique), 4);
        assert_eq!(clique.rounds(), 4);
    }

    #[test]
    fn one_changing_node_keeps_everyone_going() {
        // Only node 0 changes, in steps 1..=9, and its bit keeps all four
        // going: steps 2..=10 open with a flag round, the bound ends the
        // loop after step 10, and no flag follows it.
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32, 9, 9, 9], 10, |cl, x, changed| {
            count_up(cl, x, changed, 9)
        });
        assert_eq!(out.unwrap(), vec![9; 4]);
        assert_eq!(fixpoint_rounds(&clique), 9);
    }

    #[test]
    fn a_standalone_flag_is_sent_between_steps_not_after_the_last() {
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 5, |cl, x, changed| {
            count_up(cl, x, changed, u32::MAX)
        });
        assert_eq!(out.unwrap(), vec![5; 4]);
        assert_eq!(fixpoint_rounds(&clique), 4);
    }

    /// Row `v` of the iterate: `len` entries in columns `0..len`.
    fn row(len: u32) -> SparseRow<Dist> {
        SparseRow::from_entries::<MinPlus>((0..len).map(|c| (c, Dist::fin(1))).collect())
    }

    /// A step that opens with a counts broadcast carrying the flags and then
    /// grows every row by one entry, up to `cap`.
    fn grow_rows(
        clique: &mut Clique,
        rows: &[SparseRow<Dist>],
        changed: Option<&[bool]>,
        cap: u32,
    ) -> Result<Option<Vec<SparseRow<Dist>>>, MatmulError> {
        let counts = layout::broadcast_counts(clique, rows, None, changed)?;
        if counts.flagged() == Some(false) {
            return Ok(None);
        }
        Ok(Some(counts.per_node().iter().map(|&len| row((len as u32 + 1).min(cap))).collect()))
    }

    #[test]
    fn a_bound_binding_loop_with_folded_flags_pays_no_flag_round() {
        // Every step changes every row, so the bound binds: 5 steps, 5
        // counts broadcasts, and not one flag round.
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![row(0); 4], 5, |cl, rows, changed| {
            grow_rows(cl, rows, changed, u32::MAX)
        });
        assert_eq!(out.unwrap(), vec![row(5); 4]);
        assert_eq!(fixpoint_rounds(&clique), 0);
        assert_eq!(clique.metrics().phases["counts/all_broadcast"].invocations, 5);
        assert_eq!(clique.rounds(), 5);
    }

    #[test]
    fn folded_flags_end_the_loop_at_the_counts_broadcast() {
        // Rows grow to 2 entries in steps 1..=2, step 3 changes nothing, and
        // step 4's counts broadcast carries no set bit: the loop ends there,
        // 4 rounds in all, where a flag round after every step costs 6.
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![row(0); 4], 10, |cl, rows, changed| {
            grow_rows(cl, rows, changed, 2)
        });
        assert_eq!(out.unwrap(), vec![row(2); 4]);
        assert_eq!(fixpoint_rounds(&clique), 0);
        assert_eq!(clique.rounds(), 4);
    }

    #[test]
    fn a_zero_bound_runs_nothing() {
        let mut clique = Clique::new(4);
        let out = iterate_to_fixpoint(&mut clique, vec![7u32; 4], 0, |_, _, _| {
            Err::<Option<Vec<u32>>, _>(CliqueError::EmptyClique)
        })
        .unwrap();
        assert_eq!(out, vec![7; 4]);
        assert_eq!(clique.rounds(), 0);
    }

    #[test]
    fn step_errors_and_wrong_lengths_surface() {
        let mut clique = Clique::new(4);
        let err = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 3, |_, _, _| {
            Err::<Option<Vec<u32>>, _>(CliqueError::EmptyClique)
        });
        assert_eq!(err, Err(CliqueError::EmptyClique));
        let err = iterate_to_fixpoint(&mut clique, vec![0u32; 4], 3, |_, _, _| {
            Ok::<_, CliqueError>(Some(vec![0u32; 3]))
        });
        assert!(matches!(err, Err(CliqueError::WrongLength { expected: 4, got: 3 })));
        let err = broadcast_changed(&mut clique, Some(&[true; 3]));
        assert!(matches!(err, Err(CliqueError::WrongLength { expected: 4, got: 3 })));
    }
}
