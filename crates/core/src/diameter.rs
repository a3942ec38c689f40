//! Diameter approximation — §7.2 (Claims 34 and 35).
//!
//! The Congested Clique implementation of the Roditty–Vassilevska Williams
//! algorithm \[54\]: for diameter `D = 3h + z` (`z ∈ {0,1,2}`), the returned
//! estimate `D'` satisfies
//!
//! ```text
//! 2h + z ≤ D' ≤ (1+ε)·D     (z ∈ {0,1}; for z = 2: 2h+1 ≤ D')
//! ```
//!
//! in `O(log² n/ε)` rounds — a near-`3/2` approximation. The classical
//! sampling of `Õ(√n)` BFS roots becomes a hitting set of the `N_k` balls
//! plus two MSSP invocations, which share one hopset; exact ball distances
//! make the construction deterministic.

use cc_clique::Clique;
use cc_distance::{check_epsilon, check_size, hitting_set, k_nearest, DistanceError};
use cc_graph::Graph;
use cc_hopset::{build_hopset, HopsetConfig};

use crate::mssp::mssp_with_hopset;
use crate::run::Stopwatch;
use crate::DiameterRun;

/// §7.2: deterministic near-`3/2` diameter approximation (see module docs
/// for the exact guarantee).
///
/// # Errors
///
/// [`DistanceError::InvalidParameter`] for a non-finite or non-positive `ε`
/// or size mismatch;
/// [`DistanceError::Matmul`] if a subroutine fails.
///
/// # Example
///
/// ```
/// use cc_clique::Clique;
/// use cc_core::diameter::diameter_approx;
/// use cc_graph::generators;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let g = generators::path(30)?; // diameter 29 = 3*9 + 2
/// let mut clique = Clique::new(30);
/// let run = diameter_approx(&mut clique, &g, 0.25)?;
/// assert!(run.estimate >= 19); // 2h + 1
/// assert!(run.estimate as f64 <= 1.25 * 29.0);
/// # Ok(())
/// # }
/// ```
pub fn diameter_approx(
    clique: &mut Clique,
    graph: &Graph,
    epsilon: f64,
) -> Result<DiameterRun, DistanceError> {
    check_size(clique, graph.n())?;
    check_epsilon(epsilon)?;
    let watch = Stopwatch::start(clique);
    let n = graph.n();
    let config = HopsetConfig::new(epsilon);
    let k = config.schedule(n).k;

    let estimate = clique.with_phase("diameter", |clique| {
        // (1)–(2): exact balls and their hitting set S.
        let near = k_nearest(clique, graph, k)?;
        let sets: Vec<Vec<usize>> =
            near.iter().map(|r| r.iter().map(|(c, _)| c as usize).collect()).collect();
        let s = hitting_set(clique, &sets, k, 0xD1A)?;

        // (3): (1+ε) distances from everyone to S, on a hopset that step (5)
        // uses again.
        let hopset = clique.with_phase("mssp", |cl| build_hopset(cl, graph, config))?;
        let run_s = mssp_with_hopset(clique, graph, &s.members, &hopset)?;

        // (4): d(v, p(v)) is exact (p(v) ∈ N_k(v)); broadcast it.
        let dp: Vec<u64> =
            (0..n).map(|v| s.closest_in_row(&near[v]).map_or(0, |(_, a)| a.dist)).collect();
        let dp = clique.all_broadcast(dp)?;

        // (5): w maximises d(w, p(w)); everyone learns N_k(w) (its members
        // announce themselves — one round).
        let w = (0..n).max_by_key(|&v| (dp[v], std::cmp::Reverse(v))).expect("n >= 1");
        clique.charge("announce_nkw", 1);
        let nkw: Vec<usize> = near[w].iter().map(|(c, _)| c as usize).collect();
        let run_w = mssp_with_hopset(clique, graph, &nkw, &hopset)?;

        // (6): the estimate is the largest distance seen. Node v holds row v
        // of both runs and broadcasts its largest finite entry (one word);
        // every node takes the largest word that arrives.
        let own_max: Vec<u64> = run_s
            .dist
            .iter()
            .zip(&run_w.dist)
            .map(|(s_row, w_row)| {
                s_row.iter().chain(w_row).filter_map(|d| d.value()).max().unwrap_or(0)
            })
            .collect();
        let est = clique.all_broadcast(own_max)?.into_iter().max().unwrap_or(0);
        Ok::<u64, DistanceError>(est)
    })?;

    let (rounds, report) = watch.stop(clique);
    Ok(DiameterRun { estimate, rounds, report })
}

/// The guarantee of Claim 35 as a predicate: for true diameter `d`, checks
/// `lower(d) ≤ estimate ≤ (1+ε)·d` where `lower(3h+z)` is `2h+z` for
/// `z ∈ {0,1}` and `2h+1` for `z = 2`.
pub fn within_claim35(estimate: u64, true_diameter: u64, epsilon: f64) -> bool {
    let h = true_diameter / 3;
    let z = true_diameter % 3;
    let lower = match z {
        0 => 2 * h,
        1 => 2 * h + 1,
        _ => 2 * h + 1,
    };
    estimate >= lower && (estimate as f64) <= (1.0 + epsilon) * true_diameter as f64 + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use cc_graph::{generators, reference};

    fn check(g: &Graph, epsilon: f64) -> (u64, u64) {
        let d = reference::diameter(g).expect("graph has edges");
        let mut clique = Clique::new(g.n());
        let run = diameter_approx(&mut clique, g, epsilon).unwrap();
        assert!(
            within_claim35(run.estimate, d, epsilon),
            "estimate {} vs true diameter {d} on {} nodes",
            run.estimate,
            g.n()
        );
        (run.estimate, d)
    }

    #[test]
    fn path_diameter() {
        check(&generators::path(30).unwrap(), 0.25);
    }

    #[test]
    fn cycle_diameter() {
        check(&generators::cycle(32).unwrap(), 0.25);
    }

    #[test]
    fn grid_diameter() {
        check(&generators::grid(6, 5).unwrap(), 0.25);
    }

    #[test]
    fn gnp_diameter() {
        check(&generators::gnp(32, 0.15, 3).unwrap(), 0.25);
    }

    #[test]
    fn weighted_diameter_with_additive_term() {
        // §7.2 remark: for weighted graphs the guarantee degrades by an
        // additive max-weight term: floor(2D/3 - W) <= D' <= (1+eps)D.
        let g = generators::grid_weighted(5, 4, 10, 5).unwrap();
        let d = reference::diameter(&g).unwrap();
        let w = g.max_weight();
        let mut clique = Clique::new(20);
        let run = diameter_approx(&mut clique, &g, 0.25).unwrap();
        assert!(run.estimate as f64 >= (2.0 * d as f64 / 3.0 - w as f64).floor() - 1e-9);
        assert!(run.estimate as f64 <= 1.25 * d as f64 + 1e-9);
    }

    #[test]
    fn star_diameter_small_case() {
        let (est, d) = check(&generators::star(24).unwrap(), 0.25);
        assert_eq!(d, 2);
        assert!(est <= 2);
    }

    #[test]
    fn the_estimate_is_the_largest_word_the_nodes_broadcast() {
        // Pinned: step (6) is one one-word broadcast per node (the second
        // of the phase's two, after step (4)'s), and the estimate is the
        // largest entry of either MSSP run.
        let g = generators::gnp_weighted(24, 0.2, 9, 4).unwrap();
        let run = diameter_approx(&mut Clique::new(24), &g, 0.25).unwrap();
        assert_eq!(run.estimate, 11);
        assert_eq!((run.rounds, run.report.messages, run.report.words), (269, 88_472, 96_993));
        let broadcast = &run.report.phases["diameter/all_broadcast"];
        assert_eq!((broadcast.rounds, broadcast.messages, broadcast.invocations), (2, 1104, 2));
    }

    #[test]
    fn rejects_bad_parameters() {
        let g = generators::path(8).unwrap();
        let mut clique = Clique::new(8);
        assert!(diameter_approx(&mut clique, &g, 0.0).is_err());
        let mut clique = Clique::new(16);
        assert!(diameter_approx(&mut clique, &g, 0.5).is_err());
    }
}
