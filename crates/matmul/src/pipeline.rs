//! The one product pipeline behind Theorem 8, Theorem 14 and the dense
//! baseline (step table in the crate docs): a multiplication is a [`Plan`]
//! handed to [`product`], and every step exists once.

use cc_clique::{Clique, NodeId};
use cc_matrix::{Entry, Semiring, SparseRow};

use crate::cube::{CubePartition, CubeShape, TaskAssignment};
use crate::deliver::{deliver, local_product, PerNode, ProductScratch};
use crate::operand::{Operand, Side};
use crate::sum::sum_intermediates;
use crate::MatmulError;

/// The theorem-specific parts of a multiplication.
pub(crate) struct Plan<'p, E> {
    /// The phase the whole product is charged under.
    pub label: &'static str,
    /// The output density the Lemma 9 cube is shaped for (operands not yet
    /// prepared are, first), or `None` for the dense baseline's uniform cube.
    pub cube_density: Option<usize>,
    /// Lemma 15, if the slice products are thinned before they are summed.
    pub thin: Option<&'p Thin<'p, E>>,
    /// Lemma 12 or 16, if dense subtasks are duplicated.
    pub helpers: Option<Helpers<'p>>,
}

/// Whether node `v` keeps entry `e` of its slice product.
pub(crate) type Keep<'p, E> = Box<dyn Fn(NodeId, &Entry<E>) -> bool + 'p>;

/// The thinning step: communicates over the σ1 products, after which every
/// node — a helper recomputing a product included — can tell what to keep.
pub(crate) type Thin<'p, E> =
    dyn Fn(&mut Clique, &CubePartition, &[Vec<Entry<E>>]) -> Result<Keep<'p, E>, MatmulError> + 'p;

/// How subtasks with large products are duplicated onto helper nodes.
pub(crate) struct Helpers<'p> {
    /// The phase of the product-size broadcast the assignment is computed from.
    pub sizes_label: &'static str,
    /// The density promise behind the chunk sizes, reported if a pool runs out.
    pub hint: usize,
    /// The scopes of the assignment under a given cube.
    pub scopes: &'p dyn Fn(&CubePartition) -> Vec<HelperScope>,
}

/// One `(tasks, pool, chunk)` scope of a helper assignment: each of `tasks`
/// (subtask nodes) takes one helper out of `pool`, in order, per full `chunk`
/// product entries.
pub(crate) type HelperScope = (Vec<NodeId>, Vec<NodeId>, usize);

/// Assigns helpers scope by scope. Returns the assignment and, per subtask
/// node, the chunk size its product is split by — or `Err` if a pool runs
/// out: for Lemma 12 exactly when the promised output density underestimates
/// the truth; Lemma 16 proves its pools suffice.
pub(crate) fn assign_helpers(
    cube: &CubePartition,
    sizes: &[u64],
    scopes: &[HelperScope],
    hint: usize,
) -> Result<(TaskAssignment, Vec<usize>), MatmulError> {
    let mut sigma = vec![None; cube.n];
    let mut chunk_of = vec![1; cube.n];
    for (tasks, pool, chunk) in scopes {
        let mut pool = pool.iter();
        for &v in tasks {
            chunk_of[v] = *chunk;
            for _ in 0..sizes[v] as usize / chunk {
                let &helper = pool.next().ok_or(MatmulError::DensityHintTooSmall { hint })?;
                sigma[helper] = Some(v);
            }
        }
    }
    Ok((TaskAssignment::new(cube, &sigma), chunk_of))
}

/// Computes `S ⋆ T` as `plan` says: cube → σ1 delivery → local products →
/// thinning → helper assignment → σ2 delivery → responsibility split →
/// summation. Node `v` ends holding row `v` of the result. Panics and errors
/// are those the public entry points document.
pub(crate) fn product<SR: Semiring>(
    clique: &mut Clique,
    plan: &Plan<'_, SR::Elem>,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let n = clique.n();
    assert!(
        s.side == Side::Left && t.side == Side::Right,
        "a product takes a left operand (held by rows) and a right one (held by columns)"
    );
    if s.held.len() != n || t.held.len() != n {
        let (s_rows, t_cols) = (s.held.len(), t.held.len());
        return Err(MatmulError::DimensionMismatch { s_rows, t_cols, n });
    }
    clique.with_phase(plan.label, |clique| {
        // Lemma 9: globally known cube partition.
        let cube = match plan.cube_density {
            Some(rho) => {
                let s = s.ensure_prepared::<SR>(clique)?;
                let t = t.ensure_prepared::<SR>(clique)?;
                let shape = CubeShape::choose(n, s.counts.density(), t.counts.density(), rho);
                CubePartition::build(clique, shape, s, t)?
            }
            None => CubePartition::uniform(n, CubeShape::uniform(n)),
        };

        // Lemmas 10 + 11 with σ1, then the local slice products.
        let inputs = deliver::<SR>(clique, &cube, s, t, &cube.sigma1())?;
        let mut scratch = ProductScratch::default();
        let mut products: PerNode<SR::Elem> =
            inputs.iter().map(|input| local_product::<SR>(&mut scratch, input)).collect();

        // Lemma 15: drop what the per-row cutoffs exclude.
        let keep = plan.thin.map(|thin| thin(clique, &cube, &products)).transpose()?;
        if let Some(keep) = &keep {
            for (v, product) in products.iter_mut().enumerate() {
                product.retain(|e| keep(v, e));
            }
        }

        // Lemma 12 / 16: duplicate dense subtasks onto helpers, which learn
        // the subtask's inputs by a second delivery.
        let intermediates = match &plan.helpers {
            None => products,
            Some(helpers) => {
                let sizes: Vec<u64> = products.iter().map(|p| p.len() as u64).collect();
                let sizes = clique.with_phase(helpers.sizes_label, |cl| cl.all_broadcast(sizes))?;
                let (sigma2, chunk_of) =
                    assign_helpers(&cube, &sizes, &(helpers.scopes)(&cube), helpers.hint)?;
                let helper_inputs = deliver::<SR>(clique, &cube, s, t, &sigma2)?;

                // Responsibility split: owners of subtask v are [v] ++ its
                // helpers (sorted); owner index o takes the o-th chunk.
                let mut parts_of: PerNode<SR::Elem> = vec![Vec::new(); n];
                for (v, product) in products.iter().enumerate().take(cube.shape.subtasks()) {
                    // A node may serve as both the σ1 owner and a helper of
                    // the same task; it then takes two parts (paper, Lemma 12
                    // step 3), so duplicates are kept.
                    let mut owners = vec![v];
                    owners.extend_from_slice(sigma2.nodes_for(v));
                    owners.sort_unstable();
                    let chunk = chunk_of[v];
                    let parts = product.len().div_ceil(chunk);
                    debug_assert!(parts <= owners.len(), "Lemmas 12 and 16: enough owners");
                    for (o, &owner) in owners.iter().enumerate().take(parts) {
                        let part = o * chunk..((o + 1) * chunk).min(product.len());
                        if owner == v {
                            parts_of[owner].extend_from_slice(&product[part]);
                            continue;
                        }
                        // A helper recomputes (and thins) the product locally,
                        // free in the model: the inputs reached it by the second
                        // delivery, the cutoffs by the group broadcast.
                        let mut again = local_product::<SR>(&mut scratch, &helper_inputs[owner]);
                        if let Some(keep) = &keep {
                            again.retain(|e| keep(owner, e));
                        }
                        parts_of[owner].extend_from_slice(&again[part]);
                    }
                }
                parts_of
            }
        };

        // Lemma 13: balanced summation into row owners.
        sum_intermediates::<SR>(clique, intermediates)
    })
}
