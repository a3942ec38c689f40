//! The one product pipeline behind Theorem 8, Theorem 14 and the dense
//! baseline (step table in the crate docs): a multiplication is a [`Plan`]
//! handed to [`product`], and every step exists once.

use std::cell::RefCell;
use std::ops::Range;

use cc_clique::{Clique, Envelope, NodeId};
use cc_matrix::{Entry, Semiring, SparseRow};

use crate::cube::{CubePartition, CubeShape, TaskAssignment};
use crate::deliver::{
    deliver, local_product, owner_choice, pipeline_floor, Load, PerNode, ProductScratch, Sizes,
    FLAG_BIT,
};
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
    /// Lemma 12 or 16, if dense subtasks may be duplicated: they are where
    /// that lowers the summation's largest load.
    pub helpers: Option<Helpers<'p>>,
    /// Whether the row owners may compute the product instead, when the
    /// broadcast counts or loads show it fits (Theorems 8 and 14; never the
    /// dense baseline).
    pub owner: bool,
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

/// Computes `S ⋆ T` as `plan` says: the owner product if the plan allows it
/// and it fits, else cube → σ1 delivery → local products → thinning →
/// helper assignment → σ2 delivery and responsibility split, if they lower
/// the summation's largest load → summation. Node `v` ends holding row `v`
/// of the result. Panics and errors are those the public entry points
/// document.
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
    if s.len() != n || t.len() != n {
        let (s_rows, t_cols) = (s.len(), t.len());
        return Err(MatmulError::DimensionMismatch { s_rows, t_cols, n });
    }
    clique.with_phase(plan.label, |clique| {
        // Lemma 9's shape, from the densities of the prepared operands (a
        // right operand handed over by rows knows its density from its row
        // counts, and is not prepared for it).
        let shape = match plan.cube_density {
            Some(rho) => {
                let s_density = s.ensure_density::<SR>(clique)?;
                let t_density = t.ensure_density::<SR>(clique)?;
                CubeShape::choose(n, s_density, t_density, rho)
            }
            None => CubeShape::uniform(n),
        };
        if plan.owner {
            if let Some(rows) = owner_product::<SR>(clique, plan, shape, s, t)? {
                return Ok(rows);
            }
        }
        pipeline::<SR>(clique, plan, shape, s, t)
    })
}

/// The owner product, if it fits: node `u` sends row `u` of `T` to every
/// `v` with `S[v,u] ≠ 0` in one route (`owner/route`), and node `v`
/// multiplies its row of `S` by the rows it received and its own. A product
/// that does not fit returns `None` and runs the pipeline.
///
/// The choice is [`owner_choice`]'s, asked again after each fact the nodes
/// learn while it is still open: first the broadcast counts, which bound
/// the route's load; then, for a right operand handed over by rows, its
/// columns and their counts (a transpose and a counts broadcast, which the
/// pipeline needs anyway), which pin the pipeline's floor; and last every
/// node's load word (`owner/loads`), which settle it.
fn owner_product<SR: Semiring>(
    clique: &mut Clique,
    plan: &Plan<'_, SR::Elem>,
    shape: CubeShape,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
) -> Result<Option<Vec<SparseRow<SR::Elem>>>, MatmulError> {
    let s_known = s.prepared().expect("the cube was shaped from a prepared S");
    let s_counts = &s_known.counts;
    let (_, t_row_counts) = t.opposite_known().expect("the cube was shaped from T's counts");
    let counted = Load::from_counts(s_counts.per_node(), s_known.opposite_counts(), t_row_counts);
    let (n, cost) = (clique.n(), *clique.cost_model());
    let kept = [s.sigma1_placement.is_some(), t.sigma1_placement.is_some()];
    let choose = |t: &Operand<'_, SR::Elem>, load| {
        let t_sizes = t.sizes().expect("a right operand that knows its row counts");
        owner_choice(&cost, shape, [Sizes::held(s_counts), t_sizes], kept, load)
    };
    let mut choice = choose(t, counted);
    let transposed = choice.is_none() && t.prepared().is_none();
    if transposed {
        t.ensure_prepared::<SR>(clique)?;
        choice = choose(t, counted);
    }
    let (t_rows, t_row_counts) = t.opposite_known().expect("preparing keeps the row counts");
    let (s_rows, s_cols) = (s.held(), &s_known.opposite[..]);
    let loads = || -> Vec<u64> {
        (0..n).map(|w| owner_load::<SR>(w, s_rows, s_cols, t_rows, t_row_counts)).collect()
    };
    let (owner, read) = match choice {
        Some(owner) => (owner, counted),
        None => {
            let words = clique.with_phase("owner/loads", |cl| cl.all_broadcast(loads()))?;
            let words = Load::from_words(&words);
            (choose(t, words).expect("the load words settle the choice"), words)
        }
    };
    let rows = if owner {
        let before = clique.rounds();
        let rows = owner_rows::<SR>(clique, s_rows, s_cols, t_rows)?;
        let charged = clique.rounds() - before;
        debug_assert_eq!(
            charged,
            Load::from_words(&loads()).route(&cost, n)[1],
            "the route charged what its load words predict"
        );
        debug_assert!(charged <= read.route(&cost, n)[1], "the choice bounded the route");
        Some(rows)
    } else {
        None
    };
    if AUDIT.with(|audit| audit.borrow().is_some()) {
        // The pipeline on copies, its right operand prepared first if the
        // choice did not need it to be, so the floor is the exact one.
        let (mut scratch, mut t) = (clique.clone(), t.clone());
        let t_counts = &t.ensure_prepared::<SR>(&mut scratch)?.counts;
        let exact = [Sizes::held(s_counts), Sizes::held(t_counts)];
        let load = Load::from_words(&loads());
        let floor = pipeline_floor(&cost, shape, exact, kept, load.summed == Some(true));
        let before = scratch.rounds();
        let ran = pipeline::<SR>(&mut scratch, plan, shape, &mut s.clone(), &mut t);
        let record = ProductAudit {
            label: plan.label,
            owner: rows.is_some(),
            by_counts: choice.is_some(),
            transposed,
            owner_rounds: load.route(&cost, n)[1],
            floor,
            pipeline_rounds: ran.ok().map(|_| scratch.rounds() - before),
        };
        AUDIT.with(|audit| audit.borrow_mut().as_mut().map(|records| records.push(record)));
    }
    Ok(rows)
}

/// Node `w`'s owner load word, from what it holds — row `w` of `S`, column
/// `w` of `S` and row `w` of `T` — and the broadcast row counts of `T`: the
/// larger of what it sends (its row of `T` to every other `v` with
/// `S[v,w] ≠ 0`) and what it receives (row `u` of `T` from every other `u`
/// with `S[w,u] ≠ 0`), in entries of one word each, with [`FLAG_BIT`] raised
/// if some product `S[v,w]·T[w,x]` is non-zero.
fn owner_load<SR: Semiring>(
    w: NodeId,
    s_rows: &[SparseRow<SR::Elem>],
    s_cols: &[SparseRow<SR::Elem>],
    t_rows: &[SparseRow<SR::Elem>],
    t_row_counts: &[u64],
) -> u64 {
    let (s_col, t_row) = (&s_cols[w], &t_rows[w]);
    let me = w as u32;
    let targets = s_col.nnz() - usize::from(s_col.get(me).is_some());
    let send = targets as u64 * t_row_counts[w];
    let recv: u64 =
        s_rows[w].iter().filter(|&(u, _)| u != me).map(|(u, _)| t_row_counts[u as usize]).sum();
    let non_zero =
        s_col.iter().any(|(_, a)| t_row.iter().any(|(_, b)| !SR::is_zero(&SR::mul(a, b))));
    send.max(recv) | if non_zero { FLAG_BIT } else { 0 }
}

/// The owner route and the local rows: node `u` sends its row of `T` whole
/// to every `v ≠ u` with `S[v,u] ≠ 0`, and node `v` computes row `v` of
/// `S ⋆ T` as `SparseMatrix::multiply` does, with its own row of `T`.
fn owner_rows<SR: Semiring>(
    clique: &mut Clique,
    s_rows: &[SparseRow<SR::Elem>],
    s_cols: &[SparseRow<SR::Elem>],
    t_rows: &[SparseRow<SR::Elem>],
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let mut msgs = Vec::new();
    for (u, (s_col, t_row)) in s_cols.iter().zip(t_rows.iter()).enumerate() {
        for v in s_col.iter().map(|(v, _)| v as usize).filter(|&v| v != u) {
            for (x, val) in t_row.iter() {
                msgs.push(Envelope::new(u, v, Entry::new(u as u32, x, val.clone())));
            }
        }
    }
    let inboxes = clique.with_phase("owner", |cl| cl.route(msgs))?;
    let rows = inboxes
        .into_iter()
        .enumerate()
        .map(|(v, inbox)| {
            let s_row = &s_rows[v];
            let mut acc: Vec<(u32, SR::Elem)> = Vec::new();
            if let Some(a) = s_row.get(v as u32) {
                acc.extend(t_rows[v].iter().map(|(x, b)| (x, SR::mul(a, b))));
            }
            // Inboxes arrive in sender order, as `S`'s row lists them.
            for got in inbox.chunk_by(|x, y| x.src == y.src) {
                let a = s_row.get(got[0].src as u32).expect("row u of T went where S[v,u] ≠ 0");
                acc.extend(got.iter().map(|env| (env.payload.col, SR::mul(a, &env.payload.val))));
            }
            SparseRow::from_entries::<SR>(acc)
        })
        .collect();
    Ok(rows)
}

/// The pipeline on the cube of `shape`: cube → σ1 delivery → local
/// products → thinning → helper assignment → σ2 delivery and
/// responsibility split, if they lower the summation's largest load →
/// summation.
fn pipeline<SR: Semiring>(
    clique: &mut Clique,
    plan: &Plan<'_, SR::Elem>,
    shape: CubeShape,
    s: &mut Operand<'_, SR::Elem>,
    t: &mut Operand<'_, SR::Elem>,
) -> Result<Vec<SparseRow<SR::Elem>>, MatmulError> {
    let n = clique.n();
    // Lemma 9: globally known cube partition.
    let cube = match plan.cube_density {
        Some(_) => {
            let s = s.ensure_prepared::<SR>(clique)?;
            let t = t.ensure_prepared::<SR>(clique)?;
            CubePartition::build(clique, shape, s, t)?
        }
        None => CubePartition::uniform(n, shape),
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
    // the subtask's inputs by a second delivery — where that lowers the
    // summation's largest load. Every node is a subtask node already, so a
    // helper's part lands beside a whole product of its own and often
    // lowers nothing; then each subtask node sums its whole product, which
    // by the same measure costs no more.
    let intermediates = match &plan.helpers {
        None => products,
        Some(helpers) => {
            let sizes: Vec<u64> = products.iter().map(|p| p.len() as u64).collect();
            let sizes = clique.with_phase(helpers.sizes_label, |cl| cl.all_broadcast(sizes))?;
            let (sigma2, chunk_of) =
                assign_helpers(&cube, &sizes, &(helpers.scopes)(&cube), helpers.hint)?;
            let parts = split(&cube, &sizes, &sigma2, &chunk_of);
            let mut split_loads = vec![0u64; n];
            for (_, owner, part) in &parts {
                split_loads[*owner] += part.len() as u64;
            }
            let units = |loads: &[u64]| loads.iter().max().map_or(0, |l| l.div_ceil(n as u64));
            if units(&split_loads) >= units(&sizes) {
                products
            } else {
                let helper_inputs = deliver::<SR>(clique, &cube, s, t, &sigma2)?;
                let mut parts_of: PerNode<SR::Elem> = vec![Vec::new(); n];
                for (v, owner, part) in parts {
                    if owner == v {
                        parts_of[owner].extend_from_slice(&products[v][part]);
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
                parts_of
            }
        }
    };

    // Lemma 13: balanced summation into row owners.
    sum_intermediates::<SR>(clique, intermediates)
}

/// Lemma 12's responsibility split (step 3), from the broadcast product
/// sizes and the helper assignment: `(v, owner, part)` for each part of
/// subtask `v`'s product. The owners of `v` are `v` and its helpers,
/// ascending, and the `o`-th takes the `o`-th chunk. A node may serve as
/// both the `σ1` owner and a helper of the same task; it then takes two
/// parts (paper, Lemma 12 step 3), so duplicates are kept.
fn split(
    cube: &CubePartition,
    sizes: &[u64],
    sigma2: &TaskAssignment,
    chunk_of: &[usize],
) -> Vec<(NodeId, NodeId, Range<usize>)> {
    let mut parts = Vec::new();
    for v in 0..cube.shape.subtasks() {
        let mut owners = vec![v];
        owners.extend_from_slice(sigma2.nodes_for(v));
        owners.sort_unstable();
        let (len, chunk) = (sizes[v] as usize, chunk_of[v]);
        debug_assert!(len.div_ceil(chunk) <= owners.len(), "Lemmas 12 and 16: enough owners");
        for (o, &owner) in owners.iter().enumerate().take(len.div_ceil(chunk)) {
            parts.push((v, owner, o * chunk..((o + 1) * chunk).min(len)));
        }
    }
    parts
}

/// What [`audit`] records of one product that weighed the owner product:
/// whether it took the owner product, whether the broadcast counts chose or
/// the load words did, and whether the right operand was transposed to
/// choose; the owner route's rounds ([`Load::route`]) and the pipeline's
/// floor ([`pipeline_floor`]) at the [`Load`] of every node's load word and
/// both operands' held counts, as [`owner_choice`] weighs them; and the
/// rounds the pipeline charges on the same operands, in the same state, its
/// right operand prepared.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductAudit {
    /// The plan's phase label (`sparse_mm` or `filtered_mm`).
    pub label: &'static str,
    /// Whether the owner product ran.
    pub owner: bool,
    /// Whether the broadcast counts made the choice, with no load word.
    pub by_counts: bool,
    /// Whether the right operand, handed over by rows, was transposed and
    /// its column counts broadcast before the choice, because its row counts
    /// left the choice open.
    pub transposed: bool,
    /// The rounds the owner route charges (or would have).
    pub owner_rounds: u64,
    /// The pipeline's floor.
    pub floor: u64,
    /// The rounds the pipeline charges on the same operands, or `None` if
    /// it reports an error there (a density hint too small for Lemma 12).
    pub pipeline_rounds: Option<u64>,
}

thread_local! {
    static AUDIT: RefCell<Option<Vec<ProductAudit>>> = const { RefCell::new(None) };
}

/// Runs `f` and returns, beside its result, a [`ProductAudit`] of every
/// product on this thread that weighed the owner product. While auditing,
/// each such product also runs the pipeline on copies of the clique and the
/// operands, so `f` charges the rounds and returns what it would unaudited. A
/// test seam: the check that the owner product never charges more than the
/// pipeline, on whole runs of the algorithms built on this crate.
#[doc(hidden)]
pub fn audit<R>(f: impl FnOnce() -> R) -> (R, Vec<ProductAudit>) {
    let outer = AUDIT.with(|audit| audit.replace(Some(Vec::new())));
    let out = f();
    let records = AUDIT.with(|audit| audit.replace(outer)).unwrap_or_default();
    (out, records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filtered_mm::filtered_product;
    use crate::layout::{self, Counts};
    use crate::operand::Prepared;
    use crate::sparse_mm::{lemma_12_scopes, sparse_multiply_auto, sparse_product};
    use cc_clique::CostModel;
    use cc_matrix::{
        AugDist, AugMinPlus, Dist, MinPlus, OrderedSemiring, SparseMatrix, WitnessedDist,
        WitnessedMinPlus,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// An `n × n` matrix with about `per_row` random entries a row, plus
    /// the diagonal when `diagonal`, values drawn by `val`.
    fn random<SR: Semiring>(
        rng: &mut StdRng,
        n: usize,
        per_row: usize,
        diagonal: bool,
        val: impl Fn(&mut StdRng) -> SR::Elem,
    ) -> SparseMatrix<SR::Elem> {
        let mut entries = Vec::new();
        for r in 0..n as u32 {
            if diagonal {
                entries.push(Entry::new(r, r, val(rng)));
            }
            for _ in 0..per_row {
                entries.push(Entry::new(r, rng.gen_range(0..n as u32), val(rng)));
            }
        }
        SparseMatrix::from_entries::<SR>(n, entries)
    }

    /// A product with the owner product allowed (`true`) or not, on a fresh
    /// clique under `cost`: the rows, the clique, and the audit of the one
    /// product.
    type Run<E> = (Vec<SparseRow<E>>, Clique, Vec<ProductAudit>);

    /// What a product returns.
    type Rows<E> = Result<Vec<SparseRow<E>>, MatmulError>;

    /// Runs `multiply` both ways and checks the owner side against the
    /// pipeline side and against `expected`; returns whether the owner
    /// product ran.
    fn check<E: Clone + PartialEq + std::fmt::Debug>(
        what: &str,
        label: &str,
        expected: &SparseMatrix<E>,
        run: impl Fn(bool) -> Run<E>,
    ) -> bool {
        let (with, clique, audits) = run(true);
        let (without, plain, _) = run(false);
        assert_eq!(SparseMatrix::from_rows(with.clone()), *expected, "{what}");
        assert_eq!(with, without, "{what}: the owner product differs from the pipeline's");
        let phases = &clique.metrics().phases;
        let [record] = &audits[..] else { panic!("{what}: one audited product, got {audits:?}") };
        let pipeline_rounds = record.pipeline_rounds.expect("the hint is the true density");
        assert!(record.floor <= pipeline_rounds, "{what}: {record:?}");
        assert_eq!(record.owner, phases.contains_key(&format!("{label}/owner/route")), "{what}");
        assert!(!plain.metrics().phases.keys().any(|l| l.contains("/owner/")), "{what}");
        // The load words are broadcast exactly when the counts straddle.
        let loads = phases.contains_key(&format!("{label}/owner/loads/all_broadcast"));
        assert_eq!(loads, !record.by_counts, "{what}: {record:?}");
        if record.owner {
            assert!(record.owner_rounds <= pipeline_rounds, "{what}: {record:?}");
            assert_eq!(phases[&format!("{label}/owner/route")].rounds, record.owner_rounds);
            // The preparation, the loads and the route: nothing of the pipeline.
            let ran = ["/owner/", "counts/all_broadcast", "transpose/route"];
            let other: Vec<_> =
                phases.keys().filter(|l| !ran.iter().any(|leaf| l.contains(leaf))).collect();
            assert!(other.is_empty(), "{what}: {other:?}");
        } else {
            assert!(record.owner_rounds > record.floor, "{what}: {record:?}");
            let word = u64::from(loads);
            assert_eq!(clique.rounds(), plain.rounds() + word, "{what}: a load word is one round");
        }
        record.owner
    }

    /// What [`owner_choice`] says of `S ⋆ T` from the counts against what it
    /// says from the load words, from operands prepared on a scratch clique:
    /// the counts' interval holds the largest load word, and when the counts
    /// choose — with `T`'s column counts, or from its row counts alone — they
    /// choose what the load words do. Returns the choice with the column
    /// counts.
    fn check_counts_rule<SR: Semiring>(
        what: &str,
        cost: CostModel,
        s: &SparseMatrix<SR::Elem>,
        t: &SparseMatrix<SR::Elem>,
        rho: usize,
    ) -> Option<bool> {
        let n = s.n();
        let mut clique = Clique::with_cost_model(n, cost);
        let t_cols = t.transpose();
        let left = Operand::prepare::<SR>(&mut clique, Side::Left, s.rows()).unwrap();
        let right = Operand::prepare::<SR>(&mut clique, Side::Right, t_cols.rows()).unwrap();
        let (s_known, t_known) = (left.prepared().unwrap(), right.prepared().unwrap());
        let (s_counts, t_counts) = (&s_known.counts, &t_known.counts);
        let t_row_counts = t_counts.opposite().unwrap();
        let counted =
            Load::from_counts(s_counts.per_node(), s_counts.opposite().unwrap(), t_row_counts);
        let loads: Vec<u64> = (0..n)
            .map(|w| owner_load::<SR>(w, s.rows(), &s_known.opposite, t.rows(), t_row_counts))
            .collect();
        let words = Load::from_words(&loads);
        assert!(counted.least <= words.most && words.most <= counted.most, "{what}: {counted:?}");
        let shape = CubeShape::choose(n, s_counts.density(), t_counts.density(), rho);
        let choose = |sizes, load| owner_choice(&cost, shape, sizes, [false; 2], load);
        let exact = [Sizes::held(s_counts), Sizes::held(t_counts)];
        let fits = choose(exact, words).expect("the load words settle the choice");
        let with_columns = choose(exact, counted);
        let by_rows = t_counts.transposed().unwrap();
        let from_rows = choose([Sizes::held(s_counts), Sizes::opposite(&by_rows)], counted);
        for choice in [with_columns, from_rows].into_iter().flatten() {
            assert_eq!(choice, fits, "{what}: the counts chose against the load words");
        }
        assert_ne!(from_rows, Some(false), "{what}: row counts alone never choose the pipeline");
        if from_rows.is_some() {
            assert_eq!(with_columns, from_rows, "{what}: the column counts only narrow");
        }
        with_columns
    }

    /// `multiply` as [`check`] runs it, with the owner product allowed or
    /// not: on a fresh clique under `cost`, audited, `S` in its input layout
    /// and `T` held by columns, or handed over by rows after their counts
    /// broadcast, as source detection hands its iterate over.
    fn runner<'a, E: Clone + PartialEq>(
        cost: CostModel,
        (s, t, t_cols): (&'a SparseMatrix<E>, &'a SparseMatrix<E>, &'a SparseMatrix<E>),
        by_rows: bool,
        multiply: impl Fn(&mut Clique, &mut Operand<'_, E>, &mut Operand<'_, E>, bool) -> Rows<E> + 'a,
    ) -> impl Fn(bool) -> Run<E> + 'a {
        move |owner| {
            let mut clique = Clique::with_cost_model(s.n(), cost);
            let mut left = Operand::unprepared(Side::Left, s.rows());
            let mut right = if by_rows {
                let counts = layout::broadcast_counts(&mut clique, t.rows(), None).unwrap();
                Operand::from_opposite(t.rows(), counts)
            } else {
                Operand::unprepared(Side::Right, t_cols.rows())
            };
            let (rows, audits) = audit(|| multiply(&mut clique, &mut left, &mut right, owner));
            (rows.unwrap(), clique, audits)
        }
    }

    /// Sparse products of random operands at n = 8, 16, 32, from one random
    /// entry a row to `n`, under both cost models, with `T` held by columns
    /// and handed over by rows.
    fn sparse_products<SR: Semiring>(seed: u64, val: impl Fn(&mut StdRng) -> SR::Elem + Copy)
    where
        SR::Elem: std::fmt::Debug,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut taken = [0; 2];
        for (case, n) in [8, 16, 32].into_iter().cycle().take(24).enumerate() {
            let cost = if case % 3 == 0 { CostModel::conservative() } else { CostModel::unit() };
            let per_row = [1, 2, 3, n][case % 4];
            let s = random::<SR>(&mut rng, n, per_row, case % 2 == 0, val);
            let t = random::<SR>(&mut rng, n, [1, 2, n][case % 3], case % 5 != 0, val);
            let (t_cols, expected) = (t.transpose(), s.multiply::<SR>(&t));
            let rho_hat = expected.density();
            let what = format!("case {case}: n = {n}, {per_row} a row, {cost:?}");
            check_counts_rule::<SR>(&what, cost, &s, &t, rho_hat);
            for by_rows in [false, true] {
                let run = runner(cost, (&s, &t, &t_cols), by_rows, |cl, l, r, owner| {
                    sparse_product::<SR>(cl, l, r, rho_hat, owner)
                });
                let what = format!("{what}, T by rows: {by_rows}");
                taken[usize::from(check(&what, "sparse_mm", &expected, run))] += 1;
            }
        }
        assert!(taken.iter().all(|&count| count > 0), "both paths reached: {taken:?}");
    }

    /// Filtered products as [`sparse_products`], with ρ ∈ {1, 3, n}.
    fn filtered_products<SR>(seed: u64, val: impl Fn(&mut StdRng) -> SR::Elem + Copy)
    where
        SR: OrderedSemiring,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut taken = [0; 2];
        for (case, n) in [8, 16, 32].into_iter().cycle().take(24).enumerate() {
            let cost = if case % 3 == 0 { CostModel::conservative() } else { CostModel::unit() };
            let per_row = [1, 2, 3, n][case % 4];
            let rho = [1, 3, n][case % 3];
            let s = random::<SR>(&mut rng, n, per_row, case % 2 == 0, val);
            let t = random::<SR>(&mut rng, n, [1, 2, n][(case / 4) % 3], true, val);
            let (t_cols, expected) = (t.transpose(), s.multiply::<SR>(&t).filtered(rho));
            let what = format!("case {case}: n = {n}, {per_row} a row, ρ = {rho}, {cost:?}");
            check_counts_rule::<SR>(&what, cost, &s, &t, rho);
            for by_rows in [false, true] {
                let run = runner(cost, (&s, &t, &t_cols), by_rows, |cl, l, r, owner| {
                    filtered_product::<SR>(cl, l, r, rho, owner)
                });
                let what = format!("{what}, T by rows: {by_rows}");
                taken[usize::from(check(&what, "filtered_mm", &expected, run))] += 1;
            }
        }
        assert!(taken.iter().all(|&count| count > 0), "both paths reached: {taken:?}");
    }

    #[test]
    fn owner_products_equal_the_pipeline_over_min_plus() {
        sparse_products::<MinPlus>(41, |rng| Dist::fin(rng.gen_range(1..50)));
        filtered_products::<MinPlus>(42, |rng| Dist::fin(rng.gen_range(1..50)));
    }

    #[test]
    fn owner_products_equal_the_pipeline_over_aug_min_plus() {
        let val = |rng: &mut StdRng| AugDist::fin(rng.gen_range(1..6), rng.gen_range(1..4));
        sparse_products::<AugMinPlus>(43, val);
        filtered_products::<AugMinPlus>(44, val);
    }

    #[test]
    fn owner_products_equal_the_pipeline_over_witnessed_min_plus() {
        // Few distinct distances, so ties between witnesses meet in one cell.
        sparse_products::<WitnessedMinPlus>(45, |rng| {
            if rng.gen_bool(0.5) {
                WitnessedDist::direct(rng.gen_range(1..4))
            } else {
                WitnessedDist::via(rng.gen_range(1..4), rng.gen_range(0..30))
            }
        });
    }

    #[test]
    fn the_load_words_settle_what_the_counts_straddle() {
        // T's rows 0..16 are full and the others hold their diagonal entry,
        // so a row of S that reaches only the short rows of T receives
        // little, while the counts bound its receive load by all of T
        // (528 words, 17 rounds under unit cost), far above the floor: they
        // cannot tell it from a row of S that reaches the full rows, which
        // receives 17 rounds' worth. Neither row sends more than one round,
        // so the counts straddle the floor and the load words choose: the
        // owners for the first, the pipeline for the second — as a sparse
        // product or a filtered one (ρ ∈ {1, 3, n}), under either cost
        // model. Handed over by rows, T is transposed first, as the row
        // counts alone cannot choose.
        let (n, dense) = (32, 16);
        let mut t = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        for r in 0..dense {
            for c in 0..n {
                t.set(r, c, Dist::fin((r + c) as u64 + 1));
            }
        }
        let t_cols = t.transpose();
        for (reach, owner) in [(dense..n, true), (0..dense + 1, false)] {
            let mut s = SparseMatrix::<Dist>::identity::<MinPlus>(n);
            for c in reach.clone() {
                s.set(dense, c, Dist::fin(c as u64 + 1));
            }
            let (product, operands) = (s.multiply::<MinPlus>(&t), (&s, &t, &t_cols));
            // `None` is the sparse product at its true density.
            for filter in [None, Some(1), Some(3), Some(n)] {
                let (label, expected, rho) = match filter {
                    None => ("sparse_mm", product.clone(), product.density()),
                    Some(rho) => ("filtered_mm", product.filtered(rho), rho),
                };
                for cost in [CostModel::unit(), CostModel::conservative()] {
                    let what = format!("row {dense} of S reaches {reach:?}: {label}, ρ = {rho}");
                    let what = format!("{what}, {cost:?}");
                    let choice = check_counts_rule::<MinPlus>(&what, cost, &s, &t, rho);
                    assert_eq!(choice, None, "{what}: the counts straddle");
                    for by_rows in [false, true] {
                        let run = runner(cost, operands, by_rows, |cl, l, r, owner| match filter {
                            None => sparse_product::<MinPlus>(cl, l, r, rho, owner),
                            Some(_) => filtered_product::<MinPlus>(cl, l, r, rho, owner),
                        });
                        let what = format!("{what}, T by rows: {by_rows}");
                        assert_eq!(check(&what, label, &expected, run), owner, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn the_owner_product_reports_no_density_hint() {
        // Rows r + {0, 1, 2, 3} times rows r + {0, 4, 8, 12}: every node
        // sends and receives 12 entries (its own row of T stays), and the
        // square is full. A hint of 1 is too small for Lemma 12; the row
        // owners need none.
        let n = 16;
        let circulant = |step: usize| {
            let mut m = SparseMatrix::<Dist>::zeros(n);
            for r in 0..n {
                for k in 0..4 {
                    m.set(r, (r + step * k) % n, Dist::fin((r + k) as u64 + 1));
                }
            }
            m
        };
        let (s, t) = (circulant(1), circulant(4));
        let t_cols = t.transpose();
        let product = |owner| {
            let mut left = Operand::unprepared(Side::Left, s.rows());
            let mut right = Operand::unprepared(Side::Right, t_cols.rows());
            sparse_product::<MinPlus>(&mut Clique::new(n), &mut left, &mut right, 1, owner)
        };
        let expected = s.multiply::<MinPlus>(&t);
        assert!(expected.rows().iter().all(|row| row.nnz() == n));
        let err = product(false).unwrap_err();
        assert_eq!(err, MatmulError::DensityHintTooSmall { hint: 1 });
        assert_eq!(SparseMatrix::from_rows(product(true).unwrap()), expected);
    }

    #[test]
    fn a_perturbed_private_row_changes_no_other_nodes_choice() {
        // Node x's row of S fills up after the counts broadcast, and again
        // after x broadcast its load word. Every node decides from its copy
        // of the broadcast words — the operands' counts, then the load words
        // — so no node's choice moves, by the counts rule or by the load
        // words. Had the row filled up before either broadcast, the counts
        // would no longer have settled the choice, and x's word would have
        // grown past the floor.
        let (n, x) = (32, 5);
        let cost = CostModel::unit();
        let mut rng = StdRng::seed_from_u64(46);
        let val = |rng: &mut StdRng| Dist::fin(rng.gen_range(1..50));
        let s = random::<MinPlus>(&mut rng, n, 1, true, val);
        let t = random::<MinPlus>(&mut rng, n, n / 2, true, val);
        let t_cols = t.transpose();
        let mut clique = Clique::new(n);
        let left = Operand::prepare::<MinPlus>(&mut clique, Side::Left, s.rows()).unwrap();
        let right = Operand::prepare::<MinPlus>(&mut clique, Side::Right, t_cols.rows()).unwrap();
        let (s_known, t_known) = (left.prepared().unwrap(), right.prepared().unwrap());
        let t_counts = &t_known.counts;
        let t_row_counts = t_counts.opposite().unwrap();
        let shape = CubeShape::choose(n, s_known.counts.density(), t_counts.density(), n);
        let sizes = [Sizes::held(&s_known.counts), Sizes::held(t_counts)];
        let choose = |load| owner_choice(&cost, shape, sizes, [false; 2], load);
        let by_counts = |s_counts: &Counts| {
            let load =
                Load::from_counts(s_counts.per_node(), s_counts.opposite().unwrap(), t_row_counts);
            owner_choice(&cost, shape, [Sizes::held(s_counts), sizes[1]], [false; 2], load)
        };
        let counted = vec![s_known.counts.clone(); n];
        let before: Vec<_> = counted.iter().map(by_counts).collect();
        assert!(before.iter().all(|&choice| choice == Some(true)), "the counts choose the owners");

        let words = |known: &Prepared<'_, Dist>| -> Vec<u64> {
            let (rows, cols) = (&known.held[..], &known.opposite[..]);
            (0..n).map(|w| owner_load::<MinPlus>(w, rows, cols, t.rows(), t_row_counts)).collect()
        };
        let choices = |copies: &[Vec<u64>]| -> Vec<Option<bool>> {
            copies.iter().map(|loads| choose(Load::from_words(loads))).collect()
        };
        let loads = clique.all_broadcast(words(s_known)).unwrap();
        let copies = vec![loads.clone(); n];
        let fitted = choices(&copies);
        assert!(fitted.iter().all(|&choice| choice == Some(true)), "the sparse product fits");

        let mut perturbed = s.clone();
        for c in 0..n {
            perturbed.set(x, c, Dist::fin(1));
        }
        let now: Vec<_> = counted.iter().map(by_counts).collect();
        assert_eq!(now, before, "a counts choice moved with a private row");
        assert_eq!(choices(&copies), fitted, "a load word choice moved with a private row");

        let early = Operand::prepare::<MinPlus>(&mut clique, Side::Left, perturbed.rows()).unwrap();
        let early = early.prepared().unwrap();
        assert_eq!(by_counts(&early.counts), None, "counts broadcast late no longer settle it");
        let early = words(early);
        assert!(early[x] > loads[x], "x's word: {} before, {} after", loads[x], early[x]);
        assert_eq!(choices(&[early]), [Some(false)], "the perturbation is material");
    }

    /// What the pipeline's sparse product at `rho_hat` sees of `S ⋆ T` when
    /// it weighs its helpers, from its own steps on a scratch clique: how
    /// many helpers Lemma 12 assigns, and the largest summation load without
    /// the split and with it.
    fn helper_loads(s: &SparseMatrix<Dist>, t: &SparseMatrix<Dist>, rho_hat: usize) -> [u64; 3] {
        let n = s.n();
        let mut clique = Clique::new(n);
        let t_cols = t.transpose();
        let mut left = Operand::prepare::<MinPlus>(&mut clique, Side::Left, s.rows()).unwrap();
        let mut right =
            Operand::prepare::<MinPlus>(&mut clique, Side::Right, t_cols.rows()).unwrap();
        let cube = {
            let (s, t) = (left.prepared().unwrap(), right.prepared().unwrap());
            let shape = CubeShape::choose(n, s.counts.density(), t.counts.density(), rho_hat);
            CubePartition::build(&mut clique, shape, s, t).unwrap()
        };
        let inputs =
            deliver::<MinPlus>(&mut clique, &cube, &mut left, &mut right, &cube.sigma1()).unwrap();
        let mut scratch = ProductScratch::default();
        let sizes: Vec<u64> = inputs
            .iter()
            .map(|input| local_product::<MinPlus>(&mut scratch, input).len() as u64)
            .collect();
        let scopes = lemma_12_scopes(&cube, rho_hat);
        let (sigma2, chunk_of) = assign_helpers(&cube, &sizes, &scopes, rho_hat).unwrap();
        let helpers = (0..cube.shape.subtasks()).map(|v| sigma2.nodes_for(v).len() as u64).sum();
        let mut loads = vec![0; n];
        for (_, owner, part) in split(&cube, &sizes, &sigma2, &chunk_of) {
            loads[owner] += part.len() as u64;
        }
        [helpers, *sizes.iter().max().unwrap(), *loads.iter().max().unwrap()]
    }

    #[test]
    fn helpers_run_only_where_they_lower_the_summation_load() {
        let (n, rho_hat) = (32, 8);
        // Every row of S and every column of T holds one entry, so Lemma 5
        // deals row r to row block r mod b and column c to column block
        // c mod a. Rows ≡ 0 mod b of S hit middle 0, and row 0 of T covers
        // the columns ≡ 0 mod a: their whole product sits in one subtask.
        let CubeShape { a, b, .. } = CubeShape::choose(n, 1, 1, rho_hat);
        let fin = |v: usize| Dist::fin(v as u64 + 1);
        let mut s = SparseMatrix::<Dist>::zeros(n);
        let mut t = SparseMatrix::<Dist>::zeros(n);
        for v in 0..n {
            s.set(v, if v % b == 0 { 0 } else { v }, fin(v));
            t.set(if v % a == 0 { 0 } else { v }, v, fin(v));
        }
        // Random operands of a few entries a row, as the benchmark's
        // products have, with a hint half their output density: Lemma 12
        // assigns helpers, whose parts land beside whole products.
        let mut rng = StdRng::seed_from_u64(0);
        let val = |rng: &mut StdRng| Dist::fin(rng.gen_range(1..50));
        let u = random::<MinPlus>(&mut rng, n, 5, true, val);
        let w = random::<MinPlus>(&mut rng, n, 5, true, val);
        let half = u.multiply::<MinPlus>(&w).density() / 2;
        let cases = [("one dense subtask", &s, &t, rho_hat, true), ("random", &u, &w, half, false)];
        for (what, s, t, rho_hat, pays) in cases {
            let [helpers, whole, split] = helper_loads(s, t, rho_hat);
            let units = |load: u64| load.div_ceil(n as u64);
            assert!(helpers > 0, "{what}: Lemma 12 assigns helpers");
            assert_eq!(units(split) < units(whole), pays, "{what}: {split} against {whole}");
            let mut clique = Clique::new(n);
            let t_cols = t.transpose();
            let mut left = Operand::unprepared(Side::Left, s.rows());
            let mut right = Operand::unprepared(Side::Right, t_cols.rows());
            let rows =
                sparse_product::<MinPlus>(&mut clique, &mut left, &mut right, rho_hat, false)
                    .unwrap();
            assert_eq!(SparseMatrix::from_rows(rows), s.multiply::<MinPlus>(t), "{what}");
            let phases = &clique.metrics().phases;
            let deliveries = phases["sparse_mm/deliver/fanout/route"].invocations;
            assert_eq!(deliveries, 1 + u64::from(pays), "{what}: σ2 runs only if it pays");
            let sorted = phases["sparse_mm/sum/sort"].rounds;
            assert_eq!(sorted, units(if pays { split } else { whole }), "{what}");
        }
        // The doubling search stops where it did before the rule, as the
        // helper assignment still reports a hint too small: on the star's
        // square, whose rows are full, at ρ̂ = 16.
        let mut star = SparseMatrix::<Dist>::identity::<MinPlus>(n);
        for v in 1..n {
            star.set(0, v, fin(v));
            star.set(v, 0, fin(v));
        }
        let star_cols = star.transpose();
        let auto =
            sparse_multiply_auto::<MinPlus>(&mut Clique::new(n), star.rows(), star_cols.rows());
        let (rows, used) = auto.unwrap();
        assert_eq!(SparseMatrix::from_rows(rows), star.multiply::<MinPlus>(&star));
        assert_eq!(used, 16);
    }
}
