//! Matrix-multiplication chain optimization (Appendix C).
//!
//! The textbook `O(n³)` dynamic program \[CLRS\] in two flavours:
//!
//! * [`dense_chain_order`] — classic dense FLOP costs `m·n·l` per product,
//!   oblivious to sparsity (SystemML's default);
//! * [`sparse_chain_order`] — the paper's extension: the cost of a sparse
//!   product is its multiplication count, computed as the sketch dot
//!   product `h^c_left · h^r_right` (Eq. 17); an extra memo table `E`
//!   stores the propagated MNC sketch of each optimal subchain.
//!   [`sparse_chain_order_cached`] runs the same DP body with its leaves
//!   and subchain products drawn from an [`EstimationContext`], keyed by
//!   content: a subchain shares its entry with a DAG node of the same
//!   parenthesization, and with the same subchain of a later call.
//!
//! [`random_plan`] enumerates uniformly random parenthesizations and
//! [`plan_cost_sketched`] / [`chain_flops_exact`] cost arbitrary plans —
//! together they regenerate the Figure 16 experiment.
//!
//! Both sketch paths propagate through [`MncSketch::propagate_in`], whose
//! rounding is seeded from each product's own inputs. A subchain's sketch
//! is therefore the same whichever path or fill order reaches it, and the
//! DP's optimal cost equals [`plan_cost_sketched`] of its own plan bit for
//! bit.

use std::borrow::{Borrow, Cow};
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;

use mnc_core::{MncConfig, MncSketch, OpKind, SplitMix64};
use mnc_estimators::{EstimatorError, MncEstimator, SparsityEstimator, Synopsis};
use mnc_matrix::{ops, CsrMatrix};

use crate::session::{EstimationContext, SynopsisKey};

/// A binary parenthesization of a matrix chain; leaves are chain positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanTree {
    /// The `i`-th matrix of the chain.
    Leaf(usize),
    /// A product of two sub-plans.
    Node(Box<PlanTree>, Box<PlanTree>),
}

impl PlanTree {
    /// Fully left-deep plan `((M0 M1) M2) ...` over `n` matrices.
    pub fn left_deep(n: usize) -> PlanTree {
        assert!(n >= 1);
        let mut t = PlanTree::Leaf(0);
        for i in 1..n {
            t = PlanTree::Node(Box::new(t), Box::new(PlanTree::Leaf(i)));
        }
        t
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        match self {
            PlanTree::Leaf(_) => 1,
            PlanTree::Node(l, r) => l.len() + r.len(),
        }
    }

    /// True only for the degenerate empty case (never constructed).
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl fmt::Display for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanTree::Leaf(i) => write!(f, "M{i}"),
            PlanTree::Node(l, r) => write!(f, "({l} {r})"),
        }
    }
}

/// Classic dense matrix-chain DP: minimizes `Σ m·n·l` over all
/// parenthesizations. `dims` has `k + 1` entries for `k` matrices.
/// Returns `(optimal cost, plan)`.
pub fn dense_chain_order(dims: &[usize]) -> (f64, PlanTree) {
    let n = dims.len() - 1;
    assert!(n >= 1, "need at least one matrix");
    let mut cost = vec![vec![0.0f64; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            cost[i][j] = f64::INFINITY;
            for k in i..j {
                let c = cost[i][k]
                    + cost[k + 1][j]
                    + dims[i] as f64 * dims[k + 1] as f64 * dims[j + 1] as f64;
                if c < cost[i][j] {
                    cost[i][j] = c;
                    split[i][j] = k;
                }
            }
        }
    }
    (cost[0][n - 1], extract_plan(&split, 0, n - 1))
}

/// Sparsity-aware matrix-chain DP (Appendix C, Eq. 17): the cost of joining
/// two optimal subchains is the estimated sparse multiplication count
/// `h^c · h^r`; subchain sketches are memoized in `E` and propagated with
/// the MNC rules. Returns `(optimal estimated FLOPs, plan)`; the cost is
/// [`plan_cost_sketched`] of the plan, bit for bit.
///
/// The leaf sketches are only borrowed: pass owned sketches or references
/// to sketches held elsewhere (a cache's synopses).
pub fn sparse_chain_order<S: Borrow<MncSketch>>(
    sketches: &[S],
    cfg: &MncConfig,
) -> (f64, PlanTree) {
    let leaves = sketches.iter().map(|s| Cow::Borrowed(s.borrow())).collect();
    let Ok(out) = chain_dp(leaves, |l: &Cow<'_, MncSketch>, r: &Cow<'_, MncSketch>| {
        Ok::<_, Infallible>(Cow::Owned(product(l, r, cfg)))
    });
    out
}

/// [`sparse_chain_order`] with leaf sketches and subchain products drawn
/// from an [`EstimationContext`]: each is looked up under its content key
/// and built or propagated only on a miss. Repeated chain optimization over
/// overlapping matrix sets (e.g. scoring many rewrites of one program)
/// builds each sketch and propagates each subchain once, and a DAG walk
/// over one of the DP's parenthesizations finds its products cached (and
/// vice versa). The sketch dots are recomputed on every call.
pub fn sparse_chain_order_cached(
    ctx: &mut EstimationContext,
    est: &MncEstimator,
    mats: &[Arc<CsrMatrix>],
) -> mnc_estimators::Result<(f64, PlanTree)> {
    let _span = ctx.recorder().span("chain_opt").op("matmul");
    let ekey: Arc<str> = est.cache_key().into();
    let leaves = mats
        .iter()
        .map(|m| {
            let key = SynopsisKey::leaf(m);
            let syn = ctx.keyed_leaf(est, (Arc::clone(&ekey), key.clone()), m)?;
            Subchain::new(key, syn)
        })
        .collect::<mnc_estimators::Result<Vec<_>>>()?;
    cached_chain_dp(ctx, est, &ekey, leaves)
}

/// The sparse chain DP over leaves already drawn from `ctx`, each under
/// its content key (`ekey` is `est`'s half of the cache key). Subchain
/// products are looked up under the key a walk gives the same
/// parenthesization, and propagated and admitted on a miss.
pub(crate) fn cached_chain_dp(
    ctx: &mut EstimationContext,
    est: &MncEstimator,
    ekey: &Arc<str>,
    leaves: Vec<Subchain>,
) -> mnc_estimators::Result<(f64, PlanTree)> {
    chain_dp(leaves, |l: &Subchain, r: &Subchain| {
        let op = OpKind::MatMul;
        let key = SynopsisKey::derived(&op, [l.key.clone(), r.key.clone()]);
        let ins = [l.syn.as_ref(), r.syn.as_ref()];
        let syn = ctx.keyed_op(est, (Arc::clone(ekey), key.clone()), &op, &ins)?;
        Subchain::new(key, syn)
    })
}

/// A subchain of the cached DP: its content key and its MNC synopsis.
pub(crate) struct Subchain {
    key: SynopsisKey,
    syn: Arc<Synopsis>,
}

impl Subchain {
    pub(crate) fn new(key: SynopsisKey, syn: Arc<Synopsis>) -> mnc_estimators::Result<Subchain> {
        match syn.as_ref() {
            Synopsis::Mnc(_) => Ok(Subchain { key, syn }),
            other => Err(EstimatorError::Internal(format!(
                "sparse_chain_order_cached: MNC estimator produced a non-MNC synopsis {:?}",
                other.shape()
            ))),
        }
    }
}

impl Borrow<MncSketch> for Subchain {
    fn borrow(&self) -> &MncSketch {
        match self.syn.as_ref() {
            Synopsis::Mnc(s) => &s.sketch,
            _ => unreachable!("Subchain::new admits MNC synopses only"),
        }
    }
}

/// The one sparse chain DP. `leaves[i]` holds matrix `i`'s sketch, and
/// `product(left, right)` the sketch of two adjacent subchains' product.
/// The whole chain's product is never asked for: only its cost is read.
fn chain_dp<T: Borrow<MncSketch>, Err>(
    leaves: Vec<T>,
    mut product: impl FnMut(&T, &T) -> Result<T, Err>,
) -> Result<(f64, PlanTree), Err> {
    let n = leaves.len();
    assert!(n >= 1, "need at least one matrix");
    let mut cost = vec![vec![0.0f64; n]; n];
    let mut split = vec![vec![0usize; n]; n];
    // E[i][j]: the sketch of the optimal plan for the subchain i..=j; the
    // diagonal holds the leaves.
    let mut memo: Vec<Vec<Option<T>>> = (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
    for (i, leaf) in leaves.into_iter().enumerate() {
        memo[i][i] = Some(leaf);
    }
    fn subchain<T: Borrow<MncSketch>>(memo: &[Vec<Option<T>>], i: usize, j: usize) -> &T {
        memo[i][j].as_ref().expect("filled by a shorter length")
    }
    for len in 2..=n {
        for i in 0..=n - len {
            let j = i + len - 1;
            cost[i][j] = f64::INFINITY;
            let mut best_k = i;
            for k in i..j {
                let left = subchain(&memo, i, k).borrow();
                let right = subchain(&memo, k + 1, j).borrow();
                let c = cost[i][k] + cost[k + 1][j] + sketch_dot(left, right);
                if c < cost[i][j] {
                    cost[i][j] = c;
                    best_k = k;
                }
            }
            split[i][j] = best_k;
            if len < n {
                let out = product(subchain(&memo, i, best_k), subchain(&memo, best_k + 1, j))?;
                memo[i][j] = Some(out);
            }
        }
    }
    Ok((cost[0][n - 1], extract_plan(&split, 0, n - 1)))
}

/// Estimated sparse multiplication count of the product of two sketched
/// operands: `Σ_k h^c_A[k] · h^r_B[k]` (Eq. 17). This is independent of the
/// output sparsity — it counts FLOPs of a Gustavson-style kernel.
pub fn sketch_dot(a: &MncSketch, b: &MncSketch) -> f64 {
    debug_assert_eq!(a.ncols, b.nrows, "sketch_dot shape mismatch");
    // Unrolled integer-accumulating kernel: exact (single final rounding)
    // wherever the sequential f64 sum was, and bit-identical to it while
    // partial sums stay below 2^53.
    mnc_kernels::dot_u32(&a.hc, &b.hr)
}

fn extract_plan(split: &[Vec<usize>], i: usize, j: usize) -> PlanTree {
    if i == j {
        PlanTree::Leaf(i)
    } else {
        let k = split[i][j];
        PlanTree::Node(
            Box::new(extract_plan(split, i, k)),
            Box::new(extract_plan(split, k + 1, j)),
        )
    }
}

/// Estimated total FLOPs of an arbitrary plan via MNC sketch propagation
/// (used to score the Figure 16 random plans without executing them).
pub fn plan_cost_sketched(sketches: &[MncSketch], plan: &PlanTree, cfg: &MncConfig) -> f64 {
    // A leaf borrows its sketch; only products are owned.
    fn go<'a>(
        sketches: &'a [MncSketch],
        plan: &PlanTree,
        cfg: &MncConfig,
    ) -> (Cow<'a, MncSketch>, f64) {
        match plan {
            PlanTree::Leaf(i) => (Cow::Borrowed(&sketches[*i]), 0.0),
            PlanTree::Node(l, r) => {
                let (sl, cl) = go(sketches, l, cfg);
                let (sr, cr) = go(sketches, r, cfg);
                let cost = cl + cr + sketch_dot(&sl, &sr);
                (Cow::Owned(product(&sl, &sr, cfg)), cost)
            }
        }
    }
    go(sketches, plan, cfg).1
}

/// The propagated sketch of `a · b`.
fn product(a: &MncSketch, b: &MncSketch, cfg: &MncConfig) -> MncSketch {
    MncSketch::propagate_in(&OpKind::MatMul, &[a, b], cfg).expect("chain shapes agree")
}

/// Exact total multiplication count of a plan, materializing every
/// intermediate pattern. Expensive — use at verification scale only.
pub fn chain_flops_exact(mats: &[Arc<CsrMatrix>], plan: &PlanTree) -> u64 {
    fn go(mats: &[Arc<CsrMatrix>], plan: &PlanTree) -> (Arc<CsrMatrix>, u64) {
        match plan {
            PlanTree::Leaf(i) => (Arc::clone(&mats[*i]), 0),
            PlanTree::Node(l, r) => {
                let (ml, cl) = go(mats, l);
                let (mr, cr) = go(mats, r);
                let flops = ops::product::matmul_flops(&ml, &mr).expect("chain shapes agree");
                let out = Arc::new(ops::bool_matmul(&ml, &mr).expect("chain shapes agree"));
                (out, cl + cr + flops)
            }
        }
    }
    go(mats, plan).1
}

/// Draws a uniformly random parenthesization of `n` matrices by recursive
/// random splitting.
pub fn random_plan(n: usize, rng: &mut SplitMix64) -> PlanTree {
    fn go(lo: usize, hi: usize, rng: &mut SplitMix64) -> PlanTree {
        if lo == hi {
            return PlanTree::Leaf(lo);
        }
        let k = lo + (rng.next_u64() as usize) % (hi - lo);
        PlanTree::Node(Box::new(go(lo, k, rng)), Box::new(go(k + 1, hi, rng)))
    }
    assert!(n >= 1);
    go(0, n - 1, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    #[test]
    fn dense_dp_textbook_example() {
        // CLRS example: dims 30x35, 35x15, 15x5, 5x10, 10x20, 20x25
        // -> optimal cost 15,125 with plan ((M0 (M1 M2)) ((M3 M4) M5)).
        let dims = [30, 35, 15, 5, 10, 20, 25];
        let (cost, plan) = dense_chain_order(&dims);
        assert_eq!(cost, 15_125.0);
        assert_eq!(plan.to_string(), "((M0 (M1 M2)) ((M3 M4) M5))");
    }

    #[test]
    fn single_matrix_chain() {
        let (cost, plan) = dense_chain_order(&[5, 7]);
        assert_eq!(cost, 0.0);
        assert_eq!(plan, PlanTree::Leaf(0));
    }

    #[test]
    fn plan_tree_helpers() {
        let t = PlanTree::left_deep(4);
        assert_eq!(t.len(), 4);
        assert_eq!(t.to_string(), "(((M0 M1) M2) M3)");
    }

    #[test]
    fn random_plans_are_valid_and_varied() {
        let mut rng = SplitMix64::new(7);
        let mut shapes = std::collections::HashSet::new();
        for _ in 0..50 {
            let p = random_plan(6, &mut rng);
            assert_eq!(p.len(), 6);
            shapes.insert(p.to_string());
        }
        assert!(shapes.len() > 5, "only {} distinct plans", shapes.len());
    }

    fn random_chain(seed: u64, dims: &[usize], sparsities: &[f64]) -> Vec<Arc<CsrMatrix>> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        dims.windows(2)
            .zip(sparsities)
            .map(|(w, &s)| Arc::new(gen::rand_uniform(&mut rng, w[0], w[1], s)))
            .collect()
    }

    #[test]
    fn sparse_dp_beats_or_matches_dense_plan_on_skewed_chain() {
        // A chain where sparsity makes the dense-optimal order suboptimal.
        let dims = [40usize, 200, 30, 200, 25];
        let sparsities = [0.01, 0.6, 0.005, 0.5];
        let mats = random_chain(11, &dims, &sparsities);
        let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
        let cfg = MncConfig::default();
        let (_, dense_plan) = dense_chain_order(&dims);
        let (_, sparse_plan) = sparse_chain_order(&sketches, &cfg);
        let dense_flops = chain_flops_exact(&mats, &dense_plan);
        let sparse_flops = chain_flops_exact(&mats, &sparse_plan);
        assert!(
            sparse_flops <= dense_flops,
            "sparse-aware plan ({sparse_flops}) must not lose to dense plan ({dense_flops})"
        );
    }

    #[test]
    fn sparse_dp_never_worse_than_left_deep_estimate() {
        for seed in 0..5u64 {
            let dims = [30usize, 60, 20, 50, 40, 10];
            let sparsities = [0.05, 0.2, 0.02, 0.3, 0.1];
            let mats = random_chain(100 + seed, &dims, &sparsities);
            let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
            let cfg = MncConfig::default();
            let (opt_cost, _) = sparse_chain_order(&sketches, &cfg);
            let left_deep = PlanTree::left_deep(mats.len());
            let ld_cost = plan_cost_sketched(&sketches, &left_deep, &cfg);
            assert!(
                opt_cost <= ld_cost + 1e-6,
                "DP ({opt_cost}) worse than left-deep ({ld_cost})"
            );
        }
    }

    #[test]
    fn sketched_cost_close_to_exact_on_uniform_data() {
        let dims = [25usize, 40, 30, 20];
        let sparsities = [0.1, 0.15, 0.2];
        let mats = random_chain(42, &dims, &sparsities);
        let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
        let plan = PlanTree::left_deep(3);
        let est = plan_cost_sketched(&sketches, &plan, &MncConfig::default());
        let exact = chain_flops_exact(&mats, &plan) as f64;
        let rel = est.max(exact) / est.min(exact).max(1e-12);
        assert!(rel < 1.4, "relative error {rel} (est {est}, exact {exact})");
    }

    #[test]
    fn first_product_cost_is_exact() {
        // For base matrices (exact sketches), the Eq. 17 dot product is the
        // exact multiplication count.
        let mats = random_chain(5, &[10, 20, 15], &[0.3, 0.2]);
        let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
        let dot = sketch_dot(&sketches[0], &sketches[1]);
        let exact = ops::product::matmul_flops(&mats[0], &mats[1]).unwrap() as f64;
        assert_eq!(dot, exact);
    }
}
