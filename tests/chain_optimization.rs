//! Integration tests for the Appendix C optimizer across crates: DP
//! optimality against exhaustive enumeration, and estimated vs exact costs.

use std::sync::Arc;

use mnc::core::{MncConfig, MncSketch, OpKind, SplitMix64};
use mnc::estimators::{MncEstimator, SparsityEstimator};
use mnc::expr::chain_opt::sketch_dot;
use mnc::expr::{
    chain_flops_exact, dense_chain_order, plan_cost_sketched, random_plan, sparse_chain_order,
    sparse_chain_order_cached, EstimationContext, ExprDag, NodeId, PlanTree,
};
use mnc::matrix::{gen, CsrMatrix};
use proptest::prelude::*;
use rand::SeedableRng;

fn chain(seed: u64, dims: &[usize], sparsities: &[f64]) -> Vec<Arc<CsrMatrix>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    dims.windows(2)
        .zip(sparsities)
        .map(|(w, &s)| {
            Arc::new(gen::rand_uniform(
                &mut rng,
                w[0],
                w[1],
                s.max(1.0 / (w[0] * w[1]) as f64),
            ))
        })
        .collect()
}

/// Enumerates every parenthesization of `n` matrices.
fn all_plans(lo: usize, hi: usize) -> Vec<PlanTree> {
    if lo == hi {
        return vec![PlanTree::Leaf(lo)];
    }
    let mut out = Vec::new();
    for k in lo..hi {
        for l in all_plans(lo, k) {
            for r in all_plans(k + 1, hi) {
                out.push(PlanTree::Node(Box::new(l.clone()), Box::new(r.clone())));
            }
        }
    }
    out
}

#[test]
fn dense_dp_matches_exhaustive_enumeration() {
    let dims = [7usize, 12, 4, 20, 9, 15];
    let (dp_cost, _) = dense_chain_order(&dims);
    let plans = all_plans(0, dims.len() - 2);
    let best = plans
        .iter()
        .map(|p| dense_plan_cost(&dims, p))
        .fold(f64::INFINITY, f64::min);
    assert_eq!(dp_cost, best);
}

fn dense_plan_cost(dims: &[usize], plan: &PlanTree) -> f64 {
    fn go(dims: &[usize], plan: &PlanTree) -> (usize, usize, f64) {
        match plan {
            PlanTree::Leaf(i) => (dims[*i], dims[*i + 1], 0.0),
            PlanTree::Node(l, r) => {
                let (ml, nl, cl) = go(dims, l);
                let (nr2, lr, cr) = go(dims, r);
                assert_eq!(nl, nr2);
                (ml, lr, cl + cr + ml as f64 * nl as f64 * lr as f64)
            }
        }
    }
    go(dims, plan).2
}

#[test]
fn sparse_dp_matches_exhaustive_enumeration_under_its_own_cost_model() {
    // The DP must find the cheapest plan under the sketched cost model.
    // The DP memoizes the sketch of the *optimal* subchain, while
    // plan_cost_sketched propagates along the evaluated plan; propagation
    // is pure, so both derive the same sketches.
    let dims = [8usize, 30, 6, 25, 12];
    let sparsities = [0.2, 0.05, 0.3, 0.1];
    let mats = chain(5, &dims, &sparsities);
    let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    let cfg = MncConfig {
        probabilistic_rounding: false,
        ..MncConfig::default()
    };
    let (dp_cost, dp_plan) = sparse_chain_order(&sketches, &cfg);
    let plans = all_plans(0, mats.len() - 1);
    let mut best = f64::INFINITY;
    for p in &plans {
        best = best.min(plan_cost_sketched(&sketches, p, &cfg));
    }
    let dp_replayed = plan_cost_sketched(&sketches, &dp_plan, &cfg);
    assert!(
        (dp_cost - dp_replayed).abs() < 1e-6,
        "DP cost {dp_cost} vs replay {dp_replayed}"
    );
    assert!(
        dp_cost <= best + 1e-6,
        "DP {dp_cost} worse than exhaustive best {best}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The DP's optimal cost is `plan_cost_sketched` of its own plan, bit
    /// for bit, under default (probabilistic) rounding: every subchain
    /// sketch is a pure function of its inputs, whichever path derives it.
    #[test]
    fn sparse_dp_cost_is_the_sketched_cost_of_its_plan(seed in any::<u64>(), len in 3usize..8) {
        let mut draw = SplitMix64::new(seed);
        let dims: Vec<usize> = (0..=len).map(|_| 5 + draw.next_u64() as usize % 56).collect();
        let sparsities: Vec<f64> = (0..len).map(|_| 0.01 + 0.4 * draw.next_f64()).collect();
        let mats = chain(seed, &dims, &sparsities);
        let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
        let cfg = MncConfig::default();
        let (dp_cost, plan) = sparse_chain_order(&sketches, &cfg);
        let replayed = plan_cost_sketched(&sketches, &plan, &cfg);
        prop_assert_eq!(dp_cost.to_bits(), replayed.to_bits(), "plan {}", plan);
    }
}

#[test]
fn sparse_plan_beats_random_plans_in_actual_flops() {
    let dims = [30usize, 120, 15, 100, 25, 40];
    let sparsities = [0.05, 0.01, 0.3, 0.02, 0.2];
    let mats = chain(9, &dims, &sparsities);
    let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    // One chain at one draw sequence: under probabilistic rounding the
    // plan, chosen on estimated costs, can change with the draws, so this
    // single chain would test the draws rather than the optimizer.
    // Deterministic rounding makes the plan a property of the chain alone.
    let cfg = MncConfig {
        probabilistic_rounding: false,
        ..MncConfig::default()
    };
    let (_, plan) = sparse_chain_order(&sketches, &cfg);
    let opt_flops = chain_flops_exact(&mats, &plan);
    let mut rng = SplitMix64::new(77);
    const TRIALS: usize = 30;
    let mut costs: Vec<u64> = (0..TRIALS)
        .map(|_| chain_flops_exact(&mats, &random_plan(mats.len(), &mut rng)))
        .collect();
    costs.sort_unstable();
    // The optimized plan is chosen on *estimated* costs, so it may lose a
    // photo finish in actual FLOPs — but it must beat the median random
    // plan and stay within 1.5x of the best one sampled.
    assert!(
        opt_flops <= costs[TRIALS / 2],
        "optimized {opt_flops} worse than median random {}",
        costs[TRIALS / 2]
    );
    assert!(
        opt_flops as f64 <= 1.5 * costs[0] as f64,
        "optimized {opt_flops} vs best random {}",
        costs[0]
    );
}

#[test]
fn optimizer_handles_degenerate_chains() {
    // Length-1 and length-2 chains.
    let (c1, p1) = dense_chain_order(&[5, 9]);
    assert_eq!(c1, 0.0);
    assert_eq!(p1, PlanTree::Leaf(0));

    let mats = chain(3, &[5, 9, 4], &[0.5, 0.5]);
    let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    let (c2, p2) = sparse_chain_order(&sketches, &MncConfig::default());
    assert!(c2 > 0.0);
    assert_eq!(p2.to_string(), "(M0 M1)");
    // DP cost equals the exact first-product FLOPs (base sketches exact).
    let exact = chain_flops_exact(&mats, &p2) as f64;
    assert_eq!(c2, exact);
}

/// Pins the sparse DP's cost and plan and the sketched cost of a left-deep
/// plan on a seeded 6-matrix chain, under full MNC and *MNC Basic*, so a
/// change to how the optimizer holds its sketches cannot move a bit.
#[test]
fn chain_costs_and_plan_are_pinned() {
    let dims = [40usize, 60, 30, 50, 20, 45, 35];
    let sparsities = [0.05, 0.2, 0.02, 0.3, 0.1, 0.08];
    let sketches: Vec<MncSketch> = chain(0xC4A1, &dims, &sparsities)
        .iter()
        .map(|m| MncSketch::build(m))
        .collect();
    let left_deep = PlanTree::left_deep(sketches.len());
    for (cfg, dp_bits, dp_plan, left_deep_bits) in [
        (
            MncConfig::default(),
            0x40c4c70000000000,
            "((((M0 M1) (M2 M3)) M4) M5)",
            0x40c5948000000000,
        ),
        (
            MncConfig::basic(),
            0x40c5560000000000,
            "((((M0 M1) (M2 M3)) M4) M5)",
            0x40c6498000000000,
        ),
    ] {
        let (cost, plan) = sparse_chain_order(&sketches, &cfg);
        let ld = plan_cost_sketched(&sketches, &left_deep, &cfg);
        assert_eq!(
            (cost.to_bits(), plan.to_string(), ld.to_bits()),
            (dp_bits, dp_plan.to_string(), left_deep_bits),
            "{cfg:?}: DP {cost} {plan}, left-deep {ld}"
        );
    }
}

/// The cached DP draws its leaf sketches from an estimation context; on a
/// cold context it must answer exactly what the DP over freshly built
/// sketches answers, under full MNC and *MNC Basic*.
#[test]
fn cached_chain_order_matches_prebuilt_sketches() {
    let dims = [40usize, 60, 30, 50, 20, 45, 35];
    let sparsities = [0.05, 0.2, 0.02, 0.3, 0.1, 0.08];
    let mats = chain(0xC4A1, &dims, &sparsities);
    for est in [MncEstimator::new(), MncEstimator::basic()] {
        let cfg = *est.config();
        let sketches: Vec<MncSketch> = mats
            .iter()
            .map(|m| MncSketch::build_with(m, cfg.use_extended))
            .collect();
        let (cost, plan) = sparse_chain_order(&sketches, &cfg);
        let mut ctx = EstimationContext::new();
        let (cached_cost, cached_plan) = sparse_chain_order_cached(&mut ctx, &est, &mats).unwrap();
        assert_eq!(cached_cost.to_bits(), cost.to_bits(), "{}", est.name());
        assert_eq!(cached_plan, plan, "{}", est.name());
    }
}

/// A second optimization over the same matrices builds no sketch,
/// propagates no subchain, and returns the same cost and plan: every leaf
/// and every subchain below the whole chain hits the context.
#[test]
fn warm_cached_chain_order_builds_nothing() {
    let mats = chain(21, &[30, 45, 25, 60, 15], &[0.1, 0.05, 0.2, 0.3]);
    let est = MncEstimator::new();
    let mut ctx = EstimationContext::new();
    let cold = sparse_chain_order_cached(&mut ctx, &est, &mats).unwrap();
    let builds = ctx.stats().builds;
    assert_eq!(builds, mats.len() as u64);
    let props = propagations(&ctx);
    // Subchains i..=j with i < j, less the whole chain, whose sketch
    // nothing reads.
    let n = mats.len() as u64;
    let subchains = n * (n - 1) / 2 - 1;
    assert_eq!(props, subchains);
    let warm = sparse_chain_order_cached(&mut ctx, &est, &mats).unwrap();
    assert_eq!(ctx.stats().builds, builds);
    assert_eq!(propagations(&ctx), props);
    assert_eq!(ctx.stats().cache_hits, n + subchains);
    assert_eq!((warm.0.to_bits(), &warm.1), (cold.0.to_bits(), &cold.1));
}

fn propagations(ctx: &EstimationContext) -> u64 {
    ctx.stats().per_op().map(|(_, s)| s.propagations).sum()
}

/// The DP's subchain products and a DAG walk over the DP's own plan share
/// cache entries: the walk finds every product below its root cached and
/// propagates nothing, and estimates the root the DP never propagated.
#[test]
fn walk_over_the_dp_plan_hits_the_dp_entries() {
    let mats = chain(
        0xC4A1,
        &[40, 60, 30, 50, 20, 45, 35],
        &[0.05, 0.2, 0.02, 0.3, 0.1, 0.08],
    );
    let est = MncEstimator::new();
    let mut ctx = EstimationContext::new();
    let (_, plan) = sparse_chain_order_cached(&mut ctx, &est, &mats).unwrap();
    let (builds, props, misses) = (
        ctx.stats().builds,
        propagations(&ctx),
        ctx.stats().cache_misses,
    );

    let mut dag = ExprDag::new();
    let leaves: Vec<NodeId> = mats
        .iter()
        .enumerate()
        .map(|(i, m)| dag.leaf(format!("M{i}"), Arc::clone(m)))
        .collect();
    fn build(dag: &mut ExprDag, plan: &PlanTree, leaves: &[NodeId]) -> NodeId {
        match plan {
            PlanTree::Leaf(i) => leaves[*i],
            PlanTree::Node(l, r) => {
                let (l, r) = (build(dag, l, leaves), build(dag, r, leaves));
                dag.matmul(l, r).unwrap()
            }
        }
    }
    let root = build(&mut dag, &plan, &leaves);
    let hits = ctx.stats().cache_hits;
    let warm = ctx.estimate_root(&est, &dag, root).unwrap();
    // The root's two inputs hit, short-circuiting everything below them.
    assert_eq!(ctx.stats().cache_hits, hits + 2);
    assert_eq!(ctx.stats().builds, builds);
    assert_eq!(propagations(&ctx), props);
    assert_eq!(ctx.stats().cache_misses, misses);
    let cold = EstimationContext::new()
        .estimate_root(&est, &dag, root)
        .unwrap();
    assert_eq!(warm.to_bits(), cold.to_bits());
}

/// MNC and *MNC Basic* derive different sketches from the same chain, so
/// they never share a leaf or a subchain entry.
#[test]
fn mnc_and_mnc_basic_never_share_a_chain_entry() {
    let mats = chain(17, &[25, 40, 30, 35, 20], &[0.1, 0.2, 0.05, 0.15]);
    let mut ctx = EstimationContext::new();
    let full = sparse_chain_order_cached(&mut ctx, &MncEstimator::new(), &mats).unwrap();
    let misses = ctx.stats().cache_misses;
    let basic = sparse_chain_order_cached(&mut ctx, &MncEstimator::basic(), &mats).unwrap();
    assert_eq!(ctx.stats().cache_hits, 0);
    assert_eq!(ctx.stats().cache_misses, 2 * misses);
    // Each answers what a cold context answers for it.
    for (est, got) in [(MncEstimator::new(), full), (MncEstimator::basic(), basic)] {
        let cold = sparse_chain_order_cached(&mut EstimationContext::new(), &est, &mats).unwrap();
        assert_eq!(
            (got.0.to_bits(), &got.1),
            (cold.0.to_bits(), &cold.1),
            "{}",
            est.name()
        );
    }
}

/// The DP borrows its leaves: owned sketches, references and shared
/// pointers give the same bits.
#[test]
fn sparse_dp_accepts_borrowed_and_shared_sketches() {
    let mats = chain(8, &[20, 35, 10, 40, 25], &[0.2, 0.1, 0.4, 0.05]);
    let owned: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    let borrowed: Vec<&MncSketch> = owned.iter().collect();
    let shared: Vec<Arc<MncSketch>> = owned.iter().cloned().map(Arc::new).collect();
    for cfg in [MncConfig::default(), MncConfig::basic()] {
        let (cost, plan) = sparse_chain_order(&owned, &cfg);
        for (what, (c, p)) in [
            ("borrowed", sparse_chain_order(&borrowed, &cfg)),
            ("shared", sparse_chain_order(&shared, &cfg)),
        ] {
            assert_eq!(c.to_bits(), cost.to_bits(), "{what} under {cfg:?}");
            assert_eq!(p, plan, "{what} under {cfg:?}");
        }
    }
}

#[test]
fn single_matrix_chain_costs_nothing() {
    let mats = chain(4, &[12, 7], &[0.3]);
    let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    let cfg = MncConfig::default();
    let (cost, plan) = sparse_chain_order(&sketches, &cfg);
    assert_eq!(cost, 0.0);
    assert_eq!(plan, PlanTree::Leaf(0));
    assert_eq!(plan_cost_sketched(&sketches, &plan, &cfg), 0.0);
    let mut ctx = EstimationContext::new();
    let cached = sparse_chain_order_cached(&mut ctx, &MncEstimator::new(), &mats).unwrap();
    assert_eq!(cached, (0.0, PlanTree::Leaf(0)));
}

#[test]
fn basic_sparse_dp_matches_exhaustive_enumeration() {
    // *MNC Basic* drops the extension vectors and the bounds, so its
    // propagated sketches, and hence its costs, differ from full MNC's;
    // the DP must still be optimal under them.
    let dims = [9usize, 25, 7, 30, 11, 16];
    let sparsities = [0.15, 0.08, 0.25, 0.12, 0.3];
    let mats = chain(13, &dims, &sparsities);
    let cfg = MncConfig::basic();
    let sketches: Vec<MncSketch> = mats
        .iter()
        .map(|m| MncSketch::build_with(m, false))
        .collect();
    let (dp_cost, dp_plan) = sparse_chain_order(&sketches, &cfg);
    assert_eq!(
        dp_cost.to_bits(),
        plan_cost_sketched(&sketches, &dp_plan, &cfg).to_bits()
    );
    let best = all_plans(0, mats.len() - 1)
        .iter()
        .map(|p| plan_cost_sketched(&sketches, p, &cfg))
        .fold(f64::INFINITY, f64::min);
    assert!(
        dp_cost <= best,
        "DP {dp_cost} worse than exhaustive best {best}"
    );
}

/// A left-deep plan's sketched cost is the running sum of the sketch dots
/// of each prefix product with the next matrix.
#[test]
fn left_deep_sketched_cost_is_the_sum_of_prefix_dots() {
    let mats = chain(31, &[15, 40, 22, 33, 18], &[0.1, 0.2, 0.07, 0.25]);
    let sketches: Vec<MncSketch> = mats.iter().map(|m| MncSketch::build(m)).collect();
    for cfg in [MncConfig::default(), MncConfig::basic()] {
        let mut prefix = sketches[0].clone();
        let mut want = 0.0f64;
        for next in &sketches[1..] {
            want += sketch_dot(&prefix, next);
            prefix = MncSketch::propagate_in(&OpKind::MatMul, &[&prefix, next], &cfg).unwrap();
        }
        let plan = PlanTree::left_deep(sketches.len());
        let got = plan_cost_sketched(&sketches, &plan, &cfg);
        assert_eq!(got.to_bits(), want.to_bits(), "{cfg:?}");
    }
}
