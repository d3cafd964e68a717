//! Integration tests for the Appendix C optimizer across crates: DP
//! optimality against exhaustive enumeration, and estimated vs exact costs.

use std::sync::Arc;

use mnc::core::{MncConfig, MncSketch, SplitMix64};
use mnc::expr::{
    chain_flops_exact, dense_chain_order, plan_cost_sketched, random_plan, sparse_chain_order,
    PlanTree,
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
