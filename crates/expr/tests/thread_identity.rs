//! Thread-count invariance: every parallel path in the estimation stack is
//! a rearrangement of the same arithmetic, never an approximation. Estimates
//! and session statistics must be bit-identical at any worker count.
//!
//! CI runs this suite in debug **and** `--release` at `MNC_THREADS` 1, 2,
//! and 8 — when the variable is set, its value is compared against the
//! sequential run; when unset, the suite sweeps {2, 4, 8} itself.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;

use mnc_estimators::{
    BitsetEstimator, DensityMapEstimator, DynamicDensityMapEstimator, MetaAcEstimator,
    MncEstimator, OpKind, SparsityEstimator,
};
use mnc_expr::{EstimationContext, ExprDag, NodeId};
use mnc_matrix::{gen, CsrMatrix};

/// Worker counts under test: `MNC_THREADS` when set (the CI matrix pins it
/// to 1, 2, or 8 per job), a small sweep otherwise.
fn thread_counts() -> Vec<usize> {
    match std::env::var("MNC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(t) => vec![t],
        None => vec![2, 4, 8],
    }
}

fn make(rows: usize, cols: usize, s: f64, seed: u64) -> Arc<CsrMatrix> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Arc::new(gen::rand_uniform(&mut rng, rows, cols, s))
}

/// MNC with deterministic rounding.
fn det_mnc() -> MncEstimator {
    MncEstimator::with_config(
        "MNC",
        mnc_core::MncConfig {
            probabilistic_rounding: false,
            ..mnc_core::MncConfig::default()
        },
    )
}

/// A wide DAG with genuine level-parallelism: two independent products
/// joined by an add, then transposed.
fn wide_dag(seed: u64, d: usize) -> (ExprDag, NodeId) {
    let mut dag = ExprDag::new();
    let a = dag.leaf("A", make(d, d, 0.05, seed));
    let b = dag.leaf("B", make(d, d, 0.03, seed ^ 1));
    let c = dag.leaf("C", make(d, d, 0.04, seed ^ 2));
    let e = dag.leaf("E", make(d, d, 0.02, seed ^ 3));
    let left = dag.matmul(a, b).expect("square");
    let right = dag.matmul(c, e).expect("square");
    let sum = dag.ew_add(left, right).expect("same shape");
    let root = dag.transpose(sum).expect("unary");
    (dag, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The session wavefront walk: estimates and cache statistics are
    /// bit-identical at every worker count, cold and warm.
    #[test]
    fn session_walk_is_thread_count_invariant(seed in any::<u64>(), d in 24usize..72) {
        let (dag, root) = wide_dag(seed, d);
        let ests: Vec<Box<dyn SparsityEstimator>> = vec![
            Box::new(MncEstimator::new()),
            Box::new(det_mnc()),
            Box::new(DensityMapEstimator::default()),
            Box::new(BitsetEstimator::default()),
            Box::new(MetaAcEstimator),
        ];
        for est in &ests {
            let mut seq = EstimationContext::new();
            let cold = seq.estimate_root(est.as_ref(), &dag, root).expect("estimate");
            let warm = seq.estimate_root(est.as_ref(), &dag, root).expect("estimate");
            let seq_stats = (
                seq.stats().builds,
                seq.stats().cache_hits,
                seq.stats().cache_misses,
            );
            for t in thread_counts() {
                let mut par = EstimationContext::new().with_threads(t);
                let p_cold = par.estimate_root(est.as_ref(), &dag, root).expect("estimate");
                let p_warm = par.estimate_root(est.as_ref(), &dag, root).expect("estimate");
                prop_assert_eq!(cold.to_bits(), p_cold.to_bits(), "cold estimate drifted at {} threads", t);
                prop_assert_eq!(warm.to_bits(), p_warm.to_bits(), "warm estimate drifted at {} threads", t);
                let par_stats = (
                    par.stats().builds,
                    par.stats().cache_hits,
                    par.stats().cache_misses,
                );
                prop_assert_eq!(seq_stats, par_stats, "session stats drifted at {} threads", t);
            }
        }
    }

    /// Threaded MNC sketch builds produce the same sketch: identical
    /// sparsity and identical downstream matmul estimates.
    #[test]
    fn threaded_sketch_build_is_bit_identical(seed in any::<u64>(), d in 24usize..96) {
        let m = make(d, d, 0.05, seed);
        let n = make(d, d, 0.02, seed ^ 7);
        let est = det_mnc();
        let (sm, sn) = (est.build(&m).expect("build"), est.build(&n).expect("build"));
        let reference = est.estimate(&OpKind::MatMul, &[&sm, &sn]).expect("estimate");
        for t in thread_counts() {
            let par = det_mnc().with_build_threads(t);
            let (pm, pn) = (par.build(&m).expect("build"), par.build(&n).expect("build"));
            prop_assert_eq!(sm.sparsity().to_bits(), pm.sparsity().to_bits());
            let got = par.estimate(&OpKind::MatMul, &[&pm, &pn]).expect("estimate");
            prop_assert_eq!(reference.to_bits(), got.to_bits(), "sketch estimate drifted at {} threads", t);
        }
    }

    /// Threaded density-map propagation (the paper's Eq. 4 pseudo-product)
    /// and the dynamic density map's threaded direct estimate both match
    /// their sequential twins.
    #[test]
    fn threaded_density_maps_are_bit_identical(seed in any::<u64>(), d in 24usize..96) {
        let m = make(d, d, 0.04, seed);
        let n = make(d, d, 0.03, seed ^ 11);
        let dm = DensityMapEstimator::default();
        let (sm, sn) = (dm.build(&m).expect("build"), dm.build(&n).expect("build"));
        let reference = dm.propagate(&OpKind::MatMul, &[&sm, &sn]).expect("propagate");
        let dd = DynamicDensityMapEstimator::default();
        let (qm, qn) = (dd.build(&m).expect("build"), dd.build(&n).expect("build"));
        let dd_reference = dd.estimate(&OpKind::MatMul, &[&qm, &qn]).expect("estimate");
        for t in thread_counts() {
            let par = DensityMapEstimator::default().with_threads(t);
            let got = par.propagate(&OpKind::MatMul, &[&sm, &sn]).expect("propagate");
            prop_assert_eq!(reference.sparsity().to_bits(), got.sparsity().to_bits());
            let dd_par = DynamicDensityMapEstimator::default().with_threads(t);
            let dd_got = dd_par.estimate(&OpKind::MatMul, &[&qm, &qn]).expect("estimate");
            prop_assert_eq!(dd_reference.to_bits(), dd_got.to_bits(), "DynDMap estimate drifted at {} threads", t);
        }
    }

    /// Parallel bitset construction and boolean matrix product match the
    /// sequential fold bit for bit.
    #[test]
    fn threaded_bitset_paths_are_bit_identical(seed in any::<u64>(), d in 24usize..96) {
        use mnc_estimators::bitset::{bool_mm, bool_mm_parallel, BitsetSynopsis};
        let m = make(d, d, 0.05, seed);
        let n = make(d, d, 0.04, seed ^ 13);
        let (ba, bb) = (BitsetSynopsis::from_matrix(&m), BitsetSynopsis::from_matrix(&n));
        let reference = bool_mm(&ba, &bb);
        for t in thread_counts() {
            let pa = BitsetSynopsis::from_matrix_parallel(&m, t);
            prop_assert_eq!(ba.sparsity().to_bits(), pa.sparsity().to_bits());
            let got = bool_mm_parallel(&ba, &bb, t);
            prop_assert_eq!(reference.sparsity().to_bits(), got.sparsity().to_bits(), "bool_mm drifted at {} threads", t);
        }
    }
}
