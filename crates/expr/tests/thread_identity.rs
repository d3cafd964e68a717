//! Thread-count invariance: every parallel path in the estimation stack is
//! a rearrangement of the same arithmetic, never an approximation. Estimates,
//! session statistics, span counts and the first error must be identical at
//! any worker count, and spans must time the work at every worker count.
//!
//! CI runs this suite in debug **and** `--release` at `MNC_THREADS` 1, 2,
//! and 8 — when the variable is set, its value is compared against the
//! sequential run; when unset, the suite sweeps {2, 4, 8} itself.

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;

use mnc_estimators::{
    BiasedSamplingEstimator, BitsetEstimator, DensityMapEstimator, DynamicDensityMapEstimator,
    EstimatorError, HashEstimator, InstrumentedEstimator, LayeredGraphEstimator, MetaAcEstimator,
    MncEstimator, OpKind, SparsityEstimator,
};
use mnc_expr::{EstimationContext, ExprDag, NodeId, Recorder};
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

/// A DAG and its root.
type Dag = (ExprDag, NodeId);

/// A wide DAG with genuine level-parallelism: two independent products
/// joined by an add, then transposed. With `products` false the products
/// become element-wise multiplies, for estimators that cannot propagate a
/// product (Sample).
fn wide_dag(seed: u64, d: usize, products: bool) -> Dag {
    let mut dag = ExprDag::new();
    let a = dag.leaf("A", make(d, d, 0.05, seed));
    let b = dag.leaf("B", make(d, d, 0.03, seed ^ 1));
    let c = dag.leaf("C", make(d, d, 0.04, seed ^ 2));
    let e = dag.leaf("E", make(d, d, 0.02, seed ^ 3));
    let (left, right) = if products {
        (dag.matmul(a, b), dag.matmul(c, e))
    } else {
        (dag.ew_mul(a, b), dag.ew_mul(c, e))
    };
    let sum = dag
        .ew_add(left.expect("square"), right.expect("square"))
        .expect("same shape");
    let root = dag.transpose(sum).expect("unary");
    (dag, root)
}

/// A left-deep product chain over `len` leaves: every right operand is a
/// leaf, the shape LGraph propagates, and at `len` 2 a single product,
/// which is all Hash estimates.
fn chain_dag(seed: u64, d: usize, len: u64) -> Dag {
    let mut dag = ExprDag::new();
    let mut root = dag.leaf("M0", make(d, d, 0.05, seed));
    for k in 1..len {
        let next = dag.leaf(format!("M{k}"), make(d, d, 0.04, seed ^ k));
        root = dag.matmul(root, next).expect("square");
    }
    (dag, root)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The session wavefront walk: estimates and cache statistics are
    /// bit-identical at every worker count, cold and warm, for every
    /// estimator over a DAG within the ops it supports.
    #[test]
    fn session_walk_is_thread_count_invariant(seed in any::<u64>(), d in 24usize..72) {
        let wide = wide_dag(seed, d, true);
        let ew = wide_dag(seed, d, false);
        let (chain2, chain3) = (chain_dag(seed, d, 2), chain_dag(seed, d, 3));
        let instrumented = InstrumentedEstimator::new(MncEstimator::new(), mnc_obs::Recorder::enabled());
        let ests: Vec<(Box<dyn SparsityEstimator>, &Dag)> = vec![
            (Box::new(MncEstimator::new()), &wide),
            (Box::new(det_mnc()), &wide),
            (Box::new(DensityMapEstimator::default()), &wide),
            (Box::new(BitsetEstimator::default()), &wide),
            (Box::new(MetaAcEstimator), &wide),
            (Box::new(BiasedSamplingEstimator::default()), &ew),
            (Box::new(LayeredGraphEstimator::default()), &chain3),
            (Box::new(HashEstimator::default()), &chain2),
            (Box::new(instrumented), &wide),
        ];
        for (est, (dag, root)) in &ests {
            let (dag, root) = (dag, *root);
            let mut seq = EstimationContext::new();
            let cold = seq.estimate_root(est.as_ref(), dag, root).expect("estimate");
            let warm = seq.estimate_root(est.as_ref(), dag, root).expect("estimate");
            let seq_stats = (
                seq.stats().builds,
                seq.stats().cache_hits,
                seq.stats().cache_misses,
            );
            for t in thread_counts() {
                let mut par = EstimationContext::new().with_threads(t);
                let p_cold = par.estimate_root(est.as_ref(), dag, root).expect("estimate");
                let p_warm = par.estimate_root(est.as_ref(), dag, root).expect("estimate");
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

/// Two separately built but equal `A·B` nodes (the second over its own
/// leaf node of the same matrix) joined by an add, the second optionally
/// behind a transpose. Equal content keys make them one cache entry.
fn twin_dag(seed: u64, d: usize, transposed: bool) -> Dag {
    let mut dag = ExprDag::new();
    let (a, b) = (make(d, d, 0.05, seed), make(d, d, 0.04, seed ^ 5));
    let (a1, b1) = (dag.leaf("A", Arc::clone(&a)), dag.leaf("B", Arc::clone(&b)));
    let a2 = dag.leaf("A again", a);
    let ab1 = dag.matmul(a1, b1).expect("square");
    let ab2 = dag.matmul(a2, b1).expect("square");
    let right = if transposed {
        dag.transpose(ab2).expect("unary")
    } else {
        ab2
    };
    let root = dag.ew_add(ab1, right).expect("same shape");
    (dag, root)
}

/// A repeated subexpression is computed once, and the cache statistics at
/// every worker count equal the one-worker walk's: the second `A·B` hits.
#[test]
fn repeated_subexpressions_are_computed_once_at_every_thread_count() {
    let stats = |ctx: &EstimationContext| {
        let props: u64 = ctx.stats().per_op().map(|(_, s)| s.propagations).sum();
        (
            ctx.stats().builds,
            props,
            ctx.stats().cache_hits,
            ctx.stats().cache_misses,
        )
    };
    let ests: Vec<Box<dyn SparsityEstimator>> = vec![
        Box::new(MncEstimator::new()),
        Box::new(det_mnc()),
        Box::new(DensityMapEstimator::default()),
        Box::new(BitsetEstimator::default()),
        Box::new(MetaAcEstimator),
    ];
    for transposed in [false, true] {
        let (dag, root) = twin_dag(41, 48, transposed);
        // Cold: A, B and the first A·B miss (plus the transpose), the
        // second A·B hits; only the first A·B is propagated.
        let cold_want = if transposed {
            (2, 2, 1, 4)
        } else {
            (2, 1, 1, 3)
        };
        for est in &ests {
            let mut seq = EstimationContext::new();
            let cold = seq
                .estimate_root(est.as_ref(), &dag, root)
                .expect("estimate");
            let seq_cold = stats(&seq);
            assert_eq!(seq_cold, cold_want, "{} sequential", est.name());
            seq.estimate_root(est.as_ref(), &dag, root)
                .expect("estimate");
            let seq_warm = stats(&seq);
            for t in thread_counts() {
                let mut par = EstimationContext::new().with_threads(t);
                let p_cold = par
                    .estimate_root(est.as_ref(), &dag, root)
                    .expect("estimate");
                assert_eq!(
                    cold.to_bits(),
                    p_cold.to_bits(),
                    "{} at {t} threads",
                    est.name()
                );
                assert_eq!(stats(&par), seq_cold, "{} cold at {t} threads", est.name());
                par.estimate_root(est.as_ref(), &dag, root)
                    .expect("estimate");
                assert_eq!(stats(&par), seq_warm, "{} warm at {t} threads", est.name());
                let all = par
                    .materialize_all(est.as_ref(), &dag)
                    .expect("materialize");
                let seq_all = EstimationContext::new()
                    .materialize_all(est.as_ref(), &dag)
                    .expect("materialize");
                for (p, s) in all.iter().zip(&seq_all) {
                    assert_eq!(p.sparsity().to_bits(), s.sparsity().to_bits());
                }
            }
        }
    }
}

/// Five ops over four 600×600 leaves: two products, their sum, its
/// transpose, and a root product with a leaf.
fn five_op_dag() -> Dag {
    let d = 600;
    let mut dag = ExprDag::new();
    let a = dag.leaf("A", make(d, d, 0.01, 51));
    let b = dag.leaf("B", make(d, d, 0.01, 52));
    let c = dag.leaf("C", make(d, d, 0.01, 53));
    let e = dag.leaf("E", make(d, d, 0.01, 54));
    let ab = dag.matmul(a, b).expect("square");
    let ce = dag.matmul(c, e).expect("square");
    let sum = dag.ew_add(ab, ce).expect("same shape");
    let t = dag.transpose(sum).expect("unary");
    let root = dag.matmul(t, a).expect("square");
    (dag, root)
}

/// Each worker opens the span of the build or propagation it runs, so the
/// spans time the work the statistics time, and a traced walk records the
/// same spans at any worker count.
#[test]
fn spans_time_the_work_at_every_thread_count() {
    let (dag, root) = five_op_dag();
    let ests: Vec<Box<dyn SparsityEstimator>> = vec![
        Box::new(MncEstimator::new()),
        Box::new(BitsetEstimator::default()),
    ];
    for est in &ests {
        let traced = |threads: usize| {
            let rec = Recorder::enabled();
            let mut ctx = EstimationContext::new()
                .with_threads(threads)
                .with_recorder(rec.clone());
            ctx.estimate_root(est.as_ref(), &dag, root)
                .expect("estimate");
            let mut counts: BTreeMap<(&'static str, Option<String>), usize> = BTreeMap::new();
            let mut span_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
            for span in rec.spans() {
                *counts.entry((span.name, span.op.clone())).or_default() += 1;
                *span_ns.entry(span.name).or_default() += span.dur_ns;
            }
            let stats = ctx.stats();
            let propagate_ns: u64 = stats.per_op().map(|(_, s)| s.propagate_ns).sum();
            (counts, span_ns, stats.build_ns, propagate_ns)
        };
        let (want, ..) = traced(1);
        assert_eq!(want.values().sum::<usize>(), 4 + 4 + 1, "{}", est.name());
        for t in thread_counts() {
            let (counts, span_ns, build_ns, propagate_ns) = traced(t);
            let name = est.name();
            assert_eq!(counts, want, "{name}: spans per (name, op) at {t} threads");
            assert!(
                2 * span_ns["build"] >= build_ns,
                "{name} at {t} threads: build spans {} ns, builds {build_ns} ns",
                span_ns["build"]
            );
            assert!(
                2 * span_ns["propagate"] >= propagate_ns,
                "{name} at {t} threads: propagate spans {} ns, propagations {propagate_ns} ns",
                span_ns["propagate"]
            );
        }
    }
}

/// `matmul(ew_add(A, B), transpose(A))` under LGraph, which propagates
/// neither op: node 2 (the transpose) and node 3 (the add) fail in the same
/// level, and the walk reports the lower id's error at every worker count.
#[test]
fn the_first_error_does_not_depend_on_the_thread_count() {
    let mut dag = ExprDag::new();
    let a = dag.leaf("A", make(32, 32, 0.1, 61));
    let b = dag.leaf("B", make(32, 32, 0.1, 62));
    let t = dag.transpose(a).expect("unary");
    let sum = dag.ew_add(a, b).expect("same shape");
    let root = dag.matmul(sum, t).expect("square");
    assert_eq!((t, sum), (2, 3));
    let want = EstimatorError::unsupported("LGraph", &OpKind::Transpose);
    for threads in std::iter::once(1).chain(thread_counts()) {
        let mut ctx = EstimationContext::new().with_threads(threads);
        let err = ctx
            .estimate_root(&LayeredGraphEstimator::default(), &dag, root)
            .expect_err("LGraph propagates neither op");
        assert_eq!(err, want, "at {threads} threads");
    }
}
