//! Property-based tests of the core invariants, across random matrices:
//! sketch construction identities, the theorems of Section 3, estimator
//! ranges, exactness of the bitset reference, and kernel algebra.

use std::sync::Arc;

use proptest::prelude::*;

use mnc::core::estimate::estimate_matmul_with;
use mnc::core::propagate::{propagate_matmul_in, propagate_transpose};
use mnc::core::{build_distributed_with, estimate_matmul_ci, MncConfig, MncSketch, SplitMix64};
use mnc::estimators::{BitsetEstimator, OpKind, SparsityEstimator};
use mnc::matrix::partition::RowPartitionedMatrix;
use mnc::matrix::{gen, ops, CsrMatrix};
use rand::SeedableRng;

/// Strategy: a random sparse matrix described by (rows, cols, sparsity,
/// seed) — generated deterministically inside the property.
fn matrix_params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (2usize..40, 2usize..40, 0.0f64..0.5, any::<u64>())
}

fn make(rows: usize, cols: usize, s: f64, seed: u64) -> CsrMatrix {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    gen::rand_uniform(&mut rng, rows, cols, s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Σ h^r = nnz = Σ h^c` for sketches built from matrices.
    #[test]
    fn sketch_count_sums_equal_nnz((m, n, s, seed) in matrix_params()) {
        let a = make(m, n, s, seed);
        let h = MncSketch::build(&a);
        let rsum: u64 = h.hr.iter().map(|&c| c as u64).sum();
        let csum: u64 = h.hc.iter().map(|&c| c as u64).sum();
        prop_assert_eq!(rsum, a.nnz() as u64);
        prop_assert_eq!(csum, a.nnz() as u64);
        prop_assert_eq!(h.meta.nnz, a.nnz() as u64);
    }

    /// Extended counts never exceed their base counts.
    #[test]
    fn extended_counts_bounded((m, n, s, seed) in matrix_params()) {
        let a = make(m, n, s, seed);
        let h = MncSketch::build(&a);
        if let Some(her) = &h.her {
            for (e, b) in her.iter().zip(&h.hr) {
                prop_assert!(e <= b);
            }
        }
        if let Some(hec) = &h.hec {
            for (e, b) in hec.iter().zip(&h.hc) {
                prop_assert!(e <= b);
            }
        }
    }

    /// Theorem 3.1: whenever `max(h^r_A) <= 1` or `max(h^c_B) <= 1`, the
    /// MNC product estimate equals the true boolean-product sparsity.
    #[test]
    fn theorem_3_1_exactness(
        rows in 2usize..30,
        inner in 2usize..30,
        cols in 2usize..30,
        s in 0.0f64..0.6,
        seed in any::<u64>(),
    ) {
        // Left operand: at most one non-zero per row.
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let counts: Vec<u32> = (0..rows).map(|i| u32::from((seed >> (i % 60)) & 1 == 1)).collect();
        let a = gen::rand_with_row_counts(&mut rng, inner, &counts);
        let b = make(inner, cols, s, seed ^ 1);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        prop_assert!(ha.meta.max_hr <= 1);
        let est = MncSketch::estimate(&OpKind::MatMul, &[&ha, &hb]).unwrap();
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        prop_assert!((est - truth).abs() < 1e-12, "est {} truth {}", est, truth);
    }

    /// Theorem 3.2: the bounds hold for the true output sparsity, and the
    /// bounded estimate respects them.
    #[test]
    fn theorem_3_2_bounds(
        (m, n, s, seed) in matrix_params(),
        cols in 2usize..30,
        s2 in 0.0f64..0.5,
    ) {
        let a = make(m, n, s, seed);
        let b = make(n, cols, s2, seed ^ 2);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let cells = (m * cols) as f64;
        let lower = (ha.meta.half_full_rows * hb.meta.half_full_cols) as f64 / cells;
        let upper = (ha.meta.nonempty_rows * hb.meta.nonempty_cols) as f64 / cells;
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        prop_assert!(lower <= truth + 1e-12);
        prop_assert!(truth <= upper + 1e-12);
        let est = MncSketch::estimate(&OpKind::MatMul, &[&ha, &hb]).unwrap();
        prop_assert!(est >= lower - 1e-12 && est <= upper + 1e-12);
    }

    /// All MNC product estimates are valid sparsities, with or without
    /// bounds/extended counts.
    #[test]
    fn estimates_always_in_unit_interval(
        (m, n, s, seed) in matrix_params(),
        cols in 2usize..30,
        s2 in 0.0f64..0.6,
    ) {
        let a = make(m, n, s, seed);
        let b = make(n, cols, s2, seed ^ 3);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        for cfg in [MncConfig::default(), MncConfig::basic()] {
            let est = MncSketch::estimate_with(&OpKind::MatMul, &[&ha, &hb], &cfg).unwrap();
            prop_assert!((0.0..=1.0).contains(&est), "cfg {:?} -> {}", cfg, est);
        }
    }

    /// The bitset estimator is exact on every operation it supports.
    #[test]
    fn bitset_estimator_is_exact(
        (m, n, s, seed) in matrix_params(),
        s2 in 0.0f64..0.5,
    ) {
        let a = Arc::new(make(m, n, s, seed));
        let b = Arc::new(make(m, n, s2, seed ^ 4));
        let e = BitsetEstimator::default();
        let (sa, sb) = (e.build(&a).unwrap(), e.build(&b).unwrap());
        for (op, truth) in [
            (OpKind::EwAdd, ops::ew_add(&a, &b).unwrap().sparsity()),
            (OpKind::EwMul, ops::ew_mul(&a, &b).unwrap().sparsity()),
            (OpKind::Rbind, ops::rbind(&a, &b).unwrap().sparsity()),
            (OpKind::Cbind, ops::cbind(&a, &b).unwrap().sparsity()),
        ] {
            let est = e.estimate(&op, &[&sa, &sb]).unwrap();
            prop_assert!((est - truth).abs() < 1e-12, "{:?}", op);
        }
        let t = e.estimate(&OpKind::Transpose, &[&sa]).unwrap();
        prop_assert!((t - a.sparsity()).abs() < 1e-12);
        let z = e.estimate(&OpKind::Eq0, &[&sa]).unwrap();
        prop_assert!((z - (1.0 - a.sparsity())).abs() < 1e-12);
    }

    /// SpGEMM agrees with the dense reference product.
    #[test]
    fn spgemm_matches_dense(
        (m, n, s, seed) in matrix_params(),
        cols in 2usize..20,
        s2 in 0.0f64..0.5,
    ) {
        let a = make(m, n, s, seed);
        let b = make(n, cols, s2, seed ^ 5);
        let c = ops::matmul(&a, &b).unwrap();
        let expect = a.to_dense().matmul(&b.to_dense()).unwrap();
        let got = c.to_dense();
        for i in 0..m {
            for j in 0..cols {
                prop_assert!((got[(i, j)] - expect[(i, j)]).abs() < 1e-9);
            }
        }
    }

    /// Transpose is an involution and reshape round-trips.
    #[test]
    fn reorg_roundtrips((m, n, s, seed) in matrix_params()) {
        let a = make(m, n, s, seed);
        prop_assert_eq!(a.transpose().transpose(), a.clone());
        let r = ops::reshape(&a, n, m).unwrap();
        prop_assert_eq!(ops::reshape(&r, m, n).unwrap(), a.clone());
        prop_assert_eq!(r.nnz(), a.nnz());
    }

    /// Element-wise algebra: `nnz(A+B) + nnz(A⊙B) == nnz(A) + nnz(B)`
    /// under assumption A1 (no cancellation; values are positive).
    #[test]
    fn inclusion_exclusion_of_patterns(
        (m, n, s, seed) in matrix_params(),
        s2 in 0.0f64..0.5,
    ) {
        let a = make(m, n, s, seed);
        let b = make(m, n, s2, seed ^ 6);
        let add = ops::ew_add(&a, &b).unwrap();
        let mul = ops::ew_mul(&a, &b).unwrap();
        prop_assert_eq!(add.nnz() + mul.nnz(), a.nnz() + b.nnz());
    }

    /// Probabilistic rounding is within 1 of its input and unbiased enough
    /// that large sums are conserved.
    #[test]
    fn probabilistic_rounding_conserves_mass(target in 1.0f64..500.0, seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let n = 1000;
        let x = target / n as f64;
        let total: u64 = (0..n).map(|_| rng.prob_round(x)).sum();
        // Binomial concentration: generous 6-sigma bound.
        let sigma = (n as f64 * 0.25).sqrt();
        prop_assert!((total as f64 - target).abs() < 6.0 * sigma + 1.0);
    }

    /// Parallel and distributed sketch construction are bit-identical to
    /// the sequential build for any matrix, worker or partition count, full
    /// MNC and MNC Basic.
    #[test]
    fn parallel_sketch_build_is_bit_identical(
        (m, n, s, seed) in matrix_params(),
        threads in 1usize..9,
        use_extended in any::<bool>(),
    ) {
        let a = make(m, n, s, seed);
        let seq = MncSketch::build_with(&a, use_extended);
        prop_assert_eq!(&MncSketch::build_parallel_with(&a, use_extended, threads), &seq);
        let parts = RowPartitionedMatrix::from_matrix(&a, threads);
        prop_assert_eq!(&build_distributed_with(&parts, use_extended), &seq);
    }

    /// The confidence interval and the point estimate come from one
    /// Algorithm 1 record, on built and on propagated sketches under every
    /// configuration: the interval's estimate has Algorithm 1's bits, it is
    /// exact exactly in the empty and Theorem 3.1 cases, and it lies inside
    /// the interval.
    #[test]
    fn confidence_interval_is_algorithm_1(
        (m, n, s, seed) in matrix_params(),
        cols in 2usize..30,
        s2 in 0.0f64..0.5,
        single_nnz_rows in any::<bool>(),
        confidence in 0.5f64..0.999,
    ) {
        let a = if single_nnz_rows {
            // At most one non-zero per row: Theorem 3.1 applies.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let counts: Vec<u32> = (0..m).map(|i| u32::from((seed >> (i % 60)) & 1 == 1)).collect();
            gen::rand_with_row_counts(&mut rng, n, &counts)
        } else {
            make(m, n, s, seed)
        };
        let b = make(n, cols, s2, seed ^ 11);
        let d = make(cols, n, s, seed ^ 12);
        let (ha, hb, hd) = (MncSketch::build(&a), MncSketch::build(&b), MncSketch::build(&d));
        let bounds_only = MncConfig { use_extended: false, ..MncConfig::default() };
        let extended_only = MncConfig { use_bounds: false, ..MncConfig::default() };
        for cfg in [MncConfig::default(), MncConfig::basic(), bounds_only, extended_only] {
            let hab = propagate_matmul_in(&ha, &hb, &cfg, &mut SplitMix64::new(seed));
            let hdb = propagate_matmul_in(&hd, &hb, &cfg, &mut SplitMix64::new(seed));
            let hab_t = propagate_transpose(&hab);
            for (x, y) in [(&ha, &hb), (&hb, &hd), (&hab, &hd), (&hdb, &hab_t)] {
                let ci = estimate_matmul_ci(x, y, &cfg, confidence);
                let point = estimate_matmul_with(x, y, &cfg);
                prop_assert_eq!(ci.estimate.to_bits(), point.to_bits(), "cfg {:?}", cfg);
                let empty = x.nrows * y.ncols == 0 || x.meta.nnz == 0 || y.meta.nnz == 0;
                let theorem_3_1 = x.meta.max_hr <= 1 || y.meta.max_hc <= 1;
                prop_assert_eq!(ci.exact, empty || theorem_3_1, "cfg {:?}", cfg);
                prop_assert!(
                    0.0 <= ci.lower && ci.lower <= ci.estimate
                        && ci.estimate <= ci.upper && ci.upper <= 1.0,
                    "cfg {:?}: {:?}", cfg, ci
                );
            }
        }
    }

    /// Estimating through a cached `EstimationContext` returns exactly the
    /// uncached estimates on random DAGs — cold (propagation is a pure
    /// function of its inputs, so every walk derives the same
    /// intermediates) and warm (cached synopses feed a deterministic root
    /// estimate).
    #[test]
    fn cached_context_estimates_equal_uncached(
        n in 2usize..16,
        nleaves in 2usize..5,
        nops in 1usize..7,
        s in 0.0f64..0.5,
        seed in any::<u64>(),
    ) {
        use mnc::estimators::MncEstimator;
        use mnc::expr::{estimate_all, estimate_root, EstimationContext, ExprDag};

        // Random DAG over square matrices (every op shape-checks).
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dag = ExprDag::new();
        let mut ids = Vec::new();
        for i in 0..nleaves {
            ids.push(dag.leaf(format!("L{i}"), Arc::new(gen::rand_uniform(&mut rng, n, n, s))));
        }
        let mut pick = SplitMix64::new(seed ^ 0xD1CE);
        for _ in 0..nops {
            let a = ids[(pick.next_u64() as usize) % ids.len()];
            let b = ids[(pick.next_u64() as usize) % ids.len()];
            ids.push(match pick.next_u64() % 4 {
                0 => dag.matmul(a, b).unwrap(),
                1 => dag.ew_add(a, b).unwrap(),
                2 => dag.ew_mul(a, b).unwrap(),
                _ => dag.transpose(a).unwrap(),
            });
        }
        let root = *ids.last().unwrap();

        let uncached = estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        let mut ctx = EstimationContext::new();
        let est = MncEstimator::new();
        let cold = ctx.estimate_root(&est, &dag, root).unwrap();
        let warm = ctx.estimate_root(&est, &dag, root).unwrap();
        prop_assert_eq!(uncached, cold);
        prop_assert_eq!(cold, warm);
        prop_assert!(ctx.stats().cache_hits > 0, "warm walk must hit the cache");

        // And node-by-node over the whole DAG.
        let all_uncached = estimate_all(&MncEstimator::new(), &dag).unwrap();
        let all_cached = EstimationContext::new()
            .estimate_all(&MncEstimator::new(), &dag)
            .unwrap();
        prop_assert_eq!(all_uncached.len(), all_cached.len());
        for (u, c) in all_uncached.iter().zip(&all_cached) {
            prop_assert_eq!(u.id, c.id);
            prop_assert_eq!(u.sparsity, c.sparsity);
        }
    }

    /// MNC sketch propagation over a product keeps the implied nnz within
    /// the estimate's mass (no runaway counts).
    #[test]
    fn propagation_conserves_estimated_mass(
        (m, n, s, seed) in matrix_params(),
        cols in 2usize..30,
        s2 in 0.0f64..0.5,
    ) {
        let a = make(m, n, s, seed);
        let b = make(n, cols, s2, seed ^ 7);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let cfg = MncConfig { seed: 9, ..MncConfig::default() };
        let hc = MncSketch::propagate_in(&OpKind::MatMul, &[&ha, &hb], &cfg).unwrap();
        let est = MncSketch::estimate(&OpKind::MatMul, &[&ha, &hb]).unwrap() * (m * cols) as f64;
        let got: f64 = hc.hr.iter().map(|&c| c as f64).sum();
        // Rounding noise is bounded by one per entry.
        prop_assert!((got - est).abs() <= m as f64 + est * 0.5 + 1.0);
    }
}
