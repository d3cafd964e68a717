//! Sparsity estimation from MNC sketches.
//!
//! * Matrix products: Algorithm 1 of the paper, combining the exact case of
//!   Theorem 3.1, the extended-count estimator (Eq. 8–9), a density-map-like
//!   fallback over count vectors, and the Theorem 3.2 bounds.
//! * Reorganizations and element-wise operations: Section 4.1.

use crate::sketch::MncSketch;
use crate::MncConfig;
use mnc_kernels::{dot_u32, sub_sat_into, ScratchArena};

/// Density-map-like estimator over two aligned count vectors (the fallback
/// of Algorithm 1, lines 7/10):
///
/// `E_dm(x, y, p) = 1 - Π_k (1 - min(1, x_k · y_k / p))`
///
/// which treats each rank-1 term `x_k · y_k` as independently scattering
/// non-zeros over `p` candidate output cells. Computed in log-space for
/// numerical stability; returns a fraction in `[0, 1]` of the `p` cells.
///
/// Delegates to the unrolled kernel, which is bit-identical to the scalar
/// formulation for all inputs (see [`mnc_kernels::vector_edm`]).
pub fn vector_edm(x: &[u32], y: &[u32], p: f64) -> f64 {
    mnc_kernels::vector_edm(x, y, p)
}

/// Estimates the output sparsity of `C = A B` from the two sketches with the
/// default configuration (full MNC: extended counts + bounds).
///
/// ```
/// use mnc_core::estimate::estimate_matmul;
/// use mnc_core::MncSketch;
/// use mnc_matrix::CsrMatrix;
///
/// // A permutation-like left operand: one non-zero per row, so the
/// // estimate is exact (Theorem 3.1).
/// let p = CsrMatrix::identity(3);
/// let x = CsrMatrix::from_triples(3, 2, vec![(0, 0, 1.0), (2, 1, 1.0)]).unwrap();
/// let s = estimate_matmul(&MncSketch::build(&p), &MncSketch::build(&x));
/// assert_eq!(s, x.sparsity());
/// ```
pub fn estimate_matmul(ha: &MncSketch, hb: &MncSketch) -> f64 {
    estimate_matmul_with(ha, hb, &MncConfig::default())
}

/// Estimates the output sparsity of `C = A B` (Algorithm 1).
///
/// `O(n)` time in the common dimension. Panics if the sketch shapes are not
/// compatible (programmer error — callers validate user input).
pub fn estimate_matmul_with(ha: &MncSketch, hb: &MncSketch, cfg: &MncConfig) -> f64 {
    estimate_matmul_in(ha, hb, cfg, &mut ScratchArena::new())
}

/// [`estimate_matmul_with`] with caller-provided scratch: the extended-count
/// temporaries of Algorithm 1 are leased from `arena` instead of freshly
/// allocated, so repeated estimation (DAG propagation, chain optimization)
/// runs allocation-free in steady state. Bit-identical to the plain variant.
pub fn estimate_matmul_in(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    arena: &mut ScratchArena,
) -> f64 {
    matmul_record(ha, hb, cfg, arena).estimate()
}

/// The branch of Algorithm 1 that estimated a product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MatmulCase {
    /// An operand or the output has no cells or no non-zeros.
    Empty,
    /// Theorem 3.1: the count-vector dot product is exact.
    Exact,
    /// Extended counts (Eq. 8–9): an exactly known fraction plus `E_dm`
    /// over the remainder (Alg. 1, line 6).
    Extended,
    /// `E_dm` over the column/row counts (Alg. 1, lines 9–10).
    Fallback,
}

/// What Algorithm 1 derived for one product. The point estimate and its
/// confidence interval are both read from this one record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MatmulRecord {
    /// The branch that fired.
    pub(crate) case: MatmulCase,
    /// Output cells, `m·l`.
    pub(crate) cells: f64,
    /// Non-zeros known exactly: the Theorem 3.1 dot product or the exact
    /// fraction of Eq. 8.
    pub(crate) exact_nnz: f64,
    /// `(q, p)` of the `E_dm` component: it occupies a fraction `q` of `p`
    /// candidate cells.
    pub(crate) fallback: Option<(f64, f64)>,
    /// Theorem 3.2 `(lower, upper)` non-zero bounds, when configured.
    pub(crate) bounds: Option<(f64, f64)>,
}

impl MatmulRecord {
    /// Estimated output non-zeros before the bounds apply. Neither term is
    /// ever `-0.0`, so each case yields exactly the bits of its own term.
    pub(crate) fn nnz(&self) -> f64 {
        self.exact_nnz + self.fallback.map_or(0.0, |(q, p)| q * p)
    }

    /// Sparsity of `nnz` output non-zeros, clipped to the Theorem 3.2 bounds
    /// and clamped to `[0, 1]`. Monotone in `nnz`.
    pub(crate) fn sparsity(&self, nnz: f64) -> f64 {
        if self.case == MatmulCase::Empty {
            return 0.0;
        }
        let nnz = match self.bounds {
            // Theorem 3.2: half-full rows x half-full columns always
            // collide; non-empty rows x non-empty columns cap the output.
            Some((lower, upper)) => nnz.max(lower).min(upper),
            None => nnz,
        };
        (nnz / self.cells).clamp(0.0, 1.0)
    }

    /// The Algorithm 1 point estimate.
    pub(crate) fn estimate(&self) -> f64 {
        self.sparsity(self.nnz())
    }
}

/// Runs Algorithm 1 on the sketches of `C = A B` and records what it
/// derived. Panics if the sketch shapes are not compatible.
pub(crate) fn matmul_record(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    arena: &mut ScratchArena,
) -> MatmulRecord {
    assert_eq!(
        ha.ncols, hb.nrows,
        "matmul sketch estimation: inner dimensions must agree"
    );
    let cells = ha.nrows as f64 * hb.ncols as f64;
    let bounds = cfg.use_bounds.then_some((
        ha.meta.half_full_rows as f64 * hb.meta.half_full_cols as f64,
        ha.meta.nonempty_rows as f64 * hb.meta.nonempty_cols as f64,
    ));
    let record = |case, exact_nnz, fallback| MatmulRecord {
        case,
        cells,
        exact_nnz,
        fallback,
        bounds,
    };
    if cells == 0.0 || ha.meta.nnz == 0 || hb.meta.nnz == 0 {
        return record(MatmulCase::Empty, 0.0, None);
    }

    if ha.meta.max_hr <= 1 || hb.meta.max_hc <= 1 {
        // Theorem 3.1: the boolean product decomposes into a *disjoint*
        // union of outer products, so the dot product of the count vectors
        // is exact.
        return record(MatmulCase::Exact, dot_u32(&ha.hc, &hb.hr), None);
    }
    if cfg.use_extended && (ha.hec.is_some() || hb.her.is_some()) {
        // Extended counts (Eq. 8): split into an exactly-known fraction and
        // a generic remainder over a reduced output size (Alg. 1, line 6).
        // A missing extended vector acts as all-zeros: its exact term is 0
        // and the remainder degenerates to the base count vector, so no
        // zero-filled temporary is materialized at all.
        let mut rest_c_buf: Option<Vec<u32>> = None;
        let exact_c = match &ha.hec {
            Some(hec_a) => {
                let mut buf = arena.take_u32_spare();
                sub_sat_into(&ha.hc, hec_a, &mut buf);
                rest_c_buf = Some(buf);
                dot_u32(hec_a, &hb.hr)
            }
            None => 0.0,
        };
        let rest_c: &[u32] = rest_c_buf.as_deref().unwrap_or(&ha.hc);
        let mut rest_r_buf: Option<Vec<u32>> = None;
        let exact_r = match &hb.her {
            Some(her_b) => {
                let mut buf = arena.take_u32_spare();
                sub_sat_into(&hb.hr, her_b, &mut buf);
                rest_r_buf = Some(buf);
                dot_u32(rest_c, her_b)
            }
            None => 0.0,
        };
        let rest_r: &[u32] = rest_r_buf.as_deref().unwrap_or(&hb.hr);
        let p = if cfg.use_bounds {
            (ha.meta.nonempty_rows - ha.meta.rows_eq_1) as f64
                * (hb.meta.nonempty_cols - hb.meta.cols_eq_1) as f64
        } else {
            cells
        };
        let q = vector_edm(rest_c, rest_r, p);
        arena.put_u32_opt(rest_c_buf);
        arena.put_u32_opt(rest_r_buf);
        return record(MatmulCase::Extended, exact_c + exact_r, Some((q, p)));
    }
    // Generic fallback over column/row counts (Alg. 1, lines 9-10); with
    // bounds on, `p` is the Theorem 3.2 upper bound.
    let p = bounds.map_or(cells, |(_, upper)| upper);
    let q = vector_edm(&ha.hc, &hb.hr, p);
    record(MatmulCase::Fallback, 0.0, Some((q, p)))
}

/// `s(Aᵀ) = s(A)` — transpose preserves sparsity exactly.
pub fn estimate_transpose(h: &MncSketch) -> f64 {
    h.sparsity()
}

/// `s(reshape(A)) = s(A)` — reshape preserves the non-zero count exactly.
pub fn estimate_reshape(h: &MncSketch) -> f64 {
    h.sparsity()
}

/// `s(A != 0) = s(A)` (assumption A2: no NaNs).
pub fn estimate_neq_zero(h: &MncSketch) -> f64 {
    h.sparsity()
}

/// `s(A == 0) = 1 - s(A)`.
pub fn estimate_eq_zero(h: &MncSketch) -> f64 {
    1.0 - h.sparsity()
}

/// `diag(v)` for an `m x 1` vector: exactly `nnz(v)` non-zeros in an
/// `m x m` output.
pub fn estimate_diag_v2m(h: &MncSketch) -> f64 {
    assert_eq!(h.ncols, 1, "diag_v2m expects a column-vector sketch");
    let m = h.nrows as f64;
    if m == 0.0 {
        0.0
    } else {
        h.meta.nnz as f64 / (m * m)
    }
}

/// `diag(A)` extraction for a square matrix: best-effort estimate — the
/// expected diagonal occupancy if each row's non-zeros were uniformly
/// placed, `Σ_i h^r_i / n` non-zeros in an `m x 1` output (Section 4.2
/// treats matrix-to-vector diag "in a best-effort manner").
pub fn estimate_diag_extract(h: &MncSketch) -> f64 {
    assert_eq!(h.nrows, h.ncols, "diag_extract expects a square sketch");
    let n = h.ncols as f64;
    if n == 0.0 {
        return 0.0;
    }
    let expected_nnz: f64 = h.hr.iter().map(|&c| c as f64 / n).sum();
    (expected_nnz / n).clamp(0.0, 1.0)
}

/// `rbind(A, B)`: exact from metadata.
pub fn estimate_rbind(ha: &MncSketch, hb: &MncSketch) -> f64 {
    assert_eq!(ha.ncols, hb.ncols, "rbind expects equal column counts");
    let cells = (ha.nrows + hb.nrows) as f64 * ha.ncols as f64;
    if cells == 0.0 {
        0.0
    } else {
        (ha.meta.nnz + hb.meta.nnz) as f64 / cells
    }
}

/// `cbind(A, B)`: exact from metadata.
pub fn estimate_cbind(ha: &MncSketch, hb: &MncSketch) -> f64 {
    assert_eq!(ha.nrows, hb.nrows, "cbind expects equal row counts");
    let cells = ha.nrows as f64 * (ha.ncols + hb.ncols) as f64;
    if cells == 0.0 {
        0.0
    } else {
        (ha.meta.nnz + hb.meta.nnz) as f64 / cells
    }
}

/// Column-collision factor `λ` of Eq. 13: the probability that a non-zero of
/// `A` and one of `B` in the same row also share the column, estimated from
/// the column count vectors.
pub(crate) fn lambda_cols(ha: &MncSketch, hb: &MncSketch) -> f64 {
    let denom = ha.meta.nnz as f64 * hb.meta.nnz as f64;
    if denom == 0.0 {
        0.0
    } else {
        dot_u32(&ha.hc, &hb.hc) / denom
    }
}

/// Row-collision factor, the symmetric counterpart used by Eq. 15.
pub(crate) fn lambda_rows(ha: &MncSketch, hb: &MncSketch) -> f64 {
    let denom = ha.meta.nnz as f64 * hb.meta.nnz as f64;
    if denom == 0.0 {
        0.0
    } else {
        dot_u32(&ha.hr, &hb.hr) / denom
    }
}

/// Element-wise addition `A + B` (Eq. 13, `+` branch): row-wise inclusion-
/// exclusion with column-collision scaling.
pub fn estimate_ew_add(ha: &MncSketch, hb: &MncSketch) -> f64 {
    assert_eq!(
        (ha.nrows, ha.ncols),
        (hb.nrows, hb.ncols),
        "element-wise ops expect equal shapes"
    );
    let cells = ha.nrows as f64 * ha.ncols as f64;
    if cells == 0.0 {
        return 0.0;
    }
    let lambda = lambda_cols(ha, hb);
    let nnz: f64 = ha
        .hr
        .iter()
        .zip(&hb.hr)
        .map(|(&a, &b)| {
            let (a, b) = (a as f64, b as f64);
            a + b - a * b * lambda
        })
        .sum();
    (nnz / cells).clamp(0.0, 1.0)
}

/// Element-wise multiplication `A ⊙ B` (Eq. 13, `⊙` branch): estimated
/// collisions per row scaled by the column-collision factor.
pub fn estimate_ew_mul(ha: &MncSketch, hb: &MncSketch) -> f64 {
    assert_eq!(
        (ha.nrows, ha.ncols),
        (hb.nrows, hb.ncols),
        "element-wise ops expect equal shapes"
    );
    let cells = ha.nrows as f64 * ha.ncols as f64;
    if cells == 0.0 {
        return 0.0;
    }
    let lambda = lambda_cols(ha, hb);
    let nnz: f64 = ha
        .hr
        .iter()
        .zip(&hb.hr)
        .map(|(&a, &b)| a as f64 * b as f64 * lambda)
        .sum();
    (nnz / cells).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::{gen, ops, CsrMatrix};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn true_sparsity_mm(a: &CsrMatrix, b: &CsrMatrix) -> f64 {
        ops::bool_matmul(a, b).unwrap().sparsity()
    }

    #[test]
    fn theorem_3_1_exact_for_permutation_times_anything() {
        let mut r = rng(1);
        let p = gen::permutation(&mut r, 64);
        let x = gen::rand_uniform(&mut r, 64, 32, 0.2);
        let est = estimate_matmul(&MncSketch::build(&p), &MncSketch::build(&x));
        assert!((est - true_sparsity_mm(&p, &x)).abs() < 1e-12);
    }

    #[test]
    fn theorem_3_1_exact_for_single_nnz_rows() {
        // Token-sequence-like matrix: exactly one non-zero per row.
        let mut r = rng(2);
        let counts = vec![1u32; 100];
        let s = gen::rand_with_row_counts(&mut r, 40, &counts);
        let w = gen::rand_uniform(&mut r, 40, 25, 0.9);
        let est = estimate_matmul(&MncSketch::build(&s), &MncSketch::build(&w));
        assert!((est - true_sparsity_mm(&s, &w)).abs() < 1e-12);
    }

    #[test]
    fn density_map_anomaly_example_is_exact_under_mnc() {
        // Section 2.2: 200x100 matrix with 50 non-zeros in one column times
        // a dense 100x100 matrix. True nnz = 5,000; the density map
        // under-estimates (4,429 at b=200), MNC is exact via Theorem 3.1.
        let mut r = rng(3);
        let mut a_triples = Vec::new();
        for i in 0..50 {
            a_triples.push((i * 3, 7usize, 1.0)); // 50 rows, single column
        }
        let a = CsrMatrix::from_triples(200, 100, a_triples).unwrap();
        let b = gen::rand_dense(&mut r, 100, 100);
        let est = estimate_matmul(&MncSketch::build(&a), &MncSketch::build(&b));
        let true_s = 5_000.0 / (200.0 * 100.0);
        assert!((est - true_s).abs() < 1e-12);
        assert!((true_sparsity_mm(&a, &b) - true_s).abs() < 1e-12);
    }

    #[test]
    fn b15_inner_product_exact_via_upper_bound() {
        // R has a single dense row, C a single aligned dense column: the
        // product has exactly one non-zero. The upper bound
        // nnz(h^r_A) · nnz(h^c_B) = 1 forces exactness (Fig. 10(f)).
        let n = 100;
        let r: CsrMatrix = CsrMatrix::from_triples(n, n, (0..n).map(|j| (0usize, j, 1.0))).unwrap();
        let c: CsrMatrix = CsrMatrix::from_triples(n, n, (0..n).map(|i| (i, 0usize, 1.0))).unwrap();
        let est = estimate_matmul(&MncSketch::build(&r), &MncSketch::build(&c));
        assert!((est - 1.0 / (n * n) as f64).abs() < 1e-15);

        // MNC Basic (no bounds) over-estimates here.
        let est_basic = estimate_matmul_with(
            &MncSketch::build(&r),
            &MncSketch::build(&c),
            &MncConfig::basic(),
        );
        assert!(est_basic > 10.0 / (n * n) as f64);
    }

    #[test]
    fn b14_outer_product_exact() {
        // C has a single dense column, R a single aligned dense row: the
        // product is fully dense. max(h^r_C) = 1 ⇒ Theorem 3.1.
        let n = 64;
        let c: CsrMatrix = CsrMatrix::from_triples(n, n, (0..n).map(|i| (i, 0usize, 1.0))).unwrap();
        let r: CsrMatrix = CsrMatrix::from_triples(n, n, (0..n).map(|j| (0usize, j, 1.0))).unwrap();
        let est = estimate_matmul(&MncSketch::build(&c), &MncSketch::build(&r));
        assert!((est - 1.0).abs() < 1e-15);
    }

    #[test]
    fn lower_bound_kicks_in_for_half_full() {
        // Rows of A and columns of B more than half full guarantee output
        // non-zeros even when the generic estimate would underestimate.
        let mut r = rng(4);
        let a = gen::rand_dense(&mut r, 20, 30);
        let b = gen::rand_dense(&mut r, 30, 20);
        let est = estimate_matmul(&MncSketch::build(&a), &MncSketch::build(&b));
        assert!((est - 1.0).abs() < 1e-12); // lower bound = all cells
    }

    #[test]
    fn bounds_sandwich_true_sparsity() {
        // Theorem 3.2 bounds hold for the true sparsity on random inputs.
        for seed in 0..10u64 {
            let mut r = rng(100 + seed);
            let a = gen::rand_uniform(&mut r, 50, 40, 0.1);
            let b = gen::rand_uniform(&mut r, 40, 60, 0.12);
            let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
            let true_nnz = ops::bool_matmul(&a, &b).unwrap().nnz() as f64;
            let lower = ha.meta.half_full_rows as f64 * hb.meta.half_full_cols as f64;
            let upper = ha.meta.nonempty_rows as f64 * hb.meta.nonempty_cols as f64;
            assert!(lower <= true_nnz && true_nnz <= upper);
        }
    }

    #[test]
    fn estimate_in_unit_interval_on_random_inputs() {
        for seed in 0..20u64 {
            let mut r = rng(200 + seed);
            let a = gen::rand_uniform(&mut r, 30, 25, 0.2);
            let b = gen::rand_uniform(&mut r, 25, 35, 0.3);
            let est = estimate_matmul(&MncSketch::build(&a), &MncSketch::build(&b));
            assert!((0.0..=1.0).contains(&est));
        }
    }

    #[test]
    fn empty_inputs_estimate_zero() {
        let a = MncSketch::empty(10, 5);
        let b = MncSketch::empty(5, 8);
        assert_eq!(estimate_matmul(&a, &b), 0.0);
    }

    #[test]
    fn vector_edm_basics() {
        // Empty vectors -> no non-zeros.
        assert_eq!(vector_edm(&[], &[], 10.0), 0.0);
        // Saturated term -> full.
        assert_eq!(vector_edm(&[10], &[10], 50.0), 1.0);
        // Single small term: 1 - (1 - v) = v.
        let v = vector_edm(&[2], &[3], 100.0);
        assert!((v - 0.06).abs() < 1e-12);
        // Equals the unbiased product form on several terms.
        let x = [3u32, 0, 5];
        let y = [2u32, 7, 1];
        let expect = 1.0 - (1.0 - 6.0 / 100.0) * (1.0 - 5.0 / 100.0);
        assert!((vector_edm(&x, &y, 100.0) - expect).abs() < 1e-12);
    }

    #[test]
    fn reorg_estimates_are_exact() {
        let mut r = rng(5);
        let a = gen::rand_uniform(&mut r, 24, 18, 0.15);
        let h = MncSketch::build(&a);
        assert!((estimate_transpose(&h) - a.sparsity()).abs() < 1e-15);
        assert!((estimate_reshape(&h) - a.sparsity()).abs() < 1e-15);
        assert!((estimate_neq_zero(&h) - a.sparsity()).abs() < 1e-15);
        assert!((estimate_eq_zero(&h) - (1.0 - a.sparsity())).abs() < 1e-15);
    }

    #[test]
    fn diag_estimates() {
        let v = CsrMatrix::from_triples(6, 1, vec![(1, 0, 1.0), (4, 0, 2.0)]).unwrap();
        let h = MncSketch::build(&v);
        assert!((estimate_diag_v2m(&h) - 2.0 / 36.0).abs() < 1e-15);

        let d = gen::scalar_diag(6, 3.0);
        let hd = MncSketch::build(&d);
        // Every row has one non-zero; expected diag occupancy = 6 * (1/6) = 1
        // non-zero over 6 cells.
        assert!((estimate_diag_extract(&hd) - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bind_estimates_exact() {
        let mut r = rng(6);
        let a = gen::rand_uniform(&mut r, 10, 8, 0.2);
        let b = gen::rand_uniform(&mut r, 14, 8, 0.3);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let rb = ops::rbind(&a, &b).unwrap();
        assert!((estimate_rbind(&ha, &hb) - rb.sparsity()).abs() < 1e-15);

        let c = gen::rand_uniform(&mut r, 10, 12, 0.25);
        let hc = MncSketch::build(&c);
        let cb = ops::cbind(&a, &c).unwrap();
        assert!((estimate_cbind(&ha, &hc) - cb.sparsity()).abs() < 1e-15);
    }

    #[test]
    fn ew_mul_exact_for_column_mask() {
        // Column mask (B2.5 structure): full columns in the mask make the
        // aggregate Eq. 13 estimate exact.
        let mut r = rng(7);
        let x = gen::rand_uniform(&mut r, 40, 20, 0.3);
        // Mask: columns 5..10 fully dense.
        let mask = CsrMatrix::from_triples(
            40,
            20,
            (0..40).flat_map(|i| (5..10).map(move |j| (i, j, 1.0))),
        )
        .unwrap();
        let est = estimate_ew_mul(&MncSketch::build(&mask), &MncSketch::build(&x));
        let truth = ops::ew_mul(&mask, &x).unwrap().sparsity();
        assert!((est - truth).abs() < 1e-12, "est {est} vs truth {truth}");
    }

    #[test]
    fn ew_add_upper_bounded_by_sum_and_reasonable() {
        let mut r = rng(8);
        let a = gen::rand_uniform(&mut r, 30, 30, 0.2);
        let b = gen::rand_uniform(&mut r, 30, 30, 0.25);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let est = estimate_ew_add(&ha, &hb);
        let truth = ops::ew_add(&a, &b).unwrap().sparsity();
        assert!(est <= a.sparsity() + b.sparsity() + 1e-12);
        assert!((est - truth).abs() < 0.05, "est {est} truth {truth}");
    }

    #[test]
    fn ew_mul_with_dense_operand_is_exact() {
        // B3.4 structure: a sparse mask element-wise multiplied with an
        // (essentially) dense matrix. With B dense, λ = 1/n and the row
        // terms reduce to h^r_A — the estimate is exact.
        let mut r = rng(9);
        let a = gen::rand_uniform(&mut r, 25, 25, 0.1);
        let b = gen::rand_dense(&mut r, 25, 25);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let est = estimate_ew_mul(&ha, &hb);
        let truth = ops::ew_mul(&a, &b).unwrap().sparsity();
        assert!((est - truth).abs() < 1e-12, "est {est} truth {truth}");
    }
}
