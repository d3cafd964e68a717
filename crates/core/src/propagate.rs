//! Sketch propagation: deriving the MNC sketch of an operation's output from
//! its input sketches (Sections 3.3 and 4.2).
//!
//! Propagation enables recursive sparsity estimation over arbitrary DAGs of
//! operations: estimate the output sparsity, then scale/reshape the count
//! vectors accordingly, applying *probabilistic rounding* to avoid the
//! systematic bias deterministic rounding introduces for ultra-sparse
//! intermediates.

use crate::estimate::{
    estimate_eq_zero, estimate_ew_add, estimate_ew_mul, estimate_matmul_with, lambda_cols,
    lambda_rows,
};
use crate::round::{round_count, Rounding, SplitMix64};
use crate::sketch::{col_half_threshold, row_half_threshold, MncSketch};
use crate::MncConfig;
use mnc_kernels::{
    complement_into, concat_meta_into, scale_round_into, sum_u32, zip_add_into, VecMeta,
};

/// Scales `counts` so that they sum to `target`, rounding each entry
/// (probabilistically when configured) and capping at `cap` (a count can
/// never exceed the opposite dimension). Test-only reference wrapper — the
/// hot paths call [`scale_round_into`] directly on their output vectors.
#[cfg(test)]
fn scale_counts(
    counts: &[u32],
    target: f64,
    cap: u64,
    rng: &mut SplitMix64,
    probabilistic: bool,
) -> Vec<u32> {
    let mut out = Vec::new();
    scale_round_into(
        counts,
        target,
        cap,
        0,
        rounding(rng, probabilistic),
        &mut out,
    );
    out
}

/// The kernel's rounding rule for a configuration's
/// `probabilistic_rounding` flag.
fn rounding(rng: &mut SplitMix64, probabilistic: bool) -> Rounding<'_> {
    if probabilistic {
        Rounding::Probabilistic(rng)
    } else {
        Rounding::Nearest
    }
}

/// Propagates sketches over `C = A B` (Section 3.3, Eq. 11–12).
///
/// Exact cases: if either input is fully diagonal (and square), the other
/// input's sketch *is* the output sketch (Eq. 12). Otherwise the output
/// sparsity is estimated with Algorithm 1 and both count vectors are scaled
/// to match it, assuming the per-row/column non-zero distribution carries
/// over the product.
///
/// The output count vectors' metadata is derived in the same scaling call,
/// with no separate scan.
pub fn propagate_matmul_in(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    rng: &mut SplitMix64,
) -> MncSketch {
    assert_eq!(ha.ncols, hb.nrows, "matmul propagation: shape mismatch");
    // Eq. 12: multiplication with a fully diagonal square matrix preserves
    // the other operand's structure exactly.
    if hb.meta.fully_diagonal && hb.nrows == hb.ncols {
        return ha.clone();
    }
    if ha.meta.fully_diagonal && ha.nrows == ha.ncols {
        return hb.clone();
    }
    let (m, l) = (ha.nrows, hb.ncols);
    let s_c = estimate_matmul_with(ha, hb, cfg);
    let target = s_c * m as f64 * l as f64;
    let prob = cfg.probabilistic_rounding;
    let mut hr = Vec::new();
    let row_meta = scale_round_into(
        &ha.hr,
        target,
        l as u64,
        row_half_threshold(l),
        rounding(rng, prob),
        &mut hr,
    );
    let mut hc = Vec::new();
    let col_meta = scale_round_into(
        &hb.hc,
        target,
        m as u64,
        col_half_threshold(m),
        rounding(rng, prob),
        &mut hc,
    );
    MncSketch::from_vectors_with_meta(m, l, hr, hc, None, None, false, row_meta, col_meta)
}

/// Transpose: mirror all components exactly (Eq. 14).
///
/// The output metadata is the input's with the row/column halves swapped —
/// the half-full thresholds swap along with the dimensions — except `nnz`,
/// which is authoritative from the *output* row counts (= the input column
/// counts, whose sum can differ by rounding noise on propagated sketches)
/// and is recomputed with one kernel pass.
pub fn propagate_transpose(h: &MncSketch) -> MncSketch {
    let row_meta = VecMeta {
        sum: sum_u32(&h.hc),
        max: h.meta.max_hc,
        nonempty: h.meta.nonempty_cols,
        eq1: h.meta.cols_eq_1,
        over_half: h.meta.half_full_cols,
    };
    let col_meta = VecMeta {
        sum: h.meta.nnz,
        max: h.meta.max_hr,
        nonempty: h.meta.nonempty_rows,
        eq1: h.meta.rows_eq_1,
        over_half: h.meta.half_full_rows,
    };
    MncSketch::from_vectors_with_meta(
        h.ncols,
        h.nrows,
        h.hc.clone(),
        h.hr.clone(),
        h.hec.clone(),
        h.her.clone(),
        h.meta.fully_diagonal,
        row_meta,
        col_meta,
    )
}

/// `A != 0`: the pattern — and thus the entire sketch — is unchanged.
pub fn propagate_neq_zero(h: &MncSketch) -> MncSketch {
    h.clone()
}

/// `A == 0`: complement counts, `h^r_C = n - h^r_A`, `h^c_C = m - h^c_A`;
/// extension vectors are dropped (Eq. 14).
pub fn propagate_eq_zero_in(h: &MncSketch) -> MncSketch {
    let n = h.ncols as u32;
    let m = h.nrows as u32;
    let mut hr = Vec::new();
    let row_meta = complement_into(&h.hr, n, row_half_threshold(h.ncols), &mut hr);
    let mut hc = Vec::new();
    let col_meta = complement_into(&h.hc, m, col_half_threshold(h.nrows), &mut hc);
    let out = MncSketch::from_vectors_with_meta(
        h.nrows, h.ncols, hr, hc, None, None, false, row_meta, col_meta,
    );
    debug_assert!(
        (out.sparsity() - estimate_eq_zero(h)).abs() < 1e-9,
        "complement sketch must agree with the scalar estimate"
    );
    out
}

/// `rbind(A, B)`: row counts concatenate and column counts add — both exact.
/// `h^ec` adds exactly (single-non-zero rows are unaffected by stacking);
/// `h^er` cannot be preserved (a column's total count changes) — Eq. 14.
pub fn propagate_rbind_in(ha: &MncSketch, hb: &MncSketch) -> MncSketch {
    assert_eq!(ha.ncols, hb.ncols, "rbind propagation: shape mismatch");
    let nrows = ha.nrows + hb.nrows;
    let mut hr = Vec::new();
    let row_meta = concat_meta_into(&ha.hr, &hb.hr, row_half_threshold(ha.ncols), &mut hr);
    let mut hc = Vec::new();
    let col_meta = zip_add_into(&ha.hc, &hb.hc, col_half_threshold(nrows), &mut hc);
    let hec = match (ha.effective_hec_slice(), hb.effective_hec_slice()) {
        (Some(a), Some(b)) => {
            let mut buf = Vec::new();
            zip_add_into(a, b, 0, &mut buf);
            Some(buf)
        }
        _ => None,
    };
    MncSketch::from_vectors_with_meta(
        nrows, ha.ncols, hr, hc, None, hec, false, row_meta, col_meta,
    )
}

/// `cbind(A, B)`: symmetric to [`propagate_rbind_in`].
pub fn propagate_cbind_in(ha: &MncSketch, hb: &MncSketch) -> MncSketch {
    assert_eq!(ha.nrows, hb.nrows, "cbind propagation: shape mismatch");
    let ncols = ha.ncols + hb.ncols;
    let mut hr = Vec::new();
    let row_meta = zip_add_into(&ha.hr, &hb.hr, row_half_threshold(ncols), &mut hr);
    let mut hc = Vec::new();
    let col_meta = concat_meta_into(&ha.hc, &hb.hc, col_half_threshold(ha.nrows), &mut hc);
    let her = match (ha.effective_her_slice(), hb.effective_her_slice()) {
        (Some(a), Some(b)) => {
            let mut buf = Vec::new();
            zip_add_into(a, b, 0, &mut buf);
            Some(buf)
        }
        _ => None,
    };
    MncSketch::from_vectors_with_meta(
        ha.nrows, ncols, hr, hc, her, None, false, row_meta, col_meta,
    )
}

/// `diag(v)` for an `m x 1` vector: all four count vectors equal the
/// vector's 0/1 row counts (Eq. 14); the result is fully diagonal iff the
/// vector is dense.
pub fn propagate_diag_v2m(h: &MncSketch) -> MncSketch {
    assert_eq!(h.ncols, 1, "diag propagation expects a column vector");
    let m = h.nrows;
    let hr = h.hr.clone();
    let fully_diagonal = h.meta.nnz as usize == m;
    MncSketch::from_vectors(
        m,
        m,
        hr.clone(),
        hr.clone(),
        Some(hr.clone()),
        Some(hr),
        fully_diagonal,
    )
}

/// `diag(A)` extraction (matrix-to-vector) for a square sketch — handled
/// "in a best-effort manner" (Section 4.2): each output row is expected to
/// hold `h^r_i / n` non-zeros, probabilistically rounded; the single output
/// column sums the row expectations.
pub fn propagate_diag_extract_in(
    h: &MncSketch,
    cfg: &MncConfig,
    rng: &mut SplitMix64,
) -> MncSketch {
    assert_eq!(h.nrows, h.ncols, "diag extraction expects a square sketch");
    let n = h.ncols as f64;
    let mut total = 0.0f64;
    let mut hr = vec![0; h.nrows];
    for (o, &c) in hr.iter_mut().zip(&h.hr) {
        if n == 0.0 {
            continue;
        }
        let est = c as f64 / n;
        total += est;
        *o = round_count(rng, est, cfg.probabilistic_rounding).min(1) as u32;
    }
    let hc = vec![round_count(rng, total, cfg.probabilistic_rounding).min(h.nrows as u64) as u32];
    MncSketch::from_vectors(h.nrows, 1, hr, hc, None, None, false)
}

/// Row-wise reshape of an `m x n` sketch to `k x l` (Section 4.2).
///
/// * `m % k == 0` (rows merge): output row counts aggregate groups of
///   `m/k` input rows **exactly**; column counts are scaled by `1/(m/k)`
///   and replicated per block (estimated).
/// * `k % m == 0` (rows split): output column counts aggregate the input
///   columns that fold onto them **exactly**; row counts split evenly
///   (estimated).
/// * Otherwise: best-effort uniform redistribution of the non-zeros.
pub fn propagate_reshape_in(
    h: &MncSketch,
    k: usize,
    l: usize,
    cfg: &MncConfig,
    rng: &mut SplitMix64,
) -> MncSketch {
    let (m, n) = (h.nrows, h.ncols);
    assert_eq!(m * n, k * l, "reshape propagation: cell count mismatch");
    if k == m {
        return h.clone();
    }
    let nnz = h.meta.nnz as f64;
    if k > 0 && m.is_multiple_of(k) {
        // Merge t consecutive input rows into each output row.
        let t = m / k;
        let mut hr = vec![0; k];
        for (o, chunk) in hr.iter_mut().zip(h.hr.chunks(t)) {
            *o = chunk.iter().sum::<u32>();
        }
        // Each output column block sees ~1/t of a source column's count.
        let mut hc = vec![0; l];
        let mut out = hc.iter_mut();
        for _block in 0..t {
            for &c in &h.hc {
                let est = c as f64 / t as f64;
                *out.next().expect("l = t * n") =
                    round_count(rng, est, cfg.probabilistic_rounding).min(k as u64) as u32;
            }
        }
        return MncSketch::from_vectors(k, l, hr, hc, None, None, false);
    }
    if m > 0 && k.is_multiple_of(m) {
        // Split each input row into t output rows.
        let t = k / m;
        let mut hr = vec![0; k];
        let mut out = hr.iter_mut();
        for &c in &h.hr {
            for _ in 0..t {
                let est = c as f64 / t as f64;
                *out.next().expect("k = t * m") =
                    round_count(rng, est, cfg.probabilistic_rounding).min(l as u64) as u32;
            }
        }
        // Output column j accumulates input columns j, j+l, j+2l, ... exactly.
        let mut hc = vec![0; l];
        for (j, &c) in h.hc.iter().enumerate() {
            hc[j % l] += c;
        }
        return MncSketch::from_vectors(k, l, hr, hc, None, None, false);
    }
    // Non-aligned fallback: uniform redistribution.
    let mut hr = vec![0; k];
    for o in hr.iter_mut() {
        *o = round_count(rng, nnz / k as f64, cfg.probabilistic_rounding).min(l as u64) as u32;
    }
    let mut hc = vec![0; l];
    for o in hc.iter_mut() {
        *o = round_count(rng, nnz / l as f64, cfg.probabilistic_rounding).min(k as u64) as u32;
    }
    MncSketch::from_vectors(k, l, hr, hc, None, None, false)
}

/// Element-wise addition (Eq. 15, `+` branch): per-entry inclusion-exclusion
/// with the symmetric collision factors `λ^r`, `λ^c`.
pub fn propagate_ew_add_in(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    rng: &mut SplitMix64,
) -> MncSketch {
    assert_eq!(
        (ha.nrows, ha.ncols),
        (hb.nrows, hb.ncols),
        "element-wise propagation: shape mismatch"
    );
    let lc = lambda_cols(ha, hb);
    let lr = lambda_rows(ha, hb);
    let mut hr = vec![0; ha.nrows];
    for ((o, &a), &b) in hr.iter_mut().zip(&ha.hr).zip(&hb.hr) {
        let (a, b) = (a as f64, b as f64);
        let est = a + b - a * b * lc;
        *o = round_count(rng, est, cfg.probabilistic_rounding).min(ha.ncols as u64) as u32;
    }
    let mut hc = vec![0; ha.ncols];
    for ((o, &a), &b) in hc.iter_mut().zip(&ha.hc).zip(&hb.hc) {
        let (a, b) = (a as f64, b as f64);
        let est = a + b - a * b * lr;
        *o = round_count(rng, est, cfg.probabilistic_rounding).min(ha.nrows as u64) as u32;
    }
    let out = MncSketch::from_vectors(ha.nrows, ha.ncols, hr, hc, None, None, false);
    debug_assert!(estimate_ew_add(ha, hb).is_finite());
    out
}

/// Element-wise multiplication (Eq. 15, `⊙` branch).
pub fn propagate_ew_mul_in(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    rng: &mut SplitMix64,
) -> MncSketch {
    assert_eq!(
        (ha.nrows, ha.ncols),
        (hb.nrows, hb.ncols),
        "element-wise propagation: shape mismatch"
    );
    let lc = lambda_cols(ha, hb);
    let lr = lambda_rows(ha, hb);
    let mut hr = vec![0; ha.nrows];
    for ((o, &a), &b) in hr.iter_mut().zip(&ha.hr).zip(&hb.hr) {
        let est = a as f64 * b as f64 * lc;
        *o = round_count(rng, est, cfg.probabilistic_rounding).min(ha.ncols as u64) as u32;
    }
    let mut hc = vec![0; ha.ncols];
    for ((o, &a), &b) in hc.iter_mut().zip(&ha.hc).zip(&hb.hc) {
        let est = a as f64 * b as f64 * lr;
        *o = round_count(rng, est, cfg.probabilistic_rounding).min(ha.nrows as u64) as u32;
    }
    let out = MncSketch::from_vectors(ha.nrows, ha.ncols, hr, hc, None, None, false);
    debug_assert!(estimate_ew_mul(ha, hb).is_finite());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::{gen, ops, CsrMatrix};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn cfg() -> MncConfig {
        MncConfig::default()
    }

    fn smx() -> SplitMix64 {
        SplitMix64::new(7)
    }

    #[test]
    fn matmul_propagation_conserves_estimated_nnz() {
        let mut r = rng(1);
        let a = gen::rand_uniform(&mut r, 80, 60, 0.05);
        let b = gen::rand_uniform(&mut r, 60, 70, 0.08);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let s = crate::estimate::estimate_matmul(&ha, &hb);
        let hc = propagate_matmul_in(&ha, &hb, &cfg(), &mut smx());
        let expect = s * 80.0 * 70.0;
        let got: f64 = hc.hr.iter().map(|&c| c as f64).sum();
        // Probabilistic rounding keeps the sum within sampling noise.
        assert!(
            (got - expect).abs() < expect.max(10.0) * 0.25,
            "expect {expect} got {got}"
        );
        assert_eq!(hc.nrows, 80);
        assert_eq!(hc.ncols, 70);
    }

    #[test]
    fn diagonal_matmul_propagates_exactly() {
        let mut r = rng(2);
        let x = gen::rand_uniform(&mut r, 30, 20, 0.2);
        let hx = MncSketch::build(&x);
        let d = gen::scalar_diag(30, 2.0);
        let hd = MncSketch::build(&d);
        // diag(λ) · X preserves X's sketch exactly (Eq. 12).
        let hc = propagate_matmul_in(&hd, &hx, &cfg(), &mut smx());
        assert_eq!(hc, hx);
        // X · diag(λ) on the other side.
        let d2 = gen::scalar_diag(20, 3.0);
        let hd2 = MncSketch::build(&d2);
        let hc2 = propagate_matmul_in(&hx, &hd2, &cfg(), &mut smx());
        assert_eq!(hc2, hx);
    }

    #[test]
    fn transpose_propagation_matches_rebuild() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 25, 35, 0.1);
        let h = MncSketch::build(&a);
        let ht = propagate_transpose(&h);
        let rebuilt = MncSketch::build(&a.transpose());
        assert_eq!(ht, rebuilt);
    }

    #[test]
    fn eq_zero_propagation_matches_rebuild() {
        let mut r = rng(4);
        let a = gen::rand_uniform(&mut r, 20, 15, 0.3);
        let h = MncSketch::build(&a);
        let hz = propagate_eq_zero_in(&h);
        let rebuilt = MncSketch::build(&ops::eq_zero(&a));
        assert_eq!(hz.hr, rebuilt.hr);
        assert_eq!(hz.hc, rebuilt.hc);
    }

    #[test]
    fn rbind_propagation_matches_rebuild_counts() {
        let mut r = rng(5);
        let a = gen::rand_uniform(&mut r, 12, 10, 0.2);
        let b = gen::rand_uniform(&mut r, 8, 10, 0.4);
        let h = propagate_rbind_in(&MncSketch::build(&a), &MncSketch::build(&b));
        let rebuilt = MncSketch::build(&ops::rbind(&a, &b).unwrap());
        assert_eq!(h.hr, rebuilt.hr);
        assert_eq!(h.hc, rebuilt.hc);
        assert_eq!(h.meta.nnz, rebuilt.meta.nnz);
    }

    #[test]
    fn cbind_propagation_matches_rebuild_counts() {
        let mut r = rng(6);
        let a = gen::rand_uniform(&mut r, 12, 10, 0.2);
        let b = gen::rand_uniform(&mut r, 12, 6, 0.4);
        let h = propagate_cbind_in(&MncSketch::build(&a), &MncSketch::build(&b));
        let rebuilt = MncSketch::build(&ops::cbind(&a, &b).unwrap());
        assert_eq!(h.hr, rebuilt.hr);
        assert_eq!(h.hc, rebuilt.hc);
    }

    #[test]
    fn diag_propagation_matches_rebuild() {
        let v = CsrMatrix::from_triples(5, 1, vec![(0, 0, 1.0), (3, 0, 2.0)]).unwrap();
        let h = propagate_diag_v2m(&MncSketch::build(&v));
        let rebuilt = MncSketch::build(&ops::diag_v2m(&v).unwrap());
        assert_eq!(h.hr, rebuilt.hr);
        assert_eq!(h.hc, rebuilt.hc);
        assert!(!h.meta.fully_diagonal);
        // A dense vector produces a fully diagonal matrix.
        let dense_v = gen::ones_vector(4);
        let hd = propagate_diag_v2m(&MncSketch::build(&dense_v));
        assert!(hd.meta.fully_diagonal);
    }

    #[test]
    fn diag_extract_propagation_mass() {
        // Expected diagonal occupancy for a dense square matrix is 1/row.
        let d = gen::rand_dense(&mut rng(12).clone(), 16, 16);
        let h = MncSketch::build(&d);
        let hp = propagate_diag_extract_in(&h, &cfg(), &mut smx());
        assert_eq!(hp.nrows, 16);
        assert_eq!(hp.ncols, 1);
        assert_eq!(hp.hr.iter().map(|&c| c as u64).sum::<u64>(), 16);
    }

    #[test]
    fn reshape_merge_rows_exact_row_counts() {
        let mut r = rng(7);
        let a = gen::rand_uniform(&mut r, 12, 5, 0.3);
        let h = MncSketch::build(&a);
        // 12x5 -> 4x15 merges 3 rows into 1.
        let hp = propagate_reshape_in(&h, 4, 15, &cfg(), &mut smx());
        let rebuilt = MncSketch::build(&ops::reshape(&a, 4, 15).unwrap());
        assert_eq!(hp.hr, rebuilt.hr, "merged row counts are exact");
        let sum_hc: u64 = hp.hc.iter().map(|&c| c as u64).sum();
        assert!((sum_hc as f64 - a.nnz() as f64).abs() <= 12.0);
    }

    #[test]
    fn reshape_split_rows_exact_col_counts() {
        let mut r = rng(8);
        let a = gen::rand_uniform(&mut r, 4, 15, 0.3);
        let h = MncSketch::build(&a);
        // 4x15 -> 12x5 splits each row into 3.
        let hp = propagate_reshape_in(&h, 12, 5, &cfg(), &mut smx());
        let rebuilt = MncSketch::build(&ops::reshape(&a, 12, 5).unwrap());
        assert_eq!(hp.hc, rebuilt.hc, "folded column counts are exact");
    }

    #[test]
    fn reshape_identity_is_noop() {
        let mut r = rng(9);
        let a = gen::rand_uniform(&mut r, 6, 4, 0.5);
        let h = MncSketch::build(&a);
        let hp = propagate_reshape_in(&h, 6, 4, &cfg(), &mut smx());
        assert_eq!(hp, h);
    }

    #[test]
    fn ew_mul_propagation_close_to_truth() {
        let mut r = rng(10);
        let a = gen::rand_uniform(&mut r, 50, 40, 0.2);
        let b = gen::rand_uniform(&mut r, 50, 40, 0.3);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let hp = propagate_ew_mul_in(&ha, &hb, &cfg(), &mut smx());
        let truth = ops::ew_mul(&a, &b).unwrap();
        let est_nnz: f64 = hp.hr.iter().map(|&c| c as f64).sum();
        let true_nnz = truth.nnz() as f64;
        assert!(
            (est_nnz - true_nnz).abs() < true_nnz.max(20.0) * 0.5,
            "est {est_nnz} true {true_nnz}"
        );
    }

    #[test]
    fn ew_add_propagation_close_to_truth() {
        let mut r = rng(11);
        let a = gen::rand_uniform(&mut r, 50, 40, 0.15);
        let b = gen::rand_uniform(&mut r, 50, 40, 0.25);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let hp = propagate_ew_add_in(&ha, &hb, &cfg(), &mut smx());
        let truth = ops::ew_add(&a, &b).unwrap();
        let est_nnz: f64 = hp.hr.iter().map(|&c| c as f64).sum();
        let true_nnz = truth.nnz() as f64;
        assert!(
            (est_nnz - true_nnz).abs() < true_nnz * 0.1,
            "est {est_nnz} true {true_nnz}"
        );
    }

    #[test]
    fn probabilistic_rounding_preserves_ultra_sparse_mass() {
        // Section 3.3's motivating case: all scaled entries below 0.5 would
        // deterministically round to zero; probabilistic rounding keeps the
        // expected mass.
        let counts = vec![1u32; 1000];
        let mut rng = SplitMix64::new(99);
        let scaled = scale_counts(&counts, 400.0, 10, &mut rng, true);
        let total: u64 = scaled.iter().map(|&c| c as u64).sum();
        assert!((total as f64 - 400.0).abs() < 80.0, "total {total}");
        // Deterministic rounding collapses to zero (0.4 -> 0).
        let det = scale_counts(&counts, 400.0, 10, &mut rng, false);
        assert_eq!(det.iter().map(|&c| c as u64).sum::<u64>(), 0);
    }
}
