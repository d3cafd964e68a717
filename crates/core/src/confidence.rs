//! Confidence intervals for MNC product estimates — the paper's future
//! work item (2).
//!
//! The only non-exact component of Algorithm 1 is the density-map-like
//! fallback `E_dm(x, y, p)`, which models each rank-1 term `x_k · y_k` as
//! scattering non-zeros uniformly over `p` candidate cells. Under that
//! model every candidate cell is occupied independently with probability
//! `q = 1 - Π_k (1 - v_k)`, so the occupied-cell count is approximately
//! `Binomial(p, q)` and a normal interval
//! `p·q ± z · sqrt(p · q · (1 - q))` applies. Cells are in truth weakly
//! negatively correlated (each term places a fixed number of non-zeros),
//! making the binomial variance slightly conservative — the right
//! direction for an interval.
//!
//! Exact cases (Theorem 3.1, diagonal propagation, and the extended-count
//! exact fraction) contribute zero width; the Theorem 3.2 bounds clip the
//! interval.
//!
//! The interval does not re-run Algorithm 1: it is derived from the record
//! the point estimate is computed from (which case fired, the exact
//! non-zeros, the fallback's `(q, p)` and the bounds), so the two cannot
//! disagree.

use crate::estimate::matmul_record;
use crate::sketch::MncSketch;
use crate::MncConfig;

/// A sparsity estimate with a confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparsityEstimateCi {
    /// Point estimate (identical to [`crate::estimate::estimate_matmul_with`]).
    pub estimate: f64,
    /// Lower interval bound.
    pub lower: f64,
    /// Upper interval bound.
    pub upper: f64,
    /// True when the estimate is structurally exact (zero-width interval).
    pub exact: bool,
}

impl SparsityEstimateCi {
    /// Interval width.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// True if `truth` lies inside the interval.
    pub fn covers(&self, truth: f64) -> bool {
        (self.lower..=self.upper).contains(&truth)
    }
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9 — ample for confidence levels).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0, 1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506_628_277_459_24,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// Product estimate with a confidence interval at the given level (e.g.
/// `0.95`). The point estimate is Algorithm 1's by construction: the
/// interval is read from the same record
/// [`crate::estimate::estimate_matmul_with`] takes its value from.
pub fn estimate_matmul_ci(
    ha: &MncSketch,
    hb: &MncSketch,
    cfg: &MncConfig,
    confidence: f64,
) -> SparsityEstimateCi {
    assert!(
        (0.0..1.0).contains(&confidence) && confidence > 0.0,
        "confidence must be in (0, 1)"
    );
    let record = matmul_record(ha, hb, cfg);
    let mid = record.nnz();
    let half_width = record.fallback.map_or(0.0, |(q, p)| {
        inverse_normal_cdf(0.5 + confidence / 2.0) * (p * q * (1.0 - q)).max(0.0).sqrt()
    });
    // `sparsity` is monotone, so the interval contains the estimate.
    SparsityEstimateCi {
        estimate: record.estimate(),
        lower: record.sparsity(mid - half_width),
        upper: record.sparsity(mid + half_width),
        exact: record.fallback.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::{gen, ops};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn inverse_normal_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.9995) - 3.2905).abs() < 1e-3);
    }

    #[test]
    fn exact_cases_have_zero_width() {
        let mut r = rng(1);
        let p = gen::permutation(&mut r, 40);
        let x = gen::rand_uniform(&mut r, 40, 30, 0.2);
        let ci = estimate_matmul_ci(
            &MncSketch::build(&p),
            &MncSketch::build(&x),
            &MncConfig::default(),
            0.95,
        );
        assert!(ci.exact);
        assert_eq!(ci.width(), 0.0);
        let truth = ops::bool_matmul(&p, &x).unwrap().sparsity();
        assert!(ci.covers(truth));
    }

    #[test]
    fn point_estimate_matches_algorithm_1() {
        let mut r = rng(2);
        let a = gen::rand_uniform(&mut r, 50, 40, 0.1);
        let b = gen::rand_uniform(&mut r, 40, 60, 0.12);
        let cfg = MncConfig::default();
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let ci = estimate_matmul_ci(&ha, &hb, &cfg, 0.95);
        let point = crate::estimate::estimate_matmul_with(&ha, &hb, &cfg);
        assert_eq!(ci.estimate, point);
        assert!(ci.lower <= point && point <= ci.upper);
    }

    #[test]
    fn higher_confidence_widens_the_interval() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 60, 50, 0.08);
        let b = gen::rand_uniform(&mut r, 50, 70, 0.1);
        let cfg = MncConfig::default();
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let ci80 = estimate_matmul_ci(&ha, &hb, &cfg, 0.80);
        let ci99 = estimate_matmul_ci(&ha, &hb, &cfg, 0.99);
        assert!(ci99.width() >= ci80.width());
    }

    #[test]
    fn empirical_coverage_on_uniform_random_products() {
        // 95% interval should cover the truth in the (large) majority of
        // uniform-random draws; the binomial model is approximate, so we
        // assert a generous floor rather than exact coverage.
        let mut covered = 0usize;
        const TRIALS: usize = 40;
        for seed in 0..TRIALS as u64 {
            let mut r = rng(100 + seed);
            let a = gen::rand_uniform(&mut r, 80, 60, 0.05);
            let b = gen::rand_uniform(&mut r, 60, 90, 0.06);
            let ci = estimate_matmul_ci(
                &MncSketch::build(&a),
                &MncSketch::build(&b),
                &MncConfig::default(),
                0.95,
            );
            let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
            covered += usize::from(ci.covers(truth));
        }
        assert!(covered >= 30, "covered only {covered}/{TRIALS}");
    }

    #[test]
    fn interval_is_valid_sparsity_range() {
        let mut r = rng(4);
        let a = gen::rand_uniform(&mut r, 20, 20, 0.5);
        let b = gen::rand_uniform(&mut r, 20, 20, 0.5);
        let ci = estimate_matmul_ci(
            &MncSketch::build(&a),
            &MncSketch::build(&b),
            &MncConfig::basic(),
            0.999,
        );
        assert!(0.0 <= ci.lower && ci.lower <= ci.upper && ci.upper <= 1.0);
    }

    #[test]
    fn empty_inputs() {
        let a = MncSketch::empty(5, 5);
        let ci = estimate_matmul_ci(&a, &a, &MncConfig::default(), 0.9);
        assert_eq!(ci.estimate, 0.0);
        assert!(ci.exact);
    }
}
