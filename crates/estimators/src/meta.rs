//! Naive metadata estimators `E_ac` (average case) and `E_wc` (worst case)
//! — Section 2.1, Eq. 1–2.
//!
//! Both derive output sparsity solely from the input shapes and non-zero
//! counts, at `O(1)` time and space. `E_ac` assumes uniformly distributed,
//! independent non-zeros; `E_wc` assumes adversarial alignment and is an
//! upper bound (over-estimation bias).

use std::sync::Arc;

use mnc_matrix::CsrMatrix;

use crate::{eac, OpKind, Result, SparsityEstimator, Synopsis};

/// Shape plus (estimated) non-zero count — the only state the metadata
/// estimators carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetaSynopsis {
    /// Rows of the described matrix.
    pub nrows: usize,
    /// Columns of the described matrix.
    pub ncols: usize,
    /// (Estimated) non-zero count; fractional for propagated synopses.
    pub nnz: f64,
}

impl MetaSynopsis {
    /// Measured heap bytes: the metadata synopsis is plain-old-data, so
    /// there are none (Table 1's `O(1)` space).
    pub fn heap_bytes(&self) -> u64 {
        0
    }

    /// Sparsity implied by the synopsis.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            (self.nnz / cells).clamp(0.0, 1.0)
        }
    }
}

/// Which variant of the metadata estimator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    AverageCase,
    WorstCase,
}

/// `E_ac`: the unbiased average-case metadata estimator (Eq. 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct MetaAcEstimator;

/// `E_wc`: the conservative worst-case metadata estimator (Eq. 2), used for
/// worst-case memory estimates; biased toward over-estimation.
#[derive(Debug, Clone, Copy, Default)]
pub struct MetaWcEstimator;

fn meta_of(m: &CsrMatrix) -> MetaSynopsis {
    MetaSynopsis {
        nrows: m.nrows(),
        ncols: m.ncols(),
        nnz: m.nnz() as f64,
    }
}

fn unwrap_meta<'a>(
    name: &'static str,
    inputs: &[&'a Synopsis],
    idx: usize,
) -> Result<&'a MetaSynopsis> {
    crate::expect_synopsis!(name, Synopsis::Meta, inputs, idx)
}

fn estimate(
    name: &'static str,
    variant: Variant,
    op: &OpKind,
    inputs: &[&Synopsis],
) -> Result<f64> {
    let a = unwrap_meta(name, inputs, 0)?;
    let (sa, m, n) = (a.sparsity(), a.nrows as f64, a.ncols as f64);
    let s = match op {
        OpKind::MatMul => {
            let b = unwrap_meta(name, inputs, 1)?;
            let sb = b.sparsity();
            match variant {
                // Eq. 1: s_C = 1 - (1 - s_A s_B)^n.
                Variant::AverageCase => eac(sa, sb, n),
                // Eq. 2: s_C = min(1, s_A n) · min(1, s_B n).
                Variant::WorstCase => (sa * n).min(1.0) * (sb * n).min(1.0),
            }
        }
        // Under A1, max has the union pattern of `+` (Section 5's spatial
        // pattern) and min the intersection pattern of `⊙`.
        OpKind::EwAdd | OpKind::EwMax => {
            let b = unwrap_meta(name, inputs, 1)?;
            match variant {
                Variant::AverageCase => crate::prob_or(sa, b.sparsity()),
                Variant::WorstCase => (sa + b.sparsity()).min(1.0),
            }
        }
        OpKind::EwMul | OpKind::EwMin => {
            let b = unwrap_meta(name, inputs, 1)?;
            match variant {
                Variant::AverageCase => sa * b.sparsity(),
                Variant::WorstCase => sa.min(b.sparsity()),
            }
        }
        OpKind::Transpose | OpKind::Reshape { .. } | OpKind::Neq0 => sa,
        OpKind::Eq0 => 1.0 - sa,
        OpKind::DiagV2M => {
            if m == 0.0 {
                0.0
            } else {
                a.nnz / (m * m)
            }
        }
        // Expected diagonal occupancy under uniformity: nnz/n hits over m
        // output cells.
        OpKind::DiagM2V => {
            if m == 0.0 || n == 0.0 {
                0.0
            } else {
                match variant {
                    Variant::AverageCase => a.nnz / (n * m),
                    Variant::WorstCase => (a.nnz / m).min(1.0),
                }
            }
        }
        OpKind::Rbind => {
            let b = unwrap_meta(name, inputs, 1)?;
            let cells = (a.nrows + b.nrows) as f64 * n;
            if cells == 0.0 {
                0.0
            } else {
                (a.nnz + b.nnz) / cells
            }
        }
        OpKind::Cbind => {
            let b = unwrap_meta(name, inputs, 1)?;
            let cells = m * (a.ncols + b.ncols) as f64;
            if cells == 0.0 {
                0.0
            } else {
                (a.nnz + b.nnz) / cells
            }
        }
    };
    Ok(s.clamp(0.0, 1.0))
}

fn propagate(
    name: &'static str,
    variant: Variant,
    op: &OpKind,
    inputs: &[&Synopsis],
) -> Result<Synopsis> {
    let shapes: Vec<(usize, usize)> = inputs.iter().map(|s| s.shape()).collect();
    let (rows, cols) = op.output_shape(&shapes)?;
    let s = estimate(name, variant, op, inputs)?;
    Ok(Synopsis::Meta(MetaSynopsis {
        nrows: rows,
        ncols: cols,
        nnz: s * rows as f64 * cols as f64,
    }))
}

impl SparsityEstimator for MetaAcEstimator {
    fn name(&self) -> &'static str {
        "MetaAC"
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        Ok(Synopsis::Meta(meta_of(m)))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        estimate(self.name(), Variant::AverageCase, op, inputs)
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        propagate(self.name(), Variant::AverageCase, op, inputs)
    }

    fn as_sync(&self) -> Option<&(dyn SparsityEstimator + Sync)> {
        Some(self)
    }
}

impl SparsityEstimator for MetaWcEstimator {
    fn name(&self) -> &'static str {
        "MetaWC"
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        Ok(Synopsis::Meta(meta_of(m)))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        estimate(self.name(), Variant::WorstCase, op, inputs)
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        propagate(self.name(), Variant::WorstCase, op, inputs)
    }

    fn as_sync(&self) -> Option<&(dyn SparsityEstimator + Sync)> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::{gen, ops};
    use rand::SeedableRng;

    fn syn(m: &CsrMatrix) -> Synopsis {
        Synopsis::Meta(meta_of(m))
    }

    #[test]
    fn eac_on_uniform_random_product_is_close() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = gen::rand_uniform(&mut rng, 200, 150, 0.02);
        let b = gen::rand_uniform(&mut rng, 150, 180, 0.03);
        let est = MetaAcEstimator
            .estimate(&OpKind::MatMul, &[&syn(&a), &syn(&b)])
            .unwrap();
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        let rel = est.max(truth) / est.min(truth);
        assert!(rel < 1.2, "relative error {rel}");
    }

    #[test]
    fn ewc_is_upper_bound_on_random_products() {
        for seed in 0..10u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(100 + seed);
            let a = gen::rand_uniform(&mut rng, 60, 50, 0.05);
            let b = gen::rand_uniform(&mut rng, 50, 40, 0.08);
            let est = MetaWcEstimator
                .estimate(&OpKind::MatMul, &[&syn(&a), &syn(&b)])
                .unwrap();
            let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
            assert!(est >= truth - 1e-12, "wc {est} < truth {truth}");
        }
    }

    #[test]
    fn wc_is_tight_for_aligned_outer_product() {
        // The adversarial pattern E_wc assumes: aligned column/row vectors.
        let n = 50;
        let c = CsrMatrix::from_triples(n, n, (0..n).map(|i| (i, 0usize, 1.0))).unwrap();
        let r = CsrMatrix::from_triples(n, n, (0..n).map(|j| (0usize, j, 1.0))).unwrap();
        let est = MetaWcEstimator
            .estimate(&OpKind::MatMul, &[&syn(&c), &syn(&r)])
            .unwrap();
        assert!((est - 1.0).abs() < 1e-12);
    }

    #[test]
    fn elementwise_estimates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let a = gen::rand_uniform(&mut rng, 100, 100, 0.2);
        let b = gen::rand_uniform(&mut rng, 100, 100, 0.3);
        let add = MetaAcEstimator
            .estimate(&OpKind::EwAdd, &[&syn(&a), &syn(&b)])
            .unwrap();
        let mul = MetaAcEstimator
            .estimate(&OpKind::EwMul, &[&syn(&a), &syn(&b)])
            .unwrap();
        let (sa, sb) = (a.sparsity(), b.sparsity());
        assert!((add - (sa + sb - sa * sb)).abs() < 1e-12);
        assert!((mul - sa * sb).abs() < 1e-12);
        let wc_mul = MetaWcEstimator
            .estimate(&OpKind::EwMul, &[&syn(&a), &syn(&b)])
            .unwrap();
        assert!((wc_mul - sa.min(sb)).abs() < 1e-12);
    }

    #[test]
    fn reorg_estimates_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = gen::rand_uniform(&mut rng, 30, 20, 0.1);
        let s = a.sparsity();
        for op in [
            OpKind::Transpose,
            OpKind::Reshape { rows: 20, cols: 30 },
            OpKind::Neq0,
        ] {
            let est = MetaAcEstimator.estimate(&op, &[&syn(&a)]).unwrap();
            assert!((est - s).abs() < 1e-12, "{op:?}");
        }
        let eq0 = MetaAcEstimator.estimate(&OpKind::Eq0, &[&syn(&a)]).unwrap();
        assert!((eq0 - (1.0 - s)).abs() < 1e-12);
    }

    #[test]
    fn propagation_tracks_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = gen::rand_uniform(&mut rng, 10, 20, 0.1);
        let b = gen::rand_uniform(&mut rng, 20, 5, 0.2);
        let p = MetaAcEstimator
            .propagate(&OpKind::MatMul, &[&syn(&a), &syn(&b)])
            .unwrap();
        assert_eq!(p.shape(), (10, 5));
        let t = MetaAcEstimator
            .propagate(&OpKind::Transpose, &[&p])
            .unwrap();
        assert_eq!(t.shape(), (5, 10));
    }

    #[test]
    fn diag_and_bind_estimates() {
        let v = CsrMatrix::from_triples(8, 1, vec![(1, 0, 1.0), (2, 0, 1.0)]).unwrap();
        let d = MetaAcEstimator
            .estimate(&OpKind::DiagV2M, &[&syn(&v)])
            .unwrap();
        assert!((d - 2.0 / 64.0).abs() < 1e-12);

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = gen::rand_uniform(&mut rng, 6, 4, 0.5);
        let b = gen::rand_uniform(&mut rng, 2, 4, 0.25);
        let rb = MetaAcEstimator
            .estimate(&OpKind::Rbind, &[&syn(&a), &syn(&b)])
            .unwrap();
        let truth = ops::rbind(&a, &b).unwrap().sparsity();
        assert!((rb - truth).abs() < 1e-12);
    }
}
