//! Adapter exposing the MNC sketch (the [`mnc_core`] crate) through the
//! common [`SparsityEstimator`] trait, including the *MNC Basic* ablation.

use std::sync::Arc;

use mnc_core::{MncConfig, MncSketch};
use mnc_matrix::CsrMatrix;

use crate::{OpKind, Result, SparsityEstimator, Synopsis};

/// Synopsis wrapper around [`MncSketch`].
#[derive(Debug, Clone)]
pub struct MncSynopsis {
    /// The wrapped sketch.
    pub sketch: MncSketch,
}

/// The MNC estimator (Sections 3–4 of the paper).
///
/// Stateless beyond its configuration: every propagation seeds its rounding
/// from its own inputs ([`MncSketch::propagate_in`]), so one estimator can
/// serve any number of walks, threads and callers, and answers the same
/// bits as a fresh one.
#[derive(Debug)]
pub struct MncEstimator {
    name: &'static str,
    cfg: MncConfig,
    /// Worker threads for leaf sketch construction (1 = sequential). Kept
    /// out of [`MncConfig`] on purpose: the parallel build is bit-identical
    /// to the sequential one, so the thread count must not perturb cache
    /// keys or results.
    build_threads: usize,
}

impl Default for MncEstimator {
    fn default() -> Self {
        Self::new()
    }
}

impl MncEstimator {
    /// Full MNC: extended count vectors + Theorem 3.2 bounds.
    pub fn new() -> Self {
        Self::with_config("MNC", MncConfig::default())
    }

    /// *MNC Basic*: count vectors only (the paper's ablation series).
    pub fn basic() -> Self {
        Self::with_config("MNC Basic", MncConfig::basic())
    }

    /// Custom configuration under a display name.
    pub fn with_config(name: &'static str, cfg: MncConfig) -> Self {
        MncEstimator {
            name,
            cfg,
            build_threads: 1,
        }
    }

    /// Builds leaf sketches on `threads` scoped worker threads
    /// ([`MncSketch::build_parallel_with`]); the result is bit-identical to
    /// the sequential build.
    pub fn with_build_threads(mut self, threads: usize) -> Self {
        self.build_threads = threads.max(1);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &MncConfig {
        &self.cfg
    }

    /// Unwraps every input to its sketch, rejecting foreign synopses.
    fn sketches<'a>(&self, inputs: &[&'a Synopsis]) -> Result<Vec<&'a MncSketch>> {
        inputs
            .iter()
            .enumerate()
            .map(|(idx, _)| {
                crate::expect_synopsis!("MNC", Synopsis::Mnc, inputs, idx).map(|s| &s.sketch)
            })
            .collect()
    }
}

impl SparsityEstimator for MncEstimator {
    fn name(&self) -> &'static str {
        self.name
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        Ok(Synopsis::Mnc(MncSynopsis {
            sketch: MncSketch::build_parallel_with(m, self.cfg.use_extended, self.build_threads),
        }))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        MncSketch::estimate_with(op, &self.sketches(inputs)?, &self.cfg)
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        let sketches = self.sketches(inputs)?;
        let sketch = MncSketch::propagate_in(op, &sketches, &self.cfg)?;
        Ok(Synopsis::Mnc(MncSynopsis { sketch }))
    }

    fn cache_key(&self) -> String {
        // Synopsis content depends on the extension vectors; rounding knobs
        // and the seed affect propagated (cached intermediate) sketches.
        format!(
            "{}:ext={},bounds={},prob={},seed={}",
            self.name,
            self.cfg.use_extended,
            self.cfg.use_bounds,
            self.cfg.probabilistic_rounding,
            self.cfg.seed
        )
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

    fn syn(e: &MncEstimator, m: &CsrMatrix) -> Synopsis {
        e.build(&Arc::new(m.clone())).unwrap()
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(MncEstimator::new().name(), "MNC");
        assert_eq!(MncEstimator::basic().name(), "MNC Basic");
    }

    #[test]
    fn basic_does_not_build_extended_vectors() {
        let mut r = rng(1);
        let m = gen::rand_uniform(&mut r, 40, 40, 0.1);
        let e = MncEstimator::basic();
        if let Synopsis::Mnc(s) = syn(&e, &m) {
            assert!(s.sketch.her.is_none() && s.sketch.hec.is_none());
        } else {
            panic!("expected MNC synopsis");
        }
    }

    #[test]
    fn adapter_matches_core_for_products() {
        let mut r = rng(2);
        let a = gen::rand_uniform(&mut r, 50, 40, 0.1);
        let b = gen::rand_uniform(&mut r, 40, 60, 0.08);
        let e = MncEstimator::new();
        let est = e
            .estimate(&OpKind::MatMul, &[&syn(&e, &a), &syn(&e, &b)])
            .unwrap();
        let core = MncSketch::estimate(
            &OpKind::MatMul,
            &[&MncSketch::build(&a), &MncSketch::build(&b)],
        )
        .unwrap();
        assert!((est - core).abs() < 1e-15);
    }

    #[test]
    fn all_ops_supported() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 12, 12, 0.2);
        let b = gen::rand_uniform(&mut r, 12, 12, 0.3);
        let v = gen::ones_vector(12);
        let e = MncEstimator::new();
        let (sa, sb, sv) = (syn(&e, &a), syn(&e, &b), syn(&e, &v));
        for (op, inputs) in [
            (OpKind::MatMul, vec![&sa, &sb]),
            (OpKind::EwAdd, vec![&sa, &sb]),
            (OpKind::EwMul, vec![&sa, &sb]),
            (OpKind::EwMax, vec![&sa, &sb]),
            (OpKind::EwMin, vec![&sa, &sb]),
            (OpKind::Transpose, vec![&sa]),
            (OpKind::Reshape { rows: 6, cols: 24 }, vec![&sa]),
            (OpKind::DiagV2M, vec![&sv]),
            (OpKind::DiagM2V, vec![&sa]),
            (OpKind::Rbind, vec![&sa, &sb]),
            (OpKind::Cbind, vec![&sa, &sb]),
            (OpKind::Neq0, vec![&sa]),
            (OpKind::Eq0, vec![&sa]),
        ] {
            let est = e.estimate(&op, &inputs).expect("estimate");
            assert!((0.0..=1.0).contains(&est), "{op:?} -> {est}");
            let prop = e.propagate(&op, &inputs).expect("propagate");
            assert_eq!(
                prop.shape(),
                op.output_shape(&inputs.iter().map(|s| s.shape()).collect::<Vec<_>>())
                    .unwrap()
            );
        }
    }

    #[test]
    fn max_matches_add_and_min_matches_mul_under_a1() {
        let mut r = rng(5);
        let a = gen::rand_uniform(&mut r, 20, 20, 0.3);
        let b = gen::rand_uniform(&mut r, 20, 20, 0.2);
        let e = MncEstimator::new();
        let (sa, sb) = (syn(&e, &a), syn(&e, &b));
        let add = e.estimate(&OpKind::EwAdd, &[&sa, &sb]).unwrap();
        let max = e.estimate(&OpKind::EwMax, &[&sa, &sb]).unwrap();
        assert_eq!(add, max);
        let mul = e.estimate(&OpKind::EwMul, &[&sa, &sb]).unwrap();
        let min = e.estimate(&OpKind::EwMin, &[&sa, &sb]).unwrap();
        assert_eq!(mul, min);
        // And the estimates track the exact kernels.
        let t_max = ops::ew_max(&a, &b).unwrap().sparsity();
        assert!((max - t_max).abs() < 0.06, "max {max} truth {t_max}");
    }

    #[test]
    fn chain_estimation_via_propagation() {
        // Scale & permute (B1.2/B1.3 flavour): sketches propagate exactly
        // through the diagonal product, keeping the chain estimate exact.
        let mut r = rng(4);
        let d = gen::scalar_diag(30, 2.0);
        let x = gen::rand_uniform(&mut r, 30, 20, 0.15);
        let e = MncEstimator::new();
        let mid = e
            .propagate(&OpKind::MatMul, &[&syn(&e, &d), &syn(&e, &x)])
            .unwrap();
        assert!((mid.sparsity() - x.sparsity()).abs() < 1e-12);
        let dx = ops::matmul(&d, &x).unwrap();
        assert!((mid.sparsity() - dx.sparsity()).abs() < 1e-12);
    }
}
