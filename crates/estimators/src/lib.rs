//! # mnc-estimators — baseline sparsity estimators
//!
//! Every estimator surveyed or introduced by the paper, implemented behind a
//! single [`SparsityEstimator`] trait so the SparsEst benchmark can run them
//! uniformly:
//!
//! | Module | Estimator | Paper section |
//! |---|---|---|
//! | [`meta`] | `E_ac` average-case and `E_wc` worst-case metadata estimators | §2.1, Eq. 1–2 |
//! | [`bitset`] | `E_bmm` exact boolean matrix multiply (single- and multi-threaded) | §2.1, Eq. 3; Appendix B |
//! | [`density_map`] | `E_dm` block density map with configurable block size | §2.2, Eq. 4 |
//! | [`sampling`] | `E_smpl` biased sampling (Eq. 5) and the unbiased extension (Eq. 16) | §2.3; Appendix A |
//! | [`hashing`] | KMV-style hash-and-sample estimator | Appendix A, [Amossen et al.] |
//! | [`layered_graph`] | `E_gph` Cohen's layered graph with exponential r-vectors | §2.4, Eq. 6 |
//! | [`mnc`] | the MNC estimator (adapter over [`mnc_core`]) | §3–4 |
//!
//! ## Synopsis model
//!
//! Each estimator builds a [`Synopsis`] per base matrix, estimates operation
//! output sparsity from synopses, and *propagates* synopses over operations
//! so chains/DAGs can be estimated recursively. Estimators that do not
//! support an operation (e.g. the layered graph on element-wise operations,
//! biased sampling on chains) return [`EstimatorError::Unsupported`], which
//! the benchmark reports as `✗` — exactly how the paper's figures mark them.

pub mod analysis;
pub mod bitset;
pub mod density_map;
pub mod dynamic_density_map;
pub mod hashing;
pub mod instrument;
pub mod layered_graph;
pub mod meta;
pub mod mnc;
pub mod sampling;

use std::sync::Arc;

use mnc_matrix::CsrMatrix;

pub use analysis::{Complexity, COMPLEXITY_TABLE};
pub use bitset::BitsetEstimator;
pub use density_map::DensityMapEstimator;
pub use dynamic_density_map::DynamicDensityMapEstimator;
pub use hashing::HashEstimator;
pub use instrument::InstrumentedEstimator;
pub use layered_graph::LayeredGraphEstimator;
pub use meta::{MetaAcEstimator, MetaWcEstimator};
pub use mnc::MncEstimator;
pub use sampling::{BiasedSamplingEstimator, UnbiasedSamplingEstimator};

/// The shared operation/error vocabulary. [`OpKind`] and [`EstimatorError`]
/// moved to [`mnc_core`] (see `mnc_core::op`) so the core sketch and every
/// estimator speak one language; re-exported here so existing imports keep
/// compiling unchanged.
pub use mnc_core::op::{EstimatorError, OpKind, Result};

/// A per-matrix synopsis. One enum instead of trait objects so synopses can
/// be stored, cloned, and size-accounted uniformly by the benchmark runner.
#[derive(Debug, Clone)]
pub enum Synopsis {
    /// Shape + estimated non-zero count only.
    Meta(meta::MetaSynopsis),
    /// Packed boolean bit matrix.
    Bitset(bitset::BitsetSynopsis),
    /// Block density map.
    DensityMap(density_map::DmSynopsis),
    /// Adaptive quad-tree density map (the §2.2 dynamic extension).
    QuadTree(dynamic_density_map::QuadTreeSynopsis),
    /// Sampling: retained base matrix (leaves) or propagated metadata.
    Sample(sampling::SampleSynopsis),
    /// Hashing: retained base matrix (leaves only).
    Hash(hashing::HashSynopsis),
    /// Layered graph: per-column r-vectors plus the leaf pattern.
    LayeredGraph(layered_graph::LgSynopsis),
    /// MNC sketch.
    Mnc(mnc::MncSynopsis),
}

impl Synopsis {
    /// Shape of the matrix the synopsis describes.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            Synopsis::Meta(s) => (s.nrows, s.ncols),
            Synopsis::Bitset(s) => (s.nrows(), s.ncols()),
            Synopsis::DensityMap(s) => (s.nrows, s.ncols),
            Synopsis::QuadTree(s) => s.shape(),
            Synopsis::Sample(s) => (s.nrows, s.ncols),
            Synopsis::Hash(s) => s.shape(),
            Synopsis::LayeredGraph(s) => s.shape(),
            Synopsis::Mnc(s) => (s.sketch.nrows, s.sketch.ncols),
        }
    }

    /// The sparsity the synopsis implies for its own matrix.
    pub fn sparsity(&self) -> f64 {
        match self {
            Synopsis::Meta(s) => s.sparsity(),
            Synopsis::Bitset(s) => s.sparsity(),
            Synopsis::DensityMap(s) => s.sparsity(),
            Synopsis::QuadTree(s) => s.sparsity(),
            Synopsis::Sample(s) => s.sparsity(),
            Synopsis::Hash(s) => s.sparsity(),
            Synopsis::LayeredGraph(s) => s.sparsity(),
            Synopsis::Mnc(s) => s.sketch.sparsity(),
        }
    }

    /// Heap bytes the synopsis occupies (measured, not analytical).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Synopsis::Meta(_) => std::mem::size_of::<meta::MetaSynopsis>() as u64,
            Synopsis::Bitset(s) => s.size_bytes(),
            Synopsis::DensityMap(s) => s.size_bytes(),
            Synopsis::QuadTree(s) => s.size_bytes(),
            Synopsis::Sample(s) => s.size_bytes(),
            Synopsis::Hash(s) => s.size_bytes(),
            Synopsis::LayeredGraph(s) => s.size_bytes(),
            Synopsis::Mnc(s) => s.sketch.size_bytes() as u64,
        }
    }

    /// Measured heap bytes *retained* by the synopsis, from buffer
    /// capacities — what the allocator actually holds, as opposed to the
    /// logical [`Synopsis::size_bytes`] accounting and the analytic
    /// Figure 9 formulas ([`analysis::synopsis_sizes`]).
    ///
    /// Shared `Arc` payloads (the base matrices retained by the sampling,
    /// hashing, and layered-graph synopses) are attributed **fully to each
    /// holder**: the number answers "how much heap does dropping everything
    /// but this synopsis still pin", not "how much was allocated for it".
    /// Validated against the allocation-tracking global allocator and the
    /// Figure 9 formulas by the `mnc-perf` harness.
    pub fn heap_bytes(&self) -> u64 {
        match self {
            Synopsis::Meta(s) => s.heap_bytes(),
            Synopsis::Bitset(s) => s.heap_bytes(),
            Synopsis::DensityMap(s) => s.heap_bytes(),
            Synopsis::QuadTree(s) => s.heap_bytes(),
            Synopsis::Sample(s) => s.heap_bytes(),
            Synopsis::Hash(s) => s.heap_bytes(),
            Synopsis::LayeredGraph(s) => s.heap_bytes(),
            Synopsis::Mnc(s) => s.sketch.heap_bytes(),
        }
    }

    /// The non-zero count the synopsis implies for its own matrix — exact
    /// where the synopsis stores it (MNC, bitset, quad tree), otherwise
    /// `round(sparsity · m · n)`.
    pub fn nnz(&self) -> u64 {
        match self {
            Synopsis::Mnc(s) => s.sketch.meta.nnz,
            Synopsis::Bitset(s) => s.count_ones(),
            Synopsis::QuadTree(s) => s.nnz(),
            _ => {
                let (m, n) = self.shape();
                (self.sparsity() * m as f64 * n as f64).round() as u64
            }
        }
    }
}

/// The common estimator interface the SparsEst benchmark drives.
///
/// The trait is object-safe: the expression layer and the benchmark runner
/// hold estimators as `Box<dyn SparsityEstimator>`.
pub trait SparsityEstimator {
    /// Short name used in result tables (matches the paper's legends).
    fn name(&self) -> &'static str;

    /// Builds the synopsis of a base (leaf) matrix.
    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis>;

    /// Estimates the output sparsity of `op` applied to the inputs.
    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64>;

    /// Derives the output synopsis of `op`, enabling recursive estimation
    /// over expression chains and DAGs.
    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis>;

    /// Whether the estimator handles matrix product *chains* (the `®` column
    /// of Table 1).
    fn supports_chains(&self) -> bool {
        true
    }

    /// A [`Sync`] view of this estimator for sharing across worker threads,
    /// or `None` (the default) if it must stay on one thread. Split from
    /// the trait's lack of a `Sync` supertrait so single-threaded estimator
    /// implementations never pay for thread safety. Returning `Some`
    /// promises that `build`/`estimate`/`propagate` are pure functions of
    /// their arguments, whatever order calls interleave in: parallel DAG
    /// walks run on exactly the estimators that return `Some`.
    fn as_sync(&self) -> Option<&(dyn SparsityEstimator + Sync)> {
        None
    }

    /// Key distinguishing synopses this estimator builds from those of other
    /// estimators *and other configurations of the same estimator* — used by
    /// `mnc_expr::EstimationContext` to key its synopsis cache. Estimators
    /// with config knobs that change the synopsis (block size, sample
    /// fraction, MNC basic vs. full, ...) must fold them in here.
    fn cache_key(&self) -> String {
        self.name().to_string()
    }
}

impl<E: SparsityEstimator + ?Sized> SparsityEstimator for Box<E> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        (**self).build(m)
    }
    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        (**self).estimate(op, inputs)
    }
    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        (**self).propagate(op, inputs)
    }
    fn supports_chains(&self) -> bool {
        (**self).supports_chains()
    }
    fn as_sync(&self) -> Option<&(dyn SparsityEstimator + Sync)> {
        (**self).as_sync()
    }
    fn cache_key(&self) -> String {
        (**self).cache_key()
    }
}

/// Average-case metadata estimator `E_ac` (Eq. 1): complementary probability
/// of an output cell staying zero under uniformity and independence.
/// Shared by the density map and several tests, hence exposed here.
#[inline]
pub fn eac(sa: f64, sb: f64, n: f64) -> f64 {
    if n <= 0.0 {
        return 0.0;
    }
    let v = (sa * sb).clamp(0.0, 1.0);
    if v >= 1.0 {
        return 1.0;
    }
    1.0 - (n * (-v).ln_1p()).exp()
}

/// Probabilistic disjunction `s ⊕ s' = s + s' - s·s'` (Eq. 4).
#[inline]
pub fn prob_or(s1: f64, s2: f64) -> f64 {
    (s1 + s2 - s1 * s2).clamp(0.0, 1.0)
}

/// Helper used by several estimators: unwrap exactly `n` synopses of one
/// variant or report an internal error.
macro_rules! expect_synopsis {
    ($name:expr, $variant:path, $inputs:expr, $idx:expr) => {
        match $inputs.get($idx) {
            Some($variant(s)) => Ok(s),
            _ => Err($crate::EstimatorError::Internal(format!(
                "{}: input {} is not a {} synopsis",
                $name,
                $idx,
                stringify!($variant)
            ))),
        }
    };
}
pub(crate) use expect_synopsis;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eac_matches_closed_form() {
        let s = eac(0.1, 0.2, 50.0);
        let expect = 1.0 - (1.0f64 - 0.02).powi(50);
        assert!((s - expect).abs() < 1e-12);
    }

    #[test]
    fn eac_saturates() {
        assert_eq!(eac(1.0, 1.0, 10.0), 1.0);
        assert_eq!(eac(0.5, 0.5, 0.0), 0.0);
        assert_eq!(eac(0.0, 1.0, 10.0), 0.0);
    }

    #[test]
    fn prob_or_bounds() {
        assert_eq!(prob_or(0.0, 0.0), 0.0);
        assert_eq!(prob_or(1.0, 0.3), 1.0);
        assert!((prob_or(0.5, 0.5) - 0.75).abs() < 1e-12);
    }

    // (The OpKind/EstimatorError tests moved to mnc_core::op alongside the
    // definitions.)

    #[test]
    fn trait_is_object_safe_and_boxed_estimators_delegate() {
        let boxed: Box<dyn SparsityEstimator> = Box::new(MetaAcEstimator);
        assert_eq!(boxed.name(), "MetaAC");
        assert_eq!(boxed.cache_key(), boxed.name());
        let m = Arc::new(CsrMatrix::identity(4));
        let syn = boxed.build(&m).unwrap();
        assert_eq!(syn.shape(), (4, 4));
        assert_eq!(syn.nnz(), 4);
    }

    #[test]
    fn heap_bytes_pinned_on_small_fixtures() {
        let m = Arc::new(CsrMatrix::identity(8));
        let csr = std::mem::size_of::<CsrMatrix>() as u64;

        // Meta: plain-old-data, zero heap (Table 1's O(1)).
        let meta = MetaAcEstimator.build(&m).unwrap();
        assert_eq!(meta.heap_bytes(), 0);

        // Density map, block 4: 2x2 grid of f64 = 32 B.
        let dm = DensityMapEstimator::with_block(4).build(&m).unwrap();
        assert_eq!(dm.heap_bytes(), 32);

        // Bitset: 8 rows x 1 word = 64 B.
        let bs = BitsetEstimator::default().build(&m).unwrap();
        assert_eq!(bs.heap_bytes(), 64);

        // MNC on the identity: hr + hc only (max counts are 1, so no
        // extended vectors) = 2 · 8 · 4 B = 64 B.
        let mnc = MncEstimator::new().build(&m).unwrap();
        assert_eq!(mnc.heap_bytes(), 64);

        // Quad tree, capacity above nnz: one inline leaf, zero heap.
        let qt = DynamicDensityMapEstimator::default().build(&m).unwrap();
        assert_eq!(qt.heap_bytes(), 0);

        // Sampling retains the base matrix fully (shared Arc semantics).
        let sample = BiasedSamplingEstimator::default().build(&m).unwrap();
        assert_eq!(sample.heap_bytes(), csr + m.heap_bytes());

        // Hashing retains base + transpose.
        let hash = HashEstimator::default().build(&m).unwrap();
        assert_eq!(
            hash.heap_bytes(),
            2 * csr + m.heap_bytes() + m.transpose().heap_bytes()
        );

        // Layered graph: rounds · ncols f32 r-vectors + retained pattern.
        let lge = LayeredGraphEstimator::default();
        let lg = lge.build(&m).unwrap();
        assert_eq!(
            lg.heap_bytes(),
            (lge.rounds * 8 * 4) as u64 + csr + m.heap_bytes()
        );
    }

    #[test]
    fn quad_tree_heap_counts_boxed_regions() {
        // 2x2 identity with leaf capacity 1 splits exactly once: four boxed
        // children under the inline root.
        let m = Arc::new(CsrMatrix::identity(2));
        let est = DynamicDensityMapEstimator {
            leaf_capacity: 1,
            max_grid: 64,
            ..Default::default()
        };
        let syn = est.build(&m).unwrap();
        let Synopsis::QuadTree(qt) = &syn else {
            panic!("expected quad tree");
        };
        assert_eq!(syn.heap_bytes(), 4 * qt.size_bytes() / qt.leaves() as u64);
    }

    #[test]
    fn measured_heap_agrees_with_figure9_for_mnc_and_bitset() {
        use rand::SeedableRng;
        let mut r = rand::rngs::StdRng::seed_from_u64(42);
        let (rows, cols) = (200usize, 120usize);
        let m = Arc::new(mnc_matrix::gen::rand_uniform(&mut r, rows, cols, 0.05));
        let sizes = analysis::synopsis_sizes(rows as f64, cols as f64, m.nnz() as f64, 256.0, 32.0);

        // Bitset: the analytic m·n/8 ignores the row padding to whole 64-bit
        // words, so measured/analytic lies in [1, n/(64·floor(n/64))) —
        // under 7% here, under 15% for any n ≥ 64. Documented tolerance: 15%.
        let bs = BitsetEstimator::default().build(&m).unwrap();
        let rel = bs.heap_bytes() as f64 / sizes.bitset;
        assert!((1.0..1.15).contains(&rel), "bitset measured/analytic {rel}");

        // MNC: the analytic 4·2·(m+n) assumes the extended vectors are
        // materialized; a 5%-dense random matrix builds them, so measured
        // matches the formula exactly (tolerance 1% for slack).
        let mnc = MncEstimator::new().build(&m).unwrap();
        let rel = mnc.heap_bytes() as f64 / sizes.mnc;
        assert!((rel - 1.0).abs() < 0.01, "mnc measured/analytic {rel}");
    }

    #[test]
    fn synopsis_nnz_is_exact_for_counting_synopses() {
        let m = Arc::new(
            CsrMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (2, 0, 2.0), (2, 2, 3.0)]).unwrap(),
        );
        for est in [
            Box::new(MncEstimator::new()) as Box<dyn SparsityEstimator>,
            Box::new(BitsetEstimator::default()),
            Box::new(MetaAcEstimator),
        ] {
            let syn = est.build(&m).unwrap();
            assert_eq!(syn.nnz(), 3, "{}", est.name());
        }
    }
}
