//! Dynamic density map with recursive quad-tree partitioning — the natural
//! extension sketched in Section 2.2 ("Dynamic Block Sizes"): fixed block
//! sizes are problematic for ultra-sparse matrices because a moderate
//! default can render the map larger than the input; adapting local block
//! sizes to the non-zero structure (as in the AT-Matrix) fixes the size
//! but, as the paper warns, "the non-aligned blocks in dmA and dmB would
//! complicate the estimator".
//!
//! This implementation resolves the alignment problem by *resampling*: the
//! quad-tree supports `O(log)` expected-count rectangle queries, and for
//! products both operands are resampled onto a small aligned virtual grid
//! on which the standard Eq. 4 pseudo-product runs. The synopsis size is
//! `O(min(nnz, cells) / leaf_capacity)` — bounded by the input size, unlike
//! the fixed-block map.

use std::sync::{Arc, OnceLock};

use mnc_matrix::CsrMatrix;

use crate::density_map::DmSynopsis;
use crate::{EstimatorError, OpKind, Result, SparsityEstimator, Synopsis};

/// A quad-tree node covering the half-open cell region
/// `[r0, r1) x [c0, c1)`.
#[derive(Debug, Clone)]
enum Node {
    /// Uniform-density leaf.
    Leaf {
        /// Non-zeros inside the region.
        nnz: u64,
    },
    /// Four-way split at the region midpoints.
    Split { children: Box<[QuadRegion; 4]> },
}

#[derive(Debug, Clone)]
struct QuadRegion {
    r0: usize,
    r1: usize,
    c0: usize,
    c1: usize,
    node: Node,
}

impl QuadRegion {
    fn cells(&self) -> f64 {
        (self.r1 - self.r0) as f64 * (self.c1 - self.c0) as f64
    }

    fn nnz(&self) -> u64 {
        match &self.node {
            Node::Leaf { nnz } => *nnz,
            Node::Split { children } => children.iter().map(|c| c.nnz()).sum(),
        }
    }

    fn build(
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
        points: &mut Vec<(u32, u32)>,
        leaf_capacity: usize,
        min_dim: usize,
    ) -> QuadRegion {
        let rows = r1 - r0;
        let cols = c1 - c0;
        if points.len() <= leaf_capacity || (rows <= min_dim && cols <= min_dim) {
            return QuadRegion {
                r0,
                r1,
                c0,
                c1,
                node: Node::Leaf {
                    nnz: points.len() as u64,
                },
            };
        }
        let rm = r0 + (rows / 2).max(1);
        let cm = c0 + (cols / 2).max(1);
        let mut quads: [Vec<(u32, u32)>; 4] = Default::default();
        for &(r, c) in points.iter() {
            let q = usize::from(r as usize >= rm) * 2 + usize::from(c as usize >= cm);
            quads[q].push((r, c));
        }
        points.clear();
        points.shrink_to_fit();
        let bounds = [
            (r0, rm, c0, cm),
            (r0, rm, cm, c1),
            (rm, r1, c0, cm),
            (rm, r1, cm, c1),
        ];
        let children: Vec<QuadRegion> = quads
            .into_iter()
            .zip(bounds)
            .map(|(mut pts, (a, b, c, d))| {
                QuadRegion::build(a, b, c, d, &mut pts, leaf_capacity, min_dim)
            })
            .collect();
        let children: Box<[QuadRegion; 4]> =
            children.try_into().map(Box::new).expect("four quadrants");
        QuadRegion {
            r0,
            r1,
            c0,
            c1,
            node: Node::Split { children },
        }
    }

    /// Expected non-zeros inside `[qr0, qr1) x [qc0, qc1)`, assuming
    /// uniformity within leaves.
    fn expected_in_rect(&self, qr0: usize, qr1: usize, qc0: usize, qc1: usize) -> f64 {
        let or0 = qr0.max(self.r0);
        let or1 = qr1.min(self.r1);
        let oc0 = qc0.max(self.c0);
        let oc1 = qc1.min(self.c1);
        if or0 >= or1 || oc0 >= oc1 {
            return 0.0;
        }
        match &self.node {
            Node::Leaf { nnz } => {
                let overlap = (or1 - or0) as f64 * (oc1 - oc0) as f64;
                *nnz as f64 * overlap / self.cells()
            }
            Node::Split { children } => children
                .iter()
                .map(|ch| ch.expected_in_rect(qr0, qr1, qc0, qc1))
                .sum(),
        }
    }

    fn leaf_count(&self) -> usize {
        match &self.node {
            Node::Leaf { .. } => 1,
            Node::Split { children } => children.iter().map(|c| c.leaf_count()).sum(),
        }
    }

    fn region_count(&self) -> usize {
        match &self.node {
            Node::Leaf { .. } => 1,
            Node::Split { children } => {
                1 + children.iter().map(|c| c.region_count()).sum::<usize>()
            }
        }
    }
}

/// Quad-tree density synopsis.
#[derive(Debug, Clone)]
pub struct QuadTreeSynopsis {
    root: QuadRegion,
    nrows: usize,
    ncols: usize,
    /// Build-time-primed aligned-grid resample, keyed by the `max_grid` it
    /// was computed for. Estimate calls on the product path would otherwise
    /// repeat the full rectangle-query scan per call; the tree is immutable
    /// after build, so the cache never goes stale (and `Clone` keeps it).
    resampled: OnceLock<(usize, DmSynopsis)>,
}

impl QuadTreeSynopsis {
    /// Builds a quad-tree over the non-zero pattern; regions split until
    /// they hold at most `leaf_capacity` non-zeros (or reach 1x1).
    pub fn from_matrix(m: &CsrMatrix, leaf_capacity: usize) -> Self {
        let mut points: Vec<(u32, u32)> = m
            .iter_triples()
            .map(|(i, j, _)| (i as u32, j as u32))
            .collect();
        let root = QuadRegion::build(
            0,
            m.nrows().max(1),
            0,
            m.ncols().max(1),
            &mut points,
            leaf_capacity.max(1),
            1,
        );
        QuadTreeSynopsis {
            root,
            nrows: m.nrows(),
            ncols: m.ncols(),
            resampled: OnceLock::new(),
        }
    }

    /// Shape of the described matrix.
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Exact total non-zeros (counts are preserved on build).
    pub fn nnz(&self) -> u64 {
        self.root.nnz()
    }

    /// Sparsity implied by the synopsis.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            (self.nnz() as f64 / cells).clamp(0.0, 1.0)
        }
    }

    /// Number of leaves (the adaptive resolution).
    pub fn leaves(&self) -> usize {
        self.root.leaf_count()
    }

    /// Measured synopsis size: ~48 B per region node.
    pub fn size_bytes(&self) -> u64 {
        (self.leaves() * std::mem::size_of::<QuadRegion>()) as u64
    }

    /// Measured heap bytes: every region except the inline root lives in a
    /// boxed 4-child array, so the heap holds `region_count - 1` regions.
    /// The primed resample cache is a derived acceleration structure, not
    /// part of the paper's synopsis, and is excluded (as are the density
    /// map's support marginals).
    pub fn heap_bytes(&self) -> u64 {
        ((self.root.region_count() - 1) * std::mem::size_of::<QuadRegion>()) as u64
    }

    /// Expected non-zeros inside a cell rectangle.
    pub fn expected_nnz_in_rect(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        self.root.expected_in_rect(r0, r1, c0, c1)
    }

    /// Resamples the quad-tree onto an aligned uniform grid with at most
    /// `max_grid` blocks per dimension — the alignment step that makes the
    /// Eq. 4 pseudo-product applicable to non-aligned trees. Served from the
    /// build-time cache when it was primed for the same `max_grid` (the
    /// cached map is the same computation, so the answer is bit-identical).
    pub fn resample(&self, max_grid: usize) -> DmSynopsis {
        if let Some((g, dm)) = self.resampled.get() {
            if *g == max_grid {
                return dm.clone();
            }
        }
        self.resample_uncached(max_grid)
    }

    /// Primes the resample cache for `max_grid`. Called by the estimator at
    /// build time so the per-estimate product path skips the rectangle-query
    /// scan; a no-op if the cache is already set.
    pub fn prime_resample(&self, max_grid: usize) {
        self.resampled
            .get_or_init(|| (max_grid, self.resample_uncached(max_grid)));
    }

    fn resample_uncached(&self, max_grid: usize) -> DmSynopsis {
        let block_rows = self.nrows.div_ceil(max_grid).max(1);
        let block_cols = self.ncols.div_ceil(max_grid).max(1);
        let block = block_rows.max(block_cols);
        let mut dm = DmSynopsis::zeros(self.nrows, self.ncols, block);
        let grid_rows = self.nrows.div_ceil(block).max(1);
        let grid_cols = self.ncols.div_ceil(block).max(1);
        for bi in 0..grid_rows {
            let (r0, r1) = (bi * block, ((bi + 1) * block).min(self.nrows));
            for bj in 0..grid_cols {
                let (c0, c1) = (bj * block, ((bj + 1) * block).min(self.ncols));
                let nnz = self.expected_nnz_in_rect(r0, r1, c0, c1);
                let cells = (r1 - r0) as f64 * (c1 - c0) as f64;
                if cells > 0.0 {
                    dm.set_density(bi, bj, (nnz / cells).clamp(0.0, 1.0));
                }
            }
        }
        dm
    }
}

/// The dynamic density map estimator.
#[derive(Debug, Clone, Copy)]
pub struct DynamicDensityMapEstimator {
    /// Maximum non-zeros per quad-tree leaf (default 256).
    pub leaf_capacity: usize,
    /// Resampling resolution for products (default 64 blocks/dimension).
    pub max_grid: usize,
    pub(crate) threads: usize,
}

impl Default for DynamicDensityMapEstimator {
    fn default() -> Self {
        DynamicDensityMapEstimator {
            leaf_capacity: 256,
            max_grid: 64,
            threads: 1,
        }
    }
}

impl DynamicDensityMapEstimator {
    /// Runs the delegated fixed-block pseudo-product over `threads` workers
    /// (bit-identical to single-threaded, see
    /// [`crate::DensityMapEstimator::with_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn unwrap<'a>(&self, inputs: &[&'a Synopsis], idx: usize) -> Result<&'a QuadTreeSynopsis> {
        crate::expect_synopsis!("DynDMap", Synopsis::QuadTree, inputs, idx)
    }
}

impl SparsityEstimator for DynamicDensityMapEstimator {
    fn cache_key(&self) -> String {
        format!(
            "{}:leaf={},grid={}",
            self.name(),
            self.leaf_capacity,
            self.max_grid
        )
    }

    fn name(&self) -> &'static str {
        "DynDMap"
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        let qt = QuadTreeSynopsis::from_matrix(m, self.leaf_capacity);
        // Prime the aligned-grid cache now so the per-estimate product path
        // reuses it instead of re-running the rectangle-query scan.
        qt.prime_resample(self.max_grid);
        Ok(Synopsis::QuadTree(qt))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        match op {
            OpKind::MatMul => {
                // Resample to aligned grids, then run the fixed-block logic.
                let a = self.unwrap(inputs, 0)?.resample(self.max_grid);
                let b = self.unwrap(inputs, 1)?.resample(self.max_grid);
                // Align the block sizes (resample may pick different ones).
                let block = a.block.max(b.block);
                let fixed =
                    crate::DensityMapEstimator::with_block(block).with_threads(self.threads);
                let (ra, rb) = (
                    Synopsis::DensityMap(regrid(&a, block)),
                    Synopsis::DensityMap(regrid(&b, block)),
                );
                fixed.estimate(op, &[&ra, &rb])
            }
            OpKind::Transpose | OpKind::Reshape { .. } | OpKind::Neq0 => {
                Ok(self.unwrap(inputs, 0)?.sparsity())
            }
            OpKind::Eq0 => Ok(1.0 - self.unwrap(inputs, 0)?.sparsity()),
            OpKind::EwAdd | OpKind::EwMul | OpKind::EwMax | OpKind::EwMin => {
                let a = self.unwrap(inputs, 0)?;
                let b = self.unwrap(inputs, 1)?;
                let block = (a.shape().0.div_ceil(self.max_grid))
                    .max(a.shape().1.div_ceil(self.max_grid))
                    .max(1);
                let fixed =
                    crate::DensityMapEstimator::with_block(block).with_threads(self.threads);
                let (ra, rb) = (
                    Synopsis::DensityMap(regrid(&a.resample(self.max_grid), block)),
                    Synopsis::DensityMap(regrid(&b.resample(self.max_grid), block)),
                );
                fixed.estimate(op, &[&ra, &rb])
            }
            OpKind::DiagV2M => {
                let a = self.unwrap(inputs, 0)?;
                let m = a.shape().0 as f64;
                Ok(if m == 0.0 {
                    0.0
                } else {
                    a.nnz() as f64 / (m * m)
                })
            }
            OpKind::DiagM2V => {
                // Sum the expected density of the 1x1 diagonal cells via
                // rectangle queries over the quad-tree.
                let a = self.unwrap(inputs, 0)?;
                let (m, _) = a.shape();
                if m == 0 {
                    return Ok(0.0);
                }
                let expected: f64 = (0..m)
                    .map(|i| a.expected_nnz_in_rect(i, i + 1, i, i + 1))
                    .sum();
                Ok((expected / m as f64).clamp(0.0, 1.0))
            }
            OpKind::Rbind => {
                let a = self.unwrap(inputs, 0)?;
                let b = self.unwrap(inputs, 1)?;
                let cells = (a.shape().0 + b.shape().0) as f64 * a.shape().1 as f64;
                Ok(((a.nnz() + b.nnz()) as f64 / cells).clamp(0.0, 1.0))
            }
            OpKind::Cbind => {
                let a = self.unwrap(inputs, 0)?;
                let b = self.unwrap(inputs, 1)?;
                let cells = a.shape().0 as f64 * (a.shape().1 + b.shape().1) as f64;
                Ok(((a.nnz() + b.nnz()) as f64 / cells).clamp(0.0, 1.0))
            }
        }
    }

    fn propagate(&self, op: &OpKind, _inputs: &[&Synopsis]) -> Result<Synopsis> {
        // Propagating a quad-tree through an operation would require
        // re-adapting the partitioning to an *estimated* structure; this
        // extension estimates single operations only (like the paper's
        // sampling baselines).
        Err(EstimatorError::unsupported(self.name(), op))
    }

    fn supports_chains(&self) -> bool {
        false
    }

    fn as_sync(&self) -> Option<&(dyn SparsityEstimator + Sync)> {
        Some(self)
    }
}

/// Rebuilds a density map at exactly `block` (resample may have chosen a
/// smaller block for the narrower operand).
fn regrid(dm: &DmSynopsis, block: usize) -> DmSynopsis {
    if dm.block == block {
        return dm.clone();
    }
    let mut out = DmSynopsis::zeros(dm.nrows, dm.ncols, block);
    let grid_rows = dm.nrows.div_ceil(block).max(1);
    let grid_cols = dm.ncols.div_ceil(block).max(1);
    for bi in 0..grid_rows {
        let (r0, r1) = (bi * block, ((bi + 1) * block).min(dm.nrows));
        for bj in 0..grid_cols {
            let (c0, c1) = (bj * block, ((bj + 1) * block).min(dm.ncols));
            let nnz = dm.expected_nnz_in_rect(r0, r1, c0, c1);
            let cells = (r1 - r0) as f64 * (c1 - c0) as f64;
            if cells > 0.0 {
                out.set_density(bi, bj, (nnz / cells).clamp(0.0, 1.0));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::{gen, ops};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn syn(m: &CsrMatrix, cap: usize) -> Synopsis {
        Synopsis::QuadTree(QuadTreeSynopsis::from_matrix(m, cap))
    }

    #[test]
    fn build_preserves_nnz_exactly() {
        let mut r = rng(1);
        let m = gen::rand_uniform(&mut r, 100, 80, 0.05);
        let qt = QuadTreeSynopsis::from_matrix(&m, 16);
        assert_eq!(qt.nnz(), m.nnz() as u64);
        assert!((qt.sparsity() - m.sparsity()).abs() < 1e-12);
        assert!(qt.leaves() >= m.nnz() / 16);
    }

    #[test]
    fn rect_queries_sum_to_total() {
        let mut r = rng(2);
        let m = gen::rand_uniform(&mut r, 50, 60, 0.1);
        let qt = QuadTreeSynopsis::from_matrix(&m, 8);
        let whole = qt.expected_nnz_in_rect(0, 50, 0, 60);
        assert!((whole - m.nnz() as f64).abs() < 1e-9);
        // Quadrant split sums to total.
        let q: f64 = [
            (0, 25, 0, 30),
            (0, 25, 30, 60),
            (25, 50, 0, 30),
            (25, 50, 30, 60),
        ]
        .iter()
        .map(|&(a, b, c, d)| qt.expected_nnz_in_rect(a, b, c, d))
        .sum();
        assert!((q - m.nnz() as f64).abs() < 1e-9);
    }

    #[test]
    fn adaptive_size_is_bounded_by_nnz() {
        // Ultra-sparse large matrix: a fixed 256-block map would hold
        // (m/256)·(n/256) doubles; the quad-tree stays near nnz/leaf_cap.
        let mut r = rng(3);
        let m = gen::rand_uniform(&mut r, 20_000, 20_000, 2.5e-6); // 1000 nnz
        let qt = QuadTreeSynopsis::from_matrix(&m, 64);
        // Input size ≈ 12 B per nnz = 12 KB; synopsis must be comparable.
        assert!(
            qt.size_bytes() < 64 * 1024,
            "quad-tree took {} B",
            qt.size_bytes()
        );
    }

    #[test]
    fn product_estimate_close_on_uniform_inputs() {
        let mut r = rng(4);
        let a = gen::rand_uniform(&mut r, 150, 120, 0.03);
        let b = gen::rand_uniform(&mut r, 120, 140, 0.04);
        let e = DynamicDensityMapEstimator::default();
        let est = e
            .estimate(&OpKind::MatMul, &[&syn(&a, 32), &syn(&b, 32)])
            .unwrap();
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        let rel = est.max(truth) / est.min(truth).max(1e-12);
        assert!(rel < 1.5, "relative error {rel} (est {est} truth {truth})");
    }

    #[test]
    fn captures_local_structure_better_than_one_coarse_block() {
        // Column-vector pattern (the §2.2 anomaly): the adaptive tree
        // separates the dense column area from the empty rest.
        let a = CsrMatrix::from_triples(200, 100, (0..50).map(|i| (i, 0usize, 1.0))).unwrap();
        let mut r = rng(5);
        let b = gen::rand_dense(&mut r, 100, 100);
        let dyn_e = DynamicDensityMapEstimator {
            leaf_capacity: 8,
            max_grid: 128,
            ..Default::default()
        };
        let est = dyn_e
            .estimate(&OpKind::MatMul, &[&syn(&a, 8), &syn(&b, 8)])
            .unwrap();
        let truth = 5_000.0 / 20_000.0;
        let rel_dyn = est.max(truth) / est.min(truth).max(1e-12);
        // The fixed map at its *finest* paper block size (b = 50) estimates
        // 3,179/5,000 — a relative error of 1.573. The adaptive tree, whose
        // fine blocks cover only the occupied strip, must not be worse.
        assert!(rel_dyn < 1.573, "dynamic map error {rel_dyn}");
    }

    #[test]
    fn elementwise_and_reorg() {
        let mut r = rng(6);
        let a = gen::rand_uniform(&mut r, 60, 60, 0.2);
        let b = gen::rand_uniform(&mut r, 60, 60, 0.3);
        let e = DynamicDensityMapEstimator::default();
        let add = e
            .estimate(&OpKind::EwAdd, &[&syn(&a, 16), &syn(&b, 16)])
            .unwrap();
        let truth = ops::ew_add(&a, &b).unwrap().sparsity();
        assert!((add - truth).abs() < 0.06, "add {add} truth {truth}");
        let t = e.estimate(&OpKind::Transpose, &[&syn(&a, 16)]).unwrap();
        assert!((t - a.sparsity()).abs() < 1e-12);
    }

    /// The build-primed resample cache and the threaded product path must
    /// not move the estimate by a single bit relative to the uncached,
    /// single-threaded computation.
    #[test]
    fn primed_cache_and_threads_are_bit_identical() {
        let mut r = rng(8);
        let a = gen::rand_uniform(&mut r, 150, 120, 0.03);
        let b = gen::rand_uniform(&mut r, 120, 140, 0.04);
        let e = DynamicDensityMapEstimator::default();
        let (qa, qb) = (
            QuadTreeSynopsis::from_matrix(&a, e.leaf_capacity),
            QuadTreeSynopsis::from_matrix(&b, e.leaf_capacity),
        );
        // Cached resample equals the direct scan bit for bit.
        qa.prime_resample(e.max_grid);
        let cached = qa.resample(e.max_grid);
        let fresh = qa.resample_uncached(e.max_grid);
        assert_eq!(cached.block, fresh.block);
        for (c, f) in cached.densities().iter().zip(fresh.densities()) {
            assert_eq!(c.to_bits(), f.to_bits());
        }
        // Estimates agree across primed/unprimed synopses and thread counts.
        let built_a = e.build(&Arc::new(a)).unwrap(); // primed at build
        let unprimed = Synopsis::QuadTree(qb.clone());
        let reference = e
            .estimate(&OpKind::MatMul, &[&Synopsis::QuadTree(qa), &unprimed])
            .unwrap();
        for threads in [1usize, 2, 8] {
            let et = e.with_threads(threads);
            let got = et
                .estimate(&OpKind::MatMul, &[&built_a, &unprimed])
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "threads={threads}");
        }
    }

    #[test]
    fn chains_unsupported() {
        let mut r = rng(7);
        let a = gen::rand_uniform(&mut r, 10, 10, 0.2);
        let e = DynamicDensityMapEstimator::default();
        assert!(e
            .propagate(&OpKind::MatMul, &[&syn(&a, 8), &syn(&a, 8)])
            .is_err());
        assert!(!e.supports_chains());
    }
}
