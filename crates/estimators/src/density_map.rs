//! The density map estimator `E_dm` (Section 2.2, Eq. 4).
//!
//! A density map partitions a matrix into `b x b` blocks and stores each
//! block's sparsity. The output density map of a product is computed by a
//! pseudo matrix multiplication that replaces multiply with the average-case
//! estimator `E_ac` and plus with probabilistic propagation `⊕`.
//!
//! The block size trades accuracy for overhead: `b = 1` degenerates to the
//! bitset estimator, `b = d` to `E_ac` (Section 2.2). The paper's §2.2
//! example — smaller blocks giving *higher* error on a column-vector
//! pattern — is reproduced in this module's tests with the paper's exact
//! numbers (4,429 / 3,942 / 3,179).

use std::sync::{Arc, OnceLock};

use mnc_kernels::WorkerPool;
use mnc_matrix::CsrMatrix;

use crate::{prob_or, EstimatorError, OpKind, Result, SparsityEstimator, Synopsis};

/// Default block size used by the paper.
pub const DEFAULT_BLOCK: usize = 256;

/// A block density map.
#[derive(Debug)]
pub struct DmSynopsis {
    /// Rows of the described matrix.
    pub nrows: usize,
    /// Columns of the described matrix.
    pub ncols: usize,
    /// Block size `b`.
    pub block: usize,
    grid_rows: usize,
    grid_cols: usize,
    /// Row-major grid of block sparsities.
    dens: Vec<f64>,
    /// Lazily-cached per-block-row lists of non-zero block columns — the
    /// sparse index the zero-skip Eq. 4 pseudo-product walks instead of
    /// rescanning the full grid on every estimate.
    support: OnceLock<Vec<Vec<u32>>>,
}

impl Clone for DmSynopsis {
    fn clone(&self) -> Self {
        // The support cache is intentionally *not* carried over: callers
        // clone maps precisely to mutate the density grid in place
        // (elementwise ops, complement), which would silently invalidate it.
        DmSynopsis {
            nrows: self.nrows,
            ncols: self.ncols,
            block: self.block,
            grid_rows: self.grid_rows,
            grid_cols: self.grid_cols,
            dens: self.dens.clone(),
            support: OnceLock::new(),
        }
    }
}

impl DmSynopsis {
    /// Builds an all-zero map of the given shape.
    pub fn zeros(nrows: usize, ncols: usize, block: usize) -> Self {
        assert!(block > 0, "block size must be positive");
        let grid_rows = nrows.div_ceil(block).max(usize::from(nrows == 0));
        let grid_cols = ncols.div_ceil(block).max(usize::from(ncols == 0));
        DmSynopsis {
            nrows,
            ncols,
            block,
            grid_rows,
            grid_cols,
            dens: vec![0.0; grid_rows * grid_cols],
            support: OnceLock::new(),
        }
    }

    /// Builds the density map of a matrix in one scan over the non-zeros.
    pub fn from_matrix(m: &CsrMatrix, block: usize) -> Self {
        let mut dm = Self::zeros(m.nrows(), m.ncols(), block);
        for (i, j, _) in m.iter_triples() {
            dm.dens[(i / block) * dm.grid_cols + j / block] += 1.0;
        }
        for bi in 0..dm.grid_rows {
            for bj in 0..dm.grid_cols {
                let cells = dm.block_rows(bi) as f64 * dm.block_cols(bj) as f64;
                if cells > 0.0 {
                    dm.dens[bi * dm.grid_cols + bj] /= cells;
                }
            }
        }
        dm
    }

    /// Number of matrix rows covered by block row `bi` (edge blocks shrink).
    fn block_rows(&self, bi: usize) -> usize {
        (self.nrows - bi * self.block).min(self.block)
    }

    /// Number of matrix columns covered by block column `bj`.
    fn block_cols(&self, bj: usize) -> usize {
        (self.ncols - bj * self.block).min(self.block)
    }

    /// Block sparsity at grid position `(bi, bj)`.
    pub fn density(&self, bi: usize, bj: usize) -> f64 {
        self.dens[bi * self.grid_cols + bj]
    }

    /// Estimated total non-zeros (block densities scaled by block cells).
    pub fn nnz(&self) -> f64 {
        let mut total = 0.0;
        for bi in 0..self.grid_rows {
            for bj in 0..self.grid_cols {
                total +=
                    self.density(bi, bj) * self.block_rows(bi) as f64 * self.block_cols(bj) as f64;
            }
        }
        total
    }

    /// Estimated sparsity of the described matrix.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            (self.nnz() / cells).clamp(0.0, 1.0)
        }
    }

    /// Synopsis size in bytes (FP64 per block, as in the paper's internals).
    pub fn size_bytes(&self) -> u64 {
        (self.dens.len() * 8) as u64
    }

    /// Measured heap bytes retained by the density grid (capacity-based).
    /// The lazily-built support marginals are a derived acceleration
    /// structure, not part of the paper's synopsis, and are excluded.
    pub fn heap_bytes(&self) -> u64 {
        (self.dens.capacity() * 8) as u64
    }

    /// Analytical size in bytes for an `m x n` map with block size `b`.
    pub fn analytic_size_bytes(nrows: u64, ncols: u64, block: u64) -> u64 {
        nrows.div_ceil(block) * ncols.div_ceil(block) * 8
    }

    /// The row-major grid of block sparsities. Exposed for external
    /// serialization (the served catalog's shadow sidecars persist density
    /// maps verbatim).
    pub fn densities(&self) -> &[f64] {
        &self.dens
    }

    /// Reconstructs a map from its shape, block size, and density grid (the
    /// inverse of [`DmSynopsis::densities`]). Returns `None` when the grid
    /// length does not match the shape, or `block` is zero.
    pub fn from_densities(
        nrows: usize,
        ncols: usize,
        block: usize,
        dens: Vec<f64>,
    ) -> Option<Self> {
        if block == 0 {
            return None;
        }
        let grid_rows = nrows.div_ceil(block).max(usize::from(nrows == 0));
        let grid_cols = ncols.div_ceil(block).max(usize::from(ncols == 0));
        if dens.len() != grid_rows * grid_cols {
            return None;
        }
        Some(DmSynopsis {
            nrows,
            ncols,
            block,
            grid_rows,
            grid_cols,
            dens,
            support: OnceLock::new(),
        })
    }

    /// Per-block-row lists of the block columns whose density is non-zero,
    /// computed once on first use and cached on the synopsis (`set_density`
    /// invalidates). These marginals let the Eq. 4 pseudo-product and other
    /// consumers skip the `O(grid²)` rescan per estimate call.
    pub fn row_support(&self) -> &[Vec<u32>] {
        self.support.get_or_init(|| {
            (0..self.grid_rows)
                .map(|bi| {
                    self.dens[bi * self.grid_cols..(bi + 1) * self.grid_cols]
                        .iter()
                        .enumerate()
                        .filter(|&(_, &d)| d != 0.0)
                        .map(|(bj, _)| bj as u32)
                        .collect()
                })
                .collect()
        })
    }

    /// Sets the block density at grid position `(bi, bj)` (used by the
    /// dynamic density map's resampling).
    pub fn set_density(&mut self, bi: usize, bj: usize, d: f64) {
        let idx = bi * self.grid_cols + bj;
        self.dens[idx] = d;
        self.support = OnceLock::new();
    }

    /// Expected non-zeros inside the half-open cell rectangle
    /// `[r0, r1) x [c0, c1)`, assuming uniformity *within* each block.
    /// Used to re-bin maps for structural operations (rbind/cbind) and to
    /// re-grid resampled dynamic maps.
    pub fn expected_nnz_in_rect(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> f64 {
        let b = self.block;
        let mut total = 0.0;
        let (bi0, bi1) = (r0 / b, r1.div_ceil(b));
        let (bj0, bj1) = (c0 / b, c1.div_ceil(b));
        for bi in bi0..bi1.min(self.grid_rows) {
            let br0 = bi * b;
            let br1 = br0 + self.block_rows(bi);
            let overlap_r = r1.min(br1).saturating_sub(r0.max(br0));
            if overlap_r == 0 {
                continue;
            }
            for bj in bj0..bj1.min(self.grid_cols) {
                let bc0 = bj * b;
                let bc1 = bc0 + self.block_cols(bj);
                let overlap_c = c1.min(bc1).saturating_sub(c0.max(bc0));
                if overlap_c == 0 {
                    continue;
                }
                total += self.density(bi, bj) * overlap_r as f64 * overlap_c as f64;
            }
        }
        total
    }
}

/// The density map estimator with configurable block size.
#[derive(Debug, Clone, Copy)]
pub struct DensityMapEstimator {
    /// Block size `b` (default 256, as in the paper).
    pub block: usize,
    threads: usize,
}

impl Default for DensityMapEstimator {
    fn default() -> Self {
        DensityMapEstimator {
            block: DEFAULT_BLOCK,
            threads: 1,
        }
    }
}

impl DensityMapEstimator {
    /// Estimator with an explicit block size (Figure 12 sweeps).
    pub fn with_block(block: usize) -> Self {
        DensityMapEstimator { block, threads: 1 }
    }

    /// Runs the pseudo-product over `threads` workers (block rows of the
    /// output are independent and merged in index order, so the answer is
    /// bit-identical to the single-threaded one).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    fn unwrap<'a>(&self, inputs: &[&'a Synopsis], idx: usize) -> Result<&'a DmSynopsis> {
        crate::expect_synopsis!("DMap", Synopsis::DensityMap, inputs, idx)
    }

    fn apply(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<DmSynopsis> {
        let a = self.unwrap(inputs, 0)?;
        let out = match op {
            OpKind::MatMul => {
                let b = self.unwrap(inputs, 1)?;
                if a.ncols != b.nrows {
                    return Err(EstimatorError::dims(
                        op,
                        (a.nrows, a.ncols),
                        (b.nrows, b.ncols),
                        "inner dimension",
                    ));
                }
                // Eq. 4: dmC_ij = ⊕_k E_ac(dmA_ik, dmB_kj) with the actual
                // inner block width as the exponent — folded in complement-
                // product space: `⊕_k (1 - (1-da·db)^{n_k})` is algebraically
                // `1 - Π_k (1 - da·db)^{n_k}`, so the inner loop accumulates
                // the plain complement products (pure multiplies the
                // compiler vectorizes; no `ln`/`exp` per term) and applies
                // the integer block-width exponent once per output cell.
                // All inner blocks share one width except the (at most one)
                // narrower edge block, which gets its own accumulator. Zero
                // blocks of A are skipped through the cached row-support
                // marginals; the inner walk over B's block row is dense —
                // a zero B-block contributes an exact `1.0` factor — so the
                // skipped and visited schedules agree bit for bit, and
                // ascending-`bk` order per output row keeps the threaded
                // run bit-identical to the sequential one.
                let mut c = DmSynopsis::zeros(a.nrows, b.ncols, self.block);
                let a_sup = a.row_support();
                let gc = c.grid_cols;
                let full = a.block;
                let rows = WorkerPool::new(self.threads).run(a.grid_rows, |bi| {
                    let mut q_full = vec![1.0f64; gc];
                    let mut q_edge = vec![1.0f64; gc];
                    let mut edge_n = 0usize;
                    for &bk in &a_sup[bi] {
                        let bk = bk as usize;
                        if bk >= b.grid_rows {
                            continue;
                        }
                        let da = a.density(bi, bk);
                        let n = a.block_cols(bk);
                        let brow = &b.dens[bk * b.grid_cols..(bk + 1) * b.grid_cols];
                        let q = if n == full {
                            &mut q_full
                        } else {
                            edge_n = n;
                            &mut q_edge
                        };
                        for (qj, &db) in q.iter_mut().zip(brow) {
                            *qj *= 1.0 - (da * db).clamp(0.0, 1.0);
                        }
                    }
                    let mut out = vec![0.0f64; gc];
                    for bj in 0..gc {
                        let q = q_full[bj].powi(full as i32) * q_edge[bj].powi(edge_n as i32);
                        out[bj] = (1.0 - q).clamp(0.0, 1.0);
                    }
                    out
                });
                for (bi, row) in rows.into_iter().enumerate() {
                    c.dens[bi * gc..(bi + 1) * gc].copy_from_slice(&row);
                }
                c
            }
            OpKind::EwAdd | OpKind::EwMax => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = a.clone();
                for (d, &s) in c.dens.iter_mut().zip(&b.dens) {
                    *d = prob_or(*d, s);
                }
                c
            }
            OpKind::EwMul | OpKind::EwMin => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = a.clone();
                for (d, &s) in c.dens.iter_mut().zip(&b.dens) {
                    *d *= s;
                }
                c
            }
            OpKind::Transpose => {
                let mut c = DmSynopsis::zeros(a.ncols, a.nrows, self.block);
                for bi in 0..a.grid_rows {
                    for bj in 0..a.grid_cols {
                        c.dens[bj * c.grid_cols + bi] = a.density(bi, bj);
                    }
                }
                c
            }
            OpKind::Reshape { rows, cols } => {
                // Row-wise reshape scatters blocks irregularly; the map keeps
                // only the global sparsity (best effort, sparsity-preserving).
                let mut c = DmSynopsis::zeros(*rows, *cols, self.block);
                let s = a.sparsity();
                for d in &mut c.dens {
                    *d = s;
                }
                c
            }
            OpKind::DiagV2M => {
                if a.ncols != 1 {
                    return Err(EstimatorError::shape(
                        op,
                        (a.nrows, a.ncols),
                        "column vector required",
                    ));
                }
                let m = a.nrows;
                let mut c = DmSynopsis::zeros(m, m, self.block);
                for bi in 0..c.grid_rows {
                    let rows = c.block_rows(bi) as f64;
                    let nnz = a.expected_nnz_in_rect(
                        bi * self.block,
                        bi * self.block + rows as usize,
                        0,
                        1,
                    );
                    let cells = rows * c.block_cols(bi) as f64;
                    c.dens[bi * c.grid_cols + bi] = if cells > 0.0 { nnz / cells } else { 0.0 };
                }
                c
            }
            OpKind::DiagM2V => {
                if a.nrows != a.ncols {
                    return Err(EstimatorError::shape(
                        op,
                        (a.nrows, a.ncols),
                        "square matrix required",
                    ));
                }
                // Each diagonal block (bi, bi) contributes its density times
                // its diagonal length.
                let mut c = DmSynopsis::zeros(a.nrows, 1, self.block);
                for bi in 0..c.grid_rows {
                    let rows = c.block_rows(bi) as f64;
                    let expected = a.density(bi, bi) * rows;
                    c.dens[bi] = if rows > 0.0 {
                        (expected / rows).min(1.0)
                    } else {
                        0.0
                    };
                }
                c
            }
            OpKind::Rbind => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = DmSynopsis::zeros(a.nrows + b.nrows, a.ncols, self.block);
                for bi in 0..c.grid_rows {
                    let (r0, r1) = (bi * self.block, bi * self.block + c.block_rows(bi));
                    for bj in 0..c.grid_cols {
                        let (c0, c1) = (bj * self.block, bj * self.block + c.block_cols(bj));
                        // Split the output rectangle at the A/B row boundary.
                        let mut nnz = 0.0;
                        if r0 < a.nrows {
                            nnz += a.expected_nnz_in_rect(r0, r1.min(a.nrows), c0, c1);
                        }
                        if r1 > a.nrows {
                            nnz += b.expected_nnz_in_rect(
                                r0.max(a.nrows) - a.nrows,
                                r1 - a.nrows,
                                c0,
                                c1,
                            );
                        }
                        let cells = (r1 - r0) as f64 * (c1 - c0) as f64;
                        c.dens[bi * c.grid_cols + bj] = if cells > 0.0 { nnz / cells } else { 0.0 };
                    }
                }
                c
            }
            OpKind::Cbind => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = DmSynopsis::zeros(a.nrows, a.ncols + b.ncols, self.block);
                for bi in 0..c.grid_rows {
                    let (r0, r1) = (bi * self.block, bi * self.block + c.block_rows(bi));
                    for bj in 0..c.grid_cols {
                        let (c0, c1) = (bj * self.block, bj * self.block + c.block_cols(bj));
                        let mut nnz = 0.0;
                        if c0 < a.ncols {
                            nnz += a.expected_nnz_in_rect(r0, r1, c0, c1.min(a.ncols));
                        }
                        if c1 > a.ncols {
                            nnz += b.expected_nnz_in_rect(
                                r0,
                                r1,
                                c0.max(a.ncols) - a.ncols,
                                c1 - a.ncols,
                            );
                        }
                        let cells = (r1 - r0) as f64 * (c1 - c0) as f64;
                        c.dens[bi * c.grid_cols + bj] = if cells > 0.0 { nnz / cells } else { 0.0 };
                    }
                }
                c
            }
            OpKind::Neq0 => a.clone(),
            OpKind::Eq0 => {
                let mut c = a.clone();
                for d in &mut c.dens {
                    *d = 1.0 - *d;
                }
                c
            }
        };
        Ok(out)
    }
}

impl SparsityEstimator for DensityMapEstimator {
    fn cache_key(&self) -> String {
        format!("{}:block={}", self.name(), self.block)
    }

    fn name(&self) -> &'static str {
        "DMap"
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        Ok(Synopsis::DensityMap(DmSynopsis::from_matrix(m, self.block)))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        Ok(self.apply(op, inputs)?.sparsity())
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        Ok(Synopsis::DensityMap(self.apply(op, inputs)?))
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

    fn syn(m: &CsrMatrix, block: usize) -> Synopsis {
        Synopsis::DensityMap(DmSynopsis::from_matrix(m, block))
    }

    /// The paper's §2.2 example: a 200x100 matrix A with 50 non-zeros in a
    /// single column (rows 0..50) times a dense 100x100 matrix B. True nnz
    /// is 5,000; the density map estimates 4,429 / 3,942 / 3,179 for block
    /// sizes 200 / 100 / 50.
    #[test]
    fn paper_block_size_anomaly_numbers() {
        let a = CsrMatrix::from_triples(200, 100, (0..50).map(|i| (i, 0usize, 1.0))).unwrap();
        let mut r = rng(1);
        let b = gen::rand_dense(&mut r, 100, 100);
        for (block, expect) in [(200, 4429.0), (100, 3942.0), (50, 3179.0)] {
            let e = DensityMapEstimator::with_block(block);
            let s = e
                .estimate(&OpKind::MatMul, &[&syn(&a, block), &syn(&b, block)])
                .unwrap();
            let nnz = s * 200.0 * 100.0;
            assert!(
                (nnz - expect).abs() < 1.0,
                "block {block}: estimated {nnz}, paper says {expect}"
            );
        }
    }

    #[test]
    fn block_1_equals_exact_bitset_result() {
        // E_dm with b = 1 degenerates to the exact boolean product.
        let mut r = rng(2);
        let a = gen::rand_uniform(&mut r, 20, 15, 0.15);
        let b = gen::rand_uniform(&mut r, 15, 18, 0.2);
        let e = DensityMapEstimator::with_block(1);
        let est = e
            .estimate(&OpKind::MatMul, &[&syn(&a, 1), &syn(&b, 1)])
            .unwrap();
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        assert!((est - truth).abs() < 1e-9, "est {est} truth {truth}");
    }

    #[test]
    fn huge_block_equals_meta_ac() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 64, 48, 0.05);
        let b = gen::rand_uniform(&mut r, 48, 32, 0.1);
        let block = 64; // covers each matrix with a single block
        let e = DensityMapEstimator::with_block(block);
        let est = e
            .estimate(&OpKind::MatMul, &[&syn(&a, block), &syn(&b, block)])
            .unwrap();
        let expect = crate::eac(a.sparsity(), b.sparsity(), 48.0);
        assert!((est - expect).abs() < 1e-12);
    }

    #[test]
    fn build_preserves_sparsity() {
        let mut r = rng(4);
        let m = gen::rand_uniform(&mut r, 100, 70, 0.07);
        let dm = DmSynopsis::from_matrix(&m, 16);
        assert!((dm.sparsity() - m.sparsity()).abs() < 1e-12);
        assert!((dm.nnz() - m.nnz() as f64).abs() < 1e-9);
    }

    #[test]
    fn elementwise_and_complement() {
        let mut r = rng(5);
        let a = gen::rand_uniform(&mut r, 40, 40, 0.2);
        let b = gen::rand_uniform(&mut r, 40, 40, 0.3);
        let e = DensityMapEstimator::with_block(8);
        let add = e
            .estimate(&OpKind::EwAdd, &[&syn(&a, 8), &syn(&b, 8)])
            .unwrap();
        let truth = ops::ew_add(&a, &b).unwrap().sparsity();
        assert!((add - truth).abs() < 0.05);
        let z = e.estimate(&OpKind::Eq0, &[&syn(&a, 8)]).unwrap();
        assert!((z - (1.0 - a.sparsity())).abs() < 1e-12);
    }

    #[test]
    fn transpose_and_reshape_preserve_sparsity() {
        let mut r = rng(6);
        let a = gen::rand_uniform(&mut r, 30, 50, 0.12);
        let e = DensityMapEstimator::with_block(16);
        let t = e.propagate(&OpKind::Transpose, &[&syn(&a, 16)]).unwrap();
        assert_eq!(t.shape(), (50, 30));
        assert!((t.sparsity() - a.sparsity()).abs() < 1e-12);
        let rs = e
            .propagate(&OpKind::Reshape { rows: 50, cols: 30 }, &[&syn(&a, 16)])
            .unwrap();
        assert!((rs.sparsity() - a.sparsity()).abs() < 1e-9);
    }

    #[test]
    fn rbind_preserves_total_nnz() {
        let mut r = rng(7);
        let a = gen::rand_uniform(&mut r, 19, 30, 0.2); // 19 not a block multiple
        let b = gen::rand_uniform(&mut r, 23, 30, 0.1);
        let e = DensityMapEstimator::with_block(8);
        let rb = e
            .propagate(&OpKind::Rbind, &[&syn(&a, 8), &syn(&b, 8)])
            .unwrap();
        let truth = ops::rbind(&a, &b).unwrap();
        assert!((rb.sparsity() - truth.sparsity()).abs() < 1e-9);
        let cb = e
            .propagate(
                &OpKind::Cbind,
                &[
                    &syn(&a, 8),
                    &syn(&gen::rand_uniform(&mut r, 19, 11, 0.3), 8),
                ],
            )
            .unwrap();
        assert_eq!(cb.shape(), (19, 41));
    }

    /// The zero-skip sparse walk (and its threaded variant) must reproduce
    /// the dense complement-product triple loop bit for bit: skipped
    /// A-blocks are exact `1.0` factors, and surviving terms keep their
    /// ascending-`bk` fold order per output cell.
    #[test]
    fn zero_skip_matmul_bit_identical_to_dense_reference() {
        let mut r = rng(9);
        for sparsity in [0.0, 0.02, 0.3] {
            let a = gen::rand_uniform(&mut r, 61, 47, sparsity);
            let b = gen::rand_uniform(&mut r, 47, 53, sparsity * 1.5);
            let block = 4;
            let (da, db) = (
                DmSynopsis::from_matrix(&a, block),
                DmSynopsis::from_matrix(&b, block),
            );
            // Dense reference: the unskipped triple loop in the same
            // complement-product realization of Eq. 4 the estimator uses.
            let mut reference = DmSynopsis::zeros(da.nrows, db.ncols, block);
            for bi in 0..da.grid_rows {
                for bj in 0..db.grid_cols {
                    let (mut q_full, mut q_edge, mut edge_n) = (1.0f64, 1.0f64, 0usize);
                    for bk in 0..da.grid_cols {
                        let n = da.block_cols(bk);
                        let v = (da.density(bi, bk) * db.density(bk, bj)).clamp(0.0, 1.0);
                        if n == block {
                            q_full *= 1.0 - v;
                        } else {
                            edge_n = n;
                            q_edge *= 1.0 - v;
                        }
                    }
                    let q = q_full.powi(block as i32) * q_edge.powi(edge_n as i32);
                    reference.dens[bi * reference.grid_cols + bj] = (1.0 - q).clamp(0.0, 1.0);
                }
            }
            let (sa, sb) = (Synopsis::DensityMap(da), Synopsis::DensityMap(db));
            for threads in [1usize, 2, 8] {
                let e = DensityMapEstimator::with_block(block).with_threads(threads);
                let got = e.propagate(&OpKind::MatMul, &[&sa, &sb]).unwrap();
                let Synopsis::DensityMap(got) = got else {
                    panic!("expected a density map");
                };
                for (g, r) in got.dens.iter().zip(&reference.dens) {
                    assert_eq!(
                        g.to_bits(),
                        r.to_bits(),
                        "sparsity={sparsity} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn support_marginals_track_the_grid() {
        let mut m = DmSynopsis::zeros(10, 10, 4);
        assert!(m.row_support().iter().all(|r| r.is_empty()));
        m.set_density(1, 2, 0.5);
        assert_eq!(m.row_support()[1], vec![2]);
        m.set_density(1, 2, 0.0); // invalidated and recomputed
        assert!(m.row_support()[1].is_empty());
        m.set_density(2, 0, 0.25);
        assert_eq!(m.clone().row_support()[2], vec![0]);
    }

    #[test]
    fn fails_to_capture_column_skew_with_coarse_blocks() {
        // B2.2-style: 54 columns where a 256-block cannot separate dense
        // from ultra-sparse columns — the motivation for MNC (Fig. 11(c)).
        let _ = rng(8);
        // 10 dense columns, 44 nearly-empty columns.
        let mut triples = Vec::new();
        for i in 0..200usize {
            for j in 0..10usize {
                triples.push((i, j, 1.0));
            }
        }
        triples.push((0, 53, 1.0));
        let x = CsrMatrix::from_triples(200, 54, triples).unwrap();
        let p = gen::col_projection(54, 44, 10); // select sparse columns
        let e = DensityMapEstimator::with_block(256);
        let est = e
            .estimate(&OpKind::MatMul, &[&syn(&x, 256), &syn(&p, 256)])
            .unwrap();
        let truth = ops::bool_matmul(&x, &p).unwrap().sparsity();
        // One block covers everything: the estimate is far from the truth.
        let rel = est.max(truth) / est.min(truth).max(1e-12);
        assert!(rel > 5.0, "expected a large error, got {rel}");
    }
}
