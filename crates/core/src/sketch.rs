//! The MNC sketch data structure and its construction (Section 3.1).
//!
//! One two-scan construction over row blocks serves the sequential
//! ([`MncSketch::build`]), parallel ([`MncSketch::build_parallel`]) and
//! distributed ([`crate::distributed::build_distributed`]) builds, so all
//! three produce the same sketch by construction.

use std::ops::Range;

use mnc_kernels::{row_chunks, VecMeta, WorkerPool};
use mnc_matrix::CsrMatrix;

/// Summary statistics kept alongside the count vectors (Section 3.1,
/// "Summary Statistics").
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SketchMeta {
    /// Total non-zeros, `Σ h^r` (equal to `Σ h^c` for sketches built from a
    /// matrix; propagated sketches keep both sums within rounding noise).
    pub nnz: u64,
    /// `max(h^r)`.
    pub max_hr: u32,
    /// `max(h^c)`.
    pub max_hc: u32,
    /// Number of non-empty rows, `nnz(h^r)`.
    pub nonempty_rows: usize,
    /// Number of non-empty columns, `nnz(h^c)`.
    pub nonempty_cols: usize,
    /// Number of half-full rows, `|h^r > n/2|` (more than half the columns
    /// occupied) — feeds the Theorem 3.2 lower bound.
    pub half_full_rows: usize,
    /// Number of half-full columns, `|h^c > m/2|`.
    pub half_full_cols: usize,
    /// `|h^r = 1|` — rows with exactly one non-zero (Eq. 9 / Alg. 1 line 6).
    pub rows_eq_1: usize,
    /// `|h^c = 1|` — columns with exactly one non-zero.
    pub cols_eq_1: usize,
    /// Square with a fully dense diagonal and nothing else (Eq. 12 flag).
    pub fully_diagonal: bool,
}

/// The MNC (Matrix Non-zero Count) sketch of an `m x n` matrix:
/// row/column non-zero count vectors, optional extended count vectors, and
/// summary metadata. Size `O(m + n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MncSketch {
    /// Number of rows of the sketched matrix.
    pub nrows: usize,
    /// Number of columns of the sketched matrix.
    pub ncols: usize,
    /// `h^r` — non-zeros per row, length `nrows`.
    pub hr: Vec<u32>,
    /// `h^c` — non-zeros per column, length `ncols`.
    pub hc: Vec<u32>,
    /// `h^er` — per row, the count of non-zeros lying in columns with a
    /// single non-zero (`rowSums((A≠0) · (h^c = 1))`). Built only when some
    /// row *and* some column has more than one non-zero.
    pub her: Option<Vec<u32>>,
    /// `h^ec` — per column, the count of non-zeros lying in rows with a
    /// single non-zero (`colSums((A≠0) · (h^r = 1))`).
    pub hec: Option<Vec<u32>>,
    /// Summary statistics.
    pub meta: SketchMeta,
}

impl MncSketch {
    /// Builds the sketch with extended count vectors when applicable
    /// (the paper's default construction).
    ///
    /// ```
    /// use mnc_core::MncSketch;
    /// use mnc_matrix::CsrMatrix;
    ///
    /// let m = CsrMatrix::from_triples(2, 3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)])
    ///     .unwrap();
    /// let h = MncSketch::build(&m);
    /// assert_eq!(h.hr, vec![1, 2]);
    /// assert_eq!(h.hc, vec![1, 1, 1]);
    /// assert_eq!(h.meta.nnz, 3);
    /// ```
    pub fn build(m: &CsrMatrix) -> Self {
        Self::build_with(m, true)
    }

    /// Builds the sketch; `use_extended = false` reproduces *MNC Basic*.
    ///
    /// One scan over the non-zeros for `h^r`/`h^c` (CSR provides `h^r` from
    /// the row pointer), one pass over the vectors for the metadata, and —
    /// if needed — a second scan over the non-zeros for `h^er`/`h^ec`.
    pub fn build_with(m: &CsrMatrix, use_extended: bool) -> Self {
        let (nrows, ncols) = m.shape();
        let whole = RowBlock {
            m,
            rows: 0..nrows,
            offset: 0,
        };
        build_blocks(&[whole], nrows, ncols, use_extended, &WorkerPool::default())
    }

    /// [`MncSketch::build`] over `threads` pool workers scanning disjoint
    /// row chunks. Count merging is additive over integers, so the result is
    /// **bit-identical** to the sequential build.
    pub fn build_parallel(m: &CsrMatrix, threads: usize) -> Self {
        Self::build_parallel_with(m, true, threads)
    }

    /// Parallel build with the extended vectors optional (MNC Basic).
    pub fn build_parallel_with(m: &CsrMatrix, use_extended: bool, threads: usize) -> Self {
        let (nrows, ncols) = m.shape();
        let threads = threads.clamp(1, nrows.max(1));
        if threads == 1 {
            return Self::build_with(m, use_extended);
        }
        let blocks: Vec<RowBlock<'_>> = row_chunks(nrows, threads)
            .into_iter()
            .map(|(lo, hi)| RowBlock {
                m,
                rows: lo..hi,
                offset: 0,
            })
            .collect();
        build_blocks(
            &blocks,
            nrows,
            ncols,
            use_extended,
            &WorkerPool::new(threads),
        )
    }

    /// Assembles a sketch from (propagated) count vectors, recomputing the
    /// metadata. Used by the propagation rules of Sections 3.3 / 4.2.
    pub fn from_vectors(
        nrows: usize,
        ncols: usize,
        hr: Vec<u32>,
        hc: Vec<u32>,
        her: Option<Vec<u32>>,
        hec: Option<Vec<u32>>,
        fully_diagonal: bool,
    ) -> Self {
        debug_assert_eq!(hr.len(), nrows);
        debug_assert_eq!(hc.len(), ncols);
        let meta = compute_meta(&hr, &hc, nrows, ncols, fully_diagonal);
        MncSketch {
            nrows,
            ncols,
            hr,
            hc,
            her,
            hec,
            meta,
        }
    }

    /// Assembles a sketch from count vectors whose per-vector statistics were
    /// already produced by a fused kernel pass ([`mnc_kernels::VecMeta`]),
    /// skipping the metadata rescan of [`MncSketch::from_vectors`].
    ///
    /// The caller must have computed `row_meta`/`col_meta` with the matching
    /// half-full thresholds (`ncols / 2` for rows, `nrows / 2` for columns).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_vectors_with_meta(
        nrows: usize,
        ncols: usize,
        hr: Vec<u32>,
        hc: Vec<u32>,
        her: Option<Vec<u32>>,
        hec: Option<Vec<u32>>,
        fully_diagonal: bool,
        row_meta: VecMeta,
        col_meta: VecMeta,
    ) -> Self {
        debug_assert_eq!(hr.len(), nrows);
        debug_assert_eq!(hc.len(), ncols);
        let meta = meta_from_scans(row_meta, col_meta, fully_diagonal);
        debug_assert_eq!(
            meta,
            compute_meta(&hr, &hc, nrows, ncols, fully_diagonal),
            "fused VecMeta must agree with a fresh metadata scan"
        );
        MncSketch {
            nrows,
            ncols,
            hr,
            hc,
            her,
            hec,
            meta,
        }
    }

    /// Sketch of an all-zero matrix.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Self::from_vectors(
            nrows,
            ncols,
            vec![0; nrows],
            vec![0; ncols],
            None,
            None,
            false,
        )
    }

    /// Sparsity implied by the sketch, `nnz / (m·n)`.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.meta.nnz as f64 / cells
        }
    }

    /// `h^er` with the degenerate case materialized: when every column has
    /// at most one non-zero, *every* stored entry lies in a single-non-zero
    /// column, so `h^er = h^r`.
    pub fn effective_her(&self) -> Option<Vec<u32>> {
        self.effective_her_slice().map(<[u32]>::to_vec)
    }

    /// `h^ec` with the degenerate case materialized (`max(h^r) ≤ 1` ⇒
    /// `h^ec = h^c`).
    pub fn effective_hec(&self) -> Option<Vec<u32>> {
        self.effective_hec_slice().map(<[u32]>::to_vec)
    }

    /// Borrowing variant of [`MncSketch::effective_her`] — the hot paths use
    /// this to avoid cloning a count vector per propagation step.
    pub fn effective_her_slice(&self) -> Option<&[u32]> {
        if self.meta.max_hc <= 1 {
            Some(&self.hr)
        } else {
            self.her.as_deref()
        }
    }

    /// Borrowing variant of [`MncSketch::effective_hec`].
    pub fn effective_hec_slice(&self) -> Option<&[u32]> {
        if self.meta.max_hr <= 1 {
            Some(&self.hc)
        } else {
            self.hec.as_deref()
        }
    }

    /// Consumes the sketch, returning its count-vector buffers to `arena` so
    /// the next propagation step can lease them back. Chain drivers call this
    /// on each retired intermediate: once the pool holds one generation of
    /// buffers, the whole chain runs allocation-free.
    pub fn recycle_into(self, arena: &mut mnc_kernels::ScratchArena) {
        arena.put_u32(self.hr);
        arena.put_u32(self.hc);
        arena.put_u32_opt(self.her);
        arena.put_u32_opt(self.hec);
    }

    /// Synopsis size in bytes: 4 B per count entry (`u32`), doubled when the
    /// extended vectors are materialized, plus the fixed metadata block.
    pub fn size_bytes(&self) -> usize {
        let base = 4 * (self.nrows + self.ncols);
        let ext = if self.her.is_some() {
            4 * self.nrows
        } else {
            0
        } + if self.hec.is_some() {
            4 * self.ncols
        } else {
            0
        };
        base + ext + std::mem::size_of::<SketchMeta>()
    }

    /// Measured heap bytes retained by the count vectors (capacities, not
    /// lengths). The metadata block lives inline and is excluded.
    pub fn heap_bytes(&self) -> u64 {
        let vec_bytes = |v: &Option<Vec<u32>>| v.as_ref().map_or(0, |v| v.capacity() * 4);
        (self.hr.capacity() * 4
            + self.hc.capacity() * 4
            + vec_bytes(&self.her)
            + vec_bytes(&self.hec)) as u64
    }
}

/// A contiguous block of CSR rows: rows `rows` of `m`, where row `i` of `m`
/// is row `offset + i` of the sketched matrix. A whole matrix, a row chunk
/// of one matrix (both at offset 0) and a partition of a row-partitioned
/// matrix (all its rows, at the partition's offset) are all blocks.
pub(crate) struct RowBlock<'a> {
    pub(crate) m: &'a CsrMatrix,
    pub(crate) rows: Range<usize>,
    pub(crate) offset: usize,
}

/// One block's share of a pair of count vectors: its slice of the
/// row-indexed vector and a full-width contribution to the column-indexed
/// one.
struct Partial {
    rows: Vec<u32>,
    cols: Vec<u32>,
    /// Phase 1: the block is consistent with a fully diagonal matrix.
    /// Phase 2 leaves it `true`, the identity of the merge.
    diagonal: bool,
}

impl RowBlock<'_> {
    /// The column indices of each row of the block, in row order. The row
    /// pointer and column slices are taken once, before the scans: read
    /// through `m` per row, the compiler reloads them after every count
    /// store, which slows the build of sparse matrices.
    fn row_cols(&self) -> impl Iterator<Item = &[u32]> {
        let ptr = &self.m.row_ptr()[self.rows.start..=self.rows.end];
        let col_idx = self.m.col_indices();
        ptr.windows(2).map(move |w| &col_idx[w[0]..w[1]])
    }

    /// Phase 1: the block's `h^r` slice, its `h^c` contribution and its
    /// diagonal fragment.
    fn counts(&self, ncols: usize, square: bool) -> Partial {
        let mut hr = vec![0u32; self.rows.len()];
        let mut hc = vec![0u32; ncols];
        for (rc, cols) in hr.iter_mut().zip(self.row_cols()) {
            *rc = cols.len() as u32;
            for &c in cols {
                hc[c as usize] += 1;
            }
        }
        // Like `CsrMatrix::is_fully_diagonal`, reject on the non-zero count
        // before looking at any row.
        let ptr = self.m.row_ptr();
        let diagonal = square
            && ptr[self.rows.end] - ptr[self.rows.start] == self.rows.len()
            && (self.offset + self.rows.start..)
                .zip(self.row_cols())
                .all(|(i, cols)| cols.len() == 1 && cols[0] as usize == i);
        Partial {
            rows: hr,
            cols: hc,
            diagonal,
        }
    }

    /// Phase 2: the block's `h^er` slice and its `h^ec` contribution, against
    /// the merged global `h^c`.
    fn extended(&self, hc: &[u32]) -> Partial {
        let mut her = vec![0u32; self.rows.len()];
        let mut hec = vec![0u32; hc.len()];
        for (er, cols) in her.iter_mut().zip(self.row_cols()) {
            let single_row = cols.len() == 1;
            for &c in cols {
                if hc[c as usize] == 1 {
                    *er += 1;
                }
                if single_row {
                    hec[c as usize] += 1;
                }
            }
        }
        Partial {
            rows: her,
            cols: hec,
            diagonal: true,
        }
    }
}

/// Runs one phase over every block — on `pool` workers when there are
/// several — and merges the partials in block order: row slices
/// concatenate, column contributions add, diagonal fragments AND. A single
/// block runs inline and its vectors are moved, not merged.
fn run_phase(
    blocks: &[RowBlock<'_>],
    pool: &WorkerPool,
    nrows: usize,
    ncols: usize,
    phase: impl Fn(&RowBlock<'_>) -> Partial + Sync,
) -> Partial {
    if let [block] = blocks {
        return phase(block);
    }
    let mut acc = Partial {
        rows: Vec::with_capacity(nrows),
        cols: vec![0; ncols],
        diagonal: nrows == ncols,
    };
    for p in pool.run(blocks.len(), |k| phase(&blocks[k])) {
        acc.rows.extend_from_slice(&p.rows);
        for (a, &v) in acc.cols.iter_mut().zip(&p.cols) {
            *a += v;
        }
        acc.diagonal &= p.diagonal;
    }
    acc
}

/// The two-scan construction of Section 3.1 over the row blocks of an
/// `nrows x ncols` matrix, shared by the sequential, parallel and
/// distributed builds: phase 1 counts `h^r`/`h^c`; phase 2 — only when
/// neither Theorem 3.1 case holds, where the extended vectors pay off —
/// counts `h^er`/`h^ec` against the merged `h^c`.
pub(crate) fn build_blocks(
    blocks: &[RowBlock<'_>],
    nrows: usize,
    ncols: usize,
    use_extended: bool,
    pool: &WorkerPool,
) -> MncSketch {
    let counts = run_phase(blocks, pool, nrows, ncols, |b| {
        b.counts(ncols, nrows == ncols)
    });
    let (hr, hc) = (counts.rows, counts.cols);
    let meta = compute_meta(&hr, &hc, nrows, ncols, counts.diagonal);
    let (her, hec) = if use_extended && meta.max_hr > 1 && meta.max_hc > 1 {
        let ext = run_phase(blocks, pool, nrows, ncols, |b| b.extended(&hc));
        (Some(ext.rows), Some(ext.cols))
    } else {
        (None, None)
    };
    MncSketch {
        nrows,
        ncols,
        hr,
        hc,
        her,
        hec,
        meta,
    }
}

/// Half-full thresholds: rows are half-full w.r.t. the number of columns and
/// vice versa (Theorem 3.2 compares against the common dimension).
pub(crate) fn row_half_threshold(ncols: usize) -> u32 {
    ncols as u32 / 2
}

pub(crate) fn col_half_threshold(nrows: usize) -> u32 {
    nrows as u32 / 2
}

/// Folds two fused-kernel vector scans into the sketch metadata. The row sum
/// is authoritative for `nnz`: matrix-built sketches have equal sums, while
/// propagated sketches may disagree by rounding noise (documented in
/// `SketchMeta::nnz`).
pub(crate) fn meta_from_scans(
    row_meta: VecMeta,
    col_meta: VecMeta,
    fully_diagonal: bool,
) -> SketchMeta {
    SketchMeta {
        nnz: row_meta.sum,
        max_hr: row_meta.max,
        max_hc: col_meta.max,
        nonempty_rows: row_meta.nonempty,
        nonempty_cols: col_meta.nonempty,
        half_full_rows: row_meta.over_half,
        half_full_cols: col_meta.over_half,
        rows_eq_1: row_meta.eq1,
        cols_eq_1: col_meta.eq1,
        fully_diagonal,
    }
}

fn compute_meta(
    hr: &[u32],
    hc: &[u32],
    nrows: usize,
    ncols: usize,
    fully_diagonal: bool,
) -> SketchMeta {
    let row_meta = mnc_kernels::meta_scan(hr, row_half_threshold(ncols));
    let col_meta = mnc_kernels::meta_scan(hc, col_half_threshold(nrows));
    meta_from_scans(row_meta, col_meta, fully_diagonal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    /// The running-example-style matrix used across the crate's tests:
    ///
    /// ```text
    /// [ . 1 . . ]      h^r = [1, 2, 0, 1, 3]
    /// [ 1 . 1 . ]      h^c = [2, 2, 2, 1]
    /// [ . . . . ]      h^er = [0, 0, 0, 0, 1]  (column 3 is single-nnz)
    /// [ . 1 . . ]      h^ec = [0, 1, 0, 0]     (row 0 and row 3 are single;
    /// [ 1 . 1 1 ]                               both hit column 1 ... row 0
    ///                                           col 1, row 3 col 1 -> hec[1]=2)
    /// ```
    fn sample() -> CsrMatrix {
        CsrMatrix::from_triples(
            5,
            4,
            vec![
                (0, 1, 1.0),
                (1, 0, 1.0),
                (1, 2, 1.0),
                (3, 1, 1.0),
                (4, 0, 1.0),
                (4, 2, 1.0),
                (4, 3, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn count_vectors() {
        let h = MncSketch::build(&sample());
        assert_eq!(h.hr, vec![1, 2, 0, 1, 3]);
        assert_eq!(h.hc, vec![2, 2, 2, 1]);
        assert_eq!(h.meta.nnz, 7);
    }

    #[test]
    fn extended_vectors() {
        let h = MncSketch::build(&sample());
        // Column 3 is the only single-non-zero column; its entry is in row 4.
        assert_eq!(h.her, Some(vec![0, 0, 0, 0, 1]));
        // Rows 0 and 3 are single-non-zero rows; both entries in column 1.
        assert_eq!(h.hec, Some(vec![0, 2, 0, 0]));
    }

    #[test]
    fn metadata() {
        let h = MncSketch::build(&sample());
        let m = &h.meta;
        assert_eq!(m.max_hr, 3);
        assert_eq!(m.max_hc, 2);
        assert_eq!(m.nonempty_rows, 4);
        assert_eq!(m.nonempty_cols, 4);
        assert_eq!(m.rows_eq_1, 2);
        assert_eq!(m.cols_eq_1, 1);
        // Row threshold: ncols/2 = 2, so rows with > 2 nnz: row 4 only.
        assert_eq!(m.half_full_rows, 1);
        // Col threshold: nrows/2 = 2, no column exceeds 2.
        assert_eq!(m.half_full_cols, 0);
        assert!(!m.fully_diagonal);
    }

    #[test]
    fn extended_skipped_when_theorem31_applies() {
        // Permutation: max(h^r) = 1, extended vectors are unnecessary.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let p = gen::permutation(&mut rng, 16);
        let h = MncSketch::build(&p);
        assert!(h.her.is_none() && h.hec.is_none());
        // But the effective vectors materialize the degenerate equality.
        assert_eq!(h.effective_hec(), Some(h.hc.clone()));
        assert_eq!(h.effective_her(), Some(h.hr.clone()));
    }

    #[test]
    fn basic_config_skips_extended() {
        let h = MncSketch::build_with(&sample(), false);
        assert!(h.her.is_none() && h.hec.is_none());
        assert_eq!(h.hr, vec![1, 2, 0, 1, 3]);
    }

    #[test]
    fn diagonal_flag() {
        let d = gen::scalar_diag(8, 2.0);
        assert!(MncSketch::build(&d).meta.fully_diagonal);
        let i = CsrMatrix::identity(3);
        assert!(MncSketch::build(&i).meta.fully_diagonal);
        assert!(!MncSketch::build(&sample()).meta.fully_diagonal);
    }

    #[test]
    fn row_and_col_sums_agree_for_built_sketches() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let m = gen::rand_uniform(&mut rng, 50, 70, 0.08);
        let h = MncSketch::build(&m);
        let rsum: u64 = h.hr.iter().map(|&c| c as u64).sum();
        let csum: u64 = h.hc.iter().map(|&c| c as u64).sum();
        assert_eq!(rsum, csum);
        assert_eq!(rsum, m.nnz() as u64);
        assert!((h.sparsity() - m.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn extended_counts_bounded_by_base_counts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let m = gen::rand_uniform(&mut rng, 60, 40, 0.05);
        let h = MncSketch::build(&m);
        if let (Some(her), Some(hec)) = (&h.her, &h.hec) {
            for (e, b) in her.iter().zip(&h.hr) {
                assert!(e <= b);
            }
            for (e, b) in hec.iter().zip(&h.hc) {
                assert!(e <= b);
            }
        }
    }

    /// Every entry point at every worker/partition count builds exactly the
    /// sequential sketch — same value, same bytes — over random, diagonal,
    /// permutation and empty-shape inputs, full MNC and MNC Basic. The
    /// diagonal flag is pinned per input: a `0 x 0` matrix is vacuously
    /// diagonal, `0 x n` and `n x 0` are not.
    #[test]
    fn all_entry_points_build_the_sequential_sketch() {
        use crate::distributed::build_distributed_with;
        use crate::serialize::{from_bytes, to_bytes};
        use mnc_matrix::partition::RowPartitionedMatrix;

        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut inputs = Vec::new();
        for (rows, cols, s, diagonal) in [
            (64usize, 48usize, 0.1f64, false),
            (50, 40, 0.1, false),
            (33, 7, 0.4, false),
            (7, 96, 0.05, false),
            (8, 64, 0.02, false),
            (40, 40, 0.2, false),
            (1, 1, 1.0, true),
        ] {
            inputs.push((gen::rand_uniform(&mut rng, rows, cols, s), diagonal));
        }
        let permutation = gen::permutation(&mut rng, 24);
        inputs.push((permutation, false));
        inputs.push((gen::scalar_diag(24, 2.0), true));
        for (rows, cols, diagonal) in [(0, 0, true), (0, 5, false), (5, 0, false)] {
            inputs.push((CsrMatrix::zeros(rows, cols), diagonal));
        }

        for (m, diagonal) in &inputs {
            let shape = m.shape();
            for use_extended in [true, false] {
                let seq = MncSketch::build_with(m, use_extended);
                assert_eq!(seq.meta.fully_diagonal, *diagonal, "{shape:?}");
                if !use_extended {
                    assert!(seq.her.is_none() && seq.hec.is_none());
                }
                for n in [1, 2, 3, 4, 7, 9, 64] {
                    let parallel = MncSketch::build_parallel_with(m, use_extended, n);
                    let parts = RowPartitionedMatrix::from_matrix(m, n);
                    let distributed = build_distributed_with(&parts, use_extended);
                    for (entry, h) in [("parallel", parallel), ("distributed", distributed)] {
                        let ctx = format!("{entry} {shape:?} ext={use_extended} n={n}");
                        assert_eq!(h, seq, "{ctx}");
                        assert_eq!(to_bytes(&h), to_bytes(&seq), "{ctx}");
                        assert_eq!(from_bytes(&to_bytes(&h)).unwrap(), h, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn empty_sketch() {
        let h = MncSketch::empty(3, 5);
        assert_eq!(h.meta.nnz, 0);
        assert_eq!(h.sparsity(), 0.0);
        assert_eq!(h.meta.nonempty_rows, 0);
    }

    #[test]
    fn size_is_linear_in_dimensions() {
        let h = MncSketch::empty(1000, 500);
        // No extended vectors: 4 B per dimension entry plus metadata.
        assert_eq!(h.size_bytes(), 4 * 1500 + std::mem::size_of::<SketchMeta>());
        let he = MncSketch::build(&sample());
        assert!(he.size_bytes() > 4 * (5 + 4)); // extended vectors present
    }
}
