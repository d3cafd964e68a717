//! The naive bitset estimator `E_bmm` (Section 2.1, Eq. 3) — an *exact*
//! boolean matrix multiply over bit-packed operands, plus the multi-threaded
//! variant of Appendix B.
//!
//! The synopsis is a dense bit matrix (64x smaller than FP64), so both space
//! `O(mn + nl + ml)` and time `O(mnl)` scale with dense sizes — the paper's
//! reason it fails on ultra-sparse inputs (≈8 TB for B2.1). The estimator
//! takes an optional memory budget and reports
//! [`EstimatorError::SynopsisTooLarge`] when exceeded, mirroring those
//! out-of-memory `✗` entries.

use std::sync::Arc;

use mnc_kernels::{or4_into, or_into, popcount, row_chunks, WorkerPool};
use mnc_matrix::CsrMatrix;

use crate::{EstimatorError, OpKind, Result, SparsityEstimator, Synopsis};

/// A dense, row-major bit matrix.
#[derive(Debug, Clone)]
pub struct BitsetSynopsis {
    nrows: usize,
    ncols: usize,
    words_per_row: usize,
    bits: Vec<u64>,
    /// Cached population count, maintained at construction and after every
    /// bulk mutation so [`BitsetSynopsis::count_ones`] never re-scans.
    ones: u64,
}

impl BitsetSynopsis {
    /// All-zero bit matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        let words_per_row = ncols.div_ceil(64);
        BitsetSynopsis {
            nrows,
            ncols,
            words_per_row,
            bits: vec![0; nrows * words_per_row],
            ones: 0,
        }
    }

    /// Packs the non-zero pattern of a CSR matrix.
    pub fn from_matrix(m: &CsrMatrix) -> Self {
        let mut b = Self::zeros(m.nrows(), m.ncols());
        for i in 0..m.nrows() {
            let (cols, _) = m.row(i);
            let base = i * b.words_per_row;
            for &c in cols {
                b.bits[base + (c as usize >> 6)] |= 1u64 << (c as usize & 63);
            }
        }
        b.ones = popcount(&b.bits);
        b
    }

    /// Packs the non-zero pattern on `threads` pool workers, each filling a
    /// disjoint row-chunk of the bit buffer. Bit-identical to
    /// [`BitsetSynopsis::from_matrix`].
    pub fn from_matrix_parallel(m: &CsrMatrix, threads: usize) -> Self {
        let threads = threads.clamp(1, m.nrows().max(1));
        let mut b = Self::zeros(m.nrows(), m.ncols());
        let wpr = b.words_per_row;
        if threads == 1 || wpr == 0 {
            return Self::from_matrix(m);
        }
        {
            let mut rest = b.bits.as_mut_slice();
            let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (lo, hi) in row_chunks(m.nrows(), threads) {
                let (chunk, tail) = rest.split_at_mut((hi - lo) * wpr);
                rest = tail;
                tasks.push(Box::new(move || {
                    for (k, i) in (lo..hi).enumerate() {
                        let (cols, _) = m.row(i);
                        let base = k * wpr;
                        for &c in cols {
                            chunk[base + (c as usize >> 6)] |= 1u64 << (c as usize & 63);
                        }
                    }
                }));
            }
            WorkerPool::new(threads).run_tasks(tasks);
        }
        b.ones = popcount(&b.bits);
        b
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// The packed words of row `i`.
    #[inline]
    pub fn row_words(&self, i: usize) -> &[u64] {
        &self.bits[i * self.words_per_row..(i + 1) * self.words_per_row]
    }

    /// Bit value at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> bool {
        self.bits[i * self.words_per_row + (j >> 6)] >> (j & 63) & 1 == 1
    }

    /// Sets bit `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize) {
        let word = &mut self.bits[i * self.words_per_row + (j >> 6)];
        let mask = 1u64 << (j & 63);
        self.ones += u64::from(*word & mask == 0);
        *word |= mask;
    }

    /// Exact population count (Eq. 3's `bitcount`) — cached, O(1).
    pub fn count_ones(&self) -> u64 {
        debug_assert_eq!(self.ones, popcount(&self.bits), "stale cached popcount");
        self.ones
    }

    /// Exact sparsity of the described matrix.
    pub fn sparsity(&self) -> f64 {
        let cells = self.nrows as f64 * self.ncols as f64;
        if cells == 0.0 {
            0.0
        } else {
            self.count_ones() as f64 / cells
        }
    }

    /// Synopsis size in bytes.
    pub fn size_bytes(&self) -> u64 {
        (self.bits.len() * 8) as u64
    }

    /// Measured heap bytes retained by the bit buffer (capacity-based).
    pub fn heap_bytes(&self) -> u64 {
        (self.bits.capacity() * 8) as u64
    }

    /// Analytical size in bytes for an `m x n` bit matrix.
    pub fn analytic_size_bytes(nrows: u64, ncols: u64) -> u64 {
        nrows * ncols.div_ceil(64) * 8
    }

    /// The raw packed words, row-major, `ncols.div_ceil(64)` words per row.
    /// Exposed for external serialization (the served catalog's shadow
    /// sidecars persist bitsets verbatim).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Reconstructs a synopsis from its shape and packed words (the inverse
    /// of [`BitsetSynopsis::words`]). The cached popcount is recomputed, so
    /// the result is valid regardless of where the words came from. Returns
    /// `None` when the word count does not match the shape.
    pub fn from_words(nrows: usize, ncols: usize, bits: Vec<u64>) -> Option<Self> {
        let words_per_row = ncols.div_ceil(64);
        if bits.len() != nrows * words_per_row {
            return None;
        }
        let ones = popcount(&bits);
        Some(BitsetSynopsis {
            nrows,
            ncols,
            words_per_row,
            bits,
            ones,
        })
    }
}

/// Exact boolean matrix multiply `bC = bA bB`: row `i` of the output is the
/// OR of the `B` rows selected by the set bits of `A`'s row `i` — bitwise
/// AND is multiply, OR is add (Section 2.1).
pub fn bool_mm(a: &BitsetSynopsis, b: &BitsetSynopsis) -> BitsetSynopsis {
    assert_eq!(a.ncols, b.nrows, "bool_mm: inner dimension mismatch");
    let mut c = BitsetSynopsis::zeros(a.nrows, b.ncols);
    bool_mm_rows(a, b, &mut c.bits, 0, a.nrows, c.words_per_row);
    c.ones = popcount(&c.bits);
    c
}

/// Multi-threaded exact boolean matrix multiply (Appendix B): output rows
/// are partitioned across `threads` workers.
pub fn bool_mm_parallel(a: &BitsetSynopsis, b: &BitsetSynopsis, threads: usize) -> BitsetSynopsis {
    assert_eq!(
        a.ncols, b.nrows,
        "bool_mm_parallel: inner dimension mismatch"
    );
    let threads = threads.max(1);
    let mut c = BitsetSynopsis::zeros(a.nrows, b.ncols);
    if threads == 1 || a.nrows < threads {
        bool_mm_rows(a, b, &mut c.bits, 0, a.nrows, c.words_per_row);
        c.ones = popcount(&c.bits);
        return c;
    }
    let wpr = c.words_per_row;
    {
        let mut rest = c.bits.as_mut_slice();
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        for (start, end) in row_chunks(a.nrows, threads) {
            let (chunk, tail) = rest.split_at_mut((end - start) * wpr);
            rest = tail;
            tasks.push(Box::new(move || {
                bool_mm_rows_into(a, b, chunk, start, end, wpr);
            }));
        }
        WorkerPool::new(threads).run_tasks(tasks);
    }
    c.ones = popcount(&c.bits);
    c
}

fn bool_mm_rows(
    a: &BitsetSynopsis,
    b: &BitsetSynopsis,
    out: &mut [u64],
    start: usize,
    end: usize,
    wpr: usize,
) {
    bool_mm_rows_into(a, b, &mut out[start * wpr..end * wpr], start, end, wpr);
}

/// Computes output rows `start..end` into `out` (relative to `start`).
///
/// The set bits of each left-operand row select the `B` rows to OR; they are
/// folded four at a time ([`or4_into`]) so the destination row is traversed
/// once per quartet instead of once per selected row. OR is associative,
/// commutative, and idempotent, so the batching is bit-identical to the
/// one-row-at-a-time loop.
fn bool_mm_rows_into(
    a: &BitsetSynopsis,
    b: &BitsetSynopsis,
    out: &mut [u64],
    start: usize,
    end: usize,
    wpr: usize,
) {
    let mut selected: Vec<usize> = Vec::new();
    for i in start..end {
        let dst = &mut out[(i - start) * wpr..(i - start + 1) * wpr];
        selected.clear();
        for (w_idx, &word) in a.row_words(i).iter().enumerate() {
            let mut word = word;
            while word != 0 {
                selected.push((w_idx << 6) + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        let mut quads = selected.chunks_exact(4);
        for q in &mut quads {
            or4_into(
                dst,
                b.row_words(q[0]),
                b.row_words(q[1]),
                b.row_words(q[2]),
                b.row_words(q[3]),
            );
        }
        for &k in quads.remainder() {
            or_into(dst, b.row_words(k));
        }
    }
}

/// The bitset estimator configuration.
#[derive(Debug, Clone)]
pub struct BitsetEstimator {
    /// Worker threads for the boolean product (Appendix B); 1 = sequential.
    pub threads: usize,
    /// Optional synopsis memory budget in bytes; `None` = unbounded.
    pub memory_limit: Option<u64>,
}

impl Default for BitsetEstimator {
    fn default() -> Self {
        BitsetEstimator {
            threads: 1,
            memory_limit: None,
        }
    }
}

impl BitsetEstimator {
    /// Sequential estimator with a memory budget.
    pub fn with_memory_limit(limit: u64) -> Self {
        BitsetEstimator {
            threads: 1,
            memory_limit: Some(limit),
        }
    }

    /// Multi-threaded estimator (Appendix B).
    pub fn parallel(threads: usize) -> Self {
        BitsetEstimator {
            threads,
            memory_limit: None,
        }
    }

    fn check_budget(&self, nrows: usize, ncols: usize) -> Result<()> {
        if let Some(limit) = self.memory_limit {
            let bytes = BitsetSynopsis::analytic_size_bytes(nrows as u64, ncols as u64);
            if bytes > limit {
                return Err(EstimatorError::SynopsisTooLarge {
                    estimator: "Bitset",
                    bytes,
                    limit,
                });
            }
        }
        Ok(())
    }

    fn unwrap<'a>(&self, inputs: &[&'a Synopsis], idx: usize) -> Result<&'a BitsetSynopsis> {
        crate::expect_synopsis!("Bitset", Synopsis::Bitset, inputs, idx)
    }

    fn apply(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<BitsetSynopsis> {
        let a = self.unwrap(inputs, 0)?;
        let out = match op {
            OpKind::MatMul => {
                let b = self.unwrap(inputs, 1)?;
                self.check_budget(a.nrows, b.ncols)?;
                if self.threads > 1 {
                    bool_mm_parallel(a, b, self.threads)
                } else {
                    bool_mm(a, b)
                }
            }
            OpKind::EwAdd | OpKind::EwMax => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = a.clone();
                or_into(&mut c.bits, &b.bits);
                c.ones = popcount(&c.bits);
                c
            }
            OpKind::EwMul | OpKind::EwMin => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = a.clone();
                mnc_kernels::and_into(&mut c.bits, &b.bits);
                c.ones = popcount(&c.bits);
                c
            }
            OpKind::Transpose => {
                let mut c = BitsetSynopsis::zeros(a.ncols, a.nrows);
                for i in 0..a.nrows {
                    for (w_idx, &word) in a.row_words(i).iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            let j = (w_idx << 6) + word.trailing_zeros() as usize;
                            word &= word - 1;
                            c.set(j, i);
                        }
                    }
                }
                c
            }
            OpKind::Reshape { rows, cols } => {
                if a.nrows * a.ncols != rows * cols {
                    return Err(EstimatorError::shape(
                        op,
                        (a.nrows, a.ncols),
                        "cell count must be conserved",
                    ));
                }
                let mut c = BitsetSynopsis::zeros(*rows, *cols);
                for i in 0..a.nrows {
                    for (w_idx, &word) in a.row_words(i).iter().enumerate() {
                        let mut word = word;
                        while word != 0 {
                            let j = (w_idx << 6) + word.trailing_zeros() as usize;
                            word &= word - 1;
                            let p = i * a.ncols + j;
                            c.set(p / cols, p % cols);
                        }
                    }
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
                self.check_budget(a.nrows, a.nrows)?;
                let mut c = BitsetSynopsis::zeros(a.nrows, a.nrows);
                for i in 0..a.nrows {
                    if a.get(i, 0) {
                        c.set(i, i);
                    }
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
                let mut c = BitsetSynopsis::zeros(a.nrows, 1);
                for i in 0..a.nrows {
                    if a.get(i, i) {
                        c.set(i, 0);
                    }
                }
                c
            }
            OpKind::Rbind => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = BitsetSynopsis::zeros(a.nrows + b.nrows, a.ncols);
                c.bits[..a.bits.len()].copy_from_slice(&a.bits);
                c.bits[a.bits.len()..].copy_from_slice(&b.bits);
                c.ones = a.ones + b.ones;
                c
            }
            OpKind::Cbind => {
                let b = self.unwrap(inputs, 1)?;
                let mut c = BitsetSynopsis::zeros(a.nrows, a.ncols + b.ncols);
                for i in 0..a.nrows {
                    for j in 0..a.ncols {
                        if a.get(i, j) {
                            c.set(i, j);
                        }
                    }
                    for j in 0..b.ncols {
                        if b.get(i, j) {
                            c.set(i, a.ncols + j);
                        }
                    }
                }
                c
            }
            OpKind::Neq0 => a.clone(),
            OpKind::Eq0 => {
                let mut c = a.clone();
                for w in &mut c.bits {
                    *w = !*w;
                }
                // Clear the padding bits past `ncols` in each row.
                let tail_bits = a.ncols & 63;
                if tail_bits != 0 {
                    let mask = (1u64 << tail_bits) - 1;
                    for i in 0..a.nrows {
                        c.bits[i * a.words_per_row + a.words_per_row - 1] &= mask;
                    }
                }
                c.ones = popcount(&c.bits);
                c
            }
        };
        Ok(out)
    }
}

impl SparsityEstimator for BitsetEstimator {
    fn name(&self) -> &'static str {
        "Bitset"
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        self.check_budget(m.nrows(), m.ncols())?;
        Ok(Synopsis::Bitset(BitsetSynopsis::from_matrix_parallel(
            m,
            self.threads,
        )))
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        Ok(self.apply(op, inputs)?.sparsity())
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        Ok(Synopsis::Bitset(self.apply(op, inputs)?))
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

    fn syn(m: &CsrMatrix) -> Synopsis {
        Synopsis::Bitset(BitsetSynopsis::from_matrix(m))
    }

    #[test]
    fn pack_roundtrip() {
        let mut r = rng(1);
        let m = gen::rand_uniform(&mut r, 20, 70, 0.1);
        let b = BitsetSynopsis::from_matrix(&m);
        assert_eq!(b.count_ones(), m.nnz() as u64);
        for (i, j, _) in m.iter_triples() {
            assert!(b.get(i, j));
        }
        assert!((b.sparsity() - m.sparsity()).abs() < 1e-12);
    }

    #[test]
    fn parallel_pack_is_bit_identical() {
        let mut r = rng(11);
        for (rows, cols, s) in [(40usize, 90usize, 0.1f64), (3, 200, 0.05), (64, 64, 0.3)] {
            let m = gen::rand_uniform(&mut r, rows, cols, s);
            let seq = BitsetSynopsis::from_matrix(&m);
            for threads in [1, 2, 3, 8, 64] {
                let par = BitsetSynopsis::from_matrix_parallel(&m, threads);
                assert_eq!(par.bits, seq.bits, "{rows}x{cols} threads={threads}");
            }
        }
        let empty = CsrMatrix::zeros(0, 4);
        assert_eq!(
            BitsetSynopsis::from_matrix_parallel(&empty, 4).bits,
            BitsetSynopsis::from_matrix(&empty).bits
        );
    }

    #[test]
    fn bool_mm_is_exact() {
        let mut r = rng(2);
        let a = gen::rand_uniform(&mut r, 30, 40, 0.1);
        let b = gen::rand_uniform(&mut r, 40, 25, 0.15);
        let est = BitsetEstimator::default()
            .estimate(&OpKind::MatMul, &[&syn(&a), &syn(&b)])
            .unwrap();
        let truth = ops::bool_matmul(&a, &b).unwrap().sparsity();
        assert!((est - truth).abs() < 1e-15);
    }

    #[test]
    fn parallel_mm_matches_sequential() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 97, 64, 0.08);
        let b = gen::rand_uniform(&mut r, 64, 83, 0.1);
        let (ba, bb) = (
            BitsetSynopsis::from_matrix(&a),
            BitsetSynopsis::from_matrix(&b),
        );
        let seq = bool_mm(&ba, &bb);
        for threads in [2, 3, 4, 8] {
            let par = bool_mm_parallel(&ba, &bb, threads);
            assert_eq!(par.bits, seq.bits, "threads = {threads}");
        }
    }

    #[test]
    fn elementwise_exact() {
        let mut r = rng(4);
        let a = gen::rand_uniform(&mut r, 15, 90, 0.2);
        let b = gen::rand_uniform(&mut r, 15, 90, 0.3);
        let e = BitsetEstimator::default();
        let add = e.estimate(&OpKind::EwAdd, &[&syn(&a), &syn(&b)]).unwrap();
        let mul = e.estimate(&OpKind::EwMul, &[&syn(&a), &syn(&b)]).unwrap();
        assert!((add - ops::ew_add(&a, &b).unwrap().sparsity()).abs() < 1e-15);
        assert!((mul - ops::ew_mul(&a, &b).unwrap().sparsity()).abs() < 1e-15);
    }

    #[test]
    fn reorg_exact() {
        let mut r = rng(5);
        let a = gen::rand_uniform(&mut r, 12, 66, 0.2);
        let e = BitsetEstimator::default();
        let t = e.propagate(&OpKind::Transpose, &[&syn(&a)]).unwrap();
        assert!((t.sparsity() - a.sparsity()).abs() < 1e-15);
        assert_eq!(t.shape(), (66, 12));

        let rs = e
            .propagate(&OpKind::Reshape { rows: 66, cols: 12 }, &[&syn(&a)])
            .unwrap();
        let truth = ops::reshape(&a, 66, 12).unwrap();
        if let Synopsis::Bitset(bs) = &rs {
            for (i, j, _) in truth.iter_triples() {
                assert!(bs.get(i, j));
            }
            assert_eq!(bs.count_ones(), truth.nnz() as u64);
        } else {
            panic!("expected bitset synopsis");
        }
    }

    #[test]
    fn eq0_clears_padding() {
        // ncols = 70 is not a multiple of 64: the complement must not count
        // the 58 padding bits.
        let a = CsrMatrix::zeros(3, 70);
        let e = BitsetEstimator::default();
        let z = e.estimate(&OpKind::Eq0, &[&syn(&a)]).unwrap();
        assert!((z - 1.0).abs() < 1e-15);
        let nz = e.estimate(&OpKind::Neq0, &[&syn(&a)]).unwrap();
        assert_eq!(nz, 0.0);
    }

    #[test]
    fn bind_and_diag_exact() {
        let mut r = rng(6);
        let a = gen::rand_uniform(&mut r, 5, 9, 0.3);
        let b = gen::rand_uniform(&mut r, 7, 9, 0.2);
        let e = BitsetEstimator::default();
        let rb = e.estimate(&OpKind::Rbind, &[&syn(&a), &syn(&b)]).unwrap();
        assert!((rb - ops::rbind(&a, &b).unwrap().sparsity()).abs() < 1e-15);

        let c = gen::rand_uniform(&mut r, 5, 4, 0.5);
        let cb = e.estimate(&OpKind::Cbind, &[&syn(&a), &syn(&c)]).unwrap();
        assert!((cb - ops::cbind(&a, &c).unwrap().sparsity()).abs() < 1e-15);

        let v = gen::ones_vector(6);
        let d = e.estimate(&OpKind::DiagV2M, &[&syn(&v)]).unwrap();
        assert!((d - 6.0 / 36.0).abs() < 1e-15);
    }

    #[test]
    fn memory_budget_enforced() {
        let e = BitsetEstimator::with_memory_limit(8);
        let m = Arc::new(CsrMatrix::zeros(100, 100));
        assert!(matches!(
            e.build(&m),
            Err(EstimatorError::SynopsisTooLarge { .. })
        ));
    }

    #[test]
    fn analytic_size_matches_measured() {
        let b = BitsetSynopsis::zeros(100, 130);
        assert_eq!(
            b.size_bytes(),
            BitsetSynopsis::analytic_size_bytes(100, 130)
        );
    }

    #[test]
    fn cached_count_survives_every_op() {
        let mut r = rng(9);
        let a = gen::rand_uniform(&mut r, 10, 70, 0.2);
        let b = gen::rand_uniform(&mut r, 10, 70, 0.3);
        let (sa, sb) = (syn(&a), syn(&b));
        let sat = syn(&a.transpose());
        let e = BitsetEstimator::default();
        for (op, inputs) in [
            (OpKind::MatMul, vec![&sat, &sb]),
            (OpKind::EwAdd, vec![&sa, &sb]),
            (OpKind::EwMul, vec![&sa, &sb]),
            (OpKind::Rbind, vec![&sa, &sb]),
            (OpKind::Cbind, vec![&sa, &sb]),
            (OpKind::Eq0, vec![&sa]),
            (OpKind::Neq0, vec![&sa]),
            (OpKind::Transpose, vec![&sa]),
            (OpKind::Reshape { rows: 70, cols: 10 }, vec![&sa]),
        ] {
            let out = e.propagate(&op, &inputs).unwrap();
            let Synopsis::Bitset(bs) = &out else {
                panic!("expected bitset");
            };
            // count_ones() itself debug_asserts cache freshness; compare
            // against a direct scan for release builds too.
            assert_eq!(
                bs.count_ones(),
                bs.bits.iter().map(|w| w.count_ones() as u64).sum::<u64>(),
                "{op:?}"
            );
        }
    }

    /// Naive per-cell boolean product, independent of the kernelized
    /// OR-batching inner loop — the proptest oracle.
    fn bool_mm_reference(a: &BitsetSynopsis, b: &BitsetSynopsis) -> BitsetSynopsis {
        let mut c = BitsetSynopsis::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for k in 0..a.ncols() {
                if a.get(i, k) {
                    for j in 0..b.ncols() {
                        if b.get(k, j) {
                            c.set(i, j);
                        }
                    }
                }
            }
        }
        c
    }

    fn gen_bitset(seed: u64, rows: usize, cols: usize, keep_mod: u64) -> BitsetSynopsis {
        let mut s = seed | 1;
        let mut b = BitsetSynopsis::zeros(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if (s >> 33).is_multiple_of(keep_mod) {
                    b.set(i, j);
                }
            }
        }
        b
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// `n` up to 90 crosses the 64-bit word boundary, exercising
            /// multi-word left rows and the `or4_into` quad batching with a
            /// non-empty remainder.
            #[test]
            fn bool_mm_is_bit_identical_to_reference(
                (m, n, l, seed, keep) in
                    (1usize..40, 1usize..90, 1usize..40, any::<u64>(), 1u64..8)
            ) {
                let a = gen_bitset(seed, m, n, keep);
                let b = gen_bitset(seed ^ 0xABCD, n, l, keep);
                let reference = bool_mm_reference(&a, &b);
                let kernel = bool_mm(&a, &b);
                prop_assert_eq!(&kernel.bits, &reference.bits);
                prop_assert_eq!(kernel.count_ones(), reference.count_ones());
                for threads in [2usize, 5] {
                    let par = bool_mm_parallel(&a, &b, threads);
                    prop_assert_eq!(&par.bits, &reference.bits);
                    prop_assert_eq!(par.count_ones(), reference.count_ones());
                }
            }
        }
    }
}
