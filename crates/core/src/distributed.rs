//! Distributed MNC sketch construction over row-partitioned matrices.
//!
//! Section 3.1: "The small size of `h_A` also makes it amenable to
//! large-scale ML, where the sketch can be computed via distributed
//! operations and subsequently, collected and used in the driver for
//! compilation." (Full distributed support is the paper's future work #4.)
//!
//! The construction is the natural two-phase distributed plan:
//!
//! 1. **Map**: every partition computes its local row counts (a slice of
//!    the global `h^r`) and a local column-count vector; the driver
//!    concatenates the row slices and sums the column vectors.
//! 2. **Second map** (only when neither Theorem 3.1 case holds): the
//!    driver broadcasts the global `h^c`; every partition computes its
//!    slice of `h^er` (which needs global column counts) and a local
//!    `h^ec` contribution (row counts are partition-local, so no broadcast
//!    is needed for them); the driver merges again.
//!
//! This is the same two-phase build over row blocks that
//! [`MncSketch::build`] and [`MncSketch::build_parallel`] run, with each
//! partition as one block; partitions are processed on a
//! [`WorkerPool`] with one worker per partition, standing in for cluster
//! executors.

use mnc_kernels::WorkerPool;
use mnc_matrix::partition::RowPartitionedMatrix;

use crate::sketch::{build_blocks, MncSketch, RowBlock};

/// Builds the MNC sketch of a row-partitioned matrix with one worker per
/// partition. The result is **identical** to
/// [`MncSketch::build`](crate::MncSketch::build) on the assembled matrix.
pub fn build_distributed(m: &RowPartitionedMatrix) -> MncSketch {
    build_distributed_with(m, true)
}

/// Distributed build with the extended vectors optional (MNC Basic).
pub fn build_distributed_with(m: &RowPartitionedMatrix, use_extended: bool) -> MncSketch {
    let blocks: Vec<RowBlock<'_>> = m
        .iter()
        .map(|(offset, part)| RowBlock {
            m: part,
            rows: 0..part.nrows(),
            offset,
        })
        .collect();
    let pool = WorkerPool::new(blocks.len());
    build_blocks(&blocks, m.nrows(), m.ncols(), use_extended, &pool)
}
