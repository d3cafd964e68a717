//! # mnc-core — the MNC sketch
//!
//! The paper's primary contribution: the **Matrix Non-zero Count** sketch
//! (Section 3), a count-based matrix synopsis of size `O(m + n)` that
//! exploits structural properties — single non-zeros per row/column,
//! sparsity skew across columns, diagonal matrices — for accurate, cheap
//! sparsity estimation of matrix expressions.
//!
//! The crate is split along the paper's structure:
//!
//! * [`sketch`] — the [`MncSketch`] data structure and its two-scan
//!   construction over row blocks (Section 3.1), shared by the sequential,
//!   parallel and [`distributed`] builds;
//! * [`estimate`] — sparsity estimation for matrix products
//!   (Algorithm 1; Theorems 3.1 and 3.2) and for reorganization /
//!   element-wise operations (Section 4.1);
//! * [`propagate`] — sketch propagation across products (Section 3.3,
//!   Eq. 11–12) and other operations (Section 4.2, Eq. 14–15), with
//!   probabilistic rounding;
//! * [`round`] — unbiased probabilistic rounding on top of a tiny,
//!   dependency-free SplitMix64 generator.
//!
//! ## Configuration and the "MNC Basic" ablation
//!
//! [`MncConfig`] toggles the extended count vectors, the Theorem 3.2 bounds
//! (including the reduced output size `p` of Algorithm 1), and probabilistic
//! vs. deterministic rounding. [`MncConfig::basic`] reproduces the paper's
//! *MNC Basic* baseline (no extension vectors, no bounds).

pub mod confidence;
pub mod context;
pub mod distributed;
pub mod estimate;
pub mod op;
pub mod propagate;
pub mod round;
pub mod serialize;
pub mod sketch;

pub use confidence::{estimate_matmul_ci, SparsityEstimateCi};
pub use context::{EstimationStats, LruSynopsisCache, OpStat, OpTimer};
pub use distributed::{build_distributed, build_distributed_with};
pub use op::{EstimatorError, OpKind};
pub use round::SplitMix64;
pub use serialize::{from_bytes, to_bytes, DecodeError};
pub use sketch::{MncSketch, SketchMeta};

// The kernel scratch arena is part of the core propagation API surface
// (`MncSketch::propagate_in`, the `propagate_*_in` free functions), so
// downstream crates get it without naming `mnc-kernels` directly.
pub use mnc_kernels::ScratchArena;

// The legacy per-op free functions are no longer re-exported at the crate
// root: [`MncSketch::estimate`] / [`MncSketch::propagate`] (see [`op`]) are
// the public vocabulary. Specialized callers (benchmarks, the chain
// optimizer's zero-alloc inner loop) reach the per-op kernels through
// their defining modules, e.g. `mnc_core::propagate::propagate_matmul_in`.

/// Configuration of the MNC estimator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MncConfig {
    /// Build and exploit the extended count vectors `h^er` / `h^ec`
    /// (Eq. 8 in the paper).
    pub use_extended: bool,
    /// Apply the Theorem 3.2 lower bound and the reduced output size `p`
    /// (Algorithm 1, lines 6/9/12).
    pub use_bounds: bool,
    /// Round propagated count vectors probabilistically (unbiased) instead
    /// of deterministically (`round()`), Section 3.3.
    pub probabilistic_rounding: bool,
    /// Seed for the internal rounding generator.
    pub seed: u64,
}

impl Default for MncConfig {
    fn default() -> Self {
        MncConfig {
            use_extended: true,
            use_bounds: true,
            probabilistic_rounding: true,
            seed: 0xC0FFEE,
        }
    }
}

impl MncConfig {
    /// The paper's *MNC Basic* configuration: count vectors only — no
    /// extension vectors, no bounds, naive full output size `m·l`.
    pub fn basic() -> Self {
        MncConfig {
            use_extended: false,
            use_bounds: false,
            ..Self::default()
        }
    }
}
