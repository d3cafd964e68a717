//! # mnc-expr — expression DAGs and the sparsity-aware chain optimizer
//!
//! The paper estimates sparsity for *expressions*: DAGs of matrix products,
//! element-wise operations, and reorganizations (Sections 3.3, 4.2), and
//! uses the estimates inside a matrix-multiplication-chain optimizer
//! (Appendix C). This crate provides:
//!
//! * [`dag`] — a small intermediate representation: leaf matrices and
//!   operation nodes with shape validation at construction;
//! * [`eval`] — exact bottom-up evaluation (the ground truth every
//!   experiment compares against), with memoized intermediates;
//! * [`walk`] — the one memoized DAG walk for *any* [`SparsityEstimator`]:
//!   intermediate synopses are propagated, root sparsity is estimated
//!   directly (the paper's implementation notes); sessions and the
//!   estimation service both drive it;
//! * [`chain_opt`] — the textbook `O(n³)` matrix-chain dynamic program in
//!   two flavours: dense FLOP costs, and sparsity-aware costs via MNC
//!   sketch dot products `h^c · h^r` (Eq. 17), plus random-plan
//!   enumeration for the Figure 16 experiment;
//! * [`planner`] — cost-based physical planning from the estimates:
//!   per-node format decisions (dense vs CSR), memory pre-allocation
//!   estimates, and FLOP costs — the paper's motivating applications.

pub mod chain_opt;
pub mod dag;
pub mod eval;
pub mod planner;
pub mod rewrite;
pub mod session;
pub mod sessions;
pub mod walk;

pub use chain_opt::{
    chain_flops_exact, dense_chain_order, plan_cost_sketched, random_plan, sparse_chain_order,
    sparse_chain_order_cached, PlanTree,
};
pub use dag::{ExprDag, ExprNode, NodeId};
pub use eval::Evaluator;
pub use planner::{Format, NodePlan, PlanSummary, Planner};
pub use rewrite::{rewrite_mm_chains, rewrite_mm_chains_with_context, RewriteResult};
pub use session::{EstimationContext, SynopsisKey};
pub use sessions::{SessionPool, SessionPoolConfig, SessionPoolStats};
pub use walk::{estimate_all, estimate_root, NodeEstimate};

// Re-exported so downstream crates write `mnc_expr::SparsityEstimator`
// (and read `mnc_expr::EstimationStats` off a context).
pub use mnc_core::{EstimationStats, OpStat};
pub use mnc_estimators::{OpKind, SparsityEstimator, Synopsis};
// Observability: attach a `Recorder` via `EstimationContext::with_recorder`
// (a telemetry daemon's own, or one of the session's), export with
// `Recorder::report()`.
pub use mnc_obs::{ObsFormat, Recorder, Report};
