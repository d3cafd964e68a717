//! Cost-based physical planning from sparsity estimates — the paper's
//! motivating applications (Section 1): "sparsity estimates are used during
//! operation runtime for output format decisions and memory preallocation
//! \[and\] during compilation for memory and cost estimates".
//!
//! [`Planner::plan`] walks an expression DAG with any
//! [`SparsityEstimator`], estimates every intermediate, and derives:
//!
//! * a **format decision** per node (dense vs CSR, using SystemML's
//!   `s >= 0.4` dense threshold by default);
//! * a **memory estimate** for the chosen format (the wrong-allocation
//!   failure mode the paper describes: "wrong dense allocation of truly
//!   sparse outputs" and vice versa);
//! * an **operation cost estimate** in multiply FLOPs (sketch dot products
//!   for MNC synopses, the uniform `nnz_A · nnz_B / n` approximation
//!   otherwise).

use mnc_estimators::{OpKind, Result, SparsityEstimator, Synopsis};

use crate::dag::{ExprDag, ExprNode, NodeId};
use crate::session::EstimationContext;

/// Physical representation chosen for a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Dense row-major FP64.
    Dense,
    /// Compressed sparse rows (4-B column index + 8-B value per non-zero,
    /// plus the row pointer).
    SparseCsr,
}

/// Plan entry for one DAG node.
#[derive(Debug, Clone)]
pub struct NodePlan {
    /// The node.
    pub id: NodeId,
    /// Output shape.
    pub shape: (usize, usize),
    /// Estimated output sparsity.
    pub sparsity: f64,
    /// Estimated non-zero count.
    pub nnz: f64,
    /// Chosen format.
    pub format: Format,
    /// Memory estimate for the chosen format, in bytes.
    pub memory_bytes: f64,
    /// Estimated multiply FLOPs to compute this node (0 for leaves).
    pub flops: f64,
}

/// A physical plan for a whole DAG.
#[derive(Debug, Clone)]
pub struct PlanSummary {
    /// One entry per node, in topological order.
    pub nodes: Vec<NodePlan>,
    /// Peak-ish memory estimate: the sum over all materialized nodes.
    pub total_memory_bytes: f64,
    /// Total estimated multiply FLOPs.
    pub total_flops: f64,
}

impl PlanSummary {
    /// Plan entry of a node.
    pub fn node(&self, id: NodeId) -> &NodePlan {
        &self.nodes[id]
    }
}

/// The planner configuration.
///
/// ```
/// use mnc_expr::{ExprDag, Format, Planner};
/// use mnc_estimators::MncEstimator;
/// use mnc_matrix::CsrMatrix;
/// use std::sync::Arc;
///
/// let mut dag = ExprDag::new();
/// let a = dag.leaf("A", Arc::new(CsrMatrix::identity(100)));
/// let plan = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();
/// // 1% dense — keep it sparse.
/// assert_eq!(plan.node(a).format, Format::SparseCsr);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Planner {
    /// Dense-format threshold; SystemML dispatches dense at `s >= 0.4`
    /// (footnote 3 of the paper).
    pub dense_threshold: f64,
    /// Bytes per dense cell (FP64).
    pub dense_cell_bytes: f64,
    /// Bytes per sparse entry (CSR: 4-B index + 8-B value).
    pub sparse_entry_bytes: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            dense_threshold: 0.4,
            dense_cell_bytes: 8.0,
            sparse_entry_bytes: 12.0,
        }
    }
}

impl Planner {
    /// Plans the whole DAG under the given estimator: synopses are built
    /// for leaves and propagated bottom-up (memoized by node id). One-shot
    /// — runs in a throwaway [`EstimationContext`]; use
    /// [`plan_with_context`](Planner::plan_with_context) to reuse synopses
    /// across repeated planning (e.g. re-costing after a rewrite).
    pub fn plan<E: SparsityEstimator + ?Sized>(
        &self,
        est: &E,
        dag: &ExprDag,
    ) -> Result<PlanSummary> {
        self.plan_with_context(est, dag, &mut EstimationContext::new())
    }

    /// [`plan`](Planner::plan) against a shared estimation session: leaf and
    /// intermediate synopses come from (and are admitted to) the context's
    /// cache, and the work is counted in the context's stats.
    pub fn plan_with_context<E: SparsityEstimator + ?Sized>(
        &self,
        est: &E,
        dag: &ExprDag,
        ctx: &mut EstimationContext,
    ) -> Result<PlanSummary> {
        let _span = ctx.recorder().span("plan").op(est.name());
        let synopses = ctx.materialize_all(est, dag)?;
        let mut nodes = Vec::with_capacity(dag.len());
        for (id, node) in dag.iter() {
            let (syn, flops) = match node {
                ExprNode::Leaf { .. } => (&synopses[id], 0.0),
                ExprNode::Op { op, inputs } => {
                    let ins: Vec<&Synopsis> =
                        inputs.iter().map(|&i| synopses[i].as_ref()).collect();
                    (&synopses[id], estimate_flops(op, &ins))
                }
            };
            let shape = dag.shape(id);
            let sparsity = syn.sparsity();
            let cells = shape.0 as f64 * shape.1 as f64;
            let nnz = sparsity * cells;
            let format = if sparsity >= self.dense_threshold {
                Format::Dense
            } else {
                Format::SparseCsr
            };
            let memory_bytes = match format {
                Format::Dense => cells * self.dense_cell_bytes,
                Format::SparseCsr => nnz * self.sparse_entry_bytes + (shape.0 as f64 + 1.0) * 8.0,
            };
            nodes.push(NodePlan {
                id,
                shape,
                sparsity,
                nnz,
                format,
                memory_bytes,
                flops,
            });
        }
        let total_memory_bytes = nodes.iter().map(|n| n.memory_bytes).sum();
        let total_flops = nodes.iter().map(|n| n.flops).sum();
        Ok(PlanSummary {
            nodes,
            total_memory_bytes,
            total_flops,
        })
    }
}

/// Estimated multiply FLOPs of one operation given input synopses.
fn estimate_flops(op: &OpKind, inputs: &[&Synopsis]) -> f64 {
    let nnz_of = |s: &Synopsis| {
        let (m, n) = s.shape();
        s.sparsity() * m as f64 * n as f64
    };
    match op {
        OpKind::MatMul => match (inputs[0], inputs[1]) {
            // MNC sketches carry per-column/row counts: the exact cost
            // model of Appendix C (Eq. 17).
            (Synopsis::Mnc(a), Synopsis::Mnc(b)) => {
                crate::chain_opt::sketch_dot(&a.sketch, &b.sketch)
            }
            // Otherwise the uniform approximation Σ_k (nnz_A/n)(nnz_B/n)
            // = nnz_A · nnz_B / n.
            (a, b) => {
                let n = a.shape().1 as f64;
                if n == 0.0 {
                    0.0
                } else {
                    nnz_of(a) * nnz_of(b) / n
                }
            }
        },
        OpKind::EwAdd | OpKind::EwMul | OpKind::EwMax | OpKind::EwMin => {
            nnz_of(inputs[0]) + nnz_of(inputs[1])
        }
        OpKind::Rbind | OpKind::Cbind => nnz_of(inputs[0]) + nnz_of(inputs[1]),
        OpKind::Transpose
        | OpKind::Reshape { .. }
        | OpKind::Neq0
        | OpKind::DiagV2M
        | OpKind::DiagM2V => nnz_of(inputs[0]),
        OpKind::Eq0 => {
            let (m, n) = inputs[0].shape();
            m as f64 * n as f64 - nnz_of(inputs[0])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_estimators::{MetaAcEstimator, MncEstimator};
    use mnc_matrix::gen;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn formats_follow_the_threshold() {
        let mut r = rng(1);
        let sparse = gen::rand_uniform(&mut r, 50, 50, 0.05);
        let dense = gen::rand_uniform(&mut r, 50, 50, 0.9);
        let mut dag = ExprDag::new();
        let ns = dag.leaf("S", Arc::new(sparse));
        let nd = dag.leaf("D", Arc::new(dense));
        let prod = dag.matmul(ns, nd).unwrap();
        let plan = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();
        assert_eq!(plan.node(ns).format, Format::SparseCsr);
        assert_eq!(plan.node(nd).format, Format::Dense);
        // 5% x 90% product over a 50-common-dim: essentially dense.
        assert_eq!(plan.node(prod).format, Format::Dense);
        assert!(plan.total_flops > 0.0);
        assert!(plan.total_memory_bytes > 0.0);
    }

    #[test]
    fn memory_matches_format_arithmetic() {
        let mut r = rng(2);
        let m = gen::rand_uniform(&mut r, 100, 80, 0.01);
        let mut dag = ExprDag::new();
        let leaf = dag.leaf("A", Arc::new(m.clone()));
        let plan = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();
        let n = plan.node(leaf);
        assert_eq!(n.format, Format::SparseCsr);
        let expect = m.nnz() as f64 * 12.0 + 101.0 * 8.0;
        assert!((n.memory_bytes - expect).abs() < 1e-6);
    }

    #[test]
    fn mnc_flops_are_exact_for_base_products() {
        let mut r = rng(3);
        let a = gen::rand_uniform(&mut r, 30, 40, 0.2);
        let b = gen::rand_uniform(&mut r, 40, 20, 0.3);
        let mut dag = ExprDag::new();
        let na = dag.leaf("A", Arc::new(a.clone()));
        let nb = dag.leaf("B", Arc::new(b.clone()));
        let prod = dag.matmul(na, nb).unwrap();
        let plan = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();
        let exact = mnc_matrix::ops::product::matmul_flops(&a, &b).unwrap() as f64;
        assert_eq!(plan.node(prod).flops, exact);
    }

    #[test]
    fn context_planning_reuses_synopses_and_agrees_with_one_shot() {
        let mut r = rng(5);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", Arc::new(gen::rand_uniform(&mut r, 30, 40, 0.1)));
        let b = dag.leaf("B", Arc::new(gen::rand_uniform(&mut r, 40, 20, 0.2)));
        let prod = dag.matmul(a, b).unwrap();
        let one_shot = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();

        let mut ctx = EstimationContext::new();
        let est = MncEstimator::new();
        let first = Planner::default()
            .plan_with_context(&est, &dag, &mut ctx)
            .unwrap();
        assert_eq!(ctx.stats().cache_hits, 0);
        let second = Planner::default()
            .plan_with_context(&est, &dag, &mut ctx)
            .unwrap();
        // Second plan: both leaves and the product come from the cache.
        assert_eq!(ctx.stats().cache_hits, 3);
        assert_eq!(ctx.stats().builds, 2);
        for plan in [&first, &second] {
            assert_eq!(plan.node(prod).sparsity, one_shot.node(prod).sparsity);
            assert_eq!(plan.node(prod).flops, one_shot.node(prod).flops);
            assert_eq!(plan.total_memory_bytes, one_shot.total_memory_bytes);
        }
    }

    #[test]
    fn structured_input_flips_the_format_decision() {
        // The failure mode the paper opens with: a naive estimator predicts
        // a dense output for the ultra-sparse NLP product and would
        // allocate ~m·emb·8 bytes; MNC sees one non-zero per row and keeps
        // it sparse.
        let mut r = rng(4);
        let counts = vec![1u32; 2000];
        let x = gen::rand_with_row_counts(&mut r, 2000, &counts);
        // Concentrate the tokens: only the first 20 vocabulary entries are
        // used, but W's matching rows are empty except those — make W dense
        // only in rows that are *never hit* to push the true output toward
        // empty while metadata still sees a big nnz(W).
        let w = {
            let mut triples = Vec::new();
            for row in 0..2000usize {
                if x.iter_triples().all(|(_, j, _)| j != row) {
                    for c in 0..64usize {
                        triples.push((row, c, 1.0));
                    }
                }
            }
            mnc_matrix::CsrMatrix::from_triples(2000, 64, triples).unwrap()
        };
        let mut dag = ExprDag::new();
        let nx = dag.leaf("X", Arc::new(x));
        let nw = dag.leaf("W", Arc::new(w));
        let prod = dag.matmul(nx, nw).unwrap();

        let mnc_plan = Planner::default().plan(&MncEstimator::new(), &dag).unwrap();
        let meta_plan = Planner::default().plan(&MetaAcEstimator, &dag).unwrap();
        // MetaAC assumes uniformity: nnz(X)=2000, nnz(W) large, common dim
        // 2000 -> predicts a dense-ish output. MNC sees that the occupied
        // columns of X meet empty rows of W.
        assert!(mnc_plan.node(prod).sparsity < meta_plan.node(prod).sparsity);
        assert!(
            mnc_plan.node(prod).memory_bytes <= meta_plan.node(prod).memory_bytes,
            "MNC must not over-allocate relative to MetaAC here"
        );
    }
}
