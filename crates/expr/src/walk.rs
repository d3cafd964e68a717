//! The one DAG estimation walk.
//!
//! The paper's implementation notes (Section 3.3) describe one algorithm
//! for estimating an expression DAG: memoize intermediate synopses (nodes
//! may be reachable over several paths), propagate them, and estimate the
//! *root* directly from its input synopses, never propagating it. [`Walk`]
//! is the only implementation of it in the workspace, generic over a
//! [`DagView`] (the nodes, and the matrices behind the leaves) and a
//! [`SynopsisStore`] (a cache, statistics, and a recorder for spans).
//! [`EstimationContext`] walks an [`ExprDag`] against its cache;
//! `mnc-served` walks a request DAG whose leaf synopses it resolved
//! beforehand, with no store at all.
//!
//! The walk has one compute path, a wavefront, at every thread count.
//! Store probes run in pre-order (an op before its inputs, inputs left to
//! right, shared nodes once). The missed nodes then run level by level on
//! the [`WorkerPool`] (inline at one worker); the thread that builds or
//! propagates a node opens its span, so the span times that work. A merge
//! in ascending node id hands each result to [`SynopsisStore::done`], and
//! its first error ends the walk. Estimator calls are pure (MNC seeds each
//! rounding from the propagation's own inputs), so neither results, store
//! statistics, nor the error depend on the thread count. The root is
//! estimated, never propagated.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use mnc_core::OpTimer;
use mnc_estimators::{OpKind, Result, SparsityEstimator, Synopsis};
use mnc_kernels::WorkerPool;
use mnc_matrix::CsrMatrix;
use mnc_obs::{Recorder, SpanGuard};

use crate::dag::{ExprDag, ExprNode, NodeId};
use crate::session::EstimationContext;

/// One node as the walk sees it.
pub enum Node<'a> {
    /// A base matrix.
    Leaf,
    /// An operation over earlier nodes.
    Op {
        /// The operation.
        op: &'a OpKind,
        /// Input node ids, each smaller than this node's id.
        inputs: &'a [NodeId],
    },
}

impl<'a> Node<'a> {
    fn inputs(&self) -> &'a [NodeId] {
        match self {
            Node::Leaf => &[],
            Node::Op { inputs, .. } => inputs,
        }
    }
}

/// A DAG the walk can traverse: nodes `0..len()`, where every op's inputs
/// have smaller ids than the op, so ascending id is a topological order.
pub trait DagView: Sync {
    /// Number of nodes.
    fn len(&self) -> usize;

    /// True if the DAG has no nodes.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node with the given id.
    fn node(&self, id: NodeId) -> Node<'_>;

    /// The matrix behind leaf `id`, which the walk builds a synopsis from
    /// when neither its memo nor its store has one; `None` for a view
    /// whose leaf synopses are all known before the walk.
    fn matrix(&self, id: NodeId) -> Option<&Arc<CsrMatrix>>;
}

impl DagView for ExprDag {
    fn len(&self) -> usize {
        ExprDag::len(self)
    }

    fn node(&self, id: NodeId) -> Node<'_> {
        match ExprDag::node(self, id) {
            ExprNode::Leaf { .. } => Node::Leaf,
            ExprNode::Op { op, inputs } => Node::Op { op, inputs },
        }
    }

    fn matrix(&self, id: NodeId) -> Option<&Arc<CsrMatrix>> {
        match ExprDag::node(self, id) {
            ExprNode::Leaf { matrix, .. } => Some(matrix),
            ExprNode::Op { .. } => None,
        }
    }
}

/// The hooks where walks differ. Every hook defaults to doing nothing
/// beyond the plain computation, so `()` is the store of a walk without a
/// cache or telemetry.
pub trait SynopsisStore<D: DagView> {
    /// What identifies a node's synopsis: nodes with equal keys have equal
    /// synopses.
    type Key: Eq + Hash;

    /// The key of node `id`, or `None` (the default) for a store that tells
    /// nodes apart by id only. The walk computes one synopsis per key.
    fn key(&mut self, _dag: &D, _id: NodeId) -> Option<Self::Key> {
        None
    }

    /// Looks node `id` up before the walk computes it (at most once per
    /// node and walk, in pre-order).
    fn probe(&mut self, _dag: &D, _id: NodeId) -> Option<Arc<Synopsis>> {
        None
    }

    /// The recorder that gets a `build`, `propagate` or `estimate` span
    /// around each piece of the walk's work, or `None` (the default).
    fn recorder(&self) -> Option<&Recorder> {
        None
    }

    /// Runs at the merge, after node `id`'s build, propagation, or root
    /// estimate took `ns` and produced `syn` (`None` for the root
    /// estimate).
    fn done(&mut self, _dag: &D, _id: NodeId, _ns: u64, _syn: Option<&Arc<Synopsis>>) {}
}

impl<D: DagView> SynopsisStore<D> for () {
    type Key = ();
}

/// Why a node's memo slot is set after `fill` reached it.
const FILLED: &str = "fill memoizes every node it reaches";

/// One walk over one DAG: the estimator, the store, and the per-walk memo.
pub struct Walk<'a, E: ?Sized, D, S> {
    est: &'a E,
    dag: &'a D,
    pool: &'a WorkerPool,
    store: S,
    memo: Vec<Option<Arc<Synopsis>>>,
}

impl<'a, E, D, S> Walk<'a, E, D, S>
where
    E: SparsityEstimator + ?Sized,
    D: DagView,
    S: SynopsisStore<D>,
{
    /// A walk over `dag`. `memo` holds the synopses already known, by node
    /// id — pre-resolved leaves, or an empty buffer to reuse (see
    /// [`into_memo`](Self::into_memo)); it is resized to the DAG.
    pub fn new(
        est: &'a E,
        dag: &'a D,
        pool: &'a WorkerPool,
        store: S,
        mut memo: Vec<Option<Arc<Synopsis>>>,
    ) -> Self {
        memo.resize(dag.len(), None);
        Walk {
            est,
            dag,
            pool,
            store,
            memo,
        }
    }

    /// Ends the walk, returning its memo buffer emptied for reuse.
    pub fn into_memo(mut self) -> Vec<Option<Arc<Synopsis>>> {
        self.memo.clear();
        self.memo
    }

    /// The synopsis of node `id`, if this walk has materialized it.
    pub fn memoized(&self, id: NodeId) -> Option<&Arc<Synopsis>> {
        self.memo[id].as_ref()
    }

    /// Estimates the sparsity of `root`: an op root directly from its
    /// inputs, a leaf root as its synopsis' sparsity.
    pub fn estimate_root(&mut self, root: NodeId) -> Result<f64> {
        let (est, dag) = (self.est, self.dag);
        let Node::Op { op, inputs } = dag.node(root) else {
            return Ok(self.synopsis(root)?.sparsity());
        };
        self.fill(inputs.iter().copied())?;
        let ins = GatheredIns::gather(inputs, &self.memo);
        let ins = ins.as_slice();
        let (s, ns) = timed(
            self.store.recorder(),
            |rec| span_over(rec, "estimate", op, ins),
            || est.estimate(op, ins),
        )?;
        self.store.done(dag, root, ns, None);
        Ok(s)
    }

    /// The synopsis of node `id`.
    pub fn synopsis(&mut self, id: NodeId) -> Result<Arc<Synopsis>> {
        self.fill([id])?;
        Ok(self.memo[id].clone().expect(FILLED))
    }

    /// The synopsis of every node, in topological order.
    pub fn materialize_all(&mut self) -> Result<Vec<Arc<Synopsis>>> {
        self.fill(0..self.dag.len())?;
        Ok(self
            .memo
            .iter()
            .map(|syn| syn.clone().expect(FILLED))
            .collect())
    }

    /// Memoizes every node reachable from `roots`: from the memo, else
    /// from the store, else computed in levels of the nodes whose inputs
    /// are all memoized. The memo keeps the walk's synopses alive even if
    /// the store drops them.
    fn fill<I>(&mut self, roots: I) -> Result<()>
    where
        I: IntoIterator<Item = NodeId>,
        I::IntoIter: DoubleEndedIterator,
    {
        let (est, dag) = (self.est, self.dag);

        // Pre-order probes. A node whose key an earlier miss shares is that
        // miss's twin: it is probed once the miss is computed, and hits.
        let mut seen = vec![false; dag.len()];
        let mut pending: Vec<NodeId> = Vec::new();
        let mut first_miss: HashMap<S::Key, NodeId> = HashMap::new();
        let mut twins: Vec<(NodeId, NodeId)> = Vec::new();
        let mut stack: Vec<NodeId> = roots.into_iter().rev().collect();
        while let Some(id) = stack.pop() {
            if self.memo[id].is_some() || seen[id] {
                continue;
            }
            seen[id] = true;
            let key = self.store.key(dag, id);
            if let Some(&miss) = key.as_ref().and_then(|k| first_miss.get(k)) {
                twins.push((id, miss));
                continue;
            }
            match self.store.probe(dag, id) {
                Some(syn) => self.memo[id] = Some(syn),
                None => {
                    pending.push(id);
                    first_miss.extend(key.map(|k| (k, id)));
                    stack.extend(dag.node(id).inputs().iter().rev());
                }
            }
        }

        // Ascending id is topological, and every input of a missed node is
        // memoized or missed itself, so each level is non-empty.
        pending.sort_unstable();
        let mut level = Vec::new();
        while !pending.is_empty() {
            let memo = &self.memo[..];
            level.clear();
            pending.retain(|&id| {
                let ready = dag.node(id).inputs().iter().all(|&i| memo[i].is_some());
                if ready {
                    level.push(id);
                }
                !ready
            });
            debug_assert!(!level.is_empty(), "a wavefront made no progress");
            let rec = self.store.recorder();
            let results = self.pool.run(level.len(), |k| {
                let id = level[k];
                match dag.node(id) {
                    Node::Leaf => {
                        let m = dag.matrix(id).expect("an unresolved leaf has a matrix");
                        build(est, rec, m)
                    }
                    Node::Op { op, inputs } => {
                        propagate(est, rec, op, GatheredIns::gather(inputs, memo).as_slice())
                    }
                }
            });
            for (&id, res) in level.iter().zip(results) {
                let (syn, ns) = res?;
                self.store.done(dag, id, ns, Some(&syn));
                self.memo[id] = Some(syn);
            }
            // Probe each twin whose miss is now computed; take the miss's
            // synopsis should the store no longer hold it.
            twins.retain(|&(id, miss)| {
                let Some(computed) = self.memo[miss].clone() else {
                    return true;
                };
                self.memo[id] = Some(self.store.probe(dag, id).unwrap_or(computed));
                false
            });
        }
        debug_assert!(twins.is_empty(), "every twin's miss is computed");
        Ok(())
    }
}

/// Runs one piece of estimation work — a build, a propagation, or a root
/// estimate — on the calling thread, and times it. With an enabled `rec`
/// the work runs inside the span `open` opens, and a synopsis result
/// stamps its non-zeros and bytes on it.
pub(crate) fn timed<T: Traced>(
    rec: Option<&Recorder>,
    open: impl FnOnce(&Recorder) -> SpanGuard,
    work: impl FnOnce() -> Result<T>,
) -> Result<(T, u64)> {
    let mut span = rec.filter(|rec| rec.is_enabled()).map(open);
    let t = OpTimer::start();
    let out = work()?;
    let ns = t.elapsed_ns();
    if let Some(span) = &mut span {
        out.stamp(span);
    }
    Ok((out, ns))
}

/// What a [`timed`] result stamps on its span.
pub(crate) trait Traced {
    fn stamp(&self, _span: &mut SpanGuard) {}
}

impl Traced for f64 {}

impl Traced for Arc<Synopsis> {
    fn stamp(&self, span: &mut SpanGuard) {
        span.set_nnz_out(self.nnz());
        span.set_bytes(self.size_bytes());
    }
}

/// Builds the synopsis of `m` inside a `build` span.
pub(crate) fn build<E: SparsityEstimator + ?Sized>(
    est: &E,
    rec: Option<&Recorder>,
    m: &Arc<CsrMatrix>,
) -> Result<(Arc<Synopsis>, u64)> {
    timed(
        rec,
        |rec| rec.span("build").op(est.name()).nnz_in(m.nnz() as u64),
        || est.build(m).map(Arc::new),
    )
}

/// Propagates `op` over `ins` inside a `propagate` span.
pub(crate) fn propagate<E: SparsityEstimator + ?Sized>(
    est: &E,
    rec: Option<&Recorder>,
    op: &OpKind,
    ins: &[&Synopsis],
) -> Result<(Arc<Synopsis>, u64)> {
    timed(
        rec,
        |rec| span_over(rec, "propagate", op, ins),
        || est.propagate(op, ins).map(Arc::new),
    )
}

/// The span of `op` over `ins`. `Synopsis::nnz` is not free for every
/// synopsis (bitsets count bits), so only a tracing walk asks for it.
fn span_over(rec: &Recorder, name: &'static str, op: &OpKind, ins: &[&Synopsis]) -> SpanGuard {
    rec.span(name)
        .op(op.name())
        .nnz_in(ins.iter().map(|s| s.nnz()).sum())
}

/// Input synopses of an op node, gathered without a heap allocation for the
/// unary/binary cases (every op in [`OpKind`] today).
enum GatheredIns<'a> {
    Inline([&'a Synopsis; 2], usize),
    Heap(Vec<&'a Synopsis>),
}

impl<'a> GatheredIns<'a> {
    fn gather(inputs: &[NodeId], memo: &'a [Option<Arc<Synopsis>>]) -> GatheredIns<'a> {
        let at = |i: NodeId| memo[i].as_deref().expect("inputs materialize first");
        match *inputs {
            [a] => GatheredIns::Inline([at(a), at(a)], 1),
            [a, b] => GatheredIns::Inline([at(a), at(b)], 2),
            _ => GatheredIns::Heap(inputs.iter().map(|&i| at(i)).collect()),
        }
    }

    fn as_slice(&self) -> &[&'a Synopsis] {
        match self {
            GatheredIns::Inline(arr, n) => &arr[..*n],
            GatheredIns::Heap(v) => v,
        }
    }
}

/// Estimate for one DAG node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeEstimate {
    /// The node.
    pub id: NodeId,
    /// Estimated sparsity in `[0, 1]`.
    pub sparsity: f64,
}

/// Estimates the sparsity of `root` under the given estimator in a
/// throwaway [`EstimationContext`]: leaf synopses are built, intermediate
/// synopses propagated (memoized), and the root is estimated directly. Hold
/// a context to reuse synopses over repeated estimation.
pub fn estimate_root<E: SparsityEstimator + ?Sized>(
    est: &E,
    dag: &ExprDag,
    root: NodeId,
) -> Result<f64> {
    EstimationContext::new().estimate_root(est, dag, root)
}

/// Estimates the sparsity of *every* operation node in the DAG in a
/// throwaway [`EstimationContext`] (used by the chain experiments that
/// report all intermediates, e.g. Figure 15).
pub fn estimate_all<E: SparsityEstimator + ?Sized>(
    est: &E,
    dag: &ExprDag,
) -> Result<Vec<NodeEstimate>> {
    EstimationContext::new().estimate_all(est, dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use mnc_estimators::{BitsetEstimator, MetaAcEstimator, MncEstimator};
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn chain_dag(seed: u64) -> (ExprDag, NodeId) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", Arc::new(gen::rand_uniform(&mut rng, 40, 30, 0.1)));
        let b = dag.leaf("B", Arc::new(gen::rand_uniform(&mut rng, 30, 50, 0.08)));
        let c = dag.leaf("C", Arc::new(gen::rand_uniform(&mut rng, 50, 20, 0.12)));
        let ab = dag.matmul(a, b).unwrap();
        let root = dag.matmul(ab, c).unwrap();
        (dag, root)
    }

    #[test]
    fn bitset_root_estimate_is_exact() {
        let (dag, root) = chain_dag(1);
        let est = estimate_root(&BitsetEstimator::default(), &dag, root).unwrap();
        let truth = Evaluator::new().sparsity(&dag, root).unwrap();
        assert!((est - truth).abs() < 1e-15);
    }

    #[test]
    fn mnc_chain_estimate_close() {
        let (dag, root) = chain_dag(2);
        let est = estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        let truth = Evaluator::new().sparsity(&dag, root).unwrap();
        let rel = est.max(truth) / est.min(truth).max(1e-12);
        assert!(rel < 1.5, "relative error {rel} (est {est}, truth {truth})");
    }

    #[test]
    fn meta_ac_runs_on_any_dag() {
        let (dag, root) = chain_dag(3);
        let est = estimate_root(&MetaAcEstimator, &dag, root).unwrap();
        assert!((0.0..=1.0).contains(&est));
    }

    #[test]
    fn estimate_all_covers_every_op_node() {
        let (dag, _) = chain_dag(4);
        let all = estimate_all(&MncEstimator::new(), &dag).unwrap();
        // Two products in the chain.
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|e| (0.0..=1.0).contains(&e.sparsity)));
    }

    #[test]
    fn leaf_root_returns_exact_sparsity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let m = gen::rand_uniform(&mut rng, 10, 10, 0.23);
        let s = m.sparsity();
        let mut dag = ExprDag::new();
        let leaf = dag.leaf("A", Arc::new(m));
        let est = estimate_root(&MncEstimator::new(), &dag, leaf).unwrap();
        assert!((est - s).abs() < 1e-15);
    }

    #[test]
    fn mixed_expression_all_estimators_that_support_it() {
        // reshape(X W) — the B3.1 shape.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut dag = ExprDag::new();
        let counts = vec![1u32; 60];
        let x = dag.leaf(
            "X",
            Arc::new(gen::rand_with_row_counts(&mut rng, 40, &counts)),
        );
        let w = dag.leaf("W", Arc::new(gen::rand_dense(&mut rng, 40, 30)));
        let xw = dag.matmul(x, w).unwrap();
        let root = dag
            .op(OpKind::Reshape { rows: 30, cols: 60 }, &[xw])
            .unwrap();
        let truth = Evaluator::new().sparsity(&dag, root).unwrap();
        let mnc = estimate_root(&MncEstimator::new(), &dag, root).unwrap();
        // Single non-zero per row + sparsity-preserving reshape: exact.
        assert!((mnc - truth).abs() < 1e-12, "mnc {mnc} truth {truth}");
    }
}
