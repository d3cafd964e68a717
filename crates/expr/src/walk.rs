//! The one DAG estimation walk.
//!
//! The paper's implementation notes (Section 3.3) describe one algorithm
//! for estimating an expression DAG: memoize intermediate synopses (nodes
//! may be reachable over several paths), propagate them depth-first, and
//! estimate the *root* directly from its input synopses, never propagating
//! it. [`Walk`] is the only implementation of it in the workspace, generic
//! over a [`DagView`] (the nodes, and how a leaf's synopsis is built) and a
//! [`SynopsisStore`] (a cache, and what happens around each piece of work).
//! [`EstimationContext`] walks an [`ExprDag`] against its cache,
//! statistics, and spans; `mnc-served` walks a request DAG whose leaf
//! synopses it resolved beforehand, with no store at all.
//!
//! Estimator calls are pure (MNC seeds each rounding from the
//! propagation's own inputs), so the order of the work never changes a
//! result. What the walk fixes is the order its store sees:
//!
//! * store probes run in pre-order: an op is probed before its inputs,
//!   inputs left to right; shared nodes are probed and computed once;
//! * the root is estimated, never propagated;
//! * the wavefront computes missed nodes level by level on a parallel
//!   [`WorkerPool`], for every estimator with a [`Sync`] view. Workers
//!   compute `(synopsis, ns)` pairs; store hooks run afterwards in
//!   ascending node order, so hit/miss and span counts equal the
//!   sequential walk's.

use std::sync::Arc;

use mnc_core::OpTimer;
use mnc_estimators::{OpKind, Result, SparsityEstimator, Synopsis};
use mnc_kernels::WorkerPool;

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

    /// Builds the synopsis of leaf `id`, which the walk has neither
    /// memoized nor found in its store. Pure: the wavefront calls it on
    /// pool workers.
    fn build<E: SparsityEstimator + ?Sized>(&self, est: &E, id: NodeId) -> Result<Synopsis>;
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

    fn build<E: SparsityEstimator + ?Sized>(&self, est: &E, id: NodeId) -> Result<Synopsis> {
        let ExprNode::Leaf { matrix, .. } = ExprDag::node(self, id) else {
            unreachable!("node {id} is an operation");
        };
        est.build(matrix)
    }
}

/// The hooks where walks differ. Every hook defaults to doing nothing
/// beyond the plain computation, so `()` is the store of a walk without a
/// cache or telemetry.
pub trait SynopsisStore<D: DagView> {
    /// Looks node `id` up before the walk computes it (at most once per
    /// node and walk, in pre-order).
    fn probe(&mut self, _dag: &D, _id: NodeId) -> Option<Arc<Synopsis>> {
        None
    }

    /// Runs just before node `id`'s build, propagation, or (`estimate`)
    /// root estimate over `ins` — on the wavefront path, at the merge.
    fn begin(&mut self, _dag: &D, _id: NodeId, _ins: &[&Synopsis], _estimate: bool) {}

    /// Runs just after that work, which took `ns` and produced `syn`
    /// (`None` for the root estimate).
    fn done(&mut self, _dag: &D, _id: NodeId, _ns: u64, _syn: Option<&Arc<Synopsis>>) {}
}

impl<D: DagView> SynopsisStore<D> for () {}

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
        let dag = self.dag;
        let Node::Op { op, inputs } = dag.node(root) else {
            return Ok(self.materialize(root)?.sparsity());
        };
        self.prefill(inputs.iter().copied())?;
        for &i in inputs {
            self.materialize(i)?;
        }
        let ins = GatheredIns::gather(inputs, &self.memo);
        self.store.begin(dag, root, ins.as_slice(), true);
        let t = OpTimer::start();
        let s = self.est.estimate(op, ins.as_slice())?;
        self.store.done(dag, root, t.elapsed_ns(), None);
        Ok(s)
    }

    /// The synopsis of node `id`.
    pub fn synopsis(&mut self, id: NodeId) -> Result<Arc<Synopsis>> {
        self.prefill([id])?;
        self.materialize(id)
    }

    /// The synopsis of every node, in topological order.
    pub fn materialize_all(&mut self) -> Result<Vec<Arc<Synopsis>>> {
        self.prefill(0..self.dag.len())?;
        (0..self.dag.len()).map(|id| self.materialize(id)).collect()
    }

    /// Depth-first materialization: from the memo, else from the store,
    /// else computed (inputs first, in order) between the store's hooks.
    /// The memo keeps the walk's synopses alive even if the store drops
    /// them.
    fn materialize(&mut self, id: NodeId) -> Result<Arc<Synopsis>> {
        if let Some(syn) = &self.memo[id] {
            return Ok(Arc::clone(syn));
        }
        let dag = self.dag;
        let syn = match self.store.probe(dag, id) {
            Some(syn) => syn,
            None => {
                let node = dag.node(id);
                for &i in node.inputs() {
                    self.materialize(i)?;
                }
                let ins = GatheredIns::gather(node.inputs(), &self.memo);
                self.store.begin(dag, id, ins.as_slice(), false);
                let t = OpTimer::start();
                let syn = Arc::new(match node {
                    Node::Leaf => dag.build(self.est, id)?,
                    Node::Op { op, .. } => self.est.propagate(op, ins.as_slice())?,
                });
                self.store.done(dag, id, t.elapsed_ns(), Some(&syn));
                syn
            }
        };
        self.memo[id] = Some(Arc::clone(&syn));
        Ok(syn)
    }

    /// Computes every node reachable from `roots` that neither the memo
    /// nor the store has, in wavefronts of the nodes whose inputs are all
    /// memoized. A no-op unless the pool is parallel **and** the estimator
    /// has a [`Sync`] view ([`as_sync`](SparsityEstimator::as_sync)).
    fn prefill<I>(&mut self, roots: I) -> Result<()>
    where
        I: IntoIterator<Item = NodeId>,
        I::IntoIter: DoubleEndedIterator,
    {
        let est = match self.est.as_sync() {
            Some(est) if self.pool.is_parallel() => est,
            _ => return Ok(()),
        };
        let dag = self.dag;

        // Discovery replays the sequential walk's pre-order probes, so
        // hit/miss counts match it exactly.
        let mut missed = vec![false; dag.len()];
        let mut stack: Vec<NodeId> = roots.into_iter().rev().collect();
        while let Some(id) = stack.pop() {
            if self.memo[id].is_some() || missed[id] {
                continue;
            }
            match self.store.probe(dag, id) {
                Some(syn) => self.memo[id] = Some(syn),
                None => {
                    missed[id] = true;
                    stack.extend(dag.node(id).inputs().iter().rev());
                }
            }
        }

        // Ascending id is topological, and every input of a missed node is
        // memoized or missed itself, so each wavefront is non-empty.
        let mut pending: Vec<NodeId> = (0..dag.len()).filter(|&id| missed[id]).collect();
        while !pending.is_empty() {
            let memo = &self.memo[..];
            let (batch, rest): (Vec<NodeId>, Vec<NodeId>) = pending
                .iter()
                .partition(|&&id| dag.node(id).inputs().iter().all(|&i| memo[i].is_some()));
            debug_assert!(!batch.is_empty(), "a wavefront made no progress");
            pending = rest;
            let results = self.pool.run(batch.len(), |k| -> Result<(Synopsis, u64)> {
                let t = OpTimer::start();
                let syn = match dag.node(batch[k]) {
                    Node::Leaf => dag.build(est, batch[k])?,
                    Node::Op { op, inputs } => {
                        est.propagate(op, GatheredIns::gather(inputs, memo).as_slice())?
                    }
                };
                Ok((syn, t.elapsed_ns()))
            });
            for (&id, res) in batch.iter().zip(results) {
                let (syn, ns) = res?;
                let syn = Arc::new(syn);
                let ins = GatheredIns::gather(dag.node(id).inputs(), &self.memo);
                self.store.begin(dag, id, ins.as_slice(), false);
                self.store.done(dag, id, ns, Some(&syn));
                self.memo[id] = Some(syn);
            }
        }
        Ok(())
    }
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
