//! The service-side estimation walk.
//!
//! `POST /v1/estimate` carries a small expression DAG over *named* catalog
//! matrices. This module validates it and runs it through the one DAG walk
//! ([`mnc_expr::walk`]) that [`mnc_expr::EstimationContext::estimate_root`]
//! runs, so a client talking HTTP gets **bit-identical** numbers to one
//! linking the crates directly. Leaves resolve to catalog synopses before
//! the walk (built by deterministic
//! [`MncSketch::build`](mnc_core::MncSketch::build), so loading equals
//! building); the walk itself has no cache and holds no service lock. MNC
//! propagation is a pure function of its inputs, so one estimator serves
//! every request, and responses are independent of request ordering under
//! concurrency.

use std::sync::Arc;

use mnc_core::serialize::to_bytes;
use mnc_core::OpKind;
use mnc_estimators::{SparsityEstimator, Synopsis};
use mnc_expr::walk::{DagView, Node, Walk};
use mnc_kernels::WorkerPool;
use mnc_matrix::CsrMatrix;

use crate::error::ServiceError;

/// Cap on nodes per request DAG — keeps recursion and per-request work
/// bounded (requests beyond it are `413`, not truncated).
pub const MAX_DAG_NODES: usize = 256;

/// One node of a request DAG. Operation inputs refer to *earlier* node
/// indices, so a well-formed spec is topologically ordered by construction.
#[derive(Debug, Clone)]
pub enum NodeSpec {
    /// A named catalog matrix.
    Leaf(String),
    /// An operation over earlier nodes.
    Op {
        /// The operation.
        op: OpKind,
        /// Indices of input nodes (each `<` this node's own index).
        inputs: Vec<usize>,
    },
}

/// A validated request DAG.
#[derive(Debug, Clone)]
pub struct DagSpec {
    /// Topologically ordered nodes.
    pub nodes: Vec<NodeSpec>,
    /// Index of the node whose sparsity is requested.
    pub root: usize,
}

impl DagSpec {
    /// Structural validation: non-empty, bounded, indices in order, arity
    /// correct. Shape errors surface later from the estimator itself.
    pub fn validate(&self) -> Result<(), ServiceError> {
        if self.nodes.is_empty() {
            return Err(ServiceError::BadRequest("empty dag".into()));
        }
        if self.nodes.len() > MAX_DAG_NODES {
            return Err(ServiceError::TooLarge(format!(
                "dag has {} nodes; the limit is {MAX_DAG_NODES}",
                self.nodes.len()
            )));
        }
        if self.root >= self.nodes.len() {
            return Err(ServiceError::BadRequest(format!(
                "root {} out of bounds ({} nodes)",
                self.root,
                self.nodes.len()
            )));
        }
        for (idx, node) in self.nodes.iter().enumerate() {
            if let NodeSpec::Op { op, inputs } = node {
                if inputs.len() != op.arity() {
                    return Err(mnc_core::EstimatorError::arity(op, inputs.len()).into());
                }
                for &i in inputs {
                    if i >= idx {
                        return Err(ServiceError::BadRequest(format!(
                            "node {idx} references node {i}; inputs must point at \
                             earlier nodes"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// The distinct leaf names, in first-reference order.
    pub fn leaf_names(&self) -> Vec<&str> {
        let mut names = Vec::new();
        for node in &self.nodes {
            if let NodeSpec::Leaf(name) = node {
                if !names.contains(&name.as_str()) {
                    names.push(name.as_str());
                }
            }
        }
        names
    }
}

/// Request DAGs only reference earlier indices, so ascending index *is*
/// topological order. Leaf synopses come from the catalog, never from a
/// build, so the view has no matrices.
impl DagView for DagSpec {
    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn node(&self, id: usize) -> Node<'_> {
        match &self.nodes[id] {
            NodeSpec::Leaf(_) => Node::Leaf,
            NodeSpec::Op { op, inputs } => Node::Op { op, inputs },
        }
    }

    fn matrix(&self, _id: usize) -> Option<&Arc<CsrMatrix>> {
        None
    }
}

/// Result of one estimation walk.
#[derive(Debug, Clone)]
pub struct EstimateOutcome {
    /// Estimated sparsity of the root in `[0, 1]`.
    pub sparsity: f64,
    /// Implied non-zero count `round(sparsity * rows * cols)`.
    pub nnz: u64,
    /// Output shape of the root.
    pub shape: (usize, usize),
    /// Serialized root sketch (MNCS bytes), when requested.
    pub sketch_bytes: Option<Vec<u8>>,
}

/// Runs the walk on a one-worker pool (its wavefront levels run inline on
/// the calling thread). `leaves[i]` must hold the synopsis for every
/// [`NodeSpec::Leaf`] at index `i` (the service resolves them from the
/// catalog before calling, so propagation runs lock-free).
pub fn estimate_dag<E: SparsityEstimator + ?Sized>(
    est: &E,
    dag: &DagSpec,
    leaves: &[Option<Arc<Synopsis>>],
    want_sketch: bool,
) -> Result<EstimateOutcome, ServiceError> {
    debug_assert_eq!(leaves.len(), dag.nodes.len());
    // The resolved leaves seed the walk's memo, so it never builds one.
    let memo = dag
        .nodes
        .iter()
        .zip(leaves)
        .map(|(node, syn)| match node {
            NodeSpec::Leaf(name) => syn
                .clone()
                .map(Some)
                .ok_or_else(|| ServiceError::UnknownMatrix(name.clone())),
            NodeSpec::Op { .. } => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let pool = WorkerPool::new(1);
    let mut walk = Walk::new(est, dag, &pool, (), memo);
    let sparsity = walk.estimate_root(dag.root)?;
    let shape_of = |i: usize| {
        walk.memoized(i)
            .expect("materialized by the estimate")
            .shape()
    };
    let shape = match &dag.nodes[dag.root] {
        NodeSpec::Leaf(_) => shape_of(dag.root),
        NodeSpec::Op { op, inputs } => {
            op.output_shape(&inputs.iter().map(|&i| shape_of(i)).collect::<Vec<_>>())?
        }
    };
    let nnz = (sparsity * shape.0 as f64 * shape.1 as f64).round() as u64;

    // The optional root sketch is propagated after the estimate, from the
    // inputs the estimate already materialized.
    let sketch_bytes = if want_sketch {
        match &*walk.synopsis(dag.root)? {
            Synopsis::Mnc(s) => Some(to_bytes(&s.sketch)),
            _ => {
                return Err(ServiceError::BadRequest(
                    "sketch output is only available from the MNC estimator".into(),
                ))
            }
        }
    } else {
        None
    };

    Ok(EstimateOutcome {
        sparsity,
        nnz,
        shape,
        sketch_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_estimators::MncEstimator;
    use mnc_expr::ExprDag;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn leaf(name: &str) -> NodeSpec {
        NodeSpec::Leaf(name.to_string())
    }

    fn op(kind: OpKind, inputs: &[usize]) -> NodeSpec {
        NodeSpec::Op {
            op: kind,
            inputs: inputs.to_vec(),
        }
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let empty = DagSpec {
            nodes: vec![],
            root: 0,
        };
        assert!(matches!(empty.validate(), Err(ServiceError::BadRequest(_))));

        let fwd = DagSpec {
            nodes: vec![op(OpKind::MatMul, &[0, 1]), leaf("A")],
            root: 0,
        };
        assert!(fwd.validate().is_err(), "forward reference must fail");

        let arity = DagSpec {
            nodes: vec![leaf("A"), op(OpKind::MatMul, &[0])],
            root: 1,
        };
        assert!(matches!(
            arity.validate(),
            Err(ServiceError::Estimator(
                mnc_core::EstimatorError::ArityMismatch { .. }
            ))
        ));

        let big = DagSpec {
            nodes: (0..=MAX_DAG_NODES).map(|_| leaf("A")).collect(),
            root: 0,
        };
        assert!(matches!(big.validate(), Err(ServiceError::TooLarge(_))));
    }

    /// The whole point of the module: the service walk answers exactly what
    /// the in-process `EstimationContext` answers, bit for bit.
    #[test]
    fn walk_is_bit_identical_to_estimation_context() {
        let mut r = rand::rngs::StdRng::seed_from_u64(42);
        let a = Arc::new(gen::rand_uniform(&mut r, 50, 40, 0.08));
        let b = Arc::new(gen::rand_uniform(&mut r, 40, 60, 0.12));
        let c = Arc::new(gen::rand_uniform(&mut r, 60, 30, 0.1));

        // In-process path: an ExprDag through a cold context.
        let mut lib_dag = ExprDag::new();
        let la = lib_dag.leaf("A", Arc::clone(&a));
        let lb = lib_dag.leaf("B", Arc::clone(&b));
        let lc = lib_dag.leaf("C", Arc::clone(&c));
        let ab = lib_dag.matmul(la, lb).unwrap();
        let root = lib_dag.matmul(ab, lc).unwrap();
        let expected = mnc_expr::EstimationContext::new()
            .estimate_root(&MncEstimator::new(), &lib_dag, root)
            .unwrap();

        // Service path: catalog sketches + the request walk.
        let est = MncEstimator::new();
        let syn = |m| Arc::new(est.build(m).unwrap());
        let dag = DagSpec {
            nodes: vec![
                leaf("A"),
                leaf("B"),
                leaf("C"),
                op(OpKind::MatMul, &[0, 1]),
                op(OpKind::MatMul, &[3, 2]),
            ],
            root: 4,
        };
        dag.validate().unwrap();
        let leaves = vec![Some(syn(&a)), Some(syn(&b)), Some(syn(&c)), None, None];
        let got = estimate_dag(&MncEstimator::new(), &dag, &leaves, false).unwrap();

        assert_eq!(got.sparsity.to_bits(), expected.to_bits());
        assert_eq!(got.shape, (50, 30));
    }

    #[test]
    fn shared_nodes_propagate_once() {
        // (A B) + (A B): the shared product is one memo entry, like the
        // context's, and the answer is the library's.
        let mut r = rand::rngs::StdRng::seed_from_u64(7);
        let a = Arc::new(gen::rand_uniform(&mut r, 30, 30, 0.1));
        let b = Arc::new(gen::rand_uniform(&mut r, 30, 30, 0.1));

        let mut lib_dag = ExprDag::new();
        let la = lib_dag.leaf("A", Arc::clone(&a));
        let lb = lib_dag.leaf("B", Arc::clone(&b));
        let ab = lib_dag.matmul(la, lb).unwrap();
        let root = lib_dag.op(OpKind::EwAdd, &[ab, ab]).unwrap();
        let expected = mnc_expr::EstimationContext::new()
            .estimate_root(&MncEstimator::new(), &lib_dag, root)
            .unwrap();

        let est = MncEstimator::new();
        let dag = DagSpec {
            nodes: vec![
                leaf("A"),
                leaf("B"),
                op(OpKind::MatMul, &[0, 1]),
                op(OpKind::EwAdd, &[2, 2]),
            ],
            root: 3,
        };
        let leaves = vec![
            Some(Arc::new(est.build(&a).unwrap())),
            Some(Arc::new(est.build(&b).unwrap())),
            None,
            None,
        ];
        let got = estimate_dag(&MncEstimator::new(), &dag, &leaves, false).unwrap();
        assert_eq!(got.sparsity.to_bits(), expected.to_bits());
    }

    #[test]
    fn sketch_request_does_not_perturb_the_estimate() {
        let mut r = rand::rngs::StdRng::seed_from_u64(9);
        let a = Arc::new(gen::rand_uniform(&mut r, 25, 35, 0.15));
        let b = Arc::new(gen::rand_uniform(&mut r, 35, 20, 0.15));
        let est = MncEstimator::new();
        let dag = DagSpec {
            nodes: vec![leaf("A"), leaf("B"), op(OpKind::MatMul, &[0, 1])],
            root: 2,
        };
        let leaves = vec![
            Some(Arc::new(est.build(&a).unwrap())),
            Some(Arc::new(est.build(&b).unwrap())),
            None,
        ];
        let plain = estimate_dag(&MncEstimator::new(), &dag, &leaves, false).unwrap();
        let with_sketch = estimate_dag(&MncEstimator::new(), &dag, &leaves, true).unwrap();
        assert_eq!(plain.sparsity.to_bits(), with_sketch.sparsity.to_bits());
        let bytes = with_sketch.sketch_bytes.unwrap();
        let sk = mnc_core::from_bytes(&bytes).unwrap();
        assert_eq!((sk.nrows, sk.ncols), plain.shape);
    }

    #[test]
    fn leaf_root_returns_exact_sparsity() {
        let mut r = rand::rngs::StdRng::seed_from_u64(11);
        let a = Arc::new(gen::rand_uniform(&mut r, 12, 18, 0.3));
        let est = MncEstimator::new();
        let dag = DagSpec {
            nodes: vec![leaf("A")],
            root: 0,
        };
        let leaves = vec![Some(Arc::new(est.build(&a).unwrap()))];
        let got = estimate_dag(&MncEstimator::new(), &dag, &leaves, false).unwrap();
        assert_eq!(got.sparsity.to_bits(), a.sparsity().to_bits());
        assert_eq!(got.nnz, a.nnz() as u64);
    }
}
