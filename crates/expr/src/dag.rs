//! Expression DAG intermediate representation.
//!
//! Nodes are input matrices (leaves) or operations; edges are data
//! dependencies. Nodes may be referenced by multiple consumers (it is a DAG,
//! not a tree), which the estimators exploit by memoizing synopses. A DAG
//! carries no identity of its own: `EstimationContext` keys a node's
//! synopsis by its content (its matrix, or its operation over its inputs'
//! keys), so equal expressions in different DAGs share cache entries.

use std::sync::Arc;

use mnc_estimators::{EstimatorError, OpKind};
use mnc_matrix::CsrMatrix;

/// Index of a node inside its [`ExprDag`].
pub type NodeId = usize;

/// A single DAG node.
#[derive(Debug, Clone)]
pub enum ExprNode {
    /// An input matrix.
    Leaf {
        /// Display name (used in experiment reports).
        name: String,
        /// The matrix itself, shared with evaluators and estimators.
        matrix: Arc<CsrMatrix>,
    },
    /// An operation over earlier nodes.
    Op {
        /// Operation kind.
        op: OpKind,
        /// Input node ids (length = `op.arity()`), all `<` this node's id.
        inputs: Vec<NodeId>,
    },
}

/// An expression DAG in topological order (inputs always precede users).
///
/// ```
/// use mnc_expr::{estimate_root, ExprDag};
/// use mnc_estimators::MncEstimator;
/// use mnc_matrix::CsrMatrix;
/// use std::sync::Arc;
///
/// let mut dag = ExprDag::new();
/// let a = dag.leaf("A", Arc::new(CsrMatrix::identity(4)));
/// let b = dag.leaf("B", Arc::new(CsrMatrix::identity(4)));
/// let c = dag.matmul(a, b).unwrap();
/// let s = estimate_root(&MncEstimator::new(), &dag, c).unwrap();
/// assert_eq!(s, 0.25); // the identity product stays diagonal
/// ```
#[derive(Debug, Clone, Default)]
pub struct ExprDag {
    nodes: Vec<ExprNode>,
    shapes: Vec<(usize, usize)>,
}

impl ExprDag {
    /// Creates an empty DAG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the DAG has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &ExprNode {
        &self.nodes[id]
    }

    /// Output shape of a node.
    pub fn shape(&self, id: NodeId) -> (usize, usize) {
        self.shapes[id]
    }

    /// Iterates `(id, node)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &ExprNode)> {
        self.nodes.iter().enumerate()
    }

    /// Adds a leaf matrix.
    pub fn leaf(&mut self, name: impl Into<String>, matrix: Arc<CsrMatrix>) -> NodeId {
        self.shapes.push(matrix.shape());
        self.nodes.push(ExprNode::Leaf {
            name: name.into(),
            matrix,
        });
        self.nodes.len() - 1
    }

    /// Adds an operation node, validating arity and shapes.
    pub fn op(&mut self, op: OpKind, inputs: &[NodeId]) -> Result<NodeId, EstimatorError> {
        if inputs.len() != op.arity() {
            return Err(EstimatorError::arity(&op, inputs.len()));
        }
        for &i in inputs {
            if i >= self.nodes.len() {
                return Err(EstimatorError::Internal(format!(
                    "input node {i} does not exist"
                )));
            }
        }
        let in_shapes: Vec<_> = inputs.iter().map(|&i| self.shapes[i]).collect();
        let shape = op.output_shape(&in_shapes)?;
        self.shapes.push(shape);
        self.nodes.push(ExprNode::Op {
            op,
            inputs: inputs.to_vec(),
        });
        Ok(self.nodes.len() - 1)
    }

    /// Convenience: `A B`.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, EstimatorError> {
        self.op(OpKind::MatMul, &[a, b])
    }

    /// Convenience: `A + B`.
    pub fn ew_add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, EstimatorError> {
        self.op(OpKind::EwAdd, &[a, b])
    }

    /// Convenience: `A ⊙ B`.
    pub fn ew_mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, EstimatorError> {
        self.op(OpKind::EwMul, &[a, b])
    }

    /// Convenience: `Aᵀ`.
    pub fn transpose(&mut self, a: NodeId) -> Result<NodeId, EstimatorError> {
        self.op(OpKind::Transpose, &[a])
    }

    /// Convenience: row-wise reshape.
    pub fn reshape(
        &mut self,
        a: NodeId,
        rows: usize,
        cols: usize,
    ) -> Result<NodeId, EstimatorError> {
        self.op(OpKind::Reshape { rows, cols }, &[a])
    }

    /// Builds a left-deep matrix product chain `M1 M2 ... Mk` and returns
    /// all intermediate node ids (`[M1·M2, M1·M2·M3, ...]`).
    pub fn left_deep_chain(&mut self, leaves: &[NodeId]) -> Result<Vec<NodeId>, EstimatorError> {
        assert!(leaves.len() >= 2, "a chain needs at least two matrices");
        let mut acc = leaves[0];
        let mut out = Vec::with_capacity(leaves.len() - 1);
        for &next in &leaves[1..] {
            acc = self.matmul(acc, next)?;
            out.push(acc);
        }
        Ok(out)
    }

    /// Renders the DAG in Graphviz dot format (leaves as boxes labelled
    /// with name and shape, operations as ellipses).
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph expr {\n  rankdir=BT;\n");
        for (id, node) in self.iter() {
            let (rows, cols) = self.shape(id);
            match node {
                ExprNode::Leaf { name, .. } => {
                    writeln!(
                        out,
                        "  n{id} [shape=box, label=\"{name}\\n{rows}x{cols}\"];"
                    )
                    .expect("writing to a String cannot fail");
                }
                ExprNode::Op { op, inputs } => {
                    writeln!(out, "  n{id} [label=\"{op:?}\\n{rows}x{cols}\"];")
                        .expect("writing to a String cannot fail");
                    for &i in inputs {
                        writeln!(out, "  n{i} -> n{id};").expect("writing to a String cannot fail");
                    }
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Leaf display name, if the node is a leaf.
    pub fn leaf_name(&self, id: NodeId) -> Option<&str> {
        match &self.nodes[id] {
            ExprNode::Leaf { name, .. } => Some(name),
            ExprNode::Op { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_matrix::gen;
    use rand::SeedableRng;

    fn arc(m: CsrMatrix) -> Arc<CsrMatrix> {
        Arc::new(m)
    }

    #[test]
    fn build_and_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", arc(gen::rand_uniform(&mut rng, 4, 6, 0.5)));
        let b = dag.leaf("B", arc(gen::rand_uniform(&mut rng, 6, 3, 0.5)));
        let c = dag.matmul(a, b).unwrap();
        assert_eq!(dag.shape(c), (4, 3));
        let t = dag.transpose(c).unwrap();
        assert_eq!(dag.shape(t), (3, 4));
        let r = dag.reshape(t, 12, 1).unwrap();
        assert_eq!(dag.shape(r), (12, 1));
        assert_eq!(dag.len(), 5);
        assert_eq!(dag.leaf_name(a), Some("A"));
        assert_eq!(dag.leaf_name(c), None);
    }

    #[test]
    fn invalid_shapes_rejected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", arc(gen::rand_uniform(&mut rng, 4, 6, 0.5)));
        let b = dag.leaf("B", arc(gen::rand_uniform(&mut rng, 4, 6, 0.5)));
        assert!(dag.matmul(a, b).is_err());
        assert!(dag.op(OpKind::MatMul, &[a]).is_err());
        assert!(dag.op(OpKind::Transpose, &[99]).is_err());
        // Failed inserts must not corrupt the DAG.
        assert_eq!(dag.len(), 2);
        assert!(dag.ew_add(a, b).is_ok());
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut dag = ExprDag::new();
        let a = dag.leaf("A", arc(gen::rand_uniform(&mut rng, 3, 4, 0.5)));
        let b = dag.leaf("B", arc(gen::rand_uniform(&mut rng, 4, 2, 0.5)));
        let c = dag.matmul(a, b).unwrap();
        let dot = dag.to_dot();
        assert!(dot.starts_with("digraph expr {"));
        assert!(dot.contains("n0 [shape=box"));
        assert!(dot.contains("MatMul"));
        assert!(dot.contains(&format!("n{a} -> n{c};")));
        assert!(dot.contains(&format!("n{b} -> n{c};")));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn left_deep_chain_shapes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut dag = ExprDag::new();
        let dims = [5usize, 7, 3, 8, 2];
        let leaves: Vec<NodeId> = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                dag.leaf(
                    format!("M{i}"),
                    arc(gen::rand_uniform(&mut rng, w[0], w[1], 0.5)),
                )
            })
            .collect();
        let mids = dag.left_deep_chain(&leaves).unwrap();
        assert_eq!(mids.len(), 3);
        assert_eq!(dag.shape(*mids.last().unwrap()), (5, 2));
    }
}
