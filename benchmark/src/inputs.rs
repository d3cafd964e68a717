//! Seeded inputs for every workload: matrices, request templates, and the
//! exact request and ingest bodies the daemon receives.
//!
//! Everything here is a pure function of the seed, so the same `--seed`
//! sends byte-identical traffic. The workload's definition — matrix shapes
//! and structure classes, template shapes, the request mix — does not
//! depend on the seed; the seed draws matrix contents and the request
//! order. Runs with different seeds therefore measure the same workload,
//! and storage sizes are comparable across seeds.

use std::collections::BTreeMap;
use std::sync::Arc;

use mnc_core::SplitMix64;
use mnc_expr::chain_opt::{random_plan, PlanTree};
use mnc_expr::{ExprDag, ExprNode, NodeId, OpKind};
use mnc_matrix::{gen, ops, CsrMatrix};
use mnc_served::{DagSpec, NodeSpec};
use mnc_sparsest::usecases::{b2_suite, b3_suite};
use mnc_sparsest::Datasets;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Small sketches over HTTP: the round trip is dominated by the server's
    /// HTTP and JSON layers, not by estimation.
    ServeSmall,
    /// The SparsEst B2/B3 datasets over HTTP: the round trip is dominated by
    /// the estimation walk.
    ServeDeep,
    /// Estimates beside a stream of ingests that rebind names and clear
    /// sessions, then a kill and restart.
    IngestChurn,
    /// The embedded optimizer: no daemon, no HTTP.
    OptimizerInproc,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeSmall,
        Workload::ServeDeep,
        Workload::IngestChurn,
        Workload::OptimizerInproc,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve_small",
            Workload::ServeDeep => "serve_deep",
            Workload::IngestChurn => "ingest_churn",
            Workload::OptimizerInproc => "optimizer_inproc",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rate of the traced run's open-loop phase, requests per second.
    pub fn open_loop_rate(self) -> f64 {
        match self {
            Workload::ServeSmall => 4000.0,
            Workload::IngestChurn => 2000.0,
            Workload::ServeDeep | Workload::OptimizerInproc => 500.0,
        }
    }
}

/// Distinct session ids the served clients spread their requests over
/// (below the daemon's 64-session cap).
pub const CLIENT_IDS: usize = 16;
/// Request templates per workload.
pub const TEMPLATES: usize = 256;
/// Matrices in the `serve_small` catalog.
pub const SMALL_MATRICES: usize = 64;
/// Static (estimated) matrices in `ingest_churn`.
pub const CHURN_STATIC: usize = 16;
/// Names that `ingest_churn` keeps re-binding.
pub const CHURN_NAMES: usize = 8;
/// Distinct matrices cycled through the churned names.
pub const CHURN_BODIES: usize = 16;
/// Dimension of a churned matrix.
pub const CHURN_DIM: usize = 5000;
/// Non-zeros of a churned matrix (≈150 KB of CSR JSON).
pub const CHURN_NNZ: usize = 25_000;

/// A named base matrix.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// Catalog name.
    pub name: String,
    /// The matrix.
    pub matrix: Arc<CsrMatrix>,
}

/// One request template: an expression over named leaves.
#[derive(Debug, Clone)]
pub struct Template {
    /// The expression, nodes in topological order, root last.
    pub dag: DagSpec,
    /// Ask the daemon to return the root sketch too.
    pub include_sketch: bool,
    /// Theorem 3.1 applies: the MNC estimate must equal the exact answer.
    pub exact: bool,
    /// Leaf names of a pure product chain, fed to the chain optimizer.
    pub chain: Option<Vec<String>>,
    /// Index into [`Inputs::truth_dags`] of an expression with the same
    /// exact answer (chains share one cheap right-deep evaluation order).
    pub truth: usize,
}

/// A workload's complete seeded input.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Base matrices the templates refer to.
    pub leaves: Vec<Leaf>,
    /// Request templates.
    pub templates: Vec<Template>,
    /// Expressions whose exact evaluation gives each template's truth.
    pub truth_dags: Vec<DagSpec>,
    /// `ingest_churn` only: the matrices cycled through the churned names.
    pub churn: Vec<Leaf>,
}

impl Inputs {
    /// Name → matrix for every leaf.
    pub fn matrices(&self) -> BTreeMap<String, Arc<CsrMatrix>> {
        self.leaves
            .iter()
            .map(|l| (l.name.clone(), Arc::clone(&l.matrix)))
            .collect()
    }
}

/// A seed stream derived from the workload seed: distinct purposes never
/// share random numbers, and the same seed always gives the same stream.
fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.rotate_left(17))
}

/// Builds the inputs of `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::ServeSmall => small_inputs(seed, SMALL_MATRICES),
        Workload::IngestChurn => {
            let mut inputs = small_inputs(seed, CHURN_STATIC);
            inputs.churn = (0..CHURN_BODIES)
                .map(|k| {
                    let mut r = rng(seed, 0xC0DE_0000 + k as u64);
                    let density = CHURN_NNZ as f64 / (CHURN_DIM * CHURN_DIM) as f64;
                    Leaf {
                        name: format!("churn{}", k % CHURN_NAMES),
                        matrix: Arc::new(gen::rand_uniform(&mut r, CHURN_DIM, CHURN_DIM, density)),
                    }
                })
                .collect();
            inputs
        }
        Workload::ServeDeep | Workload::OptimizerInproc => deep_inputs(seed),
    }
}

// ---------------------------------------------------------------------------
// Small matrices: serve_small and ingest_churn
// ---------------------------------------------------------------------------

const SMALL_DIMS: [usize; 3] = [256, 512, 1024];

/// What structure a small matrix has; the schedule is seed-independent.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    Uniform(f64),
    Diagonal,
    Permutation,
    PowerLaw,
    OnePerRow,
}

const KINDS: [Kind; 8] = [
    Kind::Uniform(0.005),
    Kind::Uniform(0.01),
    Kind::Uniform(0.02),
    Kind::Uniform(0.05),
    Kind::Diagonal,
    Kind::Permutation,
    Kind::PowerLaw,
    Kind::OnePerRow,
];

fn small_kind(i: usize) -> (usize, Kind) {
    (SMALL_DIMS[i % 3], KINDS[(i / 3) % KINDS.len()])
}

fn small_matrix(seed: u64, i: usize) -> CsrMatrix {
    let (d, kind) = small_kind(i);
    let mut r = rng(seed, 0x5000 + i as u64);
    match kind {
        Kind::Uniform(s) => gen::rand_uniform(&mut r, d, d, s),
        Kind::Diagonal => gen::scalar_diag(d, 1.0 + r.gen::<f64>()),
        Kind::Permutation => gen::permutation(&mut r, d),
        Kind::PowerLaw => {
            let counts = gen::powerlaw_counts(&mut r, d, d * d / 50, 1.1, d / 2);
            gen::rand_with_col_counts(&mut r, d, &counts)
        }
        Kind::OnePerRow => gen::rand_with_row_counts(&mut r, d, &vec![1u32; d]),
    }
}

/// Whether Theorem 3.1 makes any product with this matrix on the left
/// (`left`) or on the right exact.
fn small_exact_side(i: usize, left: bool) -> bool {
    match small_kind(i).1 {
        Kind::Diagonal | Kind::Permutation => true,
        Kind::OnePerRow => left,
        _ => false,
    }
}

fn small_inputs(seed: u64, count: usize) -> Inputs {
    let leaves: Vec<Leaf> = (0..count)
        .map(|i| Leaf {
            name: format!("s{i:02}"),
            matrix: Arc::new(small_matrix(seed, i)),
        })
        .collect();
    // Template shapes are part of the workload's definition, like matrix
    // shapes: they come from a fixed stream, and the seed varies only the
    // matrices' contents and the request order.
    let mut r = rng(0, 0x7E4A);
    let mut templates = Vec::with_capacity(TEMPLATES);
    let mut truth_dags = Vec::with_capacity(TEMPLATES);
    for t in 0..TEMPLATES {
        let dim = SMALL_DIMS[r.gen_range(0..SMALL_DIMS.len())];
        let group: Vec<usize> = (0..count).filter(|&i| small_kind(i).0 == dim).collect();
        let pick = |r: &mut StdRng| group[r.gen_range(0..group.len())];
        let name = |i: usize| format!("s{i:02}");
        let mut template = match t % 8 {
            // Single operations in the shorthand form.
            0 | 1 => {
                let op = match r.gen_range(0..10) {
                    0..=5 => OpKind::MatMul,
                    6 | 7 => OpKind::EwAdd,
                    8 => OpKind::EwMax,
                    _ => OpKind::Transpose,
                };
                let inputs = distinct(&mut r, &group, op.arity());
                single_op(op, inputs.iter().map(|&i| name(i)).collect())
            }
            // Theorem 3.1 products: a structured operand with at most one
            // non-zero per row on the left, or per column on the right.
            2 => {
                let structured: Vec<usize> = group
                    .iter()
                    .copied()
                    .filter(|&i| small_exact_side(i, true))
                    .collect();
                let s = structured[r.gen_range(0..structured.len())];
                let other = pick(&mut r);
                let on_left = !small_exact_side(s, false) || r.gen_bool(0.5);
                let (a, b) = if on_left { (s, other) } else { (other, s) };
                let mut tpl = single_op(OpKind::MatMul, vec![name(a), name(b)]);
                tpl.exact = true;
                tpl
            }
            // Small DAGs of three to seven nodes.
            _ => random_dag(&mut r, &group, &name),
        };
        template.truth = truth_dags.len();
        template.chain = chain_of(&template.dag);
        truth_dags.push(template.dag.clone());
        templates.push(template);
    }
    Inputs {
        leaves,
        templates,
        truth_dags,
        churn: Vec::new(),
    }
}

fn single_op(op: OpKind, names: Vec<String>) -> Template {
    let n = names.len();
    let mut nodes: Vec<NodeSpec> = names.into_iter().map(NodeSpec::Leaf).collect();
    nodes.push(NodeSpec::Op {
        op,
        inputs: (0..n).collect(),
    });
    Template {
        dag: DagSpec { nodes, root: n },
        include_sketch: false,
        exact: false,
        chain: None,
        truth: 0,
    }
}

/// `k` distinct members of `group`. Element-wise operations over a matrix
/// and itself break MNC's independence assumption by construction; those
/// errors say nothing about a change and would only add seed noise.
fn distinct(r: &mut StdRng, group: &[usize], k: usize) -> Vec<usize> {
    let mut pool = group.to_vec();
    (0..k)
        .map(|_| pool.swap_remove(r.gen_range(0..pool.len())))
        .collect()
}

/// A random expression over 2–3 distinct same-shape leaves: binary
/// operations fold the open nodes into one root, with an occasional
/// transpose and an occasional squared intermediate, for 3–7 nodes.
fn random_dag(r: &mut StdRng, group: &[usize], name: &dyn Fn(usize) -> String) -> Template {
    let k = r.gen_range(2..=3usize);
    let mut nodes: Vec<NodeSpec> = distinct(r, group, k)
        .into_iter()
        .map(|i| NodeSpec::Leaf(name(i)))
        .collect();
    let mut open: Vec<usize> = (0..k).collect();
    while open.len() > 1 || nodes.len() == k {
        if nodes.len() < 6 && r.gen_bool(0.15) {
            let at = r.gen_range(0..open.len());
            nodes.push(NodeSpec::Op {
                op: OpKind::Transpose,
                inputs: vec![open[at]],
            });
            open[at] = nodes.len() - 1;
            continue;
        }
        let op = match r.gen_range(0..10) {
            0..=5 => OpKind::MatMul,
            6..=8 => OpKind::EwAdd,
            _ => OpKind::EwMax,
        };
        let a = open.swap_remove(r.gen_range(0..open.len()));
        let square = op == OpKind::MatMul && r.gen_bool(0.1);
        let b = if open.is_empty() || square {
            a
        } else {
            open.swap_remove(r.gen_range(0..open.len()))
        };
        let op = if a == b { OpKind::MatMul } else { op };
        nodes.push(NodeSpec::Op {
            op,
            inputs: vec![a, b],
        });
        open.push(nodes.len() - 1);
    }
    let root = nodes.len() - 1;
    Template {
        dag: DagSpec { nodes, root },
        include_sketch: false,
        exact: false,
        chain: None,
        truth: 0,
    }
}

// ---------------------------------------------------------------------------
// Deep inputs: serve_deep and optimizer_inproc
// ---------------------------------------------------------------------------

/// Names of the materialized B3.2 chain `Sᵀ Xᵀ diag(w) X S B`.
const CHAIN: [&str; 6] = [
    "b3.2.St", "b3.2.Xt", "b3.2.Dw", "b3.2.X", "b3.2.S", "b3.2.B",
];

/// The SparsEst B2/B3 use cases at full scale, plus random
/// re-parenthesizations of the materialized B3.2 chain.
fn deep_inputs(seed: u64) -> Inputs {
    let data = Datasets::new(seed);
    let mut leaves: Vec<Leaf> = Vec::new();
    let mut templates = Vec::with_capacity(TEMPLATES);
    let mut truth_dags = Vec::new();
    let mut b32 = 0;
    for case in b2_suite(&data).into_iter().chain(b3_suite(&data)) {
        let prefix = case.id.to_lowercase();
        let dag = spec_from_expr(&case.dag, case.root, &prefix, &mut leaves);
        if case.id == "B3.2" {
            b32 = templates.len();
        } else {
            truth_dags.push(dag.clone());
        }
        templates.push(Template {
            chain: chain_of(&dag),
            dag,
            include_sketch: false,
            exact: false,
            truth: truth_dags.len().saturating_sub(1),
        });
    }

    // The chain reuses the B3.2 case's own X, S, w and B.
    let leaf = |name: &str| -> Arc<CsrMatrix> {
        let l = leaves.iter().find(|l| l.name == name);
        Arc::clone(&l.expect("B3.2 defines the chain operands").matrix)
    };
    let (x, s, w, b) = (
        leaf("b3.2.X"),
        leaf("b3.2.S"),
        leaf("b3.2.w"),
        leaf("b3.2.B"),
    );
    let d = ops::diag_v2m(&w).expect("w is a column vector");
    for (name, m) in [
        (CHAIN[0], Arc::new(s.transpose())),
        (CHAIN[1], Arc::new(x.transpose())),
        (CHAIN[2], Arc::new(d)),
    ] {
        leaves.push(Leaf {
            name: name.to_string(),
            matrix: m,
        });
    }
    debug_assert!(CHAIN[3..].iter().zip([&x, &s, &b]).all(|(n, m)| {
        leaves
            .iter()
            .any(|l| l.name == *n && Arc::ptr_eq(&l.matrix, m))
    }));

    // Every parenthesization, and the B3.2 case itself, has the same exact
    // answer; the right-deep order evaluates it through matrix-vector
    // products only.
    let chain_truth = truth_dags.len();
    templates[b32].truth = chain_truth;
    let right_deep = (0..CHAIN.len() - 1)
        .rev()
        .fold(PlanTree::Leaf(CHAIN.len() - 1), |acc, i| {
            PlanTree::Node(Box::new(PlanTree::Leaf(i)), Box::new(acc))
        });
    truth_dags.push(chain_spec(&right_deep));

    // A fixed list of parenthesizations (see `small_inputs`).
    let mut plans = SplitMix64::new(0xB32C);
    while templates.len() < TEMPLATES {
        let dag = chain_spec(&random_plan(CHAIN.len(), &mut plans));
        templates.push(Template {
            chain: chain_of(&dag),
            dag,
            // Every 16th template also fetches the (785 x 1) root sketch.
            include_sketch: templates.len() % 16 == 15,
            exact: false,
            truth: chain_truth,
        });
    }
    Inputs {
        leaves,
        templates,
        truth_dags,
        churn: Vec::new(),
    }
}

/// The operands, in order, of a pure product expression (what the chain
/// optimizer would reorder); `None` when any other operation occurs.
fn chain_of(dag: &DagSpec) -> Option<Vec<String>> {
    fn walk(dag: &DagSpec, i: usize, out: &mut Vec<String>) -> bool {
        match &dag.nodes[i] {
            NodeSpec::Leaf(name) => {
                out.push(name.clone());
                true
            }
            NodeSpec::Op {
                op: OpKind::MatMul,
                inputs,
            } => inputs.iter().all(|&j| walk(dag, j, out)),
            NodeSpec::Op { .. } => false,
        }
    }
    let mut out = Vec::new();
    (walk(dag, dag.root, &mut out) && out.len() >= 2).then_some(out)
}

/// The request form of a chain parenthesization: the six leaves, then one
/// product per plan node in post-order (11 nodes).
fn chain_spec(plan: &PlanTree) -> DagSpec {
    fn emit(plan: &PlanTree, nodes: &mut Vec<NodeSpec>) -> usize {
        match plan {
            PlanTree::Leaf(i) => *i,
            PlanTree::Node(l, r) => {
                let a = emit(l, nodes);
                let b = emit(r, nodes);
                nodes.push(NodeSpec::Op {
                    op: OpKind::MatMul,
                    inputs: vec![a, b],
                });
                nodes.len() - 1
            }
        }
    }
    let mut nodes: Vec<NodeSpec> = CHAIN
        .iter()
        .map(|n| NodeSpec::Leaf(n.to_string()))
        .collect();
    let root = emit(plan, &mut nodes);
    DagSpec { nodes, root }
}

/// Converts a use case's expression into request form node for node (same
/// indices, so the daemon walks it in the library's order), registering its
/// leaves as `<prefix>.<leaf name>`.
fn spec_from_expr(dag: &ExprDag, root: NodeId, prefix: &str, leaves: &mut Vec<Leaf>) -> DagSpec {
    let nodes = dag
        .iter()
        .map(|(_, node)| match node {
            ExprNode::Leaf { name, matrix } => {
                let name = format!("{prefix}.{name}");
                if !leaves.iter().any(|l| l.name == name) {
                    leaves.push(Leaf {
                        name: name.clone(),
                        matrix: Arc::clone(matrix),
                    });
                }
                NodeSpec::Leaf(name)
            }
            ExprNode::Op { op, inputs } => NodeSpec::Op {
                op: op.clone(),
                inputs: inputs.clone(),
            },
        })
        .collect();
    DagSpec { nodes, root }
}

/// The library form of a request expression over `mats` (node for node).
pub(crate) fn expr_from_spec(
    spec: &DagSpec,
    mats: &BTreeMap<String, Arc<CsrMatrix>>,
) -> (ExprDag, NodeId) {
    let mut dag = ExprDag::new();
    for node in &spec.nodes {
        match node {
            NodeSpec::Leaf(name) => {
                dag.leaf(name.clone(), Arc::clone(&mats[name]));
            }
            NodeSpec::Op { op, inputs } => {
                dag.op(op.clone(), inputs)
                    .expect("templates are shape-checked");
            }
        }
    }
    (dag, spec.root)
}

// ---------------------------------------------------------------------------
// Wire bodies
// ---------------------------------------------------------------------------

/// `"op":"<name>"` plus the fields the operation needs.
fn op_fields(op: &OpKind) -> String {
    match op {
        OpKind::Reshape { rows, cols } => {
            format!("\"op\":\"reshape\",\"rows\":{rows},\"cols\":{cols}")
        }
        op => format!("\"op\":\"{}\"", op.name()),
    }
}

/// The `POST /v1/estimate` body of a template for one session: the
/// shorthand form when the template is one operation over its leaves in
/// order, the explicit DAG form otherwise.
pub fn estimate_body(t: &Template, client: &str) -> Vec<u8> {
    let leaf_names = |nodes: &[NodeSpec]| -> Option<Vec<String>> {
        nodes
            .iter()
            .map(|n| match n {
                NodeSpec::Leaf(name) => Some(format!("\"{name}\"")),
                NodeSpec::Op { .. } => None,
            })
            .collect()
    };
    let shorthand = match t.dag.nodes.split_last() {
        Some((NodeSpec::Op { op, inputs }, rest))
            if t.dag.root == rest.len() && inputs.iter().copied().eq(0..rest.len()) =>
        {
            leaf_names(rest).map(|names| (op, names))
        }
        _ => None,
    };
    let mut out = match shorthand {
        Some((op, names)) => format!("{{{},\"inputs\":[{}]", op_fields(op), names.join(",")),
        None => {
            let items: Vec<String> = t
                .dag
                .nodes
                .iter()
                .map(|n| match n {
                    NodeSpec::Leaf(name) => format!("{{\"leaf\":\"{name}\"}}"),
                    NodeSpec::Op { op, inputs } => {
                        let ins: Vec<String> = inputs.iter().map(usize::to_string).collect();
                        format!("{{{},\"inputs\":[{}]}}", op_fields(op), ins.join(","))
                    }
                })
                .collect();
            format!("{{\"dag\":[{}],\"root\":{}", items.join(","), t.dag.root)
        }
    };
    if t.include_sketch {
        out.push_str(",\"include_sketch\":true");
    }
    out.push_str(&format!(",\"client\":\"{client}\"}}"));
    out.into_bytes()
}

/// The CSR JSON ingest body of a matrix (pattern only: the sketch and the
/// sidecars never look at values).
pub fn csr_body(m: &CsrMatrix) -> Vec<u8> {
    let join = |it: &mut dyn Iterator<Item = usize>| {
        let mut s = String::new();
        for (k, v) in it.enumerate() {
            if k > 0 {
                s.push(',');
            }
            s.push_str(&v.to_string());
        }
        s
    };
    format!(
        "{{\"nrows\":{},\"ncols\":{},\"row_ptr\":[{}],\"col_idx\":[{}]}}",
        m.nrows(),
        m.ncols(),
        join(&mut m.row_ptr().iter().copied()),
        join(&mut m.col_indices().iter().map(|&c| c as usize)),
    )
    .into_bytes()
}

/// The session id of client slot `k`.
pub fn client_id(k: usize) -> String {
    format!("c{k:02}")
}

/// One client thread's request sequence: every template once per cycle of
/// [`TEMPLATES`] requests, in an order and with sessions drawn from a
/// stream of the thread's own. The exact mix keeps a run's cost independent
/// of which templates a short window happened to draw.
pub struct Picks {
    rng: StdRng,
    order: Vec<usize>,
    next: usize,
}

impl Picks {
    /// The sequence of client thread `thread`.
    pub fn new(seed: u64, thread: usize) -> Picks {
        Picks {
            rng: rng(seed, 0xF00D_0000 + thread as u64),
            order: (0..TEMPLATES).collect(),
            next: TEMPLATES,
        }
    }

    /// The next `(template index, session index)`.
    pub fn next_pick(&mut self) -> (usize, usize) {
        if self.next == TEMPLATES {
            self.order.shuffle(&mut self.rng);
            self.next = 0;
        }
        self.next += 1;
        (self.order[self.next - 1], self.rng.gen_range(0..CLIENT_IDS))
    }
}
