//! Differential test for the one DAG walk: a random request DAG estimated
//! through `mnc_served::walk` must answer exactly what a cold in-process
//! `EstimationContext` answers for the equivalent `ExprDag` — sparsity
//! bits and root-sketch bytes, for every estimator family, with the
//! context at any worker count. Bitset answers must additionally equal
//! exact evaluation.
//!
//! The hand-written lockstep tests in `walk.rs` and `e2e.rs` pin specific
//! shapes; this suite covers random shapes (shared sub-nodes, unary and
//! binary ops, leaf roots, unreachable nodes) and the non-MNC estimators.
//!
//! CI runs this suite in debug **and** `--release` at `MNC_THREADS` 1, 2,
//! and 8. Every case runs the context at one thread and at `MNC_THREADS`
//! (a {2, 8} sweep when the variable is unset); the served walk is
//! sequential.

use std::sync::Arc;

use proptest::prelude::*;
use rand::{Rng, SeedableRng};

use mnc_core::serialize::to_bytes;
use mnc_estimators::{
    BitsetEstimator, DensityMapEstimator, MetaAcEstimator, MncEstimator, OpKind, SparsityEstimator,
    Synopsis,
};
use mnc_expr::{EstimationContext, Evaluator, ExprDag};
use mnc_matrix::{gen, CsrMatrix};
use mnc_served::walk::estimate_dag;
use mnc_served::{DagSpec, NodeSpec};

const UNARY: [OpKind; 3] = [OpKind::Transpose, OpKind::Neq0, OpKind::Eq0];
const BINARY: [OpKind; 5] = [
    OpKind::MatMul,
    OpKind::EwAdd,
    OpKind::EwMul,
    OpKind::EwMax,
    OpKind::EwMin,
];

/// Worker counts under test: one, plus `MNC_THREADS` when set (the CI
/// matrix pins it to 1, 2, or 8 per job), a small sweep otherwise.
fn thread_counts() -> Vec<usize> {
    let mut counts = vec![1];
    match std::env::var("MNC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
    {
        Some(t) if t > 1 => counts.push(t),
        Some(_) => {}
        None => counts.extend([2, 8]),
    }
    counts
}

/// MNC with deterministic rounding.
fn det_mnc() -> MncEstimator {
    MncEstimator::with_config(
        "MNC",
        mnc_core::MncConfig {
            probabilistic_rounding: false,
            ..mnc_core::MncConfig::default()
        },
    )
}

/// The estimators under test. Each instance serves every walk of a case,
/// as the service's one estimator serves every request.
fn estimators() -> [Box<dyn SparsityEstimator>; 5] {
    [
        Box::new(MncEstimator::new()),
        Box::new(det_mnc()),
        Box::new(DensityMapEstimator::default()),
        Box::new(BitsetEstimator::default()),
        Box::new(MetaAcEstimator),
    ]
}

/// One random DAG in both representations.
struct Case {
    spec: DagSpec,
    dag: ExprDag,
    /// The matrix behind each leaf node (`None` for ops).
    leaf_mats: Vec<Option<Arc<CsrMatrix>>>,
}

/// A topologically ordered DAG of 1–12 nodes over 2–5 square `d × d`
/// leaves. Ops pick their inputs among all earlier nodes, so sub-nodes get
/// shared (and a binary op may read one node twice); the root is usually
/// the last node, sometimes an earlier one (a leaf root, or a DAG with
/// unreachable nodes).
fn random_case(seed: u64) -> Case {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let d = rng.gen_range(6usize..24);
    let k = rng.gen_range(2usize..6);
    let mats: Vec<Arc<CsrMatrix>> = (0..k)
        .map(|_| {
            let s = rng.gen_range(0.05..0.4);
            Arc::new(gen::rand_uniform(&mut rng, d, d, s))
        })
        .collect();
    let n = rng.gen_range(1usize..13);
    let mut nodes = Vec::with_capacity(n);
    let mut dag = ExprDag::new();
    let mut leaf_mats = Vec::with_capacity(n);
    for i in 0..n {
        if i == 0 || rng.gen_range(0..3u32) == 0 {
            let m = rng.gen_range(0..k);
            nodes.push(NodeSpec::Leaf(format!("M{m}")));
            dag.leaf(format!("M{m}"), Arc::clone(&mats[m]));
            leaf_mats.push(Some(Arc::clone(&mats[m])));
            continue;
        }
        let (op, inputs) = if rng.gen_bool(0.3) {
            (
                UNARY[rng.gen_range(0..UNARY.len())].clone(),
                vec![rng.gen_range(0..i)],
            )
        } else {
            let op = BINARY[rng.gen_range(0..BINARY.len())].clone();
            (op, vec![rng.gen_range(0..i), rng.gen_range(0..i)])
        };
        dag.op(op.clone(), &inputs).expect("square shapes compose");
        nodes.push(NodeSpec::Op { op, inputs });
        leaf_mats.push(None);
    }
    let root = if rng.gen_bool(0.75) {
        n - 1
    } else {
        rng.gen_range(0..n)
    };
    let spec = DagSpec { nodes, root };
    spec.validate().expect("generated specs are well-formed");
    Case {
        spec,
        dag,
        leaf_mats,
    }
}

/// Asserts the served walk answers exactly what a cold context answers at
/// every worker count, with and without the root sketch.
fn check_case(case: &Case) {
    let root = case.spec.root;
    for est in estimators() {
        let name = est.name();
        // The reference: a cold sequential context, then (for the sketch)
        // the root synopsis propagated after the estimate.
        let mut ctx = EstimationContext::new();
        let exact = ctx.estimate_root(&*est, &case.dag, root).unwrap();
        let root_syn = ctx.node_synopsis(&*est, &case.dag, root).unwrap();
        let expected_sketch = match &*root_syn {
            Synopsis::Mnc(s) => Some(to_bytes(&s.sketch)),
            _ => None,
        };
        if name == "Bitset" {
            let truth = Evaluator::new().sparsity(&case.dag, root).unwrap();
            assert!(
                (exact - truth).abs() < 1e-15,
                "bitset {exact} truth {truth}"
            );
        }
        // The service holds synopses, not matrices, so a leaf root answers
        // its synopsis' sparsity where the context reads the matrix. The
        // two agree for every synopsis that counts non-zeros exactly; the
        // density map's per-block densities may round in the last bit.
        let expected = match case.spec.nodes[root] {
            NodeSpec::Leaf(_) if name == "DMap" => root_syn.sparsity(),
            _ => exact,
        };

        // Catalog leaves, built as the service's ingest builds them.
        let leaves: Vec<Option<Arc<Synopsis>>> = case
            .leaf_mats
            .iter()
            .map(|m| m.as_ref().map(|m| Arc::new(est.build(m).unwrap())))
            .collect();

        let at = format!("{name}, root={root}, dag={:?}", case.spec);
        for threads in thread_counts() {
            let mut par = EstimationContext::new().with_threads(threads);
            let cold = par.estimate_root(&*est, &case.dag, root).unwrap();
            assert_eq!(
                cold.to_bits(),
                exact.to_bits(),
                "context: threads={threads}, {at}"
            );
        }

        let plain = estimate_dag(&*est, &case.spec, &leaves, false).unwrap();
        assert_eq!(plain.sparsity.to_bits(), expected.to_bits(), "served: {at}");
        assert_eq!(plain.shape, case.dag.shape(root), "shape: {at}");

        let sketched = estimate_dag(&*est, &case.spec, &leaves, true);
        match (&expected_sketch, sketched) {
            (Some(bytes), Ok(out)) => {
                assert_eq!(out.sparsity.to_bits(), expected.to_bits(), "sketched: {at}");
                assert_eq!(out.sketch_bytes.as_ref(), Some(bytes), "sketch: {at}");
            }
            (None, Err(e)) => assert_eq!(e.status(), 400, "{at}"),
            (want, got) => panic!("sketch {want:?} vs {got:?}: {at}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DAGs: the served walk is the session walk, bit for bit.
    #[test]
    fn served_walk_matches_a_cold_context(seed in any::<u64>()) {
        check_case(&random_case(seed));
    }
}

/// The generator reaches every shape the walk contract names: leaf roots,
/// shared sub-nodes, unary and binary ops.
#[test]
fn generator_covers_the_contract_shapes() {
    let (mut leaf_root, mut shared, mut unary, mut binary) = (false, false, false, false);
    for seed in 0..64 {
        let spec = random_case(seed).spec;
        leaf_root |= matches!(spec.nodes[spec.root], NodeSpec::Leaf(_));
        let mut uses = vec![0; spec.nodes.len()];
        for node in &spec.nodes {
            if let NodeSpec::Op { inputs, .. } = node {
                unary |= inputs.len() == 1;
                binary |= inputs.len() == 2;
                for &i in inputs {
                    uses[i] += 1;
                }
            }
        }
        shared |= uses.iter().any(|&u| u > 1);
    }
    assert!(leaf_root && shared && unary && binary);
}
