//! Integration tests for sketch propagation through the facade: the
//! propagated sketch is a pure function of `(cfg, op, inputs)`, the
//! estimator adapter and the DAG walk return the very sketches and
//! estimates of `MncSketch::propagate_in`, and the exact reorganizations
//! reproduce the sketch built from the materialized result.

use std::sync::Arc;

use mnc::core::{from_bytes, to_bytes, MncConfig, MncSketch, OpKind};
use mnc::estimators::{MncEstimator, SparsityEstimator, Synopsis};
use mnc::expr::{estimate_all, estimate_root, EstimationContext, ExprDag};
use mnc::matrix::{gen, CsrMatrix};
use proptest::prelude::*;
use rand::SeedableRng;

/// Seeded operands covering every operation's shape requirements: `a` and
/// `b` are `m x n`, `c` is `n x m`, `s` is square and `v` a column vector.
struct Operands {
    a: MncSketch,
    b: MncSketch,
    c: MncSketch,
    s: MncSketch,
    v: MncSketch,
}

impl Operands {
    fn new(m: usize, n: usize, density: f64, seed: u64, use_extended: bool) -> Self {
        let mats = matrices(m, n, density, seed);
        let build = |x: &CsrMatrix| MncSketch::build_with(x, use_extended);
        Operands {
            a: build(&mats[0]),
            b: build(&mats[1]),
            c: build(&mats[2]),
            s: build(&mats[3]),
            v: build(&mats[4]),
        }
    }

    /// Every [`OpKind`] with operands of valid shapes.
    fn cases(&self) -> Vec<(OpKind, Vec<&MncSketch>)> {
        let (a, b, c, s, v) = (&self.a, &self.b, &self.c, &self.s, &self.v);
        vec![
            (OpKind::MatMul, vec![a, c]),
            (OpKind::MatMul, vec![s, a]),
            (OpKind::EwAdd, vec![a, b]),
            (OpKind::EwMul, vec![a, b]),
            (OpKind::EwMax, vec![a, b]),
            (OpKind::EwMin, vec![a, b]),
            (OpKind::Transpose, vec![a]),
            (
                OpKind::Reshape {
                    rows: a.ncols,
                    cols: a.nrows,
                },
                vec![a],
            ),
            (OpKind::DiagV2M, vec![v]),
            (OpKind::DiagM2V, vec![s]),
            (OpKind::Rbind, vec![a, b]),
            (OpKind::Cbind, vec![a, b]),
            (OpKind::Neq0, vec![a]),
            (OpKind::Eq0, vec![a]),
        ]
    }
}

/// The matrices behind [`Operands`], in the order `a, b, c, s, v`.
fn matrices(m: usize, n: usize, density: f64, seed: u64) -> Vec<CsrMatrix> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    [(m, n), (m, n), (n, m), (m, m), (m, 1)]
        .into_iter()
        .map(|(rows, cols)| gen::rand_uniform(&mut rng, rows, cols, density))
        .collect()
}

fn configs() -> [MncConfig; 3] {
    [
        MncConfig::default(),
        MncConfig::basic(),
        MncConfig {
            probabilistic_rounding: false,
            ..MncConfig::default()
        },
    ]
}

fn sketch_of(syn: &Synopsis) -> &MncSketch {
    match syn {
        Synopsis::Mnc(s) => &s.sketch,
        other => panic!("MNC estimator produced a {:?} synopsis", other.shape()),
    }
}

fn params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (1usize..24, 1usize..24, 0.0f64..0.6, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Propagating the same inputs twice gives the same sketch, whatever
    /// ran in between: no state survives a call.
    #[test]
    fn repeated_propagation_is_bit_identical((m, n, density, seed) in params()) {
        for cfg in configs() {
            let ops = Operands::new(m, n, density, seed, cfg.use_extended);
            let first: Vec<MncSketch> = ops
                .cases()
                .iter()
                .map(|(op, ins)| MncSketch::propagate_in(op, ins, &cfg).unwrap())
                .collect();
            for ((op, ins), before) in ops.cases().iter().rev().zip(first.iter().rev()) {
                let again = MncSketch::propagate_in(op, ins, &cfg).unwrap();
                prop_assert_eq!(&again, before, "{:?} under {:?}", op, cfg);
            }
        }
    }

    /// Every propagated sketch survives the wire format unchanged, so a
    /// driver can ship intermediates as well as leaves.
    #[test]
    fn propagated_sketches_roundtrip_through_the_wire_format(
        (m, n, density, seed) in params()
    ) {
        for cfg in configs() {
            let ops = Operands::new(m, n, density, seed, cfg.use_extended);
            for (op, ins) in ops.cases() {
                let h = MncSketch::propagate_in(&op, &ins, &cfg).unwrap();
                let back = from_bytes(&to_bytes(&h)).unwrap();
                prop_assert_eq!(&back, &h, "{:?} under {:?}", op, cfg);
            }
        }
    }

    /// The propagated shape is the operation's output shape.
    #[test]
    fn propagated_shape_is_the_output_shape((m, n, density, seed) in params()) {
        let cfg = MncConfig::default();
        let ops = Operands::new(m, n, density, seed, true);
        for (op, ins) in ops.cases() {
            let shapes: Vec<(usize, usize)> = ins.iter().map(|h| (h.nrows, h.ncols)).collect();
            let h = MncSketch::propagate_in(&op, &ins, &cfg).unwrap();
            prop_assert_eq!((h.nrows, h.ncols), op.output_shape(&shapes).unwrap(), "{:?}", op);
        }
    }
}

#[test]
fn estimator_propagation_is_sketch_propagation() {
    for cfg in configs() {
        let est = MncEstimator::with_config("MNC under test", cfg);
        let ops = Operands::new(30, 17, 0.15, 0x5EED, cfg.use_extended);
        for (op, ins) in ops.cases() {
            let syns: Vec<Synopsis> = ins
                .iter()
                .map(|h| {
                    Synopsis::Mnc(mnc::estimators::mnc::MncSynopsis {
                        sketch: (*h).clone(),
                    })
                })
                .collect();
            let syn_refs: Vec<&Synopsis> = syns.iter().collect();
            let via_estimator = est.propagate(&op, &syn_refs).unwrap();
            let direct = MncSketch::propagate_in(&op, &ins, &cfg).unwrap();
            assert_eq!(sketch_of(&via_estimator), &direct, "{op:?} under {cfg:?}");
            assert_eq!(
                est.estimate(&op, &syn_refs).unwrap().to_bits(),
                MncSketch::estimate_with(&op, &ins, &cfg).unwrap().to_bits(),
                "{op:?} under {cfg:?}"
            );
        }
    }
}

#[test]
fn dag_walk_propagates_and_estimates_like_the_sketches() {
    // (X ⊙ Y) W, transposed, times X ⊙ Y: the walk must propagate every
    // intermediate to exactly the sketch `propagate_in` derives, and
    // estimate the root from its inputs' sketches.
    let mats = matrices(25, 40, 0.1, 0xDA6);
    let (x, y, w) = (&mats[0], &mats[1], &mats[2]);
    let mut dag = ExprDag::new();
    let nx = dag.leaf("X", Arc::new(x.clone()));
    let ny = dag.leaf("Y", Arc::new(y.clone()));
    let nw = dag.leaf("W", Arc::new(w.clone()));
    let xy = dag.ew_mul(nx, ny).unwrap();
    let xyw = dag.matmul(xy, nw).unwrap();
    let t = dag.transpose(xyw).unwrap();
    let out = dag.matmul(t, xy).unwrap();

    for (name, cfg) in [
        ("MNC", MncConfig::default()),
        ("MNC Basic", MncConfig::basic()),
    ] {
        let est = MncEstimator::with_config(name, cfg);
        let build = |m: &CsrMatrix| MncSketch::build_with(m, cfg.use_extended);
        let (hx, hy, hw) = (build(x), build(y), build(w));
        let prop =
            |op: OpKind, ins: &[&MncSketch]| MncSketch::propagate_in(&op, ins, &cfg).unwrap();
        let hxy = prop(OpKind::EwMul, &[&hx, &hy]);
        let hxyw = prop(OpKind::MatMul, &[&hxy, &hw]);
        let ht = prop(OpKind::Transpose, &[&hxyw]);
        let hout = prop(OpKind::MatMul, &[&ht, &hxy]);

        let mut ctx = EstimationContext::new();
        for (id, want) in [(xy, &hxy), (xyw, &hxyw), (t, &ht), (out, &hout)] {
            let syn = ctx.node_synopsis(&est, &dag, id).unwrap();
            assert_eq!(sketch_of(&syn), want, "{name}: node {id:?}");
        }
        // `estimate_all` reports each node's propagated sparsity.
        let all = estimate_all(&est, &dag).unwrap();
        for (id, want) in [(xy, &hxy), (xyw, &hxyw), (t, &ht), (out, &hout)] {
            let node = all
                .iter()
                .find(|e| e.id == id)
                .expect("every op node is estimated");
            assert_eq!(
                node.sparsity.to_bits(),
                want.sparsity().to_bits(),
                "{name}: node {id:?}"
            );
        }
        // The root is estimated from its inputs, never propagated.
        let root = MncSketch::estimate_with(&OpKind::MatMul, &[&ht, &hxy], &cfg).unwrap();
        assert_eq!(
            estimate_root(&est, &dag, out).unwrap().to_bits(),
            root.to_bits(),
            "{name}"
        );
    }
}

#[test]
fn transpose_propagation_is_the_sketch_of_the_transpose() {
    for use_extended in [true, false] {
        for (i, x) in matrices(33, 21, 0.12, 0x7A).iter().enumerate() {
            let h = MncSketch::build_with(x, use_extended);
            let ht =
                MncSketch::propagate_in(&OpKind::Transpose, &[&h], &MncConfig::default()).unwrap();
            assert_eq!(
                ht,
                MncSketch::build_with(&x.transpose(), use_extended),
                "matrix {i}, extended {use_extended}"
            );
        }
    }
}

#[test]
fn transposing_twice_restores_the_sketch() {
    let ops = Operands::new(19, 28, 0.2, 0x77, true);
    let cfg = MncConfig::default();
    for h in [&ops.a, &ops.c, &ops.s, &ops.v] {
        let t = MncSketch::propagate_in(&OpKind::Transpose, &[h], &cfg).unwrap();
        let tt = MncSketch::propagate_in(&OpKind::Transpose, &[&t], &cfg).unwrap();
        assert_eq!(&tt, h);
    }
}

#[test]
fn neq0_propagation_keeps_the_pattern_sketch() {
    // `A != 0` has the pattern of `A`, so its sketch is `A`'s.
    let ops = Operands::new(26, 14, 0.3, 0xE0, true);
    for cfg in configs() {
        for h in [&ops.a, &ops.c, &ops.s] {
            let out = MncSketch::propagate_in(&OpKind::Neq0, &[h], &cfg).unwrap();
            assert_eq!(&out, h, "{cfg:?}");
        }
    }
}

#[test]
fn propagation_rejects_malformed_inputs() {
    let ops = Operands::new(12, 9, 0.2, 0xBAD, true);
    let cfg = MncConfig::default();
    let (a, b, s) = (&ops.a, &ops.b, &ops.s);
    // Inner dimensions disagree (12x9 times 12x9).
    assert!(MncSketch::propagate_in(&OpKind::MatMul, &[a, b], &cfg).is_err());
    // Element-wise shapes disagree (12x9 vs 12x12).
    assert!(MncSketch::propagate_in(&OpKind::EwAdd, &[a, s], &cfg).is_err());
    // Wrong arity.
    assert!(MncSketch::propagate_in(&OpKind::MatMul, &[a], &cfg).is_err());
    assert!(MncSketch::propagate_in(&OpKind::Transpose, &[a, b], &cfg).is_err());
    // A reshape must keep the cell count.
    let bad = OpKind::Reshape { rows: 5, cols: 5 };
    assert!(MncSketch::propagate_in(&bad, &[a], &cfg).is_err());
    // Diagonal extraction needs a square matrix.
    assert!(MncSketch::propagate_in(&OpKind::DiagM2V, &[a], &cfg).is_err());
}
