//! Properties of every op's propagated sketch.
//!
//! **Scratch-arena reuse never changes it.** `MncSketch::propagate_in`
//! leases every output count vector and every Algorithm 1 temporary from
//! the caller's [`ScratchArena`]. A caller that recycles retired
//! intermediates (the chain optimizer's fold) hands those leases buffers of
//! any length holding any contents, so every op must clear or overwrite
//! what it leases. The reuse properties warm one arena with poisoned
//! outputs of every op, then require every op, run through that arena, to
//! equal the same op run through a fresh arena bit for bit.
//!
//! **It passes [`MncSketch::validate`].** Sketch decoding rejects counts
//! that fail it, so a root exported from an estimate must always pass, or
//! it could not be ingested again.

use proptest::prelude::*;
use rand::SeedableRng;

use mnc_core::{MncConfig, MncSketch, OpKind, ScratchArena};
use mnc_matrix::gen;

/// Sketches shaped for every op: `a` and `b` are `m x n`, `c` is `n x m`,
/// `s` is `m x m`, `v` is `m x 1` and `ones` is the dense `m x 1` vector
/// (its `diag` is fully diagonal).
struct Inputs {
    a: MncSketch,
    b: MncSketch,
    c: MncSketch,
    s: MncSketch,
    v: MncSketch,
    ones: MncSketch,
}

impl Inputs {
    fn new(m: usize, n: usize, density: f64, seed: u64, use_extended: bool) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut build = |rows, cols| {
            let x = gen::rand_uniform(&mut rng, rows, cols, density);
            MncSketch::build_with(&x, use_extended)
        };
        Inputs {
            a: build(m, n),
            b: build(m, n),
            c: build(n, m),
            s: build(m, m),
            v: build(m, 1),
            ones: MncSketch::build_with(&gen::ones_vector(m), use_extended),
        }
    }

    /// Every [`OpKind`] with valid inputs. Reshape runs once per divisor
    /// `k` of `m·n`, so its merge, split and non-aligned branches all run
    /// wherever the shape allows them.
    fn cases(&self) -> Vec<(OpKind, Vec<&MncSketch>)> {
        let (a, b, c, s, v) = (&self.a, &self.b, &self.c, &self.s, &self.v);
        let ones = &self.ones;
        let mut cases = vec![
            (OpKind::MatMul, vec![a, c]),
            (OpKind::MatMul, vec![s, a]),
            (OpKind::EwAdd, vec![a, b]),
            (OpKind::EwMul, vec![a, b]),
            (OpKind::EwMax, vec![a, b]),
            (OpKind::EwMin, vec![a, b]),
            (OpKind::Transpose, vec![a]),
            (OpKind::DiagV2M, vec![v]),
            (OpKind::DiagV2M, vec![ones]),
            (OpKind::DiagM2V, vec![s]),
            (OpKind::Rbind, vec![a, b]),
            (OpKind::Cbind, vec![a, b]),
            (OpKind::Neq0, vec![a]),
            (OpKind::Eq0, vec![a]),
        ];
        let cells = a.nrows * a.ncols;
        for rows in (1..=cells).filter(|k| cells.is_multiple_of(*k)) {
            let op = OpKind::Reshape {
                rows,
                cols: cells / rows,
            };
            cases.push((op, vec![a]));
        }
        cases
    }
}

fn propagate(
    op: &OpKind,
    ins: &[&MncSketch],
    cfg: &MncConfig,
    seed: u64,
    arena: &mut ScratchArena,
) -> MncSketch {
    let cfg = MncConfig { seed, ..*cfg };
    MncSketch::propagate_in(op, ins, &cfg, arena).expect("valid op")
}

/// Overwrites every count of `out` with a value no op produces and returns
/// its buffers to `arena`.
fn recycle_poisoned(mut out: MncSketch, arena: &mut ScratchArena) {
    for v in [&mut out.hr, &mut out.hc]
        .into_iter()
        .chain(out.her.as_mut())
        .chain(out.hec.as_mut())
    {
        v.fill(0xDEAD_BEEF);
    }
    out.recycle_into(arena);
}

fn params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (1usize..16, 1usize..16, 0.0f64..0.6, any::<u64>())
}

/// Warms one arena with poisoned outputs of every op, then runs every op
/// through it and through a fresh arena; the two must agree bit for bit.
fn check_reuse(cfg: &MncConfig, m: usize, n: usize, density: f64, seed: u64) {
    let inputs = Inputs::new(m, n, density, seed, cfg.use_extended);
    let cases = inputs.cases();
    let mut warm = ScratchArena::new();
    for (op, ins) in &cases {
        let out = propagate(op, ins, cfg, !seed, &mut ScratchArena::new());
        recycle_poisoned(out, &mut warm);
    }
    for (op, ins) in &cases {
        let fresh = propagate(op, ins, cfg, seed, &mut ScratchArena::new());
        let reused = propagate(op, ins, cfg, seed, &mut warm);
        assert_eq!(reused, fresh, "{op:?} changed under a recycled arena");
        // Hand the output back, so later ops lease dirty buffers too.
        recycle_poisoned(reused, &mut warm);
    }
}

/// Every input, every op's output, and what a transpose, `== 0`, and a
/// product with its own transpose make of that output pass `validate`.
fn check_valid(cfg: &MncConfig, m: usize, n: usize, density: f64, seed: u64) {
    let inputs = Inputs::new(m, n, density, seed, cfg.use_extended);
    let arena = &mut ScratchArena::new();
    for (op, ins) in inputs.cases() {
        for input in &ins {
            assert_eq!(input.validate(), Ok(()), "a built sketch");
        }
        let out = propagate(&op, &ins, cfg, seed, arena);
        assert_eq!(out.validate(), Ok(()), "{op:?}");
        let t = propagate(&OpKind::Transpose, &[&out], cfg, seed, arena);
        assert_eq!(t.validate(), Ok(()), "transpose of {op:?}");
        let z = propagate(&OpKind::Eq0, &[&out], cfg, seed, arena);
        assert_eq!(z.validate(), Ok(()), "== 0 of {op:?}");
        let g = propagate(&OpKind::MatMul, &[&out, &t], cfg, seed, arena);
        assert_eq!(g.validate(), Ok(()), "{op:?} times its transpose");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every built and propagated sketch passes `validate` under full MNC.
    #[test]
    fn propagated_sketches_are_valid((m, n, density, seed) in params()) {
        check_valid(&MncConfig::default(), m, n, density, seed);
    }

    /// ... and under *MNC Basic*.
    #[test]
    fn basic_propagated_sketches_are_valid((m, n, density, seed) in params()) {
        check_valid(&MncConfig::basic(), m, n, density, seed);
    }

    /// Full MNC: extended count vectors and the Theorem 3.2 bounds, so
    /// Algorithm 1 leases its extended-count temporaries.
    #[test]
    fn recycled_buffers_never_change_propagation((m, n, density, seed) in params()) {
        check_reuse(&MncConfig::default(), m, n, density, seed);
    }

    /// *MNC Basic*: no extended vectors, no bounds.
    #[test]
    fn recycled_buffers_never_change_basic_propagation((m, n, density, seed) in params()) {
        check_reuse(&MncConfig::basic(), m, n, density, seed);
    }
}
