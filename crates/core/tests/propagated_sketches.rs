//! Properties of every op's propagated sketch.
//!
//! **It passes [`MncSketch::validate`].** Sketch decoding rejects counts
//! that fail it, so a root exported from an estimate must always pass, or
//! it could not be ingested again.
//!
//! **Its bits are pinned.** A golden hash over every op's output on seeded
//! inputs fixes every count, extended count and metadata field.

use proptest::prelude::*;
use rand::SeedableRng;

use mnc_core::{MncConfig, MncSketch, OpKind};
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

fn propagate(op: &OpKind, ins: &[&MncSketch], cfg: &MncConfig, seed: u64) -> MncSketch {
    let cfg = MncConfig { seed, ..*cfg };
    MncSketch::propagate_in(op, ins, &cfg).expect("valid op")
}

fn params() -> impl Strategy<Value = (usize, usize, f64, u64)> {
    (1usize..16, 1usize..16, 0.0f64..0.6, any::<u64>())
}

/// Every input, every op's output, and what a transpose, `== 0`, and a
/// product with its own transpose make of that output pass `validate`.
fn check_valid(cfg: &MncConfig, m: usize, n: usize, density: f64, seed: u64) {
    let inputs = Inputs::new(m, n, density, seed, cfg.use_extended);
    for (op, ins) in inputs.cases() {
        for input in &ins {
            assert_eq!(input.validate(), Ok(()), "a built sketch");
        }
        let out = propagate(&op, &ins, cfg, seed);
        assert_eq!(out.validate(), Ok(()), "{op:?}");
        let t = propagate(&OpKind::Transpose, &[&out], cfg, seed);
        assert_eq!(t.validate(), Ok(()), "transpose of {op:?}");
        let z = propagate(&OpKind::Eq0, &[&out], cfg, seed);
        assert_eq!(z.validate(), Ok(()), "== 0 of {op:?}");
        let g = propagate(&OpKind::MatMul, &[&out, &t], cfg, seed);
        assert_eq!(g.validate(), Ok(()), "{op:?} times its transpose");
    }
}

/// FNV-1a over 64-bit words.
fn fnv(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Folds every field of `s` into `h`: shape, the four count vectors (an
/// absent extended vector hashes differently from an empty one) and the
/// metadata.
fn hash_sketch(mut h: u64, s: &MncSketch) -> u64 {
    let vecs = [Some(&s.hr), Some(&s.hc), s.her.as_ref(), s.hec.as_ref()];
    h = fnv(fnv(h, s.nrows as u64), s.ncols as u64);
    for v in vecs {
        match v {
            None => h = fnv(h, u64::MAX),
            Some(v) => {
                h = fnv(h, v.len() as u64);
                h = v.iter().fold(h, |h, &c| fnv(h, c as u64));
            }
        }
    }
    let m = &s.meta;
    [
        m.nnz,
        m.max_hr as u64,
        m.max_hc as u64,
        m.nonempty_rows as u64,
        m.nonempty_cols as u64,
        m.half_full_rows as u64,
        m.half_full_cols as u64,
        m.rows_eq_1 as u64,
        m.cols_eq_1 as u64,
        m.fully_diagonal as u64,
    ]
    .into_iter()
    .fold(h, fnv)
}

/// One hash over every op's output (and its sparsity's bits) on a seeded
/// fixture.
fn propagation_hash(cfg: &MncConfig, m: usize, n: usize, density: f64, seed: u64) -> u64 {
    let inputs = Inputs::new(m, n, density, seed, cfg.use_extended);
    let mut h = 0xCBF2_9CE4_8422_2325;
    for (op, ins) in inputs.cases() {
        let out = propagate(&op, &ins, cfg, seed);
        h = fnv(hash_sketch(h, &out), out.sparsity().to_bits());
    }
    h
}

/// Pins the bits of every op's propagated sketch on seeded inputs, under
/// full MNC and *MNC Basic*, so a change to how propagation allocates or
/// computes its outputs cannot move a single count.
#[test]
fn propagated_sketch_bits_are_pinned() {
    let fixtures = [
        (12, 8, 0.3, 7),
        (9, 9, 0.15, 11),
        (16, 6, 0.45, 23),
        (1, 13, 0.5, 3),
    ];
    for (cfg, golden) in [
        (
            MncConfig::default(),
            [
                0xdfa42c2954af75d8,
                0x41d084ff8bc31c7b,
                0x0fc63b9d6a7d96dd,
                0x39c7c5d3a2551d40,
            ],
        ),
        (
            MncConfig::basic(),
            [
                0x376717461a96eee5,
                0x45ef112471d7894b,
                0x59c61056a0b6f0d4,
                0x39c7c5d3a2551d40,
            ],
        ),
    ] {
        let got = fixtures.map(|(m, n, d, seed)| propagation_hash(&cfg, m, n, d, seed));
        assert_eq!(got, golden, "{cfg:?}: got {got:#018x?}");
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
}
