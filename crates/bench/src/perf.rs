//! The `mnc-perf` suite: a fixed benchmark-and-profiling workload whose
//! results land in a stable-schema JSON record (`"schema": "mnc.perf.v1"`,
//! written to `BENCH_MNC.json`) so perf, memory, and accuracy can be
//! tracked *as a trajectory* across commits instead of one-off figure runs.
//!
//! Seven workloads, each enclosed in a `"workload"` span on a shared
//! [`Recorder`]:
//!
//! 1. **estimators** — per-estimator synopsis construction + single-op
//!    estimation across sparsities and shapes (Figures 8/14 territory);
//! 2. **chain** — sketch propagation down a product chain (Figure 12),
//!    and the Appendix C chain optimizer's DPs and random-plan scoring
//!    (`chain.*` metrics);
//! 3. **kernels** — scalar-vs-kernel microbenchmarks of the `mnc-kernels`
//!    hot paths (`kernel.*` metrics: latency-gated p50s plus informational
//!    speedup ratios);
//! 4. **cache** — an [`EstimationContext`] optimizer-probe workload, cached
//!    vs uncached;
//! 5. **sparsest/b1** — the B1 accuracy sweep feeding per-estimator error
//!    summaries;
//! 6. **served/load** — concurrent HTTP clients against an in-process
//!    `mnc-served` (end-to-end latency quantiles);
//! 7. **parallel** — sequential vs `MNC_THREADS`-worker runs of the
//!    pool-backed paths (sketch build, boolean MM, density-map matmul,
//!    DAG wavefront): `parallel.*.{seq,par}_p50_ns` latency-gated plus the
//!    informational `parallel.*.speedup` ratios, with results asserted
//!    bit-identical before timing.
//!
//! Latency quantiles are aggregated from the recorder's spans (the same
//! records the Chrome trace shows), synopsis memory comes from
//! [`Synopsis::heap_bytes`], per-workload allocation totals from the
//! feature-gated counting allocator, and the environment fingerprint from
//! [`EnvInfo`]. [`compare_to_baseline`] re-reads a checked-in record and
//! gates each metric class with noise-tolerant thresholds — the CI
//! regression gate behind `mnc-perf --baseline BENCH_MNC.json`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use mnc_kernels::{scalar, Rounding, ScratchArena};

use mnc_core::{MncConfig, MncSketch, SplitMix64};
use mnc_estimators::{
    BiasedSamplingEstimator, BitsetEstimator, DensityMapEstimator, DynamicDensityMapEstimator,
    HashEstimator, LayeredGraphEstimator, MetaAcEstimator, MncEstimator, OpKind, SparsityEstimator,
    Synopsis,
};
use mnc_expr::{
    dense_chain_order, estimate_root, plan_cost_sketched, random_plan, sparse_chain_order,
    EstimationContext, ExprDag, NodeId, PlanTree, Recorder,
};
use mnc_matrix::{gen, CsrMatrix};
use mnc_obs::accuracy::{summarize, AccuracySummary};
use mnc_obs::export::json_f64;
use mnc_obs::AccuracyRecord;
use mnc_sparsest::runner::{run_case, standard_estimators};
use mnc_sparsest::usecases::b1_suite;
use mnc_sparsest::Outcome;
use rand::SeedableRng;

use crate::env_info::EnvInfo;
use crate::json::{parse, JsonValue};

/// Schema tag of the JSON record. The field set under it is append-only.
pub const SCHEMA: &str = "mnc.perf.v1";

/// One completed suite run: the flat metric map, per-estimator accuracy
/// summaries, the environment fingerprint, and the rendered time-attribution
/// table.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Environment fingerprint of the run.
    pub env: EnvInfo,
    /// Flat metric map. The *suffix* determines how the baseline compare
    /// gates a metric — see [`classify`].
    pub metrics: BTreeMap<String, f64>,
    /// Per-estimator accuracy summaries from the B1 sweep.
    pub accuracy: Vec<AccuracySummary>,
    /// Per-phase self-time attribution table (stderr, not part of the JSON).
    pub attribution: String,
}

/// Metric names may not contain spaces (estimator display names do).
fn slug(name: &str) -> String {
    name.replace(' ', "_")
}

/// The element at the rounded linear index `round((n - 1) * q)` of an
/// already-sorted sample. This is not nearest-rank (`ceil(n * q)`-th
/// element): over `1..=99` at `q = 0.95` it takes 94 where nearest-rank
/// takes 95.
fn quantile_ns(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

/// The synopsis-bearing estimator line-up the perf suite drives: one of
/// each synopsis family (Table 1), MNC last.
fn lineup() -> Vec<Box<dyn SparsityEstimator>> {
    vec![
        Box::new(MetaAcEstimator),
        Box::new(BitsetEstimator::default()),
        Box::new(DensityMapEstimator::default()),
        Box::new(DynamicDensityMapEstimator::default()),
        Box::new(BiasedSamplingEstimator::default()),
        Box::new(HashEstimator::default()),
        Box::new(LayeredGraphEstimator::default()),
        Box::new(MncEstimator::new()),
    ]
}

/// Workload 1: per-estimator build + matmul estimation across sparsities
/// and shapes, plus the measured synopsis footprint on the reference
/// matrix.
fn estimator_workload(rec: &Recorder, d: usize, reps: usize, metrics: &mut BTreeMap<String, f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE2C);
    let square: Vec<Arc<CsrMatrix>> = [0.001, 0.01, 0.05]
        .iter()
        .map(|&s| Arc::new(gen::rand_uniform(&mut rng, d, d, s)))
        .collect();
    let tall = Arc::new(gen::rand_uniform(&mut rng, d, d.div_ceil(2), 0.01));
    for est in lineup() {
        let _w = rec
            .span("workload")
            .op(format!("estimators/{}", est.name()));
        for _ in 0..reps {
            for m in square.iter().chain(std::iter::once(&tall)) {
                let g = rec.span("build").op(est.name()).nnz_in(m.nnz() as u64);
                let syn = est.build(m);
                drop(g);
                let Ok(syn) = syn else { continue };
                if m.nrows() == m.ncols() {
                    let _g = rec.span("estimate").op(est.name());
                    let _ = est.estimate(&OpKind::MatMul, &[&syn, &syn]);
                }
            }
        }
        // Footprint on the 1%-dense reference matrix: measured retained
        // heap next to the logical accounting, both memory-gated.
        if let Ok(syn) = est.build(&square[1]) {
            let key = slug(est.name());
            metrics.insert(
                format!("synopsis.{key}.heap_bytes"),
                syn.heap_bytes() as f64,
            );
            metrics.insert(
                format!("synopsis.{key}.size_bytes"),
                syn.size_bytes() as f64,
            );
        }
    }
}

/// Workload 2: synopsis propagation down a 4-matrix product chain for the
/// estimators that support chains natively, then the Appendix C chain
/// optimizer: the sparsity-aware and dense DPs over 5-, 10- and 20-matrix
/// chains (`chain.{sparse,dense}_dp.n<k>.p50_ns`) and sketch-scoring 32
/// random 10-matrix plans (`chain.plan_score.p50_ns`).
fn chain_workload(rec: &Recorder, d: usize, reps: usize, metrics: &mut BTreeMap<String, f64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A1);
    let mats: Vec<Arc<CsrMatrix>> = [0.01, 0.005, 0.02, 0.01]
        .iter()
        .map(|&s| Arc::new(gen::rand_uniform(&mut rng, d, d, s)))
        .collect();
    let ests: Vec<Box<dyn SparsityEstimator>> = vec![
        Box::new(MncEstimator::new()),
        Box::new(DensityMapEstimator::default()),
        Box::new(BitsetEstimator::default()),
    ];
    for est in ests {
        let _w = rec.span("workload").op(format!("chain/{}", est.name()));
        for _ in 0..reps {
            let synopses: Vec<Synopsis> = mats.iter().filter_map(|m| est.build(m).ok()).collect();
            if synopses.len() != mats.len() {
                continue;
            }
            let mut acc = synopses[0].clone();
            for s in &synopses[1..] {
                let mut g = rec.span("propagate").op(est.name());
                match est.propagate(&OpKind::MatMul, &[&acc, s]) {
                    Ok(next) => {
                        g.set_bytes(next.heap_bytes());
                        acc = next;
                    }
                    Err(_) => break,
                }
            }
        }
    }

    // The chain optimizer prices plans from leaf sketches alone, so it is
    // timed on seeded 5%-dense sketches; each chain is a prefix of one
    // 20-sketch sequence.
    let _w = rec.span("workload").op("chain/optimizer");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let sketches: Vec<MncSketch> = (0..20)
        .map(|_| MncSketch::build(&gen::rand_uniform(&mut rng, d, d, 0.05)))
        .collect();
    let cfg = MncConfig::default();
    let samples = 2 * reps + 1;
    for n in [5, 10, 20] {
        metrics.insert(
            format!("chain.sparse_dp.n{n}.p50_ns"),
            batched_p50_ns(samples, 2, || {
                black_box(sparse_chain_order(black_box(&sketches[..n]), &cfg));
            }),
        );
        let dims = vec![d; n + 1];
        metrics.insert(
            format!("chain.dense_dp.n{n}.p50_ns"),
            batched_p50_ns(samples, 64, || {
                black_box(dense_chain_order(black_box(&dims)));
            }),
        );
    }
    let mut plan_rng = SplitMix64::new(5);
    let plans: Vec<PlanTree> = (0..32).map(|_| random_plan(10, &mut plan_rng)).collect();
    metrics.insert(
        "chain.plan_score.p50_ns".into(),
        batched_p50_ns(samples, 1, || {
            black_box(
                plans
                    .iter()
                    .map(|p| plan_cost_sketched(&sketches[..10], p, &cfg))
                    .sum::<f64>(),
            );
        }),
    );
}

/// Deterministic count vector for the kernel workload (no `rand`
/// dependency on the hot path; LCG keeps runs reproducible).
fn lcg_counts(seed: u64, len: usize, max: u32) -> Vec<u32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as u32) % (max + 1)
        })
        .collect()
}

/// Median per-iteration nanoseconds over `samples` batched samples of
/// `inner` iterations each (batching lifts cheap kernels above timer
/// granularity; the median rejects scheduler outliers).
fn batched_p50_ns(samples: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    let mut durs = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        durs.push(t.elapsed().as_nanos() as u64 / inner as u64);
    }
    durs.sort_unstable();
    quantile_ns(&durs, 0.5)
}

/// Workload 3: scalar-vs-kernel microbenchmarks of the hot-path primitives
/// introduced by `mnc-kernels` — the sketch dot product, the `bool_mm`
/// four-row OR fold, bitset popcount, the fused `zip_add` and `scale_round`
/// combinators, probabilistic scale-and-round (`prob_round`), and a
/// chain-opt DP step (the sketch dot products that price
/// every split of an eight-matrix chain plus one scaled propagation of the
/// winning cell, with arena-leased, recycled outputs on the kernel side).
/// Emits `kernel.<name>.{scalar_p50_ns, kernel_p50_ns}`
/// (latency-gated) and the ungated `kernel.<name>.speedup` ratio.
fn kernel_workload(rec: &Recorder, scale: f64, metrics: &mut BTreeMap<String, f64>) {
    let _w = rec.span("workload").op("kernels");
    let len = ((20_000.0 * scale) as usize).max(2048);
    let x = lcg_counts(1, len, 1000);
    let y = lcg_counts(2, len, 1000);
    let (samples, inner) = (31, (1 << 16) / len.min(1 << 16) + 4);
    fn record(metrics: &mut BTreeMap<String, f64>, name: &str, scalar_ns: f64, kernel_ns: f64) {
        metrics.insert(format!("kernel.{name}.scalar_p50_ns"), scalar_ns);
        metrics.insert(format!("kernel.{name}.kernel_p50_ns"), kernel_ns);
        metrics.insert(
            format!("kernel.{name}.speedup"),
            scalar_ns / kernel_ns.max(1.0),
        );
    }

    let scalar_dot = batched_p50_ns(samples, inner, || {
        black_box(scalar::dot_u32(black_box(&x), black_box(&y)));
    });
    record(
        metrics,
        "dot",
        scalar_dot,
        batched_p50_ns(samples, inner, || {
            black_box(mnc_kernels::dot_u32_portable(black_box(&x), black_box(&y)));
        }),
    );
    // The runtime-dispatched lane (AVX2 where the host has it, the portable
    // kernel elsewhere) gets its own gated latency plus an info ratio.
    let simd_dot = batched_p50_ns(samples, inner, || {
        black_box(mnc_kernels::dot_u32(black_box(&x), black_box(&y)));
    });
    metrics.insert("kernel.dot.simd_p50_ns".into(), simd_dot);
    metrics.insert(
        "kernel.dot.simd_speedup".into(),
        scalar_dot / simd_dot.max(1.0),
    );

    // The `bool_mm` inner loop: OR four synopsis rows into the output row —
    // one row at a time (the original accumulation) against the batched
    // single-pass `or4_into` fold. Identical bits either way (OR is
    // associative and commutative).
    let rows: Vec<Vec<u64>> = (0..4)
        .map(|i| {
            lcg_counts(5 + i, len, u32::MAX - 1)
                .iter()
                .zip(lcg_counts(9 + i, len, u32::MAX - 1).iter())
                .map(|(&a, &b)| (a as u64) << 32 | b as u64)
                .collect()
        })
        .collect();
    let mut dst = vec![0u64; len];
    let scalar_or = batched_p50_ns(samples, inner, || {
        dst.fill(0);
        for r in &rows {
            scalar::or_into(&mut dst, r);
        }
        black_box(&dst);
    });
    record(
        metrics,
        "bool_mm_or",
        scalar_or,
        batched_p50_ns(samples, inner, || {
            dst.fill(0);
            mnc_kernels::or4_into_portable(&mut dst, &rows[0], &rows[1], &rows[2], &rows[3]);
            black_box(&dst);
        }),
    );
    let simd_or = batched_p50_ns(samples, inner, || {
        dst.fill(0);
        mnc_kernels::or4_into(&mut dst, &rows[0], &rows[1], &rows[2], &rows[3]);
        black_box(&dst);
    });
    metrics.insert("kernel.bool_mm_or.simd_p50_ns".into(), simd_or);
    metrics.insert(
        "kernel.bool_mm_or.simd_speedup".into(),
        scalar_or / simd_or.max(1.0),
    );

    // Bitset word popcount (sparsity readback, and_popcount pricing):
    // scalar count_ones fold vs the portable fold vs the dispatched
    // nibble-LUT lane.
    let words = &rows[0];
    let scalar_pc = batched_p50_ns(samples, inner, || {
        black_box(scalar::popcount(black_box(words)));
    });
    record(
        metrics,
        "popcount",
        scalar_pc,
        batched_p50_ns(samples, inner, || {
            black_box(mnc_kernels::popcount_portable(black_box(words)));
        }),
    );
    let simd_pc = batched_p50_ns(samples, inner, || {
        black_box(mnc_kernels::popcount(black_box(words)));
    });
    metrics.insert("kernel.popcount.simd_p50_ns".into(), simd_pc);
    metrics.insert(
        "kernel.popcount.simd_speedup".into(),
        scalar_pc / simd_pc.max(1.0),
    );

    // The count-vector combinators behind ew_add and every count rescale:
    // collect-then-rescan (allocating `scalar::zip_add` or
    // `scalar::scale_round`, then `meta_scan`) against the fused `*_into`
    // forms, which derive the same metadata in the one pass and write into
    // an arena-leased buffer. Counts are bounded by 1000, so `half` is 500.
    let round = |v: f64| v.round() as u64;
    let mut arena = ScratchArena::new();
    let mut out = arena.take_u32(len);
    record(
        metrics,
        "zip_add",
        batched_p50_ns(samples, inner, || {
            let v = scalar::zip_add(black_box(&x), black_box(&y));
            black_box(scalar::meta_scan(&v, 500));
        }),
        batched_p50_ns(samples, inner, || {
            black_box(mnc_kernels::zip_add_into(&x, &y, 500, &mut out));
        }),
    );
    record(
        metrics,
        "scale_round",
        batched_p50_ns(samples, inner, || {
            let v = scalar::scale_round(black_box(&x), 1e5, 1000, round);
            black_box(scalar::meta_scan(&v, 500));
        }),
        batched_p50_ns(samples, inner, || {
            black_box(mnc_kernels::scale_round_into(
                &x,
                1e5,
                1000,
                500,
                Rounding::Nearest,
                &mut out,
            ));
        }),
    );

    // The same scaling with probabilistic rounding: the original per-entry
    // rule (libm `floor`, a sequential draw behind a branch) through the
    // rounding closure against the counter-indexed, branch-free kernel arm.
    // The counts are scaled to small fractional values, so nearly every
    // entry draws, as in the estimation walk, whose propagated count
    // vectors are dense (0.3 % zeros, 99 % drawing entries measured over
    // the B2/B3 optimizer templates). Both sides start from the same seed
    // and must return the same vector.
    let scalar_prob = |g: &mut SplitMix64| {
        let v = scalar::scale_round(black_box(&x), 3e4, 1000, |v| scalar::prob_round(g, v));
        let meta = scalar::meta_scan(&v, 500);
        (v, meta)
    };
    let mut g = SplitMix64::new(0x5CA1E);
    let (reference, _) = scalar_prob(&mut g.clone());
    mnc_kernels::scale_round_into(
        &x,
        3e4,
        1000,
        500,
        Rounding::Probabilistic(&mut g),
        &mut out,
    );
    assert_eq!(
        out, reference,
        "prob_round kernel diverged from the scalar reference"
    );
    record(
        metrics,
        "prob_round",
        batched_p50_ns(samples, inner, || {
            black_box(scalar_prob(&mut SplitMix64::new(0x5CA1E)));
        }),
        batched_p50_ns(samples, inner, || {
            black_box(mnc_kernels::scale_round_into(
                black_box(&x),
                3e4,
                1000,
                500,
                Rounding::Probabilistic(&mut SplitMix64::new(0x5CA1E)),
                &mut out,
            ));
        }),
    );
    arena.put_u32(out);

    // Chain-opt DP probe: price every split of an eight-sketch matmul chain
    // via sketch dot products, then propagate the winning cell once —
    // scale both count vectors and derive their metadata. The scalar side
    // is the pre-kernel shape: clone the two memoized sketches (the old
    // clone-then-propagate DP cell), sequential f64 dots, allocating scale,
    // separate metadata scans. The kernel side propagates from borrows via
    // the integer dot and the fused scale-with-metadata, writing into
    // arena-recycled buffers. Counts are mostly zero, as the sketches of
    // sparse matrices are. Deterministic rounding keeps both sides
    // comparable (neither draws).
    let vecs: Vec<Vec<u32>> = (0..8)
        .map(|i| {
            let mut v = lcg_counts(20 + i, len, 1000);
            v.iter_mut()
                .for_each(|c| *c = if *c % 8 == 0 { *c } else { 0 });
            v
        })
        .collect();
    let half = (len / 2) as u32;
    let cap = len as u64;
    let n = vecs.len();
    let splits = ((n * n * n - n) / 6) as f64;
    let scalar_ns = batched_p50_ns(samples, inner.div_ceil(4), || {
        let mut acc = 0.0;
        for span in 2..=n {
            for i in 0..=n - span {
                for k in i..i + span - 1 {
                    acc += scalar::dot_u32(&vecs[i], &vecs[k + 1]);
                }
            }
        }
        let (left, right) = (
            (vecs[0].clone(), vecs[1].clone()),
            (vecs[2].clone(), vecs[3].clone()),
        );
        let target = acc / splits;
        let hr = scalar::scale_round(&left.0, target, cap, round);
        let row_meta = scalar::meta_scan(&hr, half);
        let hc = scalar::scale_round(&right.1, target, cap, round);
        let col_meta = scalar::meta_scan(&hc, half);
        black_box((acc, left, right, hr, hc, row_meta, col_meta));
    });
    let kernel_ns = batched_p50_ns(samples, inner.div_ceil(4), || {
        let mut acc = 0.0;
        for span in 2..=n {
            for i in 0..=n - span {
                for k in i..i + span - 1 {
                    acc += mnc_kernels::dot_u32(&vecs[i], &vecs[k + 1]);
                }
            }
        }
        let target = acc / splits;
        let mut hr = arena.take_u32_spare();
        let row_meta =
            mnc_kernels::scale_round_into(&vecs[0], target, cap, half, Rounding::Nearest, &mut hr);
        let mut hc = arena.take_u32_spare();
        let col_meta =
            mnc_kernels::scale_round_into(&vecs[3], target, cap, half, Rounding::Nearest, &mut hc);
        black_box((acc, &hr, &hc, row_meta, col_meta));
        arena.put_u32(hr);
        arena.put_u32(hc);
    });
    record(metrics, "propagation_chain", scalar_ns, kernel_ns);
}

/// The optimizer probes' shared `d × d` base matrices: a
/// product-chain-friendly set with one ultra-sparse member, as in the chain
/// experiments.
pub fn probe_matrices(d: usize) -> Vec<Arc<CsrMatrix>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAC4E);
    [0.01, 0.001, 0.02, 0.005]
        .iter()
        .map(|&s| Arc::new(gen::rand_uniform(&mut rng, d, d, s)))
        .collect()
}

/// One optimizer probe: a fresh DAG over the shared leaves — alternating
/// left-deep and right-deep parenthesizations so intermediate synopses
/// differ across probes while the leaves repeat.
pub fn probe_dag(mats: &[Arc<CsrMatrix>], probe: usize) -> (ExprDag, NodeId) {
    let mut dag = ExprDag::new();
    let leaves: Vec<NodeId> = mats
        .iter()
        .enumerate()
        .map(|(i, m)| dag.leaf(format!("M{i}"), Arc::clone(m)))
        .collect();
    let root = if probe.is_multiple_of(2) {
        let mut acc = leaves[0];
        for &l in &leaves[1..] {
            acc = dag.matmul(acc, l).expect("chain shapes agree");
        }
        acc
    } else {
        let mut acc = *leaves.last().expect("non-empty");
        for &l in leaves[..leaves.len() - 1].iter().rev() {
            acc = dag.matmul(l, acc).expect("chain shapes agree");
        }
        acc
    };
    (dag, root)
}

/// Workload 4: the `EstimationContext` cache workload — repeated probes over
/// shared leaves with a session vs without one.
fn cache_workload(rec: &Recorder, d: usize, reps: usize, metrics: &mut BTreeMap<String, f64>) {
    let _w = rec.span("workload").op("cache");
    let mats = probe_matrices(d);
    let dags: Vec<(ExprDag, NodeId)> = (0..2).map(|p| probe_dag(&mats, p)).collect();
    let est = MncEstimator::new();
    let probes = reps.max(2) * 4;

    let t = Instant::now();
    let mut ctx = EstimationContext::new().with_recorder(rec.clone());
    for probe in 0..probes {
        let (dag, root) = &dags[probe % dags.len()];
        ctx.estimate_root(&est, dag, *root).expect("estimate");
    }
    metrics.insert(
        "cache.cached_total_ns".into(),
        t.elapsed().as_nanos() as f64,
    );

    let t = Instant::now();
    for probe in 0..probes {
        let (dag, root) = &dags[probe % dags.len()];
        estimate_root(&est, dag, *root).expect("estimate");
    }
    metrics.insert(
        "cache.uncached_total_ns".into(),
        t.elapsed().as_nanos() as f64,
    );

    let stats = ctx.stats();
    metrics.insert("cache.hit_rate".into(), stats.hit_rate());
    metrics.insert("cache.builds".into(), stats.builds as f64);
    metrics.insert("cache.hits".into(), stats.cache_hits as f64);
    metrics.insert("cache.misses".into(), stats.cache_misses as f64);
}

/// Workload 5: the SparsEst B1 accuracy sweep over the standard estimator
/// line-up, summarized per estimator.
fn accuracy_workload(
    rec: &Recorder,
    scale: f64,
    metrics: &mut BTreeMap<String, f64>,
) -> Vec<AccuracySummary> {
    let _w = rec.span("workload").op("sparsest/b1");
    let cases = b1_suite(scale, 42);
    let ests = standard_estimators();
    let refs: Vec<&dyn SparsityEstimator> = ests.iter().map(|b| b.as_ref()).collect();
    let mut records = Vec::new();
    for case in &cases {
        for r in run_case(case, &refs) {
            if let Outcome::Estimate { estimate, .. } = r.outcome {
                records.push(AccuracyRecord::new(
                    r.case,
                    "root",
                    r.estimator,
                    estimate,
                    r.truth,
                ));
            }
        }
    }
    let summaries = summarize(&records);
    for s in &summaries {
        let key = slug(&s.estimator);
        metrics.insert(format!("accuracy.{key}.geo_mean_error"), s.geo_mean_error);
        metrics.insert(format!("accuracy.{key}.infinite"), s.infinite as f64);
        metrics.insert(format!("accuracy.{key}.count"), s.count as f64);
    }
    summaries
}

/// Workload 6: the `mnc-served` concurrent-client load — full HTTP round
/// trips against an in-process service over a throwaway catalog. The
/// latency quantiles are service-path end-to-end (routing + admission +
/// catalog leaf lookup + walk), gated like every other `*_ns` metric.
fn served_workload(rec: &Recorder, scale: f64, reps: usize, metrics: &mut BTreeMap<String, f64>) {
    let _w = rec.span("workload").op("served/load");
    let clients = 4;
    let requests = (10 * reps).max(5);
    let report = crate::served_load::run_load(scale, clients, requests);
    metrics.insert("served.estimate.p50_ns".into(), report.p50_ns);
    metrics.insert("served.estimate.p99_ns".into(), report.p99_ns);
    // The trace plane's service-side latency split: queue wait (admission
    // gate) vs actual service time. A scheduling regression shows up in the
    // first, a compute regression in the second.
    metrics.insert("served.queue_wait.p99_ns".into(), report.queue_wait_p99_ns);
    metrics.insert("served.service.p50_ns".into(), report.service_p50_ns);
    metrics.insert("served.service.p99_ns".into(), report.service_p99_ns);
    metrics.insert("served.requests_ok".into(), report.ok as f64);
    metrics.insert("served.requests_err".into(), report.errors as f64);
    // The shadow plane runs at rate 1.0 during the load: the drop rate is
    // the shed fraction of the bounded background queue (informational —
    // shedding is the design, not a regression), and the shadow p99 is the
    // off-thread alternate-estimator latency, gated like any `*_ns`.
    metrics.insert("served.shadow.sampled".into(), report.shadow_sampled as f64);
    metrics.insert(
        "served.shadow.completed".into(),
        report.shadow_completed as f64,
    );
    metrics.insert("served.shadow.drop_rate".into(), report.shadow_drop_rate);
    metrics.insert("served.shadow.p99_ns".into(), report.shadow_p99_ns);
}

/// Workload 7: sequential vs multi-threaded runs of the pool-backed hot
/// paths. Thread count comes from `MNC_THREADS` (default 4). Every pair is
/// asserted bit-identical once before timing — the parallel paths are
/// rearrangements of the same arithmetic, not approximations — then both
/// sides are timed and emitted as `parallel.<name>.{seq_p50_ns, par_p50_ns}`
/// (latency-gated) plus the ungated `parallel.<name>.speedup` ratio.
fn parallel_workload(rec: &Recorder, scale: f64, reps: usize, metrics: &mut BTreeMap<String, f64>) {
    use mnc_estimators::bitset::{bool_mm, bool_mm_parallel, BitsetSynopsis};

    let _w = rec.span("workload").op("parallel");
    let threads = std::env::var("MNC_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(4);
    metrics.insert("parallel.threads".into(), threads as f64);
    let samples = (2 * reps + 1).min(9);
    let mut record = |name: &str, seq_ns: f64, par_ns: f64| {
        metrics.insert(format!("parallel.{name}.seq_p50_ns"), seq_ns);
        metrics.insert(format!("parallel.{name}.par_p50_ns"), par_ns);
        metrics.insert(format!("parallel.{name}.speedup"), seq_ns / par_ns.max(1.0));
    };

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x9A12_11E1);
    // Paper-scale at `--scale 1.0`: 3000-dim operands, large enough that the
    // per-call scoped-thread spawn (~100µs) amortizes. At CI's 0.1 scale the
    // matrices are small and the seq/par latencies are gated individually —
    // the speedup ratios only become meaningful at the profile scale.
    let d = ((3000.0 * scale) as usize).max(128);
    let a = Arc::new(gen::rand_uniform(&mut rng, d, d, 0.05));
    let b = Arc::new(gen::rand_uniform(&mut rng, d, d, 0.03));

    // MNC sketch build: row/column count scans split across workers, merged
    // in index order.
    let det = MncEstimator::with_config(
        "MNC",
        mnc_core::MncConfig {
            probabilistic_rounding: false,
            ..mnc_core::MncConfig::default()
        },
    );
    let det_par = MncEstimator::with_config(
        "MNC",
        mnc_core::MncConfig {
            probabilistic_rounding: false,
            ..mnc_core::MncConfig::default()
        },
    )
    .with_build_threads(threads);
    let (sa, pa) = (det.build(&a).unwrap(), det_par.build(&a).unwrap());
    let (sb, pb) = (det.build(&b).unwrap(), det_par.build(&b).unwrap());
    let seq_est = det.estimate(&OpKind::MatMul, &[&sa, &sb]).unwrap();
    let par_est = det_par.estimate(&OpKind::MatMul, &[&pa, &pb]).unwrap();
    assert_eq!(
        seq_est.to_bits(),
        par_est.to_bits(),
        "threaded sketch build must be bit-identical"
    );
    record(
        "sketch_build",
        batched_p50_ns(samples, 1, || {
            black_box(det.build(black_box(&a)).unwrap());
        }),
        batched_p50_ns(samples, 1, || {
            black_box(det_par.build(black_box(&a)).unwrap());
        }),
    );

    // Bitset boolean matrix product: output rows are independent; the
    // parallel fold ORs the same rows in the same order per output row.
    let (ba, bb) = (
        BitsetSynopsis::from_matrix(&a),
        BitsetSynopsis::from_matrix(&b),
    );
    let seq_mm = bool_mm(&ba, &bb);
    let par_mm = bool_mm_parallel(&ba, &bb, threads);
    assert_eq!(
        seq_mm.sparsity().to_bits(),
        par_mm.sparsity().to_bits(),
        "parallel bool_mm must be bit-identical"
    );
    record(
        "bool_mm",
        batched_p50_ns(samples, 1, || {
            black_box(bool_mm(black_box(&ba), black_box(&bb)));
        }),
        batched_p50_ns(samples, 1, || {
            black_box(bool_mm_parallel(black_box(&ba), black_box(&bb), threads));
        }),
    );

    // Density-map pseudo-product: block rows of the output are independent
    // and merged in index order. The block size scales with the dimension so
    // the grid stays ~128 blocks/side — a paper-sized pseudo-product, not a
    // single-block trivial case.
    let dm_block = (d / 128).max(1);
    let dm_seq = DensityMapEstimator::with_block(dm_block);
    let dm_par = DensityMapEstimator::with_block(dm_block).with_threads(threads);
    let (da, db) = (dm_seq.build(&a).unwrap(), dm_seq.build(&b).unwrap());
    let seq_dm = dm_seq.propagate(&OpKind::MatMul, &[&da, &db]).unwrap();
    let par_dm = dm_par.propagate(&OpKind::MatMul, &[&da, &db]).unwrap();
    assert_eq!(
        seq_dm.sparsity().to_bits(),
        par_dm.sparsity().to_bits(),
        "threaded density-map matmul must be bit-identical"
    );
    record(
        "dmap_matmul",
        batched_p50_ns(samples, 1, || {
            black_box(dm_seq.propagate(&OpKind::MatMul, &[&da, &db]).unwrap());
        }),
        batched_p50_ns(samples, 1, || {
            black_box(dm_par.propagate(&OpKind::MatMul, &[&da, &db]).unwrap());
        }),
    );

    // DAG wavefront: a wide expression (two independent products joined by
    // an add) walked cold by an `EstimationContext` — the parallel side
    // schedules each topological level across the session pool.
    let c = Arc::new(gen::rand_uniform(&mut rng, d, d, 0.04));
    let e = Arc::new(gen::rand_uniform(&mut rng, d, d, 0.02));
    let mut dag = ExprDag::new();
    let (la, lb, lc, le) = (
        dag.leaf("A", Arc::clone(&a)),
        dag.leaf("B", Arc::clone(&b)),
        dag.leaf("C", Arc::clone(&c)),
        dag.leaf("E", Arc::clone(&e)),
    );
    let left = dag.matmul(la, lb).expect("square chain");
    let right = dag.matmul(lc, le).expect("square chain");
    let root = dag.ew_add(left, right).expect("same shape");
    let seq_root = EstimationContext::new()
        .estimate_root(&det, &dag, root)
        .expect("estimate");
    let par_root = EstimationContext::new()
        .with_threads(threads)
        .estimate_root(&det, &dag, root)
        .expect("estimate");
    assert_eq!(
        seq_root.to_bits(),
        par_root.to_bits(),
        "parallel wavefront must be bit-identical"
    );
    record(
        "wavefront",
        batched_p50_ns(samples, 1, || {
            let mut ctx = EstimationContext::new();
            black_box(ctx.estimate_root(&det, &dag, root).expect("estimate"));
        }),
        batched_p50_ns(samples, 1, || {
            let mut ctx = EstimationContext::new().with_threads(threads);
            black_box(ctx.estimate_root(&det, &dag, root).expect("estimate"));
        }),
    );
}

/// Runs the fixed suite at the given scale knobs and returns the report
/// plus the recorder (for `--trace` / `--metrics` emission by the binary).
pub fn run_suite(scale: f64, reps: usize) -> (PerfReport, Recorder) {
    let rec = Recorder::enabled();
    let t0 = Instant::now();
    let mut metrics = BTreeMap::new();

    let d_est = ((600.0 * scale) as usize).max(40);
    let d_chain = ((400.0 * scale) as usize).max(40);
    estimator_workload(&rec, d_est, reps, &mut metrics);
    chain_workload(&rec, d_chain, reps, &mut metrics);
    kernel_workload(&rec, scale, &mut metrics);
    cache_workload(&rec, d_est, reps, &mut metrics);
    let accuracy = accuracy_workload(&rec, scale, &mut metrics);
    served_workload(&rec, scale, reps, &mut metrics);
    parallel_workload(&rec, scale, reps, &mut metrics);
    metrics.insert("suite.total_ns".into(), t0.elapsed().as_nanos() as f64);

    // Latency quantiles aggregated from the recorder's spans — the same
    // records the Chrome trace and attribution table are built from.
    let spans = rec.spans();
    let mut groups: BTreeMap<(&str, String), Vec<u64>> = BTreeMap::new();
    for s in &spans {
        if matches!(s.name, "build" | "estimate" | "propagate") {
            if let Some(op) = &s.op {
                groups
                    .entry((s.name, op.clone()))
                    .or_default()
                    .push(s.dur_ns);
            }
        }
    }
    for ((name, op), mut durs) in groups {
        durs.sort_unstable();
        let key = slug(&op);
        metrics.insert(format!("{name}.{key}.p50_ns"), quantile_ns(&durs, 0.50));
        metrics.insert(format!("{name}.{key}.p95_ns"), quantile_ns(&durs, 0.95));
        metrics.insert(format!("{name}.{key}.max_ns"), *durs.last().unwrap() as f64);
    }

    // Per-workload wall time and (on alloc-track builds) gross allocation.
    for s in &spans {
        if s.name != "workload" {
            continue;
        }
        let Some(op) = &s.op else { continue };
        let key = slug(op);
        *metrics
            .entry(format!("workload.{key}.total_ns"))
            .or_insert(0.0) += s.dur_ns as f64;
        if let Some(bytes) = s.alloc_bytes {
            *metrics
                .entry(format!("workload.{key}.alloc_bytes"))
                .or_insert(0.0) += bytes as f64;
        }
    }
    if mnc_obs::alloc::tracking_active() {
        metrics.insert(
            "alloc.peak_bytes".into(),
            mnc_obs::alloc::peak_bytes() as f64,
        );
    }

    let attribution = mnc_obs::render_attribution(&spans);
    let env = EnvInfo::capture(scale, reps);
    (
        PerfReport {
            env,
            metrics,
            accuracy,
            attribution,
        },
        rec,
    )
}

// ---------------------------------------------------------------------------
// JSON record
// ---------------------------------------------------------------------------

/// Renders the stable-schema JSON record (multi-line, so checked-in
/// baselines diff reviewably).
pub fn render_json(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
    out.push_str(&format!("  \"env\": {},\n", report.env.to_json()));
    out.push_str("  \"metrics\": {\n");
    let mut first = true;
    for (k, v) in &report.metrics {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("    \"{k}\": {}", json_f64(*v)));
    }
    out.push_str("\n  },\n");
    out.push_str("  \"accuracy\": [\n");
    for (i, s) in report.accuracy.iter().enumerate() {
        let (worst_case, worst_error) = match &s.worst {
            Some((case, err)) => (
                format!("\"{}\"", mnc_obs::export::json_escape(case)),
                json_f64(*err),
            ),
            None => ("null".to_string(), "null".to_string()),
        };
        out.push_str(&format!(
            "    {{\"estimator\": \"{}\", \"count\": {}, \"infinite\": {}, \
             \"geo_mean_error\": {}, \"worst_case\": {}, \"worst_error\": {}}}{}\n",
            mnc_obs::export::json_escape(&s.estimator),
            s.count,
            s.infinite,
            json_f64(s.geo_mean_error),
            worst_case,
            worst_error,
            if i + 1 == report.accuracy.len() {
                ""
            } else {
                ","
            }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

/// How the baseline compare gates a metric, decided by its name suffix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// `*_ns`: wall-clock — noisy, wide multiplicative band plus absolute
    /// slack (containers, frequency scaling).
    Latency,
    /// `*_bytes`: memory — deterministic up to allocator rounding.
    Memory,
    /// `*.geo_mean_error`: accuracy ratio — deterministic given the seed,
    /// small band for numeric drift.
    AccuracyError,
    /// `*.infinite`: exact zero/non-zero mismatch counts — must not grow.
    ExactCount,
    /// Everything else: recorded, never gated.
    Info,
}

/// Classifies a metric name by suffix.
pub fn classify(key: &str) -> MetricClass {
    if key.ends_with("_ns") {
        MetricClass::Latency
    } else if key.ends_with("_bytes") {
        MetricClass::Memory
    } else if key.ends_with(".geo_mean_error") {
        MetricClass::AccuracyError
    } else if key.ends_with(".infinite") {
        MetricClass::ExactCount
    } else {
        MetricClass::Info
    }
}

/// One gated metric that exceeded its threshold (or disappeared).
#[derive(Debug, Clone)]
pub struct Regression {
    /// Metric name.
    pub metric: String,
    /// The class whose threshold was applied.
    pub class: MetricClass,
    /// Baseline value.
    pub baseline: f64,
    /// Current value (`NaN` when the metric vanished).
    pub current: f64,
    /// The threshold the current value had to stay under.
    pub limit: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.current.is_nan() {
            write!(
                f,
                "{}: missing from the current run (baseline {:.6e})",
                self.metric, self.baseline
            )
        } else {
            write!(
                f,
                "{}: {:.6e} exceeds limit {:.6e} ({:?} over baseline {:.6e})",
                self.metric, self.current, self.limit, self.class, self.baseline
            )
        }
    }
}

/// The per-class threshold above the baseline value. Latency gets a 5x
/// band plus 200µs absolute slack (shared runners); memory 1.25x plus one
/// 4 KiB page; accuracy 1.25x plus 0.01; exact counts must not increase.
fn limit_for(class: MetricClass, baseline: f64) -> f64 {
    match class {
        MetricClass::Latency => baseline * 5.0 + 200_000.0,
        MetricClass::Memory => baseline * 1.25 + 4096.0,
        MetricClass::AccuracyError => baseline * 1.25 + 0.01,
        MetricClass::ExactCount => baseline,
        MetricClass::Info => f64::INFINITY,
    }
}

/// Gates every classified baseline metric against the current run. A gated
/// metric missing from the current run counts as a regression (silent
/// coverage loss); metrics new in the current run are fine.
pub fn compare_metrics(
    current: &BTreeMap<String, f64>,
    baseline: &BTreeMap<String, f64>,
) -> Vec<Regression> {
    let mut out = Vec::new();
    for (key, &base) in baseline {
        let class = classify(key);
        if class == MetricClass::Info {
            continue;
        }
        let limit = limit_for(class, base);
        match current.get(key) {
            None => out.push(Regression {
                metric: key.clone(),
                class,
                baseline: base,
                current: f64::NAN,
                limit,
            }),
            Some(&cur) if cur > limit => out.push(Regression {
                metric: key.clone(),
                class,
                baseline: base,
                current: cur,
                limit,
            }),
            Some(_) => {}
        }
    }
    out
}

fn baseline_env_f64(env: &JsonValue, key: &str) -> Result<f64, String> {
    env.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("baseline env has no numeric `{key}`"))
}

/// Parses a checked-in `BENCH_MNC.json` and gates the current report
/// against it. Refuses (with `Err`) when the records are not comparable:
/// A warning when the checked-in baseline was generated by the **same
/// commit** as the current build. Such a gate compares a build against
/// itself: every latency/memory threshold passes by construction and the
/// record says nothing about the trajectory since the last real baseline.
/// Returns `None` when the SHAs differ (the healthy case) or when either
/// side has no usable SHA.
pub fn baseline_staleness_warning(report: &PerfReport, baseline_json: &str) -> Option<String> {
    let doc = parse(baseline_json).ok()?;
    let base_sha = doc.get("env")?.get("git_sha")?.as_str()?.trim().to_string();
    let cur_sha = report.env.git_sha.trim();
    if base_sha.is_empty() || cur_sha.is_empty() || base_sha != cur_sha {
        return None;
    }
    Some(format!(
        "baseline git_sha {base_sha} matches the current build — the gate is comparing \
         this commit against itself. Regenerate BENCH_MNC.json from the commit you want \
         to defend, or expect vacuous thresholds."
    ))
}

/// wrong schema, or different scale/reps/alloc-track knobs — comparing
/// across knobs would turn every threshold into noise.
pub fn compare_to_baseline(
    report: &PerfReport,
    baseline_json: &str,
) -> Result<Vec<Regression>, String> {
    let doc = parse(baseline_json).map_err(|e| format!("baseline does not parse: {e}"))?;
    let schema = doc
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("baseline has no `schema` field")?;
    if schema != SCHEMA {
        return Err(format!("baseline schema `{schema}`, expected `{SCHEMA}`"));
    }
    let env = doc.get("env").ok_or("baseline has no `env` field")?;
    let scale = baseline_env_f64(env, "scale")?;
    let reps = baseline_env_f64(env, "reps")?;
    if (scale - report.env.scale).abs() > 1e-9 || reps as usize != report.env.reps {
        return Err(format!(
            "baseline ran at scale {scale} / reps {reps}, current at scale {} / reps {} — \
             re-run with matching MNC_SCALE/MNC_REPS",
            report.env.scale, report.env.reps
        ));
    }
    let base_track = matches!(env.get("alloc_track"), Some(JsonValue::Bool(true)));
    if base_track != report.env.alloc_track {
        return Err(format!(
            "baseline alloc_track={base_track}, current {} — allocation metrics only \
             compare across identical feature sets",
            report.env.alloc_track
        ));
    }
    let base_metrics: BTreeMap<String, f64> = doc
        .get("metrics")
        .and_then(JsonValue::as_object)
        .ok_or("baseline has no `metrics` object")?
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect();
    Ok(compare_metrics(&report.metrics, &base_metrics))
}

// ---------------------------------------------------------------------------
// Deliberate regression injection (CI self-test)
// ---------------------------------------------------------------------------

/// Applies a `MNC_PERF_INJECT` spec to the metric map, e.g.
/// `latency=100` or `memory=10,infinite=3`: `latency`/`memory`/`accuracy`
/// multiply every metric of that class by the factor, `infinite` adds the
/// value to every exact-count metric. Exists so CI can prove the baseline
/// gate actually fails on a regression.
pub fn apply_injection(
    metrics: &mut BTreeMap<String, f64>,
    spec: &str,
) -> Result<Vec<String>, String> {
    let mut applied = Vec::new();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (name, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad inject spec `{part}` (expected class=value)"))?;
        let factor: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad inject value `{value}`"))?;
        let class = match name.trim() {
            "latency" => MetricClass::Latency,
            "memory" => MetricClass::Memory,
            "accuracy" => MetricClass::AccuracyError,
            "infinite" => MetricClass::ExactCount,
            other => return Err(format!("unknown inject class `{other}`")),
        };
        let mut touched = 0usize;
        for (key, v) in metrics.iter_mut() {
            if classify(key) == class {
                if class == MetricClass::ExactCount {
                    *v += factor;
                } else {
                    *v *= factor;
                }
                touched += 1;
            }
        }
        applied.push(format!(
            "injected {class:?} {}{factor} into {touched} metrics",
            if class == MetricClass::ExactCount {
                "+"
            } else {
                "x"
            }
        ));
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> PerfReport {
        let mut metrics = BTreeMap::new();
        metrics.insert("build.MNC.p50_ns".to_string(), 1000.0);
        metrics.insert("synopsis.MNC.heap_bytes".to_string(), 2560.0);
        metrics.insert("accuracy.MNC.geo_mean_error".to_string(), 1.05);
        metrics.insert("accuracy.MNC.infinite".to_string(), 0.0);
        metrics.insert("cache.hit_rate".to_string(), 0.9);
        PerfReport {
            env: EnvInfo::capture(0.1, 2),
            metrics,
            accuracy: vec![AccuracySummary {
                estimator: "MNC".to_string(),
                count: 5,
                infinite: 0,
                geo_mean_error: 1.05,
                worst: Some(("B1.1".to_string(), 1.3)),
            }],
            attribution: String::new(),
        }
    }

    #[test]
    fn self_referential_baseline_warns_loudly() {
        let report = tiny_report();
        let sha = &report.env.git_sha;
        let same = format!("{{\"schema\":\"mnc.perf.v1\",\"env\":{{\"git_sha\":\"{sha}\"}}}}");
        let warning =
            baseline_staleness_warning(&report, &same).expect("same-SHA baseline must warn");
        assert!(warning.contains(sha), "{warning}");
        assert!(warning.contains("itself"), "{warning}");
        // A baseline from any other commit is the healthy case: silent.
        let other = "{\"schema\":\"mnc.perf.v1\",\"env\":{\"git_sha\":\"a3f96872a660deadbeef\"}}";
        assert!(baseline_staleness_warning(&report, other).is_none());
        // Unparseable or SHA-less baselines never warn here — the compare
        // itself reports those failures.
        assert!(baseline_staleness_warning(&report, "not json").is_none());
        assert!(baseline_staleness_warning(&report, "{\"env\":{}}").is_none());
    }

    #[test]
    fn classification_follows_the_suffix() {
        assert_eq!(classify("build.MNC.p50_ns"), MetricClass::Latency);
        assert_eq!(classify("synopsis.Bitset.heap_bytes"), MetricClass::Memory);
        assert_eq!(classify("workload.cache.alloc_bytes"), MetricClass::Memory);
        assert_eq!(
            classify("accuracy.MNC.geo_mean_error"),
            MetricClass::AccuracyError
        );
        assert_eq!(classify("accuracy.MNC.infinite"), MetricClass::ExactCount);
        assert_eq!(classify("cache.hit_rate"), MetricClass::Info);
        // Kernel microbench latencies are gated; the speedup ratio is
        // informational (it is the *quotient* of two gated metrics).
        assert_eq!(classify("kernel.dot.kernel_p50_ns"), MetricClass::Latency);
        assert_eq!(classify("kernel.dot.scalar_p50_ns"), MetricClass::Latency);
        assert_eq!(classify("kernel.dot.speedup"), MetricClass::Info);
    }

    #[test]
    fn identical_runs_pass_the_gate() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let regs = compare_to_baseline(&report, &baseline).unwrap();
        assert!(regs.is_empty(), "identical run regressed: {regs:?}");
    }

    #[test]
    fn injected_latency_regression_is_caught() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut bad = report.clone();
        let applied = apply_injection(&mut bad.metrics, "latency=1000").unwrap();
        assert_eq!(applied.len(), 1);
        let regs = compare_to_baseline(&bad, &baseline).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "build.MNC.p50_ns");
        assert_eq!(regs[0].class, MetricClass::Latency);
        assert!(regs[0].to_string().contains("exceeds limit"));
    }

    #[test]
    fn injected_infinite_count_is_caught() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut bad = report.clone();
        apply_injection(&mut bad.metrics, "infinite=1").unwrap();
        let regs = compare_to_baseline(&bad, &baseline).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "accuracy.MNC.infinite");
    }

    #[test]
    fn small_jitter_stays_under_the_thresholds() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut jittered = report.clone();
        for (key, v) in jittered.metrics.iter_mut() {
            match classify(key) {
                MetricClass::Latency => *v *= 3.0,
                MetricClass::Memory => *v *= 1.1,
                MetricClass::AccuracyError => *v *= 1.01,
                _ => {}
            }
        }
        let regs = compare_to_baseline(&jittered, &baseline).unwrap();
        assert!(regs.is_empty(), "jitter flagged: {regs:?}");
    }

    #[test]
    fn vanished_gated_metric_is_a_regression() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut stripped = report.clone();
        stripped.metrics.remove("synopsis.MNC.heap_bytes");
        let regs = compare_to_baseline(&stripped, &baseline).unwrap();
        assert_eq!(regs.len(), 1);
        assert!(regs[0].current.is_nan());
        assert!(regs[0].to_string().contains("missing"));
    }

    #[test]
    fn info_metrics_are_never_gated() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut drifted = report.clone();
        drifted.metrics.insert("cache.hit_rate".to_string(), 0.0);
        assert!(compare_to_baseline(&drifted, &baseline).unwrap().is_empty());
    }

    #[test]
    fn mismatched_knobs_refuse_to_compare() {
        let report = tiny_report();
        let baseline = render_json(&report);
        let mut other_scale = report.clone();
        other_scale.env.scale = 0.5;
        assert!(compare_to_baseline(&other_scale, &baseline)
            .unwrap_err()
            .contains("MNC_SCALE"));
        let mut other_track = report.clone();
        other_track.env.alloc_track = !report.env.alloc_track;
        assert!(compare_to_baseline(&other_track, &baseline)
            .unwrap_err()
            .contains("alloc_track"));
    }

    #[test]
    fn record_round_trips_through_the_parser() {
        let report = tiny_report();
        let doc = parse(&render_json(&report)).unwrap();
        assert_eq!(doc.get("schema").and_then(JsonValue::as_str), Some(SCHEMA));
        let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), report.metrics.len());
        for (k, v) in &report.metrics {
            assert_eq!(metrics[k].as_f64(), Some(*v), "metric {k}");
        }
        let acc = match doc.get("accuracy") {
            Some(JsonValue::Array(items)) => items,
            other => panic!("expected accuracy array, got {other:?}"),
        };
        assert_eq!(
            acc[0].get("estimator").and_then(JsonValue::as_str),
            Some("MNC")
        );
        assert_eq!(
            acc[0].get("worst_case").and_then(JsonValue::as_str),
            Some("B1.1")
        );
    }

    #[test]
    fn bad_inject_specs_are_rejected() {
        let mut m = BTreeMap::new();
        assert!(apply_injection(&mut m, "latency").is_err());
        assert!(apply_injection(&mut m, "latency=abc").is_err());
        assert!(apply_injection(&mut m, "turbo=2").is_err());
    }

    #[test]
    fn quantiles_take_the_rounded_linear_index() {
        let durs: Vec<u64> = (1..=99).collect();
        assert_eq!(quantile_ns(&durs, 0.5), 50.0);
        assert_eq!(quantile_ns(&durs, 0.25), 26.0);
        assert_eq!(quantile_ns(&durs, 0.95), 94.0);
        assert_eq!(quantile_ns(&[], 0.5), 0.0);
    }

    /// End-to-end smoke: the tiny-scale suite produces the schema's pillars —
    /// latency quantiles from spans, measured heap for every estimator in
    /// the line-up, accuracy summaries, and a self-consistent JSON record.
    #[test]
    fn suite_smoke_run_covers_the_schema() {
        let (report, rec) = run_suite(0.05, 1);
        assert!(rec.is_enabled());
        for est in lineup() {
            let key = format!("synopsis.{}.heap_bytes", slug(est.name()));
            assert!(report.metrics.contains_key(&key), "missing {key}");
        }
        assert!(report.metrics.contains_key("build.MNC.p50_ns"));
        assert!(report.metrics.contains_key("cache.cached_total_ns"));
        for name in [
            "dot",
            "bool_mm_or",
            "popcount",
            "zip_add",
            "scale_round",
            "prob_round",
            "propagation_chain",
        ] {
            for stat in ["scalar_p50_ns", "kernel_p50_ns", "speedup"] {
                let key = format!("kernel.{name}.{stat}");
                assert!(report.metrics.contains_key(&key), "missing {key}");
            }
        }
        // The chain optimizer: both DPs by chain length, and plan scoring.
        for dp in ["sparse_dp", "dense_dp"] {
            for n in [5, 10, 20] {
                let key = format!("chain.{dp}.n{n}.p50_ns");
                assert!(report.metrics.contains_key(&key), "missing {key}");
            }
        }
        assert!(report.metrics.contains_key("chain.plan_score.p50_ns"));
        // The dispatched (SIMD where available) lane is measured separately
        // from the portable kernel so the CI gate can watch it directly.
        for name in ["dot", "bool_mm_or", "popcount"] {
            for stat in ["simd_p50_ns", "simd_speedup"] {
                let key = format!("kernel.{name}.{stat}");
                assert!(report.metrics.contains_key(&key), "missing {key}");
            }
        }
        for name in ["sketch_build", "bool_mm", "dmap_matmul", "wavefront"] {
            for stat in ["seq_p50_ns", "par_p50_ns", "speedup"] {
                let key = format!("parallel.{name}.{stat}");
                assert!(report.metrics.contains_key(&key), "missing {key}");
            }
        }
        assert!(report.metrics.contains_key("parallel.threads"));
        assert!(report
            .metrics
            .keys()
            .any(|k| k.starts_with("workload.") && k.ends_with(".total_ns")));
        assert!(!report.accuracy.is_empty());
        assert!(report.attribution.contains("workload"));
        // The run gates cleanly against its own record.
        let json = render_json(&report);
        assert!(compare_to_baseline(&report, &json).unwrap().is_empty());
    }
}
