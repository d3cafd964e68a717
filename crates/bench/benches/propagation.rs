//! Criterion benches for sketch propagation and the chain optimizer —
//! the costs that matter during compilation (re-optimization loops call
//! these, not construction).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mnc_core::propagate::propagate_matmul_in;
use mnc_core::{MncConfig, MncSketch, ScratchArena, SplitMix64};
use mnc_expr::{dense_chain_order, plan_cost_sketched, random_plan, sparse_chain_order, PlanTree};
use mnc_matrix::gen;
use rand::SeedableRng;

fn sketches(n_mats: usize, dim: usize, s: f64) -> Vec<MncSketch> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    (0..n_mats)
        .map(|_| MncSketch::build(&gen::rand_uniform(&mut rng, dim, dim, s)))
        .collect()
}

fn bench_propagate_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagate_matmul");
    for &dim in &[256usize, 1024, 4096] {
        let s = sketches(2, dim, 0.05);
        let cfg = MncConfig::default();
        g.bench_with_input(BenchmarkId::from_parameter(dim), &s, |b, s| {
            let mut rng = SplitMix64::new(3);
            b.iter(|| propagate_matmul_in(&s[0], &s[1], &cfg, &mut rng, &mut ScratchArena::new()));
        });
    }
    g.finish();
}

fn bench_estimate_vs_propagate(c: &mut Criterion) {
    let s = sketches(2, 2048, 0.05);
    let cfg = MncConfig::default();
    c.bench_function("estimate_only_2k", |b| {
        b.iter(|| mnc_core::estimate::estimate_matmul_with(&s[0], &s[1], &cfg));
    });
}

fn bench_chain_dp(c: &mut Criterion) {
    let mut g = c.benchmark_group("chain_optimizer");
    for &n in &[5usize, 10, 20] {
        let s = sketches(n, 512, 0.05);
        let cfg = MncConfig::default();
        g.bench_with_input(BenchmarkId::new("sparse_dp", n), &s, |b, s| {
            b.iter(|| sparse_chain_order(s, &cfg));
        });
        let dims: Vec<usize> = vec![512; n + 1];
        g.bench_with_input(BenchmarkId::new("dense_dp", n), &dims, |b, d| {
            b.iter(|| dense_chain_order(d));
        });
    }
    g.finish();
}

fn bench_plan_scoring(c: &mut Criterion) {
    let s = sketches(10, 512, 0.05);
    let cfg = MncConfig::default();
    let mut rng = SplitMix64::new(5);
    let plans: Vec<PlanTree> = (0..32).map(|_| random_plan(10, &mut rng)).collect();
    c.bench_function("score_32_random_plans_n10", |b| {
        b.iter(|| {
            plans
                .iter()
                .map(|p| plan_cost_sketched(&s, p, &cfg))
                .sum::<f64>()
        });
    });
}

criterion_group!(
    benches,
    bench_propagate_matmul,
    bench_estimate_vs_propagate,
    bench_chain_dp,
    bench_plan_scoring
);
criterion_main!(benches);
