//! Allocation-reduction guarantee of the scratch arena: a matmul
//! propagation chain that leases its count-vector buffers from one
//! [`ScratchArena`] and recycles retired intermediates (as the chain
//! optimizer's fold does) must make at most half the allocations of the
//! same chain passing a fresh arena per step — and produce bit-identical
//! sketches.
//!
//! The allocation counters only move under `--features alloc-track` (CI
//! runs `cargo test -p mnc-bench --features alloc-track`); in untracked
//! builds the test still verifies bit-identity and the reduction assertion
//! holds vacuously (0 vs 0).

use std::sync::Arc;

use mnc_core::propagate::propagate_matmul_in;
use mnc_core::{MncConfig, MncSketch, ScratchArena, SplitMix64};
use mnc_matrix::{gen, CsrMatrix};
use mnc_obs::alloc::{tracking_active, AllocScope};
use rand::SeedableRng;

/// A chain of square sparse matrices whose sketches propagate end to end.
fn chain_sketches(d: usize, k: usize) -> Vec<MncSketch> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110C);
    (0..k)
        .map(|i| {
            let s = 0.02 + 0.01 * (i % 3) as f64;
            let m: Arc<CsrMatrix> = Arc::new(gen::rand_uniform(&mut rng, d, d, s));
            MncSketch::build(&m)
        })
        .collect()
}

/// Folds the chain through the arena-backed path, recycling each retired
/// intermediate, and reports the sketch plus the allocation delta of the
/// propagation (sketch construction stays outside the scope).
fn fold_recycling(
    sketches: &[MncSketch],
    cfg: &MncConfig,
    arena: &mut ScratchArena,
) -> (MncSketch, mnc_obs::alloc::AllocDelta) {
    let mut rng = SplitMix64::new(cfg.seed);
    let scope = AllocScope::start();
    let mut cur = propagate_matmul_in(&sketches[0], &sketches[1], cfg, &mut rng, arena);
    for s in &sketches[2..] {
        let next = propagate_matmul_in(&cur, s, cfg, &mut rng, arena);
        cur.recycle_into(arena);
        cur = next;
    }
    (cur, scope.measure())
}

/// The fold without recycling: every step passes a fresh arena, as every
/// propagation outside the chain optimizer does, so each step allocates
/// fresh output vectors.
fn fold_allocating(
    sketches: &[MncSketch],
    cfg: &MncConfig,
) -> (MncSketch, mnc_obs::alloc::AllocDelta) {
    let mut rng = SplitMix64::new(cfg.seed);
    let scope = AllocScope::start();
    let mut cur = propagate_matmul_in(
        &sketches[0],
        &sketches[1],
        cfg,
        &mut rng,
        &mut ScratchArena::new(),
    );
    for s in &sketches[2..] {
        cur = propagate_matmul_in(&cur, s, cfg, &mut rng, &mut ScratchArena::new());
    }
    (cur, scope.measure())
}

#[test]
fn arena_halves_chain_allocations_and_keeps_bits() {
    let cfg = MncConfig::default();
    let sketches = chain_sketches(400, 8);

    // Warm the pool: the first pass leases fresh buffers; the measured
    // steady-state pass below must be served from recycled ones.
    let mut arena = ScratchArena::new();
    let (_, _) = fold_recycling(&sketches, &cfg, &mut arena);

    let (pooled, pooled_delta) = fold_recycling(&sketches, &cfg, &mut arena);
    let (fresh, fresh_delta) = fold_allocating(&sketches, &cfg);

    assert_eq!(
        pooled, fresh,
        "arena-backed propagation must be bit-identical to the allocating path"
    );

    if tracking_active() {
        assert!(
            fresh_delta.allocs > 0,
            "allocating path made no allocations — the baseline is meaningless"
        );
        assert!(
            pooled_delta.allocs * 2 <= fresh_delta.allocs,
            "arena chain made {} allocations vs {} without — less than a 50% reduction",
            pooled_delta.allocs,
            fresh_delta.allocs
        );
    } else {
        assert_eq!(pooled_delta.allocs, 0);
        assert_eq!(fresh_delta.allocs, 0);
    }
}
