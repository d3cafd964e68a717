//! Allocation pin of sequential sketch construction: `MncSketch::build` and
//! `MncSketch::build_parallel(m, 1)` allocate exactly the sketch's count
//! vectors — `h^r` and `h^c`, plus `h^er` and `h^ec` when the extended
//! vectors are built — and nothing else: no partials, no merge buffers, no
//! block lists.
//!
//! The allocation counters are process-global, so this is its own test
//! binary with a single test. They only move under `--features alloc-track`
//! (CI runs `cargo test -p mnc-bench --features alloc-track`); in untracked
//! builds the test checks that the counters stay at zero.

use mnc_core::MncSketch;
use mnc_matrix::{gen, CsrMatrix};
use mnc_obs::alloc::{tracking_active, AllocDelta, AllocScope};
use rand::SeedableRng;

fn measure(build: impl Fn() -> MncSketch) -> (MncSketch, AllocDelta) {
    let scope = AllocScope::start();
    let h = build();
    let delta = scope.measure();
    (h, delta)
}

fn assert_allocs(m: &CsrMatrix, extended: bool) {
    let (nrows, ncols) = m.shape();
    let vectors = if extended { 4 } else { 2 };
    let bytes = 4 * (nrows + ncols) as u64 * (vectors / 2);
    let builds: [(&str, &dyn Fn() -> MncSketch); 2] = [
        ("build", &|| MncSketch::build(m)),
        ("build_parallel(m, 1)", &|| MncSketch::build_parallel(m, 1)),
    ];
    for (entry, build) in builds {
        let (h, delta) = measure(build);
        assert_eq!(h.her.is_some(), extended, "{entry} {nrows}x{ncols}");
        if tracking_active() {
            assert_eq!(
                delta.allocs, vectors,
                "{entry} {nrows}x{ncols}: allocations"
            );
            assert_eq!(
                delta.gross_bytes, bytes,
                "{entry} {nrows}x{ncols}: gross bytes"
            );
        } else {
            assert_eq!((delta.allocs, delta.gross_bytes), (0, 0));
        }
    }
}

#[test]
fn sequential_build_allocates_only_the_count_vectors() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB111D);
    // 4 allocations, 4000 B: h^r, h^c, h^er, h^ec.
    assert_allocs(&gen::rand_uniform(&mut rng, 300, 200, 0.05), true);
    // 2 allocations, 2400 B: Theorem 3.1 holds, so no extended vectors.
    assert_allocs(&gen::permutation(&mut rng, 300), false);
}
