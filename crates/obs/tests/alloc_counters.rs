//! The counting allocator's counters: gross, live, and peak bytes follow
//! real allocations, scopes measure net and gross deltas, and the peak
//! resets to the live level.
//!
//! Requires the `alloc-track` feature (the counting global allocator).
//! These checks read process-global counters, so they live alone in their
//! own integration binary and run one after another inside a single test:
//! no sibling test allocates while they read.

#![cfg(feature = "alloc-track")]

use mnc_obs::alloc::{
    current_bytes, peak_bytes, reset_peak, snapshot, tracking_active, AllocScope,
};

#[test]
fn counters_track_allocations() {
    counters_observe_allocations();
    scope_measures_net_and_gross();
    peak_resets_to_current();
}

fn counters_observe_allocations() {
    let before = snapshot();
    let v: Vec<u64> = Vec::with_capacity(1 << 12);
    let after = snapshot();
    assert!(tracking_active());
    assert!(
        after.total_bytes >= before.total_bytes + (1 << 12) * 8,
        "gross bytes must cover the 32 KiB vector"
    );
    assert!(after.total_allocs > before.total_allocs);
    assert!(after.current_bytes >= before.current_bytes + (1 << 12) * 8);
    assert!(after.peak_bytes >= after.current_bytes);
    drop(v);
    assert!(current_bytes() < after.current_bytes, "dealloc subtracts");
}

fn scope_measures_net_and_gross() {
    let scope = AllocScope::start();
    let kept: Vec<u64> = vec![0; 1000];
    {
        let dropped: Vec<u64> = vec![0; 500];
        assert_eq!(dropped.len(), 500);
    }
    let d = scope.measure();
    assert!(d.gross_bytes >= 1500 * 8, "gross {}", d.gross_bytes);
    assert!(d.net_bytes >= 1000 * 8, "net {}", d.net_bytes);
    assert!(
        (d.net_bytes as u64) < d.gross_bytes,
        "dropped vec is gross-only"
    );
    assert!(d.allocs >= 2);
    drop(kept);
}

fn peak_resets_to_current() {
    let big: Vec<u64> = vec![0; 4096];
    drop(big);
    reset_peak();
    assert_eq!(peak_bytes(), current_bytes());
    let _bigger: Vec<u64> = vec![0; 8192];
    assert!(peak_bytes() >= current_bytes());
}
