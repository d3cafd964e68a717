//! Heap-allocation tracking: a counting [`GlobalAlloc`] wrapper around the
//! system allocator, feature-gated behind `alloc-track`.
//!
//! The paper's Figure 9 argues synopsis *size* is the deciding constraint at
//! scale; the analytic formulas in `mnc_estimators::analysis` state what the
//! sizes should be, and this module lets the benchmark harness *measure*
//! them: with the `alloc-track` feature enabled, every allocation in the
//! process updates four atomic counters (live bytes, peak live bytes, gross
//! allocated bytes, allocation count), and every [`crate::span::SpanRecord`]
//! additionally carries the net and gross allocation delta over its
//! lifetime.
//!
//! ## Zero cost when disabled
//!
//! The [`CountingAlloc`] type always exists, but the `#[global_allocator]`
//! static is only emitted under `cfg(feature = "alloc-track")`. With the
//! feature off, [`tracking_active`] is a `const false`: the span fast path
//! branches on a compile-time constant, the counters are never touched, and
//! allocation goes straight to the system allocator — bit-invariance and the
//! ≤2 % overhead budget are unaffected (asserted by the `obs_invariance`
//! property tests, which CI also runs with the feature enabled).
//!
//! Counter updates use relaxed atomics: totals are exact, and `peak` is
//! exact under single-threaded allocation (the benchmark harness measures
//! single-threaded phases); under concurrency it is a lower bound within one
//! racing allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live (currently allocated) heap bytes.
static CURRENT_BYTES: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`CURRENT_BYTES`].
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
/// Gross bytes ever allocated (monotone).
static TOTAL_BYTES: AtomicU64 = AtomicU64::new(0);
/// Number of allocations ever made (monotone).
static TOTAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn on_alloc(size: usize) {
    let size = size as u64;
    TOTAL_BYTES.fetch_add(size, Ordering::Relaxed);
    TOTAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = CURRENT_BYTES.fetch_add(size, Ordering::Relaxed) + size;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

#[inline]
fn on_dealloc(size: usize) {
    CURRENT_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] that counts every allocation before delegating to
/// [`System`]. Install it as the global allocator (the `alloc-track`
/// feature does this inside `mnc-obs`) to activate the counters.
pub struct CountingAlloc;

// SAFETY: every method delegates to `System` with the caller's layout
// unchanged; the counter updates have no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Account as free-then-alloc so gross bytes reflect the copy.
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(feature = "alloc-track")]
#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Whether allocation tracking is compiled in (the `alloc-track` feature).
/// A compile-time constant, so `if tracking_active()` fast paths vanish in
/// untracked builds.
#[inline]
pub const fn tracking_active() -> bool {
    cfg!(feature = "alloc-track")
}

/// Live heap bytes right now (0 in untracked builds).
#[inline]
pub fn current_bytes() -> u64 {
    if tracking_active() {
        CURRENT_BYTES.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// High-water mark of live heap bytes (0 in untracked builds). Reset with
/// [`reset_peak`].
#[inline]
pub fn peak_bytes() -> u64 {
    if tracking_active() {
        PEAK_BYTES.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Gross bytes ever allocated — monotone (0 in untracked builds).
#[inline]
pub fn total_allocated_bytes() -> u64 {
    if tracking_active() {
        TOTAL_BYTES.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Number of allocations ever made — monotone (0 in untracked builds).
#[inline]
pub fn total_allocations() -> u64 {
    if tracking_active() {
        TOTAL_ALLOCS.load(Ordering::Relaxed)
    } else {
        0
    }
}

/// Resets the peak to the current live level, so a following measurement
/// observes the high-water mark of *its* region only.
pub fn reset_peak() {
    if tracking_active() {
        PEAK_BYTES.store(CURRENT_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Snapshot of the counters at one instant (all zero in untracked builds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Live heap bytes.
    pub current_bytes: u64,
    /// Peak live heap bytes since start (or the last [`reset_peak`]).
    pub peak_bytes: u64,
    /// Gross bytes ever allocated.
    pub total_bytes: u64,
    /// Allocations ever made.
    pub total_allocs: u64,
}

/// Takes a counter snapshot.
pub fn snapshot() -> AllocSnapshot {
    AllocSnapshot {
        current_bytes: current_bytes(),
        peak_bytes: peak_bytes(),
        total_bytes: total_allocated_bytes(),
        total_allocs: total_allocations(),
    }
}

/// Allocation delta over a region of code, from an [`AllocScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocDelta {
    /// Net live-byte change (allocations minus frees); negative when the
    /// region released more than it kept.
    pub net_bytes: i64,
    /// Gross bytes allocated inside the region.
    pub gross_bytes: u64,
    /// Allocations made inside the region.
    pub allocs: u64,
}

/// Measures the allocation delta of a code region:
///
/// ```
/// let scope = mnc_obs::alloc::AllocScope::start();
/// let v: Vec<u64> = (0..100).collect();
/// let delta = scope.measure();
/// if mnc_obs::alloc::tracking_active() {
///     assert!(delta.gross_bytes >= 800);
/// } else {
///     assert_eq!(delta.gross_bytes, 0);
/// }
/// drop(v);
/// ```
///
/// In untracked builds every measurement is zero. Deltas are exact for
/// single-threaded regions; concurrent allocator traffic from other threads
/// is attributed to whichever scope is open on *any* thread (the counters
/// are process-global).
#[derive(Debug, Clone, Copy)]
pub struct AllocScope {
    start_current: u64,
    start_total_bytes: u64,
    start_total_allocs: u64,
}

impl AllocScope {
    /// Opens a measurement scope at the current counter values.
    pub fn start() -> AllocScope {
        AllocScope {
            start_current: current_bytes(),
            start_total_bytes: total_allocated_bytes(),
            start_total_allocs: total_allocations(),
        }
    }

    /// The allocation delta since [`AllocScope::start`].
    pub fn measure(&self) -> AllocDelta {
        AllocDelta {
            net_bytes: current_bytes() as i64 - self.start_current as i64,
            gross_bytes: total_allocated_bytes().saturating_sub(self.start_total_bytes),
            allocs: total_allocations().saturating_sub(self.start_total_allocs),
        }
    }
}

/// The tracked counters are tested in `tests/alloc_counters.rs`, alone in
/// their own binary.
#[cfg(all(test, not(feature = "alloc-track")))]
mod tests {
    use super::*;

    #[test]
    fn untracked_builds_report_zero() {
        assert!(!tracking_active());
        let scope = AllocScope::start();
        let _v: Vec<u64> = vec![0; 1000];
        let d = scope.measure();
        assert_eq!(d, AllocDelta::default());
        assert_eq!(snapshot(), AllocSnapshot::default());
    }
}
