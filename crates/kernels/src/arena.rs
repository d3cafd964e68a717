//! A pool of reusable count-vector buffers.
//!
//! Sketch propagation allocates the same handful of `O(m + n)` vectors per
//! operation — output count vectors plus the extended-count temporaries of
//! Algorithm 1. A [`ScratchArena`] leases zero-filled buffers and takes them
//! back. Within one matmul propagation, Algorithm 1's temporaries go back
//! to the arena and are leased again as the output vectors, so even a fresh
//! arena saves those allocations. Across calls, buffers come back only where a
//! caller retires an intermediate sketch (`MncSketch::recycle_into`): the
//! chain optimizer's fold does, and once its pool holds one generation of
//! buffers that fold touches the allocator no more (checked under the
//! `alloc-track` feature of `mnc-obs`). Every other propagation passes a
//! fresh arena, which allocates nothing until its first lease.
//!
//! ## Lifetime rules
//!
//! * `take_u32` returns a buffer of exactly the requested length,
//!   zero-filled; `take_u32_spare` returns a cleared length-zero buffer for
//!   callers that fill it themselves (the `*_into` combinators).
//! * `put_u32` returns a buffer to the pool; length/contents are irrelevant
//!   (the next lease clears it). Buffers moved into long-lived results (e.g.
//!   cached sketches) are simply *not* returned — the pool refills on its
//!   own from later `put_u32` calls.
//! * The pool is bounded ([`ScratchArena::MAX_POOLED`] buffers); excess
//!   buffers are dropped, so an arena never pins more than a bounded
//!   multiple of the largest working set.

/// Reusable buffer pool for `u32` count vectors.
#[derive(Debug, Default)]
pub struct ScratchArena {
    u32_bufs: Vec<Vec<u32>>,
}

impl ScratchArena {
    /// Maximum buffers retained.
    pub const MAX_POOLED: usize = 64;

    /// An empty arena. Does not allocate until the first lease.
    pub fn new() -> Self {
        Self::default()
    }

    /// Leases a zero-filled `u32` buffer of length `len`.
    pub fn take_u32(&mut self, len: usize) -> Vec<u32> {
        match self.u32_bufs.pop() {
            Some(mut v) => {
                v.clear();
                v.resize(len, 0);
                v
            }
            None => vec![0; len],
        }
    }

    /// Leases a cleared, length-zero buffer (capacity retained from prior
    /// uses) — for outputs handed straight to the `*_into` combinators,
    /// which clear and fill the buffer themselves. Skips the zero-fill pass
    /// [`ScratchArena::take_u32`] pays.
    pub fn take_u32_spare(&mut self) -> Vec<u32> {
        match self.u32_bufs.pop() {
            Some(mut v) => {
                v.clear();
                v
            }
            None => Vec::new(),
        }
    }

    /// Returns a `u32` buffer to the pool.
    pub fn put_u32(&mut self, v: Vec<u32>) {
        if self.u32_bufs.len() < Self::MAX_POOLED {
            self.u32_bufs.push(v);
        }
    }

    /// Returns an optional `u32` buffer to the pool.
    pub fn put_u32_opt(&mut self, v: Option<Vec<u32>>) {
        if let Some(v) = v {
            self.put_u32(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leased_buffers_are_zero_filled_and_reused() {
        let mut a = ScratchArena::new();
        let mut v = a.take_u32(8);
        v[3] = 7;
        let p = v.as_ptr();
        a.put_u32(v);
        let v2 = a.take_u32(5);
        assert_eq!(v2, vec![0; 5], "recycled buffer must be cleared");
        assert_eq!(v2.as_ptr(), p, "buffer must come from the pool");
    }

    #[test]
    fn pool_is_bounded() {
        let mut a = ScratchArena::new();
        for _ in 0..ScratchArena::MAX_POOLED + 10 {
            a.put_u32(Vec::new());
        }
        assert_eq!(a.u32_bufs.len(), ScratchArena::MAX_POOLED);
    }

    #[test]
    fn spare_leases_are_cleared_and_optional_puts_skip_none() {
        let mut a = ScratchArena::new();
        a.put_u32_opt(Some(vec![1, 2, 3]));
        a.put_u32_opt(None);
        assert_eq!(a.u32_bufs.len(), 1);
        let v = a.take_u32_spare();
        assert!(v.is_empty() && v.capacity() >= 3);
    }
}
