//! A fixed-capacity, lock-free overwrite ring for telemetry records.
//!
//! Long-running services cannot afford the append-only `LockFreeList`
//! (crate-private) that batch runs use: a process serving millions of
//! estimates would grow its span storage without bound. [`RecordRing`]
//! instead retains the **most recent** `capacity` records in O(capacity)
//! memory, with a push that never allocates — new records are moved into
//! pre-allocated slots, overwriting the oldest.
//!
//! ## Concurrency design
//!
//! Each slot carries a seqlock-style version word: even = stable, odd =
//! claimed. A writer claims its slot (chosen by a global `fetch_add`
//! cursor, so concurrent writers target distinct slots until the ring
//! wraps) with one compare-exchange, moves the record in, and releases
//! with a version bump. Readers claim a slot the same way before cloning,
//! so no clone ever races a concurrent overwrite. Every operation is
//! non-blocking: a writer that loses a (wrap-around) claim race **drops
//! the record and counts it** in [`RecordRing::dropped`] rather than
//! spinning — for a flight recorder, losing one record under astronomical
//! contention beats ever stalling the estimation hot path.
//!
//! [`Ring`] is the single-writer counterpart for state already behind a
//! lock or owned by one thread (timeline frames, SLO event windows, the
//! drift window, captured requests): a plain overwrite ring whose
//! [`push`](Ring::push) hands back the evicted value.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Slot<T> {
    /// Seqlock word: even = stable, odd = claimed by a writer or reader.
    seq: AtomicU64,
    /// `(push index, record)`; the index restores global push order in
    /// [`RecordRing::collect`].
    value: UnsafeCell<Option<(u64, T)>>,
}

/// A fixed-capacity, lock-free, overwriting ring buffer. See the module
/// docs for the concurrency design.
pub struct RecordRing<T> {
    slots: Box<[Slot<T>]>,
    /// Total push attempts (monotone); `cursor % capacity` picks the slot.
    cursor: AtomicU64,
    /// Pushes abandoned because the target slot was claimed concurrently.
    dropped: AtomicU64,
}

// SAFETY: slot values are only touched while the slot's seqlock word is
// held odd (claimed via compare-exchange), so `&self` access from many
// threads never produces a data race on the `UnsafeCell` contents.
unsafe impl<T: Send> Send for RecordRing<T> {}
unsafe impl<T: Send> Sync for RecordRing<T> {}

impl<T> RecordRing<T> {
    /// A ring retaining the most recent `capacity` records (minimum 1).
    /// All slot memory is allocated here, up front; pushes allocate
    /// nothing.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        RecordRing {
            slots: (0..cap)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    value: UnsafeCell::new(None),
                })
                .collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total records ever pushed (including dropped ones) — monotone.
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records abandoned under claim contention — monotone, expected 0 in
    /// practice.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently retained (saturating estimate).
    pub fn len(&self) -> usize {
        let landed = self.pushed().saturating_sub(self.dropped());
        usize::try_from(landed.min(self.slots.len() as u64)).unwrap_or(self.slots.len())
    }

    /// Whether nothing was ever retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes a record, overwriting the oldest once the ring is full.
    /// Never blocks and never allocates; returns `false` (and counts the
    /// drop) if the slot was claimed by a racing writer or reader.
    pub fn push(&self, value: T) -> bool {
        let n = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let seq = slot.seq.load(Ordering::Acquire);
        if seq & 1 == 1
            || slot
                .seq
                .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        // SAFETY: the odd seq word claims exclusive slot access; replacing
        // the Option drops the overwritten record in place.
        unsafe { *slot.value.get() = Some((n, value)) };
        slot.seq.store(seq + 2, Ordering::Release);
        true
    }

    /// Clones the retained records, oldest first (global push order). A
    /// slot being written while the dump runs is skipped after a bounded
    /// number of claim attempts — the dump never blocks a writer.
    pub fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out: Vec<(u64, T)> = Vec::with_capacity(self.slots.len());
        'slots: for slot in self.slots.iter() {
            for _ in 0..64 {
                let seq = slot.seq.load(Ordering::Acquire);
                if seq & 1 == 1 {
                    std::hint::spin_loop();
                    continue;
                }
                if slot
                    .seq
                    .compare_exchange(seq, seq + 1, Ordering::Acquire, Ordering::Relaxed)
                    .is_err()
                {
                    continue;
                }
                // SAFETY: the claim gives exclusive access for the clone.
                let cloned = unsafe { (*slot.value.get()).clone() };
                slot.seq.store(seq + 2, Ordering::Release);
                if let Some(entry) = cloned {
                    out.push(entry);
                }
                continue 'slots;
            }
            // Claim contention exhausted the retry budget: skip the slot.
        }
        out.sort_by_key(|(i, _)| *i);
        out.into_iter().map(|(_, v)| v).collect()
    }
}

impl<T> std::fmt::Debug for RecordRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RecordRing(cap {}, pushed {}, dropped {})",
            self.capacity(),
            self.pushed(),
            self.dropped()
        )
    }
}

/// A fixed-capacity, single-writer overwrite ring. Slot memory is
/// reserved up front; once full, each push moves the new value into the
/// oldest slot and returns the value it replaced. Nothing allocates after
/// [`Ring::new`].
#[derive(Debug)]
pub struct Ring<T> {
    /// Grows to `cap`, then is overwritten in place.
    buf: Vec<T>,
    cap: usize,
    /// Slot of the oldest value once the ring is full (0 until then).
    head: usize,
}

impl<T> Ring<T> {
    /// A ring retaining the most recent `capacity` values (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Values currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was ever pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends `value`; once the ring is full, evicts and returns the
    /// oldest value.
    pub fn push(&mut self, value: T) -> Option<T> {
        if self.buf.len() < self.cap {
            self.buf.push(value);
            return None;
        }
        let evicted = std::mem::replace(&mut self.buf[self.head], value);
        self.head = (self.head + 1) % self.cap;
        Some(evicted)
    }

    /// The retained values oldest first; `.rev()` walks newest first.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_the_newest_records_in_order() {
        let ring = RecordRing::new(4);
        assert!(ring.is_empty());
        for i in 0..10u64 {
            assert!(ring.push(i));
        }
        assert_eq!(ring.collect(), vec![6, 7, 8, 9]);
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let ring = RecordRing::new(8);
        ring.push("a");
        ring.push("b");
        assert_eq!(ring.collect(), vec!["a", "b"]);
        assert_eq!(ring.len(), 2);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let ring = RecordRing::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.push(1u64);
        ring.push(2u64);
        assert_eq!(ring.collect(), vec![2]);
    }

    #[test]
    fn overwriting_drops_the_old_record() {
        // Drop bookkeeping through an Arc: overwritten records must be
        // dropped in place, not leaked until the ring dies.
        use std::sync::Arc;
        let witness = Arc::new(());
        let ring = RecordRing::new(2);
        for _ in 0..6 {
            ring.push(Arc::clone(&witness));
        }
        assert_eq!(Arc::strong_count(&witness), 3, "2 retained + 1 local");
        drop(ring);
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    #[test]
    fn concurrent_pushes_land_without_tearing() {
        let ring = RecordRing::new(128);
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let ring = &ring;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        ring.push(t * 10_000 + i);
                    }
                });
            }
        });
        let got = ring.collect();
        // Every retained record is one of the pushed values, intact.
        assert!(got.iter().all(|v| v % 10_000 < 1000 && v / 10_000 < 8));
        assert_eq!(ring.pushed(), 8000);
        // A slot only ends empty when every push targeting it lost a
        // wrap-around claim race, and each such loss is counted — so the
        // retained count is bounded by capacity and short of it by at
        // most the drop count.
        assert!(got.len() <= 128);
        assert!(got.len() as u64 + ring.dropped() >= 128);
    }

    #[test]
    fn collect_during_writes_is_consistent() {
        let ring = RecordRing::new(64);
        std::thread::scope(|scope| {
            let r = &ring;
            scope.spawn(move || {
                for i in 0..20_000u64 {
                    r.push(i);
                }
            });
            for _ in 0..50 {
                let snap = r.collect();
                // Oldest-first order within one snapshot.
                assert!(snap.windows(2).all(|w| w[0] < w[1]), "unordered: {snap:?}");
            }
        });
    }

    #[test]
    fn ring_zero_capacity_behaves_as_one() {
        let mut ring = Ring::new(0);
        assert_eq!(ring.capacity(), 1);
        assert!(ring.is_empty());
        assert_eq!(ring.push(1u32), None);
        assert_eq!(ring.push(2), Some(1));
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), vec![2]);
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn ring_evicts_the_oldest_only_once_full() {
        let mut ring = Ring::new(3);
        for v in 0..3u32 {
            assert_eq!(ring.push(v), None, "evicted before full");
        }
        assert_eq!(ring.len(), 3);
        for v in 3..10u32 {
            assert_eq!(ring.push(v), Some(v - 3));
        }
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn ring_iterates_oldest_first_and_reverses_newest_first_across_wraps() {
        let mut ring = Ring::new(4);
        for n in 1..=13u32 {
            ring.push(n);
            let lo = n.saturating_sub(4) + 1;
            let forward: Vec<u32> = ring.iter().copied().collect();
            assert_eq!(forward, (lo..=n).collect::<Vec<_>>(), "after {n} pushes");
            let backward: Vec<u32> = ring.iter().rev().copied().collect();
            assert_eq!(
                backward,
                (lo..=n).rev().collect::<Vec<_>>(),
                "after {n} pushes"
            );
        }
    }

    #[test]
    fn ring_holds_non_copy_values() {
        let mut ring = Ring::new(2);
        assert_eq!(ring.push(String::from("a")), None);
        assert_eq!(ring.push(String::from("b")), None);
        assert_eq!(ring.push(String::from("c")).as_deref(), Some("a"));
        let held: Vec<&str> = ring.iter().map(String::as_str).collect();
        assert_eq!(held, ["b", "c"]);
    }
}
