//! Admission control for the compute plane.
//!
//! The server spawns one thread per connection, and with keep-alive each
//! thread serves its connection's requests one after another; the gate
//! turns the resulting unbounded concurrency (one request per open
//! connection) into a **bounded worker pool**: at most `workers` requests
//! compute simultaneously, at most `queue` more wait for a slot, and
//! everything beyond is shed immediately with `429` + `Retry-After` instead
//! of piling latency onto every in-flight request. A shed request leaves
//! its connection open for the client's retry.

use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::ServiceError;

#[derive(Debug, Default)]
struct GateState {
    /// Requests currently holding a compute slot.
    active: usize,
    /// Requests blocked waiting for a slot.
    waiting: usize,
}

/// Counting gate: `workers` concurrent slots, a bounded wait queue, and
/// immediate rejection beyond both.
#[derive(Debug)]
pub struct AdmissionGate {
    state: Mutex<GateState>,
    freed: Condvar,
    workers: usize,
    queue: usize,
}

impl AdmissionGate {
    /// A gate with `workers` compute slots (clamped to ≥ 1) and `queue`
    /// waiting slots.
    pub fn new(workers: usize, queue: usize) -> Self {
        AdmissionGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            workers: workers.max(1),
            queue,
        }
    }

    /// Acquires a compute slot, waiting in the bounded queue if necessary.
    /// Returns [`ServiceError::Busy`] carrying `retry_after_secs` (the
    /// caller's measured hint — recent p99 service time) when both the
    /// slots and the queue are full. The permit releases its slot on drop
    /// and reports how long the request queued: the fast path takes no
    /// clock reading at all, so uncontended admissions report exactly 0.
    pub fn admit(&self, retry_after_secs: u64) -> Result<Permit<'_>, ServiceError> {
        let mut st = self.state.lock().expect("gate poisoned");
        if st.active < self.workers {
            st.active += 1;
            return Ok(Permit {
                gate: self,
                queue_wait_ns: 0,
            });
        }
        if st.waiting >= self.queue {
            return Err(ServiceError::Busy { retry_after_secs });
        }
        let enqueued = Instant::now();
        st.waiting += 1;
        while st.active >= self.workers {
            st = self.freed.wait(st).expect("gate poisoned");
        }
        st.waiting -= 1;
        st.active += 1;
        let queue_wait_ns = u64::try_from(enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        Ok(Permit {
            gate: self,
            queue_wait_ns,
        })
    }

    /// Requests currently computing.
    pub fn active(&self) -> usize {
        self.state.lock().expect("gate poisoned").active
    }

    /// Requests currently blocked in the wait queue (the live queue-depth
    /// gauge reads this).
    pub fn waiting(&self) -> usize {
        self.state.lock().expect("gate poisoned").waiting
    }

    /// Configured compute slots.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Configured queue depth.
    pub fn queue(&self) -> usize {
        self.queue
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("gate poisoned");
        st.active -= 1;
        drop(st);
        self.freed.notify_one();
    }
}

/// An admitted request's compute slot; released on drop.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
    queue_wait_ns: u64,
}

impl Permit<'_> {
    /// Time spent enqueued before the slot was granted (0 on the
    /// uncontended fast path).
    pub fn queue_wait_ns(&self) -> u64 {
        self.queue_wait_ns
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn slots_are_granted_and_released() {
        let gate = AdmissionGate::new(2, 0);
        let p1 = gate.admit(1).unwrap();
        let p2 = gate.admit(1).unwrap();
        assert_eq!(gate.active(), 2);
        assert!(matches!(gate.admit(1), Err(ServiceError::Busy { .. })));
        drop(p1);
        let _p3 = gate.admit(1).unwrap();
        assert!(matches!(gate.admit(1), Err(ServiceError::Busy { .. })));
        drop(p2);
        assert_eq!(gate.active(), 1);
    }

    #[test]
    fn queue_admits_after_release_and_measures_the_wait() {
        let gate = Arc::new(AdmissionGate::new(1, 1));
        let p = gate.admit(1).unwrap();
        assert_eq!(p.queue_wait_ns(), 0, "fast path never reads the clock");
        let ran = Arc::new(AtomicUsize::new(0));
        let waiter = {
            let gate = Arc::clone(&gate);
            let ran = Arc::clone(&ran);
            std::thread::spawn(move || {
                let p = gate.admit(1).unwrap();
                assert!(
                    p.queue_wait_ns() >= 25_000_000,
                    "queued ≥50ms but measured {}ns",
                    p.queue_wait_ns()
                );
                ran.fetch_add(1, Ordering::SeqCst);
            })
        };
        // Give the waiter time to enqueue, then verify overflow is shed.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(gate.waiting(), 1);
        assert!(matches!(gate.admit(1), Err(ServiceError::Busy { .. })));
        assert_eq!(ran.load(Ordering::SeqCst), 0, "waiter must still be queued");
        drop(p);
        waiter.join().unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(gate.active(), 0);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn busy_carries_the_callers_retry_hint() {
        let gate = AdmissionGate::new(1, 0);
        let _p = gate.admit(1).unwrap();
        match gate.admit(7) {
            Err(ServiceError::Busy { retry_after_secs }) => assert_eq!(retry_after_secs, 7),
            other => panic!("expected Busy, got {other:?}"),
        };
    }

    #[test]
    fn workers_clamped_to_one() {
        let gate = AdmissionGate::new(0, 0);
        assert_eq!(gate.workers(), 1);
        let _p = gate.admit(1).unwrap();
        assert!(gate.admit(1).is_err());
    }
}
