//! A small scoped-thread worker pool for deterministic fan-out.
//!
//! [`WorkerPool`] is deliberately minimal: it carries a thread budget (the
//! `threads` knob surfaced by every CLI) and runs closures over index
//! ranges on `std::thread::scope` workers. Determinism comes from the
//! merge, not the schedule — workers race over indices, but results are
//! always returned **in index order**, so callers that fold partial
//! results in that fixed order (sketch chunk merges, bitset row chunks,
//! the DAG walk's wavefront levels) produce answers bit-identical to a
//! sequential run. A pool with `threads == 1` never spawns: every `run`
//! degenerates to an inline loop with zero overhead beyond the call, so
//! callers keep one code path for every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// A scoped-thread worker pool with a fixed thread budget.
///
/// The pool owns no OS threads between calls — workers are scoped to each
/// [`run`](WorkerPool::run)/[`run_tasks`](WorkerPool::run_tasks)
/// invocation, so an idle pool costs nothing and the type stays trivially
/// `Clone`/`Send`/`Sync`.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    threads: usize,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(1)
    }
}

impl WorkerPool {
    /// A pool running at most `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// The thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Evaluates `f(0..n)` and returns the results in index order.
    ///
    /// Sequential when the pool is single-threaded or there is at most one
    /// index; otherwise `min(threads, n)` scoped workers pull indices from
    /// a shared atomic counter and the partials are re-assembled by index
    /// after the scope joins.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || n <= 1 {
            return (0..n).map(f).collect();
        }
        let workers = self.threads.min(n);
        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        std::thread::scope(|s| {
            let f = &f;
            let next = &next;
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            local.push((i, f(i)));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                for (i, v) in h.join().expect("pool worker panicked") {
                    slots[i] = Some(v);
                }
            }
        });
        slots
            .into_iter()
            .map(|v| v.expect("every index covered"))
            .collect()
    }

    /// Runs pre-built closures — one scoped worker each — and returns their
    /// results in task order. This is the escape hatch for callers that
    /// partition a buffer with `split_at_mut` (bitset packing, boolean MM):
    /// each task owns its disjoint `&mut` segment, so the closures cannot be
    /// re-dispatched through a shared `Fn` and get a thread apiece instead.
    /// Callers chunk with [`crate::row_chunks`] at the pool's thread count,
    /// so the task count already matches the budget.
    pub fn run_tasks<'env, T: Send>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'env>>,
    ) -> Vec<T> {
        if self.threads == 1 || tasks.len() <= 1 {
            return tasks.into_iter().map(|t| t()).collect();
        }
        std::thread::scope(|s| {
            let handles: Vec<_> = tasks.into_iter().map(|t| s.spawn(t)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pool worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_index_order() {
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.run(23, |i| i * i);
            assert_eq!(
                out,
                (0..23).map(|i| i * i).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        assert!(WorkerPool::new(0).threads() == 1, "clamped to 1");
        assert!(WorkerPool::new(4).run(0, |i| i).is_empty());
    }

    #[test]
    fn run_tasks_preserves_task_order_and_split_writes() {
        let mut buf = vec![0u32; 12];
        let pool = WorkerPool::new(4);
        {
            let mut rest = buf.as_mut_slice();
            let mut tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = Vec::new();
            for part in 0..4 {
                let (seg, tail) = rest.split_at_mut(3);
                rest = tail;
                tasks.push(Box::new(move || {
                    for (k, v) in seg.iter_mut().enumerate() {
                        *v = (part * 10 + k) as u32;
                    }
                    part
                }));
            }
            assert_eq!(pool.run_tasks(tasks), vec![0, 1, 2, 3]);
        }
        assert_eq!(buf, vec![0, 1, 2, 10, 11, 12, 20, 21, 22, 30, 31, 32]);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        // A 1-thread pool must not spawn: thread-local state proves the
        // closures ran on the calling thread.
        thread_local! {
            static MARK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
        }
        MARK.with(|m| m.set(7));
        let pool = WorkerPool::new(1);
        let seen = pool.run(4, |_| MARK.with(|m| m.get()));
        assert_eq!(seen, vec![7; 4]);
    }
}
