//! Hierarchical spans: RAII guards that measure wall time plus estimation
//! payload (op, nnz in/out, synopsis bytes) and merge into the shared
//! recorder with one lock-free push on drop.
//!
//! Parent links are tracked per thread with a thread-local `(recorder token,
//! span id)` cell: opening a span saves the cell and installs itself;
//! dropping restores it. Spans of *different* recorders interleaved on one
//! thread never cross-link (the token mismatch yields a root span), and
//! spans on different threads are roots of their own trees — exactly what
//! the Chrome trace view renders as per-thread tracks.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::RecorderShared;

/// One finished span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Recorder-unique span id (1-based).
    pub id: u64,
    /// Id of the enclosing span on the same thread and recorder, or 0.
    pub parent: u64,
    /// Static span name (`"build"`, `"estimate"`, `"propagate"`, ...).
    pub name: &'static str,
    /// Operation or estimator label (`"matmul"`, `"MNC"`).
    pub op: Option<String>,
    /// Small dense per-thread index (stable within a process).
    pub thread: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Non-zeros consumed (sum over inputs), when known.
    pub nnz_in: Option<u64>,
    /// Non-zeros produced (or implied by the estimate), when known.
    pub nnz_out: Option<u64>,
    /// Bytes of the synopsis built/propagated, when known.
    pub synopsis_bytes: Option<u64>,
    /// Net live-heap change over the span (allocation tracking builds only).
    pub alloc_net: Option<i64>,
    /// Gross bytes allocated inside the span (allocation tracking builds
    /// only).
    pub alloc_bytes: Option<u64>,
    /// Trace ID of the request this span belongs to, inherited from the
    /// thread's active [`RequestContext`](crate::RequestContext). `Copy`,
    /// so carrying it keeps span clones allocation-free.
    pub trace: Option<crate::request::TraceId>,
}

static THREAD_SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Dense per-thread index for trace tracks (OS thread ids are neither
    /// small nor stable across platforms).
    static THREAD_INDEX: u64 = THREAD_SEQ.fetch_add(1, Ordering::Relaxed);
    /// `(recorder token, span id)` of the innermost open span on this
    /// thread; `(0, 0)` at top level.
    static CURRENT_SPAN: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn thread_index() -> u64 {
    THREAD_INDEX.with(|t| *t)
}

/// An open span. Closing happens on drop; the builder methods annotate the
/// payload and are no-ops on a disabled recorder (no allocation either).
pub struct SpanGuard {
    shared: Option<Arc<RecorderShared>>,
    start: Option<Instant>,
    record: Option<SpanRecord>,
    /// Thread-local state to restore on drop.
    saved: (u64, u64),
    /// Allocation counters at open (alloc-track builds only; the branch on
    /// [`crate::alloc::tracking_active`] is a compile-time constant).
    alloc0: Option<crate::alloc::AllocScope>,
}

impl SpanGuard {
    pub(crate) fn open(shared: Option<Arc<RecorderShared>>, name: &'static str) -> SpanGuard {
        let Some(shared) = shared else {
            return SpanGuard {
                shared: None,
                start: None,
                record: None,
                saved: (0, 0),
                alloc0: None,
            };
        };
        let id = shared.next_span_id.fetch_add(1, Ordering::Relaxed);
        let saved = CURRENT_SPAN.with(|c| c.replace((shared.token, id)));
        let parent = if saved.0 == shared.token { saved.1 } else { 0 };
        let now = Instant::now();
        let start_ns =
            u64::try_from(now.duration_since(shared.epoch).as_nanos()).unwrap_or(u64::MAX);
        SpanGuard {
            record: Some(SpanRecord {
                id,
                parent,
                name,
                op: None,
                thread: thread_index(),
                start_ns,
                dur_ns: 0,
                nnz_in: None,
                nnz_out: None,
                synopsis_bytes: None,
                alloc_net: None,
                alloc_bytes: None,
                trace: crate::request::current_trace(),
            }),
            shared: Some(shared),
            start: Some(now),
            saved,
            alloc0: if crate::alloc::tracking_active() {
                Some(crate::alloc::AllocScope::start())
            } else {
                None
            },
        }
    }

    /// Labels the span with an operation or estimator name.
    pub fn op(mut self, op: impl Into<String>) -> Self {
        if let Some(r) = &mut self.record {
            r.op = Some(op.into());
        }
        self
    }

    /// Non-zeros consumed.
    pub fn nnz_in(mut self, nnz: u64) -> Self {
        if let Some(r) = &mut self.record {
            r.nnz_in = Some(nnz);
        }
        self
    }

    /// Non-zeros produced.
    pub fn nnz_out(mut self, nnz: u64) -> Self {
        if let Some(r) = &mut self.record {
            r.nnz_out = Some(nnz);
        }
        self
    }

    /// Synopsis bytes.
    pub fn bytes(mut self, bytes: u64) -> Self {
        if let Some(r) = &mut self.record {
            r.synopsis_bytes = Some(bytes);
        }
        self
    }

    /// Sets the produced non-zeros after the fact (for results only known
    /// once the work inside the span finished).
    pub fn set_nnz_out(&mut self, nnz: u64) {
        if let Some(r) = &mut self.record {
            r.nnz_out = Some(nnz);
        }
    }

    /// Sets the synopsis bytes after the fact.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(r) = &mut self.record {
            r.synopsis_bytes = Some(bytes);
        }
    }

    /// The span's id (0 when the recorder is disabled).
    pub fn id(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.id)
    }

    /// The span's parent id (0 when root or disabled).
    pub fn parent(&self) -> u64 {
        self.record.as_ref().map_or(0, |r| r.parent)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let (Some(shared), Some(start), Some(mut record)) =
            (self.shared.take(), self.start, self.record.take())
        else {
            return; // disabled recorder: nothing was opened
        };
        CURRENT_SPAN.with(|c| c.set(self.saved));
        record.dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Some(scope) = &self.alloc0 {
            let delta = scope.measure();
            record.alloc_net = Some(delta.net_bytes);
            record.alloc_bytes = Some(delta.gross_bytes);
        }
        shared.record_span(record);
    }
}

#[cfg(test)]
mod tests {
    use crate::Recorder;

    #[test]
    fn duration_covers_the_guard_lifetime() {
        let rec = Recorder::enabled();
        {
            let _g = rec.span("work");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert!(
            spans[0].dur_ns >= 1_000_000,
            "slept 2ms, got {}",
            spans[0].dur_ns
        );
    }

    #[test]
    fn late_setters_apply() {
        let rec = Recorder::enabled();
        {
            let mut g = rec.span("propagate").op("matmul");
            g.set_nnz_out(99);
            g.set_bytes(1024);
        }
        let s = &rec.spans()[0];
        assert_eq!(s.nnz_out, Some(99));
        assert_eq!(s.synopsis_bytes, Some(1024));
    }

    #[test]
    fn alloc_deltas_follow_the_feature_gate() {
        let rec = Recorder::enabled();
        {
            let _g = rec.span("allocating");
            let _kept: Vec<u64> = vec![0; 2048];
        }
        let s = &rec.spans()[0];
        if crate::alloc::tracking_active() {
            assert!(s.alloc_bytes.expect("tracked builds stamp gross bytes") >= 2048 * 8);
            assert!(s.alloc_net.is_some());
        } else {
            assert_eq!(s.alloc_bytes, None, "untracked builds stamp nothing");
            assert_eq!(s.alloc_net, None);
        }
    }

    #[test]
    fn threads_get_distinct_tracks_and_local_nesting() {
        let rec = Recorder::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let rec = rec.clone();
                scope.spawn(move || {
                    let outer = rec.span("outer");
                    let outer_id = outer.id();
                    let inner = rec.span("inner");
                    assert_eq!(inner.parent(), outer_id);
                });
            }
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 8);
        let threads: std::collections::HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == "outer")
            .map(|s| s.thread)
            .collect();
        assert_eq!(threads.len(), 4, "each worker thread has its own track");
        for inner in spans.iter().filter(|s| s.name == "inner") {
            let parent = spans.iter().find(|s| s.id == inner.parent).unwrap();
            assert_eq!(parent.name, "outer");
            assert_eq!(parent.thread, inner.thread, "nesting is thread-local");
        }
    }
}
