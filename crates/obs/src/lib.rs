//! # mnc-obs — observability for estimation sessions
//!
//! A zero-external-dependency, thread-safe observability layer for the MNC
//! workspace. The paper's whole value proposition is quantitative —
//! estimator accuracy (Section 5's SparsEst suite) versus construction and
//! estimation overhead (Figures 8–16) — so every estimation session can be
//! traced, metered, and accuracy-audited through three channels:
//!
//! * **spans** ([`mod@span`]) — hierarchical wall-clock spans recording the op,
//!   nnz in/out, and synopsis bytes. Spans are finished per-thread and merged
//!   into the shared [`Recorder`] with a single lock-free push on drop;
//! * **metrics** ([`metrics`]) — a named registry of monotone counters,
//!   gauges, and log₂-bucketed histograms (build/estimate/propagate
//!   latencies, cache hit/miss, synopsis memory), safe to update from any
//!   thread without locks on the hot path;
//! * **accuracy telemetry** ([`accuracy`]) — `(case, op, estimator,
//!   estimated, actual, relative error)` records emitted whenever ground
//!   truth is available (the SparsEst runner, eval paths), feeding the
//!   accuracy-regression check in `mnc-sparsest`.
//!
//! Everything funnels into a [`Report`] that the [`export`] module renders
//! as a human table, a JSONL event stream, or a Chrome `trace_event` JSON
//! loadable in `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! ## Cost when disabled
//!
//! A [`Recorder::disabled()`] recorder is a `None` behind a cheap handle:
//! spans skip the clock read entirely, metric handles skip the atomic, and
//! no allocation happens anywhere. Instrumented code pays one branch — the
//! ≤2 % overhead budget asserted by `cache_bench --check-overhead` holds
//! even with the recorder *enabled*, because enabled spans cost two `Instant`
//! reads plus one lock-free push.
//!
//! ```
//! use mnc_obs::{span, Recorder};
//!
//! let rec = Recorder::enabled();
//! {
//!     let _outer = span!(rec, "estimate", op = "matmul");
//!     let _inner = span!(rec, "build").nnz_in(42);
//! } // both spans merge into the recorder here
//! let report = rec.report();
//! assert_eq!(report.spans.len(), 2);
//! assert!(report.to_chrome_trace().contains("traceEvents"));
//! ```

pub mod accuracy;
pub mod alloc;
pub mod attribution;
pub mod export;
pub mod json;
pub mod metrics;
pub mod prometheus;
pub mod request;
pub mod ring;
pub mod span;

pub use accuracy::AccuracyRecord;
pub use alloc::{AllocDelta, AllocScope, AllocSnapshot};
pub use attribution::{attribute, render_attribution, AttributionRow};
pub use export::{ObsFormat, Report};
pub use metrics::{Counter, Gauge, Histogram, LatencyHisto, MetricSnapshot, MetricsRegistry};
pub use prometheus::render_prometheus;
pub use request::{parse_traceparent, RequestContext, RequestSpan, TraceId};
pub use ring::{RecordRing, Ring};
pub use span::{SpanGuard, SpanRecord};

use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A live tap on the record streams of an enabled [`Recorder`]: every
/// finished span and every accuracy record is offered to the sink *before*
/// it reaches the recorder's own storage. This is the feed for always-on
/// telemetry services (`mnc-obsd`'s flight recorder and accuracy-drift
/// monitor) — implementations must be cheap and non-blocking, they run on
/// the estimation hot path.
pub trait RecordSink: Send + Sync + 'static {
    /// Called with each finished span.
    fn on_span(&self, _span: &SpanRecord) {}
    /// Called with each accuracy record (after `ts_ns` stamping).
    fn on_accuracy(&self, _rec: &AccuracyRecord) {}
}

// ---------------------------------------------------------------------------
// Lock-free record list (Treiber stack)
// ---------------------------------------------------------------------------

struct ListNode<T> {
    value: T,
    next: *mut ListNode<T>,
}

/// An append-only lock-free list: finished spans and accuracy records are
/// pushed with one compare-exchange; snapshots traverse without blocking
/// writers (nodes are only freed when the list is dropped).
pub(crate) struct LockFreeList<T> {
    head: AtomicPtr<ListNode<T>>,
}

// SAFETY: nodes are heap-allocated, reachable only through `head`, pushed
// with release ordering and read with acquire ordering; nothing is freed
// before `Drop`, so concurrent push + traverse never observes a dangling
// pointer.
unsafe impl<T: Send> Send for LockFreeList<T> {}
unsafe impl<T: Send + Sync> Sync for LockFreeList<T> {}

impl<T> LockFreeList<T> {
    fn new() -> Self {
        LockFreeList {
            head: AtomicPtr::new(std::ptr::null_mut()),
        }
    }

    fn push(&self, value: T) {
        let node = Box::into_raw(Box::new(ListNode {
            value,
            next: std::ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS succeeds.
            unsafe { (*node).next = head };
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(actual) => head = actual,
            }
        }
    }

    /// Clones every record, newest first (callers re-sort by timestamp).
    fn collect(&self) -> Vec<T>
    where
        T: Clone,
    {
        let mut out = Vec::new();
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: nodes are never freed while the list is alive.
            let node = unsafe { &*cur };
            out.push(node.value.clone());
            cur = node.next;
        }
        out
    }

    fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            cur = unsafe { (*cur).next };
        }
        n
    }
}

impl<T> Drop for LockFreeList<T> {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` means no concurrent access remains.
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
        }
    }
}

// ---------------------------------------------------------------------------
// Record storage: unbounded (batch) or ring-bounded (services)
// ---------------------------------------------------------------------------

/// Backing storage for one record stream. Batch runs keep every record
/// (the append-only list); long-running services cap retention with a
/// [`RecordRing`] so memory stays O(capacity) forever.
pub(crate) enum RecordStore<T> {
    Unbounded(LockFreeList<T>),
    Bounded(RecordRing<T>),
}

impl<T: Clone + Send> RecordStore<T> {
    fn new(capacity: Option<usize>) -> Self {
        match capacity {
            Some(cap) => RecordStore::Bounded(RecordRing::new(cap)),
            None => RecordStore::Unbounded(LockFreeList::new()),
        }
    }

    fn push(&self, value: T) {
        match self {
            RecordStore::Unbounded(list) => list.push(value),
            RecordStore::Bounded(ring) => {
                ring.push(value);
            }
        }
    }

    /// Retained records, oldest first.
    fn collect(&self) -> Vec<T> {
        match self {
            RecordStore::Unbounded(list) => {
                let mut v = list.collect();
                v.reverse(); // the list is newest-first
                v
            }
            RecordStore::Bounded(ring) => ring.collect(),
        }
    }

    fn len(&self) -> usize {
        match self {
            RecordStore::Unbounded(list) => list.len(),
            RecordStore::Bounded(ring) => ring.len(),
        }
    }
}

// ---------------------------------------------------------------------------
// Recorder
// ---------------------------------------------------------------------------

static RECORDER_TOKENS: AtomicU64 = AtomicU64::new(1);

pub(crate) struct RecorderShared {
    /// Unique token distinguishing this recorder's spans in the per-thread
    /// parent tracking (two interleaved sessions must not cross-link).
    pub(crate) token: u64,
    pub(crate) epoch: Instant,
    pub(crate) next_span_id: AtomicU64,
    pub(crate) spans: RecordStore<SpanRecord>,
    pub(crate) accuracy: RecordStore<AccuracyRecord>,
    pub(crate) registry: MetricsRegistry,
    /// Ring capacity when bounded (`None` = keep everything).
    pub(crate) capacity: Option<usize>,
    /// Optional live tap, set once (see [`Recorder::set_sink`]).
    pub(crate) sink: OnceLock<Arc<dyn RecordSink>>,
}

/// The entry point: a cheap, cloneable handle that is either enabled (shared
/// state behind an `Arc`) or a no-op. All instrumented code takes a
/// `&Recorder` and works identically either way.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<RecorderShared>>,
}

impl Recorder {
    /// A recorder that records: spans, metrics, and accuracy telemetry all
    /// collect into shared, thread-safe state. Storage is unbounded — right
    /// for batch runs that export a full report at the end; long-running
    /// services should use [`Recorder::enabled_with_capacity`].
    pub fn enabled() -> Recorder {
        Self::build(None)
    }

    /// A recorder whose span and accuracy storage is a fixed-capacity
    /// overwrite ring ([`RecordRing`]): the most recent `capacity` records
    /// of each stream are retained in O(capacity) memory, forever. This is
    /// the mode for long-running services, where the unbounded recorder
    /// would grow without limit. Metrics are unaffected (the registry is
    /// bounded by its name set by construction).
    pub fn enabled_with_capacity(capacity: usize) -> Recorder {
        Self::build(Some(capacity.max(1)))
    }

    fn build(capacity: Option<usize>) -> Recorder {
        Recorder {
            inner: Some(Arc::new(RecorderShared {
                token: RECORDER_TOKENS.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                next_span_id: AtomicU64::new(1),
                spans: RecordStore::new(capacity),
                accuracy: RecordStore::new(capacity),
                registry: MetricsRegistry::new(),
                capacity,
                sink: OnceLock::new(),
            })),
        }
    }

    /// The no-op recorder: every call is a branch on `None` and nothing
    /// else — no clock reads, no allocation, no atomics.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// Whether this recorder collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The span/accuracy ring capacity, or `None` for an unbounded (or
    /// disabled) recorder.
    pub fn ring_capacity(&self) -> Option<usize> {
        self.inner.as_ref().and_then(|s| s.capacity)
    }

    /// Installs a live [`RecordSink`] tap: every finished span and accuracy
    /// record is offered to the sink before it reaches storage. The sink
    /// can be set **once** per recorder; returns `false` when the recorder
    /// is disabled or a sink is already installed.
    pub fn set_sink(&self, sink: Arc<dyn RecordSink>) -> bool {
        match &self.inner {
            Some(s) => s.sink.set(sink).is_ok(),
            None => false,
        }
    }

    /// Whether a [`RecordSink`] is installed.
    pub fn has_sink(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.sink.get().is_some())
    }

    /// Two handles to the same underlying recorder?
    pub fn same_as(&self, other: &Recorder) -> bool {
        match (&self.inner, &other.inner) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// Opens a span; finish it by dropping the guard. Prefer the [`span!`]
    /// macro, which reads like the field list it sets.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard::open(self.inner.clone(), name)
    }

    /// Nanoseconds since the recorder was created (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| {
            u64::try_from(s.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
    }

    /// Records one accuracy observation (no-op when disabled). The record's
    /// `ts_ns` is stamped with the recorder clock if left at 0, and an
    /// installed [`RecordSink`] sees the record before storage.
    pub fn record_accuracy(&self, mut rec: AccuracyRecord) {
        if let Some(shared) = &self.inner {
            if rec.ts_ns == 0 {
                rec.ts_ns = self.elapsed_ns();
            }
            if let Some(sink) = shared.sink.get() {
                sink.on_accuracy(&rec);
            }
            shared.accuracy.push(rec);
        }
    }

    /// Handle to the named monotone counter (a no-op handle when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(s) => s.registry.counter(name),
            None => Counter::noop(),
        }
    }

    /// Handle to the named gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(s) => s.registry.gauge(name),
            None => Gauge::noop(),
        }
    }

    /// Handle to the named log-scale histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(s) => s.registry.histogram(name),
            None => Histogram::noop(),
        }
    }

    /// The metrics registry, when enabled.
    pub fn registry(&self) -> Option<&MetricsRegistry> {
        self.inner.as_deref().map(|s| &s.registry)
    }

    /// All retained finished spans, in start order (the newest `capacity`
    /// for a bounded recorder).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match &self.inner {
            Some(s) => {
                let mut v = s.spans.collect();
                v.sort_by_key(|r| (r.start_ns, r.id));
                v
            }
            None => Vec::new(),
        }
    }

    /// Number of retained finished spans (cheap-ish; walks the list).
    pub fn span_count(&self) -> usize {
        self.inner.as_ref().map_or(0, |s| s.spans.len())
    }

    /// All retained accuracy records, in emission order.
    pub fn accuracy(&self) -> Vec<AccuracyRecord> {
        match &self.inner {
            Some(s) => s.accuracy.collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot of spans, metrics, and accuracy records, ready to export.
    pub fn report(&self) -> Report {
        Report {
            spans: self.spans(),
            metrics: self.registry().map(|r| r.snapshot()).unwrap_or_default(),
            accuracy: self.accuracy(),
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => write!(f, "Recorder(enabled, {} spans)", s.spans.len()),
            None => write!(f, "Recorder(disabled)"),
        }
    }
}

/// Opens a span on a recorder, optionally presetting fields:
/// `span!(rec, "estimate", op = "matmul", nnz_in = 42)`. Accepted fields are
/// the [`SpanGuard`] builder methods: `op`, `nnz_in`, `nnz_out`, `bytes`.
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(,)?) => {
        $rec.span($name)
    };
    ($rec:expr, $name:expr, $($field:ident = $value:expr),+ $(,)?) => {{
        #[allow(unused_mut)]
        let mut guard = $rec.span($name);
        $(guard = guard.$field($value);)+
        guard
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_free_and_empty() {
        let rec = Recorder::disabled();
        assert!(!rec.is_enabled());
        {
            let _g = span!(rec, "estimate", op = "matmul", nnz_in = 3);
        }
        rec.counter("x").incr();
        rec.histogram("h").record(5);
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.5, 0.5));
        assert!(rec.spans().is_empty());
        assert!(rec.accuracy().is_empty());
        assert!(rec.registry().is_none());
        let report = rec.report();
        assert!(report.spans.is_empty() && report.accuracy.is_empty());
    }

    #[test]
    fn spans_record_fields_and_order() {
        let rec = Recorder::enabled();
        {
            let _g = span!(
                rec,
                "build",
                op = "MNC",
                nnz_in = 10,
                nnz_out = 10,
                bytes = 80
            );
        }
        {
            let _g = span!(rec, "estimate", op = "matmul");
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "build");
        assert_eq!(spans[0].op.as_deref(), Some("MNC"));
        assert_eq!(spans[0].nnz_in, Some(10));
        assert_eq!(spans[0].synopsis_bytes, Some(80));
        assert_eq!(spans[1].name, "estimate");
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }

    #[test]
    fn nesting_links_parents_within_a_thread() {
        let rec = Recorder::enabled();
        {
            let outer = rec.span("outer");
            let outer_id = outer.id();
            {
                let inner = rec.span("inner");
                assert_eq!(inner.parent(), outer_id);
                let inner_id = inner.id();
                let leaf = rec.span("leaf");
                assert_eq!(leaf.parent(), inner_id);
            }
            // Back at outer depth: a sibling of "inner".
            let sibling = rec.span("sibling");
            assert_eq!(sibling.parent(), outer_id);
        }
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(outer.parent, 0, "top-level span has no parent");
    }

    #[test]
    fn two_recorders_do_not_cross_link() {
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        let _ga = a.span("a-outer");
        let gb = b.span("b-inner");
        // b's span must not claim a's span as parent: different recorders.
        assert_eq!(gb.parent(), 0);
    }

    #[test]
    fn accuracy_channel_round_trips() {
        let rec = Recorder::enabled();
        rec.record_accuracy(AccuracyRecord::new("B1.2", "matmul", "MNC", 0.1, 0.2));
        rec.record_accuracy(AccuracyRecord::new("B1.3", "ew_add", "DMap", 0.3, 0.3));
        let acc = rec.accuracy();
        assert_eq!(acc.len(), 2);
        assert_eq!(acc[0].case, "B1.2");
        assert!(acc[0].relative_error > 1.9 && acc[0].relative_error < 2.1);
        assert_eq!(acc[1].relative_error, 1.0);
    }

    #[test]
    fn lock_free_list_survives_concurrent_pushes() {
        let list = LockFreeList::new();
        std::thread::scope(|scope| {
            for t in 0..8u64 {
                let list = &list;
                scope.spawn(move || {
                    for i in 0..500u64 {
                        list.push(t * 1000 + i);
                    }
                });
            }
        });
        let mut all = list.collect();
        assert_eq!(all.len(), 4000);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "no push may be lost or duplicated");
    }

    #[test]
    fn bounded_recorder_retains_the_newest_spans() {
        let rec = Recorder::enabled_with_capacity(8);
        assert_eq!(rec.ring_capacity(), Some(8));
        for i in 0..100u64 {
            let _g = span!(rec, "work", nnz_in = i);
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 8, "ring caps retention");
        // Span ids are 1-based and monotone: the retained ones are 93..=100.
        assert!(spans.iter().all(|s| s.id > 92), "{spans:?}");
        assert_eq!(rec.span_count(), 8);
        // Accuracy is bounded by the same capacity.
        for i in 0..20 {
            rec.record_accuracy(AccuracyRecord::new(
                format!("c{i}"),
                "matmul",
                "MNC",
                0.1,
                0.1,
            ));
        }
        let acc = rec.accuracy();
        assert_eq!(acc.len(), 8);
        assert_eq!(acc.last().unwrap().case, "c19", "newest records retained");
        // Unbounded recorders report no capacity.
        assert_eq!(Recorder::enabled().ring_capacity(), None);
        assert_eq!(Recorder::disabled().ring_capacity(), None);
    }

    #[test]
    fn sink_sees_spans_and_accuracy_before_storage() {
        use std::sync::atomic::AtomicUsize;

        #[derive(Default)]
        struct CountingSink {
            spans: AtomicUsize,
            accuracy: AtomicUsize,
        }
        impl RecordSink for CountingSink {
            fn on_span(&self, span: &SpanRecord) {
                assert!(span.dur_ns > 0 || span.start_ns > 0 || span.id > 0);
                self.spans.fetch_add(1, Ordering::Relaxed);
            }
            fn on_accuracy(&self, rec: &AccuracyRecord) {
                assert!(rec.ts_ns > 0, "sink runs after ts stamping");
                self.accuracy.fetch_add(1, Ordering::Relaxed);
            }
        }

        let rec = Recorder::enabled();
        assert!(!rec.has_sink());
        let sink = Arc::new(CountingSink::default());
        assert!(rec.set_sink(Arc::clone(&sink) as Arc<dyn RecordSink>));
        assert!(rec.has_sink());
        // Second install is rejected (set-once semantics).
        assert!(!rec.set_sink(Arc::new(CountingSink::default())));
        {
            let _a = rec.span("estimate");
            let _b = rec.span("build");
        }
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.5, 0.25));
        assert_eq!(sink.spans.load(Ordering::Relaxed), 2);
        assert_eq!(sink.accuracy.load(Ordering::Relaxed), 1);
        // The recorder's own storage still has everything.
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.accuracy().len(), 1);
        // A disabled recorder rejects sinks.
        assert!(!Recorder::disabled().set_sink(Arc::new(CountingSink::default())));
    }

    #[test]
    fn recorder_identity() {
        let a = Recorder::enabled();
        let b = a.clone();
        assert!(a.same_as(&b));
        assert!(!a.same_as(&Recorder::enabled()));
        assert!(Recorder::disabled().same_as(&Recorder::disabled()));
    }
}
