//! # mnc-obsd — live telemetry for long-running estimation services
//!
//! PR 2's `mnc-obs` is batch-oriented: spans, metrics, and accuracy records
//! surface *after* a run, via CLI flags. This crate turns that layer into
//! production telemetry with three always-on, low-overhead subsystems
//! behind one handle, [`ObsDaemon`]:
//!
//! * **flight store** — the most recent N spans and accuracy records in
//!   O(N) memory: the rings of the daemon's own bounded [`Recorder`],
//!   dumpable on demand and automatically from a panic hook for
//!   postmortems;
//! * **accuracy-drift monitor** ([`drift`]) — per-`(estimator, op)` online
//!   EWMA + windowed quantiles of the symmetric relative error, tripping a
//!   degraded-health state and a `drift_alerts_total` counter when error
//!   drifts past configured ceilings;
//! * **embedded HTTP endpoint** ([`http`]) — a dependency-free
//!   `std::net::TcpListener` server on a background thread serving
//!   `GET /metrics` (Prometheus text), `/healthz` (drift-aware
//!   OK/DEGRADED), `/flight` (JSONL ring dump), and `/attribution`.
//!
//!
//! The daemon owns one bounded [`Recorder`] ([`ObsDaemon::recorder`]),
//! created with it: every plane of a service records into that one
//! recorder, so a daemon has one source however many planes and sessions
//! it serves, and its two [`RecordRing`](mnc_obs::RecordRing)s (spans,
//! accuracy records) are the flight store. Other recorders (an unbounded
//! batch recorder, say) join as sources of their own through
//! [`ObsDaemon::install`], whose [`RecordSink`] forwards each of their
//! records into the daemon recorder: every record reaching a daemon is
//! stored in exactly one ring and seen once by the drift monitor.
//!
//! ```no_run
//! use mnc_obsd::{ObsDaemon, ObsdConfig};
//!
//! let daemon = ObsDaemon::new(ObsdConfig::default());
//! let rec = daemon.recorder().clone();        // already installed
//! rec.counter("cache.hit").incr();
//! let server = daemon.serve("127.0.0.1:0").unwrap();
//! println!("scrape http://{}/metrics", server.local_addr());
//! ```

pub mod drift;
pub mod http;
pub mod slo;
pub mod timeline;

pub use drift::{DriftConfig, DriftMonitor, Health, SeriesStats};
pub use http::{
    serve_with, telemetry_response, Handler, Request, Response, ServeOptions, ServerHandle,
};
pub use slo::{SloConfig, SloEngine, SloTransition};
pub use timeline::{Timeline, TimelineConfig, TimelineQuery, TimelineStats};

use std::sync::{Arc, Mutex};

use mnc_obs::{
    render_attribution, render_prometheus, AccuracyRecord, MetricSnapshot, RecordSink, Recorder,
    Report, SpanRecord,
};

/// Configuration for one daemon.
#[derive(Debug, Clone)]
pub struct ObsdConfig {
    /// Ring capacity of the daemon's [`recorder`](ObsDaemon::recorder),
    /// per stream (spans and accuracy records each): the flight store
    /// keeps the newest this many of each.
    pub flight_capacity: usize,
    /// Drift-monitor thresholds.
    pub drift: DriftConfig,
    /// Timeline-plane sizing and SLO objectives.
    pub timeline: TimelineConfig,
}

impl Default for ObsdConfig {
    fn default() -> Self {
        ObsdConfig {
            flight_capacity: 1024,
            drift: DriftConfig::default(),
            timeline: TimelineConfig::default(),
        }
    }
}

/// The [`RecordSink`] [`ObsDaemon::install`] puts on every other recorder:
/// it forwards each span and accuracy record into the daemon recorder,
/// whose rings are the flight store and whose own sink is the drift
/// monitor. It holds the daemon recorder only, never [`DaemonShared`]
/// (whose `sources` list holds the recorder this sink sits on), so no
/// reference cycle forms.
struct Forward(Recorder);

impl RecordSink for Forward {
    fn on_span(&self, span: &SpanRecord) {
        self.0.record_span(span.clone());
    }

    fn on_accuracy(&self, rec: &AccuracyRecord) {
        self.0.record_accuracy(rec.clone());
    }
}

/// Shared daemon state.
struct DaemonShared {
    /// The daemon's own bounded recorder (see [`ObsDaemon::recorder`]): its
    /// rings are the flight store, its sink is `drift`.
    recorder: Recorder,
    drift: Arc<DriftMonitor>,
    timeline: Timeline,
    /// Source recorders whose registries `/metrics` aggregates, the daemon
    /// recorder first. Holding clones keeps the registries alive for
    /// scrapes that outlive the session.
    sources: Mutex<Vec<Recorder>>,
    /// The latest merged snapshot (refreshed periodically by the HTTP
    /// ticker and on every scrape) — also what a panic dump would see.
    cached: Mutex<MetricSnapshot>,
}

/// The live-telemetry daemon: a cheap, cloneable handle over the daemon
/// recorder (the flight store), drift monitor, and metric aggregation.
/// Serve it over HTTP with [`ObsDaemon::serve`].
#[derive(Clone)]
pub struct ObsDaemon {
    shared: Arc<DaemonShared>,
}

impl ObsDaemon {
    /// A daemon with the given configuration. Its only source is its own
    /// [`recorder`](ObsDaemon::recorder); other recorders are observed
    /// once [`install`](ObsDaemon::install)ed.
    pub fn new(config: ObsdConfig) -> Self {
        let recorder = Recorder::enabled_with_capacity(config.flight_capacity);
        let drift = Arc::new(DriftMonitor::new(config.drift));
        recorder.set_sink(Arc::clone(&drift) as Arc<dyn RecordSink>);
        ObsDaemon {
            shared: Arc::new(DaemonShared {
                sources: Mutex::new(vec![recorder.clone()]),
                recorder,
                drift,
                timeline: Timeline::new(config.timeline),
                cached: Mutex::new(MetricSnapshot::default()),
            }),
        }
    }

    /// Wires a recorder into the daemon: its metrics registry joins the
    /// `/metrics` aggregation and its [`RecordSink`] tap forwards its
    /// span/accuracy streams into the daemon recorder (the flight store,
    /// which feeds the drift monitor). Installing the same recorder twice
    /// is a no-op (sources are deduplicated by identity), so re-installing
    /// the daemon's own recorder adds nothing.
    ///
    /// Every source is kept for the daemon's lifetime, so install
    /// long-lived recorders only. Planes and sessions that come and go
    /// share the daemon's [`recorder`](ObsDaemon::recorder) instead of
    /// installing their own.
    ///
    /// Returns whether the live tap was installed — `false` for a disabled
    /// recorder or one that already has a different sink (its registry is
    /// still aggregated).
    pub fn install(&self, rec: &Recorder) -> bool {
        if rec.is_enabled() {
            let mut sources = self.shared.sources.lock().expect("sources poisoned");
            if !sources.iter().any(|s| s.same_as(rec)) {
                sources.push(rec.clone());
            }
        }
        rec.set_sink(Arc::new(Forward(self.shared.recorder.clone())))
    }

    /// The bounded recorder (ring capacity = the flight capacity) created
    /// with the daemon as its first source. Its rings are the flight store
    /// behind `/flight`, `/attribution` and the panic dump. Services record
    /// every plane into it, and a library session attaches it with
    /// `EstimationContext::with_recorder(daemon.recorder().clone())`:
    /// cloning it costs no allocation and adds no source.
    pub fn recorder(&self) -> &Recorder {
        &self.shared.recorder
    }

    /// The drift monitor.
    pub fn drift(&self) -> &DriftMonitor {
        &self.shared.drift
    }

    /// The timeline plane (history rings + SLO engine).
    pub fn timeline(&self) -> &Timeline {
        &self.shared.timeline
    }

    /// The health verdict (`/healthz`): drift-monitor reasons merged with
    /// any firing SLO burn-rate alerts.
    pub fn health(&self) -> Health {
        let mut reasons = match self.shared.drift.status() {
            Health::Ok => Vec::new(),
            Health::Degraded(r) => r,
        };
        reasons.extend(self.shared.timeline.slo().health_reasons());
        if reasons.is_empty() {
            Health::Ok
        } else {
            Health::Degraded(reasons)
        }
    }

    /// Number of installed source recorders.
    pub fn source_count(&self) -> usize {
        self.shared.sources.lock().expect("sources poisoned").len()
    }

    /// Service-health metrics the daemon contributes beside the aggregated
    /// session registries: the alert counter, flight-ring counters and
    /// retention gauges, and the degraded flag as a 0/1 gauge.
    fn service_snapshot(&self) -> MetricSnapshot {
        let mut snap = MetricSnapshot::default();
        snap.counters
            .insert("obsd.drift_alerts".into(), self.shared.drift.alerts());
        let (spans, accuracy) = self.shared.recorder.ring_stats().unwrap_or_default();
        snap.counters
            .insert("obsd.flight.spans_pushed".into(), spans.pushed);
        snap.counters
            .insert("obsd.flight.accuracy_pushed".into(), accuracy.pushed);
        snap.counters.insert(
            "obsd.flight.dropped".into(),
            spans.dropped + accuracy.dropped,
        );
        snap.gauges
            .insert("obsd.flight.spans_retained".into(), spans.retained as i64);
        snap.gauges.insert(
            "obsd.flight.accuracy_retained".into(),
            accuracy.retained as i64,
        );
        snap.gauges.insert(
            "obsd.degraded".into(),
            i64::from(self.shared.drift.is_degraded()),
        );
        snap.gauges
            .insert("obsd.sources".into(), self.source_count() as i64);
        // The drift monitor's live per-(estimator, op) statistics, exported
        // as labeled gauges (milli-scaled: a geo-EWMA of 1.234 reads 1234).
        // Cardinality is bounded by the estimator × op vocabulary.
        for s in self.shared.drift.stats() {
            let milli = |v: f64| (v * 1000.0).min(i64::MAX as f64) as i64;
            let labels = format!("{{estimator={},op={}}}", s.estimator, s.op);
            snap.gauges.insert(
                format!("obsd.drift.geo_ewma_milli{labels}"),
                milli(s.geo_ewma),
            );
            snap.gauges
                .insert(format!("obsd.drift.p95_milli{labels}"), milli(s.p95));
            snap.gauges.insert(
                format!("obsd.drift.samples{labels}"),
                i64::try_from(s.count).unwrap_or(i64::MAX),
            );
            snap.gauges.insert(
                format!("obsd.drift.infinite{labels}"),
                i64::try_from(s.infinite).unwrap_or(i64::MAX),
            );
            snap.gauges.insert(
                format!("obsd.drift.degraded{labels}"),
                i64::from(s.degraded),
            );
        }
        snap
    }

    /// Re-merges the service metrics with every source registry into the
    /// cached snapshot. Called on every scrape and periodically by the
    /// HTTP server's ticker (so the cache stays near-current even when
    /// nobody scrapes). The merged snapshot is also tailed into the
    /// timeline plane (at most one frame per second) and any SLO alert
    /// edges that produces are recorded as spans on the daemon recorder,
    /// on its clock so they sort among the spans they explain.
    pub fn refresh(&self) {
        let mut merged = self.service_snapshot();
        {
            let sources = self.shared.sources.lock().expect("sources poisoned");
            for rec in sources.iter() {
                if let Some(reg) = rec.registry() {
                    merged.merge(&reg.snapshot());
                }
            }
        }
        let now_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let edges = self
            .shared
            .timeline
            .sample_at(now_s, &merged, self.shared.drift.is_degraded());
        for edge in edges.into_iter().flatten() {
            self.shared.recorder.record_span(SpanRecord {
                id: 0,
                parent: 0,
                name: "slo_alert",
                op: Some(format!(
                    "{}:{}",
                    slo::OBJECTIVES[edge.objective],
                    if edge.fired { "fire" } else { "recover" }
                )),
                thread: 0,
                start_ns: self.shared.recorder.elapsed_ns(),
                dur_ns: 0,
                nnz_in: None,
                nnz_out: None,
                synopsis_bytes: None,
                alloc_net: None,
                alloc_bytes: None,
                trace: None,
            });
        }
        // Contributed after sampling so scrapes see this second's SLO
        // state, and the timeline never tracks its own series.
        self.shared.timeline.contribute_metrics(&mut merged);
        *self.shared.cached.lock().expect("cached poisoned") = merged;
    }

    /// The `/metrics` body: a fresh merge of the service metrics and every
    /// source registry, rendered in Prometheus text exposition format with
    /// the `mnc_` prefix (the drift counter appears as
    /// `mnc_obsd_drift_alerts_total`).
    pub fn metrics_text(&self) -> String {
        self.refresh();
        let snap = self.shared.cached.lock().expect("cached poisoned").clone();
        render_prometheus(&snap, "mnc_", &[])
    }

    /// The `/flight` body: every span the daemon recorder retains (start
    /// order), then every accuracy record it retains (push order), one
    /// JSON object per line, rendered by the shared serializers of
    /// [`Report::to_jsonl`].
    pub fn flight_jsonl(&self) -> String {
        let rec = &self.shared.recorder;
        Report {
            spans: rec.spans(),
            metrics: MetricSnapshot::default(),
            accuracy: rec.accuracy(),
        }
        .to_jsonl()
    }

    /// The `/attribution` body: per-phase self-time attribution over the
    /// retained flight spans.
    pub fn attribution_text(&self) -> String {
        render_attribution(&self.shared.recorder.spans())
    }

    /// Writes the flight dump to `path` (postmortems; see
    /// [`install_panic_hook`](ObsDaemon::install_panic_hook)).
    pub fn dump_flight_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.flight_jsonl())
    }

    /// Installs a process-wide panic hook that writes the flight dump to
    /// `path` before delegating to the previous hook — a crashing service
    /// leaves its last N spans and accuracy records behind for the
    /// postmortem. Dump errors inside the hook are swallowed (a failing
    /// dump must not turn a panic into an abort).
    pub fn install_panic_hook(&self, path: std::path::PathBuf) {
        let daemon = self.clone();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let _ = daemon.dump_flight_to(&path);
            prev(info);
        }));
    }

    /// Starts the embedded HTTP server on `addr` (use port 0 for an
    /// OS-assigned port; read it back from
    /// [`ServerHandle::local_addr`]). The server runs on background
    /// threads until the handle is shut down or dropped.
    pub fn serve(&self, addr: &str) -> std::io::Result<ServerHandle> {
        http::serve(self.clone(), addr)
    }
}

impl std::fmt::Debug for ObsDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ObsDaemon({:?}, alerts {}, sources {})",
            self.shared.recorder,
            self.shared.drift.alerts(),
            self.source_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_obs::export::{accuracy_json, span_json};
    use mnc_obs::span;

    fn small() -> ObsdConfig {
        ObsdConfig {
            flight_capacity: 8,
            drift: DriftConfig {
                min_samples: 4,
                window: 8,
                ..DriftConfig::default()
            },
            // Off so the golden metrics assertions stay deterministic.
            timeline: TimelineConfig {
                enabled: false,
                ..TimelineConfig::default()
            },
        }
    }

    #[test]
    fn install_taps_the_record_streams() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        assert!(daemon.install(&rec));
        {
            let _g = span!(rec, "estimate", op = "matmul");
        }
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.1, 0.1));
        assert_eq!(daemon.recorder().span_count(), 1);
        assert_eq!(daemon.recorder().accuracy().len(), 1);
        assert_eq!(daemon.drift().stats().len(), 1);
    }

    #[test]
    fn the_daemon_recorder_is_the_one_source_of_a_new_daemon() {
        let daemon = ObsDaemon::new(small());
        let rec = daemon.recorder();
        assert_eq!(daemon.source_count(), 1);
        assert_eq!(rec.ring_capacity(), Some(8));
        assert!(rec.has_sink());
        // Re-installing it is a no-op.
        assert!(!daemon.install(rec));
        assert_eq!(daemon.source_count(), 1);
        {
            let _g = span!(rec, "estimate");
        }
        assert_eq!(rec.span_count(), 1);
    }

    #[test]
    fn slo_alert_spans_run_on_the_daemon_recorder_clock() {
        // Every request fails: the availability objective fires on the
        // first sampled second.
        let daemon = ObsDaemon::new(ObsdConfig {
            timeline: TimelineConfig {
                slo: SloConfig {
                    availability_target: 0.99,
                    fast_window_s: 1,
                    slow_window_s: 1,
                    min_events: 1,
                    ..SloConfig::default()
                },
                ..TimelineConfig::default()
            },
            ..small()
        });
        daemon
            .recorder()
            .counter("served.requests{endpoint=/v1/estimate,method=POST,status=503}")
            .add(100);
        let before = daemon.recorder().elapsed_ns();
        daemon.refresh();
        let after = daemon.recorder().elapsed_ns();
        let alerts: Vec<SpanRecord> = daemon
            .recorder()
            .spans()
            .into_iter()
            .filter(|s| s.name == "slo_alert")
            .collect();
        assert_eq!(alerts.len(), 1, "one availability edge");
        assert_eq!(alerts[0].op.as_deref(), Some("availability:fire"));
        assert!(
            (before..=after).contains(&alerts[0].start_ns),
            "alert at {} ns, outside the recorder clock's {before}..={after}",
            alerts[0].start_ns
        );
    }

    #[test]
    fn install_is_idempotent_per_recorder() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        assert!(daemon.install(&rec));
        // Second install: already the sink, already a source (beside the
        // daemon recorder).
        assert!(!daemon.install(&rec.clone()));
        assert_eq!(daemon.source_count(), 2);
        // A disabled recorder contributes nothing.
        assert!(!daemon.install(&Recorder::disabled()));
        assert_eq!(daemon.source_count(), 2);
        // A second live recorder joins as its own source.
        let rec2 = Recorder::enabled();
        assert!(daemon.install(&rec2));
        assert_eq!(daemon.source_count(), 3);
    }

    #[test]
    fn metrics_text_aggregates_sources_and_service_counters() {
        let daemon = ObsDaemon::new(small());
        let a = Recorder::enabled();
        let b = Recorder::enabled();
        daemon.install(&a);
        daemon.install(&b);
        a.counter("cache.hit").add(3);
        b.counter("cache.hit").add(4);
        let text = daemon.metrics_text();
        assert!(text.contains("mnc_cache_hit_total 7"), "{text}");
        assert!(text.contains("mnc_obsd_drift_alerts_total 0"), "{text}");
        assert!(text.contains("mnc_obsd_sources 3"), "{text}");
    }

    #[test]
    fn drift_series_export_as_labeled_gauges() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        daemon.install(&rec);
        for _ in 0..6 {
            rec.record_accuracy(AccuracyRecord::new("c", "matmul", "MNC", 0.105, 0.1));
            rec.record_accuracy(AccuracyRecord::new("c", "ew_add", "DMap", 0.9, 0.1));
        }
        let text = daemon.metrics_text();
        // p95 comes straight from the window (no ln/exp roundtrip), so its
        // milli value is exact; the geo-EWMA lines are asserted by presence.
        for needle in [
            "mnc_obsd_drift_geo_ewma_milli{estimator=\"MNC\",op=\"matmul\"} ",
            "mnc_obsd_drift_geo_ewma_milli{estimator=\"DMap\",op=\"ew_add\"} ",
            "mnc_obsd_drift_p95_milli{estimator=\"MNC\",op=\"matmul\"} 1049",
            "mnc_obsd_drift_p95_milli{estimator=\"DMap\",op=\"ew_add\"} 9000",
            "mnc_obsd_drift_samples{estimator=\"MNC\",op=\"matmul\"} 6",
            "mnc_obsd_drift_degraded{estimator=\"DMap\",op=\"ew_add\"} 1",
            "mnc_obsd_drift_degraded{estimator=\"MNC\",op=\"matmul\"} 0",
            "mnc_obsd_drift_infinite{estimator=\"MNC\",op=\"matmul\"} 0",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn health_follows_the_drift_monitor() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        daemon.install(&rec);
        assert!(daemon.health().is_ok());
        for i in 0..20 {
            rec.record_accuracy(AccuracyRecord::new(
                format!("c{i}"),
                "matmul",
                "Sample",
                0.9,
                0.05,
            ));
        }
        assert!(!daemon.health().is_ok());
        let text = daemon.metrics_text();
        assert!(text.contains("mnc_obsd_drift_alerts_total 1"), "{text}");
        assert!(text.contains("mnc_obsd_degraded 1"), "{text}");
    }

    #[test]
    fn flight_dump_and_attribution_render_from_the_rings() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        daemon.install(&rec);
        {
            let _outer = span!(rec, "estimate", op = "matmul");
            let _inner = span!(rec, "build");
        }
        let dump = daemon.flight_jsonl();
        assert_eq!(dump.lines().count(), 2);
        assert!(dump.contains("\"type\":\"span\""));
        let attr = daemon.attribution_text();
        assert!(attr.contains("estimate"), "{attr}");
    }

    /// `(obsd.flight.spans_pushed, obsd.flight.accuracy_pushed)`.
    fn pushed(daemon: &ObsDaemon) -> (u64, u64) {
        let snap = daemon.service_snapshot();
        (
            snap.counters["obsd.flight.spans_pushed"],
            snap.counters["obsd.flight.accuracy_pushed"],
        )
    }

    fn flight_lines_with(daemon: &ObsDaemon, needle: &str) -> usize {
        daemon
            .flight_jsonl()
            .lines()
            .filter(|l| l.contains(needle))
            .count()
    }

    #[test]
    fn each_record_is_pushed_into_the_flight_store_once() {
        let daemon = ObsDaemon::new(ObsdConfig {
            timeline: TimelineConfig {
                slo: SloConfig {
                    availability_target: 0.99,
                    fast_window_s: 1,
                    slow_window_s: 1,
                    min_events: 1,
                    ..SloConfig::default()
                },
                ..TimelineConfig::default()
            },
            ..small()
        });
        let own = daemon.recorder().clone();
        let installed = Recorder::enabled();
        assert!(daemon.install(&installed));
        let mut last = pushed(&daemon);
        let mut step = |what: &str, spans: u64, accuracy: u64| {
            let now = pushed(&daemon);
            assert_eq!(now, (last.0 + spans, last.1 + accuracy), "{what}");
            last = now;
        };

        {
            let _g = span!(own, "estimate", op = "own-span");
        }
        step("span on the daemon recorder", 1, 0);
        own.record_accuracy(AccuracyRecord::new("own-acc", "matmul", "MNC", 0.1, 0.1));
        step("accuracy on the daemon recorder", 0, 1);
        {
            let _g = span!(installed, "estimate", op = "installed-span");
        }
        step("span on an installed recorder", 1, 0);
        installed.record_accuracy(AccuracyRecord::new(
            "installed-acc",
            "matmul",
            "MNC",
            0.1,
            0.1,
        ));
        step("accuracy on an installed recorder", 0, 1);
        own.counter("served.requests{endpoint=/v1/estimate,method=POST,status=503}")
            .add(100);
        daemon.refresh();
        step("an SLO alert edge", 1, 0);

        for needle in [
            "own-span",
            "own-acc",
            "installed-span",
            "installed-acc",
            "availability:fire",
        ] {
            assert_eq!(flight_lines_with(&daemon, needle), 1, "{needle}");
        }
        // Each accuracy record reached the drift monitor once, too.
        assert_eq!(daemon.drift().stats()[0].count, 2);
    }

    #[test]
    fn flight_lines_are_the_shared_serializers_output() {
        let daemon = ObsDaemon::new(small());
        let rec = daemon.recorder();
        {
            let _g = span!(rec, "estimate", op = "matmul");
        }
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.1, 0.2));
        let dump = daemon.flight_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        // Byte-identical to the canonical serializers — the same functions
        // `Report::to_jsonl` renders through.
        assert_eq!(
            lines,
            [
                span_json(&rec.spans()[0]),
                accuracy_json(&rec.accuracy()[0])
            ]
        );
    }

    #[test]
    fn empty_flight_dump_is_empty() {
        assert_eq!(ObsDaemon::new(small()).flight_jsonl(), "");
    }

    #[test]
    fn dump_flight_to_writes_the_jsonl() {
        let daemon = ObsDaemon::new(small());
        let rec = Recorder::enabled();
        daemon.install(&rec);
        {
            let _g = span!(rec, "estimate");
        }
        let path = std::env::temp_dir().join(format!("mnc-obsd-dump-{}.jsonl", std::process::id()));
        daemon.dump_flight_to(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(body, daemon.flight_jsonl());
        assert!(body.contains("\"name\":\"estimate\""));
    }
}
