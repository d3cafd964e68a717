//! The request-scoped tracing plane.
//!
//! [`TracePlane`] owns everything per-request observability needs beyond the
//! process-wide recorders of PR 2/5:
//!
//! * a **context pool** of reusable [`RequestContext`]s — trace-ID parsing /
//!   generation and stage-span buffers with their storage retained across
//!   requests, so the steady-state path performs **zero allocations**
//!   (proven under `alloc-track` in `tests/trace_alloc.rs`);
//! * **RED metrics** — per-`(endpoint, method, status)` request counters and
//!   per-endpoint log₂ latency histograms split into `queue_wait_ns` vs
//!   `service_ns`, recorded into the embedded `ObsDaemon`'s own recorder,
//!   whose registry `/metrics` renders (series labels ride in the registry
//!   name, `served.requests{endpoint=...,method=...,status=...}`, decoded by
//!   the Prometheus renderer). Handles live in [`MetricFamily`] grids: the
//!   first request to a series allocates its name, every later hit is one
//!   atomic;
//! * **tail-based capture** — requests slower than the configured threshold,
//!   or failing server-side (status ≥ 500), get their full stage tree
//!   recorded on the daemon recorder (whose rings are the daemon's flight
//!   store, served by `/flight`), retained in a bounded ring served by
//!   `GET /v1/debug/requests` (JSONL, or Chrome trace with `?format=chrome`),
//!   and appended to the optional JSONL access log. Fast requests leave no
//!   trace beyond the metrics — that is the sampling policy;
//! * the **`Retry-After` feedback loop** — a once-a-tick refresh of the
//!   measured recent p99 service time, rounded up to whole seconds (min 1),
//!   handed to saturated clients instead of a constant.
//!
//! Bit-invariance: nothing here touches estimator state — the plane wraps
//! the request flow, so answers with tracing on equal answers with it off.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mnc_obs::export::{json_escape, span_json};
use mnc_obs::ring::Ring;
use mnc_obs::{
    Counter, Histogram, MetricFamily, MetricSnapshot, Recorder, RequestContext, SpanRecord,
};
use mnc_obsd::{ObsDaemon, Response};

use crate::error::ServiceError;
use crate::service::ServedConfig;

/// Normalized endpoint labels: bounded cardinality no matter what clients
/// put on the wire (matrix names collapse into `{name}`). Every `/v1` label,
/// the `/v1/debug/*` reads included, counts toward the availability SLO;
/// the telemetry endpoints below them and `other` do not.
const ENDPOINTS: [&str; 13] = [
    "/v1/estimate",
    "/v1/status",
    "/v1/matrices",
    "/v1/matrices/{name}",
    "/v1/matrices/{name}/sketch",
    "/v1/debug/requests",
    "/v1/debug/shadow",
    "/v1/debug/timeline",
    "/metrics",
    "/healthz",
    "/flight",
    "/attribution",
    "other",
];

/// The endpoint label of the RED series.
const ENDPOINT: mnc_obs::family::Label = ("endpoint", &ENDPOINTS);

const METHODS: [&str; 5] = ["GET", "PUT", "POST", "DELETE", "other"];

const STATUSES: [&str; 12] = [
    "200", "201", "204", "400", "404", "405", "409", "413", "429", "500", "503", "other",
];

/// Maps a request path to its `(grid index, endpoint label)`.
pub fn endpoint_of(path: &str) -> (usize, &'static str) {
    let idx = match path {
        "/v1/estimate" => 0,
        "/v1/status" => 1,
        "/v1/matrices" => 2,
        "/v1/debug/requests" => 5,
        "/v1/debug/shadow" => 6,
        "/v1/debug/timeline" => 7,
        "/metrics" => 8,
        "/healthz" => 9,
        "/flight" => 10,
        "/attribution" => 11,
        p => match p.strip_prefix("/v1/matrices/") {
            Some(rest) if !rest.is_empty() => {
                if rest.ends_with("/sketch") {
                    4
                } else {
                    3
                }
            }
            _ => 12,
        },
    };
    (idx, ENDPOINTS[idx])
}

fn method_index(method: &str) -> usize {
    METHODS
        .iter()
        .position(|m| *m == method)
        .unwrap_or(METHODS.len() - 1)
}

fn status_index(status: u16) -> usize {
    match status {
        200 => 0,
        201 => 1,
        204 => 2,
        400 => 3,
        404 => 4,
        405 => 5,
        409 => 6,
        413 => 7,
        429 => 8,
        500 => 9,
        503 => 10,
        _ => 11,
    }
}

/// The `Retry-After` rounding: p99 service nanoseconds to whole seconds,
/// rounded up, never below 1s (a 0 p99 — cold service — still hints 1s).
pub fn retry_after_from_p99(p99_ns: u64) -> u64 {
    p99_ns.div_ceil(1_000_000_000).max(1)
}

// ---------------------------------------------------------------------------
// Tail capture
// ---------------------------------------------------------------------------

/// One tail-sampled request: summary plus its full span tree (already
/// converted to [`SpanRecord`]s on the daemon recorder's clock).
#[derive(Debug, Clone)]
pub struct CapturedRequest {
    /// 32-hex trace ID.
    pub trace_hex: String,
    /// Normalized endpoint label.
    pub endpoint: &'static str,
    /// Request method.
    pub method: String,
    /// Response status.
    pub status: u16,
    /// Why it was captured: `"slow"` or `"error"`.
    pub reason: &'static str,
    /// End-to-end duration.
    pub total_ns: u64,
    /// Admission-queue wait.
    pub queue_wait_ns: u64,
    /// `total_ns - queue_wait_ns`.
    pub service_ns: u64,
    /// The `request` root span plus one span per stage.
    pub spans: Vec<SpanRecord>,
}

impl CapturedRequest {
    /// One JSONL line: request summary with the span tree embedded (spans
    /// rendered by the workspace's canonical span serializer).
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self.spans.iter().map(span_json).collect();
        format!(
            "{{\"type\":\"request\",\"trace\":\"{}\",\"endpoint\":\"{}\",\
             \"method\":\"{}\",\"status\":{},\"reason\":\"{}\",\"total_ns\":{},\
             \"queue_wait_ns\":{},\"service_ns\":{},\"spans\":[{}]}}",
            json_escape(&self.trace_hex),
            json_escape(self.endpoint),
            json_escape(&self.method),
            self.status,
            self.reason,
            self.total_ns,
            self.queue_wait_ns,
            self.service_ns,
            spans.join(",")
        )
    }
}

// ---------------------------------------------------------------------------
// Rotating access log
// ---------------------------------------------------------------------------

/// A size-rotated JSONL sink: the live file at `path`, rotated generations
/// at `path.1` (newest) .. `path.keep` (oldest). Rotation happens strictly
/// *between* lines — a line is always written whole to exactly one file
/// before sizes are re-checked — so no rotation can ever split or lose a
/// partially-written line. `max_bytes = 0` disables rotation (the
/// pre-rotation unbounded behavior).
pub struct RotatingLog {
    path: std::path::PathBuf,
    max_bytes: u64,
    keep: usize,
    state: Mutex<RotatingState>,
}

struct RotatingState {
    file: std::fs::File,
    /// Bytes in the live file (seeded from its on-disk size, so an
    /// append-reopened log rotates on schedule).
    written: u64,
    rotations: u64,
}

impl RotatingLog {
    /// Opens (appending) the live file at `path`.
    pub fn open(
        path: impl Into<std::path::PathBuf>,
        max_bytes: u64,
        keep: usize,
    ) -> std::io::Result<RotatingLog> {
        let path = path.into();
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(RotatingLog {
            path,
            max_bytes,
            keep: keep.max(1),
            state: Mutex::new(RotatingState {
                file,
                written,
                rotations: 0,
            }),
        })
    }

    /// Appends one line (newline added here), rotating first when the line
    /// would push a non-empty live file past `max_bytes`. A single line
    /// larger than the threshold still lands whole in its own fresh file.
    pub fn write_line(&self, line: &str) -> std::io::Result<()> {
        let mut st = self.state.lock().expect("access log poisoned");
        let incoming = line.len() as u64 + 1;
        if self.max_bytes > 0 && st.written > 0 && st.written + incoming > self.max_bytes {
            self.rotate(&mut st)?;
        }
        st.file.write_all(line.as_bytes())?;
        st.file.write_all(b"\n")?;
        st.file.flush()?;
        st.written += incoming;
        Ok(())
    }

    /// Shifts `path.k → path.k+1` (dropping the oldest), renames the live
    /// file to `path.1`, and reopens a fresh live file.
    fn rotate(&self, st: &mut RotatingState) -> std::io::Result<()> {
        st.file.flush()?;
        let gen = |k: usize| {
            let mut p = self.path.clone().into_os_string();
            p.push(format!(".{k}"));
            std::path::PathBuf::from(p)
        };
        let _ = std::fs::remove_file(gen(self.keep));
        for k in (1..self.keep).rev() {
            let from = gen(k);
            if from.exists() {
                let _ = std::fs::rename(&from, gen(k + 1));
            }
        }
        std::fs::rename(&self.path, gen(1))?;
        st.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        st.written = 0;
        st.rotations += 1;
        Ok(())
    }

    /// Rotations performed since open.
    pub fn rotations(&self) -> u64 {
        self.state.lock().expect("access log poisoned").rotations
    }
}

// ---------------------------------------------------------------------------
// TracePlane
// ---------------------------------------------------------------------------

/// How many pooled contexts to retain (matches a plausible worker+queue
/// bound; extra concurrent requests fall back to a fresh context).
const POOL_CAP: usize = 64;
/// Per-request stage-span buffer bound.
const SPAN_CAP: usize = 64;

/// The service's request-observability plane. See the module docs.
pub struct TracePlane {
    enabled: bool,
    slow_threshold_ns: u64,
    /// The daemon's recorder when enabled, the disabled one otherwise.
    recorder: Recorder,
    /// `served.requests`, by endpoint, method and status.
    requests: MetricFamily<Counter, 3>,
    /// `served.queue_wait_ns` and `served.service_ns`, by endpoint.
    queue_wait: MetricFamily<Histogram, 1>,
    service: MetricFamily<Histogram, 1>,
    pool: Mutex<Vec<RequestContext>>,
    captured: Mutex<Ring<CapturedRequest>>,
    access_log: Option<RotatingLog>,
    /// Span-ID allocator for captured trees (plane-level, distinct from any
    /// recorder's own IDs).
    span_ids: AtomicU64,
    /// Current `Retry-After` hint in seconds, refreshed on tick.
    retry_after: AtomicU64,
    /// Requests captured (tail-sampled) since start.
    captured_total: AtomicU64,
}

impl TracePlane {
    /// Assembles the plane per `cfg`, recording into `daemon`'s recorder
    /// so the RED series ride the existing `/metrics` exposition.
    pub fn new(cfg: &ServedConfig, daemon: &ObsDaemon) -> Result<TracePlane, ServiceError> {
        let enabled = cfg.tracing;
        let recorder = if enabled {
            daemon.recorder().clone()
        } else {
            Recorder::disabled()
        };
        let access_log = match (&cfg.access_log, enabled) {
            (Some(path), true) => Some(
                RotatingLog::open(path, cfg.access_log_max_bytes, cfg.access_log_keep).map_err(
                    |e| {
                        ServiceError::Degraded(format!(
                            "access log {}: {e}",
                            path.to_string_lossy()
                        ))
                    },
                )?,
            ),
            _ => None,
        };
        Ok(TracePlane {
            enabled,
            slow_threshold_ns: u64::try_from(cfg.slow_threshold.as_nanos()).unwrap_or(u64::MAX),
            requests: MetricFamily::counters(
                &recorder,
                "served.requests",
                [ENDPOINT, ("method", &METHODS), ("status", &STATUSES)],
            ),
            queue_wait: MetricFamily::histograms(&recorder, "served.queue_wait_ns", [ENDPOINT]),
            service: MetricFamily::histograms(&recorder, "served.service_ns", [ENDPOINT]),
            recorder,
            pool: Mutex::new(Vec::with_capacity(POOL_CAP)),
            captured: Mutex::new(Ring::new(cfg.capture_capacity)),
            access_log,
            span_ids: AtomicU64::new(1),
            retry_after: AtomicU64::new(1),
            captured_total: AtomicU64::new(0),
        })
    }

    /// Whether request tracing is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The slow-capture threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// Checks out a context for one request: pooled storage, fresh trace ID
    /// (or the one from a valid `traceparent` header). With tracing off the
    /// context comes back inert — every later call on it is a no-op branch.
    pub fn acquire(&self, traceparent: Option<&str>) -> RequestContext {
        let mut ctx = self
            .pool
            .lock()
            .expect("trace pool poisoned")
            .pop()
            .unwrap_or_else(|| RequestContext::new(SPAN_CAP));
        if self.enabled {
            ctx.reset(traceparent);
        } else {
            ctx.reset_disabled();
        }
        ctx
    }

    /// Returns a context to the pool (dropping it if the pool is full).
    pub fn release(&self, ctx: RequestContext) {
        let mut pool = self.pool.lock().expect("trace pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(ctx);
        }
    }

    /// Finishes the request: stamps the total, records RED metrics, and —
    /// when the request was slow or a server error — captures its span tree.
    /// Returns the total request nanoseconds.
    pub fn complete(
        &self,
        ctx: &mut RequestContext,
        method: &str,
        endpoint: (usize, &'static str),
        status: u16,
    ) -> u64 {
        let total_ns = ctx.finish();
        if !self.enabled {
            return total_ns;
        }
        let (ei, ep) = endpoint;
        let mi = method_index(method);
        let si = status_index(status);
        self.requests.get([ei, mi, si]).incr();
        let queue_wait_ns = ctx.queue_wait_ns();
        let service_ns = total_ns.saturating_sub(queue_wait_ns);
        self.queue_wait.get([ei]).record(queue_wait_ns);
        self.service.get([ei]).record(service_ns);
        if status >= 500 || total_ns > self.slow_threshold_ns {
            self.capture(ctx, method, ep, status, total_ns, queue_wait_ns, service_ns);
        }
        total_ns
    }

    /// The tail path: allocation is fine here, it only runs for slow or
    /// failing requests.
    #[allow(clippy::too_many_arguments)]
    fn capture(
        &self,
        ctx: &RequestContext,
        method: &str,
        endpoint: &'static str,
        status: u16,
        total_ns: u64,
        queue_wait_ns: u64,
        service_ns: u64,
    ) {
        let n_spans = ctx.spans().len() as u64 + 1;
        let first_id = self.span_ids.fetch_add(n_spans, Ordering::Relaxed);
        // Land the tree on the daemon recorder's clock so flight-dump
        // ordering interleaves correctly with session spans and alerts.
        let epoch_offset = self.recorder.elapsed_ns().saturating_sub(total_ns);
        let spans = ctx.to_span_records(first_id, epoch_offset, endpoint);
        for s in &spans {
            self.recorder.record_span(s.clone());
        }
        let cap = CapturedRequest {
            trace_hex: ctx.trace_hex().to_string(),
            endpoint,
            method: method.to_string(),
            status,
            reason: if status >= 500 { "error" } else { "slow" },
            total_ns,
            queue_wait_ns,
            service_ns,
            spans,
        };
        if let Some(log) = &self.access_log {
            let _ = log.write_line(&cap.to_json());
        }
        self.captured
            .lock()
            .expect("capture ring poisoned")
            .push(cap);
        self.captured_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests captured since start.
    pub fn captured_total(&self) -> u64 {
        self.captured_total.load(Ordering::Relaxed)
    }

    /// The retained captured requests, oldest first.
    pub fn captured(&self) -> Vec<CapturedRequest> {
        self.captured
            .lock()
            .expect("capture ring poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// `GET /v1/debug/requests`: the captured ring as JSONL, or as a Chrome
    /// `trace_event` file with `?format=chrome` (open in Perfetto).
    pub fn debug_requests(&self, format: Option<&str>) -> Response {
        let caps = self.captured();
        match format {
            Some("chrome") => {
                let report = mnc_obs::Report {
                    spans: caps.into_iter().flat_map(|c| c.spans).collect(),
                    metrics: MetricSnapshot::default(),
                    accuracy: Vec::new(),
                };
                Response::json(200, report.to_chrome_trace())
            }
            _ => {
                let mut body = String::new();
                for c in &caps {
                    body.push_str(&c.to_json());
                    body.push('\n');
                }
                Response {
                    status: 200,
                    content_type: "application/jsonl; charset=utf-8",
                    headers: Vec::new(),
                    body: body.into_bytes(),
                }
            }
        }
    }

    /// The current `Retry-After` hint for shed requests, in seconds.
    pub fn retry_after_secs(&self) -> u64 {
        if self.enabled {
            self.retry_after.load(Ordering::Relaxed)
        } else {
            1
        }
    }

    /// Tick work (250 ms cadence): refreshes the queue-depth/active gauges
    /// from the admission gate and re-derives the `Retry-After` hint from
    /// the measured `/v1/estimate` p99 service time.
    pub fn tick(&self, gate: &crate::gate::AdmissionGate) {
        if !self.enabled {
            return;
        }
        self.recorder
            .gauge("served.queue_depth")
            .set(i64::try_from(gate.waiting()).unwrap_or(i64::MAX));
        self.recorder
            .gauge("served.active")
            .set(i64::try_from(gate.active()).unwrap_or(i64::MAX));
        let p99 = self
            .service
            .get([0]) // endpoint 0 = /v1/estimate
            .snapshot()
            .quantile(0.99);
        self.retry_after
            .store(retry_after_from_p99(p99), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoint_normalization_bounds_cardinality() {
        assert_eq!(endpoint_of("/v1/estimate"), (0, "/v1/estimate"));
        assert_eq!(endpoint_of("/v1/status"), (1, "/v1/status"));
        assert_eq!(endpoint_of("/v1/matrices"), (2, "/v1/matrices"));
        assert_eq!(endpoint_of("/v1/matrices/A"), (3, "/v1/matrices/{name}"));
        assert_eq!(
            endpoint_of("/v1/matrices/A/sketch"),
            (4, "/v1/matrices/{name}/sketch")
        );
        assert_eq!(endpoint_of("/v1/debug/requests"), (5, "/v1/debug/requests"));
        assert_eq!(endpoint_of("/v1/debug/shadow"), (6, "/v1/debug/shadow"));
        assert_eq!(endpoint_of("/v1/debug/timeline"), (7, "/v1/debug/timeline"));
        assert_eq!(endpoint_of("/metrics"), (8, "/metrics"));
        assert_eq!(endpoint_of("/healthz"), (9, "/healthz"));
        assert_eq!(endpoint_of("/flight"), (10, "/flight"));
        assert_eq!(endpoint_of("/attribution"), (11, "/attribution"));
        assert_eq!(endpoint_of("/nope"), (12, "other"));
        assert_eq!(endpoint_of("/v1/matrices/"), (12, "other"));
        assert_eq!(endpoint_of("/v1/unknown"), (12, "other"));
    }

    #[test]
    fn retry_after_rounding_is_pinned() {
        // The satellite contract: measured p99 rounded *up* to whole
        // seconds, floored at 1s.
        assert_eq!(retry_after_from_p99(0), 1);
        assert_eq!(retry_after_from_p99(1), 1);
        assert_eq!(retry_after_from_p99(999_999_999), 1);
        assert_eq!(retry_after_from_p99(1_000_000_000), 1);
        assert_eq!(retry_after_from_p99(1_000_000_001), 2);
        assert_eq!(retry_after_from_p99(2_500_000_000), 3);
        assert_eq!(retry_after_from_p99(u64::MAX), u64::MAX / 1_000_000_000 + 1);
    }

    #[test]
    fn method_and_status_fall_back_to_other() {
        assert_eq!(method_index("GET"), 0);
        assert_eq!(method_index("POST"), 2);
        assert_eq!(method_index("PATCH"), METHODS.len() - 1);
        assert_eq!(status_index(200), 0);
        assert_eq!(status_index(503), 10);
        assert_eq!(status_index(418), 11);
    }

    #[test]
    fn rotation_never_loses_or_splits_a_line() {
        let dir = std::env::temp_dir().join(format!("mnc-rotlog-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("access.jsonl");
        // ~3 lines of 40 bytes per 128-byte generation; keep enough
        // generations that nothing ages out during the test.
        let log = RotatingLog::open(&path, 128, 50).unwrap();
        let n = 100usize;
        for i in 0..n {
            log.write_line(&format!("{{\"seq\":{i},\"pad\":\"0123456789abcdef\"}}"))
                .unwrap();
        }
        assert!(log.rotations() > 10, "rotation never kicked in");

        // Collect every retained line: live file + all generations.
        let mut lines = Vec::new();
        let mut read = |p: &std::path::Path| {
            if let Ok(body) = std::fs::read_to_string(p) {
                assert!(
                    body.is_empty() || body.ends_with('\n'),
                    "partial trailing line in {p:?}: {body:?}"
                );
                lines.extend(body.lines().map(str::to_string));
            }
        };
        read(&path);
        for k in 1..=50 {
            read(&dir.join(format!("access.jsonl.{k}")));
        }
        // Every written line survives, whole: parseable with its sequence
        // number, each exactly once.
        assert_eq!(lines.len(), n, "lines lost or duplicated by rotation");
        let mut seqs: Vec<u64> = lines
            .iter()
            .map(|l| {
                let v = mnc_obs::json::parse(l).unwrap_or_else(|e| panic!("split line {l:?}: {e}"));
                v.get("seq").and_then(|s| s.as_f64()).unwrap() as u64
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n as u64).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_drops_only_the_oldest_generation() {
        let dir = std::env::temp_dir().join(format!("mnc-rotlog-keep-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.jsonl");
        let log = RotatingLog::open(&path, 16, 2).unwrap();
        for i in 0..10 {
            log.write_line(&format!("{{\"i\":{i}}}")).unwrap();
        }
        // keep=2: exactly the live file plus two generations exist.
        assert!(path.exists());
        assert!(dir.join("a.jsonl.1").exists());
        assert!(dir.join("a.jsonl.2").exists());
        assert!(!dir.join("a.jsonl.3").exists());
        // Newest generation holds strictly newer lines than the older one.
        let g1 = std::fs::read_to_string(dir.join("a.jsonl.1")).unwrap();
        let g2 = std::fs::read_to_string(dir.join("a.jsonl.2")).unwrap();
        let last = |s: &str| {
            s.lines()
                .last()
                .and_then(|l| mnc_obs::json::parse(l).ok())
                .and_then(|v| v.get("i").and_then(|i| i.as_f64()))
                .unwrap() as u64
        };
        assert!(last(&g1) > last(&g2), "generation order inverted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unbounded_log_never_rotates() {
        let dir = std::env::temp_dir().join(format!("mnc-rotlog-unb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("u.jsonl");
        let log = RotatingLog::open(&path, 0, 3).unwrap();
        for i in 0..50 {
            log.write_line(&format!("{{\"i\":{i}}}")).unwrap();
        }
        assert_eq!(log.rotations(), 0);
        assert!(!dir.join("u.jsonl.1").exists());
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn captured_request_json_embeds_spans() {
        let mut ctx = RequestContext::new(8);
        ctx.reset(None);
        let t = ctx.enter("walk");
        ctx.exit(t);
        let total = ctx.finish();
        let spans = ctx.to_span_records(1, 0, "/v1/estimate");
        let cap = CapturedRequest {
            trace_hex: ctx.trace_hex().to_string(),
            endpoint: "/v1/estimate",
            method: "POST".into(),
            status: 200,
            reason: "slow",
            total_ns: total,
            queue_wait_ns: 0,
            service_ns: total,
            spans,
        };
        let line = cap.to_json();
        let v = mnc_obs::json::parse(&line).expect("valid json");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("request"));
        assert_eq!(
            v.get("trace").and_then(|t| t.as_str()),
            Some(ctx.trace_hex())
        );
        let mnc_obs::json::JsonValue::Array(spans) = v.get("spans").unwrap() else {
            panic!("spans must be an array");
        };
        assert_eq!(spans.len(), 2, "root + one stage");
        assert_eq!(
            spans[0].get("name").and_then(|n| n.as_str()),
            Some("request")
        );
    }

    #[test]
    fn a_captured_tree_reaches_the_flight_store_once() {
        let daemon = ObsDaemon::new(mnc_obsd::ObsdConfig::default());
        let cfg = ServedConfig::new(std::env::temp_dir().join("mnc-trace-flight-unused"));
        let plane = TracePlane::new(&cfg, &daemon).expect("plane");
        let spans_pushed = || daemon.recorder().ring_stats().expect("bounded").0.pushed;
        let before = spans_pushed();
        let mut ctx = plane.acquire(None);
        let t = ctx.enter("walk");
        ctx.exit(t);
        plane.complete(&mut ctx, "POST", endpoint_of("/v1/estimate"), 500);
        plane.release(ctx);
        let tree = &plane.captured()[0].spans;
        assert_eq!(tree.len(), 2, "root + one stage");
        assert_eq!(spans_pushed() - before, tree.len() as u64);
        let dump = daemon.flight_jsonl();
        for s in tree {
            let line = span_json(s);
            assert_eq!(dump.lines().filter(|l| *l == line).count(), 1, "{line}");
        }
    }

    #[test]
    fn capture_ring_keeps_the_newest_requests_oldest_first() {
        let daemon = ObsDaemon::new(mnc_obsd::ObsdConfig::default());
        let mut cfg = ServedConfig::new(std::env::temp_dir().join("mnc-trace-capture-unused"));
        cfg.capture_capacity = 4;
        let plane = TracePlane::new(&cfg, &daemon).expect("plane");
        let extra = 3;
        for i in 0..cfg.capture_capacity + extra {
            // A 5xx is always captured; the method tags the request.
            let mut ctx = plane.acquire(None);
            plane.complete(&mut ctx, &format!("M{i}"), endpoint_of("/v1/estimate"), 500);
            plane.release(ctx);
        }
        let methods: Vec<String> = plane.captured().into_iter().map(|c| c.method).collect();
        assert_eq!(methods, ["M3", "M4", "M5", "M6"]);
        assert_eq!(plane.captured_total(), 7);
    }
}
