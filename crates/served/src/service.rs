//! The `/v1` request handler.
//!
//! [`EstimationService`] mounts three planes on one listener:
//!
//! * **data plane** — `PUT/GET/DELETE /v1/matrices...` maintaining the
//!   persistent [`SynopsisCatalog`];
//! * **compute plane** — `POST /v1/estimate`, admission-controlled by an
//!   [`AdmissionGate`] and walked over the catalog's resident synopses;
//! * **health plane** — the PR-5 telemetry endpoints (`/healthz`,
//!   `/metrics`, `/flight`, `/attribution`) served from the embedded
//!   [`ObsDaemon`].
//!
//! Locking discipline: one mutex, around the catalog. An estimate holds it
//! only to resolve its leaves as `Arc` clones of the resident synopses; the
//! (expensive) walk runs lock-free under its admission permit. A PUT or
//! DELETE swaps the catalog's `Arc`, so a walk already running keeps the
//! synopsis it resolved and every later request sees the new binding.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mnc_core::serialize::from_bytes;
use mnc_estimators::{MncEstimator, SparsityEstimator, Synopsis};
use mnc_obs::RequestContext;
use mnc_obsd::{
    telemetry_response, Handler, ObsDaemon, ObsdConfig, Request, Response, SloConfig,
    TimelineConfig,
};

use crate::catalog::{validate_name, SynopsisCatalog};
use crate::error::ServiceError;
use crate::gate::AdmissionGate;
use crate::proto;
use crate::shadow::ShadowPlane;
use crate::sidecar::ShadowSidecar;
use crate::trace::{endpoint_of, TracePlane};
use crate::walk::{self, DagSpec, NodeSpec};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServedConfig {
    /// Directory holding the persistent synopsis catalog.
    pub catalog_dir: PathBuf,
    /// Concurrent compute slots.
    pub workers: usize,
    /// Bounded wait queue beyond the compute slots.
    pub queue: usize,
    /// Flight-ring capacity of the embedded telemetry daemon.
    pub flight_capacity: usize,
    /// Request-scoped tracing plane on/off (trace IDs, RED metrics, tail
    /// capture). Estimates are bit-identical either way.
    pub tracing: bool,
    /// Requests slower than this are tail-captured into the flight recorder,
    /// the `/v1/debug/requests` ring, and the access log.
    pub slow_threshold: Duration,
    /// How many captured requests `/v1/debug/requests` retains.
    pub capture_capacity: usize,
    /// Optional JSONL access log receiving every tail-captured request.
    pub access_log: Option<PathBuf>,
    /// Fraction of `POST /v1/estimate` requests re-run through the
    /// alternate estimators on the shadow plane (0.0 disables the plane
    /// entirely). Primary responses are byte-identical at any rate.
    pub shadow_rate: f64,
    /// Retain raw CSR data inside shadow sidecars, letting the shadow plane
    /// compute exact ground truth for single-op estimates.
    pub retain_csr: bool,
    /// Test hook: hold each admitted estimate's compute slot for this long
    /// before working, making saturation deterministic to provoke.
    pub debug_estimate_delay: Option<Duration>,
    /// Test hook: apply `debug_estimate_delay` only while service uptime is
    /// under this window — the CI SLO e2e injects a degradation that then
    /// clears by itself, exercising hysteresis recovery.
    pub debug_delay_for: Option<Duration>,
    /// Timeline-plane frames retained per resolution; `0` disables the
    /// plane (and the SLO engine riding it).
    pub timeline_capacity: usize,
    /// Availability SLO target in `(0, 1)`; `0.0` disables the objective.
    pub slo_availability: f64,
    /// p99 latency SLO ceiling for `/v1/estimate` service time, in
    /// milliseconds; `0` disables the objective.
    pub slo_latency_ms: u64,
    /// SLO fast alert window, seconds.
    pub slo_fast_window_s: u64,
    /// SLO slow alert window, seconds.
    pub slo_slow_window_s: u64,
    /// Size-based access-log rotation threshold in bytes; `0` disables
    /// rotation (the log grows unbounded, pre-rotation behavior).
    pub access_log_max_bytes: u64,
    /// Rotated access-log files kept (`path.1` .. `path.N`).
    pub access_log_keep: usize,
}

impl ServedConfig {
    /// Defaults rooted at `catalog_dir`: 4 workers, queue of 8, tracing on
    /// with a 250 ms slow threshold.
    pub fn new(catalog_dir: impl Into<PathBuf>) -> Self {
        ServedConfig {
            catalog_dir: catalog_dir.into(),
            workers: 4,
            queue: 8,
            flight_capacity: 1024,
            tracing: true,
            slow_threshold: Duration::from_millis(250),
            capture_capacity: 64,
            access_log: None,
            shadow_rate: 0.0,
            retain_csr: false,
            debug_estimate_delay: None,
            debug_delay_for: None,
            timeline_capacity: 360,
            slo_availability: 0.999,
            slo_latency_ms: 0,
            slo_fast_window_s: 60,
            slo_slow_window_s: 300,
            access_log_max_bytes: 0,
            access_log_keep: 3,
        }
    }
}

#[derive(Debug, Default)]
struct Counters {
    requests: AtomicU64,
    estimates: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

/// The versioned estimation service. Mount with
/// [`mnc_obsd::serve_with`].
pub struct EstimationService {
    /// The one estimator behind every ingest build and every walk. MNC
    /// propagation is a pure function of its inputs, so sharing it across
    /// requests never couples their answers.
    est: MncEstimator,
    catalog: Mutex<SynopsisCatalog>,
    gate: AdmissionGate,
    daemon: ObsDaemon,
    trace: TracePlane,
    shadow: ShadowPlane,
    retain_csr: bool,
    counters: Counters,
    started: Instant,
    delay: Option<Duration>,
    delay_for: Option<Duration>,
}

impl EstimationService {
    /// Opens the catalog and assembles the service.
    pub fn new(cfg: ServedConfig) -> Result<Arc<Self>, ServiceError> {
        let catalog = SynopsisCatalog::open(&cfg.catalog_dir)?;
        let daemon = ObsDaemon::new(ObsdConfig {
            flight_capacity: cfg.flight_capacity,
            timeline: TimelineConfig {
                enabled: cfg.timeline_capacity > 0,
                capacity: cfg.timeline_capacity.max(1),
                slo: SloConfig {
                    availability_target: cfg.slo_availability,
                    latency_p99_ms: cfg.slo_latency_ms,
                    fast_window_s: cfg.slo_fast_window_s.max(1),
                    slow_window_s: cfg.slo_slow_window_s.max(cfg.slo_fast_window_s).max(1),
                    ..SloConfig::default()
                },
                ..TimelineConfig::default()
            },
            ..ObsdConfig::default()
        });
        let trace = TracePlane::new(&cfg, &daemon)?;
        let shadow = ShadowPlane::new(&cfg, &daemon);
        Ok(Arc::new(EstimationService {
            est: MncEstimator::new(),
            catalog: Mutex::new(catalog),
            gate: AdmissionGate::new(cfg.workers, cfg.queue),
            daemon,
            trace,
            shadow,
            retain_csr: cfg.retain_csr,
            counters: Counters::default(),
            started: Instant::now(),
            delay: cfg.debug_estimate_delay,
            delay_for: cfg.debug_delay_for,
        }))
    }

    /// The embedded telemetry daemon (for panic hooks, external installs).
    pub fn daemon(&self) -> &ObsDaemon {
        &self.daemon
    }

    /// The request-scoped tracing plane (RED metrics, tail capture).
    pub fn trace_plane(&self) -> &TracePlane {
        &self.trace
    }

    /// The shadow estimation plane (alternate-estimator divergence).
    pub fn shadow_plane(&self) -> &ShadowPlane {
        &self.shadow
    }

    /// Sketches built from raw matrix data since the catalog was opened —
    /// the restart test's star witness: after a bounce it must stay 0.
    pub fn rebuilds(&self) -> u64 {
        self.catalog.lock().expect("catalog poisoned").rebuilds()
    }

    fn route(&self, req: &Request, ctx: &mut RequestContext) -> Result<Response, ServiceError> {
        // Health plane first: these paths predate /v1 and stay unversioned
        // so existing telemetry scrapers keep working.
        if req.method == "GET" {
            if let Some(resp) = telemetry_response(&self.daemon, req) {
                return Ok(resp);
            }
        }

        let rest = req.path.strip_prefix("/v1").ok_or(ServiceError::NotFound)?;
        match (req.method.as_str(), rest) {
            ("GET", "/status") => Ok(self.status()),
            ("GET", "/matrices") => Ok(self.list_matrices()),
            ("GET", "/debug/requests") => Ok(self.trace.debug_requests(req.query_param("format"))),
            ("GET", "/debug/shadow") => Ok(self.shadow.debug_shadow()),
            ("POST", "/estimate") => self.estimate(&req.body, ctx),
            (method, path) => {
                let name = path
                    .strip_prefix("/matrices/")
                    .ok_or(ServiceError::NotFound)?;
                if let Some(stem) = name.strip_suffix("/sketch") {
                    return match method {
                        "GET" => self.export_sketch(stem),
                        _ => Err(ServiceError::MethodNotAllowed),
                    };
                }
                match method {
                    "PUT" => self.put_matrix(name, req, ctx),
                    "GET" => self.get_matrix(name),
                    "DELETE" => self.delete_matrix(name),
                    _ => Err(ServiceError::MethodNotAllowed),
                }
            }
        }
    }

    fn status(&self) -> Response {
        let (n_matrices, rebuilds, quarantined, sidecars) = {
            let cat = self.catalog.lock().expect("catalog poisoned");
            (
                cat.len(),
                cat.rebuilds(),
                cat.quarantined().len(),
                cat.shadow_count(),
            )
        };
        let tl = self.daemon.timeline();
        let tstats = tl.stats();
        let body = format!(
            "{{\"uptime_s\":{},\"requests\":{},\"estimates\":{},\
             \"rejected\":{},\
             \"errors\":{},\"matrices\":{},\"rebuilds\":{},\"quarantined\":{},\
             \"workers\":{},\"queue\":{},\"active\":{},\
             \"tracing\":{{\"enabled\":{},\"captured\":{},\"retry_after_secs\":{}}},\
             \"shadow\":{{\"enabled\":{},\"sampled\":{},\"completed\":{},\
             \"dropped\":{},\"queue_depth\":{},\"sidecars\":{}}},\
             \"timeline\":{{\"enabled\":{},\"capacity\":{},\"series\":{},\
             \"dropped_series\":{},\"samples\":{},\"contended_samples\":{},\
             \"frames\":{{\"1s\":{},\"10s\":{},\"60s\":{}}}}},\
             \"slo\":{}}}",
            self.started.elapsed().as_secs(),
            self.counters.requests.load(Ordering::Relaxed),
            self.counters.estimates.load(Ordering::Relaxed),
            self.counters.rejected.load(Ordering::Relaxed),
            self.counters.errors.load(Ordering::Relaxed),
            n_matrices,
            rebuilds,
            quarantined,
            self.gate.workers(),
            self.gate.queue(),
            self.gate.active(),
            self.trace.enabled(),
            self.trace.captured_total(),
            self.trace.retry_after_secs(),
            self.shadow.enabled(),
            self.shadow.sampled(),
            self.shadow.completed(),
            self.shadow.dropped(),
            self.shadow.queue_depth(),
            sidecars,
            tstats.enabled,
            tstats.capacity,
            tstats.series,
            tstats.dropped_series,
            tstats.samples,
            tstats.contended_samples,
            tstats.frames[0],
            tstats.frames[1],
            tstats.frames[2],
            tl.slo_json(),
        );
        Response::json(200, body)
    }

    fn list_matrices(&self) -> Response {
        let cat = self.catalog.lock().expect("catalog poisoned");
        let items: Vec<String> = cat
            .iter()
            .map(|(name, e)| proto::matrix_meta_json(name, e.sketch(), e.file_bytes))
            .collect();
        Response::json(
            200,
            format!(
                "{{\"matrices\":[{}],\"rebuilds\":{}}}",
                items.join(","),
                cat.rebuilds()
            ),
        )
    }

    fn put_matrix(
        &self,
        name: &str,
        req: &Request,
        ctx: &mut RequestContext,
    ) -> Result<Response, ServiceError> {
        validate_name(name)?;
        let is_binary = req
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("application/octet-stream"));
        let (sketch, sidecar): (_, Option<ShadowSidecar>) = if is_binary {
            // Pre-built sketch: decode, never build. No raw data means no
            // shadow sidecar — the shadow plane skips these leaves.
            (Arc::new(from_bytes(&req.body)?), None)
        } else {
            // Raw CSR: building a sketch is compute — it goes through the
            // admission gate like any estimate.
            let t = ctx.enter("parse");
            let matrix = Arc::new(proto::parse_csr_body(&req.body)?);
            let t = ctx.transition(t, "admission");
            let permit = self.admit()?;
            ctx.set_queue_wait(permit.queue_wait_ns());
            let t = ctx.transition(t, "build");
            let syn = self.est.build(&matrix)?;
            ctx.exit(t);
            drop(permit);
            let Synopsis::Mnc(s) = syn else {
                return Err(ServiceError::Estimator(mnc_core::EstimatorError::Internal(
                    "MNC estimator built a foreign synopsis".into(),
                )));
            };
            // Alternate synopses are always built at ingest time —
            // whatever today's shadow rate, a later restart with shadowing
            // enabled must never rebuild them.
            let sidecar = ShadowSidecar::build(&matrix, self.retain_csr);
            (Arc::new(s.sketch), Some(sidecar))
        };
        let body = {
            let mut cat = self.catalog.lock().expect("catalog poisoned");
            let entry = match sidecar {
                Some(sc) => cat.put_with_shadow(name, sketch, sc)?,
                None => cat.put(name, sketch, false)?,
            };
            proto::matrix_meta_json(name, entry.sketch(), entry.file_bytes)
        };
        Ok(Response::json(201, body))
    }

    fn get_matrix(&self, name: &str) -> Result<Response, ServiceError> {
        let cat = self.catalog.lock().expect("catalog poisoned");
        let entry = cat
            .get(name)
            .ok_or_else(|| ServiceError::UnknownMatrix(name.to_string()))?;
        Ok(Response::json(
            200,
            proto::matrix_meta_json(name, entry.sketch(), entry.file_bytes),
        ))
    }

    fn export_sketch(&self, name: &str) -> Result<Response, ServiceError> {
        let cat = self.catalog.lock().expect("catalog poisoned");
        let bytes = cat
            .bytes(name)
            .ok_or_else(|| ServiceError::UnknownMatrix(name.to_string()))?;
        Ok(Response {
            status: 200,
            content_type: "application/octet-stream",
            headers: Vec::new(),
            body: bytes,
        })
    }

    fn delete_matrix(&self, name: &str) -> Result<Response, ServiceError> {
        let removed = self
            .catalog
            .lock()
            .expect("catalog poisoned")
            .remove(name)?;
        if !removed {
            return Err(ServiceError::UnknownMatrix(name.to_string()));
        }
        Ok(Response::text(204, ""))
    }

    fn estimate(&self, body: &[u8], ctx: &mut RequestContext) -> Result<Response, ServiceError> {
        // Stage boundaries use `transition`, not exit+enter pairs: the
        // stages are contiguous, so one clock read serves both sides.
        let t = ctx.enter("parse");
        let req = proto::parse_estimate_request(body)?;

        // Admission before any compute. The permit spans leaf resolution
        // and the walk.
        let mut t = ctx.transition(t, "admission");
        let permit = self.admit()?;
        ctx.set_queue_wait(permit.queue_wait_ns());
        if let Some(delay) = self.delay {
            // A delay window (debug_delay_for) makes the injected
            // degradation clear by itself — the SLO e2e's recovery half.
            if self.delay_for.is_none_or(|w| self.started.elapsed() < w) {
                t = ctx.transition(t, "debug_delay");
                std::thread::sleep(delay);
            }
        }

        let t = ctx.transition(t, "catalog");
        let leaves = self.resolve_leaves(&req.dag)?;
        // The walk itself runs without any service lock.
        let t = ctx.transition(t, "walk");
        let out = walk::estimate_dag(&self.est, &req.dag, &leaves, req.include_sketch)?;
        self.counters.estimates.fetch_add(1, Ordering::Relaxed);
        let t = ctx.transition(t, "serialize");
        let resp = Response::json(200, proto::estimate_json(&out));
        ctx.exit(t);
        // Shadow sampling happens strictly after the response body exists:
        // the decision is one atomic + hash (zero-alloc, see the plane
        // docs), and even a sampled request only clones inputs for the
        // background queue — the bytes above are already final.
        if self.shadow.should_sample() {
            self.shadow
                .submit(ctx.trace_hex(), &req.dag, out.sparsity, &leaves, || {
                    let cat = self.catalog.lock().expect("catalog poisoned");
                    req.dag
                        .nodes
                        .iter()
                        .map(|n| match n {
                            NodeSpec::Leaf(name) => cat.shadow(name),
                            NodeSpec::Op { .. } => None,
                        })
                        .collect()
                });
        }
        Ok(resp)
    }

    /// Per node, the resident synopsis of each leaf (an `Arc` clone of the
    /// catalog's own, never a copy) — taken under the catalog lock only.
    fn resolve_leaves(&self, dag: &DagSpec) -> Result<Vec<Option<Arc<Synopsis>>>, ServiceError> {
        let cat = self.catalog.lock().expect("catalog poisoned");
        dag.nodes
            .iter()
            .map(|node| match node {
                NodeSpec::Leaf(name) => cat
                    .synopsis(name)
                    .map(Some)
                    .ok_or_else(|| ServiceError::UnknownMatrix(name.clone())),
                NodeSpec::Op { .. } => Ok(None),
            })
            .collect()
    }

    fn admit(&self) -> Result<crate::gate::Permit<'_>, ServiceError> {
        self.gate
            .admit(self.trace.retry_after_secs())
            .inspect_err(|_| {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            })
    }
}

impl Handler for EstimationService {
    fn handle(&self, req: &Request) -> Response {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let mut ctx = self.trace.acquire(req.header("traceparent"));
        let endpoint = endpoint_of(&req.path);
        let mut resp = self.route(req, &mut ctx).unwrap_or_else(|e| {
            if e.status() >= 400 && e.status() != 429 {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
            }
            e.into_response()
        });
        self.trace
            .complete(&mut ctx, &req.method, endpoint, resp.status);
        if self.trace.enabled() {
            // Every response names its trace, whether client-supplied via
            // `traceparent` or freshly generated.
            resp = resp.with_header("x-mnc-trace-id", ctx.trace_hex().to_string());
        }
        self.trace.release(ctx);
        resp
    }

    fn tick(&self) {
        self.trace.tick(&self.gate);
        self.daemon.refresh();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_core::{MncSketch, OpKind};
    use mnc_matrix::gen;
    use rand::SeedableRng;

    /// The walk receives the catalog's own synopsis: resolving a leaf copies
    /// no sketch, on the first request or any later one.
    #[test]
    fn walk_leaves_are_the_catalogs_resident_synopses() {
        let dir = std::env::temp_dir().join(format!("mnc-service-leaves-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let svc = EstimationService::new(ServedConfig::new(&dir)).unwrap();
        let mut r = rand::rngs::StdRng::seed_from_u64(5);
        let x = MncSketch::build(&gen::rand_uniform(&mut r, 20, 20, 0.2));
        let mut cat = svc.catalog.lock().unwrap();
        cat.put("X", Arc::new(x), false).unwrap();
        let resident = cat.synopsis("X").unwrap();
        drop(cat);

        let leaf = || NodeSpec::Leaf("X".into());
        let dag = DagSpec {
            nodes: vec![
                leaf(),
                leaf(),
                NodeSpec::Op {
                    op: OpKind::MatMul,
                    inputs: vec![0, 1],
                },
            ],
            root: 2,
        };
        for _ in 0..2 {
            let leaves = svc.resolve_leaves(&dag).unwrap();
            for syn in &leaves[..2] {
                assert!(Arc::ptr_eq(syn.as_ref().unwrap(), &resident));
            }
            assert!(leaves[2].is_none());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
