//! The shadow estimation plane.
//!
//! On a sampled fraction of `POST /v1/estimate` requests ([`--shadow-rate`]),
//! the same op/DAG is re-run through **alternate estimators** — `MetaAC`
//! (free, derived from the MNC sketch's own metadata), `DMap`, and `Bitset`
//! (from the [`ShadowSidecar`] synopses persisted at CSR-ingest time) — and
//! the disagreement between each alternate and the primary MNC answer is
//! recorded as **cross-estimator divergence**. When the catalog retains raw
//! CSR data (`--retain-csr`) and the request is shallow enough to evaluate
//! exactly (a leaf root, or one op over leaf inputs), the plane also
//! computes the **true** output sparsity and records genuine relative error
//! for every estimator, primary included.
//!
//! Isolation contract (CI-gated):
//!
//! * the request thread only ever runs the **sampling decision** — one
//!   atomic fetch-add and a SplitMix64 hash, zero allocations (proven under
//!   `alloc-track` in `tests/shadow_alloc.rs`); job construction happens
//!   only for sampled requests, strictly *after* the response body exists;
//! * shadow work runs on a small background worker pool fed by a bounded
//!   **drop-on-full** queue — a slow shadow estimator sheds shadow jobs,
//!   never delays a response;
//! * primary responses are byte-identical with shadowing on vs off: the
//!   plane re-runs alternates against its *own* estimator instances and
//!   never touches the request's estimator.
//!
//! Results flow three ways:
//!
//! 1. [`AccuracyRecord`]s into the daemon's recorder, whose accuracy ring
//!    is the flight store behind `/flight` and whose sink is the
//!    **[`DriftMonitor`]** — the live drift series the ROADMAP's
//!    adaptive-routing item needs;
//! 2. a `shadow.*` scoreboard on `/metrics`, in the same recorder's
//!    registry (runs/errors per estimator, log₂ divergence histograms per
//!    `(estimator, op)`, shadow latency, live queue depth);
//! 3. a bounded worst-divergence exemplar ring behind
//!    `GET /v1/debug/shadow` (JSONL, worst first).
//!
//! [`--shadow-rate`]: crate::service::ServedConfig::shadow_rate
//! [`--retain-csr`]: crate::service::ServedConfig::retain_csr
//! [`DriftMonitor`]: mnc_obsd::DriftMonitor

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use mnc_core::{splitmix64, OpKind};
use mnc_estimators::meta::MetaSynopsis;
use mnc_estimators::{BitsetEstimator, DensityMapEstimator, MetaAcEstimator, Synopsis};
use mnc_matrix::{ops, CsrMatrix};
use mnc_obs::accuracy::symmetric_relative_error;
use mnc_obs::export::json_escape;
use mnc_obs::{AccuracyRecord, Counter, Gauge, Histogram, MetricFamily, Recorder};
use mnc_obsd::{ObsDaemon, Response};

use crate::service::ServedConfig;
use crate::sidecar::ShadowSidecar;
use crate::walk::{self, DagSpec, NodeSpec};

/// The alternate estimators the plane runs, in run order.
pub const SHADOW_ESTIMATORS: [&str; 3] = ["MetaAC", "DMap", "Bitset"];

/// Normalized root-op labels (the `proto` op vocabulary plus `leaf`) —
/// bounded cardinality for the per-`(estimator, op)` metric grid.
const OPS: [&str; 14] = [
    "matmul",
    "ew_add",
    "ew_mul",
    "ew_max",
    "ew_min",
    "transpose",
    "reshape",
    "diag_v2m",
    "diag_m2v",
    "rbind",
    "cbind",
    "neq0",
    "eq0",
    "leaf",
];

/// The estimator label of the shadow scoreboard's series.
const ESTIMATOR: mnc_obs::family::Label = ("estimator", &SHADOW_ESTIMATORS);

/// Bounded shadow-job queue: submissions beyond it are dropped (and
/// counted), never blocked on.
const QUEUE_CAP: usize = 64;
/// Background workers draining the queue.
const WORKERS: usize = 2;
/// Worst-divergence exemplars retained for `GET /v1/debug/shadow`.
const EXEMPLAR_CAP: usize = 32;

/// Maps a root op to its grid index and label.
fn op_index(dag: &DagSpec) -> usize {
    match &dag.nodes[dag.root] {
        NodeSpec::Leaf(_) => 13,
        NodeSpec::Op { op, .. } => match op {
            OpKind::MatMul => 0,
            OpKind::EwAdd => 1,
            OpKind::EwMul => 2,
            OpKind::EwMax => 3,
            OpKind::EwMin => 4,
            OpKind::Transpose => 5,
            OpKind::Reshape { .. } => 6,
            OpKind::DiagV2M => 7,
            OpKind::DiagM2V => 8,
            OpKind::Rbind => 9,
            OpKind::Cbind => 10,
            OpKind::Neq0 => 11,
            OpKind::Eq0 => 12,
        },
    }
}

/// One sampled request, cloned off the hot path for background re-runs.
struct ShadowJob {
    trace_hex: String,
    dag: DagSpec,
    /// The primary (MNC) answer the response carried.
    primary: f64,
    /// Per-node resident MNC synopses for leaf nodes, shared with the
    /// catalog (MetaAC derives from these).
    leaves: Vec<Option<Arc<Synopsis>>>,
    /// Per-node shadow sidecars for leaf nodes (DMap/Bitset synopses,
    /// optionally retained CSR). Absent for octet-stream ingests.
    sidecars: Vec<Option<Arc<ShadowSidecar>>>,
}

/// One worst-divergence exemplar served by `GET /v1/debug/shadow`.
#[derive(Debug, Clone)]
pub struct ShadowExemplar {
    /// 32-hex trace ID of the sampled request.
    pub trace_hex: String,
    /// Normalized root-op label.
    pub op: &'static str,
    /// The primary (MNC) sparsity the client received.
    pub primary: f64,
    /// `(estimator, sparsity)` for every alternate that ran.
    pub estimates: Vec<(&'static str, f64)>,
    /// Worst symmetric divergence across the alternates.
    pub divergence: f64,
    /// Exact output sparsity, when ground truth was computable.
    pub truth: Option<f64>,
}

impl ShadowExemplar {
    /// One JSONL line.
    pub fn to_json(&self) -> String {
        let est: Vec<String> = self
            .estimates
            .iter()
            .map(|(n, s)| format!("\"{}\":{}", json_escape(n), fmt_f64(*s)))
            .collect();
        let truth = match self.truth {
            Some(t) => format!(",\"truth\":{}", fmt_f64(t)),
            None => String::new(),
        };
        format!(
            "{{\"type\":\"shadow\",\"trace\":\"{}\",\"op\":\"{}\",\"primary\":{},\
             \"estimates\":{{{}}},\"divergence\":{}{}}}",
            json_escape(&self.trace_hex),
            self.op,
            fmt_f64(self.primary),
            est.join(","),
            fmt_f64(self.divergence),
            truth
        )
    }
}

/// Shortest-round-trip float formatting that stays valid JSON (`inf` has no
/// JSON literal; divergence against a zero estimate is clamped huge).
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains("inf") {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "1e308".to_string()
    }
}

/// State shared between the submitting side and the workers.
struct ShadowShared {
    /// The daemon's recorder when enabled, the disabled one otherwise.
    recorder: Recorder,
    /// Completed alternate runs, by estimator.
    runs: MetricFamily<Counter, 1>,
    /// Failed alternate runs, by estimator.
    errors: MetricFamily<Counter, 1>,
    /// Shadow-run latency (log₂ ns buckets), by estimator.
    latency: MetricFamily<Histogram, 1>,
    /// Symmetric divergence in milli-units (log₂ buckets; perfect
    /// agreement = 1000), by estimator and op.
    divergence: MetricFamily<Histogram, 2>,
    sampled: Counter,
    completed: Counter,
    dropped: Counter,
    queue_gauge: Gauge,
    /// Live queue depth (the gauge mirrors it; this is the status() source).
    depth: AtomicU64,
    sampled_n: AtomicU64,
    completed_n: AtomicU64,
    dropped_n: AtomicU64,
    /// Worst-divergence exemplars, sorted worst-first, truncated to cap.
    exemplars: Mutex<Vec<ShadowExemplar>>,
}

/// The service's shadow-estimation plane. See the module docs.
pub struct ShadowPlane {
    enabled: bool,
    /// Sampling threshold in SplitMix64 output space: sample when
    /// `hash <= threshold` (`u64::MAX` at rate 1.0 — always).
    threshold: u64,
    sample_clock: AtomicU64,
    shared: Arc<ShadowShared>,
    tx: Option<SyncSender<ShadowJob>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShadowPlane {
    /// Assembles the plane per `cfg`, recording into `daemon`'s recorder.
    /// At rate 0 the plane is fully inert: a disabled recorder, no
    /// workers, and the sampling decision is one branch.
    pub fn new(cfg: &ServedConfig, daemon: &ObsDaemon) -> ShadowPlane {
        let rate = cfg.shadow_rate.clamp(0.0, 1.0);
        let enabled = rate > 0.0;
        let recorder = if enabled {
            daemon.recorder().clone()
        } else {
            Recorder::disabled()
        };
        let threshold = if rate >= 1.0 {
            u64::MAX
        } else {
            (rate * (u64::MAX as f64)) as u64
        };
        // The scoreboard counters are pre-registered so `mnc_shadow_*`
        // series exist on `/metrics` from the first scrape.
        let shared = Arc::new(ShadowShared {
            sampled: recorder.counter("shadow.sampled"),
            completed: recorder.counter("shadow.completed"),
            dropped: recorder.counter("shadow.dropped"),
            queue_gauge: recorder.gauge("shadow.queue_depth"),
            runs: MetricFamily::counters(&recorder, "shadow.runs", [ESTIMATOR]),
            errors: MetricFamily::counters(&recorder, "shadow.errors", [ESTIMATOR]),
            latency: MetricFamily::histograms(&recorder, "shadow.latency_ns", [ESTIMATOR]),
            divergence: MetricFamily::histograms(
                &recorder,
                "shadow.divergence_milli",
                [ESTIMATOR, ("op", &OPS)],
            ),
            recorder,
            depth: AtomicU64::new(0),
            sampled_n: AtomicU64::new(0),
            completed_n: AtomicU64::new(0),
            dropped_n: AtomicU64::new(0),
            exemplars: Mutex::new(Vec::new()),
        });
        let (tx, workers) = if enabled {
            let (tx, rx) = sync_channel::<ShadowJob>(QUEUE_CAP);
            let rx = Arc::new(Mutex::new(rx));
            let workers: Vec<JoinHandle<()>> = (0..WORKERS)
                .map(|i| {
                    let rx = Arc::clone(&rx);
                    let shared = Arc::clone(&shared);
                    std::thread::Builder::new()
                        .name(format!("mnc-shadow-{i}"))
                        .spawn(move || worker_loop(&rx, &shared))
                        .expect("spawn shadow worker")
                })
                .collect();
            (Some(tx), workers)
        } else {
            (None, Vec::new())
        };
        ShadowPlane {
            enabled,
            threshold,
            sample_clock: AtomicU64::new(0),
            shared,
            tx,
            workers,
        }
    }

    /// Whether shadowing is on (rate > 0).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The hot-path sampling decision: one atomic fetch-add plus a
    /// SplitMix64 hash — **no allocation, no lock, no clock** (proven in
    /// `tests/shadow_alloc.rs`). At rate 0 it is a single branch.
    #[inline]
    pub fn should_sample(&self) -> bool {
        if !self.enabled {
            return false;
        }
        let n = self.sample_clock.fetch_add(1, Ordering::Relaxed);
        splitmix64(n) <= self.threshold
    }

    /// Builds and enqueues a shadow job for an already-answered request.
    /// Runs only on the sampled path — allocation is fine here. `sidecars`
    /// is lazy so the catalog lock is only retaken when actually sampled.
    pub fn submit(
        &self,
        trace_hex: &str,
        dag: &DagSpec,
        primary: f64,
        leaves: &[Option<Arc<Synopsis>>],
        sidecars: impl FnOnce() -> Vec<Option<Arc<ShadowSidecar>>>,
    ) {
        let Some(tx) = &self.tx else { return };
        self.shared.sampled.incr();
        self.shared.sampled_n.fetch_add(1, Ordering::Relaxed);
        let job = ShadowJob {
            trace_hex: trace_hex.to_string(),
            dag: dag.clone(),
            primary,
            leaves: leaves.to_vec(),
            sidecars: sidecars(),
        };
        // Depth goes up before the send: a worker may dequeue (and
        // decrement) the instant `try_send` returns, so incrementing after
        // would race the counter below zero.
        let d = self.shared.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match tx.try_send(job) {
            Ok(()) => {
                self.shared
                    .queue_gauge
                    .set(i64::try_from(d).unwrap_or(i64::MAX));
            }
            Err(TrySendError::Full(_)) | Err(TrySendError::Disconnected(_)) => {
                self.shared.depth.fetch_sub(1, Ordering::Relaxed);
                self.shared.dropped.incr();
                self.shared.dropped_n.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Requests sampled for shadowing since start.
    pub fn sampled(&self) -> u64 {
        self.shared.sampled_n.load(Ordering::Relaxed)
    }

    /// Shadow jobs fully processed since start.
    pub fn completed(&self) -> u64 {
        self.shared.completed_n.load(Ordering::Relaxed)
    }

    /// Shadow jobs dropped to backpressure since start.
    pub fn dropped(&self) -> u64 {
        self.shared.dropped_n.load(Ordering::Relaxed)
    }

    /// Live shadow-queue depth.
    pub fn queue_depth(&self) -> u64 {
        self.shared.depth.load(Ordering::Relaxed)
    }

    /// The retained worst-divergence exemplars, worst first.
    pub fn exemplars(&self) -> Vec<ShadowExemplar> {
        self.shared
            .exemplars
            .lock()
            .expect("exemplar ring poisoned")
            .clone()
    }

    /// `GET /v1/debug/shadow`: the exemplar ring as JSONL, worst first.
    pub fn debug_shadow(&self) -> Response {
        let mut body = String::new();
        for e in self.exemplars() {
            body.push_str(&e.to_json());
            body.push('\n');
        }
        Response {
            status: 200,
            content_type: "application/jsonl; charset=utf-8",
            headers: Vec::new(),
            body: body.into_bytes(),
        }
    }

    /// Blocks until every queued job has been processed (test support; the
    /// production path never waits on the shadow plane).
    pub fn drain(&self) {
        while self.queue_depth() > 0 || self.sampled() > self.completed() + self.dropped() {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
}

impl Drop for ShadowPlane {
    fn drop(&mut self) {
        // Closing the channel ends the worker loops; join for a clean exit.
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<ShadowJob>>, shared: &ShadowShared) {
    loop {
        // Holding the lock across the blocking recv is deliberate: the
        // other worker waits on the mutex instead of the channel, and takes
        // over the moment this one leaves to process a job.
        let job = match rx.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let d = shared
            .depth
            .fetch_sub(1, Ordering::Relaxed)
            .saturating_sub(1);
        shared.queue_gauge.set(i64::try_from(d).unwrap_or(i64::MAX));
        process(shared, job);
        shared.completed.incr();
        shared.completed_n.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs every alternate estimator over one sampled request and records the
/// divergence (and, when ground truth is computable, the true error).
fn process(shared: &ShadowShared, job: ShadowJob) {
    let oi = op_index(&job.dag);
    let truth = exact_truth(&job);
    let mut estimates: Vec<(&'static str, f64)> = Vec::new();
    let mut worst = 1.0_f64;

    for (ei, name) in SHADOW_ESTIMATORS.iter().enumerate() {
        let Some(leaves) = alternate_leaves(&job, ei) else {
            continue; // no sidecar for some leaf (octet-stream ingest)
        };
        let start = Instant::now();
        let outcome = match ei {
            0 => walk::estimate_dag(&MetaAcEstimator, &job.dag, &leaves, false),
            1 => walk::estimate_dag(&DensityMapEstimator::default(), &job.dag, &leaves, false),
            _ => walk::estimate_dag(&BitsetEstimator::default(), &job.dag, &leaves, false),
        };
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        match outcome {
            Ok(out) => {
                shared.runs.get([ei]).incr();
                shared.latency.get([ei]).record(elapsed);
                let div = symmetric_relative_error(job.primary, out.sparsity);
                shared
                    .divergence
                    .get([ei, oi])
                    .record(divergence_milli(div));
                worst = worst.max(div);
                estimates.push((name, out.sparsity));
                // Divergence feeds the accuracy channel with the primary as
                // the reference — the drift monitor watches estimator
                // *disagreement* continuously, truth or not.
                shared.recorder.record_accuracy(AccuracyRecord::new(
                    "shadow-divergence",
                    OPS[oi],
                    *name,
                    out.sparsity,
                    job.primary,
                ));
                if let Some(t) = truth {
                    shared.recorder.record_accuracy(AccuracyRecord::new(
                        "shadow-truth",
                        OPS[oi],
                        *name,
                        out.sparsity,
                        t,
                    ));
                }
            }
            Err(_) => {
                shared.errors.get([ei]).incr();
            }
        }
    }
    if let Some(t) = truth {
        // The primary gets a true-error record too: the whole point of the
        // retained-CSR path is validating MNC itself, not just alternates.
        shared.recorder.record_accuracy(AccuracyRecord::new(
            "shadow-truth",
            OPS[oi],
            "MNC",
            job.primary,
            t,
        ));
    }

    let exemplar = ShadowExemplar {
        trace_hex: job.trace_hex,
        op: OPS[oi],
        primary: job.primary,
        estimates,
        divergence: worst,
        truth,
    };
    let mut ring = shared.exemplars.lock().expect("exemplar ring poisoned");
    let pos = ring
        .binary_search_by(|e| {
            exemplar
                .divergence
                .partial_cmp(&e.divergence)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .unwrap_or_else(|p| p);
    if pos < EXEMPLAR_CAP {
        ring.insert(pos, exemplar);
        ring.truncate(EXEMPLAR_CAP);
    }
}

/// Symmetric divergence in milli-units for the log₂ histograms: perfect
/// agreement records 1000; an infinite divergence (one side exactly zero)
/// saturates instead of poisoning the histogram.
fn divergence_milli(div: f64) -> u64 {
    if div.is_finite() {
        (div * 1000.0).min(1e18) as u64
    } else {
        u64::MAX
    }
}

/// Builds the per-node leaf synopses for alternate estimator `ei`, or
/// `None` when a required sidecar is missing.
fn alternate_leaves(job: &ShadowJob, ei: usize) -> Option<Vec<Option<Arc<Synopsis>>>> {
    let mut leaves: Vec<Option<Arc<Synopsis>>> = vec![None; job.dag.nodes.len()];
    for (i, node) in job.dag.nodes.iter().enumerate() {
        if !matches!(node, NodeSpec::Leaf(_)) {
            continue;
        }
        let syn = match ei {
            // MetaAC is free: shape + nnz straight off the MNC sketch.
            0 => {
                let mnc = job.leaves[i].as_ref()?;
                let (nrows, ncols) = mnc.shape();
                Synopsis::Meta(MetaSynopsis {
                    nrows,
                    ncols,
                    nnz: mnc.nnz() as f64,
                })
            }
            1 => Synopsis::DensityMap(job.sidecars[i].as_ref()?.dm.clone()),
            _ => Synopsis::Bitset(job.sidecars[i].as_ref()?.bitset.clone()),
        };
        leaves[i] = Some(Arc::new(syn));
    }
    Some(leaves)
}

/// Exact output sparsity, when computable: every leaf must carry retained
/// CSR, and the root must be a leaf or a single op whose inputs are all
/// leaves (the opportunistic single-op contract — deep DAGs are estimated,
/// not recomputed).
fn exact_truth(job: &ShadowJob) -> Option<f64> {
    let csr_of = |i: usize| -> Option<&Arc<CsrMatrix>> {
        match &job.dag.nodes[i] {
            NodeSpec::Leaf(_) => job.sidecars[i].as_ref()?.csr.as_ref(),
            NodeSpec::Op { .. } => None,
        }
    };
    match &job.dag.nodes[job.dag.root] {
        NodeSpec::Leaf(_) => Some(csr_of(job.dag.root)?.sparsity()),
        NodeSpec::Op { op, inputs } => {
            let a = csr_of(*inputs.first()?)?;
            let out = match op {
                // Pattern-exact product: the estimators' ground truth is the
                // non-zero structure, value cancellation excluded (paper §6).
                OpKind::MatMul => ops::bool_matmul(a, csr_of(inputs[1])?).ok()?,
                OpKind::EwAdd => ops::ew_add(a, csr_of(inputs[1])?).ok()?,
                OpKind::EwMul => ops::ew_mul(a, csr_of(inputs[1])?).ok()?,
                OpKind::EwMax => ops::ew_max(a, csr_of(inputs[1])?).ok()?,
                OpKind::EwMin => ops::ew_min(a, csr_of(inputs[1])?).ok()?,
                OpKind::Transpose => a.transpose(),
                OpKind::Reshape { rows, cols } => ops::reshape(a, *rows, *cols).ok()?,
                OpKind::DiagV2M => ops::diag_v2m(a).ok()?,
                OpKind::DiagM2V => ops::diag_extract(a).ok()?,
                OpKind::Rbind => ops::rbind(a, csr_of(inputs[1])?).ok()?,
                OpKind::Cbind => ops::cbind(a, csr_of(inputs[1])?).ok()?,
                OpKind::Neq0 => ops::neq_zero(a),
                OpKind::Eq0 => ops::eq_zero(a),
            };
            Some(out.sparsity())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnc_estimators::{MncEstimator, SparsityEstimator};
    use mnc_matrix::gen;
    use mnc_obsd::ObsdConfig;
    use rand::SeedableRng;

    fn plane(rate: f64) -> (ShadowPlane, ObsDaemon) {
        let daemon = ObsDaemon::new(ObsdConfig {
            flight_capacity: 256,
            ..ObsdConfig::default()
        });
        let mut cfg = ServedConfig::new(std::env::temp_dir().join("mnc-shadow-unused"));
        cfg.shadow_rate = rate;
        (ShadowPlane::new(&cfg, &daemon), daemon)
    }

    #[allow(clippy::type_complexity)]
    fn job_parts(
        retain: bool,
    ) -> (
        DagSpec,
        f64,
        Vec<Option<Arc<Synopsis>>>,
        Vec<Option<Arc<ShadowSidecar>>>,
    ) {
        let mut r = rand::rngs::StdRng::seed_from_u64(0xCAFE);
        let a = Arc::new(gen::rand_uniform(&mut r, 60, 50, 0.08));
        let b = Arc::new(gen::rand_uniform(&mut r, 50, 40, 0.1));
        let dag = DagSpec {
            nodes: vec![
                NodeSpec::Leaf("A".into()),
                NodeSpec::Leaf("B".into()),
                NodeSpec::Op {
                    op: OpKind::MatMul,
                    inputs: vec![0, 1],
                },
            ],
            root: 2,
        };
        let est = MncEstimator::new();
        let leaves = vec![
            Some(Arc::new(est.build(&a).unwrap())),
            Some(Arc::new(est.build(&b).unwrap())),
            None,
        ];
        let primary = walk::estimate_dag(&MncEstimator::new(), &dag, &leaves, false)
            .unwrap()
            .sparsity;
        let sidecars = vec![
            Some(Arc::new(ShadowSidecar::build(&a, retain))),
            Some(Arc::new(ShadowSidecar::build(&b, retain))),
            None,
        ];
        (dag, primary, leaves, sidecars)
    }

    #[test]
    fn rate_zero_never_samples_and_rate_one_always_does() {
        let (p0, _d0) = plane(0.0);
        assert!(!p0.enabled());
        assert!((0..1000).all(|_| !p0.should_sample()));
        let (p1, _d1) = plane(1.0);
        assert!((0..1000).all(|_| p1.should_sample()));
    }

    #[test]
    fn fractional_rate_samples_roughly_that_fraction() {
        let (p, _d) = plane(0.25);
        let hits = (0..10_000).filter(|_| p.should_sample()).count();
        assert!(
            (1_800..3_200).contains(&hits),
            "0.25 rate sampled {hits}/10000"
        );
    }

    #[test]
    fn shadow_run_records_divergence_and_exemplars() {
        let (p, daemon) = plane(1.0);
        let (dag, primary, leaves, sidecars) = job_parts(false);
        p.submit("cafe".repeat(8).as_str(), &dag, primary, &leaves, || {
            sidecars.clone()
        });
        p.drain();
        assert_eq!(p.sampled(), 1);
        assert_eq!(p.completed(), 1);
        assert_eq!(p.dropped(), 0);
        let ex = p.exemplars();
        assert_eq!(ex.len(), 1);
        assert_eq!(ex[0].op, "matmul");
        assert_eq!(ex[0].estimates.len(), 3, "all three alternates ran");
        assert!(ex[0].truth.is_none(), "no CSR retained, no truth");
        assert!(ex[0].divergence >= 1.0);
        // The accuracy channel reached the daemon's drift monitor.
        let stats = daemon.drift().stats();
        assert!(
            stats
                .iter()
                .any(|s| s.estimator == "DMap" && s.op == "matmul"),
            "drift series missing: {stats:?}"
        );
        // And the metric scoreboard is live.
        let text = daemon.metrics_text();
        assert!(text.contains("mnc_shadow_runs_total"), "{text}");
        assert!(text.contains("estimator=\"Bitset\""), "{text}");
        assert!(text.contains("mnc_shadow_divergence_milli"), "{text}");
    }

    #[test]
    fn retained_csr_yields_true_error_records() {
        let (p, daemon) = plane(1.0);
        let (dag, primary, leaves, sidecars) = job_parts(true);
        p.submit("beef".repeat(8).as_str(), &dag, primary, &leaves, || {
            sidecars.clone()
        });
        p.drain();
        let ex = p.exemplars();
        let truth = ex[0].truth.expect("truth computed from retained CSR");
        assert!(truth > 0.0 && truth <= 1.0);
        // The Bitset alternate is exact: its estimate must equal the truth.
        let bitset = ex[0]
            .estimates
            .iter()
            .find(|(n, _)| *n == "Bitset")
            .expect("bitset ran");
        assert_eq!(bitset.1.to_bits(), truth.to_bits());
        // Drift series for the primary appear under the truth case.
        let stats = daemon.drift().stats();
        assert!(
            stats.iter().any(|s| s.estimator == "MNC"),
            "primary truth series missing: {stats:?}"
        );
    }

    #[test]
    fn missing_sidecars_skip_alternates_but_meta_still_runs() {
        let (p, _daemon) = plane(1.0);
        let (dag, primary, leaves, _) = job_parts(false);
        let no_sidecars: Vec<Option<Arc<ShadowSidecar>>> = vec![None, None, None];
        p.submit("0123".repeat(8).as_str(), &dag, primary, &leaves, || {
            no_sidecars.clone()
        });
        p.drain();
        let ex = p.exemplars();
        assert_eq!(ex.len(), 1);
        let names: Vec<&str> = ex[0].estimates.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, ["MetaAC"], "only the metadata estimator is free");
    }

    #[test]
    fn exemplar_ring_keeps_the_worst_and_stays_bounded() {
        let (p, _daemon) = plane(1.0);
        let (dag, primary, leaves, sidecars) = job_parts(false);
        for _ in 0..(EXEMPLAR_CAP + 8) {
            p.submit("dead".repeat(8).as_str(), &dag, primary, &leaves, || {
                sidecars.clone()
            });
            p.drain();
        }
        let ex = p.exemplars();
        assert!(ex.len() <= EXEMPLAR_CAP);
        assert!(
            ex.windows(2).all(|w| w[0].divergence >= w[1].divergence),
            "exemplars must be sorted worst-first"
        );
    }

    #[test]
    fn exemplar_json_is_valid_and_labeled() {
        let ex = ShadowExemplar {
            trace_hex: "ab".repeat(16),
            op: "matmul",
            primary: 0.25,
            estimates: vec![("MetaAC", 0.2), ("Bitset", 0.25)],
            divergence: 1.25,
            truth: Some(0.24),
        };
        let v = mnc_obs::json::parse(&ex.to_json()).expect("valid json");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("shadow"));
        assert_eq!(v.get("op").and_then(|t| t.as_str()), Some("matmul"));
        assert!(v.get("estimates").is_some());
        assert!(v.get("truth").is_some());
    }

    #[test]
    fn divergence_milli_saturates_instead_of_poisoning() {
        assert_eq!(divergence_milli(1.0), 1000);
        assert_eq!(divergence_milli(2.5), 2500);
        assert_eq!(divergence_milli(f64::INFINITY), u64::MAX);
    }
}
