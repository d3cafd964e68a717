//! The traced run: per-layer metrics.
//!
//! Nothing inside the daemon changes for tracing. The run measures each
//! layer from outside it:
//!
//! 1. the workload's closed loop runs with client spans on every other
//!    estimate (the interleaving gives the tracing overhead without
//!    comparing two different stretches of time), and `/metrics`,
//!    `/v1/status` and `/proc` are scraped around it — client phases
//!    against the daemon's own queue-wait and service histograms;
//! 2. the same request stream is replayed in-process through the public
//!    function of each layer (JSON parse, request parse, catalog, sessions,
//!    walk with per-operation spans, render), plus the ingest path and the
//!    planner path over the workload's own matrices;
//! 3. an open-loop phase at a fixed rate reports latency from each
//!    request's due time and how late the generator ran.
//!
//! Spans stay in memory and are written at the end as a Chrome trace and
//! as JSONL next to the result file.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mnc_core::serialize::to_bytes;
use mnc_estimators::mnc::MncSynopsis;
use mnc_estimators::{InstrumentedEstimator, MncEstimator, SparsityEstimator, Synopsis};
use mnc_expr::chain_opt::sparse_chain_order_cached;
use mnc_expr::{EstimationContext, Planner, SessionPool, SessionPoolConfig};
use mnc_matrix::CsrMatrix;
use mnc_obs::Recorder;
use mnc_served::catalog::SynopsisCatalog;
use mnc_served::proto::{estimate_json, parse_csr_body, parse_estimate_request};
use mnc_served::sidecar::ShadowSidecar;
use mnc_served::walk::estimate_dag;
use mnc_served::NodeSpec;

use crate::client::{json_number, Client};
use crate::daemon::cpu_seconds;
use crate::inputs::{csr_body, expr_from_spec, Picks, Workload};
use crate::report::Outcome;
use crate::served::{check_estimate, Served, RESTARTS};
use crate::stats;

/// Every per-layer metric a traced run reports, with its unit.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("client.connect_us.p50", "us"),
    ("client.connect_us.p99", "us"),
    ("client.ttfb_us.p50", "us"),
    ("client.ttfb_us.p99", "us"),
    ("client.read_us.p50", "us"),
    ("client.residual_us.mean", "us"),
    ("client.conns_per_op", "ratio"),
    ("obsd.http.overhead_us.mean", "us"),
    ("server.cpu_us_per_op", "us"),
    ("served.service_us.mean", "us"),
    ("served.service_us.p99", "us"),
    ("obs.json.parse_us.mean", "us"),
    ("served.proto.parse_us.mean", "us"),
    ("served.proto.render_us.mean", "us"),
    ("served.proto.render_bytes.mean", "B"),
    ("served.catalog.lookup_us.mean", "us"),
    ("expr.sessions.resolve_us.mean", "us"),
    ("expr.sessions.created_per_kop", "count"),
    ("served.walk_us.mean", "us"),
    ("served.walk_us.p99", "us"),
    ("core.propagate_us.mean", "us"),
    ("core.propagate.calls_per_op", "count"),
    ("core.estimate_us.mean", "us"),
    ("served.proto.parse_csr_us.mean", "us"),
    ("core.sketch.build_us.mean", "us"),
    ("served.sidecar.build_us.mean", "us"),
    ("served.catalog.put_us.mean", "us"),
    ("core.serialize.bytes_per_entry", "B"),
    ("served.sidecar.bytes_per_entry", "B"),
    ("served.catalog.open_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p99_ms", "ms"),
    ("restart_s", "s"),
    ("expr.dag.build_us.mean", "us"),
    ("expr.session.materialize_us.mean", "us"),
    ("expr.planner.cost_us.mean", "us"),
    ("expr.chain_opt.order_us.mean", "us"),
    ("expr.session.hit_rate", "ratio"),
    ("core.sketch.build_ms.total", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("replay.coverage", "ratio"),
    ("loadgen.cpu_frac", "ratio"),
    ("loadgen.open_p50_ms", "ms"),
    ("loadgen.open_p99_ms", "ms"),
    ("loadgen.late_p99_ms", "ms"),
];

/// Span storage bound: the newest spans of a traced run that are kept.
const SPAN_CAPACITY: usize = 50_000;
/// Most requests replayed in-process per stage.
const MAX_REPLAY: usize = 5_000;
/// Ingest-path replay skips matrices whose bitset sidecar or CSR JSON
/// would dwarf the rest of the run.
const REPLAY_MAX_CELLS: u64 = 1 << 26;
const REPLAY_MAX_NNZ: usize = 1 << 20;

/// Per-layer values gathered so far, by metric name.
#[derive(Default)]
struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Emits every [`PER_LAYER`] metric in order; one that no phase
    /// measured is a failure.
    fn record(self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            match self.values.get(name) {
                Some(&v) => out.metric(name, v, unit),
                None => {
                    out.fail(format!("per-layer metric {name} was not measured"));
                    out.metric(name, f64::NAN, unit);
                }
            }
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A recorder for a traced run's spans.
pub(crate) fn span_recorder() -> Recorder {
    Recorder::enabled_with_capacity(SPAN_CAPACITY)
}

/// What `optimizer_inproc`'s own plan loop measured before its traced run
/// probes the daemon; it replaces the served loop's numbers.
pub(crate) struct PlanTrace {
    /// Traced over untraced plan-time median.
    pub overhead: f64,
    /// Plan-time p99 of the untraced loop, ms.
    pub latency_p99_ms: f64,
}

/// The traced run of a served workload, or of `optimizer_inproc` (`plans`)
/// after its own loop: every traced run reports every per-layer metric, so
/// that workload probes the daemon with the same templates.
pub(crate) fn trace_served(s: &Served, rec: Recorder, plans: Option<PlanTrace>) -> Outcome {
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    let dir = s.cfg.work.join("catalog");
    let (daemon, _, setup_ingest) = match s.setup(&dir) {
        Ok(x) => x,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return out;
        }
    };
    out.ok();
    let addr = daemon.addr();
    let pid = daemon.pid().to_string();

    // Warm up untraced, then trace every other request of the window.
    let mut warm = s.closed_loop(addr, s.cfg.warmup, Duration::ZERO, None);
    out.absorb(std::mem::take(&mut warm.out));
    let before = Scrape::take(addr, &pid);
    let cpu0 = cpu_seconds("self");
    let t0 = Instant::now();
    let mut traced = s.closed_loop(addr, Duration::ZERO, s.cfg.window, Some(&rec));
    let wall = t0.elapsed().as_secs_f64();
    let cpu1 = cpu_seconds("self");
    let after = Scrape::take(addr, &pid);
    out.absorb(std::mem::take(&mut traced.out));

    let (overhead, p99) = match plans {
        Some(p) => (p.overhead, p.latency_p99_ms),
        None => (
            stats::p50(&traced.traced_lat_ms) / stats::p50(&traced.lat_ms),
            stats::tail(&stats::sorted(&traced.lat_ms), 0.99).map_or(f64::NAN, |t| t.1),
        ),
    };
    layers.set("trace.overhead_ratio", overhead);
    layers.set("latency_p99_ms", p99);
    if let (Some(c0), Some(c1)) = (cpu0, cpu1) {
        layers.set("loadgen.cpu_frac", (c1 - c0) / wall);
    }
    client_layers(&traced, &mut layers);
    match (before, after) {
        (Ok(b), Ok(a)) => server_layers(&b, &a, &traced, &mut layers, &mut out),
        (Err(e), _) | (_, Err(e)) => out.fail(format!("scrape: {e}")),
    }

    let (open, late) = open_loop(s, addr, &mut out);
    let open = stats::sorted(&open);
    let late = stats::sorted(&late);
    layers.set(
        "loadgen.open_p50_ms",
        stats::nearest_rank(&open, 0.5).unwrap_or(f64::NAN),
    );
    layers.set(
        "loadgen.open_p99_ms",
        stats::tail(&open, 0.99).map_or(f64::NAN, |t| t.1),
    );
    layers.set(
        "loadgen.late_p99_ms",
        stats::tail(&late, 0.99).map_or(f64::NAN, |t| t.1),
    );

    // Ingest latency and restart time are diagnostics, not end-to-end
    // metrics: outside ingest_churn a run holds a few hundred ingests, all
    // inside one set-up burst, and a restart takes a few milliseconds of
    // process start; both vary between runs by more than any bound the
    // benchmark may set.
    let churn = s.workload == Workload::IngestChurn;
    let ingest = stats::sorted(if churn {
        &traced.ingest_ms
    } else {
        &setup_ingest
    });
    layers.set(
        "ingest_p50_ms",
        stats::nearest_rank(&ingest, 0.5).unwrap_or(f64::NAN),
    );
    layers.set(
        "ingest_p99_ms",
        stats::tail(&ingest, 0.99).map_or(f64::NAN, |t| t.1),
    );
    let last_body: Vec<Option<usize>> = traced
        .last_body
        .iter()
        .zip(&warm.last_body)
        .map(|(t, w)| t.or(*w))
        .collect();
    let restarts = s.restart(daemon, &dir, RESTARTS, &last_body, &mut out);
    if restarts.len() == RESTARTS {
        layers.set("restart_s", stats::median(&restarts));
    }

    // The daemon is gone, so the replay may open its final catalog.
    let budget = (s.cfg.window / 4).clamp(Duration::from_millis(500), Duration::from_secs(3));
    replay_requests(s, &dir, &rec, budget, &mut layers, &mut out);
    replay_ingest(s, &rec, &mut layers, &mut out);
    replay_planner(s, &rec, budget, &mut layers, &mut out);
    write_spans(s, &rec, &mut out);
    layers.record(&mut out);
    out
}

/// Client-side phase metrics of the traced closed loop.
fn client_layers(lp: &crate::served::Loop, layers: &mut Layers) {
    let to_us = |ns: u64| ns as f64 / 1e3;
    let connect: Vec<f64> = lp
        .phases
        .iter()
        .filter(|p| p.connect_ns > 0)
        .map(|p| to_us(p.connect_ns))
        .collect();
    let ttfb: Vec<f64> = lp.phases.iter().map(|p| to_us(p.ttfb_ns)).collect();
    let read: Vec<f64> = lp.phases.iter().map(|p| to_us(p.read_ns)).collect();
    let residual: Vec<f64> = lp
        .phases
        .iter()
        .map(|p| to_us(p.total_ns) - to_us(p.connect_ns) - to_us(p.ttfb_ns) - to_us(p.read_ns))
        .collect();
    let (connect, ttfb, read) = (
        stats::sorted(&connect),
        stats::sorted(&ttfb),
        stats::sorted(&read),
    );
    // Reused connections have no connect phase; with keep-alive the
    // connect percentiles describe the few connections that were opened.
    layers.set(
        "client.connect_us.p50",
        stats::nearest_rank(&connect, 0.5).unwrap_or(0.0),
    );
    layers.set(
        "client.connect_us.p99",
        stats::tail(&connect, 0.99).map_or(0.0, |t| t.1),
    );
    layers.set(
        "client.ttfb_us.p50",
        stats::nearest_rank(&ttfb, 0.5).unwrap_or(f64::NAN),
    );
    layers.set(
        "client.ttfb_us.p99",
        stats::tail(&ttfb, 0.99).map_or(f64::NAN, |t| t.1),
    );
    layers.set(
        "client.read_us.p50",
        stats::nearest_rank(&read, 0.5).unwrap_or(f64::NAN),
    );
    layers.set("client.residual_us.mean", stats::mean(&residual));
    layers.set(
        "client.conns_per_op",
        lp.connects as f64 / lp.exchanges.max(1) as f64,
    );
}

/// Server-side metrics from the scrapes around the traced loop.
fn server_layers(
    b: &Scrape,
    a: &Scrape,
    lp: &crate::served::Loop,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let svc = Histo::delta(&a.metrics, &b.metrics, "mnc_served_service_ns");
    let qw = Histo::delta(&a.metrics, &b.metrics, "mnc_served_queue_wait_ns");
    let ttfb_mean_us = stats::mean(
        &lp.phases
            .iter()
            .map(|p| p.ttfb_ns as f64 / 1e3)
            .collect::<Vec<_>>(),
    );
    layers.set("served.service_us.mean", svc.mean() / 1e3);
    layers.set("served.service_us.p99", svc.quantile(0.99) / 1e3);
    // Two clients never fill four workers, and the gate's fast path reports
    // exactly 0: a per-layer metric that would read 0 on every run.
    out.info("queue_wait_us_p99", qw.quantile(0.99) / 1e3);
    layers.set(
        "obsd.http.overhead_us.mean",
        ttfb_mean_us - (svc.mean() + qw.mean()) / 1e3,
    );
    let ops = lp.ops.max(1) as f64;
    layers.set("server.cpu_us_per_op", (a.cpu_s - b.cpu_s) * 1e6 / ops);
    let created = |s: &Scrape| json_number(&s.status, "created").unwrap_or(0.0);
    layers.set(
        "expr.sessions.created_per_kop",
        (created(a) - created(b)) * 1e3 / ops,
    );
}

/// One look at the daemon: `/metrics`, `/v1/status`, and its CPU time.
struct Scrape {
    metrics: String,
    status: Vec<u8>,
    cpu_s: f64,
}

impl Scrape {
    fn take(addr: SocketAddr, pid: &str) -> Result<Scrape, String> {
        let mut c = Client::new(addr, Recorder::disabled());
        let mut get = |path: &str| -> Result<Vec<u8>, String> {
            match c.request("GET", path, None, b"") {
                Ok(r) if r.status == 200 => Ok(r.body),
                Ok(r) => Err(format!("{path}: HTTP {}", r.status)),
                Err(e) => Err(format!("{path}: {e}")),
            }
        };
        let metrics = String::from_utf8_lossy(&get("/metrics")?).into_owned();
        let status = get("/v1/status")?;
        let cpu_s = cpu_seconds(pid).ok_or("daemon CPU time unreadable")?;
        Ok(Scrape {
            metrics,
            status,
            cpu_s,
        })
    }
}

/// The `/v1/estimate` series of one log₂ histogram, as the difference of
/// two Prometheus scrapes.
struct Histo {
    /// Observations per bucket, keyed by the bucket's inclusive upper bound.
    counts: BTreeMap<u64, f64>,
    sum: f64,
    count: f64,
}

impl Histo {
    /// `after − before` for histogram `name`, endpoint `/v1/estimate`.
    fn delta(after: &str, before: &str, name: &str) -> Histo {
        let (ca, sa, na) = parse_histo(after, name);
        let (cb, sb, nb) = parse_histo(before, name);
        // Empty buckets are elided from the exposition, so a bound missing
        // from one scrape has the cumulative count of the bound below it.
        let cum =
            |m: &BTreeMap<u64, f64>, le: u64| m.range(..=le).next_back().map_or(0.0, |(_, v)| *v);
        let mut bounds: Vec<u64> = ca.keys().chain(cb.keys()).copied().collect();
        bounds.sort_unstable();
        bounds.dedup();
        let mut counts = BTreeMap::new();
        let mut prev = 0.0;
        for le in bounds {
            let c = cum(&ca, le) - cum(&cb, le);
            if c > prev {
                counts.insert(le, c - prev);
            }
            prev = prev.max(c);
        }
        Histo {
            counts,
            sum: sa - sb,
            count: na - nb,
        }
    }

    fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }

    /// The `q` quantile, interpolated linearly inside its log₂ bucket
    /// `[(le + 1) / 2, le]`.
    fn quantile(&self, q: f64) -> f64 {
        let total: f64 = self.counts.values().sum();
        if total == 0.0 {
            return 0.0;
        }
        let rank = (q * total).ceil().max(1.0);
        let mut seen = 0.0;
        for (&le, &c) in &self.counts {
            if seen + c >= rank {
                let lo = if le == 0 {
                    0.0
                } else {
                    (le as f64 + 1.0) / 2.0
                };
                return lo + (le as f64 - lo) * (rank - seen) / c;
            }
            seen += c;
        }
        self.counts.keys().next_back().map_or(0.0, |&le| le as f64)
    }
}

fn parse_histo(text: &str, name: &str) -> (BTreeMap<u64, f64>, f64, f64) {
    let ep = "endpoint=\"/v1/estimate\"";
    let bucket = format!("{name}_bucket{{{ep},le=\"");
    let sum = format!("{name}_sum{{{ep}}} ");
    let count = format!("{name}_count{{{ep}}} ");
    let mut buckets = BTreeMap::new();
    let (mut s, mut n) = (0.0, 0.0);
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(&bucket) {
            let Some((le, v)) = rest.split_once("\"} ") else {
                continue;
            };
            if let (Ok(le), Ok(v)) = (le.parse::<u64>(), v.trim().parse::<f64>()) {
                buckets.insert(le, v);
            }
        } else if let Some(v) = line.strip_prefix(&sum) {
            s = v.trim().parse().unwrap_or(0.0);
        } else if let Some(v) = line.strip_prefix(&count) {
            n = v.trim().parse().unwrap_or(0.0);
        }
    }
    (buckets, s, n)
}

/// Open loop at the workload's fixed rate for half the window: requests are
/// due on a schedule whether or not earlier ones finished. Returns latency
/// from each due time and how late each request was sent, in ms.
fn open_loop(s: &Served, addr: SocketAddr, out: &mut Outcome) -> (Vec<f64>, Vec<f64>) {
    let threads = s.cfg.threads.max(1);
    let rate = s.workload.open_loop_rate();
    let duration = (s.cfg.window / 2).as_secs_f64();
    let start = Instant::now() + Duration::from_millis(20);
    let results: Vec<(Outcome, Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                scope.spawn(move || {
                    let mut client = Client::new(addr, Recorder::disabled());
                    let mut picks = Picks::new(s.cfg.seed, 100 + j);
                    let (mut o, mut lat, mut late) = (Outcome::default(), Vec::new(), Vec::new());
                    let mut k = j;
                    loop {
                        let due_s = k as f64 / rate;
                        if due_s >= duration {
                            break;
                        }
                        k += threads;
                        let due = start + Duration::from_secs_f64(due_s);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        late.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        let (t, c) = picks.next_pick();
                        let r = client.request(
                            "POST",
                            "/v1/estimate",
                            Some("application/json"),
                            &s.bodies[t][c],
                        );
                        if check_estimate(&mut o, r, t, &s.expected[t]).is_some() {
                            lat.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
                        }
                    }
                    (o, lat, late)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect()
    });
    let (mut lat, mut late) = (Vec::new(), Vec::new());
    for (o, l, d) in results {
        out.absorb(o);
        lat.extend(l);
        late.extend(d);
    }
    (lat, late)
}

/// Replays the closed loop's request stream in-process, stage by stage,
/// through the same public functions the daemon calls per request.
fn replay_requests(
    s: &Served,
    catalog_dir: &Path,
    rec: &Recorder,
    budget: Duration,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let t = Instant::now();
    let catalog = match SynopsisCatalog::open(catalog_dir) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("replay: open catalog: {e}"));
            return;
        }
    };
    layers.set("served.catalog.open_ms", t.elapsed().as_secs_f64() * 1e3);

    let mut sessions = SessionPool::new(SessionPoolConfig::default());
    // Session caches are keyed by the estimator's configuration only.
    let key = MncEstimator::new();
    let mut picks = Picks::new(s.cfg.seed, 0);
    let (mut json, mut parse, mut lookup, mut resolve, mut render, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    let mut walk: Vec<f64> = Vec::new();
    let start = Instant::now();
    while walk.len() < MAX_REPLAY && start.elapsed() < budget {
        let (ti, c) = picks.next_pick();
        let body = &s.bodies[ti][c];
        let t0 = Instant::now();
        {
            let _s = rec.span("replay.json_parse");
            let text = std::str::from_utf8(body).expect("generated bodies are UTF-8");
            std::hint::black_box(mnc_obs::json::parse(text).ok());
        }
        let t1 = Instant::now();
        let req = {
            let _s = rec.span("replay.proto_parse");
            parse_estimate_request(body)
        };
        let t2 = Instant::now();
        let Ok(req) = req else {
            out.fail(format!("replay: template {ti} does not parse"));
            continue;
        };
        let mut leaves: Vec<Option<Arc<Synopsis>>> = vec![None; req.dag.nodes.len()];
        let mut raw = vec![None; req.dag.nodes.len()];
        {
            let _s = rec.span("replay.catalog");
            for (i, node) in req.dag.nodes.iter().enumerate() {
                if let NodeSpec::Leaf(name) = node {
                    raw[i] = catalog.sketch(name);
                }
            }
        }
        let t3 = Instant::now();
        let resolved = {
            let _s = rec.span("replay.sessions");
            let ctx = sessions.session_init_at(&req.client, Instant::now(), |c| c);
            req.dag.nodes.iter().enumerate().try_for_each(|(i, node)| {
                if let NodeSpec::Leaf(name) = node {
                    let sketch = raw[i]
                        .clone()
                        .ok_or_else(|| format!("replay: {name} not in catalog"))?;
                    let syn = ctx
                        .named_synopsis(&key, name, || {
                            Ok(Synopsis::Mnc(MncSynopsis {
                                sketch: (*sketch).clone(),
                            }))
                        })
                        .map_err(|e| e.to_string())?;
                    leaves[i] = Some(syn);
                }
                Ok::<(), String>(())
            })
        };
        let t4 = Instant::now();
        if let Err(e) = resolved {
            out.fail(e);
            continue;
        }
        // A fresh estimator per request, as the daemon does; its spans and
        // histograms are the per-operation layer.
        let est = InstrumentedEstimator::new(MncEstimator::new(), rec.clone());
        let t4w = Instant::now();
        let outcome = {
            let _s = rec.span("replay.walk");
            estimate_dag(&est, &req.dag, &leaves, req.include_sketch)
        };
        let t5 = Instant::now();
        let Ok(outcome) = outcome else {
            out.fail(format!("replay: template {ti} failed to estimate"));
            continue;
        };
        let rendered = {
            let _s = rec.span("replay.render");
            estimate_json(&outcome)
        };
        let t6 = Instant::now();
        out.check(
            outcome.sparsity.to_bits() == s.expected[ti].sparsity.to_bits(),
            || {
                format!(
                    "replay: template {ti} answered {} in-process",
                    outcome.sparsity
                )
            },
        );
        json += us(t1 - t0);
        parse += us(t2 - t1);
        lookup += us(t3 - t2);
        resolve += us(t4 - t3);
        walk.push(us(t5 - t4w));
        render += us(t6 - t5);
        bytes += rendered.len() as f64;
    }
    let n = walk.len().max(1) as f64;
    layers.set("obs.json.parse_us.mean", json / n);
    layers.set("served.proto.parse_us.mean", parse / n);
    layers.set("served.catalog.lookup_us.mean", lookup / n);
    layers.set("expr.sessions.resolve_us.mean", resolve / n);
    layers.set("served.walk_us.mean", stats::mean(&walk));
    layers.set(
        "served.walk_us.p99",
        stats::tail(&stats::sorted(&walk), 0.99).map_or(f64::NAN, |t| t.1),
    );
    layers.set("served.proto.render_us.mean", render / n);
    layers.set("served.proto.render_bytes.mean", bytes / n);
    let snap = rec.registry().map(|r| r.snapshot()).unwrap_or_default();
    let histo = |name: &str| {
        snap.histograms
            .get(name)
            .map_or((0.0, 0.0), |h| (h.sum() as f64, h.count() as f64))
    };
    let (psum, pcount) = histo("estimator.propagate_ns");
    let (esum, ecount) = histo("estimator.estimate_ns");
    layers.set(
        "core.propagate_us.mean",
        if pcount > 0.0 {
            psum / pcount / 1e3
        } else {
            0.0
        },
    );
    layers.set("core.propagate.calls_per_op", pcount / n);
    layers.set(
        "core.estimate_us.mean",
        if ecount > 0.0 {
            esum / ecount / 1e3
        } else {
            0.0
        },
    );
    let stages = (parse + lookup + resolve + render) / n + stats::mean(&walk);
    if let Some(service) = layers.values.get("served.service_us.mean").copied() {
        layers.set("replay.coverage", stages / service);
    }
}

/// Replays the CSR ingest path over the workload's own ingest bodies (or,
/// for workloads that ingest prebuilt sketches, over CSR renderings of
/// their smaller matrices) into a throwaway catalog.
fn replay_ingest(s: &Served, rec: &Recorder, layers: &mut Layers, out: &mut Outcome) {
    let mut bodies: Vec<(String, Vec<u8>)> = s
        .uploads
        .iter()
        .filter(|u| !u.sketch)
        .map(|u| (u.name.clone(), u.body()))
        .collect();
    bodies.extend(
        s.churn_bodies
            .iter()
            .enumerate()
            .map(|(k, b)| (format!("churn-replay{k}"), b.clone())),
    );
    if bodies.is_empty() {
        bodies = s
            .inputs
            .leaves
            .iter()
            .filter(|l| {
                let (r, c) = l.matrix.shape();
                (r as u64) * (c as u64) <= REPLAY_MAX_CELLS && l.matrix.nnz() <= REPLAY_MAX_NNZ
            })
            .map(|l| (l.name.clone(), csr_body(&l.matrix)))
            .collect();
    }
    let dir = s.cfg.work.join("replay-catalog");
    let _ = std::fs::remove_dir_all(&dir);
    let mut catalog = match SynopsisCatalog::open(&dir) {
        Ok(c) => c,
        Err(e) => {
            out.fail(format!("replay catalog: {e}"));
            return;
        }
    };
    let (mut parse, mut build, mut sidecar, mut put, mut sk_bytes, mut sc_bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
    for (name, body) in &bodies {
        let t0 = Instant::now();
        let m = {
            let _s = rec.span("replay.parse_csr");
            parse_csr_body(body)
        };
        let t1 = Instant::now();
        let Ok(m) = m else {
            out.fail(format!("replay ingest {name}: CSR body does not parse"));
            continue;
        };
        let m: Arc<CsrMatrix> = Arc::new(m);
        let syn = {
            let _s = rec.span("replay.sketch_build");
            MncEstimator::new().build(&m)
        };
        let t2 = Instant::now();
        let Ok(Synopsis::Mnc(syn)) = syn else {
            out.fail(format!("replay ingest {name}: sketch build failed"));
            continue;
        };
        let sc = {
            let _s = rec.span("replay.sidecar_build");
            ShadowSidecar::build(&m, false)
        };
        let t3 = Instant::now();
        sk_bytes += to_bytes(&syn.sketch).len() as f64;
        sc_bytes += sc.encoded_len() as f64;
        let t4 = Instant::now();
        let stored = {
            let _s = rec.span("replay.catalog_put");
            catalog
                .put_with_shadow(name, Arc::new(syn.sketch), sc)
                .is_ok()
        };
        let t5 = Instant::now();
        out.check(stored, || format!("replay ingest {name}: put failed"));
        parse += us(t1 - t0);
        build += us(t2 - t1);
        sidecar += us(t3 - t2);
        put += us(t5 - t4);
    }
    drop(catalog);
    let _ = std::fs::remove_dir_all(&dir);
    let n = bodies.len().max(1) as f64;
    layers.set("served.proto.parse_csr_us.mean", parse / n);
    layers.set("core.sketch.build_us.mean", build / n);
    layers.set("served.sidecar.build_us.mean", sidecar / n);
    layers.set("served.catalog.put_us.mean", put / n);
    layers.set("core.serialize.bytes_per_entry", sk_bytes / n);
    layers.set("served.sidecar.bytes_per_entry", sc_bytes / n);
}

/// Replays the request stream through the embedded planner: build the
/// expression, materialize every node in one long-lived context, cost the
/// (now cached) plan, and order product chains.
fn replay_planner(
    s: &Served,
    rec: &Recorder,
    budget: Duration,
    layers: &mut Layers,
    out: &mut Outcome,
) {
    let mats = s.inputs.matrices();
    let mut ctx = EstimationContext::new();
    let mut picks = Picks::new(s.cfg.seed, 0);
    let (mut dag_us, mut mat_us, mut plan_us) = (0.0, 0.0, 0.0);
    let mut chain_us: Vec<f64> = Vec::new();
    let mut n = 0usize;
    let start = Instant::now();
    while n < MAX_REPLAY && start.elapsed() < budget {
        let (ti, _) = picks.next_pick();
        let tpl = &s.inputs.templates[ti];
        let t0 = Instant::now();
        let (dag, _) = {
            let _s = rec.span("replay.dag_build");
            expr_from_spec(&tpl.dag, &mats)
        };
        let t1 = Instant::now();
        let est = MncEstimator::new();
        let materialized = {
            let _s = rec.span("replay.materialize");
            ctx.materialize_all(&est, &dag)
        };
        let t2 = Instant::now();
        let planned = {
            let _s = rec.span("replay.plan");
            Planner::default().plan_with_context(&est, &dag, &mut ctx)
        };
        let t3 = Instant::now();
        out.check(materialized.is_ok() && planned.is_ok(), || {
            format!("replay: template {ti} failed to plan")
        });
        if let Some(names) = &tpl.chain {
            let chain: Vec<Arc<CsrMatrix>> = names.iter().map(|n| Arc::clone(&mats[n])).collect();
            let t = Instant::now();
            let ordered = {
                let _s = rec.span("replay.chain_order");
                sparse_chain_order_cached(&mut ctx, &est, &chain)
            };
            chain_us.push(us(t.elapsed()));
            out.check(ordered.is_ok(), || {
                format!("replay: template {ti} chain order failed")
            });
        }
        dag_us += us(t1 - t0);
        mat_us += us(t2 - t1);
        plan_us += us(t3 - t2);
        n += 1;
    }
    let n = n.max(1) as f64;
    let st = ctx.stats();
    layers.set("expr.dag.build_us.mean", dag_us / n);
    layers.set("expr.session.materialize_us.mean", mat_us / n);
    layers.set("expr.planner.cost_us.mean", plan_us / n);
    layers.set("expr.chain_opt.order_us.mean", stats::mean(&chain_us));
    layers.set(
        "expr.session.hit_rate",
        st.cache_hits as f64 / (st.cache_hits + st.cache_misses).max(1) as f64,
    );
    layers.set("core.sketch.build_ms.total", st.build_ns as f64 / 1e6);
}

/// Writes the run's spans as a Chrome trace and as JSONL.
fn write_spans(s: &Served, rec: &Recorder, out: &mut Outcome) {
    let report = rec.report();
    let stem = format!("{}-seed{}", s.cfg.workload.name(), s.cfg.seed);
    let chrome = s.cfg.out.join(format!("{stem}.chrome.json"));
    let jsonl = s.cfg.out.join(format!("{stem}.spans.jsonl"));
    let written = std::fs::write(&chrome, report.to_chrome_trace())
        .and_then(|()| std::fs::write(&jsonl, report.to_jsonl()));
    match written {
        Ok(()) => {
            out.ok();
            out.info_str("trace_chrome", &chrome.display().to_string());
            out.info_str("trace_jsonl", &jsonl.display().to_string());
            out.info("trace_spans", report.spans.len() as f64);
        }
        Err(e) => out.fail(format!("write spans: {e}")),
    }
}
