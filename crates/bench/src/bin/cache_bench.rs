//! Demonstrates the `EstimationContext` win on repeated estimation: an
//! optimizer-style workload keeps re-estimating DAGs built over one shared
//! set of base matrices (probing rewrites, re-costing plans). Without a
//! session every walk rebuilds every leaf synopsis; with one, leaves are
//! built once and intermediates of repeated DAGs come from the cache.
//!
//! ```text
//! MNC_SCALE=1.0 MNC_REPS=20 cargo run --release --bin cache_bench
//! ```
//!
//! Human-readable results go to stderr; stdout carries one stable-schema
//! JSON object (`"schema": "mnc.cache_bench.v1"`) so CI and scripts can
//! consume the numbers without scraping tables.
//!
//! `--check-overhead` additionally times the cached loop with no recorder,
//! with the no-op disabled recorder, with tracing enabled, and with the
//! live obsd service attached but idle (endpoint up, flight ring
//! allocated, recorder off — the production always-on configuration)
//! (best-of-rounds, rotating order). It fails if the no-op recorder is
//! more than 2% slower than the recorder-free baseline, if the idle obsd
//! variant is more than 2% slower than the no-op recorder, or if any
//! variant changes an estimate — observability off must be effectively
//! free and always passive. The enabled-tracing ratio is reported for
//! information.
//!
//! The same flag also gates the **served request-tracing plane**: two
//! in-process `mnc-served` services (tracing on vs off) answer identical
//! estimate batches through direct handler calls; tracing must stay within
//! 2% on the p50 batch time and every response body must be byte-identical.
//!
//! And the **shadow estimation plane**: three in-process services — default
//! config, explicit `--shadow-rate 0`, and `--shadow-rate 1` — answer the
//! same batches; the rate-0 floor must stay within 2% of the baseline (the
//! disabled plane is one branch per request) and every response body must
//! be byte-identical across all three (shadowing may never change what the
//! client sees). The rate-1 ratio is reported for information.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mnc_bench::perf::{probe_dag, probe_matrices};
use mnc_bench::{env_reps, env_scale, fmt_duration, EnvInfo, ObsArgs, OBS_USAGE};
use mnc_estimators::MncEstimator;
use mnc_expr::{estimate_root, EstimationContext, ExprDag, NodeId, Planner, Recorder};
use mnc_matrix::{gen, CsrMatrix};
use mnc_obsd::{Handler, ObsDaemon, ObsdConfig, Request};
use mnc_served::{EstimationService, ServedConfig};
use rand::SeedableRng;

/// Runs the cached estimation loop in a fresh session — plain when `rec` is
/// `None`, attached to the given recorder otherwise — returning the wall
/// time and the sum of estimates (for bit-identity checks across variants).
fn cached_loop(
    dags: &[(ExprDag, NodeId)],
    reps: usize,
    rec: Option<Recorder>,
) -> (Duration, f64, EstimationContext) {
    let t = Instant::now();
    let mut sum = 0.0;
    let est = MncEstimator::new();
    let mut ctx = match rec {
        Some(rec) => EstimationContext::new().with_recorder(rec),
        None => EstimationContext::new(),
    };
    for rep in 0..reps {
        let (dag, root) = &dags[rep % dags.len()];
        sum += ctx.estimate_root(&est, dag, *root).expect("estimate");
    }
    (t.elapsed(), sum, ctx)
}

/// Overhead measurement across the four session variants.
struct Overhead {
    /// Plain session, no recorder ever attached (the baseline).
    plain: Duration,
    /// Session with the no-op disabled recorder attached — the variant the
    /// ≤2% gate applies to ("compile-out cheap").
    noop: Duration,
    /// Session with an enabled recorder collecting spans and metrics —
    /// reported for information, not gated.
    traced: Duration,
    /// Session with the no-op recorder wired into a live [`ObsDaemon`]:
    /// HTTP endpoint bound, ticker refreshing, flight ring allocated but
    /// idle. The production always-on service configuration — gated at ≤2%
    /// of the no-op recorder.
    obsd: Duration,
    /// Whether all four variants produced bit-identical estimate sums.
    identical: bool,
}

/// Best-of-`rounds` timing of the cached loop across the four variants,
/// rotating the order so cache warmth and frequency scaling cancel out.
/// Each sample times `inner` back-to-back loops: single loops finish in
/// well under a millisecond, where scheduler jitter alone exceeds the 2%
/// bound this measurement gates on. One daemon with a live endpoint is
/// shared across the whole measurement, so the obsd variant pays exactly
/// what a long-running service pays: an installed sink and background
/// threads, not server start-up.
fn measure_overhead(
    dags: &[(ExprDag, NodeId)],
    reps: usize,
    rounds: usize,
    inner: usize,
) -> Overhead {
    let daemon = ObsDaemon::new(ObsdConfig::default());
    let mut server = daemon
        .serve("127.0.0.1:0")
        .expect("bind overhead-check endpoint on loopback");
    let sample = |variant: usize| -> (Duration, f64) {
        let mut total = Duration::ZERO;
        let mut sum = 0.0;
        for _ in 0..inner {
            let rec = match variant {
                0 => None,
                1 => Some(Recorder::disabled()),
                2 => Some(Recorder::enabled()),
                _ => {
                    let rec = Recorder::disabled();
                    daemon.install(&rec);
                    Some(rec)
                }
            };
            let (took, s, _ctx) = cached_loop(dags, reps, rec);
            total += took;
            sum += s;
        }
        (total, sum)
    };
    // Warm-up: populate allocator pools and caches outside the measurement.
    for v in 0..4 {
        sample(v);
    }
    let mut best = [Duration::MAX; 4];
    let mut identical = true;
    for round in 0..rounds {
        let mut sums = [0.0f64; 4];
        for i in 0..4 {
            let v = (round + i) % 4;
            let (took, sum) = sample(v);
            best[v] = best[v].min(took);
            sums[v] = sum;
        }
        identical &= sums[1..].iter().all(|s| s.to_bits() == sums[0].to_bits());
    }
    server.shutdown();
    Overhead {
        plain: best[0],
        noop: best[1],
        traced: best[2],
        obsd: best[3],
        identical,
    }
}

/// The served-plane side of the overhead gate: request tracing (trace IDs,
/// stage spans, RED metrics) measured across two in-process services —
/// tracing on vs off — driven through direct [`Handler::handle`] calls so
/// no socket noise lands in the measurement.
struct ServedOverhead {
    /// Fastest observed request, tracing off (best-of floor, like
    /// [`measure_overhead`]: the minimum is the noise-free estimate of the
    /// deterministic work, and the plane's cost is deterministic work).
    plain_floor: Duration,
    /// Fastest observed request, tracing on.
    traced_floor: Duration,
    /// Whether both variants produced byte-identical estimate bodies.
    identical: bool,
}

fn served_request(method: &str, path: &str, body: &[u8]) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        query: String::new(),
        headers: Vec::new(),
        body: body.to_vec(),
    }
}

/// Raw-CSR ingest body for the in-process served harnesses.
fn csr_json(m: &CsrMatrix) -> String {
    fn join<T: ToString>(xs: &[T]) -> String {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
    format!(
        "{{\"nrows\":{},\"ncols\":{},\"row_ptr\":[{}],\"col_idx\":[{}]}}",
        m.nrows(),
        m.ncols(),
        join(m.row_ptr()),
        join(m.col_indices())
    )
}

/// `samples` `POST /v1/estimate` calls per variant over identical catalogs,
/// timed **per request and strictly interleaved** (the variant order flips
/// every iteration); the gate compares the best-of floors. Interleaving at
/// request granularity matters: batch-level timings on a shared single-CPU
/// box swing ±8% from time-correlated noise, and even medians drift with
/// sustained background load, while the fastest request out of hundreds is
/// a stable estimate of the deterministic per-request work — which is
/// exactly where a tracing plane's cost lives. The matrix dimension floors
/// at a representative request size: the plane costs a fixed few hundred
/// nanoseconds per request, and gating a 2% ratio against a degenerate
/// microsecond-sized walk would measure clock reads, not the plane.
fn measure_served_overhead(scale: f64, samples: usize) -> ServedOverhead {
    let d = ((200.0 * scale) as usize).max(1536);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x0BE4);
    let mats: Vec<CsrMatrix> = (0..3)
        .map(|_| gen::rand_uniform(&mut rng, d, d, 0.05))
        .collect();

    let mk_service = |tracing: bool, tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "mnc-cache-bench-served-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServedConfig::new(&dir);
        cfg.tracing = tracing;
        let svc = EstimationService::new(cfg).expect("served: open catalog");
        for (i, m) in mats.iter().enumerate() {
            let req = served_request("PUT", &format!("/v1/matrices/M{i}"), csr_json(m).as_bytes());
            assert_eq!(svc.handle(&req).status, 201, "served: ingest M{i}");
        }
        (svc, dir)
    };
    let (plain_svc, plain_dir) = mk_service(false, "plain");
    let (traced_svc, traced_dir) = mk_service(true, "traced");

    let estimate = br#"{"dag":[{"leaf":"M0"},{"leaf":"M1"},{"leaf":"M2"},
        {"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}]}"#;
    let one = |svc: &EstimationService| -> (Duration, Vec<u8>) {
        let t = Instant::now();
        let resp = svc.handle(&served_request("POST", "/v1/estimate", estimate));
        let took = t.elapsed();
        assert_eq!(resp.status, 200, "served: estimate failed");
        (took, resp.body)
    };

    // Warm-up both variants: session caches, trace-plane pools, allocator.
    let mut identical = true;
    for _ in 0..16 {
        let (_, body_plain) = one(&plain_svc);
        let (_, body_traced) = one(&traced_svc);
        identical &= body_plain == body_traced;
    }

    let mut plain = Vec::with_capacity(samples);
    let mut traced = Vec::with_capacity(samples);
    for i in 0..samples {
        // Flip the order each iteration so frequency scaling and cache
        // warmth cancel out.
        let (pl, tr) = if i % 2 == 0 {
            let pl = one(&plain_svc);
            let tr = one(&traced_svc);
            (pl, tr)
        } else {
            let tr = one(&traced_svc);
            let pl = one(&plain_svc);
            (pl, tr)
        };
        identical &= pl.1 == tr.1;
        plain.push(pl.0);
        traced.push(tr.0);
    }
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&traced_dir);

    let floor = |ds: &[Duration]| ds.iter().copied().min().unwrap_or_default();
    ServedOverhead {
        plain_floor: floor(&plain),
        traced_floor: floor(&traced),
        identical,
    }
}

/// The shadow-plane side of the overhead gate.
struct ShadowOverhead {
    /// Fastest request against the default-config service (shadow never
    /// configured — the pre-shadow baseline).
    base_floor: Duration,
    /// Fastest request with `--shadow-rate 0` set explicitly. Gated at ≤2%
    /// of the baseline: a rate-0 plane must cost exactly one branch per
    /// request, nothing else.
    off_floor: Duration,
    /// Fastest request with `--shadow-rate 1`. Informational only: the
    /// background workers legitimately compete for CPU — the isolation
    /// contract is about response bytes and the rate-0 hot path, not about
    /// free re-estimation.
    on_floor: Duration,
    /// Whether all three variants produced byte-identical response bodies —
    /// shadowing on must never change what the client sees.
    identical: bool,
}

/// Three in-process services — default config, explicit shadow rate 0, and
/// shadow rate 1 — answer identical estimate batches through direct handler
/// calls, timed per request and strictly interleaved with a rotating order,
/// exactly like [`measure_served_overhead`]. Raw-CSR ingest means the
/// rate-1 service carries live sidecars, so its background jobs run all
/// three alternate estimators while the foreground is being timed (the
/// worst case for interference — which is why only the rate-0 ratio is
/// gated).
fn measure_shadow_overhead(scale: f64, samples: usize) -> ShadowOverhead {
    let d = ((200.0 * scale) as usize).max(1024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x54AD);
    let mats: Vec<CsrMatrix> = (0..3)
        .map(|_| gen::rand_uniform(&mut rng, d, d, 0.05))
        .collect();

    let mk_service = |shadow_rate: Option<f64>, tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "mnc-cache-bench-shadow-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServedConfig::new(&dir);
        if let Some(rate) = shadow_rate {
            cfg.shadow_rate = rate;
        }
        let svc = EstimationService::new(cfg).expect("served: open catalog");
        for (i, m) in mats.iter().enumerate() {
            let req = served_request("PUT", &format!("/v1/matrices/M{i}"), csr_json(m).as_bytes());
            assert_eq!(svc.handle(&req).status, 201, "served: ingest M{i}");
        }
        (svc, dir)
    };
    let services = [
        mk_service(None, "base"),
        mk_service(Some(0.0), "off"),
        mk_service(Some(1.0), "on"),
    ];

    let estimate = br#"{"dag":[{"leaf":"M0"},{"leaf":"M1"},{"leaf":"M2"},
        {"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}]}"#;
    let one = |svc: &EstimationService| -> (Duration, Vec<u8>) {
        let t = Instant::now();
        let resp = svc.handle(&served_request("POST", "/v1/estimate", estimate));
        let took = t.elapsed();
        assert_eq!(resp.status, 200, "served: estimate failed");
        (took, resp.body)
    };

    let mut identical = true;
    for _ in 0..16 {
        let bodies: Vec<Vec<u8>> = services.iter().map(|(svc, _)| one(svc).1).collect();
        identical &= bodies[1..].iter().all(|b| *b == bodies[0]);
    }

    let mut floors = [Duration::MAX; 3];
    for i in 0..samples {
        let mut bodies: [Option<Vec<u8>>; 3] = [None, None, None];
        for k in 0..3 {
            let v = (i + k) % 3;
            let (took, body) = one(&services[v].0);
            floors[v] = floors[v].min(took);
            bodies[v] = Some(body);
        }
        let b0 = bodies[0].take().expect("base body collected");
        identical &= bodies[1..]
            .iter()
            .all(|b| b.as_deref() == Some(b0.as_slice()));
    }

    // Dropping the rate-1 service joins its workers after the queue drains.
    for (svc, dir) in services {
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
    ShadowOverhead {
        base_floor: floors[0],
        off_floor: floors[1],
        on_floor: floors[2],
        identical,
    }
}

/// The timeline-plane side of the overhead gate.
struct TimelineOverhead {
    /// Fastest request with the timeline plane disabled (`--timeline-capacity 0`).
    off_floor: Duration,
    /// Fastest request with the default timeline (360 frames, SLO engine
    /// live). Gated at ≤2% of the disabled floor: the sampler runs on the
    /// obsd ticker thread once a second, so the request path must pay
    /// nothing beyond the metric recording it already does.
    on_floor: Duration,
    /// Whether both variants produced byte-identical response bodies.
    identical: bool,
}

/// Two in-process services — timeline disabled vs the default-on plane —
/// answer identical estimate batches, timed per request and strictly
/// interleaved with a flipping order, exactly like
/// [`measure_served_overhead`].
fn measure_timeline_overhead(scale: f64, samples: usize) -> TimelineOverhead {
    let d = ((200.0 * scale) as usize).max(1024);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x7133);
    let mats: Vec<CsrMatrix> = (0..3)
        .map(|_| gen::rand_uniform(&mut rng, d, d, 0.05))
        .collect();

    let mk_service = |capacity: usize, tag: &str| {
        let dir = std::env::temp_dir().join(format!(
            "mnc-cache-bench-timeline-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServedConfig::new(&dir);
        cfg.timeline_capacity = capacity;
        let svc = EstimationService::new(cfg).expect("served: open catalog");
        for (i, m) in mats.iter().enumerate() {
            let req = served_request("PUT", &format!("/v1/matrices/M{i}"), csr_json(m).as_bytes());
            assert_eq!(svc.handle(&req).status, 201, "served: ingest M{i}");
        }
        (svc, dir)
    };
    let (off_svc, off_dir) = mk_service(0, "off");
    let (on_svc, on_dir) = mk_service(360, "on");

    let estimate = br#"{"dag":[{"leaf":"M0"},{"leaf":"M1"},{"leaf":"M2"},
        {"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}]}"#;
    let one = |svc: &EstimationService| -> (Duration, Vec<u8>) {
        let t = Instant::now();
        let resp = svc.handle(&served_request("POST", "/v1/estimate", estimate));
        let took = t.elapsed();
        assert_eq!(resp.status, 200, "served: estimate failed");
        (took, resp.body)
    };

    let mut identical = true;
    for _ in 0..16 {
        let (_, body_off) = one(&off_svc);
        let (_, body_on) = one(&on_svc);
        identical &= body_off == body_on;
    }

    let mut floors = [Duration::MAX; 2];
    for i in 0..samples {
        let ((off_t, off_b), (on_t, on_b)) = if i % 2 == 0 {
            let off = one(&off_svc);
            let on = one(&on_svc);
            (off, on)
        } else {
            let on = one(&on_svc);
            let off = one(&off_svc);
            (off, on)
        };
        identical &= off_b == on_b;
        floors[0] = floors[0].min(off_t);
        floors[1] = floors[1].min(on_t);
    }
    let _ = std::fs::remove_dir_all(&off_dir);
    let _ = std::fs::remove_dir_all(&on_dir);

    TimelineOverhead {
        off_floor: floors[0],
        on_floor: floors[1],
        identical,
    }
}

fn json_field(name: &str, v: f64) -> String {
    if v.is_finite() {
        format!("\"{name}\": {v}")
    } else {
        format!("\"{name}\": null")
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (obs, rest) = match ObsArgs::parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}\nusage: cache_bench [--check-overhead] {OBS_USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut check_overhead = false;
    for a in &rest {
        match a.as_str() {
            "--check-overhead" => check_overhead = true,
            other => {
                eprintln!(
                    "unknown argument `{other}`\nusage: cache_bench [--check-overhead] {OBS_USAGE}"
                );
                return ExitCode::from(2);
            }
        }
    }

    let scale = env_scale(1.0);
    let reps = env_reps(20);
    // Stdout carries only the JSON record; the banner goes to stderr.
    eprintln!("================================================================");
    eprintln!("cache — EstimationContext: repeated estimation with and without a session");
    eprintln!("{reps} optimizer probes over 4 shared base matrices, scale {scale}.");
    eprintln!("================================================================");

    let mats = probe_matrices((1200.0 * scale).max(40.0) as usize);
    // The probes re-use two DAG structures; estimating each probe with a
    // session costs at most two propagation walks plus cache lookups.
    let dags: Vec<(ExprDag, NodeId)> = (0..2).map(|p| probe_dag(&mats, p)).collect();

    // Uncached: every probe builds all leaf synopses from scratch.
    let t = Instant::now();
    let mut uncached_sum = 0.0;
    for rep in 0..reps {
        let est = MncEstimator::new();
        let (dag, root) = &dags[rep % dags.len()];
        uncached_sum += estimate_root(&est, dag, *root).expect("estimate");
    }
    let uncached = t.elapsed();

    // Cached: one session across all probes, recorder per the obs flags.
    let (cached, cached_sum, mut ctx) = cached_loop(&dags, reps, Some(obs.recorder()));

    // Planner re-costing rides the same session: plans hit warm synopses.
    let est = MncEstimator::new();
    let t = Instant::now();
    let plan = Planner::default()
        .plan_with_context(&est, &dags[0].0, &mut ctx)
        .expect("plan");
    let plan_time = t.elapsed();

    let stats = ctx.stats().clone();
    eprintln!(
        "uncached: {:>10}   ({} probes, mean estimate {:.3e})",
        fmt_duration(uncached),
        reps,
        uncached_sum / reps as f64
    );
    eprintln!(
        "cached  : {:>10}   ({} probes, mean estimate {:.3e})",
        fmt_duration(cached),
        reps,
        cached_sum / reps as f64
    );
    eprintln!(
        "speedup : {:>9.1}x   hit rate {:.0}%",
        uncached.as_secs_f64() / cached.as_secs_f64().max(1e-9),
        stats.hit_rate() * 100.0
    );
    eprintln!(
        "warm re-plan of probe 0: {} (total estimated FLOPs {:.3e})",
        fmt_duration(plan_time),
        plan.total_flops
    );
    eprintln!("\nestimation session:\n{stats}");

    // Observability export (Chrome trace / report) when flags asked for one.
    // The report goes to --metrics or, with an explicit --obs-format and no
    // file, to stderr — stdout is reserved for the stable JSON record below.
    if obs.enabled() {
        let rec = ctx.recorder().clone();
        if let Some(path) = &obs.trace {
            if let Err(e) = std::fs::write(path, rec.report().to_chrome_trace()) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
        let rendered = rec.report().render(obs.format);
        if let Some(path) = &obs.metrics {
            if let Err(e) = std::fs::write(path, &rendered) {
                eprintln!("error: {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {:?} report to {path}", obs.format);
        } else if obs.format_explicit {
            eprint!("{rendered}");
            if !rendered.ends_with('\n') {
                eprintln!();
            }
        }
    }

    // Optional overhead gate: the no-op disabled recorder must stay within
    // 2% of a recorder-free session ("compile-out cheap"), the idle obsd
    // service within 2% of the no-op recorder ("always-on is free"), and
    // no variant may perturb any estimate. The cost of *enabled* tracing
    // is measured and reported but not gated — it depends on how much of
    // the workload is real synopsis work vs cache lookups.
    // The served plane rides the same flag: request tracing on vs off across
    // two in-process services must stay within 2% on the per-request p50 and
    // produce byte-identical estimate bodies.
    let mut overhead_json = "\"overhead\": null".to_string();
    let mut overhead_ok = true;
    if check_overhead {
        let o = measure_overhead(&dags, reps, 7, 10);
        let so = measure_served_overhead(scale, 225);
        let sh = measure_shadow_overhead(scale, 150);
        let tl = measure_timeline_overhead(scale, 150);
        let plain = o.plain.as_secs_f64().max(1e-12);
        let noop = o.noop.as_secs_f64().max(1e-12);
        let noop_ratio = o.noop.as_secs_f64() / plain;
        let traced_ratio = o.traced.as_secs_f64() / plain;
        let obsd_ratio = o.obsd.as_secs_f64() / noop;
        let served_ratio = so.traced_floor.as_secs_f64() / so.plain_floor.as_secs_f64().max(1e-12);
        let shadow_base = sh.base_floor.as_secs_f64().max(1e-12);
        let shadow_off_ratio = sh.off_floor.as_secs_f64() / shadow_base;
        let shadow_on_ratio = sh.on_floor.as_secs_f64() / shadow_base;
        let timeline_ratio = tl.on_floor.as_secs_f64() / tl.off_floor.as_secs_f64().max(1e-12);
        overhead_ok = noop_ratio <= 1.02
            && obsd_ratio <= 1.02
            && o.identical
            && served_ratio <= 1.02
            && so.identical
            && shadow_off_ratio <= 1.02
            && sh.identical
            && timeline_ratio <= 1.02
            && tl.identical;
        eprintln!(
            "overhead: plain {} | no-op recorder {} (ratio {:.4}, limit 1.02) | idle obsd {} (ratio vs no-op {:.4}, limit 1.02) | traced {} (ratio {:.4}, informational), estimates identical: {}",
            fmt_duration(o.plain),
            fmt_duration(o.noop),
            noop_ratio,
            fmt_duration(o.obsd),
            obsd_ratio,
            fmt_duration(o.traced),
            traced_ratio,
            o.identical
        );
        eprintln!(
            "served plane: tracing off floor {} | tracing on floor {} (ratio {:.4}, limit 1.02), estimate bodies identical: {}",
            fmt_duration(so.plain_floor),
            fmt_duration(so.traced_floor),
            served_ratio,
            so.identical
        );
        eprintln!(
            "shadow plane: baseline floor {} | rate 0 floor {} (ratio {:.4}, limit 1.02) | rate 1 floor {} (ratio {:.4}, informational), response bodies identical: {}",
            fmt_duration(sh.base_floor),
            fmt_duration(sh.off_floor),
            shadow_off_ratio,
            fmt_duration(sh.on_floor),
            shadow_on_ratio,
            sh.identical
        );
        eprintln!(
            "timeline plane: disabled floor {} | default-on floor {} (ratio {:.4}, limit 1.02), response bodies identical: {}",
            fmt_duration(tl.off_floor),
            fmt_duration(tl.on_floor),
            timeline_ratio,
            tl.identical
        );
        overhead_json = format!(
            "\"overhead\": {{{}, {}, {}, {}, {}, {}, {}, \"estimates_identical\": {}, {}, {}, {}, \"served_bodies_identical\": {}, {}, {}, {}, {}, {}, \"shadow_bodies_identical\": {}, {}, {}, {}, \"timeline_bodies_identical\": {}, \"ok\": {}}}",
            json_field("plain_s", o.plain.as_secs_f64()),
            json_field("noop_s", o.noop.as_secs_f64()),
            json_field("traced_s", o.traced.as_secs_f64()),
            json_field("obsd_s", o.obsd.as_secs_f64()),
            json_field("noop_ratio", noop_ratio),
            json_field("traced_ratio", traced_ratio),
            json_field("obsd_ratio", obsd_ratio),
            o.identical,
            json_field("served_plain_floor_s", so.plain_floor.as_secs_f64()),
            json_field("served_traced_floor_s", so.traced_floor.as_secs_f64()),
            json_field("served_traced_ratio", served_ratio),
            so.identical,
            json_field("shadow_base_floor_s", sh.base_floor.as_secs_f64()),
            json_field("shadow_off_floor_s", sh.off_floor.as_secs_f64()),
            json_field("shadow_on_floor_s", sh.on_floor.as_secs_f64()),
            json_field("shadow_off_ratio", shadow_off_ratio),
            json_field("shadow_on_ratio", shadow_on_ratio),
            sh.identical,
            json_field("timeline_off_floor_s", tl.off_floor.as_secs_f64()),
            json_field("timeline_on_floor_s", tl.on_floor.as_secs_f64()),
            json_field("timeline_ratio", timeline_ratio),
            tl.identical,
            overhead_ok
        );
    }

    // Stable-schema JSON record on stdout. Field set is append-only: tools
    // may rely on every field below existing in all future versions.
    println!(
        "{{\"schema\": \"mnc.cache_bench.v1\", \"env\": {}, {}, \"reps\": {}, {}, {}, {}, {}, \"synopses_built\": {}, \"cache_hits\": {}, \"cache_misses\": {}, {}, {}, {}}}",
        EnvInfo::capture(scale, reps).to_json(),
        json_field("scale", scale),
        reps,
        json_field("uncached_s", uncached.as_secs_f64()),
        json_field("cached_s", cached.as_secs_f64()),
        json_field(
            "speedup",
            uncached.as_secs_f64() / cached.as_secs_f64().max(1e-9)
        ),
        json_field("hit_rate", stats.hit_rate()),
        stats.builds,
        stats.cache_hits,
        stats.cache_misses,
        json_field("plan_s", plan_time.as_secs_f64()),
        json_field("plan_flops", plan.total_flops),
        overhead_json
    );

    assert!(
        stats.hit_rate() > 0.0,
        "repeated estimation must hit the cache"
    );
    if !overhead_ok {
        eprintln!("observability overhead check FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
