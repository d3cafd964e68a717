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
//! `--check-overhead` additionally gates every observability plane
//! against its off variant with one A/B harness ([`ab_floor`]): variants
//! run interleaved in a rotating order, each keeps its fastest sample (its
//! *floor*), and every variant's output must be byte-identical on every
//! sample. A plane passes when its floor ratio stays within 2%:
//!
//! * **recorder** — the cached loop with no recorder, the no-op disabled
//!   recorder (gated against no recorder), an enabled recorder
//!   (informational), and the no-op recorder on a live but idle obsd
//!   service (gated against the no-op recorder); estimate sums must match
//!   bit for bit;
//! * **served request tracing** — in-process `mnc-served` services with
//!   tracing off and on answer the same `POST /v1/estimate`;
//! * **shadow estimation** — default config, explicit `--shadow-rate 0`
//!   (gated: the disabled plane is one branch per request) and
//!   `--shadow-rate 1` (informational); shadowing may never change what
//!   the client sees;
//! * **timeline** — `--timeline-capacity 0` against the default-on plane.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use mnc_bench::perf::{probe_dag, probe_matrices};
use mnc_bench::served_load::csr_json;
use mnc_bench::{env_reps, env_scale, fmt_duration, EnvInfo, ObsArgs, OBS_USAGE};
use mnc_estimators::MncEstimator;
use mnc_expr::{estimate_root, EstimationContext, ExprDag, NodeId, Planner, Recorder};
use mnc_matrix::{gen, CsrMatrix};
use mnc_obs::export::json_f64;
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

/// One run of an A/B variant: its wall time plus the bytes every variant
/// must reproduce exactly (a response body, or an estimate sum's
/// `to_bits`).
type Sample = (Duration, Vec<u8>);

/// The overhead gate's one A/B harness. Runs `warmup` untimed passes, then
/// `samples` timed passes; each pass runs every variant once, rotating
/// which runs first (`(i + k) % n`) so frequency scaling and cache warmth
/// cancel out. Returns each variant's floor — its fastest timed sample, the
/// noise-free estimate of deterministic work, which is where a plane's cost
/// lives — and whether every pass, warm-up included, produced byte-identical
/// output across variants.
fn ab_floor(
    variants: &mut [impl FnMut() -> Sample],
    warmup: usize,
    samples: usize,
) -> (Vec<Duration>, bool) {
    let n = variants.len();
    let mut floors = vec![Duration::MAX; n];
    let mut identical = true;
    let passes = (0..warmup).map(|i| (i, false));
    for (i, timed) in passes.chain((0..samples).map(|i| (i, true))) {
        let mut outs = vec![Vec::new(); n];
        for k in 0..n {
            let v = (i + k) % n;
            let (took, out) = variants[v]();
            if timed {
                floors[v] = floors[v].min(took);
            }
            outs[v] = out;
        }
        identical &= outs.iter().all(|o| *o == outs[0]);
    }
    (floors, identical)
}

/// The recorder side of the gate: the cached loop with no recorder, the
/// no-op disabled recorder, an enabled recorder, and the no-op recorder
/// wired into a live [`ObsDaemon`] (HTTP endpoint bound, ticker refreshing,
/// flight ring allocated but idle — the production always-on
/// configuration). Each sample times `inner` back-to-back loops: single
/// loops finish in well under a millisecond, where scheduler jitter alone
/// exceeds the 2% bound. One daemon is shared across the whole measurement,
/// so the obsd variant pays exactly what a long-running service pays: an
/// installed sink and background threads, not server start-up.
fn measure_overhead(
    dags: &[(ExprDag, NodeId)],
    reps: usize,
    rounds: usize,
    inner: usize,
) -> (Vec<Duration>, bool) {
    let daemon = ObsDaemon::new(ObsdConfig::default());
    let mut server = daemon
        .serve("127.0.0.1:0")
        .expect("bind overhead-check endpoint on loopback");
    let daemon = &daemon;
    let mut variants: Vec<_> = (0..4)
        .map(|variant| {
            move || {
                let mut total = Duration::ZERO;
                let mut sum = 0.0f64;
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
                (total, sum.to_bits().to_le_bytes().to_vec())
            }
        })
        .collect();
    let out = ab_floor(&mut variants, 1, rounds);
    server.shutdown();
    out
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

/// The served planes' side of the gate: one in-process service per
/// `tweaks` entry (applied to a default [`ServedConfig`]), each ingesting
/// the same three seeded `d × d` matrices, answering one `POST /v1/estimate`
/// per sample through direct [`Handler::handle`] calls so no socket noise
/// lands in the measurement. Timing per request, strictly interleaved,
/// matters: batch-level timings on a shared single-CPU box swing ±8% from
/// time-correlated noise, while the fastest request out of hundreds is
/// stable. `d` floors at `min_dim`, a representative request size: a plane
/// costs a fixed few hundred nanoseconds per request, and gating a 2% ratio
/// against a degenerate microsecond-sized walk would measure clock reads.
fn served_floors(
    plane: &str,
    scale: f64,
    min_dim: usize,
    seed: u64,
    tweaks: &[fn(&mut ServedConfig)],
    warmup: usize,
    samples: usize,
) -> (Vec<Duration>, bool) {
    let d = ((200.0 * scale) as usize).max(min_dim);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mats: Vec<CsrMatrix> = (0..3)
        .map(|_| gen::rand_uniform(&mut rng, d, d, 0.05))
        .collect();
    let services: Vec<_> = tweaks
        .iter()
        .enumerate()
        .map(|(v, tweak)| {
            let dir = std::env::temp_dir().join(format!(
                "mnc-cache-bench-{plane}-{v}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = ServedConfig::new(&dir);
            tweak(&mut cfg);
            let svc = EstimationService::new(cfg).expect("served: open catalog");
            for (i, m) in mats.iter().enumerate() {
                let req =
                    served_request("PUT", &format!("/v1/matrices/M{i}"), csr_json(m).as_bytes());
                assert_eq!(svc.handle(&req).status, 201, "served: ingest M{i}");
            }
            (svc, dir)
        })
        .collect();

    let estimate = br#"{"dag":[{"leaf":"M0"},{"leaf":"M1"},{"leaf":"M2"},
        {"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}]}"#;
    let mut variants: Vec<_> = services
        .iter()
        .map(|(svc, _)| {
            move || {
                let t = Instant::now();
                let resp = svc.handle(&served_request("POST", "/v1/estimate", estimate));
                let took = t.elapsed();
                assert_eq!(resp.status, 200, "served: estimate failed");
                (took, resp.body)
            }
        })
        .collect();
    let out = ab_floor(&mut variants, warmup, samples);
    // Dropping a shadowing service joins its workers after the queue drains.
    for (svc, dir) in services {
        drop(svc);
        let _ = std::fs::remove_dir_all(&dir);
    }
    out
}

/// One row of the overhead gate's table: `(JSON key, numerator,
/// denominator, limit)` over a plane's floor indices; a `None` limit is
/// reported for information, not gated.
type Ratio = (&'static str, usize, usize, Option<f64>);

/// The ≤2% overhead limit every gated ratio is held to.
const LIMIT: Option<f64> = Some(1.02);

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
    let est = MncEstimator::new();
    let t = Instant::now();
    let mut uncached_sum = 0.0;
    for rep in 0..reps {
        let (dag, root) = &dags[rep % dags.len()];
        uncached_sum += estimate_root(&est, dag, *root).expect("estimate");
    }
    let uncached = t.elapsed();

    // Cached: one session across all probes, recorder per the obs flags.
    let (cached, cached_sum, mut ctx) = cached_loop(&dags, reps, Some(obs.recorder()));

    // Planner re-costing rides the same session: plans hit warm synopses.
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

    // Optional overhead gate, one table of ratios over best-of floors: the
    // no-op disabled recorder within 2% of a recorder-free session
    // ("compile-out cheap"), the idle obsd service within 2% of the no-op
    // recorder ("always-on is free"), and request tracing, an explicit
    // shadow rate 0 and the default-on timeline each within 2% of their
    // served plane's off variant on the per-request floor. No variant may
    // change an estimate or a response byte. Enabled tracing and shadow
    // rate 1 are reported, not gated: their cost depends on the workload.
    let mut overhead_json = "\"overhead\": null".to_string();
    let mut overhead_ok = true;
    if check_overhead {
        let planes: [(&[&str], _, &[Ratio], &str); 4] = [
            (
                &["plain_s", "noop_s", "traced_s", "obsd_s"],
                measure_overhead(&dags, reps, 7, 10),
                &[
                    ("noop_ratio", 1, 0, LIMIT),
                    ("traced_ratio", 2, 0, None),
                    ("obsd_ratio", 3, 1, LIMIT),
                ],
                "estimates_identical",
            ),
            (
                &["served_plain_floor_s", "served_traced_floor_s"],
                served_floors(
                    "served",
                    scale,
                    1536,
                    0x0BE4,
                    &[|c| c.tracing = false, |c| c.tracing = true],
                    16,
                    225,
                ),
                &[("served_traced_ratio", 1, 0, LIMIT)],
                "served_bodies_identical",
            ),
            (
                &[
                    "shadow_base_floor_s",
                    "shadow_off_floor_s",
                    "shadow_on_floor_s",
                ],
                served_floors(
                    "shadow",
                    scale,
                    1024,
                    0x54AD,
                    &[|_| {}, |c| c.shadow_rate = 0.0, |c| c.shadow_rate = 1.0],
                    16,
                    150,
                ),
                &[
                    ("shadow_off_ratio", 1, 0, LIMIT),
                    ("shadow_on_ratio", 2, 0, None),
                ],
                "shadow_bodies_identical",
            ),
            (
                &["timeline_off_floor_s", "timeline_on_floor_s"],
                served_floors(
                    "timeline",
                    scale,
                    1024,
                    0x7133,
                    &[|c| c.timeline_capacity = 0, |c| c.timeline_capacity = 360],
                    16,
                    150,
                ),
                &[("timeline_ratio", 1, 0, LIMIT)],
                "timeline_bodies_identical",
            ),
        ];
        let mut fields = Vec::new();
        for (keys, (floors, identical), ratios, identical_key) in planes {
            let mut line = Vec::new();
            for (key, floor) in keys.iter().zip(&floors) {
                fields.push(format!("\"{key}\": {}", json_f64(floor.as_secs_f64())));
                line.push(format!("{key} {}", fmt_duration(*floor)));
            }
            for &(key, num, den, limit) in ratios {
                let ratio = floors[num].as_secs_f64() / floors[den].as_secs_f64().max(1e-12);
                fields.push(format!("\"{key}\": {}", json_f64(ratio)));
                match limit {
                    Some(limit) => {
                        overhead_ok &= ratio <= limit;
                        line.push(format!("{key} {ratio:.4} (limit {limit})"));
                    }
                    None => line.push(format!("{key} {ratio:.4} (informational)")),
                }
            }
            overhead_ok &= identical;
            fields.push(format!("\"{identical_key}\": {identical}"));
            line.push(format!("{identical_key}: {identical}"));
            eprintln!("overhead: {}", line.join(" | "));
        }
        overhead_json = format!(
            "\"overhead\": {{{}, \"ok\": {overhead_ok}}}",
            fields.join(", ")
        );
    }

    // Stable-schema JSON record on stdout. Field set is append-only: tools
    // may rely on every field below existing in all future versions.
    println!(
        "{{\"schema\": \"mnc.cache_bench.v1\", \"env\": {}, \"scale\": {}, \"reps\": {}, \"uncached_s\": {}, \"cached_s\": {}, \"speedup\": {}, \"hit_rate\": {}, \"synopses_built\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"plan_s\": {}, \"plan_flops\": {}, {}}}",
        EnvInfo::capture(scale, reps).to_json(),
        json_f64(scale),
        reps,
        json_f64(uncached.as_secs_f64()),
        json_f64(cached.as_secs_f64()),
        json_f64(uncached.as_secs_f64() / cached.as_secs_f64().max(1e-9)),
        json_f64(stats.hit_rate()),
        stats.builds,
        stats.cache_hits,
        stats.cache_misses,
        json_f64(plan_time.as_secs_f64()),
        json_f64(plan.total_flops),
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

#[cfg(test)]
mod tests {
    use std::cell::RefCell;

    use super::*;

    /// Spins for `d` and reports the measured time, with fixed output bytes.
    fn busy(d: Duration) -> Sample {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
        (t.elapsed(), vec![7; 8])
    }

    #[test]
    fn a_variant_half_again_slower_trips_the_limit() {
        let mut variants = [200u64, 300].map(|us| move || busy(Duration::from_micros(us)));
        let (floors, identical) = ab_floor(&mut variants, 2, 20);
        assert!(identical);
        let ratio = floors[1].as_secs_f64() / floors[0].as_secs_f64();
        assert!(ratio > 1.02, "1.5x slower variant read ratio {ratio}");
    }

    #[test]
    fn the_floor_is_the_fastest_timed_sample() {
        // Scripted times per pass: the warm-up pass is fastest but must
        // not count, and the fastest timed pass is neither first nor last.
        let script = [1u64, 40, 25, 10, 30, 20];
        let mut variants: Vec<_> = (0..2u64)
            .map(|v| {
                let mut pass = 0;
                move || {
                    let took = Duration::from_millis(script[pass] + v);
                    pass += 1;
                    (took, Vec::new())
                }
            })
            .collect();
        let (floors, _) = ab_floor(&mut variants, 1, script.len() - 1);
        let millis: Vec<u128> = floors.iter().map(Duration::as_millis).collect();
        assert_eq!(millis, [10, 11]);
    }

    /// Runs two variants whose bytes differ in one position on pass
    /// `differ_at` only (`None`: never).
    fn identical_with_one_difference(differ_at: Option<usize>) -> bool {
        let mut variants: Vec<_> = (0..2)
            .map(|v| {
                let mut pass = 0;
                move || {
                    let mut out = vec![0u8; 16];
                    if v == 1 && Some(pass) == differ_at {
                        out[5] = 1;
                    }
                    pass += 1;
                    (Duration::from_nanos(1), out)
                }
            })
            .collect();
        ab_floor(&mut variants, 3, 5).1
    }

    #[test]
    fn one_differing_byte_clears_identical_in_warmup_and_samples() {
        assert!(identical_with_one_difference(None));
        for pass in 0..8 {
            assert!(
                !identical_with_one_difference(Some(pass)),
                "difference on pass {pass} went unnoticed"
            );
        }
    }

    #[test]
    fn every_variant_runs_first_equally_often() {
        let n = 3;
        let log = RefCell::new(Vec::new());
        let mut variants: Vec<_> = (0..n)
            .map(|v| {
                let log = &log;
                move || {
                    log.borrow_mut().push(v);
                    (Duration::from_nanos(1), Vec::new())
                }
            })
            .collect();
        ab_floor(&mut variants, 3, 9);
        let log = log.into_inner();
        assert_eq!(log.len(), 12 * n);
        let mut firsts = [0; 3];
        for pass in log.chunks(n) {
            let mut seen = pass.to_vec();
            seen.sort_unstable();
            assert_eq!(seen, [0, 1, 2], "every variant runs once per pass");
            firsts[pass[0]] += 1;
        }
        assert_eq!(firsts, [4, 4, 4]);
    }
}
