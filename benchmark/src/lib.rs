//! End-to-end benchmark of the MNC estimation stack.
//!
//! Three workloads drive the real `mnc-served` daemon as a child process
//! over loopback; a fourth drives the embedded optimizer in-process. Every
//! answer is checked against an in-process oracle. A plain run reports the
//! end-to-end metrics with tracing off; a traced run reports per-layer
//! metrics and writes its spans. See `benchmark/README.md`.

pub mod client;
pub mod compare;
pub mod daemon;
pub mod inproc;
pub mod inputs;
pub mod layers;
pub mod oracle;
pub mod report;
pub mod served;
pub mod stats;

use std::path::PathBuf;
use std::time::Duration;

use crate::inputs::Workload;
use crate::report::Outcome;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured window.
    pub window: Duration,
    /// Unmeasured warm-up before the window.
    pub warmup: Duration,
    /// Traced run (per-layer metrics) instead of the plain run.
    pub trace: bool,
    /// Client threads (and connections), at most `min(2, nproc)`.
    pub threads: usize,
    /// The daemon binary, for workloads that start one.
    pub daemon: Option<PathBuf>,
    /// Scratch directory for catalogs; removed after the run.
    pub work: PathBuf,
    /// Directory for result and span files.
    pub out: PathBuf,
}

/// Runs one workload and returns its outcome.
pub fn run(cfg: &RunConfig) -> Outcome {
    let inputs = inputs::generate(cfg.workload, cfg.seed);
    let expected = match oracle::expected(&inputs) {
        Ok(e) => e,
        Err(e) => {
            let mut out = Outcome::default();
            out.fail(e);
            return out;
        }
    };
    if cfg.workload == Workload::OptimizerInproc {
        return inproc::run(cfg, &inputs, &expected);
    }
    let Some(bin) = cfg.daemon.clone() else {
        let mut out = Outcome::default();
        out.fail("no daemon binary");
        return out;
    };
    let s = served::Served::new(cfg, cfg.workload, &inputs, &expected, bin);
    if cfg.trace {
        layers::trace_served(&s, layers::span_recorder(), None)
    } else {
        s.run_e2e()
    }
}

/// Nanoseconds as milliseconds.
pub(crate) fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Length of one slice of a measured window.
pub const SLICE: Duration = Duration::from_millis(250);
/// The share of a window's slices, the fastest ones, that the time metrics
/// describe.
pub const BEST_SHARE: f64 = 0.1;

/// A measured window cut into [`SLICE`]s by completion time.
#[derive(Debug, Clone, Default)]
pub(crate) struct Slices {
    /// Operations completed in each slice.
    pub ops: Vec<u64>,
    /// Latency of each successful operation, ms, by slice.
    pub lat_ms: Vec<Vec<f64>>,
}

impl Slices {
    /// Empty slices covering `window` (a trailing part slice is dropped).
    pub fn new(window: Duration) -> Slices {
        let n = (window.as_secs_f64() / SLICE.as_secs_f64()) as usize;
        Slices {
            ops: vec![0; n],
            lat_ms: vec![Vec::new(); n],
        }
    }

    /// Counts an operation completed `at` after the window's start, with
    /// its latency when it succeeded.
    pub fn record(&mut self, at: Duration, latency_ms: Option<f64>) {
        let i = (at.as_secs_f64() / SLICE.as_secs_f64()) as usize;
        if i < self.ops.len() {
            self.ops[i] += 1;
            if let Some(l) = latency_ms {
                self.lat_ms[i].push(l);
            }
        }
    }

    /// Adds another client's slices of the same window.
    pub fn merge(&mut self, other: Slices) {
        for (a, b) in self.ops.iter_mut().zip(other.ops) {
            *a += b;
        }
        for (a, b) in self.lat_ms.iter_mut().zip(other.lat_ms) {
            a.extend(b);
        }
    }

    /// Every latency of the window, ascending.
    pub fn all_latencies(&self) -> Vec<f64> {
        stats::sorted(&self.lat_ms.concat())
    }
}

/// The value the best [`BEST_SHARE`] of `values` reach: the nearest-rank
/// quantile counted from the best end. NaN when empty.
fn best(values: &[f64], higher_is_better: bool) -> f64 {
    let mut v = stats::sorted(values);
    if higher_is_better {
        v.reverse();
    }
    stats::nearest_rank(&v, BEST_SHARE).unwrap_or(f64::NAN)
}

/// Raw measurements behind the end-to-end metrics of one run.
#[derive(Debug)]
pub(crate) struct E2e {
    /// Each set-up's duration, seconds.
    pub setup_s: Vec<f64>,
    /// Operations started in the window.
    pub ops: u64,
    /// Window start to the last completion, seconds.
    pub elapsed_s: f64,
    /// The window's operations and latencies, by slice.
    pub slices: Slices,
    /// Peak resident set of the estimating process, bytes.
    pub peak_rss_bytes: u64,
    /// Catalog size after set-up, bytes: on disk for the daemon, the
    /// serialized leaf sketches in-process.
    pub catalog_bytes: u64,
    /// Relative-error geomean and the templates it had to leave out.
    pub rel_error: (f64, usize),
}

impl E2e {
    /// Records the end-to-end metrics, in `BENCHMARK.json` order, plus the
    /// samples behind them for the result file.
    ///
    /// Throughput and median latency describe the window's fastest tenth of
    /// slices. On a shared host, other tenants slow stretches of a run by a
    /// fifth or more. A slower build slows every slice, so the fastest ones
    /// still show it; a stretch of contention is left out.
    pub fn record(self, out: &mut Outcome) {
        let per_s = 1.0 / SLICE.as_secs_f64();
        let rates: Vec<f64> = self.slices.ops.iter().map(|&n| n as f64 * per_s).collect();
        let p50s: Vec<f64> = self
            .slices
            .lat_ms
            .iter()
            .filter_map(|l| stats::nearest_rank(&stats::sorted(l), 0.5))
            .collect();
        let lat = self.slices.all_latencies();
        let (q, p99) = stats::tail(&lat, 0.99).unwrap_or((0.99, f64::NAN));
        out.metric("setup_s", stats::median(&self.setup_s), "s");
        out.metric("throughput_ops_s", best(&rates, true), "ops/s");
        out.metric("latency_p50_ms", best(&p50s, false), "ms");
        out.metric("peak_rss_mb", self.peak_rss_bytes as f64 / 1e6, "MB");
        out.metric("catalog_bytes", self.catalog_bytes as f64, "B");
        out.metric("rel_error_geomean", self.rel_error.0, "ratio");
        out.info("latency_samples", lat.len() as f64);
        out.info(
            "latency_window_p50_ms",
            stats::nearest_rank(&lat, 0.5).unwrap_or(f64::NAN),
        );
        out.info("latency_window_p99_ms", p99);
        out.info("latency_tail_quantile", q);
        out.info("setup_samples", self.setup_s.len() as f64);
        out.info("rel_error_excluded", self.rel_error.1 as f64);
        out.info("window_ops", self.ops as f64);
        out.info("window_s", self.elapsed_s);
        out.info(
            "throughput_mean_ops_s",
            self.ops as f64 / self.elapsed_s.max(1e-9),
        );
        out.info("slice_s", SLICE.as_secs_f64());
        out.info_list("slice_ops_s", &rates);
        out.info_list("slice_latency_p50_ms", &p50s);
        out.info_list("setup_s_samples", &self.setup_s);
    }
}
