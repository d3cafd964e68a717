//! The timeline plane: fixed-memory, multi-resolution telemetry history.
//!
//! Every point-in-time signal the daemon already aggregates — counters,
//! gauges, and log₂ latency histograms on the [`MetricSnapshot`] ticker —
//! is tailed here into **fixed-capacity ring buffers at three
//! resolutions** (1s, 10s, 60s), so "did p99 or accuracy degrade over the
//! last ten minutes?" is answerable from the process itself, without an
//! external scraper.
//!
//! ## Encoding
//!
//! * **counters** store per-interval *deltas* — deltas sum exactly, so
//!   any downsample or re-aggregation is exact, never an approximation;
//! * **gauges** store the last sampled level (downsampling keeps the most
//!   recent);
//! * **histograms** store per-interval *bucket deltas* plus count/sum —
//!   bucket deltas add, so merged frames have union quantiles (the same
//!   no-mean-of-means argument as [`LatencyHisto::merge`]).
//!
//! ## Downsample-on-evict
//!
//! The 1s ring does not silently forget: each frame it evicts is folded
//! into a staging frame, and every 10 evictions that staging frame is
//! pushed into the 10s ring; 10s evictions cascade into 60s the same way
//! (factor 6). Because the folds are the exact merges above, **every 10s
//! frame equals the merge of exactly the ten 1s frames it replaced**, and
//! every 60s frame the merge of six 10s frames — property-tested in
//! `tests/timeline_props.rs`. With the default capacity of 360 frames per
//! ring this retains 6 minutes at 1s, 1 hour at 10s, and 6 hours at 60s
//! in O(capacity × series) memory, allocated at registration and never
//! again (proven in `tests/timeline_alloc.rs`).
//!
//! ## Concurrency
//!
//! One claim word — the interior mutex, taken only with `try_lock` by
//! *everyone* — serializes access the same way the flight ring's
//! seqlock-style slot claims do: nobody ever blocks. The sampler (ticker)
//! skips a contended second entirely; because counter deltas are computed
//! against the last *successful* sample, the skipped second folds into
//! the next frame with nothing lost. Readers (scrape-path JSON renders)
//! retry briefly and copy frames out before rendering, so they hold the
//! claim for a memcpy, not a serialization.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use mnc_obs::export::json_escape;
use mnc_obs::metrics::{bucket_of, bucket_quantile, NBUCKETS};
use mnc_obs::prometheus::split_labeled_name;
use mnc_obs::ring::Ring;
use mnc_obs::{LatencyHisto, MetricSnapshot};

use crate::slo::{SloConfig, SloEngine, SloSample, SloTransition, N_OBJECTIVES};

/// The three retention resolutions, coarsest last.
pub const RESOLUTIONS: [&str; 3] = ["1s", "10s", "60s"];
/// Eviction cascade factors: 10 × 1s → 10s, 6 × 10s → 60s.
const FACTORS: [u32; 2] = [10, 6];

/// Timeline sizing and the SLO objectives evaluated on top of it.
#[derive(Debug, Clone)]
pub struct TimelineConfig {
    /// Whether the plane runs at all.
    pub enabled: bool,
    /// Frames retained per ring per resolution.
    pub capacity: usize,
    /// Most scalar (counter/gauge) series tracked; later registrations are
    /// counted in `dropped_series` and ignored.
    pub max_scalar_series: usize,
    /// Most histogram series tracked.
    pub max_histo_series: usize,
    /// SLO objectives and window geometry.
    pub slo: SloConfig,
}

impl Default for TimelineConfig {
    fn default() -> Self {
        TimelineConfig {
            enabled: true,
            capacity: 360,
            max_scalar_series: 256,
            max_histo_series: 32,
            slo: SloConfig::default(),
        }
    }
}

// ---------------------------------------------------------------------------
// Frames and rings
// ---------------------------------------------------------------------------

/// One scalar frame: counter delta or last gauge level over the interval
/// ending at `t_s` (unix seconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScalarFrame {
    /// Unix second the interval ended.
    pub t_s: u64,
    /// Counter delta, or the gauge level at sample time.
    pub v: i64,
}

/// One histogram frame: bucket deltas over the interval ending at `t_s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistoFrame {
    /// Unix second the interval ended.
    pub t_s: u64,
    /// Observations in the interval.
    pub count: u64,
    /// Sum of observations in the interval (saturating).
    pub sum: u64,
    /// Largest observation seen *up to* the interval's end with a nonzero
    /// count (the source histogram's cumulative max — an upper bound for
    /// interval quantile clamping, exact whenever the max is recent).
    pub max: u64,
    /// Per-bucket observation deltas ([`bucket_of`] indexing).
    pub buckets: [u32; NBUCKETS],
}

impl Default for HistoFrame {
    fn default() -> Self {
        HistoFrame {
            t_s: 0,
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; NBUCKETS],
        }
    }
}

impl HistoFrame {
    /// Exact merge: buckets/count/sum add, max takes the max, the stamp
    /// takes the later interval end.
    pub fn merge(&mut self, other: &HistoFrame) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.t_s = self.t_s.max(other.t_s);
    }

    /// The `q`-quantile over this frame's bucket deltas (upper bucket
    /// bound, clamped to `max`); 0 when empty — the same
    /// [`bucket_quantile`] walk as [`LatencyHisto::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        bucket_quantile(
            self.buckets.iter().map(|&c| u64::from(c)),
            self.count,
            self.max,
            q,
        )
    }
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

/// How a scalar series contributes to SLO evaluation, decided once at
/// registration (label parsing never runs on the sampling path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SloClass {
    None,
    /// A `served.requests{...}` counter; `bad` when status is 5xx or 429.
    Request {
        bad: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScalarKind {
    Counter,
    Gauge,
}

struct ScalarSeries {
    name: String,
    kind: ScalarKind,
    class: SloClass,
    /// Last raw counter value (deltas are computed against this).
    last_raw: u64,
    rings: [Ring<ScalarFrame>; 3],
    /// Downsample staging: evictions folding toward the next resolution.
    pending: [ScalarFrame; 2],
    pending_n: [u32; 2],
}

impl ScalarSeries {
    fn push(&mut self, frame: ScalarFrame) {
        let is_gauge = self.kind == ScalarKind::Gauge;
        let mut evicted = self.rings[0].push(frame);
        for (level, &factor) in FACTORS.iter().enumerate() {
            let Some(e) = evicted else { return };
            let p = &mut self.pending[level];
            if self.pending_n[level] == 0 {
                *p = e;
            } else {
                p.v = if is_gauge {
                    e.v
                } else {
                    p.v.saturating_add(e.v)
                };
                p.t_s = p.t_s.max(e.t_s);
            }
            self.pending_n[level] += 1;
            if self.pending_n[level] < factor {
                return;
            }
            let staged = *p;
            self.pending_n[level] = 0;
            evicted = self.rings[level + 1].push(staged);
        }
    }
}

struct HistoSeries {
    name: String,
    /// Whether this is the SLO latency objective's series.
    is_latency: bool,
    /// Last cumulative histogram (deltas are computed against this). The
    /// bucket array lives inline — replacing it never allocates.
    last: LatencyHisto,
    rings: [Ring<HistoFrame>; 3],
    pending: [HistoFrame; 2],
    pending_n: [u32; 2],
}

impl HistoSeries {
    fn push(&mut self, frame: HistoFrame) {
        let mut evicted = self.rings[0].push(frame);
        for (level, &factor) in FACTORS.iter().enumerate() {
            let Some(e) = evicted else { return };
            if self.pending_n[level] == 0 {
                self.pending[level] = e;
            } else {
                self.pending[level].merge(&e);
            }
            self.pending_n[level] += 1;
            if self.pending_n[level] < factor {
                return;
            }
            let staged = self.pending[level];
            self.pending_n[level] = 0;
            evicted = self.rings[level + 1].push(staged);
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeriesRef {
    Scalar(usize),
    Histo(usize),
    /// Registration refused (series cap); remembered so the drop is
    /// counted once and never re-attempted.
    Dropped,
}

struct Inner {
    index: HashMap<String, SeriesRef>,
    scalars: Vec<ScalarSeries>,
    histos: Vec<HistoSeries>,
    last_sample_s: u64,
    samples: u64,
}

// ---------------------------------------------------------------------------
// Timeline
// ---------------------------------------------------------------------------

/// Lock-free summary for `/v1/status`.
#[derive(Debug, Clone, Copy)]
pub struct TimelineStats {
    /// Whether the plane runs.
    pub enabled: bool,
    /// Frames per ring per resolution.
    pub capacity: usize,
    /// Registered series (scalar + histogram).
    pub series: usize,
    /// Registrations refused at the series caps.
    pub dropped_series: u64,
    /// Successful sampling passes.
    pub samples: u64,
    /// Sampling passes skipped because a reader held the claim.
    pub contended_samples: u64,
    /// Frames currently retained per resolution (longest series).
    pub frames: [usize; 3],
}

/// A `/v1/debug/timeline` selection.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimelineQuery<'a> {
    /// Keep series whose metric name starts with this prefix.
    pub metric: Option<&'a str>,
    /// Keep one resolution (index into [`RESOLUTIONS`]).
    pub resolution: Option<usize>,
    /// Keep frames with `t_s > since` (unix seconds).
    pub since_s: u64,
}

/// The timeline plane. See the module docs.
pub struct Timeline {
    config: TimelineConfig,
    /// Threshold bucket for the latency objective (precomputed).
    latency_bad_above: usize,
    inner: Mutex<Inner>,
    slo: SloEngine,
    /// Fast-path gate: the ticker runs 4×/s but frames are 1/s.
    last_sample_s: AtomicU64,
    series_count: AtomicU64,
    dropped_series: AtomicU64,
    contended_samples: AtomicU64,
    samples: AtomicU64,
}

impl Timeline {
    /// A timeline per `config`; series storage is allocated lazily at
    /// registration, bounded by the configured caps.
    pub fn new(config: TimelineConfig) -> Self {
        let latency_bad_above = bucket_of(config.slo.latency_p99_ms.saturating_mul(1_000_000));
        let slo = SloEngine::new(config.slo.clone());
        Timeline {
            latency_bad_above,
            slo,
            inner: Mutex::new(Inner {
                index: HashMap::new(),
                scalars: Vec::new(),
                histos: Vec::new(),
                last_sample_s: 0,
                samples: 0,
            }),
            last_sample_s: AtomicU64::new(0),
            series_count: AtomicU64::new(0),
            dropped_series: AtomicU64::new(0),
            contended_samples: AtomicU64::new(0),
            samples: AtomicU64::new(0),
            config,
        }
    }

    /// Whether the plane runs.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// The SLO engine riding this timeline.
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Tails one merged snapshot into the rings and evaluates the SLO
    /// engine. Gated to at most one frame per `now_s` second; a contended
    /// claim skips the pass (the skipped interval folds into the next
    /// frame's deltas — see the module docs). Returns SLO alert edges for
    /// the caller to stamp into the flight recorder.
    pub fn sample_at(
        &self,
        now_s: u64,
        snap: &MetricSnapshot,
        drift_degraded: bool,
    ) -> [Option<SloTransition>; N_OBJECTIVES] {
        const NO_EDGES: [Option<SloTransition>; N_OBJECTIVES] = [None; N_OBJECTIVES];
        if !self.config.enabled || now_s <= self.last_sample_s.load(Ordering::Relaxed) {
            return NO_EDGES;
        }
        let Ok(mut inner) = self.inner.try_lock() else {
            self.contended_samples.fetch_add(1, Ordering::Relaxed);
            return NO_EDGES;
        };
        if now_s <= inner.last_sample_s {
            return NO_EDGES;
        }
        inner.last_sample_s = now_s;
        self.last_sample_s.store(now_s, Ordering::Relaxed);

        let mut slo_sample = SloSample {
            drift_degraded,
            ..SloSample::default()
        };

        for (name, &raw) in &snap.counters {
            let Some(at) = self.resolve(&mut inner, name, ScalarKind::Counter) else {
                continue;
            };
            let s = &mut inner.scalars[at];
            let delta = raw.saturating_sub(s.last_raw);
            s.last_raw = raw;
            if let SloClass::Request { bad } = s.class {
                slo_sample.avail_total += delta;
                if bad {
                    slo_sample.avail_bad += delta;
                }
            }
            s.push(ScalarFrame {
                t_s: now_s,
                v: i64::try_from(delta).unwrap_or(i64::MAX),
            });
        }
        for (name, &level) in &snap.gauges {
            let Some(at) = self.resolve(&mut inner, name, ScalarKind::Gauge) else {
                continue;
            };
            inner.scalars[at].push(ScalarFrame {
                t_s: now_s,
                v: level,
            });
        }
        for (name, h) in &snap.histograms {
            let Some(at) = self.resolve_histo(&mut inner, name) else {
                continue;
            };
            let s = &mut inner.histos[at];
            let mut frame = HistoFrame {
                t_s: now_s,
                count: h.count().saturating_sub(s.last.count()),
                sum: h.sum().saturating_sub(s.last.sum()),
                max: 0,
                buckets: [0; NBUCKETS],
            };
            for (k, b) in frame.buckets.iter_mut().enumerate() {
                let d = h.buckets()[k].saturating_sub(s.last.buckets()[k]);
                *b = u32::try_from(d).unwrap_or(u32::MAX);
            }
            if frame.count > 0 {
                frame.max = h.max();
            }
            if s.is_latency {
                slo_sample.lat_total += frame.count;
                slo_sample.lat_bad += frame
                    .buckets
                    .iter()
                    .enumerate()
                    .skip(self.latency_bad_above + 1)
                    .map(|(_, &c)| u64::from(c))
                    .sum::<u64>();
            }
            s.last = h.clone();
            s.push(frame);
        }

        inner.samples += 1;
        self.samples.fetch_add(1, Ordering::Relaxed);
        // Release the claim before the engine takes its own (uncontended)
        // lock — readers blocked on us get in sooner.
        drop(inner);
        self.slo.observe(&slo_sample)
    }

    /// Index lookup with bounded, tombstoned registration.
    fn resolve(&self, inner: &mut Inner, name: &str, kind: ScalarKind) -> Option<usize> {
        match inner.index.get(name) {
            Some(SeriesRef::Scalar(i)) => return Some(*i),
            Some(_) => return None,
            None => {}
        }
        if inner.scalars.len() >= self.config.max_scalar_series {
            inner.index.insert(name.to_string(), SeriesRef::Dropped);
            self.dropped_series.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let class = match kind {
            ScalarKind::Counter => classify_counter(name),
            ScalarKind::Gauge => SloClass::None,
        };
        let at = inner.scalars.len();
        inner.scalars.push(ScalarSeries {
            name: name.to_string(),
            kind,
            class,
            last_raw: 0,
            rings: std::array::from_fn(|_| Ring::new(self.config.capacity)),
            pending: [ScalarFrame::default(); 2],
            pending_n: [0; 2],
        });
        inner.index.insert(name.to_string(), SeriesRef::Scalar(at));
        self.series_count.fetch_add(1, Ordering::Relaxed);
        Some(at)
    }

    fn resolve_histo(&self, inner: &mut Inner, name: &str) -> Option<usize> {
        match inner.index.get(name) {
            Some(SeriesRef::Histo(i)) => return Some(*i),
            Some(_) => return None,
            None => {}
        }
        if inner.histos.len() >= self.config.max_histo_series {
            inner.index.insert(name.to_string(), SeriesRef::Dropped);
            self.dropped_series.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let at = inner.histos.len();
        inner.histos.push(HistoSeries {
            name: name.to_string(),
            is_latency: name == self.config.slo.latency_metric,
            last: LatencyHisto::new(),
            rings: std::array::from_fn(|_| Ring::new(self.config.capacity)),
            pending: [HistoFrame::default(); 2],
            pending_n: [0; 2],
        });
        inner.index.insert(name.to_string(), SeriesRef::Histo(at));
        self.series_count.fetch_add(1, Ordering::Relaxed);
        Some(at)
    }

    /// Lock-free plane summary (frame counts claim briefly; on contention
    /// they read 0 rather than block).
    pub fn stats(&self) -> TimelineStats {
        let frames = match self.inner.try_lock() {
            Ok(inner) => {
                let mut frames = [0usize; 3];
                for (r, slot) in frames.iter_mut().enumerate() {
                    let s = inner.scalars.iter().map(|s| s.rings[r].len()).max();
                    let h = inner.histos.iter().map(|s| s.rings[r].len()).max();
                    *slot = s.unwrap_or(0).max(h.unwrap_or(0));
                }
                frames
            }
            Err(_) => [0; 3],
        };
        TimelineStats {
            enabled: self.config.enabled,
            capacity: self.config.capacity,
            series: self.series_count.load(Ordering::Relaxed) as usize,
            dropped_series: self.dropped_series.load(Ordering::Relaxed),
            samples: self.samples.load(Ordering::Relaxed),
            contended_samples: self.contended_samples.load(Ordering::Relaxed),
            frames,
        }
    }

    /// Contributes the plane's own series — `slo.*` and `timeline.*` — to
    /// the daemon's service snapshot (whence `/metrics` renders them as
    /// `mnc_slo_*` / `mnc_timeline_*`).
    pub fn contribute_metrics(&self, snap: &mut MetricSnapshot) {
        if !self.config.enabled {
            return;
        }
        snap.counters
            .insert("slo.burn_alerts".into(), self.slo.alerts_total());
        for o in self.slo.readout() {
            if !o.enabled {
                continue;
            }
            let milli = |v: f64| (v * 1000.0).min(i64::MAX as f64) as i64;
            let labels = format!("{{objective={}}}", o.name);
            snap.gauges
                .insert(format!("slo.firing{labels}"), i64::from(o.firing));
            snap.gauges
                .insert(format!("slo.burn_fast_milli{labels}"), milli(o.burn_fast));
            snap.gauges
                .insert(format!("slo.burn_slow_milli{labels}"), milli(o.burn_slow));
            snap.gauges.insert(
                format!("slo.budget_remaining_milli{labels}"),
                milli(o.budget_remaining),
            );
        }
        snap.counters.insert(
            "timeline.samples".into(),
            self.samples.load(Ordering::Relaxed),
        );
        snap.counters.insert(
            "timeline.contended_samples".into(),
            self.contended_samples.load(Ordering::Relaxed),
        );
        snap.gauges.insert(
            "timeline.series".into(),
            self.series_count.load(Ordering::Relaxed) as i64,
        );
        snap.gauges.insert(
            "timeline.dropped_series".into(),
            self.dropped_series.load(Ordering::Relaxed) as i64,
        );
    }

    /// The `GET /v1/debug/timeline` body (`mnc.timeline.v1`): matched
    /// series with their frames, plus the SLO readout. Returns `None`
    /// only when the claim stayed contended through every retry.
    pub fn render_json(&self, now_s: u64, query: &TimelineQuery) -> Option<String> {
        #[allow(clippy::type_complexity)]
        let copied: Option<(
            Vec<(String, &'static str, usize, Vec<ScalarFrame>)>,
            Vec<(String, usize, Vec<HistoFrame>)>,
        )> = {
            // Bounded claim retries; each miss yields the CPU briefly so a
            // mid-sample writer can finish.
            let mut inner = None;
            for _ in 0..64 {
                match self.inner.try_lock() {
                    Ok(g) => {
                        inner = Some(g);
                        break;
                    }
                    Err(_) => std::thread::sleep(std::time::Duration::from_millis(1)),
                }
            }
            let inner = inner?;
            let keep_name = |name: &str| query.metric.is_none_or(|m| name.starts_with(m));
            let keep_res = |r: usize| query.resolution.is_none_or(|want| want == r);
            let mut scalars = Vec::new();
            for s in &inner.scalars {
                if !keep_name(&s.name) {
                    continue;
                }
                for r in 0..3 {
                    if !keep_res(r) {
                        continue;
                    }
                    let frames: Vec<ScalarFrame> = s.rings[r]
                        .iter()
                        .filter(|f| f.t_s > query.since_s)
                        .copied()
                        .collect();
                    let kind = match s.kind {
                        ScalarKind::Counter => "counter",
                        ScalarKind::Gauge => "gauge",
                    };
                    scalars.push((s.name.clone(), kind, r, frames));
                }
            }
            let mut histos = Vec::new();
            for s in &inner.histos {
                if !keep_name(&s.name) {
                    continue;
                }
                for r in 0..3 {
                    if !keep_res(r) {
                        continue;
                    }
                    let frames: Vec<HistoFrame> = s.rings[r]
                        .iter()
                        .filter(|f| f.t_s > query.since_s)
                        .copied()
                        .collect();
                    histos.push((s.name.clone(), r, frames));
                }
            }
            Some((scalars, histos))
        };
        let (scalars, histos) = copied?;

        // Claim released: render at leisure.
        let mut series = Vec::new();
        for (name, kind, r, frames) in scalars {
            let body: Vec<String> = frames
                .iter()
                .map(|f| format!("{{\"t_s\":{},\"v\":{}}}", f.t_s, f.v))
                .collect();
            series.push(format!(
                "{{\"metric\":\"{}\",\"kind\":\"{}\",\"resolution\":\"{}\",\"frames\":[{}]}}",
                json_escape(&name),
                kind,
                RESOLUTIONS[r],
                body.join(",")
            ));
        }
        for (name, r, frames) in histos {
            let body: Vec<String> = frames
                .iter()
                .map(|f| {
                    format!(
                        "{{\"t_s\":{},\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{}}}",
                        f.t_s,
                        f.count,
                        f.sum,
                        f.max,
                        f.quantile(0.5),
                        f.quantile(0.99)
                    )
                })
                .collect();
            series.push(format!(
                "{{\"metric\":\"{}\",\"kind\":\"histogram\",\"resolution\":\"{}\",\"frames\":[{}]}}",
                json_escape(&name),
                RESOLUTIONS[r],
                body.join(",")
            ));
        }

        Some(format!(
            "{{\"schema\":\"mnc.timeline.v1\",\"now_s\":{},\"capacity\":{},\
             \"resolutions\":[\"1s\",\"10s\",\"60s\"],\"dropped_series\":{},\
             \"series\":[{}],\"slo\":{}}}",
            now_s,
            self.config.capacity,
            self.dropped_series.load(Ordering::Relaxed),
            series.join(","),
            self.slo_json(),
        ))
    }

    /// The SLO readout as a JSON object (shared by the timeline body and
    /// `/v1/status`).
    pub fn slo_json(&self) -> String {
        let objectives: Vec<String> = self
            .slo
            .readout()
            .iter()
            .filter(|o| o.enabled)
            .map(|o| {
                format!(
                    "{{\"name\":\"{}\",\"target\":{},\"firing\":{},\"burn_fast\":{},\
                     \"burn_slow\":{},\"budget_remaining\":{}}}",
                    o.name,
                    self.slo.config().target(
                        crate::slo::OBJECTIVES
                            .iter()
                            .position(|n| *n == o.name)
                            .unwrap_or(0)
                    ),
                    o.firing,
                    o.burn_fast,
                    o.burn_slow,
                    o.budget_remaining
                )
            })
            .collect();
        format!(
            "{{\"alerts_total\":{},\"fast_window_s\":{},\"slow_window_s\":{},\"objectives\":[{}]}}",
            self.slo.alerts_total(),
            self.slo.config().fast_window_s,
            self.slo.config().slow_window_s,
            objectives.join(",")
        )
    }
}

/// `served.requests{...}` counters feed the availability objective; the
/// status label decides good vs bad (5xx and 429 burn budget).
fn classify_counter(name: &str) -> SloClass {
    if !name.starts_with("served.requests{") {
        return SloClass::None;
    }
    let (_, labels) = split_labeled_name(name);
    // Only API traffic counts toward availability. Telemetry endpoints are
    // excluded deliberately: `/healthz` answers 503 *because* an objective
    // is firing, and counting those probes as bad availability would wedge
    // the alert permanently — the health checker's polling itself would
    // keep the availability burn above the recovery threshold.
    if !labels
        .iter()
        .find(|(k, _)| *k == "endpoint")
        .is_some_and(|(_, v)| v.starts_with("/v1"))
    {
        return SloClass::None;
    }
    let bad = labels
        .iter()
        .find(|(k, _)| *k == "status")
        .is_some_and(|(_, v)| v.starts_with('5') || *v == "429");
    SloClass::Request { bad }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(counter: u64, gauge: i64, histo: &[u64]) -> MetricSnapshot {
        let mut s = MetricSnapshot::default();
        s.counters.insert("c.total".into(), counter);
        s.gauges.insert("g.level".into(), gauge);
        let mut h = LatencyHisto::new();
        for &v in histo {
            h.record(v);
        }
        s.histograms.insert("h.lat".into(), h);
        s
    }

    fn timeline(capacity: usize) -> Timeline {
        Timeline::new(TimelineConfig {
            capacity,
            ..TimelineConfig::default()
        })
    }

    #[test]
    fn counters_store_deltas_and_gauges_store_levels() {
        let tl = timeline(8);
        tl.sample_at(1, &snap(10, 5, &[]), false);
        tl.sample_at(2, &snap(25, -3, &[]), false);
        tl.sample_at(3, &snap(25, 7, &[]), false);
        let body = tl
            .render_json(3, &TimelineQuery::default())
            .expect("uncontended");
        let v = mnc_obs::json::parse(&body).expect("valid json");
        let mnc_obs::json::JsonValue::Array(series) = v.get("series").unwrap() else {
            panic!("series must be an array");
        };
        let frames_of = |metric: &str, res: &str| -> Vec<(u64, i64)> {
            series
                .iter()
                .find(|s| {
                    s.get("metric").and_then(|m| m.as_str()) == Some(metric)
                        && s.get("resolution").and_then(|r| r.as_str()) == Some(res)
                })
                .map(|s| {
                    let mnc_obs::json::JsonValue::Array(fr) = s.get("frames").unwrap() else {
                        panic!("frames must be an array");
                    };
                    fr.iter()
                        .map(|f| {
                            (
                                f.get("t_s").and_then(|t| t.as_f64()).unwrap() as u64,
                                f.get("v").and_then(|t| t.as_f64()).unwrap() as i64,
                            )
                        })
                        .collect()
                })
                .unwrap_or_default()
        };
        // First frame's delta is against 0 (registration baseline).
        assert_eq!(frames_of("c.total", "1s"), vec![(1, 10), (2, 15), (3, 0)]);
        assert_eq!(frames_of("g.level", "1s"), vec![(1, 5), (2, -3), (3, 7)]);
    }

    #[test]
    fn second_gate_and_monotone_clock() {
        let tl = timeline(8);
        assert_eq!(tl.stats().samples, 0);
        tl.sample_at(5, &snap(1, 0, &[]), false);
        tl.sample_at(5, &snap(2, 0, &[]), false); // same second: skipped
        tl.sample_at(4, &snap(3, 0, &[]), false); // clock going backwards: skipped
        assert_eq!(tl.stats().samples, 1);
        tl.sample_at(6, &snap(9, 0, &[]), false);
        assert_eq!(tl.stats().samples, 2);
        // The skipped samples folded into the next delta: 9 - 1 = 8.
        let body = tl.render_json(6, &TimelineQuery::default()).unwrap();
        assert!(body.contains("{\"t_s\":6,\"v\":8}"), "{body}");
    }

    #[test]
    fn downsample_cascade_is_exact() {
        // Capacity 4: pushing 4 + 40 frames overflows the 1s ring 40 times
        // → four 10s frames; their values must equal the sums of the
        // corresponding 1s deltas.
        let tl = timeline(4);
        let mut total = 0u64;
        for t in 1..=44u64 {
            total += t; // delta at second t is t
            tl.sample_at(t, &snap(total, t as i64, &[t]), false);
        }
        let body = tl.render_json(44, &TimelineQuery::default()).unwrap();
        let v = mnc_obs::json::parse(&body).unwrap();
        let mnc_obs::json::JsonValue::Array(series) = v.get("series").unwrap() else {
            panic!()
        };
        let c10: Vec<i64> = series
            .iter()
            .find(|s| {
                s.get("metric").and_then(|m| m.as_str()) == Some("c.total")
                    && s.get("resolution").and_then(|r| r.as_str()) == Some("10s")
            })
            .map(|s| {
                let mnc_obs::json::JsonValue::Array(fr) = s.get("frames").unwrap() else {
                    panic!()
                };
                fr.iter()
                    .map(|f| f.get("v").unwrap().as_f64().unwrap() as i64)
                    .collect()
            })
            .unwrap();
        // Evictions start at push 5 (second 5): 10s frames cover seconds
        // 1..=10, 11..=20, 21..=30, 31..=40.
        assert_eq!(
            c10,
            vec![
                (1..=10).sum::<i64>(),
                (11..=20).sum(),
                (21..=30).sum(),
                (31..=40).sum()
            ]
        );
    }

    #[test]
    fn histogram_frames_are_bucket_deltas_with_quantiles() {
        let tl = timeline(8);
        tl.sample_at(1, &snap(0, 0, &[100; 50]), false);
        // Second 2 adds one slow observation on top.
        let mut all: Vec<u64> = vec![100; 50];
        all.push(1_000_000);
        tl.sample_at(2, &snap(0, 0, &all), false);
        let body = tl
            .render_json(
                2,
                &TimelineQuery {
                    metric: Some("h.lat"),
                    resolution: Some(0),
                    since_s: 0,
                },
            )
            .unwrap();
        let v = mnc_obs::json::parse(&body).unwrap();
        let mnc_obs::json::JsonValue::Array(series) = v.get("series").unwrap() else {
            panic!()
        };
        assert_eq!(series.len(), 1);
        let mnc_obs::json::JsonValue::Array(frames) = series[0].get("frames").unwrap() else {
            panic!()
        };
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].get("count").unwrap().as_f64(), Some(50.0));
        assert_eq!(frames[1].get("count").unwrap().as_f64(), Some(1.0));
        // The interval's p99 reflects only the delta: the slow observation.
        assert_eq!(frames[1].get("p99").unwrap().as_f64(), Some(1_000_000.0));
    }

    #[test]
    fn query_filters_metric_resolution_and_since() {
        let tl = timeline(8);
        for t in 1..=6u64 {
            tl.sample_at(t, &snap(t, 0, &[]), false);
        }
        let body = tl
            .render_json(
                6,
                &TimelineQuery {
                    metric: Some("c."),
                    resolution: Some(0),
                    since_s: 4,
                },
            )
            .unwrap();
        assert!(body.contains("c.total"), "{body}");
        assert!(!body.contains("g.level"), "{body}");
        assert!(!body.contains("\"t_s\":4"), "{body}");
        assert!(body.contains("\"t_s\":5"), "{body}");
        assert!(body.contains("\"t_s\":6"), "{body}");
    }

    #[test]
    fn series_caps_tombstone_and_count_drops() {
        let tl = Timeline::new(TimelineConfig {
            capacity: 4,
            max_scalar_series: 2,
            max_histo_series: 1,
            ..TimelineConfig::default()
        });
        let mut s = MetricSnapshot::default();
        for i in 0..5 {
            s.counters.insert(format!("c{i}"), 1);
        }
        for i in 0..3 {
            s.histograms.insert(format!("h{i}"), LatencyHisto::new());
        }
        tl.sample_at(1, &s, false);
        tl.sample_at(2, &s, false);
        let stats = tl.stats();
        assert_eq!(stats.series, 3, "2 scalars + 1 histo");
        assert_eq!(stats.dropped_series, 5, "3 counters + 2 histos refused");
    }

    #[test]
    fn disabled_timeline_is_inert() {
        let tl = Timeline::new(TimelineConfig {
            enabled: false,
            ..TimelineConfig::default()
        });
        let edges = tl.sample_at(1, &snap(1, 1, &[1]), true);
        assert!(edges.iter().all(Option::is_none));
        assert_eq!(tl.stats().samples, 0);
        assert_eq!(tl.stats().series, 0);
    }

    #[test]
    fn availability_classification_feeds_the_slo_engine() {
        let cfg = TimelineConfig {
            capacity: 32,
            slo: SloConfig {
                availability_target: 0.99,
                fast_window_s: 3,
                slow_window_s: 6,
                min_events: 5,
                ..SloConfig::default()
            },
            ..TimelineConfig::default()
        };
        let tl = Timeline::new(cfg);
        let mk = |ok: u64, bad: u64| {
            let mut s = MetricSnapshot::default();
            s.counters.insert(
                "served.requests{endpoint=/v1/estimate,method=POST,status=200}".into(),
                ok,
            );
            s.counters.insert(
                "served.requests{endpoint=/v1/estimate,method=POST,status=503}".into(),
                bad,
            );
            s
        };
        let mut tripped = false;
        let (mut ok, mut bad) = (0u64, 0u64);
        for t in 1..=12u64 {
            ok += 2;
            bad += 8;
            let edges = tl.sample_at(t, &mk(ok, bad), false);
            tripped |= edges.iter().flatten().any(|e| e.objective == 0 && e.fired);
        }
        assert!(tripped, "80% failure never tripped availability");
        assert!(tl.slo().any_firing());
        assert_eq!(tl.slo().alerts_total(), 1);
        // The readout and metrics contribution see the alert.
        let mut m = MetricSnapshot::default();
        tl.contribute_metrics(&mut m);
        assert_eq!(m.counters["slo.burn_alerts"], 1);
        assert_eq!(m.gauges["slo.firing{objective=availability}"], 1);
    }

    #[test]
    fn status_label_classification() {
        assert_eq!(
            classify_counter("served.requests{endpoint=/v1/x,method=GET,status=200}"),
            SloClass::Request { bad: false }
        );
        assert_eq!(
            classify_counter("served.requests{endpoint=/v1/x,method=GET,status=503}"),
            SloClass::Request { bad: true }
        );
        assert_eq!(
            classify_counter("served.requests{endpoint=/v1/x,method=GET,status=429}"),
            SloClass::Request { bad: true }
        );
        assert_eq!(
            classify_counter("served.requests{endpoint=/v1/x,method=GET,status=404}"),
            SloClass::Request { bad: false }
        );
        // Telemetry endpoints never feed availability: a degraded /healthz
        // answers 503 because an alert is firing, and those probes counting
        // as bad traffic would make the alert self-sustaining.
        assert_eq!(
            classify_counter("served.requests{endpoint=/healthz,method=GET,status=503}"),
            SloClass::None
        );
        assert_eq!(
            classify_counter("served.requests{endpoint=/metrics,method=GET,status=200}"),
            SloClass::None
        );
        assert_eq!(classify_counter("cache.hits"), SloClass::None);
    }
}
