//! Exporters: one [`Report`] snapshot, four renderings.
//!
//! * [`Report::render_table`] — the human summary printed by CLIs;
//! * [`Report::to_jsonl`] — one JSON object per line (`span`, `counter`,
//!   `gauge`, `histogram`, `accuracy` events), machine-parseable without a
//!   JSON-streaming library;
//! * [`Report::to_chrome_trace`] — Chrome `trace_event` JSON (`"X"`
//!   complete events on per-thread tracks, `"i"` instants for accuracy
//!   records, `"C"` counters), loadable in `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev);
//! * [`ObsFormat::Prometheus`] — the metrics snapshot in Prometheus text
//!   exposition format (see [`crate::prometheus`]).
//!
//! JSON is hand-rolled (the workspace is offline and dependency-free):
//! strings are escaped per RFC 8259, non-finite floats — legal in our
//! accuracy metric, illegal in JSON — serialize as `null` next to a
//! `"finite":false` marker where they can occur.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::accuracy::{summarize, AccuracyRecord};
use crate::metrics::{LatencyHisto, MetricSnapshot};
use crate::span::SpanRecord;

/// Output format selector shared by every CLI (`--obs-format`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsFormat {
    /// Human-readable summary table.
    #[default]
    Table,
    /// One JSON event per line.
    Jsonl,
    /// Chrome `trace_event` JSON.
    Chrome,
    /// Prometheus text exposition format (metrics only).
    Prometheus,
}

impl std::str::FromStr for ObsFormat {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "table" => Ok(ObsFormat::Table),
            "jsonl" => Ok(ObsFormat::Jsonl),
            "chrome" => Ok(ObsFormat::Chrome),
            "prom" | "prometheus" => Ok(ObsFormat::Prometheus),
            other => Err(format!(
                "unknown obs format `{other}` (expected table|jsonl|chrome|prometheus)"
            )),
        }
    }
}

/// A consistent snapshot of one recorder: spans, metrics, accuracy.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Finished spans, in start order.
    pub spans: Vec<SpanRecord>,
    /// Metric snapshot.
    pub metrics: MetricSnapshot,
    /// Accuracy records, in emission order.
    pub accuracy: Vec<AccuracyRecord>,
}

// ---------------------------------------------------------------------------
// JSON building blocks
// ---------------------------------------------------------------------------

/// Escapes a string per RFC 8259 (quotes, backslash, control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number token for an `f64`: `null` when non-finite (JSON has no
/// `Infinity`/`NaN`).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` for integral floats omits the point; that is still a
        // valid JSON number, so pass it through.
        s
    } else {
        "null".to_string()
    }
}

/// The one `SpanRecord → JSON` serializer: every exporter of span events —
/// [`Report::to_jsonl`] here (which also renders the `mnc-obsd` flight
/// dump) and the served request capture — renders through this function,
/// so a new span payload field can never silently diverge between
/// exporters. Returns one `{"type":"span",...}` object
/// without a trailing newline.
pub fn span_json(s: &SpanRecord) -> String {
    format!(
        "{{\"type\":\"span\",\"id\":{},\"parent\":{},\"name\":\"{}\",\
         \"thread\":{},\"start_ns\":{},\"dur_ns\":{},\"args\":{}}}",
        s.id,
        s.parent,
        json_escape(s.name),
        s.thread,
        s.start_ns,
        s.dur_ns,
        span_args_json(s)
    )
}

/// The one `AccuracyRecord → JSON` serializer (see [`span_json`]); non-
/// finite relative errors serialize as `null` beside `"finite":false`.
/// Returns one `{"type":"accuracy",...}` object without a trailing newline.
pub fn accuracy_json(a: &AccuracyRecord) -> String {
    format!(
        "{{\"type\":\"accuracy\",\"case\":\"{}\",\"op\":\"{}\",\
         \"estimator\":\"{}\",\"estimated_sparsity\":{},\
         \"actual_sparsity\":{},\"relative_error\":{},\
         \"finite\":{},\"ts_ns\":{}}}",
        json_escape(&a.case),
        json_escape(&a.op),
        json_escape(&a.estimator),
        json_f64(a.estimated_sparsity),
        json_f64(a.actual_sparsity),
        json_f64(a.relative_error),
        a.relative_error.is_finite(),
        a.ts_ns
    )
}

fn span_args_json(s: &SpanRecord) -> String {
    let mut fields = Vec::new();
    if let Some(op) = &s.op {
        fields.push(format!("\"op\":\"{}\"", json_escape(op)));
    }
    if let Some(v) = s.nnz_in {
        fields.push(format!("\"nnz_in\":{v}"));
    }
    if let Some(v) = s.nnz_out {
        fields.push(format!("\"nnz_out\":{v}"));
    }
    if let Some(v) = s.synopsis_bytes {
        fields.push(format!("\"synopsis_bytes\":{v}"));
    }
    if let Some(v) = s.alloc_net {
        fields.push(format!("\"alloc_net\":{v}"));
    }
    if let Some(v) = s.alloc_bytes {
        fields.push(format!("\"alloc_bytes\":{v}"));
    }
    if let Some(t) = s.trace {
        fields.push(format!("\"trace\":\"{}\"", t.to_hex()));
    }
    format!("{{{}}}", fields.join(","))
}

fn histo_json_fields(h: &LatencyHisto) -> String {
    format!(
        "\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"max\":{}",
        h.count(),
        h.sum(),
        json_f64(h.mean()),
        h.quantile(0.5),
        h.quantile(0.95),
        h.max()
    )
}

impl Report {
    // -- JSONL ---------------------------------------------------------------

    /// One JSON object per line: every span, metric, and accuracy record.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(out, "{}", span_json(s));
        }
        for (name, v) in &self.metrics.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"name\":\"{}\",\"value\":{v}}}",
                json_escape(name)
            );
        }
        for (name, v) in &self.metrics.gauges {
            let _ = writeln!(
                out,
                "{{\"type\":\"gauge\",\"name\":\"{}\",\"value\":{v}}}",
                json_escape(name)
            );
        }
        for (name, h) in &self.metrics.histograms {
            let _ = writeln!(
                out,
                "{{\"type\":\"histogram\",\"name\":\"{}\",{}}}",
                json_escape(name),
                histo_json_fields(h)
            );
        }
        for a in &self.accuracy {
            let _ = writeln!(out, "{}", accuracy_json(a));
        }
        out
    }

    // -- Chrome trace --------------------------------------------------------

    /// Chrome `trace_event` JSON: open the file in `chrome://tracing` or
    /// drag it into [Perfetto](https://ui.perfetto.dev). Timestamps are
    /// microseconds (fractional, preserving ns resolution) since the
    /// recorder epoch; each thread gets its own track.
    pub fn to_chrome_trace(&self) -> String {
        let mut events = Vec::new();
        for s in &self.spans {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"mnc\",\"ph\":\"X\",\"ts\":{},\
                 \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{}}}",
                json_escape(&match &s.op {
                    Some(op) => format!("{} [{}]", s.name, op),
                    None => s.name.to_string(),
                }),
                us(s.start_ns),
                us(s.dur_ns),
                s.thread,
                span_args_json(s)
            ));
        }
        for a in &self.accuracy {
            events.push(format!(
                "{{\"name\":\"accuracy {} {}\",\"cat\":\"accuracy\",\"ph\":\"i\",\
                 \"ts\":{},\"pid\":1,\"tid\":0,\"s\":\"g\",\"args\":{{\
                 \"estimator\":\"{}\",\"estimated_sparsity\":{},\
                 \"actual_sparsity\":{},\"relative_error\":{}}}}}",
                json_escape(&a.case),
                json_escape(&a.estimator),
                us(a.ts_ns),
                json_escape(&a.estimator),
                json_f64(a.estimated_sparsity),
                json_f64(a.actual_sparsity),
                json_f64(a.relative_error)
            ));
        }
        // Final counter values as one "C" sample each, stamped at the end of
        // the trace so the counter tracks are visible next to the spans.
        let end_ts = self
            .spans
            .iter()
            .map(|s| s.start_ns.saturating_add(s.dur_ns))
            .max()
            .unwrap_or(0);
        for (name, v) in &self.metrics.counters {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"mnc\",\"ph\":\"C\",\"ts\":{},\
                 \"pid\":1,\"args\":{{\"value\":{v}}}}}",
                json_escape(name),
                us(end_ts)
            ));
        }
        format!(
            "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}",
            events.join(",\n")
        )
    }

    // -- Human table ---------------------------------------------------------

    /// The human-readable summary: spans aggregated by `(name, op)` with
    /// count/total/p50/p95/max, then counters, gauges, histograms, and the
    /// per-estimator accuracy summary.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let mut groups: BTreeMap<(String, String), LatencyHisto> = BTreeMap::new();
            for s in &self.spans {
                groups
                    .entry((s.name.to_string(), s.op.clone().unwrap_or_default()))
                    .or_default()
                    .record(s.dur_ns);
            }
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>8} {:>12} {:>10} {:>10} {:>10}",
                "span", "op", "count", "total µs", "p50 µs", "p95 µs", "max µs"
            );
            for ((name, op), h) in &groups {
                let _ = writeln!(
                    out,
                    "{:<12} {:<12} {:>8} {:>12.1} {:>10.1} {:>10.1} {:>10.1}",
                    name,
                    if op.is_empty() { "-" } else { op },
                    h.count(),
                    h.sum() as f64 / 1e3,
                    h.quantile(0.5) as f64 / 1e3,
                    h.quantile(0.95) as f64 / 1e3,
                    h.max() as f64 / 1e3
                );
            }
        }
        if !self.metrics.is_empty() {
            let _ = writeln!(out, "\nmetrics:");
            for (name, v) in &self.metrics.counters {
                let _ = writeln!(out, "  {name:<28} {v}");
            }
            for (name, v) in &self.metrics.gauges {
                let _ = writeln!(out, "  {name:<28} {v}");
            }
            for (name, h) in &self.metrics.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<28} n={} p50={} p95={} max={} ns",
                    h.count(),
                    h.quantile(0.5),
                    h.quantile(0.95),
                    h.max()
                );
            }
        }
        if !self.accuracy.is_empty() {
            let _ = writeln!(out, "\naccuracy (by estimator):");
            let _ = writeln!(
                out,
                "  {:<12} {:>6} {:>8} {:>14} {:>20}",
                "estimator", "cases", "inf", "geo-mean err", "worst (case)"
            );
            for s in summarize(&self.accuracy) {
                let worst = s
                    .worst
                    .map(|(case, e)| format!("{e:.3} ({case})"))
                    .unwrap_or_else(|| "-".into());
                let _ = writeln!(
                    out,
                    "  {:<12} {:>6} {:>8} {:>14.4} {:>20}",
                    s.estimator, s.count, s.infinite, s.geo_mean_error, worst
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no observability data recorded)\n");
        }
        out
    }

    /// Per-phase time attribution ("where the microseconds go") from the
    /// span tree: self time per `(name, op)` group, descending.
    pub fn render_attribution(&self) -> String {
        crate::attribution::render_attribution(&self.spans)
    }

    /// Renders in the requested format.
    pub fn render(&self, format: ObsFormat) -> String {
        match format {
            ObsFormat::Table => self.render_table(),
            ObsFormat::Jsonl => self.to_jsonl(),
            ObsFormat::Chrome => self.to_chrome_trace(),
            ObsFormat::Prometheus => {
                crate::prometheus::render_prometheus(&self.metrics, "mnc_", &[])
            }
        }
    }
}

/// Nanoseconds → microsecond JSON number with ns resolution preserved.
fn us(ns: u64) -> String {
    let whole = ns / 1_000;
    let frac = ns % 1_000;
    if frac == 0 {
        format!("{whole}")
    } else {
        format!("{whole}.{frac:03}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{span, Recorder};

    fn sample_report() -> Report {
        let rec = Recorder::enabled();
        {
            let _outer = span!(rec, "estimate", op = "matmul", nnz_in = 12);
            let _inner = span!(rec, "build", op = "MNC\"quoted\"", bytes = 256);
        }
        rec.counter("cache.hit").add(3);
        rec.gauge("cache.bytes_resident").set(4096);
        rec.histogram("estimate_ns").record(1500);
        rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.1, 0.2));
        rec.record_accuracy(AccuracyRecord::new("B1.2", "matmul", "MNC", 0.0, 0.2));
        rec.report()
    }

    #[test]
    fn format_parsing() {
        assert_eq!("table".parse::<ObsFormat>().unwrap(), ObsFormat::Table);
        assert_eq!("jsonl".parse::<ObsFormat>().unwrap(), ObsFormat::Jsonl);
        assert_eq!("chrome".parse::<ObsFormat>().unwrap(), ObsFormat::Chrome);
        assert_eq!(
            "prometheus".parse::<ObsFormat>().unwrap(),
            ObsFormat::Prometheus
        );
        assert_eq!("prom".parse::<ObsFormat>().unwrap(), ObsFormat::Prometheus);
        assert!("xml".parse::<ObsFormat>().is_err());
    }

    #[test]
    fn escaping_and_float_tokens() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(f64::NAN), "null");
    }

    #[test]
    fn jsonl_has_one_event_per_line() {
        let report = sample_report();
        let jsonl = report.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        // 2 spans + 1 counter + 1 gauge + 1 histogram + 2 accuracy.
        assert_eq!(lines.len(), 7);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(jsonl.contains("\"type\":\"span\""));
        assert!(jsonl.contains("\"type\":\"histogram\""));
        // The INF error serializes as null with an explicit finite marker.
        assert!(jsonl.contains("\"relative_error\":null,\"finite\":false"));
    }

    #[test]
    fn chrome_trace_has_complete_events_and_counters() {
        let trace = sample_report().to_chrome_trace();
        assert!(trace.starts_with('{') && trace.ends_with('}'));
        assert!(trace.contains("\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"ph\":\"i\""));
        assert!(trace.contains("\"ph\":\"C\""));
        assert!(trace.contains("estimate [matmul]"));
        // Escaped quote from the op label survives.
        assert!(trace.contains("MNC\\\"quoted\\\""));
    }

    #[test]
    fn table_summarizes_spans_metrics_and_accuracy() {
        let table = sample_report().render_table();
        assert!(table.contains("span"));
        assert!(table.contains("estimate"));
        assert!(table.contains("p95"));
        assert!(table.contains("cache.hit"));
        assert!(table.contains("accuracy (by estimator)"));
        assert!(table.contains("MNC"));
        // Empty report still renders something.
        assert!(Report::default()
            .render_table()
            .contains("no observability"));
    }

    #[test]
    fn microsecond_conversion_preserves_ns() {
        assert_eq!(us(1_500), "1.500");
        assert_eq!(us(2_000), "2");
        assert_eq!(us(999), "0.999");
        assert_eq!(us(0), "0");
    }
}
