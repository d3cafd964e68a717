//! `compare`: judges two sets of plain-run result files by the bounds in
//! `BENCHMARK.json`, one row per workload and end-to-end metric.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mnc_obs::json::{parse, JsonValue};

use crate::stats;

/// One end-to-end metric's regression rule.
#[derive(Debug, Clone)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// Whether larger values are better.
    pub higher_is_better: bool,
    /// Share of the base median by which the metric may get worse.
    pub bound: f64,
}

/// The verdict on one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// A side's quartile spread is wider than the bound, so the sets cannot
    /// tell a change from noise (and the head does not win every pair).
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes run values (quartiles collapse to the value for one run).
    pub fn of(values: &[f64]) -> Summary {
        let median = stats::median(values);
        let (q1, q3) = stats::quartiles(values).unwrap_or((median, median));
        Summary { median, q1, q3 }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Applies `bound` to base and head run values.
pub fn judge(bound: &Bound, base: &[f64], head: &[f64]) -> (Verdict, Summary, Summary, f64) {
    let (b, h) = (Summary::of(base), Summary::of(head));
    let worse = if bound.higher_is_better {
        (b.median - h.median) / b.median.abs()
    } else {
        (h.median - b.median) / b.median.abs()
    };
    let better = |x: f64, y: f64| if bound.higher_is_better { x > y } else { x < y };
    let head_wins_all = head.iter().all(|&x| base.iter().all(|&y| better(x, y)));
    let verdict = if (b.spread() > bound.bound || h.spread() > bound.bound) && !head_wins_all {
        Verdict::Unresolved
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (verdict, b, h, worse)
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(JsonValue::Array(items)) = doc.get("end_to_end") else {
        return Err(format!("{}: no end_to_end list", path.display()));
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .ok_or_else(|| format!("end_to_end entry lacks `{k}`"))
            };
            Ok(Bound {
                name: field("name")?.as_str().unwrap_or_default().to_string(),
                unit: field("unit")?.as_str().unwrap_or_default().to_string(),
                higher_is_better: field("better")?.as_str() == Some("higher"),
                bound: field("bound")?.as_f64().ok_or("bound is not a number")?,
            })
        })
        .collect()
}

/// Metric values of every plain-run result file in `dir`, grouped by
/// workload: `workload → metric → one value per run`.
pub fn read_results(dir: &Path) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let mut out: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let listing = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files: Vec<_> = listing
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|x| x == "json")
                && !p.to_string_lossy().ends_with(".chrome.json")
        })
        .collect();
    files.sort();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("trace") == Some(&JsonValue::Bool(true)) {
            continue;
        }
        let (Some(workload), Some(metrics)) = (
            doc.get("workload").and_then(JsonValue::as_str),
            doc.get("metrics").and_then(JsonValue::as_object),
        ) else {
            continue;
        };
        let slot = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                slot.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(out)
}

/// Compares the result sets in `base` and `head` under `bounds`. Returns
/// the table and whether any metric regressed.
pub fn compare(bounds: &[Bound], base: &Path, head: &Path) -> Result<(String, bool), String> {
    let (b, h) = (read_results(base)?, read_results(head)?);
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<17} {:<18} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "base", "[q1, q3]", "head", "[q1, q3]", "worse", "bound"
    );
    let mut regressed = false;
    for (workload, base_metrics) in &b {
        let Some(head_metrics) = h.get(workload) else {
            continue;
        };
        for bound in bounds {
            let (Some(bv), Some(hv)) =
                (base_metrics.get(&bound.name), head_metrics.get(&bound.name))
            else {
                continue;
            };
            let (verdict, bs, hs, worse) = judge(bound, bv, hv);
            regressed |= verdict == Verdict::Regressed;
            let _ = writeln!(
                table,
                "{:<17} {:<18} {:>12.6} {:>25} {:>12.6} {:>25} {:>7.2}% {:>5.1}%  {} (n={}/{})",
                workload,
                bound.name,
                bs.median,
                format!("[{:.6}, {:.6}]", bs.q1, bs.q3),
                hs.median,
                format!("[{:.6}, {:.6}]", hs.q1, hs.q3),
                worse * 100.0,
                bound.bound * 100.0,
                verdict.label(),
                bv.len(),
                hv.len(),
            );
        }
    }
    Ok((table, regressed))
}
