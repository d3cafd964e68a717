//! One run's outcome: named metrics, the output-check tally, and the ways
//! they are written out — rows on stdout, a JSON result file, and the final
//! one-line JSON summary.

use std::fmt::Write as _;
use std::path::Path;

use mnc_obs::export::{json_escape, json_f64};

/// Failure descriptions kept per run (the count is always exact).
const KEEP_FAILURES: usize = 8;

/// A measured value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Operations attempted, counting every output check.
    pub attempted: u64,
    /// Operations that failed: non-2xx answers (429 included), I/O errors
    /// and timeouts, and oracle mismatches.
    pub failed: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
    /// Further facts for the result file, as `(key, JSON value)`.
    pub info: Vec<(String, String)>,
}

impl Outcome {
    /// Records a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a number for the result file only.
    pub fn info(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), json_f64(value)));
    }

    /// Records a list of numbers for the result file only.
    pub fn info_list(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|&v| json_f64(v)).collect();
        self.info
            .push((key.to_string(), format!("[{}]", items.join(","))));
    }

    /// Records a string for the result file only.
    pub fn info_str(&mut self, key: &str, value: &str) {
        self.info
            .push((key.to_string(), format!("\"{}\"", json_escape(value))));
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts one attempted operation that failed.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < KEEP_FAILURES {
            self.failures.push(what.into());
        }
    }

    /// Counts one check: `ok` or a failure described by `what`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.ok();
        } else {
            self.fail(what());
        }
    }

    /// Folds another tally (a client thread's) into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < KEEP_FAILURES {
                self.failures.push(f);
            }
        }
    }

    /// Every output check passed and every metric is a finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed over attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The final stdout line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_escape(&m.name),
                    json_f64(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }

    /// The result file: the summary fields plus the run's fingerprint and
    /// every informational value.
    pub fn result_json(&self, header: &[(String, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header.iter().chain(&self.info) {
            let _ = writeln!(out, "  \"{}\": {v},", json_escape(k));
        }
        let _ = writeln!(out, "  \"error_rate\": {},", json_f64(self.error_rate()));
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json_escape(f)))
            .collect();
        let _ = writeln!(out, "  \"failures\": [{}],", failures.join(", "));
        let summary = self.summary_line();
        // The summary object's fields, spliced in last.
        let _ = writeln!(out, "  {}", &summary[1..summary.len() - 1]);
        out.push('}');
        out.push('\n');
        out
    }
}

/// Facts about the machine, toolchain and inputs that a result depends on.
pub fn fingerprint(root: &Path, daemon: Option<&Path>) -> Vec<(String, String)> {
    let cmd = |prog: &str, args: &[&str]| -> String {
        std::process::Command::new(prog)
            .args(args)
            .current_dir(root)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let quote = |s: &str| format!("\"{}\"", json_escape(s));
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    // Only a checkout's own `.git` is asked: git would otherwise search the
    // parent directories for some other repository.
    let sha = if root.join(".git").exists() {
        cmd("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    let mut fp = vec![
        ("nproc".to_string(), nproc().to_string()),
        ("rustc".to_string(), quote(&cmd(&rustc, &["--version"]))),
        ("git_sha".to_string(), quote(&sha)),
    ];
    if let Some(bin) = daemon {
        let mtime = std::fs::metadata(bin)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs());
        fp.push(("daemon".to_string(), quote(&bin.display().to_string())));
        fp.push(("daemon_mtime".to_string(), mtime.to_string()));
    }
    fp
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
