//! `mnc-benchmark` — builds the daemon, runs a workload, checks every
//! answer, and reports the metrics. See `benchmark/README.md`.
//!
//! ```text
//! mnc-benchmark run [--workload NAME] --seed N [--seconds S] [--trace 0|1]
//!                   [--daemon PATH] [--out DIR]
//! mnc-benchmark compare BASE_DIR HEAD_DIR [--bench BENCHMARK.json]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use mnc_benchmark::inputs::Workload;
use mnc_benchmark::report::{fingerprint, nproc, Outcome};
use mnc_benchmark::{compare, daemon, RunConfig};

const USAGE: &str = "usage: mnc-benchmark run [--workload NAME] --seed N [--seconds S] \
                     [--trace 0|1] [--daemon PATH] [--out DIR]\n       \
                     mnc-benchmark compare BASE_DIR HEAD_DIR [--bench BENCHMARK.json]";

/// Client threads never exceed this (nor the machine's CPUs).
const MAX_CLIENTS: usize = 2;
/// The unmeasured warm-up is this share of the measured window.
const WARMUP_SHARE: f64 = 0.2;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_run(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        daemon: None,
        out: None,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: &String| v.parse::<f64>().ok().filter(|x| x.is_finite() && *x >= 0.0);
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workloads =
                    vec![Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?];
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => {
                args.seconds = number(value()?)
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds: not a positive number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "1" | "true" => true,
                    "0" | "false" => false,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--daemon" => args.daemon = Some(PathBuf::from(value()?)),
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run is using the parent.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_run(argv)?;
    let root = std::env::current_dir().map_err(|e| format!("current directory: {e}"))?;
    let cpus = nproc();
    if cpus < MAX_CLIENTS {
        eprintln!("warning: {cpus} CPU(s): clients and daemon share fewer cores than the benchmark assumes");
    }
    let bin = match &args.daemon {
        Some(p) => p.clone(),
        None => daemon::build(&root)?,
    };
    if !bin.is_file() {
        return Err(format!(
            "daemon binary {} does not exist; refusing to run",
            bin.display()
        ));
    }
    let out_dir = args
        .out
        .clone()
        .unwrap_or_else(|| root.join("benchmark/results"));
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let fp = fingerprint(&root, Some(&bin));

    let window = Duration::from_secs_f64(args.seconds);
    let warmup = window.mul_f64(WARMUP_SHARE);
    let mut outcomes = Vec::with_capacity(args.workloads.len());
    for &workload in &args.workloads {
        let work = root.join("benchmark/work").join(format!(
            "{}-{}-{}",
            workload.name(),
            args.seed,
            std::process::id()
        ));
        let _guard = WorkDir(work.clone());
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            window,
            warmup,
            trace: args.trace,
            threads: cpus.clamp(1, MAX_CLIENTS),
            daemon: Some(bin.clone()),
            work,
            out: out_dir.clone(),
        };
        let outcome = mnc_benchmark::run(&cfg);
        for m in &outcome.metrics {
            println!("{} {} {} {}", workload.name(), m.name, m.value, m.unit);
        }
        for f in &outcome.failures {
            eprintln!("check failed: {f}");
        }
        let mut header = vec![
            ("workload".to_string(), format!("\"{}\"", workload.name())),
            ("seed".to_string(), args.seed.to_string()),
            ("trace".to_string(), args.trace.to_string()),
            ("window_s".to_string(), args.seconds.to_string()),
            ("warmup_s".to_string(), warmup.as_secs_f64().to_string()),
            (
                "client_threads".to_string(),
                // The plain in-process run plans on one thread.
                if workload == Workload::OptimizerInproc && !args.trace {
                    1
                } else {
                    cfg.threads
                }
                .to_string(),
            ),
        ];
        header.extend(fp.iter().cloned());
        let suffix = if args.trace { "-trace" } else { "" };
        let file = out_dir.join(format!(
            "{}-seed{}{suffix}.json",
            workload.name(),
            args.seed
        ));
        std::fs::write(&file, outcome.result_json(&header))
            .map_err(|e| format!("{}: {e}", file.display()))?;
        eprintln!("{}: result written to {}", workload.name(), file.display());
        outcomes.push((workload, outcome));
    }
    let summary = match outcomes.as_slice() {
        [(_, only)] => only.summary_line(),
        all => combined(all).summary_line(),
    };
    println!("{summary}");
    Ok(outcomes.iter().all(|(_, o)| o.correct()))
}

/// One summary for a run of several workloads: their checks added up, and
/// each metric named `<workload>.<metric>`.
fn combined(outcomes: &[(Workload, Outcome)]) -> Outcome {
    let mut all = Outcome::default();
    for (workload, o) in outcomes {
        for m in &o.metrics {
            all.metric(&format!("{}.{}", workload.name(), m.name), m.value, m.unit);
        }
        all.absorb(o.clone());
    }
    all
}

fn compare_cmd(argv: &[String]) -> Result<bool, String> {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bench" => bench = PathBuf::from(it.next().ok_or("--bench needs a value")?),
            _ => dirs.push(PathBuf::from(a)),
        }
    }
    let [base, head] = dirs.as_slice() else {
        return Err(USAGE.to_string());
    };
    let bounds = compare::read_bounds(&bench)?;
    let (table, regressed) = compare::compare(&bounds, Path::new(base), Path::new(head))?;
    print!("{table}");
    Ok(!regressed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => run(&argv[1..]),
        Some("compare") => compare_cmd(&argv[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
