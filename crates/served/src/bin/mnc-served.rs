//! `mnc-served` — the standalone estimation daemon.
//!
//! ```text
//! mnc-served --catalog <dir> [--addr 127.0.0.1:9419] [--workers 4]
//!            [--queue 8] [--max-body 4194304] [--flight-capacity 1024]
//!            [--slow-threshold MS] [--access-log PATH] [--access-log-max-bytes N]
//!            [--access-log-keep N] [--no-tracing]
//!            [--shadow-rate FRACTION] [--retain-csr]
//!            [--timeline-capacity N] [--slo-availability TARGET]
//!            [--slo-latency-ms MS] [--slo-fast-window S] [--slo-slow-window S]
//! ```
//!
//! Serves the `/v1` estimation API plus the telemetry health plane on one
//! listener. The catalog directory persists ingested sketches across
//! restarts; a bounce re-serves them without rebuilding.

use std::process::ExitCode;

use mnc_served::{serve_with, EstimationService, ServeOptions, ServedConfig};

const USAGE: &str = "usage: mnc-served --catalog <dir> [--addr HOST:PORT] [--workers N] \
                     [--queue N] [--max-body BYTES] [--flight-capacity N] \
                     [--slow-threshold MS] [--access-log PATH] [--access-log-max-bytes N] \
                     [--access-log-keep N] [--no-tracing] \
                     [--shadow-rate FRACTION] [--retain-csr] \
                     [--timeline-capacity N] [--slo-availability TARGET] \
                     [--slo-latency-ms MS] [--slo-fast-window S] [--slo-slow-window S]";

struct Args {
    addr: String,
    max_body: usize,
    cfg: ServedConfig,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut catalog: Option<String> = None;
    let mut addr = "127.0.0.1:9419".to_string();
    let mut workers = 4usize;
    let mut queue = 8usize;
    let mut max_body = 4 << 20;
    let mut flight_capacity = 1024usize;
    let mut slow_threshold_ms: Option<u64> = None;
    let mut access_log: Option<String> = None;
    let mut tracing = true;
    let mut shadow_rate = 0.0f64;
    let mut retain_csr = false;
    let mut timeline_capacity: Option<usize> = None;
    let mut slo_availability: Option<f64> = None;
    let mut slo_latency_ms: Option<u64> = None;
    let mut slo_fast_window_s: Option<u64> = None;
    let mut slo_slow_window_s: Option<u64> = None;
    let mut access_log_max_bytes: Option<u64> = None;
    let mut access_log_keep: Option<usize> = None;

    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--catalog" => catalog = Some(value("--catalog")?.clone()),
            "--addr" => addr = value("--addr")?.clone(),
            "--workers" => {
                workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers: not a number".to_string())?
            }
            "--queue" => {
                queue = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue: not a number".to_string())?
            }
            "--max-body" => {
                max_body = value("--max-body")?
                    .parse()
                    .map_err(|_| "--max-body: not a number".to_string())?
            }
            "--flight-capacity" => {
                flight_capacity = value("--flight-capacity")?
                    .parse()
                    .map_err(|_| "--flight-capacity: not a number".to_string())?
            }
            "--slow-threshold" => {
                slow_threshold_ms = Some(
                    value("--slow-threshold")?
                        .parse()
                        .map_err(|_| "--slow-threshold: not a number (milliseconds)".to_string())?,
                )
            }
            "--access-log" => access_log = Some(value("--access-log")?.clone()),
            "--no-tracing" => tracing = false,
            "--shadow-rate" => {
                shadow_rate = value("--shadow-rate")?
                    .parse()
                    .map_err(|_| "--shadow-rate: not a number".to_string())?;
                if !(0.0..=1.0).contains(&shadow_rate) {
                    return Err("--shadow-rate must be in [0, 1]".to_string());
                }
            }
            "--retain-csr" => retain_csr = true,
            "--timeline-capacity" => {
                timeline_capacity = Some(
                    value("--timeline-capacity")?
                        .parse()
                        .map_err(|_| "--timeline-capacity: not a number".to_string())?,
                )
            }
            "--slo-availability" => {
                let v: f64 = value("--slo-availability")?
                    .parse()
                    .map_err(|_| "--slo-availability: not a number".to_string())?;
                if !(0.0..1.0).contains(&v) {
                    return Err("--slo-availability must be in [0, 1) (0 disables)".to_string());
                }
                slo_availability = Some(v);
            }
            "--slo-latency-ms" => {
                slo_latency_ms = Some(
                    value("--slo-latency-ms")?
                        .parse()
                        .map_err(|_| "--slo-latency-ms: not a number (milliseconds)".to_string())?,
                )
            }
            "--slo-fast-window" => {
                slo_fast_window_s = Some(
                    value("--slo-fast-window")?
                        .parse()
                        .map_err(|_| "--slo-fast-window: not a number (seconds)".to_string())?,
                )
            }
            "--slo-slow-window" => {
                slo_slow_window_s = Some(
                    value("--slo-slow-window")?
                        .parse()
                        .map_err(|_| "--slo-slow-window: not a number (seconds)".to_string())?,
                )
            }
            "--access-log-max-bytes" => {
                access_log_max_bytes = Some(
                    value("--access-log-max-bytes")?
                        .parse()
                        .map_err(|_| "--access-log-max-bytes: not a number".to_string())?,
                )
            }
            "--access-log-keep" => {
                access_log_keep = Some(
                    value("--access-log-keep")?
                        .parse()
                        .map_err(|_| "--access-log-keep: not a number".to_string())?,
                )
            }
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    let catalog = catalog.ok_or_else(|| format!("--catalog is required\n{USAGE}"))?;
    let mut cfg = ServedConfig::new(catalog);
    cfg.workers = workers;
    cfg.queue = queue;
    cfg.flight_capacity = flight_capacity;
    cfg.tracing = tracing;
    if let Some(ms) = slow_threshold_ms {
        cfg.slow_threshold = std::time::Duration::from_millis(ms);
    }
    cfg.access_log = access_log.map(std::path::PathBuf::from);
    cfg.shadow_rate = shadow_rate;
    cfg.retain_csr = retain_csr;
    if let Some(n) = timeline_capacity {
        cfg.timeline_capacity = n;
    }
    if let Some(v) = slo_availability {
        cfg.slo_availability = v;
    }
    if let Some(ms) = slo_latency_ms {
        cfg.slo_latency_ms = ms;
    }
    if let Some(s) = slo_fast_window_s {
        cfg.slo_fast_window_s = s.max(1);
    }
    if let Some(s) = slo_slow_window_s {
        cfg.slo_slow_window_s = s.max(1);
    }
    if let Some(b) = access_log_max_bytes {
        cfg.access_log_max_bytes = b;
    }
    if let Some(k) = access_log_keep {
        cfg.access_log_keep = k.max(1);
    }
    // Test hook: hold each estimate inside its admission permit for a fixed
    // delay, so saturation tests can trigger 429 sheds deterministically
    // instead of racing microsecond-fast estimates.
    if let Some(ms) = std::env::var("MNC_SERVED_DEBUG_DELAY_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg.debug_estimate_delay = Some(std::time::Duration::from_millis(ms));
    }
    // Companion hook: the delay only applies while uptime is under this
    // window, so an injected degradation clears by itself (the SLO e2e's
    // hysteresis-recovery half).
    if let Some(s) = std::env::var("MNC_SERVED_DEBUG_DELAY_FOR_S")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        cfg.debug_delay_for = Some(std::time::Duration::from_secs(s));
    }
    Ok(Args {
        addr,
        max_body,
        cfg,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("error: {msg}");
            return ExitCode::from(2);
        }
    };
    let catalog_dir = args.cfg.catalog_dir.clone();
    let service = match EstimationService::new(args.cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let handle = match serve_with(
        service.clone(),
        args.addr.as_str(),
        ServeOptions {
            max_body_bytes: args.max_body,
        },
    ) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    println!(
        "mnc-served listening on http://{} (catalog {})",
        handle.local_addr(),
        catalog_dir.display()
    );
    // Serve until killed; the accept loop lives in background threads.
    loop {
        std::thread::park();
    }
}
