//! Shared observability flags for the benchmark binaries:
//!
//! ```text
//! --trace <file>          write a Chrome trace_event JSON (chrome://tracing,
//!                         Perfetto) of every span in the run
//! --metrics <file>        write the metrics/accuracy report to a file
//! --obs-format <fmt>      table | jsonl | chrome | prom — format of the
//!                         report (stdout when no --metrics file is given)
//! ```
//!
//! Any of the three flags switches the run's recorder on; without them the
//! binaries keep the zero-overhead disabled recorder.
//!
//! Live observability (the `mnc-obsd` daemon) rides the same parser:
//!
//! ```text
//! --serve-obs <addr>      serve GET /metrics /healthz /flight /attribution
//!                         on <addr> (use 127.0.0.1:0 for an OS-assigned
//!                         port, printed to stderr)
//! --flight-capacity <n>   flight-ring slots per stream (default 1024)
//! --serve-linger <secs>   keep the endpoint up for <secs> after the work
//!                         finishes (CI smoke tests, manual curls)
//! ```

use std::io::Write as _;

use mnc_obs::{ObsFormat, Recorder};
use mnc_obsd::{ObsDaemon, ObsdConfig, ServerHandle};

/// Parsed observability flags.
#[derive(Debug, Clone, Default)]
pub struct ObsArgs {
    /// `--trace <file>`: Chrome trace output path.
    pub trace: Option<String>,
    /// `--metrics <file>`: report output path.
    pub metrics: Option<String>,
    /// `--obs-format <fmt>` (default `table`).
    pub format: ObsFormat,
    /// Whether `--obs-format` was given explicitly (an explicit format with
    /// no `--metrics` file sends the report to stdout).
    pub format_explicit: bool,
    /// `--serve-obs <addr>`: bind the live telemetry endpoint here.
    pub serve_obs: Option<String>,
    /// `--flight-capacity <n>` (default [`DEFAULT_FLIGHT_CAPACITY`]).
    pub flight_capacity: usize,
    /// `--serve-linger <secs>`: keep serving this long after the work.
    pub serve_linger: Option<u64>,
}

/// Default `--flight-capacity`.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// Usage lines for the observability flags, for the binaries' help text.
pub const OBS_USAGE: &str = "[--trace <file>] [--metrics <file>] \
     [--obs-format table|jsonl|chrome|prom]\n    \
     [--serve-obs <addr>] [--flight-capacity <n>] [--serve-linger <secs>]";

impl ObsArgs {
    /// Extracts the observability flags from `args`, returning the parsed
    /// flags and the remaining (unconsumed) arguments.
    pub fn parse(args: &[String]) -> Result<(ObsArgs, Vec<String>), String> {
        let mut parsed = ObsArgs {
            flight_capacity: DEFAULT_FLIGHT_CAPACITY,
            ..ObsArgs::default()
        };
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--trace" => {
                    parsed.trace = Some(it.next().ok_or("--trace needs a file path")?.clone());
                }
                "--metrics" => {
                    parsed.metrics = Some(it.next().ok_or("--metrics needs a file path")?.clone());
                }
                "--obs-format" => {
                    parsed.format = it
                        .next()
                        .ok_or("--obs-format needs a value")?
                        .parse::<ObsFormat>()?;
                    parsed.format_explicit = true;
                }
                "--serve-obs" => {
                    parsed.serve_obs =
                        Some(it.next().ok_or("--serve-obs needs an address")?.clone());
                }
                "--flight-capacity" => {
                    parsed.flight_capacity = it
                        .next()
                        .ok_or("--flight-capacity needs a value")?
                        .parse()
                        .map_err(|_| "bad --flight-capacity value")?;
                }
                "--serve-linger" => {
                    parsed.serve_linger = Some(
                        it.next()
                            .ok_or("--serve-linger needs a value in seconds")?
                            .parse()
                            .map_err(|_| "bad --serve-linger value")?,
                    );
                }
                _ => rest.push(a.clone()),
            }
        }
        Ok((parsed, rest))
    }

    /// Whether any flag asked for observability output (report files or a
    /// live endpoint).
    pub fn enabled(&self) -> bool {
        self.trace.is_some()
            || self.metrics.is_some()
            || self.format_explicit
            || self.serve_obs.is_some()
    }

    /// A recorder matching the flags: a full (unbounded) recorder when a
    /// report output was requested, the live endpoint's own **bounded**
    /// recorder when only `--serve-obs` asked for live telemetry (service
    /// mode — span storage must not grow without limit, and the daemon
    /// keeps one source), and the zero-overhead disabled recorder
    /// otherwise.
    pub fn recorder(&self, server: Option<&ObsServer>) -> Recorder {
        if self.trace.is_some() || self.metrics.is_some() || self.format_explicit {
            Recorder::enabled()
        } else if let Some(srv) = server {
            srv.daemon.recorder().clone()
        } else {
            Recorder::disabled()
        }
    }

    /// Starts the live telemetry endpoint when `--serve-obs` was given:
    /// builds an [`ObsDaemon`] (flight capacity from `--flight-capacity`),
    /// binds the address, and prints the resolved address to stderr (with
    /// `:0` binds this is how scripts learn the port). Returns `None`
    /// without the flag.
    pub fn serve(&self) -> Result<Option<ObsServer>, String> {
        let Some(addr) = &self.serve_obs else {
            return Ok(None);
        };
        let daemon = ObsDaemon::new(ObsdConfig {
            flight_capacity: self.flight_capacity.max(1),
            ..ObsdConfig::default()
        });
        let handle = daemon
            .serve(addr)
            .map_err(|e| format!("--serve-obs {addr}: {e}"))?;
        eprintln!(
            "obsd: serving on http://{} (/metrics /healthz /flight /attribution)",
            handle.local_addr()
        );
        Ok(Some(ObsServer {
            daemon,
            handle,
            linger_secs: self.serve_linger,
        }))
    }

    /// Writes the requested outputs from the recorder: the Chrome trace to
    /// `--trace`, the report (in `--obs-format`) to `--metrics` or stdout.
    /// A no-op for a disabled recorder.
    pub fn emit(&self, rec: &Recorder) -> Result<(), String> {
        if !rec.is_enabled() {
            return Ok(());
        }
        let report = rec.report();
        if let Some(path) = &self.trace {
            std::fs::write(path, report.to_chrome_trace()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
        let rendered = report.render(self.format);
        if let Some(path) = &self.metrics {
            std::fs::write(path, &rendered).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote {:?} report to {path}", self.format);
        } else if self.format_explicit {
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            out.write_all(rendered.as_bytes())
                .and_then(|()| {
                    if rendered.ends_with('\n') {
                        Ok(())
                    } else {
                        writeln!(out)
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }
}

/// A running live-telemetry endpoint (`--serve-obs`): the daemon plus its
/// HTTP server handle.
pub struct ObsServer {
    daemon: ObsDaemon,
    handle: ServerHandle,
    linger_secs: Option<u64>,
}

impl ObsServer {
    /// The daemon, for installing onto recorders and inspecting state.
    pub fn daemon(&self) -> &ObsDaemon {
        &self.daemon
    }

    /// The bound address (port resolved for `:0` binds).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.handle.local_addr()
    }

    /// Wires a recorder's streams and registry into the daemon (see
    /// [`ObsDaemon::install`]).
    pub fn install(&self, rec: &Recorder) -> bool {
        self.daemon.install(rec)
    }

    /// Finishes the serving phase: honors `--serve-linger` (so smoke tests
    /// and humans can still curl the endpoints after the work is done),
    /// then shuts the server down.
    pub fn finish(mut self) {
        if let Some(secs) = self.linger_secs {
            eprintln!("obsd: work done; serving for {secs}s more (--serve-linger)");
            std::thread::sleep(std::time::Duration::from_secs(secs));
        }
        self.handle.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parse_extracts_flags_and_keeps_the_rest() {
        let (obs, rest) = ObsArgs::parse(&s(&[
            "a.mtx",
            "--trace",
            "t.json",
            "--op",
            "matmul",
            "--obs-format",
            "jsonl",
        ]))
        .unwrap();
        assert_eq!(obs.trace.as_deref(), Some("t.json"));
        assert_eq!(obs.format, ObsFormat::Jsonl);
        assert!(obs.format_explicit);
        assert!(obs.enabled());
        assert!(obs.recorder(None).is_enabled());
        assert_eq!(rest, s(&["a.mtx", "--op", "matmul"]));
    }

    #[test]
    fn no_flags_means_disabled_recorder() {
        let (obs, rest) = ObsArgs::parse(&s(&["x", "y"])).unwrap();
        assert!(!obs.enabled());
        assert!(!obs.recorder(None).is_enabled());
        assert_eq!(rest.len(), 2);
        // emit on a disabled recorder is a no-op.
        obs.emit(&Recorder::disabled()).unwrap();
    }

    #[test]
    fn parse_rejects_missing_values_and_bad_formats() {
        assert!(ObsArgs::parse(&s(&["--trace"])).is_err());
        assert!(ObsArgs::parse(&s(&["--metrics"])).is_err());
        assert!(ObsArgs::parse(&s(&["--obs-format", "xml"])).is_err());
        assert!(ObsArgs::parse(&s(&["--serve-obs"])).is_err());
        assert!(ObsArgs::parse(&s(&["--flight-capacity", "many"])).is_err());
        assert!(ObsArgs::parse(&s(&["--serve-linger", "-1"])).is_err());
    }

    #[test]
    fn serve_flags_attach_the_daemon_recorder_and_start_the_endpoint() {
        let (obs, rest) = ObsArgs::parse(&s(&[
            "a.mtx",
            "--serve-obs",
            "127.0.0.1:0",
            "--flight-capacity",
            "16",
        ]))
        .unwrap();
        assert_eq!(rest, s(&["a.mtx"]));
        assert!(obs.enabled());
        let server = obs.serve().unwrap().expect("flag set");
        // Service mode without report flags: the daemon's own bounded
        // recorder, already installed, so the daemon keeps one source.
        let rec = obs.recorder(Some(&server));
        assert!(rec.same_as(server.daemon().recorder()));
        assert_eq!(rec.ring_capacity(), Some(16));
        assert!(!server.install(&rec));
        assert_eq!(server.daemon().source_count(), 1);
        // A session on it reaches the flight ring and `/metrics`.
        let mut dag = mnc_expr::ExprDag::new();
        let m = std::sync::Arc::new(mnc_matrix::CsrMatrix::identity(8));
        let a = dag.leaf("A", m);
        let root = dag.matmul(a, a).unwrap();
        mnc_expr::EstimationContext::new()
            .with_recorder(rec)
            .estimate_root(&mnc_estimators::MncEstimator::new(), &dag, root)
            .unwrap();
        assert!(server.daemon().recorder().span_count() > 0);
        let text = server.daemon().metrics_text();
        assert!(text.contains("mnc_session_build_ns_count"), "{text}");
        assert!(text.contains("mnc_obsd_sources 1"), "{text}");
        // With a report flag too, the unbounded recorder wins.
        let (both, _) =
            ObsArgs::parse(&s(&["--serve-obs", "127.0.0.1:0", "--obs-format", "jsonl"])).unwrap();
        assert_eq!(both.recorder(Some(&server)).ring_capacity(), None);
        assert!(both.recorder(Some(&server)).is_enabled());

        // The endpoint answers /healthz.
        let addr = server.local_addr();
        use std::io::{Read as _, Write as _};
        let mut c = std::net::TcpStream::connect(addr).unwrap();
        c.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut resp = String::new();
        c.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.finish();

        // No flag, no server.
        let (none, _) = ObsArgs::parse(&s(&["x"])).unwrap();
        assert!(none.serve().unwrap().is_none());
    }
}
