//! The `mnc-served` child process: build, spawn, health, kill, and what
//! `/proc` says about it.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mnc_obs::Recorder;

use crate::client::Client;

/// How long a spawned daemon may take to print its address and turn healthy.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// Linux reports process CPU time in clock ticks of this rate (`USER_HZ`).
const TICKS_PER_SEC: f64 = 100.0;

/// Builds the daemon from the checkout at `root` with the cargo that runs
/// this benchmark and returns the binary cargo reports. Build output goes
/// to stderr; the target directory follows `CARGO_TARGET_DIR` as usual.
pub fn build(root: &Path) -> Result<PathBuf, String> {
    if !root.join("crates/served/Cargo.toml").is_file() {
        return Err(format!(
            "{} holds no mnc-served sources; run from the repository root",
            root.display()
        ));
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "mnc-served",
            "--bin",
            "mnc-served",
            "--message-format=json-render-diagnostics",
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building mnc-served failed ({})", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| mnc_obs::json::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(|n| n.as_str())
                == Some("mnc-served")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(|e| e.as_str())
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no mnc-served executable".to_string())
}

/// A running daemon. Dropping it kills the process and waits for it.
pub(crate) struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: ChildStdout,
}

impl Daemon {
    /// Starts `bin` on `catalog` with production defaults (loopback, an
    /// OS-chosen port, tracing on, shadow rate 0) and waits until it prints
    /// its address and answers `/healthz`.
    pub fn start(bin: &Path, catalog: &Path) -> Result<Daemon, String> {
        let deadline = Instant::now() + START_TIMEOUT;
        let mut child = Command::new(bin)
            .arg("--catalog")
            .arg(catalog)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // The first stdout line names the bound address; read it on a helper
        // thread so a daemon that never prints cannot hang the benchmark.
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            let mut line = String::new();
            let res = r.read_line(&mut line).map(|_| line);
            let _ = tx.send(res);
            r.into_inner()
        });
        let line = match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
            Ok(Ok(line)) => line,
            other => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("daemon did not report its address: {other:?}"));
            }
        };
        let stdout = reader.join().expect("stdout reader");
        let addr = parse_listening(&line)
            .ok_or_else(|| format!("unexpected daemon banner `{}`", line.trim()))?;
        let mut daemon = Daemon {
            child,
            addr,
            _stdout: stdout,
        };
        daemon.wait_healthy(deadline)?;
        Ok(daemon)
    }

    fn wait_healthy(&mut self, deadline: Instant) -> Result<(), String> {
        let mut client = Client::new(self.addr, Recorder::disabled());
        loop {
            match client.request("GET", "/healthz", None, b"") {
                Ok(r) if r.status == 200 => return Ok(()),
                other => {
                    if let Ok(Some(status)) = self.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("daemon never turned healthy: {other:?}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    /// The daemon's address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kills the daemon with SIGKILL (no graceful shutdown: a restart must
    /// cope with whatever a crash leaves) and reaps it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// Parses `mnc-served listening on http://HOST:PORT (catalog ...)`.
pub(crate) fn parse_listening(line: &str) -> Option<SocketAddr> {
    let rest = line.split("listening on http://").nth(1)?;
    rest.split_whitespace().next()?.parse().ok()
}

/// Peak resident set size (`VmHWM`) of process `pid`, in bytes.
pub(crate) fn peak_rss_bytes(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// User plus system CPU time consumed so far by process `pid`, seconds.
pub(crate) fn cpu_seconds(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesized command name; utime and stime are the
    // 14th and 15th fields overall, so the 12th and 13th after it.
    let after = &stat[stat.rfind(')')? + 2..];
    let mut fields = after.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SEC)
}

/// Total size in bytes of the regular files directly in `dir`.
pub(crate) fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
