//! Concurrent-client load harness for `mnc-served`.
//!
//! Starts an [`EstimationService`] on an ephemeral loopback port over a
//! throwaway catalog, ingests a small matrix chain over HTTP, then drives
//! `clients` threads issuing `POST /v1/estimate` in a closed loop, each
//! over one persistent connection.
//! Every request's wall latency is collected; the p50/p99 land in the
//! `mnc-perf` record as gated `served.estimate.*_ns` metrics, so a
//! regression in the service path — routing, admission, session locking,
//! the walk — trips the same CI gate as a kernel regression.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use mnc_matrix::{gen, CsrMatrix};
use mnc_served::{serve_with, EstimationService, ServeOptions, ServedConfig};
use rand::SeedableRng;

/// Aggregated result of one load run.
#[derive(Debug, Clone, Copy)]
pub struct LoadReport {
    /// Median request latency (nanoseconds, full HTTP round trip).
    pub p50_ns: f64,
    /// 99th-percentile request latency.
    pub p99_ns: f64,
    /// Median admission-queue wait, measured service-side by the trace
    /// plane (0 on the uncontended fast path).
    pub queue_wait_p50_ns: f64,
    /// 99th-percentile admission-queue wait.
    pub queue_wait_p99_ns: f64,
    /// Median service time (request total minus queue wait), service-side.
    pub service_p50_ns: f64,
    /// 99th-percentile service time.
    pub service_p99_ns: f64,
    /// Requests completed with HTTP 200.
    pub ok: u64,
    /// Requests answered with any other status (including 429 sheds).
    pub errors: u64,
    /// Requests sampled by the shadow plane (the run drives rate 1.0, so
    /// this should match `ok`).
    pub shadow_sampled: u64,
    /// Shadow jobs fully processed by the background workers.
    pub shadow_completed: u64,
    /// Shadow jobs shed by the bounded queue under load.
    pub shadow_dropped: u64,
    /// Fraction of sampled shadow jobs that were shed (0 when none sampled).
    pub shadow_drop_rate: f64,
    /// 99th-percentile background shadow-run latency (worst across the
    /// alternate estimators; informational, off the request path).
    pub shadow_p99_ns: f64,
}

/// One client's persistent connection: each request leaves in one write
/// and each response is read by its `Content-Length`, so the connection
/// carries the next request. Reconnects after the server closes it.
struct Conn<'a> {
    addr: &'a str,
    stream: Option<BufReader<TcpStream>>,
}

impl<'a> Conn<'a> {
    fn new(addr: &'a str) -> Conn<'a> {
        Conn { addr, stream: None }
    }

    /// One blocking HTTP exchange; returns the status code.
    fn roundtrip(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<u16> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
        }
        let stream = self.stream.as_mut().expect("connected above");
        let mut wire = format!(
            "{method} {path} HTTP/1.1\r\nHost: perf\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let reply = stream
            .get_mut()
            .write_all(&wire)
            .and_then(|()| read_response(stream));
        if !matches!(reply, Ok((_, false))) {
            self.stream = None;
        }
        reply.map(|(status, _)| status)
    }
}

/// Reads one response; returns its status and whether the server closes
/// the connection after it.
fn read_response(stream: &mut BufReader<TcpStream>) -> io::Result<(u16, bool)> {
    let invalid = |what| io::Error::new(io::ErrorKind::InvalidData, what);
    let mut line = String::new();
    read_line(stream, &mut line)?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let (mut length, mut close) = (None, false);
    loop {
        read_line(stream, &mut line)?;
        let Some((name, value)) = line.split_once(':') else {
            break; // the blank line ending the head
        };
        if name.eq_ignore_ascii_case("content-length") {
            length = value.trim().parse::<u64>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.trim().eq_ignore_ascii_case("close");
        }
    }
    let length = length.ok_or_else(|| invalid("no Content-Length"))?;
    if io::copy(&mut stream.by_ref().take(length), &mut io::sink())? < length {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok((status, close))
}

/// Reads one line into `line` (cleared first); end-of-file is an error.
fn read_line(stream: &mut BufReader<TcpStream>, line: &mut String) -> io::Result<()> {
    line.clear();
    match stream.read_line(line)? {
        0 => Err(io::ErrorKind::UnexpectedEof.into()),
        _ => Ok(()),
    }
}

/// Raw-CSR ingest body (`PUT /v1/matrices/{name}`) for `m`.
pub fn csr_json(m: &CsrMatrix) -> String {
    let ptr = m
        .row_ptr()
        .iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let idx = m
        .col_indices()
        .iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"nrows\":{},\"ncols\":{},\"row_ptr\":[{}],\"col_idx\":[{}]}}",
        m.nrows(),
        m.ncols(),
        ptr,
        idx
    )
}

/// Runs the load: `clients` concurrent sessions, `requests` estimates each,
/// over a `(A B) C` chain sized by `scale`.
pub fn run_load(scale: f64, clients: usize, requests: usize) -> LoadReport {
    let d = ((200.0 * scale) as usize).max(20);
    let dir = std::env::temp_dir().join(format!("mnc-perf-served-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut cfg = ServedConfig::new(&dir);
    cfg.workers = clients.max(1);
    cfg.queue = clients * 2;
    // Shadow every request: the load run measures the worst case for the
    // isolation contract (sampling on the hot path, shed rate under
    // contention) and feeds `served.shadow.*` into the perf record.
    cfg.shadow_rate = 1.0;
    let service = EstimationService::new(cfg).expect("served: open catalog");
    let handle = serve_with(service.clone(), "127.0.0.1:0", ServeOptions::default())
        .expect("served: bind loopback");
    let addr = handle.local_addr().to_string();

    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E2D);
    let a = gen::rand_uniform(&mut rng, d, d, 0.05);
    let b = gen::rand_uniform(&mut rng, d, d, 0.05);
    let c = gen::rand_uniform(&mut rng, d, d, 0.05);
    let mut ingest = Conn::new(&addr);
    for (name, m) in [("A", &a), ("B", &b), ("C", &c)] {
        let status = ingest
            .roundtrip(
                "PUT",
                &format!("/v1/matrices/{name}"),
                csr_json(m).as_bytes(),
            )
            .expect("served: ingest");
        assert_eq!(status, 201, "served: ingest {name} failed");
    }

    let results: Vec<(Vec<u64>, u64, u64)> = std::thread::scope(|scope| {
        let addr: &str = &addr;
        (0..clients)
            .map(|cid| {
                scope.spawn(move || {
                    let req = format!(
                        r#"{{"client":"load-{cid}","dag":[{{"leaf":"A"}},{{"leaf":"B"}},{{"leaf":"C"}},
                        {{"op":"matmul","inputs":[0,1]}},{{"op":"matmul","inputs":[3,2]}}]}}"#
                    );
                    let mut conn = Conn::new(addr);
                    let mut lat = Vec::with_capacity(requests);
                    let (mut ok, mut errors) = (0u64, 0u64);
                    for _ in 0..requests {
                        let t = Instant::now();
                        match conn.roundtrip("POST", "/v1/estimate", req.as_bytes()) {
                            Ok(200) => {
                                lat.push(t.elapsed().as_nanos() as u64);
                                ok += 1;
                            }
                            _ => errors += 1,
                        }
                    }
                    (lat, ok, errors)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("load client"))
            .collect()
    });
    // Both scoreboards live in the daemon recorder's registry. Service-side
    // latency split: the trace plane's RED histograms separate time queued
    // at the admission gate from time actually serving.
    let registry = service
        .daemon()
        .recorder()
        .registry()
        .expect("the daemon recorder is always enabled");
    let (qw, sv) = {
        let snap = registry.snapshot();
        let histo_quantiles = |name: &str| -> (f64, f64) {
            snap.histograms
                .get(name)
                .map(|h| (h.quantile(0.50) as f64, h.quantile(0.99) as f64))
                .unwrap_or((0.0, 0.0))
        };
        (
            histo_quantiles("served.queue_wait_ns{endpoint=/v1/estimate}"),
            histo_quantiles("served.service_ns{endpoint=/v1/estimate}"),
        )
    };
    // Shadow scoreboard: let the background workers finish the queued jobs
    // (the drain is test/bench support — production never waits), then read
    // the counters and the worst per-estimator latency p99.
    let shadow = service.shadow_plane();
    shadow.drain();
    let (sh_sampled, sh_completed, sh_dropped) =
        (shadow.sampled(), shadow.completed(), shadow.dropped());
    let sh_p99 = registry
        .snapshot()
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("shadow.latency_ns"))
        .map(|(_, h)| h.quantile(0.99))
        .max()
        .unwrap_or(0) as f64;
    drop(service);
    drop(handle);
    let _ = std::fs::remove_dir_all(&dir);

    let mut lat: Vec<u64> = results
        .iter()
        .flat_map(|(l, _, _)| l.iter().copied())
        .collect();
    lat.sort_unstable();
    let q = |q: f64| -> f64 {
        if lat.is_empty() {
            return 0.0;
        }
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        lat[idx.min(lat.len() - 1)] as f64
    };
    LoadReport {
        p50_ns: q(0.50),
        p99_ns: q(0.99),
        queue_wait_p50_ns: qw.0,
        queue_wait_p99_ns: qw.1,
        service_p50_ns: sv.0,
        service_p99_ns: sv.1,
        ok: results.iter().map(|(_, ok, _)| ok).sum(),
        errors: results.iter().map(|(_, _, e)| e).sum(),
        shadow_sampled: sh_sampled,
        shadow_completed: sh_completed,
        shadow_dropped: sh_dropped,
        shadow_drop_rate: if sh_sampled == 0 {
            0.0
        } else {
            sh_dropped as f64 / sh_sampled as f64
        },
        shadow_p99_ns: sh_p99,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_load_run_completes_cleanly() {
        let report = run_load(0.1, 2, 5);
        assert_eq!(report.ok, 10);
        assert_eq!(report.errors, 0);
        assert!(report.p50_ns > 0.0);
        assert!(report.p99_ns >= report.p50_ns);
        // Service-side split: service time is real work (positive) and the
        // split can never exceed the full client round trip.
        assert!(report.service_p50_ns > 0.0);
        assert!(report.service_p99_ns >= report.service_p50_ns);
        assert!(report.queue_wait_p99_ns >= report.queue_wait_p50_ns);
        assert!(report.service_p50_ns <= report.p99_ns);
        // The shadow plane sampled every 200 and accounted for each job —
        // completed plus shed, never lost.
        assert_eq!(report.shadow_sampled, report.ok);
        assert_eq!(
            report.shadow_completed + report.shadow_dropped,
            report.shadow_sampled
        );
        assert!((0.0..=1.0).contains(&report.shadow_drop_rate));
        if report.shadow_completed > 0 {
            assert!(report.shadow_p99_ns > 0.0);
        }
    }
}
