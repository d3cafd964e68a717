//! End-to-end tests of the embedded HTTP endpoint: golden `/metrics` body,
//! concurrent scrapes during live estimation traffic, malformed requests,
//! and the drift-driven `/healthz` flip.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use mnc_obs::{span, AccuracyRecord, Recorder};
use mnc_obsd::{DriftConfig, ObsDaemon, ObsdConfig, TimelineConfig};

fn small_config() -> ObsdConfig {
    ObsdConfig {
        flight_capacity: 64,
        drift: DriftConfig {
            min_samples: 4,
            window: 8,
            ..DriftConfig::default()
        },
        // Off so the golden `/metrics` body stays deterministic; the
        // timeline endpoints get their own config below.
        timeline: TimelineConfig {
            enabled: false,
            ..TimelineConfig::default()
        },
    }
}

fn timeline_config() -> ObsdConfig {
    ObsdConfig {
        timeline: TimelineConfig {
            capacity: 16,
            ..TimelineConfig::default()
        },
        ..small_config()
    }
}

/// Sends raw bytes and returns `(status code, body)`.
fn raw_request(addr: SocketAddr, raw: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(raw).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparseable response: {response:?}"));
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    raw_request(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    )
}

#[test]
fn metrics_body_is_golden() {
    let daemon = ObsDaemon::new(small_config());
    let rec = Recorder::enabled();
    daemon.install(&rec);
    rec.counter("cache.hit").add(7);
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let (status, body) = get(server.local_addr(), "/metrics");
    assert_eq!(status, 200);
    // The exact exposition body for this state: one session counter merged
    // with the daemon's deterministic service metrics, sorted by name. The
    // two sources are `rec` and the daemon's own (still empty) recorder.
    let expected = "\
# TYPE mnc_cache_hit_total counter
mnc_cache_hit_total 7
# TYPE mnc_obsd_drift_alerts_total counter
mnc_obsd_drift_alerts_total 0
# TYPE mnc_obsd_flight_accuracy_pushed_total counter
mnc_obsd_flight_accuracy_pushed_total 0
# TYPE mnc_obsd_flight_dropped_total counter
mnc_obsd_flight_dropped_total 0
# TYPE mnc_obsd_flight_spans_pushed_total counter
mnc_obsd_flight_spans_pushed_total 0
# TYPE mnc_obsd_degraded gauge
mnc_obsd_degraded 0
# TYPE mnc_obsd_flight_accuracy_retained gauge
mnc_obsd_flight_accuracy_retained 0
# TYPE mnc_obsd_flight_spans_retained gauge
mnc_obsd_flight_spans_retained 0
# TYPE mnc_obsd_sources gauge
mnc_obsd_sources 2
";
    assert_eq!(body, expected);
}

#[test]
fn concurrent_scrapes_during_estimates_stay_consistent() {
    let daemon = ObsDaemon::new(small_config());
    let rec = Recorder::enabled();
    daemon.install(&rec);
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let hits = rec.counter("cache.hit");

    std::thread::scope(|scope| {
        // A writer hammering the telemetry channels, as estimates would.
        let writer_rec = rec.clone();
        scope.spawn(move || {
            for i in 0..500u64 {
                let _g = span!(writer_rec, "estimate", nnz_in = i);
                hits.incr();
            }
        });
        // Two clients scraping /metrics while the writer runs.
        for _ in 0..2 {
            scope.spawn(move || {
                for _ in 0..20 {
                    let (status, body) = get(addr, "/metrics");
                    assert_eq!(status, 200);
                    // Every sample line parses as `name value` with a
                    // non-negative counter value.
                    let hit_line = body
                        .lines()
                        .find(|l| l.starts_with("mnc_cache_hit_total "))
                        .expect("counter always present once registered");
                    let v: u64 = hit_line.split(' ').nth(1).unwrap().parse().unwrap();
                    assert!(v <= 500);
                    assert!(body.contains("mnc_obsd_sources 2"));
                }
            });
        }
    });

    // After the writer finishes, the scrape converges on the final values.
    let (status, body) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(body.contains("mnc_cache_hit_total 500"), "{body}");
    assert!(
        body.contains("mnc_obsd_flight_spans_pushed_total 500"),
        "{body}"
    );
}

#[test]
fn malformed_requests_get_400_and_unknown_paths_404() {
    let daemon = ObsDaemon::new(small_config());
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    // Not HTTP at all.
    let (status, _) = raw_request(addr, b"garbage\r\n\r\n");
    assert_eq!(status, 400);
    // Missing the leading slash.
    let (status, _) = raw_request(addr, b"GET metrics HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400);
    // Wrong protocol token.
    let (status, _) = raw_request(addr, b"GET /metrics SPDY/3\r\n\r\n");
    assert_eq!(status, 400);
    // Well-formed but non-GET.
    let (status, _) = raw_request(addr, b"POST /metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
    assert_eq!(status, 405);
    // Well-formed GET for nothing we serve.
    let (status, body) = get(addr, "/nope");
    assert_eq!(status, 404);
    assert_eq!(body, "not found\n");
    // The server still answers real routes after the abuse.
    let (status, _) = get(addr, "/metrics");
    assert_eq!(status, 200);
}

#[test]
fn healthz_flips_to_degraded_on_injected_drift() {
    let daemon = ObsDaemon::new(small_config());
    let rec = Recorder::enabled();
    daemon.install(&rec);
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(body, "OK\n");

    // Inject a drifting accuracy stream: a sampling-style estimator that
    // is consistently ~10x off trips the geo-EWMA ceiling.
    for i in 0..20 {
        rec.record_accuracy(AccuracyRecord::new(
            format!("c{i}"),
            "matmul",
            "Sample",
            0.9,
            0.09,
        ));
    }

    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 503);
    assert!(body.starts_with("DEGRADED\n"), "{body}");
    assert!(body.contains("Sample/matmul"), "{body}");
    // The alert counter shows up on /metrics too.
    let (_, metrics) = get(addr, "/metrics");
    assert!(
        metrics.contains("mnc_obsd_drift_alerts_total 1"),
        "{metrics}"
    );
    assert!(metrics.contains("mnc_obsd_degraded 1"), "{metrics}");

    // Recovery: a long accurate stream restores OK (hysteresis).
    for i in 0..200 {
        rec.record_accuracy(AccuracyRecord::new(
            format!("r{i}"),
            "matmul",
            "Sample",
            0.1,
            0.1,
        ));
    }
    let (status, body) = get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
}

#[test]
fn flight_and_attribution_serve_ring_contents() {
    let daemon = ObsDaemon::new(small_config());
    let rec = Recorder::enabled();
    daemon.install(&rec);
    {
        let _outer = span!(rec, "estimate", op = "matmul");
        let _inner = span!(rec, "build", op = "MNC");
    }
    rec.record_accuracy(AccuracyRecord::new("B1.1", "matmul", "MNC", 0.1, 0.2));
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    let (status, body) = get(addr, "/flight");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 3, "{body}");
    assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(body.contains("\"type\":\"span\""));
    assert!(body.contains("\"type\":\"accuracy\""));

    let (status, body) = get(addr, "/attribution");
    assert_eq!(status, 200);
    assert!(body.contains("estimate"), "{body}");
}

#[test]
fn timeline_endpoint_serves_series_and_slo_block() {
    let daemon = ObsDaemon::new(timeline_config());
    let rec = Recorder::enabled();
    daemon.install(&rec);
    rec.counter("cache.hit").add(7);
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();

    // A scrape refreshes the daemon, which tails the snapshot into the
    // timeline (first frame lands on the first refresh).
    let (status, metrics) = get(addr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("mnc_slo_burn_alerts_total 0"), "{metrics}");
    assert!(metrics.contains("mnc_timeline_series "), "{metrics}");
    assert!(
        metrics.contains("mnc_slo_firing{objective=\"availability\"} 0"),
        "{metrics}"
    );

    let (status, body) = get(addr, "/v1/debug/timeline");
    assert_eq!(status, 200);
    assert!(body.contains("\"schema\":\"mnc.timeline.v1\""), "{body}");
    assert!(body.contains("\"metric\":\"cache.hit\""), "{body}");
    assert!(body.contains("\"alerts_total\":0"), "{body}");

    // Selection narrows the series list.
    let (status, body) = get(addr, "/v1/debug/timeline?metric=cache.&resolution=1s");
    assert_eq!(status, 200);
    assert!(body.contains("cache.hit"), "{body}");
    assert!(!body.contains("obsd.flight"), "{body}");

    // Malformed selections are rejected, not ignored.
    let (status, _) = get(addr, "/v1/debug/timeline?resolution=5m");
    assert_eq!(status, 400);
    let (status, _) = get(addr, "/v1/debug/timeline?since=yesterday");
    assert_eq!(status, 400);
}

#[test]
fn timeline_disabled_serves_empty_series() {
    let daemon = ObsDaemon::new(small_config());
    let server = daemon.serve("127.0.0.1:0").expect("bind");
    let (status, body) = get(server.local_addr(), "/v1/debug/timeline");
    assert_eq!(status, 200);
    assert!(body.contains("\"series\":[]"), "{body}");
}

/// Reads one response off a kept connection by its `Content-Length`;
/// returns `(status, body)`.
fn read_kept_response(stream: &mut TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        stream.read_exact(&mut byte).expect("response head");
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).expect("utf8 head");
    assert!(!head.contains("Connection: close"), "not kept: {head}");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap();
    let len: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("content length");
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("response body");
    (status, String::from_utf8(body).expect("utf8 body"))
}

#[test]
fn shutdown_stops_the_server() {
    let daemon = ObsDaemon::new(small_config());
    let mut server = daemon.serve("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);

    // A connection kept from before the shutdown: served twice, then idle.
    let mut kept = TcpStream::connect(addr).expect("connect");
    kept.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..2 {
        kept.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .expect("send");
        assert_eq!(read_kept_response(&mut kept), (200, "OK\n".to_string()));
    }

    server.shutdown();
    // The server closes the idle kept connection on its own, well before
    // the 5 s idle timeout would have.
    let t = std::time::Instant::now();
    let mut byte = [0u8; 1];
    assert!(
        matches!(kept.read(&mut byte), Ok(0) | Err(_)),
        "kept connection sent bytes after shutdown"
    );
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "kept connection lingered {:?} after shutdown",
        t.elapsed()
    );
    // And a request sent on it now is not served.
    let _ = kept.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    let mut out = Vec::new();
    let _ = kept.read_to_end(&mut out);
    assert!(
        out.is_empty(),
        "kept connection served after shutdown: {:?}",
        String::from_utf8_lossy(&out)
    );

    // The listener is gone: connecting either fails outright or the
    // connection closes without a response.
    match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
        Err(_) => {}
        Ok(mut s) => {
            let _ = s.write_all(b"GET /healthz HTTP/1.1\r\n\r\n");
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
            assert!(out.is_empty(), "served after shutdown: {out:?}");
        }
    }
}
