//! End-to-end tests over a live listener: ingest → estimate bit-identity,
//! restart-without-rebuild, saturation shedding, and the error surface.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mnc_estimators::MncEstimator;
use mnc_expr::{EstimationContext, ExprDag};
use mnc_matrix::{gen, CsrMatrix};
use mnc_served::{serve_with, EstimationService, ServeOptions, ServedConfig, ServerHandle};
use rand::SeedableRng;

/// One raw HTTP exchange: writes `head` + `body`, reads the full response
/// up to the server's close (the head must ask for `Connection: close`).
/// The server may answer (413) and close before the body is fully written;
/// that close can surface client-side as EPIPE on write — tolerated — or,
/// under load, as ECONNRESET that discards the buffered response, in which
/// case the whole exchange is retried (the requests here are idempotent).
fn exchange(addr: &str, head: &str, body: &[u8]) -> (u16, HashMap<String, String>, Vec<u8>) {
    for _attempt in 0..8 {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let _ = stream.write_all(head.as_bytes());
        let _ = stream.write_all(body);
        let mut raw = Vec::new();
        if stream.read_to_end(&mut raw).is_err() {
            continue;
        }
        let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let (status, headers) = parse_head(std::str::from_utf8(&raw[..split]).expect("utf8 head"));
        return (status, headers, raw[split + 4..].to_vec());
    }
    panic!("no complete response after 8 attempts");
}

/// A response head's status and headers (names lowercased).
fn parse_head(head: &str) -> (u16, HashMap<String, String>) {
    let mut lines = head.lines();
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers)
}

/// One HTTP exchange against `addr`; returns (status, headers, body).
fn http(
    addr: &str,
    method: &str,
    path: &str,
    content_type: Option<&str>,
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n");
    if let Some(ct) = content_type {
        head.push_str(&format!("Content-Type: {ct}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    exchange(addr, &head, body)
}

fn json_body(raw: &[u8]) -> mnc_obs::json::JsonValue {
    mnc_obs::json::parse(std::str::from_utf8(raw).expect("utf8 body")).expect("json body")
}

fn csr_json(m: &CsrMatrix) -> String {
    let fmt_usize = |xs: &[usize]| {
        xs.iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",")
    };
    let cols = m
        .col_indices()
        .iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"nrows\":{},\"ncols\":{},\"row_ptr\":[{}],\"col_idx\":[{}]}}",
        m.nrows(),
        m.ncols(),
        fmt_usize(m.row_ptr()),
        cols
    )
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mnc-served-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn start(cfg: ServedConfig) -> (Arc<EstimationService>, ServerHandle, String) {
    let service = EstimationService::new(cfg).expect("service");
    let handle = serve_with(service.clone(), "127.0.0.1:0", ServeOptions::default()).expect("bind");
    let addr = handle.local_addr().to_string();
    (service, handle, addr)
}

/// Test matrices: a pattern-only chain A(50x40) B(40x60) C(60x30).
fn chain_matrices() -> (Arc<CsrMatrix>, Arc<CsrMatrix>, Arc<CsrMatrix>) {
    let mut r = rand::rngs::StdRng::seed_from_u64(0xE2E);
    (
        Arc::new(gen::rand_uniform(&mut r, 50, 40, 0.08).to_indicator()),
        Arc::new(gen::rand_uniform(&mut r, 40, 60, 0.12).to_indicator()),
        Arc::new(gen::rand_uniform(&mut r, 60, 30, 0.1).to_indicator()),
    )
}

fn put_chain(addr: &str, a: &CsrMatrix, b: &CsrMatrix, c: &CsrMatrix) {
    for (name, m) in [("A", a), ("B", b), ("C", c)] {
        let (status, _, body) = http(
            addr,
            "PUT",
            &format!("/v1/matrices/{name}"),
            None,
            csr_json(m).as_bytes(),
        );
        assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    }
}

/// The library answer for (A B) C through a cold context — what every HTTP
/// estimate below must reproduce bit-for-bit.
fn library_chain_answer(a: &Arc<CsrMatrix>, b: &Arc<CsrMatrix>, c: &Arc<CsrMatrix>) -> f64 {
    let mut dag = ExprDag::new();
    let la = dag.leaf("A", Arc::clone(a));
    let lb = dag.leaf("B", Arc::clone(b));
    let lc = dag.leaf("C", Arc::clone(c));
    let ab = dag.matmul(la, lb).unwrap();
    let root = dag.matmul(ab, lc).unwrap();
    EstimationContext::new()
        .estimate_root(&MncEstimator::new(), &dag, root)
        .unwrap()
}

const CHAIN_DAG: &str = r#"{"dag":[{"leaf":"A"},{"leaf":"B"},{"leaf":"C"},
    {"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}]}"#;

#[test]
fn estimate_over_http_is_bit_identical_to_library() {
    let dir = tmpdir("bitident");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);

    let expected = library_chain_answer(&a, &b, &c);

    let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let v = json_body(&body);
    let got = v.get("sparsity").and_then(|s| s.as_f64()).unwrap();
    assert_eq!(
        got.to_bits(),
        expected.to_bits(),
        "HTTP answer must be bit-identical to the in-process context"
    );

    // A repeat answers the same bits.
    let (_, _, body2) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(body2, body);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_estimates_all_agree() {
    let dir = tmpdir("concurrent");
    let mut cfg = ServedConfig::new(&dir);
    cfg.workers = 4;
    cfg.queue = 32;
    let (_svc, _handle, addr) = start(cfg);
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);
    let expected = library_chain_answer(&a, &b, &c);

    let answers: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let addr = &addr;
        (0..16)
            .map(|i| {
                scope.spawn(move || {
                    // Distinct clients, same expression.
                    let req = format!(
                        r#"{{"client":"c{i}","dag":[{{"leaf":"A"}},{{"leaf":"B"}},{{"leaf":"C"}},
                        {{"op":"matmul","inputs":[0,1]}},{{"op":"matmul","inputs":[3,2]}}]}}"#
                    );
                    let (status, _, body) =
                        http(addr, "POST", "/v1/estimate", None, req.as_bytes());
                    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
                    body
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for body in &answers {
        let got = json_body(body)
            .get("sparsity")
            .and_then(|s| s.as_f64())
            .unwrap();
        assert_eq!(got.to_bits(), expected.to_bits());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restart_serves_from_catalog_without_rebuilding() {
    let dir = tmpdir("restart");
    let (a, b, c) = chain_matrices();
    let expected = library_chain_answer(&a, &b, &c);

    let first_answer = {
        let (svc, mut handle, addr) = start(ServedConfig::new(&dir));
        put_chain(&addr, &a, &b, &c);
        assert_eq!(svc.rebuilds(), 3, "three CSR ingests build three sketches");
        let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
        assert_eq!(status, 200);
        handle.shutdown();
        body
    };

    // Bounce: a fresh service over the same directory.
    let (svc, _handle, addr) = start(ServedConfig::new(&dir));
    assert_eq!(svc.rebuilds(), 0, "restart must not rebuild any sketch");

    let (status, _, listing) = http(&addr, "GET", "/v1/matrices", None, b"");
    assert_eq!(status, 200);
    let v = json_body(&listing);
    assert_eq!(v.get("rebuilds").and_then(|r| r.as_f64()), Some(0.0));

    let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(status, 200);
    assert_eq!(body, first_answer, "post-restart answers must be identical");
    let got = json_body(&body)
        .get("sparsity")
        .and_then(|s| s.as_f64())
        .unwrap();
    assert_eq!(got.to_bits(), expected.to_bits());
    assert_eq!(svc.rebuilds(), 0, "estimates must not trigger rebuilds");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sketch_ingest_and_export_roundtrip() {
    let dir = tmpdir("sketchio");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, _, _) = chain_matrices();
    let bytes = mnc_core::to_bytes(&mnc_core::MncSketch::build(&a));

    // Ingest pre-built sketch bytes: no build happens.
    let (status, _, body) = http(
        &addr,
        "PUT",
        "/v1/matrices/A",
        Some("application/octet-stream"),
        &bytes,
    );
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let v = json_body(&body);
    assert_eq!(v.get("nnz").and_then(|x| x.as_f64()), Some(a.nnz() as f64));

    let (status, _, status_body) = http(&addr, "GET", "/v1/status", None, b"");
    assert_eq!(status, 200);
    let sv = json_body(&status_body);
    assert_eq!(sv.get("rebuilds").and_then(|x| x.as_f64()), Some(0.0));
    // `uptime_s` is the status object's one uptime key.
    let raw = std::str::from_utf8(&status_body).unwrap();
    assert_eq!(raw.matches("uptime").count(), 1, "{raw}");
    assert!(
        sv.get("uptime_s").and_then(|x| x.as_f64()).is_some(),
        "{raw}"
    );

    // Export returns the exact bytes back.
    let (status, headers, exported) = http(&addr, "GET", "/v1/matrices/A/sketch", None, b"");
    assert_eq!(status, 200);
    assert!(headers["content-type"].starts_with("application/octet-stream"));
    assert_eq!(exported, bytes);

    // A leaf-only estimate over the ingested sketch is exact.
    let (status, _, body) = http(
        &addr,
        "POST",
        "/v1/estimate",
        None,
        br#"{"dag":[{"leaf":"A"}],"include_sketch":true}"#,
    );
    assert_eq!(status, 200);
    let v = json_body(&body);
    let got = v.get("sparsity").and_then(|s| s.as_f64()).unwrap();
    assert_eq!(got.to_bits(), a.sparsity().to_bits());
    let hex = v.get("sketch_hex").and_then(|s| s.as_str()).unwrap();
    assert_eq!(hex.len(), bytes.len() * 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn impossible_sketch_counts_are_a_400_and_never_persisted() {
    let dir = tmpdir("badcounts");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    // A 56-byte MNCS sketch, 4x4, claiming 4e9 non-zeros in row 0; a leaf
    // estimate over it would answer a sparsity of 2.5e8.
    let mut lie = Vec::new();
    lie.extend_from_slice(&mnc_core::serialize::MAGIC.to_le_bytes());
    lie.extend_from_slice(&mnc_core::serialize::VERSION.to_le_bytes());
    lie.extend_from_slice(&0u16.to_le_bytes());
    lie.extend_from_slice(&4u64.to_le_bytes());
    lie.extend_from_slice(&4u64.to_le_bytes());
    for count in [4_000_000_000u32, 9, 9, 9, 4, 4, 4, 4] {
        lie.extend_from_slice(&count.to_le_bytes());
    }
    assert_eq!(lie.len(), 56);
    let octets = Some("application/octet-stream");
    let (status, _, body) = http(&addr, "PUT", "/v1/matrices/E", octets, &lie);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    let estimate = br#"{"dag":[{"leaf":"E"}]}"#;
    assert_eq!(http(&addr, "POST", "/v1/estimate", None, estimate).0, 404);
    assert_eq!(http(&addr, "GET", "/v1/matrices/E", None, b"").0, 404);
    assert!(
        !dir.join("E.mncs").exists(),
        "a rejected sketch was persisted"
    );

    // A propagated root exported by an estimate always validates, so it
    // can be ingested again.
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);
    let chain = br#"{"dag":[{"leaf":"A"},{"leaf":"B"},{"leaf":"C"},{"op":"matmul","inputs":[0,1]},{"op":"matmul","inputs":[3,2]}],"include_sketch":true}"#;
    let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, chain);
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let v = json_body(&body);
    let hex = v.get("sketch_hex").and_then(|s| s.as_str()).unwrap();
    let root: Vec<u8> = (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect();
    let (status, _, body) = http(&addr, "PUT", "/v1/matrices/R", octets, &root);
    assert_eq!(status, 201, "{}", String::from_utf8_lossy(&body));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturation_sheds_load_with_429_and_retry_after() {
    let dir = tmpdir("saturate");
    let mut cfg = ServedConfig::new(&dir);
    cfg.workers = 1;
    cfg.queue = 0;
    cfg.debug_estimate_delay = Some(Duration::from_millis(400));
    let (_svc, _handle, addr) = start(cfg);
    let (a, b, c) = chain_matrices();
    // PUTs go through the same gate; delay applies to estimates only, so
    // they are fine.
    put_chain(&addr, &a, &b, &c);

    let shorthand = br#"{"op":"matmul","inputs":["A","B"]}"#;
    let occupant = {
        let addr = addr.clone();
        std::thread::spawn(move || http(&addr, "POST", "/v1/estimate", None, shorthand))
    };
    // Let the occupant take the single slot, then overflow it.
    std::thread::sleep(Duration::from_millis(150));
    let (status, headers, _) = http(&addr, "POST", "/v1/estimate", None, shorthand);
    assert_eq!(status, 429, "saturated service must shed load");
    // The hint is the measured recent p99 service time, rounded up to whole
    // seconds with a 1s floor — so it is always a positive integer.
    let retry_after: u64 = headers
        .get("retry-after")
        .expect("429 must carry Retry-After")
        .parse()
        .expect("Retry-After must be integral seconds");
    assert!(retry_after >= 1, "hint floors at 1s, got {retry_after}");

    let (status, _, _) = occupant.join().unwrap();
    assert_eq!(status, 200, "the admitted request still completes");

    // With the slot free again, requests are admitted again.
    let (status, _, _) = http(&addr, "POST", "/v1/estimate", None, shorthand);
    assert_eq!(status, 200);

    let (_, _, status_body) = http(&addr, "GET", "/v1/status", None, b"");
    let v = json_body(&status_body);
    assert!(
        v.get("rejected").and_then(|x| x.as_f64()).unwrap() >= 1.0,
        "rejections must be counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn error_surface_maps_to_statuses() {
    let dir = tmpdir("errors");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, b, _) = chain_matrices();
    put_chain(&addr, &a, &b, &a);

    // 404: unknown matrix in an estimate; unknown catalog entry; bad path.
    let (status, _, body) = http(
        &addr,
        "POST",
        "/v1/estimate",
        None,
        br#"{"op":"matmul","inputs":["A","nope"]}"#,
    );
    assert_eq!(status, 404);
    assert_eq!(
        json_body(&body).get("error").and_then(|e| e.as_str()),
        Some("unknown_matrix")
    );
    assert_eq!(http(&addr, "GET", "/v1/matrices/nope", None, b"").0, 404);
    assert_eq!(http(&addr, "GET", "/v1/nothing", None, b"").0, 404);
    assert_eq!(http(&addr, "DELETE", "/v1/matrices/nope", None, b"").0, 404);

    // 400: bad JSON, bad name, dimension mismatch (B:40x60 times B).
    assert_eq!(http(&addr, "POST", "/v1/estimate", None, b"garbage").0, 400);
    assert_eq!(http(&addr, "PUT", "/v1/matrices/.bad", None, b"{}").0, 400);
    let (status, _, body) = http(
        &addr,
        "POST",
        "/v1/estimate",
        None,
        br#"{"op":"matmul","inputs":["B","B"]}"#,
    );
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        json_body(&body).get("error").and_then(|e| e.as_str()),
        Some("estimator")
    );

    // 405: unsupported method on a known path.
    assert_eq!(http(&addr, "POST", "/v1/matrices/A", None, b"{}").0, 405);

    // 204: delete then miss.
    assert_eq!(http(&addr, "DELETE", "/v1/matrices/C", None, b"").0, 204);
    assert_eq!(http(&addr, "GET", "/v1/matrices/C", None, b"").0, 404);

    // Health plane is mounted on the same listener.
    let (status, _, metrics) = http(&addr, "GET", "/metrics", None, b"");
    assert_eq!(status, 200);
    assert!(!metrics.is_empty());
    assert_eq!(http(&addr, "GET", "/healthz", None, b"").0, 200);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Like [`http`] but with an extra request header.
fn http_with_header(
    addr: &str,
    method: &str,
    path: &str,
    header: (&str, &str),
    body: &[u8],
) -> (u16, HashMap<String, String>, Vec<u8>) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n{}: {}\r\nContent-Length: {}\r\n\r\n",
        header.0,
        header.1,
        body.len()
    );
    exchange(addr, &head, body)
}

fn assert_trace_id(headers: &HashMap<String, String>, what: &str) -> String {
    let id = headers
        .get("x-mnc-trace-id")
        .unwrap_or_else(|| panic!("{what}: response must carry x-mnc-trace-id"));
    assert_eq!(id.len(), 32, "{what}: trace id must be 32 hex chars: {id}");
    assert!(
        id.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b)),
        "{what}: trace id must be lowercase hex: {id}"
    );
    id.clone()
}

#[test]
fn every_endpoint_echoes_a_trace_id() {
    let dir = tmpdir("traceecho");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);

    let calls: [(&str, &str, &[u8]); 10] = [
        ("GET", "/v1/status", b""),
        ("GET", "/v1/matrices", b""),
        ("GET", "/v1/matrices/A", b""),
        ("GET", "/v1/matrices/A/sketch", b""),
        ("POST", "/v1/estimate", CHAIN_DAG.as_bytes()),
        ("GET", "/v1/debug/requests", b""),
        ("GET", "/metrics", b""),
        ("GET", "/healthz", b""),
        ("GET", "/v1/nope", b""), // even 404s are traced
        ("DELETE", "/v1/matrices/C", b""),
    ];
    for (method, path, body) in calls {
        let (_, headers, _) = http(&addr, method, path, None, body);
        assert_trace_id(&headers, &format!("{method} {path}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_traceparent_is_adopted_and_hostile_ones_are_replaced() {
    let dir = tmpdir("traceparent");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));

    // A valid W3C traceparent: the service adopts the trace-id field.
    let want = "4bf92f3577b34da6a3ce929d0e0e4736";
    let tp = format!("00-{want}-00f067aa0ba902b7-01");
    let (status, headers, _) =
        http_with_header(&addr, "GET", "/v1/status", ("traceparent", &tp), b"");
    assert_eq!(status, 200);
    assert_eq!(assert_trace_id(&headers, "valid traceparent"), want);

    // Hostile values are ignored: fresh ID, never an error.
    for hostile in [
        "garbage",
        "00-4bf92f3577b34da6a3ce929d0e0e4736", // truncated
        "ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
        "00-ZZf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
        "00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero id
    ] {
        let (status, headers, _) =
            http_with_header(&addr, "GET", "/v1/status", ("traceparent", hostile), b"");
        assert_eq!(status, 200, "hostile traceparent must not fail requests");
        let got = assert_trace_id(&headers, "hostile traceparent");
        assert_ne!(got, want, "hostile header must not leak a stale adoption");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_requests_are_tail_captured_with_attributable_span_trees() {
    let dir = tmpdir("tailcapture");
    let log_path = dir.join("access.jsonl");
    let mut cfg = ServedConfig::new(&dir);
    cfg.slow_threshold = Duration::from_millis(50);
    cfg.debug_estimate_delay = Some(Duration::from_millis(150));
    cfg.access_log = Some(log_path.clone());
    let (_svc, _handle, addr) = start(cfg);
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);

    let (status, headers, _) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(status, 200);
    let trace_id = assert_trace_id(&headers, "slow estimate");

    // The slow request must appear in the debug ring, attributed to its
    // trace ID, with the full stage tree.
    let (status, headers, body) = http(&addr, "GET", "/v1/debug/requests", None, b"");
    assert_eq!(status, 200);
    assert!(headers["content-type"].starts_with("application/jsonl"));
    let text = String::from_utf8(body).unwrap();
    let line = text
        .lines()
        .find(|l| l.contains(&trace_id))
        .unwrap_or_else(|| panic!("trace {trace_id} not captured in:\n{text}"));
    let v = mnc_obs::json::parse(line).expect("captured line is json");
    assert_eq!(v.get("reason").and_then(|r| r.as_str()), Some("slow"));
    assert_eq!(
        v.get("endpoint").and_then(|e| e.as_str()),
        Some("/v1/estimate")
    );
    let service_ns = v.get("service_ns").and_then(|x| x.as_f64()).unwrap();
    assert!(
        service_ns >= 150_000_000.0,
        "the debug delay is inside service time"
    );

    // Span-tree accounting: a `request` root whose children (the stages,
    // admission → walk → serialize) cover the service time within 5%.
    let mnc_obs::json::JsonValue::Array(spans) = v.get("spans").unwrap() else {
        panic!("captured request must embed its span tree");
    };
    let root = &spans[0];
    assert_eq!(root.get("name").and_then(|n| n.as_str()), Some("request"));
    let root_id = root.get("id").and_then(|x| x.as_f64()).unwrap();
    let names: Vec<&str> = spans[1..]
        .iter()
        .map(|s| s.get("name").and_then(|n| n.as_str()).unwrap())
        .collect();
    for stage in [
        "parse",
        "admission",
        "debug_delay",
        "catalog",
        "walk",
        "serialize",
    ] {
        assert!(names.contains(&stage), "missing stage {stage} in {names:?}");
    }
    let mut child_sum = 0.0;
    for s in &spans[1..] {
        assert_eq!(s.get("parent").and_then(|x| x.as_f64()), Some(root_id));
        child_sum += s.get("dur_ns").and_then(|x| x.as_f64()).unwrap();
    }
    let drift = (child_sum - service_ns).abs() / service_ns;
    assert!(
        drift <= 0.05,
        "stage durations ({child_sum}ns) must cover service time \
         ({service_ns}ns) within 5%, drift {drift:.4}"
    );

    // The same line landed in the access log.
    let logged = std::fs::read_to_string(&log_path).expect("access log written");
    assert!(
        logged.contains(&trace_id),
        "access log must carry the trace"
    );

    // The ring also exports as a Chrome trace for Perfetto.
    let (status, _, chrome) = http(&addr, "GET", "/v1/debug/requests?format=chrome", None, b"");
    assert_eq!(status, 200);
    let chrome = String::from_utf8(chrome).unwrap();
    assert!(chrome.contains("traceEvents") && chrome.contains("request"));

    // And the RED metrics on /metrics reflect the request.
    let (_, _, metrics) = http(&addr, "GET", "/metrics", None, b"");
    let metrics = String::from_utf8(metrics).unwrap();
    assert!(
        metrics.contains("mnc_served_requests_total{")
            && metrics.contains("endpoint=\"/v1/estimate\"")
            && metrics.contains("method=\"POST\"")
            && metrics.contains("status=\"200\""),
        "RED counter missing from /metrics:\n{metrics}"
    );
    assert!(
        metrics.contains("mnc_served_queue_wait_ns") && metrics.contains("mnc_served_service_ns"),
        "latency split histograms missing from /metrics"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tracing_off_is_bit_identical_and_headerless() {
    let (a, b, c) = chain_matrices();

    let traced_body = {
        let dir = tmpdir("traceon");
        let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
        put_chain(&addr, &a, &b, &c);
        let (status, headers, body) =
            http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
        assert_eq!(status, 200);
        assert_trace_id(&headers, "tracing on");
        let _ = std::fs::remove_dir_all(&dir);
        body
    };

    let dir = tmpdir("traceoff");
    let mut cfg = ServedConfig::new(&dir);
    cfg.tracing = false;
    let (_svc, _handle, addr) = start(cfg);
    put_chain(&addr, &a, &b, &c);
    let (status, headers, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(status, 200);
    assert!(
        !headers.contains_key("x-mnc-trace-id"),
        "tracing off must not stamp trace headers"
    );
    assert_eq!(
        body, traced_body,
        "estimates must be byte-identical with tracing on and off"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadowing_on_is_byte_identical_to_shadowing_off() {
    let (a, b, c) = chain_matrices();

    let plain_body = {
        let dir = tmpdir("shadowoff");
        let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
        put_chain(&addr, &a, &b, &c);
        let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
        assert_eq!(status, 200);
        let _ = std::fs::remove_dir_all(&dir);
        body
    };

    let dir = tmpdir("shadowon");
    let mut cfg = ServedConfig::new(&dir);
    cfg.shadow_rate = 1.0;
    cfg.retain_csr = true;
    let (svc, _handle, addr) = start(cfg);
    put_chain(&addr, &a, &b, &c);
    for _ in 0..4 {
        let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
        assert_eq!(status, 200);
        assert_eq!(
            body, plain_body,
            "estimates must be byte-identical with shadowing on and off"
        );
    }
    svc.shadow_plane().drain();
    assert_eq!(
        svc.shadow_plane().sampled(),
        4,
        "rate 1.0 samples everything"
    );
    assert_eq!(
        svc.shadow_plane().completed() + svc.shadow_plane().dropped(),
        4
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_plane_surfaces_divergence_metrics_and_exemplars() {
    let dir = tmpdir("shadowplane");
    let mut cfg = ServedConfig::new(&dir);
    cfg.shadow_rate = 1.0;
    cfg.retain_csr = true;
    let (svc, _handle, addr) = start(cfg);
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);

    // A deep DAG (divergence only) and a single-op DAG (exact ground truth
    // from retained CSR).
    let single_op = br#"{"op":"matmul","inputs":["A","B"]}"#;
    for body in [CHAIN_DAG.as_bytes(), single_op.as_slice()] {
        let (status, _, resp) = http(&addr, "POST", "/v1/estimate", None, body);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&resp));
    }
    svc.shadow_plane().drain();

    // 1. The exemplar ring serves valid, labeled JSONL.
    let (status, headers, body) = http(&addr, "GET", "/v1/debug/shadow", None, b"");
    assert_eq!(status, 200);
    assert!(headers["content-type"].starts_with("application/jsonl"));
    let text = String::from_utf8(body).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "both sampled estimates leave exemplars");
    for line in &lines {
        let v = mnc_obs::json::parse(line).expect("exemplar line is json");
        assert_eq!(v.get("type").and_then(|t| t.as_str()), Some("shadow"));
        assert_eq!(v.get("op").and_then(|o| o.as_str()), Some("matmul"));
        assert!(v.get("primary").and_then(|p| p.as_f64()).is_some());
    }
    assert!(
        text.contains("\"truth\":"),
        "retained CSR must yield ground truth for the single-op request:\n{text}"
    );

    // 2. The shadow scoreboard is on /metrics.
    let (_, _, metrics) = http(&addr, "GET", "/metrics", None, b"");
    let metrics = String::from_utf8(metrics).unwrap();
    for needle in [
        "mnc_shadow_sampled_total",
        "mnc_shadow_completed_total",
        "mnc_shadow_dropped_total",
        "mnc_shadow_queue_depth",
        "mnc_shadow_runs_total{estimator=\"DMap\"}",
        "mnc_shadow_runs_total{estimator=\"Bitset\"}",
        "mnc_shadow_runs_total{estimator=\"MetaAC\"}",
        "mnc_shadow_divergence_milli_bucket{estimator=\"DMap\",op=\"matmul\"",
        "mnc_shadow_latency_ns_bucket{estimator=\"Bitset\"",
    ] {
        assert!(
            needle.is_empty() || metrics.contains(needle),
            "missing {needle} in:\n{metrics}"
        );
    }

    // 3. The drift monitor saw the shadow accuracy records — its live
    //    series are exported per (estimator, op).
    for needle in [
        "mnc_obsd_drift_geo_ewma_milli{estimator=\"DMap\",op=\"matmul\"}",
        "mnc_obsd_drift_p95_milli{estimator=\"Bitset\",op=\"matmul\"}",
        "mnc_obsd_drift_samples{estimator=\"MNC\",op=\"matmul\"}",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }

    // 4. /v1/status carries the shadow and tracing counters.
    let (_, _, status_body) = http(&addr, "GET", "/v1/status", None, b"");
    let v = json_body(&status_body);
    let shadow = v.get("shadow").expect("status must embed shadow block");
    assert!(matches!(
        shadow.get("enabled"),
        Some(mnc_obs::json::JsonValue::Bool(true))
    ));
    assert_eq!(shadow.get("sampled").and_then(|x| x.as_f64()), Some(2.0));
    assert_eq!(shadow.get("sidecars").and_then(|x| x.as_f64()), Some(3.0));
    let tracing = v.get("tracing").expect("status must embed tracing block");
    assert!(matches!(
        tracing.get("enabled"),
        Some(mnc_obs::json::JsonValue::Bool(true))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shadow_sidecars_survive_restart_without_rebuilds() {
    let dir = tmpdir("shadowrestart");
    let (a, b, c) = chain_matrices();
    {
        // Ingest with shadowing off: sidecars are built & persisted anyway.
        let mut cfg = ServedConfig::new(&dir);
        cfg.retain_csr = true;
        let (_svc, mut handle, addr) = start(cfg);
        put_chain(&addr, &a, &b, &c);
        handle.shutdown();
    }
    // Bounce with shadowing on: alternates come from disk, zero rebuilds.
    let mut cfg = ServedConfig::new(&dir);
    cfg.shadow_rate = 1.0;
    let (svc, _handle, addr) = start(cfg);
    assert_eq!(svc.rebuilds(), 0);
    let (status, _, _) = http(
        &addr,
        "POST",
        "/v1/estimate",
        None,
        br#"{"op":"matmul","inputs":["A","B"]}"#,
    );
    assert_eq!(status, 200);
    svc.shadow_plane().drain();
    let ex = svc.shadow_plane().exemplars();
    assert_eq!(ex.len(), 1);
    assert_eq!(
        ex[0].estimates.len(),
        3,
        "persisted sidecars must feed all alternates after a bounce: {ex:?}"
    );
    assert!(
        ex[0].truth.is_some(),
        "retained CSR must survive the restart inside the sidecar"
    );
    assert_eq!(svc.rebuilds(), 0, "shadowing must never rebuild synopses");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_bodies_are_rejected_before_compute() {
    let dir = tmpdir("toolarge");
    let service = EstimationService::new(ServedConfig::new(&dir)).expect("service");
    let handle = serve_with(
        service,
        "127.0.0.1:0",
        ServeOptions {
            max_body_bytes: 1024,
        },
    )
    .expect("bind");
    let addr = handle.local_addr().to_string();
    let big = vec![b'x'; 4096];
    let (status, _, _) = http(&addr, "PUT", "/v1/matrices/A", None, &big);
    assert_eq!(status, 413);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of an unlabeled series in a Prometheus exposition body.
fn metric_value(body: &[u8], name: &str) -> Option<i64> {
    let text = std::str::from_utf8(body).expect("utf8 metrics");
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn ingest_churn_leaks_no_telemetry_sources() {
    let dir = tmpdir("churn");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let mut r = rand::rngs::StdRng::seed_from_u64(0xC4A);
    let x = gen::rand_uniform(&mut r, 30, 30, 0.1).to_indicator();
    let put = csr_json(&x);
    let est = br#"{"op":"matmul","inputs":["X","X"]}"#;

    // Every PUT rebinds X and the next estimate reads the new binding; the
    // telemetry source count must not move.
    let mut sources_after_first = None;
    for _ in 0..50 {
        assert_eq!(
            http(&addr, "PUT", "/v1/matrices/X", None, put.as_bytes()).0,
            201
        );
        let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, est);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let (_, _, metrics) = http(&addr, "GET", "/metrics", None, b"");
        let sources = metric_value(&metrics, "mnc_obsd_sources").expect("sources gauge");
        assert_eq!(*sources_after_first.get_or_insert(sources), sources);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `X·X` through a cold in-process context.
fn library_square_answer(x: &Arc<CsrMatrix>) -> f64 {
    let mut dag = ExprDag::new();
    let lx = dag.leaf("X", Arc::clone(x));
    let root = dag.matmul(lx, lx).unwrap();
    EstimationContext::new()
        .estimate_root(&MncEstimator::new(), &dag, root)
        .unwrap()
}

#[test]
fn rebinding_or_deleting_a_name_reaches_every_client() {
    let dir = tmpdir("rebind");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let mut r = rand::rngs::StdRng::seed_from_u64(0x5EB);
    let old = Arc::new(gen::rand_uniform(&mut r, 40, 40, 0.05).to_indicator());
    let new = Arc::new(gen::rand_uniform(&mut r, 40, 40, 0.2).to_indicator());
    let estimate = |client: usize| {
        let req = format!(
            r#"{{"client":"c{client}","dag":[{{"leaf":"X"}},{{"op":"matmul","inputs":[0,0]}}]}}"#
        );
        http(&addr, "POST", "/v1/estimate", None, req.as_bytes())
    };
    let bits = |body: &[u8]| {
        let v = json_body(body);
        v.get("sparsity")
            .and_then(|s| s.as_f64())
            .unwrap()
            .to_bits()
    };

    let put = |m: &CsrMatrix| http(&addr, "PUT", "/v1/matrices/X", None, csr_json(m).as_bytes());
    assert_eq!(put(&old).0, 201);
    let (before, after) = (library_square_answer(&old), library_square_answer(&new));
    assert_ne!(before.to_bits(), after.to_bits(), "the rebinding must show");
    for client in 0..16 {
        let (status, _, body) = estimate(client);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(bits(&body), before.to_bits(), "client c{client}");
    }

    // Rebind X: every client's next answer is the new matrix's.
    assert_eq!(put(&new).0, 201);
    for client in 0..16 {
        let (status, _, body) = estimate(client);
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        assert_eq!(bits(&body), after.to_bits(), "client c{client}");
    }

    // Delete X: no client is answered from a stale binding.
    assert_eq!(http(&addr, "DELETE", "/v1/matrices/X", None, b"").0, 204);
    for client in 0..16 {
        assert_eq!(estimate(client).0, 404, "client c{client}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hostile_json_nesting_is_a_400_and_the_daemon_keeps_serving() {
    let dir = tmpdir("deepjson");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, b, c) = chain_matrices();
    put_chain(&addr, &a, &b, &c);

    // 2^20 `[`: fits the default 1 MiB body limit, and would overflow a
    // connection thread's stack without the parser's depth cap.
    let hostile = vec![b'['; 1 << 20];
    let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, &hostile);
    assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));

    let (status, _, body) = http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes());
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client holding one kept connection, reading each response by its
/// `Content-Length` (responses to pipelined requests may arrive together).
struct Kept(BufReader<TcpStream>);

impl Kept {
    fn connect(addr: &str) -> Kept {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        Kept(BufReader::new(stream))
    }

    fn send(&mut self, wire: &[u8]) {
        self.0.get_mut().write_all(wire).expect("send");
    }

    fn response(&mut self) -> (u16, HashMap<String, String>, Vec<u8>) {
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            let n = self.0.read_line(&mut head).expect("read head");
            assert!(n > 0, "connection closed before a response");
        }
        let (status, headers) = parse_head(&head);
        let mut body = vec![0u8; headers["content-length"].parse().expect("length")];
        self.0.read_exact(&mut body).expect("read body");
        (status, headers, body)
    }

    /// Whether the server closes the connection within 2 s (well inside
    /// its 5 s idle timeout) with nothing left to read.
    fn closed(&mut self) -> bool {
        let stream = self.0.get_ref();
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .expect("read timeout");
        match self.0.fill_buf() {
            Ok(rest) => rest.is_empty(),
            Err(e) => !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
        }
    }
}

fn wire(method: &str, path: &str, version: &str, extra: &str, body: &[u8]) -> Vec<u8> {
    let mut w = format!(
        "{method} {path} {version}\r\nHost: test\r\n{extra}Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    w.extend_from_slice(body);
    w
}

#[test]
fn one_kept_connection_serves_requests_byte_identically() {
    let dir = tmpdir("keepalive");
    let (_svc, _handle, addr) = start(ServedConfig::new(&dir));
    let (a, b, c) = chain_matrices();
    let (a, b, c) = (csr_json(&a), csr_json(&b), csr_json(&c));
    let requests: [(&str, &str, &[u8], u16); 6] = [
        ("PUT", "/v1/matrices/A", a.as_bytes(), 201),
        ("PUT", "/v1/matrices/B", b.as_bytes(), 201),
        ("PUT", "/v1/matrices/C", c.as_bytes(), 201),
        ("POST", "/v1/estimate", CHAIN_DAG.as_bytes(), 200),
        ("GET", "/v1/matrices/nope", b"", 404),
        ("POST", "/v1/matrices/A", b"{}", 405),
    ];

    // Ingest, estimate, 404 and 405 over one connection; each body must
    // match the same request on a fresh connection, byte for byte.
    let mut kept = Kept::connect(&addr);
    for (method, path, body, want) in requests {
        kept.send(&wire(method, path, "HTTP/1.1", "", body));
        let (status, headers, got) = kept.response();
        assert_eq!(
            status,
            want,
            "{method} {path}: {}",
            String::from_utf8_lossy(&got)
        );
        assert!(
            !headers.contains_key("connection"),
            "{method} {path} closed"
        );
        let (fresh_status, _, fresh) = http(&addr, method, path, None, body);
        assert_eq!((status, &got), (fresh_status, &fresh), "{method} {path}");
    }

    // A pipelined pair in one write is answered in order.
    let mut pair = wire("POST", "/v1/estimate", "HTTP/1.1", "", CHAIN_DAG.as_bytes());
    pair.extend(wire("GET", "/v1/matrices/B", "HTTP/1.1", "", b""));
    kept.send(&pair);
    let (s1, _, estimate) = kept.response();
    let (s2, _, meta) = kept.response();
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(
        estimate,
        http(&addr, "POST", "/v1/estimate", None, CHAIN_DAG.as_bytes()).2
    );
    assert_eq!(meta, http(&addr, "GET", "/v1/matrices/B", None, b"").2);

    // `Connection: close` ends the connection after its response.
    kept.send(&wire(
        "GET",
        "/healthz",
        "HTTP/1.1",
        "Connection: close\r\n",
        b"",
    ));
    let (status, headers, _) = kept.response();
    assert_eq!(status, 200);
    assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
    assert!(kept.closed(), "Connection: close left the connection open");

    // So does an HTTP/1.0 request.
    let mut old = Kept::connect(&addr);
    old.send(&wire("GET", "/v1/matrices/B", "HTTP/1.0", "", b""));
    let (status, headers, body) = old.response();
    assert_eq!((status, body), (200, meta));
    assert_eq!(headers.get("connection").map(String::as_str), Some("close"));
    assert!(old.closed(), "HTTP/1.0 left the connection open");
    let _ = std::fs::remove_dir_all(&dir);
}
