//! The embedded HTTP server: a dependency-free `std::net::TcpListener`
//! server on background threads.
//!
//! Historically this served GET-only telemetry (`/metrics`, `/healthz`,
//! `/flight`, `/attribution`); it now exposes a small generic
//! method+body dispatch layer — [`Request`], [`Response`], [`Handler`],
//! [`serve_with`] — that `mnc-served` mounts its `/v1` estimation API on,
//! while the telemetry plane ([`serve`]) is one particular [`Handler`].
//!
//! Scope stays deliberately tiny — enough HTTP/1.1 for a Prometheus
//! scraper, a load balancer's health probe, `curl`, and the `/v1` service
//! clients:
//!
//! * request line + headers are capped at [`MAX_REQUEST_BYTES`];
//! * bodies are read per `Content-Length` (no chunked encoding), capped by
//!   [`ServeOptions::max_body_bytes`] — an oversized body is answered
//!   `413` without reading it in;
//! * framing is strict, because a kept connection depends on it: any
//!   `Transfer-Encoding`, a non-numeric `Content-Length`, or two
//!   `Content-Length`s that disagree are answered `400`, as is a malformed
//!   head, and each of these framing errors closes the connection;
//! * one thread per connection, and connections persist (HTTP/1.1
//!   keep-alive): a connection serves request after request, pipelined ones
//!   in order, until the client sends `Connection: close` or speaks
//!   HTTP/1.0, a framing error is answered, the server stops, or the socket
//!   idles past the 5 s I/O timeout. Only the final response carries
//!   `Connection: close`; each response leaves in one write on a
//!   `TCP_NODELAY` socket.
//!
//! Shutdown is cooperative: the accept loop checks a stop flag after every
//! accept, and [`ServerHandle::shutdown`] wakes a blocked accept with a
//! self-connect, then shuts the read side of every open connection, so an
//! idle kept connection closes at once and no request read after the stop
//! is answered. A ticker thread invokes [`Handler::tick`] every 250 ms
//! while the server runs — the telemetry handler refreshes the daemon's
//! cached metric snapshot there (the "periodic registry snapshot" —
//! postmortems and slow scrapers see near-current aggregates).

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::{Health, ObsDaemon};

/// Maximum accepted request head (request line + headers).
pub const MAX_REQUEST_BYTES: usize = 8 * 1024;
/// Per-connection socket timeout; also how long a kept connection may idle.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Handler tick period.
const TICK: Duration = Duration::from_millis(250);

/// A parsed HTTP request: method, path, query string, headers, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `PUT`, ...).
    pub method: String,
    /// Request path without the query string.
    pub path: String,
    /// Raw query string (without the `?`; empty when absent).
    pub query: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value under `name`, ASCII-case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Value of query parameter `name` (`k=v` pairs split on `&`; no
    /// percent-decoding — the workspace's parameters are plain tokens).
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }
}

/// An HTTP response: status code, content type, extra headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (reason phrase derived from it on the wire).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra headers (e.g. `Retry-After`), written verbatim.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json; charset=utf-8",
            headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }
}

/// Reason phrases for the status codes the workspace emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        204 => "No Content",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A request handler mounted on [`serve_with`]. Handlers run on
/// per-connection threads, so they must be `Send + Sync`.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;

    /// Invoked every 250 ms from the server's ticker thread while the
    /// server runs; the default does nothing.
    fn tick(&self) {}
}

/// Server knobs for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Largest accepted request body; anything larger is answered `413`
    /// without reading it in.
    pub max_body_bytes: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            // Telemetry traffic has no bodies; services raise this.
            max_body_bytes: 1 << 20,
        }
    }
}

/// State the server's threads share: the stop flag and the open
/// connections, whose sockets shutdown closes for reading.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    conns: Mutex<Conns>,
}

#[derive(Default)]
struct Conns {
    next_id: u64,
    open: HashMap<u64, TcpStream>,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Records a handle to an accepted socket; `None` if it cannot be
    /// duplicated, in which case the connection is dropped unserved.
    fn register(&self, stream: &TcpStream) -> Option<u64> {
        let handle = stream.try_clone().ok()?;
        let mut conns = self.conns.lock().expect("connection table poisoned");
        let id = conns.next_id;
        conns.next_id += 1;
        conns.open.insert(id, handle);
        Some(id)
    }

    fn unregister(&self, id: u64) {
        if let Ok(mut conns) = self.conns.lock() {
            conns.open.remove(&id);
        }
    }
}

/// Unregisters a connection when its thread ends, unwinding included, so
/// the table's duplicate handle never keeps a finished socket open.
struct Registration<'a> {
    shared: &'a Shared,
    id: u64,
}

impl Drop for Registration<'_> {
    fn drop(&mut self) {
        self.shared.unregister(self.id);
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    ticker: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address — with `:0` binds, this is where the OS-assigned
    /// port is read back.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, closes every open connection
    /// for reading, and joins both background threads. Once it returns, no
    /// further request is answered: an idle kept connection's reader wakes
    /// at once and closes it, and a request still in a handler is answered
    /// with `Connection: close`. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake a blocked `accept` so the loop observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The accept thread registers each connection before spawning its
        // thread, so with it joined the table holds every connection. A
        // read on a socket shut for reading returns end-of-file at once.
        if let Ok(conns) = self.shared.conns.lock() {
            for stream in conns.open.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServerHandle({})", self.addr)
    }
}

/// Binds `addr` and dispatches requests to `handler` on background
/// threads — the generic face of the server.
pub fn serve_with(
    handler: Arc<dyn Handler>,
    addr: impl ToSocketAddrs,
    opts: ServeOptions,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let shared = Arc::new(Shared::default());

    let accept = {
        let shared = Arc::clone(&shared);
        let handler = Arc::clone(&handler);
        let opts = opts.clone();
        std::thread::Builder::new()
            .name("mnc-obsd-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if shared.stopping() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let Some(id) = shared.register(&stream) else {
                        continue;
                    };
                    let handler = Arc::clone(&handler);
                    let opts = opts.clone();
                    let conn_shared = Arc::clone(&shared);
                    // Thread-per-connection: request traffic is modest, a
                    // stuck client must not stall the next probe, and with
                    // keep-alive the spawn is paid once per connection.
                    let spawned = std::thread::Builder::new()
                        .name("mnc-obsd-conn".into())
                        .spawn(move || {
                            let _registration = Registration {
                                shared: &conn_shared,
                                id,
                            };
                            handle_connection(stream, handler.as_ref(), &opts, &conn_shared);
                        });
                    if spawned.is_err() {
                        shared.unregister(id);
                    }
                }
            })?
    };

    let ticker = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("mnc-obsd-tick".into())
            .spawn(move || {
                while !shared.stopping() {
                    handler.tick();
                    std::thread::sleep(TICK);
                }
            })?
    };

    Ok(ServerHandle {
        addr: local,
        shared,
        accept: Some(accept),
        ticker: Some(ticker),
    })
}

/// The telemetry handler: GET-only routes over an [`ObsDaemon`], refreshing
/// its cached snapshot on every tick.
struct TelemetryHandler {
    daemon: ObsDaemon,
}

impl Handler for TelemetryHandler {
    fn handle(&self, req: &Request) -> Response {
        if req.method != "GET" {
            return Response::text(405, "method not allowed\n");
        }
        telemetry_response(&self.daemon, req).unwrap_or_else(|| Response::text(404, "not found\n"))
    }

    fn tick(&self) {
        self.daemon.refresh();
    }
}

/// Routes one request to the daemon's telemetry plane; `None` for unknown
/// paths. Shared by the plain telemetry server and `mnc-served`, which
/// mounts these routes next to its `/v1` API as its health plane. Takes
/// the whole request (not just the path) because `/v1/debug/timeline`
/// reads `?metric=&resolution=&since=` selections.
pub fn telemetry_response(daemon: &ObsDaemon, req: &Request) -> Option<Response> {
    Some(match req.path.as_str() {
        "/metrics" => Response {
            status: 200,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            headers: Vec::new(),
            body: daemon.metrics_text().into_bytes(),
        },
        "/healthz" => match daemon.health() {
            Health::Ok => Response::text(200, "OK\n"),
            Health::Degraded(reasons) => {
                Response::text(503, format!("DEGRADED\n{}\n", reasons.join("\n")))
            }
        },
        "/flight" => Response {
            status: 200,
            content_type: "application/jsonl; charset=utf-8",
            headers: Vec::new(),
            body: daemon.flight_jsonl().into_bytes(),
        },
        "/attribution" => Response::text(200, daemon.attribution_text()),
        "/v1/debug/timeline" => {
            let resolution = match req.query_param("resolution") {
                None => None,
                Some(r) => match crate::timeline::RESOLUTIONS.iter().position(|n| *n == r) {
                    Some(i) => Some(i),
                    None => {
                        return Some(Response::json(
                            400,
                            "{\"error\":\"resolution must be one of 1s, 10s, 60s\"}",
                        ))
                    }
                },
            };
            let since_s = match req.query_param("since") {
                None => 0,
                Some(s) => match s.parse::<u64>() {
                    Ok(v) => v,
                    Err(_) => {
                        return Some(Response::json(
                            400,
                            "{\"error\":\"since must be unix seconds\"}",
                        ))
                    }
                },
            };
            let query = crate::timeline::TimelineQuery {
                metric: req.query_param("metric"),
                resolution,
                since_s,
            };
            let now_s = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0);
            match daemon.timeline().render_json(now_s, &query) {
                Some(body) => Response::json(200, body),
                // Every claim retry lost to a writer — tell the client to
                // come back rather than block the scrape path.
                None => Response::json(503, "{\"error\":\"timeline busy, retry\"}")
                    .with_header("Retry-After", "1"),
            }
        }
        _ => return None,
    })
}

/// Binds `addr` and serves the daemon's telemetry endpoints on background
/// threads.
pub fn serve(daemon: ObsDaemon, addr: impl ToSocketAddrs) -> std::io::Result<ServerHandle> {
    serve_with(
        Arc::new(TelemetryHandler { daemon }),
        addr,
        ServeOptions::default(),
    )
}

/// Serves requests on one connection until the client or a framing error
/// ends it, the server stops, or it idles past [`IO_TIMEOUT`].
fn handle_connection(
    mut stream: TcpStream,
    handler: &dyn Handler,
    opts: &ServeOptions,
    shared: &Shared,
) {
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    // Responses leave in one write each; without this, Nagle's algorithm
    // would hold a response until the peer's delayed ACK of the previous.
    let _ = stream.set_nodelay(true);
    // Bytes read past the current request: the start of the next one.
    let mut buf = Vec::with_capacity(512);
    loop {
        let incoming = read_request(&mut stream, &mut buf, opts);
        // A request read after shutdown began is not answered.
        if shared.stopping() {
            return;
        }
        let (resp, keep, drain) = match incoming {
            Incoming::Request(req, keep) => (handler.handle(&req), keep, 0),
            Incoming::Idle => return,
            Incoming::Refused(resp, drain) => (resp, false, drain),
        };
        let keep = keep && !shared.stopping();
        if write_response(&mut stream, &resp, keep).is_err() {
            return;
        }
        if !keep {
            // A refused oversized body's declared remainder is drained
            // (bounded) before closing: closing with unread bytes in the
            // receive buffer sends an RST that can destroy the buffered
            // `413` before the client reads it.
            let mut remaining = drain;
            let mut chunk = [0u8; 4096];
            while remaining > 0 {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => remaining = remaining.saturating_sub(n),
                }
            }
            return;
        }
    }
}

/// Most bytes drained (not stored) from a refused oversized body before the
/// connection is closed anyway; clients still mid-send past this see a reset.
const MAX_DRAIN_BYTES: usize = 8 << 20;

/// What reading the next request off a connection produced.
enum Incoming {
    /// A complete request, and whether the client lets the connection
    /// carry another one after it.
    Request(Request, bool),
    /// The client closed the connection, or let it idle out, between
    /// requests: nothing to answer.
    Idle,
    /// A framing error: answer with this response, drain this many bytes of
    /// the refused body, and close.
    Refused(Response, usize),
}

fn bad_request() -> Incoming {
    Incoming::Refused(Response::text(400, "bad request\n"), 0)
}

/// Reads one chunk from the socket onto `buf`; `false` on end-of-file,
/// timeout or error.
fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 4096];
    match stream.read(&mut chunk) {
        Ok(n) if n > 0 => {
            buf.extend_from_slice(&chunk[..n]);
            true
        }
        _ => false,
    }
}

/// Reads and parses one request: head until `\r\n\r\n` (bounded), then the
/// body per `Content-Length` (bounded). `buf` holds bytes already read past
/// the previous request on entry, and bytes read past this one on return.
fn read_request(stream: &mut TcpStream, buf: &mut Vec<u8>, opts: &ServeOptions) -> Incoming {
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() >= MAX_REQUEST_BYTES {
            return bad_request();
        }
        if !fill(stream, buf) {
            return if buf.is_empty() {
                Incoming::Idle
            } else {
                bad_request()
            };
        }
    };

    let Ok(head) = std::str::from_utf8(&buf[..head_end]) else {
        return bad_request();
    };
    let Some((method, path, query, version)) = parse_request_line(head) else {
        return bad_request();
    };
    let headers: Vec<(String, String)> = head
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            Some((name.trim().to_string(), value.trim().to_string()))
        })
        .collect();
    let keep = keeps_alive(version, &headers);
    let (method, path, query) = (method.to_string(), path.to_string(), query.to_string());

    let Some(content_length) = body_length(&headers) else {
        return bad_request();
    };
    let body_start = head_end + 4;
    if content_length > opts.max_body_bytes {
        let already = buf.len() - body_start;
        return Incoming::Refused(
            Response::text(413, "request body too large\n"),
            content_length.saturating_sub(already).min(MAX_DRAIN_BYTES),
        );
    }

    // The body is read into its own buffer; bytes past its end go back to
    // `buf` as the start of the next request.
    let mut body = buf.split_off(body_start);
    buf.clear();
    while body.len() < content_length {
        if !fill(stream, &mut body) {
            return bad_request(); // client hung up or stalled mid-body
        }
    }
    buf.extend_from_slice(&body[content_length..]);
    body.truncate(content_length);

    Incoming::Request(
        Request {
            method,
            path,
            query,
            headers,
            body,
        },
        keep,
    )
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The body length a head declares: 0 without `Content-Length`, `None` when
/// the framing cannot be trusted — any `Transfer-Encoding`, a non-numeric
/// `Content-Length`, or two that disagree. On a kept connection a body read
/// by the wrong length would be parsed as the next request.
fn body_length(headers: &[(String, String)]) -> Option<usize> {
    let mut length = None;
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return None;
        }
        if name.eq_ignore_ascii_case("content-length") {
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let n: usize = value.parse().ok()?;
            if length.is_some_and(|l| l != n) {
                return None;
            }
            length = Some(n);
        }
    }
    Some(length.unwrap_or(0))
}

/// Whether the client lets the connection carry another request: HTTP/1.1
/// without a `close` token in `Connection`.
fn keeps_alive(version: &str, headers: &[(String, String)]) -> bool {
    version == "HTTP/1.1"
        && !headers.iter().any(|(name, value)| {
            name.eq_ignore_ascii_case("connection")
                && value
                    .split(',')
                    .any(|token| token.trim().eq_ignore_ascii_case("close"))
        })
}

/// Parses `GET /path?query HTTP/1.x` into `(method, path, query, version)`
/// (query empty when absent); `None` for anything malformed.
fn parse_request_line(head: &str) -> Option<(&str, &str, &str, &str)> {
    let line = head.lines().next()?;
    let mut parts = line.split(' ');
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if parts.next().is_some()
        || method.is_empty()
        || !method.chars().all(|c| c.is_ascii_uppercase())
        || !target.starts_with('/')
        || !version.starts_with("HTTP/1.")
    {
        return None;
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    Some((method, path, query, version))
}

/// Writes `resp` in one write; `keep == false` marks it the connection's
/// last with `Connection: close`.
fn write_response(stream: &mut TcpStream, resp: &Response, keep: bool) -> std::io::Result<()> {
    let mut wire = Vec::with_capacity(256 + resp.body.len());
    write!(
        wire,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    )?;
    for (name, value) in &resp.headers {
        write!(wire, "{name}: {value}\r\n")?;
    }
    if !keep {
        wire.extend_from_slice(b"Connection: close\r\n");
    }
    wire.extend_from_slice(b"\r\n");
    wire.extend_from_slice(&resp.body);
    stream.write_all(&wire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_line_parsing() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\n"),
            Some(("GET", "/metrics", "", "HTTP/1.1"))
        );
        assert_eq!(
            parse_request_line("GET /metrics?x=1 HTTP/1.0\r\nHost: a\r\n\r\n"),
            Some(("GET", "/metrics", "x=1", "HTTP/1.0"))
        );
        assert_eq!(
            parse_request_line("POST /metrics HTTP/1.1\r\n"),
            Some(("POST", "/metrics", "", "HTTP/1.1"))
        );
        // Malformed shapes.
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("NOT-HTTP\r\n"), None);
        assert_eq!(parse_request_line("GET /x SPDY/3\r\n"), None);
        assert_eq!(parse_request_line("GET metrics HTTP/1.1\r\n"), None);
        assert_eq!(parse_request_line("get /x HTTP/1.1\r\n"), None);
        assert_eq!(parse_request_line("GET /x HTTP/1.1 extra\r\n"), None);
    }

    #[test]
    fn query_params_are_split_on_ampersands() {
        let req = Request {
            method: "GET".into(),
            path: "/v1/debug/requests".into(),
            query: "format=chrome&limit=5".into(),
            headers: Vec::new(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("format"), Some("chrome"));
        assert_eq!(req.query_param("limit"), Some("5"));
        assert_eq!(req.query_param("missing"), None);
        let bare = Request {
            query: String::new(),
            ..req.clone()
        };
        assert_eq!(bare.query_param("format"), None);
    }

    #[test]
    fn response_constructors_and_reasons() {
        let r = Response::json(429, "{}").with_header("Retry-After", "1");
        assert_eq!(r.status, 429);
        assert_eq!(reason(r.status), "Too Many Requests");
        assert_eq!(r.headers, vec![("Retry-After", "1".to_string())]);
        assert_eq!(reason(201), "Created");
        assert_eq!(reason(418), "Unknown");
    }

    struct Echo;
    impl Handler for Echo {
        fn handle(&self, req: &Request) -> Response {
            Response::text(
                200,
                format!(
                    "{} {} {}B ct={}",
                    req.method,
                    req.path,
                    req.body.len(),
                    req.header("Content-Type").unwrap_or("-")
                ),
            )
        }
    }

    /// Sends `raw`, half-closes, and reads until the server closes the
    /// connection. The half-close ends a refused body's drain at once.
    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        s.shutdown(Shutdown::Write).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    fn echo_server() -> ServerHandle {
        serve_with(
            Arc::new(Echo),
            "127.0.0.1:0",
            ServeOptions { max_body_bytes: 64 },
        )
        .unwrap()
    }

    #[test]
    fn generic_handler_sees_method_and_body() {
        let mut h = echo_server();
        let addr = h.local_addr();

        let out = roundtrip(
            addr,
            "PUT /v1/matrices/a HTTP/1.1\r\nContent-Type: text/x-mm\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello",
        );
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("PUT /v1/matrices/a 5B ct=text/x-mm"), "{out}");

        // Body over the limit: 413 without reading it.
        let out = roundtrip(addr, "PUT /big HTTP/1.1\r\nContent-Length: 100000\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 413 "), "{out}");

        // Malformed request line: 400.
        let out = roundtrip(addr, "garbage\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");

        h.shutdown();
    }

    #[test]
    fn body_length_rejects_untrustworthy_framing() {
        let h = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|(n, v)| (n.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(body_length(&h(&[])), Some(0));
        assert_eq!(body_length(&h(&[("Content-Length", "12")])), Some(12));
        assert_eq!(
            body_length(&h(&[("content-length", "3"), ("Content-Length", "3")])),
            Some(3)
        );
        assert_eq!(body_length(&h(&[("Transfer-Encoding", "chunked")])), None);
        assert_eq!(body_length(&h(&[("transfer-encoding", "identity")])), None);
        assert_eq!(body_length(&h(&[("Content-Length", "abc")])), None);
        assert_eq!(body_length(&h(&[("Content-Length", "+5")])), None);
        assert_eq!(body_length(&h(&[("Content-Length", "")])), None);
        assert_eq!(
            body_length(&h(&[("Content-Length", "99999999999999999999999")])),
            None
        );
        assert_eq!(
            body_length(&h(&[("Content-Length", "3"), ("Content-Length", "4")])),
            None
        );
    }

    /// A framing error is answered `400` with `Connection: close` and ends
    /// the connection: the request smuggled behind it is never served.
    fn assert_refused_and_closed(addr: SocketAddr, head: &str) {
        let smuggled = "GET /smuggled HTTP/1.1\r\nConnection: close\r\n\r\n";
        let out = roundtrip(addr, &format!("{head}\r\n\r\n{smuggled}"));
        assert!(out.starts_with("HTTP/1.1 400 "), "{head:?}: {out}");
        assert!(out.contains("\r\nConnection: close\r\n"), "{head:?}: {out}");
        assert_eq!(out.matches("HTTP/1.1 ").count(), 1, "{head:?}: {out}");
        assert!(!out.contains("/smuggled"), "{head:?}: {out}");
    }

    #[test]
    fn transfer_encoding_is_refused_and_closes() {
        let h = echo_server();
        assert_refused_and_closed(
            h.local_addr(),
            "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked",
        );
        assert_refused_and_closed(
            h.local_addr(),
            "POST /x HTTP/1.1\r\nContent-Length: 0\r\nTransfer-Encoding: identity",
        );
    }

    #[test]
    fn non_numeric_content_length_is_refused_and_closes() {
        let h = echo_server();
        assert_refused_and_closed(h.local_addr(), "POST /x HTTP/1.1\r\nContent-Length: ten");
        assert_refused_and_closed(h.local_addr(), "POST /x HTTP/1.1\r\nContent-Length: -1");
    }

    #[test]
    fn disagreeing_content_lengths_are_refused_and_close() {
        let h = echo_server();
        assert_refused_and_closed(
            h.local_addr(),
            "POST /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 3",
        );
    }

    #[test]
    fn keep_alive_serves_pipelined_requests_in_order() {
        let h = echo_server();
        let mut s = TcpStream::connect(h.local_addr()).unwrap();
        // Three requests in one write: two kept, the last one closing.
        s.write_all(
            b"PUT /a HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc\
              GET /b HTTP/1.1\r\n\r\n\
              PUT /c HTTP/1.1\r\nContent-Length: 1\r\nConnection: close\r\n\r\nz",
        )
        .unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        let bodies: Vec<&str> = out
            .split("HTTP/1.1 200 OK\r\n")
            .skip(1)
            .map(|r| r.split_once("\r\n\r\n").unwrap().1)
            .collect();
        assert_eq!(
            bodies,
            ["PUT /a 3B ct=-", "GET /b 0B ct=-", "PUT /c 1B ct=-"],
            "{out}"
        );
        assert_eq!(out.matches("Connection: close").count(), 1, "{out}");
        assert!(
            out.ends_with("Connection: close\r\n\r\nPUT /c 1B ct=-"),
            "{out}"
        );
    }

    #[test]
    fn http_1_0_closes_after_its_response() {
        let h = echo_server();
        let out = roundtrip(h.local_addr(), "GET /old HTTP/1.0\r\n\r\n");
        assert!(out.starts_with("HTTP/1.1 200 OK"), "{out}");
        assert!(out.contains("\r\nConnection: close\r\n"), "{out}");
    }
}
