//! A blocking HTTP/1.1 client that times each exchange by phase.
//!
//! The client keeps its connection whenever a response does not carry
//! `Connection: close`, so a server that gains keep-alive is measured with
//! persistent connections without touching the benchmark. Every phase is
//! timed from the client's side of the socket:
//!
//! * `connect` — TCP connect (0 on a reused connection);
//! * `ttfb` — from the first request byte written to the first response
//!   byte read (request upload, server queueing and work, and the wire);
//! * `read` — from the first to the last response byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use mnc_obs::Recorder;

/// Socket timeout: a request that waits longer counts as failed.
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// Largest response head the client accepts.
const MAX_HEAD: usize = 64 * 1024;

/// Client-side phase durations of one exchange, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// TCP connect; 0 when the exchange reused a kept connection.
    pub connect_ns: u64,
    /// First request byte written → first response byte read.
    pub ttfb_ns: u64,
    /// First response byte → last response byte.
    pub read_ns: u64,
    /// The whole exchange, from the call to the parsed response.
    pub total_ns: u64,
}

/// A parsed response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes (exactly `Content-Length` of them, or up to EOF).
    pub body: Vec<u8>,
    /// Whether the server asked to close the connection.
    pub close: bool,
    /// Phase timings.
    pub phases: Phases,
}

/// One logical client: at most one open connection at a time.
pub struct Client {
    addr: SocketAddr,
    conn: Option<TcpStream>,
    rec: Recorder,
    connects: u64,
    exchanges: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Client {
    /// A client for `addr`; spans go to `rec` (pass a disabled recorder for
    /// untraced runs).
    pub fn new(addr: SocketAddr, rec: Recorder) -> Client {
        Client {
            addr,
            conn: None,
            rec,
            connects: 0,
            exchanges: 0,
        }
    }

    /// Sends later spans to `rec` (a disabled recorder records none).
    pub fn set_recorder(&mut self, rec: Recorder) {
        self.rec = rec;
    }

    /// TCP connections opened so far.
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Exchanges attempted so far.
    pub fn exchanges(&self) -> u64 {
        self.exchanges
    }

    /// Sends one request and reads the response. A kept connection that
    /// the server closed while idle is retried once on a fresh connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        content_type: Option<&str>,
        body: &[u8],
    ) -> io::Result<Reply> {
        self.exchanges += 1;
        let _span = self.rec.span("request").bytes(body.len() as u64);
        let start = Instant::now();
        let mut msg = format!("{method} {path} HTTP/1.1\r\nHost: bench\r\n");
        if let Some(ct) = content_type {
            msg.push_str(&format!("Content-Type: {ct}\r\n"));
        }
        msg.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        // One write for head and body: two small writes would meet Nagle's
        // algorithm and the peer's delayed ACK.
        let mut wire = msg.into_bytes();
        wire.extend_from_slice(body);

        let reused = self.conn.is_some();
        match self.exchange(&wire, start) {
            Err(e) if reused && e.kind() == io::ErrorKind::ConnectionAborted => {
                self.exchange(&wire, Instant::now())
            }
            other => other,
        }
    }

    fn exchange(&mut self, wire: &[u8], start: Instant) -> io::Result<Reply> {
        let mut connect_ns = 0;
        let reused = self.conn.is_some();
        if !reused {
            let _s = self.rec.span("connect");
            let t = Instant::now();
            let stream = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            stream.set_nodelay(true)?;
            reset_on_close(&stream)?;
            connect_ns = ns(t.elapsed());
            self.connects += 1;
            self.conn = Some(stream);
        }
        let stream = self.conn.as_mut().expect("connected above");
        let mut reply = match read_reply(stream, wire, &self.rec, reused) {
            Ok(r) => r,
            Err(e) => {
                self.conn = None;
                return Err(e);
            }
        };
        if reply.close {
            self.conn = None;
        }
        reply.phases.connect_ns = connect_ns;
        reply.phases.total_ns = ns(start.elapsed());
        Ok(reply)
    }
}

/// Makes closing the connection send RST instead of FIN (`SO_LINGER` with a
/// zero timeout). The client closes only after the whole response arrived,
/// so nothing is lost; what goes away is TIME_WAIT. At tens of thousands of
/// connections per second the kernel's TIME_WAIT table (65536 entries by
/// default) stays full for a minute after a run and slows whatever runs
/// next — one run's teardown would leak into the next run's numbers.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) -> io::Result<()> {
    use std::ffi::{c_int, c_uint};
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        l_onoff: c_int,
        l_linger: c_int,
    }
    extern "C" {
        fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const Linger,
            len: c_uint,
        ) -> c_int;
    }
    const SOL_SOCKET: c_int = 1;
    const SO_LINGER: c_int = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which stays open for the
    // whole call; `linger` is a live `struct linger` with C layout, and the
    // length passed is exactly its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as c_uint,
        )
    };
    if rc == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_stream: &TcpStream) -> io::Result<()> {
    Ok(())
}

/// Writes `wire`, then reads one response; fills the `ttfb` and `read`
/// phases. On a reused connection, a peer that hung up before answering
/// surfaces as `ConnectionAborted` so the caller can retry on a fresh
/// connection.
fn read_reply(
    stream: &mut TcpStream,
    wire: &[u8],
    rec: &Recorder,
    reused: bool,
) -> io::Result<Reply> {
    let stale = |e: io::Error| {
        if reused {
            io::Error::new(io::ErrorKind::ConnectionAborted, e)
        } else {
            e
        }
    };
    let ttfb_span = rec.span("ttfb");
    let t_write = Instant::now();
    stream.write_all(wire).map_err(stale)?;
    let mut buf = Vec::with_capacity(4096);
    let mut chunk = [0u8; 16 * 1024];
    let n = stream.read(&mut chunk).map_err(stale)?;
    if n == 0 {
        return Err(stale(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        )));
    }
    let t_first = Instant::now();
    drop(ttfb_span);
    let _read_span = rec.span("read");
    buf.extend_from_slice(&chunk[..n]);
    let head_end = loop {
        if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break p;
        }
        if buf.len() > MAX_HEAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "response head too large",
            ));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated response head",
            ));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut content_length: Option<usize> = None;
    let mut close = false;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    let mut body = buf.split_off(head_end + 4);
    match content_length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated body",
                    ));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            // No length: the body runs to EOF and the connection is spent.
            stream.read_to_end(&mut body)?;
            close = true;
        }
    }
    Ok(Reply {
        status,
        body,
        close,
        phases: Phases {
            ttfb_ns: ns(t_first - t_write),
            read_ns: ns(t_first.elapsed()),
            ..Phases::default()
        },
    })
}

/// Extracts the number under `"key":` from a flat JSON object without
/// parsing the rest of the body (estimate responses may carry a long
/// `sketch_hex` string). Shortest round-trip formatting on the server side
/// makes the parsed value bit-exact.
pub fn json_number(body: &[u8], key: &str) -> Option<f64> {
    let text = std::str::from_utf8(body).ok()?;
    let pat = format!("\"{key}\":");
    let start = text.find(&pat)? + pat.len();
    let rest = text[start..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}
