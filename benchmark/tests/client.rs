//! The client keeps a connection exactly when the server does not say
//! `Connection: close`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mnc_benchmark::client::{json_number, Client};
use mnc_obs::Recorder;
use mnc_obsd::{serve_with, Handler, Request, Response, ServeOptions};

struct Echo;

impl Handler for Echo {
    fn handle(&self, req: &Request) -> Response {
        Response::json(200, format!("{{\"len\":{}}}", req.body.len()))
    }
}

#[test]
fn closing_server_costs_one_connection_per_request() {
    let server = serve_with(Arc::new(Echo), "127.0.0.1:0", ServeOptions::default()).unwrap();
    let mut client = Client::new(server.local_addr(), Recorder::disabled());
    for k in 0..5u8 {
        let body = vec![b'x'; k as usize];
        let r = client
            .request("POST", "/echo", Some("text/plain"), &body)
            .unwrap();
        assert_eq!(r.status, 200);
        assert!(r.close);
        assert_eq!(json_number(&r.body, "len"), Some(k as f64));
        assert!(r.phases.connect_ns > 0, "every exchange connects afresh");
    }
    assert_eq!((client.connects(), client.exchanges()), (5, 5));
}

/// A minimal HTTP/1.1 server that keeps each connection open, answers
/// every request on it, and counts accepted connections.
fn keep_alive_stub(close_after: Option<usize>) -> (SocketAddr, Arc<AtomicUsize>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let count = Arc::clone(&accepted);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            count.fetch_add(1, Ordering::SeqCst);
            std::thread::spawn(move || {
                let mut served = 0usize;
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                loop {
                    let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") else {
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                        continue;
                    };
                    let head = String::from_utf8_lossy(&buf[..end]).to_string();
                    let len: usize = head
                        .lines()
                        .find_map(|l| l.strip_prefix("Content-Length: "))
                        .and_then(|v| v.trim().parse().ok())
                        .unwrap_or(0);
                    while buf.len() < end + 4 + len {
                        match stream.read(&mut chunk) {
                            Ok(0) | Err(_) => return,
                            Ok(n) => buf.extend_from_slice(&chunk[..n]),
                        }
                    }
                    buf.drain(..end + 4 + len);
                    served += 1;
                    let closing = close_after == Some(served);
                    let body = format!("{{\"n\":{served}}}");
                    let conn = if closing { "Connection: close\r\n" } else { "" };
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{conn}\r\n{body}",
                        body.len()
                    );
                    if stream.write_all(resp.as_bytes()).is_err() || closing {
                        return;
                    }
                }
            });
        }
    });
    (addr, accepted)
}

#[test]
fn keep_alive_server_gets_one_connection() {
    let (addr, accepted) = keep_alive_stub(None);
    let mut client = Client::new(addr, Recorder::disabled());
    for k in 1..=20 {
        let r = client.request("POST", "/x", None, b"hello").unwrap();
        assert!(!r.close);
        assert_eq!(
            json_number(&r.body, "n"),
            Some(k as f64),
            "same connection, request {k}"
        );
    }
    assert_eq!(client.connects(), 1);
    assert_eq!(accepted.load(Ordering::SeqCst), 1);
}

#[test]
fn connection_close_is_honoured_mid_stream() {
    // The server closes after every third request on a connection.
    let (addr, accepted) = keep_alive_stub(Some(3));
    let mut client = Client::new(addr, Recorder::disabled());
    for _ in 0..9 {
        assert_eq!(client.request("GET", "/x", None, b"").unwrap().status, 200);
    }
    assert_eq!(client.connects(), 3);
    assert_eq!(accepted.load(Ordering::SeqCst), 3);
}
