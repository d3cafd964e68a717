//! A deliberately wrong daemon for the benchmark's own tests: the real
//! estimation service, except that every `POST /v1/estimate` answer's
//! sparsity is moved up by one unit in the last place. The benchmark's
//! output oracle must catch it.
//!
//! ```text
//! perturbed-daemon --catalog DIR --addr HOST:PORT
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use mnc_benchmark::client::json_number;
use mnc_obsd::{Handler, Request, Response};
use mnc_served::{serve_with, EstimationService, ServeOptions, ServedConfig};

struct Perturbed(Arc<EstimationService>);

impl Handler for Perturbed {
    fn handle(&self, req: &Request) -> Response {
        let mut resp = self.0.handle(req);
        if req.path == "/v1/estimate" && resp.status == 200 {
            if let Some(s) = json_number(&resp.body, "sparsity") {
                let nudged = f64::from_bits(s.to_bits() + 1);
                let body = String::from_utf8_lossy(&resp.body).replacen(
                    &format!("\"sparsity\":{s}"),
                    &format!("\"sparsity\":{nudged}"),
                    1,
                );
                resp.body = body.into_bytes();
            }
        }
        resp
    }

    fn tick(&self) {
        self.0.tick();
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        argv.iter()
            .position(|a| a == name)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let (Some(catalog), Some(addr)) = (flag("--catalog"), flag("--addr")) else {
        eprintln!("usage: perturbed-daemon --catalog DIR --addr HOST:PORT");
        return ExitCode::from(2);
    };
    let service = match EstimationService::new(ServedConfig::new(&catalog)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let opts = ServeOptions {
        max_body_bytes: 4 << 20,
    };
    let handle = match serve_with(Arc::new(Perturbed(service)), addr.as_str(), opts) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "mnc-served listening on http://{} (catalog {catalog})",
        handle.local_addr()
    );
    loop {
        std::thread::park();
    }
}
