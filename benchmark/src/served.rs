//! The served workloads: the real `mnc-served` binary as a child process,
//! driven over loopback by closed-loop clients from this process.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mnc_core::{serialize::to_bytes, MncSketch};
use mnc_matrix::CsrMatrix;
use mnc_obs::Recorder;

use crate::client::{json_number, Client, Phases, Reply};
use crate::daemon::{dir_bytes, peak_rss_bytes, Daemon};
use crate::inputs::{
    client_id, csr_body, estimate_body, Inputs, Picks, Workload, CHURN_BODIES, CHURN_NAMES,
    CLIENT_IDS,
};
use crate::oracle::{self, Expected, Truth};
use crate::report::Outcome;
use crate::{ms, E2e, RunConfig, Slices};

/// Independent set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 7;
/// Kill-and-restart cycles of a traced run; `restart_s` is their median.
pub(crate) const RESTARTS: usize = 5;

/// One matrix to ingest. Its body is encoded at set-up time, inside the
/// timed region: turning a matrix into what the daemon accepts is part of
/// ingesting it.
#[derive(Debug, Clone)]
pub struct Upload {
    /// Catalog name.
    pub name: String,
    /// The matrix.
    pub matrix: Arc<CsrMatrix>,
    /// Send a client-built MNCS sketch instead of CSR JSON.
    pub sketch: bool,
}

impl Upload {
    /// `application/json` (CSR, the daemon builds the sketch) or
    /// `application/octet-stream` (a sketch built by the client).
    pub fn content_type(&self) -> &'static str {
        if self.sketch {
            "application/octet-stream"
        } else {
            "application/json"
        }
    }

    /// The request body.
    pub fn body(&self) -> Vec<u8> {
        if self.sketch {
            to_bytes(&MncSketch::build(&self.matrix))
        } else {
            csr_body(&self.matrix)
        }
    }
}

/// Ingests of a workload's set-up, in order. `serve_small` and
/// `ingest_churn` send CSR JSON; `serve_deep` sends client-built MNCS
/// sketches (full-scale matrices as JSON would measure the JSON parser, not
/// the service).
pub fn uploads(workload: Workload, inputs: &Inputs) -> Vec<Upload> {
    let sketch = matches!(workload, Workload::ServeDeep | Workload::OptimizerInproc);
    inputs
        .leaves
        .iter()
        .chain(inputs.churn.iter().take(CHURN_NAMES))
        .map(|l| Upload {
            name: l.name.clone(),
            matrix: Arc::clone(&l.matrix),
            sketch,
        })
        .collect()
}

/// A served workload, ready to run.
pub(crate) struct Served<'a> {
    /// Run settings.
    pub cfg: &'a RunConfig,
    /// Whose traffic and ingest form this is.
    pub workload: Workload,
    /// The seeded inputs.
    pub inputs: &'a Inputs,
    /// The oracle's answer per template.
    pub expected: &'a [Expected],
    /// Estimate bodies, `[template][session]`.
    pub bodies: Vec<Vec<Vec<u8>>>,
    /// Set-up ingests.
    pub uploads: Vec<Upload>,
    /// CSR JSON bodies of the churn matrices.
    pub churn_bodies: Vec<Vec<u8>>,
    /// The daemon binary.
    pub bin: PathBuf,
}

/// What one closed-loop phase measured.
#[derive(Debug, Default)]
pub(crate) struct Loop {
    /// Output-check tally.
    pub out: Outcome,
    /// Round-trip latency of every successful estimate in the window, ms
    /// (in a traced loop: of the estimates sent without spans).
    pub lat_ms: Vec<f64>,
    /// In a traced loop, the latency of the estimates sent with spans, ms.
    pub traced_lat_ms: Vec<f64>,
    /// In a traced loop, the client-side phases of every successful
    /// estimate in the window.
    pub phases: Vec<Phases>,
    /// Latency of every successful ingest in the window, ms.
    pub ingest_ms: Vec<f64>,
    /// Operations started in the window.
    pub ops: u64,
    /// Estimates started in the window.
    pub estimates: u64,
    /// Window start to the last completion, seconds.
    pub elapsed_s: f64,
    /// The window's operations, and the latencies of its untraced
    /// estimates, by slice.
    pub slices: Slices,
    /// TCP connections opened, all phases.
    pub connects: u64,
    /// Exchanges attempted, all phases.
    pub exchanges: u64,
    /// Churn body index last stored under each churned name.
    pub last_body: Vec<Option<usize>>,
}

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Estimate,
    Churn,
    Both,
}

impl<'a> Served<'a> {
    /// Prepares every body up front, so the loops only send bytes.
    pub fn new(
        cfg: &'a RunConfig,
        workload: Workload,
        inputs: &'a Inputs,
        expected: &'a [Expected],
        bin: PathBuf,
    ) -> Served<'a> {
        let bodies = inputs
            .templates
            .iter()
            .map(|t| {
                (0..CLIENT_IDS)
                    .map(|c| estimate_body(t, &client_id(c)))
                    .collect()
            })
            .collect();
        Served {
            cfg,
            workload,
            inputs,
            expected,
            bodies,
            uploads: uploads(workload, inputs),
            churn_bodies: inputs.churn.iter().map(|l| csr_body(&l.matrix)).collect(),
            bin,
        }
    }

    /// Starts a daemon on an empty `dir` and ingests the catalog. Returns
    /// the daemon, the set-up time (spawn → healthy → every body encoded and
    /// its ingest answered, seconds) and each ingest's round trip (ms).
    pub fn setup(&self, dir: &Path) -> Result<(Daemon, f64, Vec<f64>), String> {
        let _ = std::fs::remove_dir_all(dir);
        let t = Instant::now();
        let daemon = Daemon::start(&self.bin, dir)?;
        let mut client = Client::new(daemon.addr(), Recorder::disabled());
        let mut ingest = Vec::with_capacity(self.uploads.len());
        for u in &self.uploads {
            let r = client
                .request(
                    "PUT",
                    &format!("/v1/matrices/{}", u.name),
                    Some(u.content_type()),
                    &u.body(),
                )
                .map_err(|e| format!("ingest {}: {e}", u.name))?;
            if r.status != 201 {
                return Err(format!("ingest {}: HTTP {}", u.name, r.status));
            }
            ingest.push(ms(r.phases.total_ns));
        }
        Ok((daemon, t.elapsed().as_secs_f64(), ingest))
    }

    /// The plain run's set-up: [`SETUPS`] independent set-ups, each on a
    /// fresh catalog; the last one's daemon and catalog are kept for the
    /// run. Returns them with each set-up's duration in seconds.
    pub fn setups(&self, out: &mut Outcome) -> Option<(Daemon, PathBuf, Vec<f64>)> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut live: Option<(Daemon, PathBuf)> = None;
        for k in 0..SETUPS {
            // Earlier catalogs stay on disk until the run ends: deleting
            // them here would put the file system's discard work under the
            // next set-up's timing.
            if let Some((d, _)) = live.take() {
                d.kill();
            }
            let dir = self.cfg.work.join(format!("catalog-{k}"));
            match self.setup(&dir) {
                Ok((d, secs, _)) => {
                    out.ok();
                    times.push(secs);
                    live = Some((d, dir));
                }
                Err(e) => {
                    out.fail(format!("set-up: {e}"));
                    return None;
                }
            }
        }
        live.map(|(d, dir)| (d, dir, times))
    }

    /// Runs the closed loop: `warmup` unmeasured, then `window` measured.
    /// Every answer is checked against the oracle, warm-up included. With
    /// `trace`, every other estimate records client spans into it, so the
    /// tracing overhead is measured between interleaved requests.
    pub fn closed_loop(
        &self,
        addr: SocketAddr,
        warmup: Duration,
        window: Duration,
        trace: Option<&Recorder>,
    ) -> Loop {
        let threads = self.cfg.threads.max(1);
        let roles: Vec<Role> = match (self.workload, threads) {
            (Workload::IngestChurn, 1) => vec![Role::Both],
            (Workload::IngestChurn, n) => {
                let mut r = vec![Role::Estimate; n - 1];
                r.push(Role::Churn);
                r
            }
            (_, n) => vec![Role::Estimate; n],
        };
        let start = Instant::now();
        let ws = start + warmup;
        let end = ws + window;
        let runs: Vec<(Loop, Instant)> = std::thread::scope(|scope| {
            let handles: Vec<_> = roles
                .iter()
                .enumerate()
                .map(|(thread, &role)| {
                    let trace = trace.cloned();
                    scope.spawn(move || self.client_thread(thread, role, addr, ws, end, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut total = Loop {
            last_body: vec![None; CHURN_NAMES],
            slices: Slices::new(window),
            ..Loop::default()
        };
        let mut done = ws;
        for (run, finished) in runs {
            done = done.max(finished);
            total.out.absorb(run.out);
            total.lat_ms.extend(run.lat_ms);
            total.traced_lat_ms.extend(run.traced_lat_ms);
            total.phases.extend(run.phases);
            total.ingest_ms.extend(run.ingest_ms);
            total.ops += run.ops;
            total.estimates += run.estimates;
            total.slices.merge(run.slices);
            total.connects += run.connects;
            total.exchanges += run.exchanges;
            for (slot, b) in total.last_body.iter_mut().zip(run.last_body) {
                if b.is_some() {
                    *slot = b;
                }
            }
        }
        total.elapsed_s = done.duration_since(ws).as_secs_f64();
        total
    }

    fn client_thread(
        &self,
        thread: usize,
        role: Role,
        addr: SocketAddr,
        ws: Instant,
        end: Instant,
        trace: Option<Recorder>,
    ) -> (Loop, Instant) {
        let mut client = Client::new(addr, Recorder::disabled());
        let mut picks = Picks::new(self.cfg.seed, thread);
        let mut run = Loop {
            last_body: vec![None; CHURN_NAMES],
            slices: Slices::new(end.duration_since(ws)),
            ..Loop::default()
        };
        // Set-up bound churn names to bodies 0..CHURN_NAMES; continue after.
        let mut next_put = CHURN_NAMES;
        let mut n = 0u64;
        let mut finished = ws;
        loop {
            let started = Instant::now();
            if started >= end {
                break;
            }
            let in_window = started >= ws;
            let put = match role {
                Role::Estimate => false,
                Role::Churn => true,
                Role::Both => n % 8 == 7,
            };
            n += 1;
            if in_window {
                run.ops += 1;
            }
            let mut latency = None;
            if put {
                let (name, body) = (next_put % CHURN_NAMES, next_put % CHURN_BODIES);
                next_put += 1;
                let r = client.request(
                    "PUT",
                    &format!("/v1/matrices/churn{name}"),
                    Some("application/json"),
                    &self.churn_bodies[body],
                );
                match r {
                    Ok(r) if r.status == 201 => {
                        run.out.ok();
                        run.last_body[name] = Some(body);
                        if in_window {
                            run.ingest_ms.push(ms(r.phases.total_ns));
                        }
                    }
                    Ok(r) => run
                        .out
                        .fail(format!("ingest churn{name}: HTTP {}", r.status)),
                    Err(e) => run.out.fail(format!("ingest churn{name}: {e}")),
                }
            } else {
                let (t, c) = picks.next_pick();
                if in_window {
                    run.estimates += 1;
                }
                let traced = trace.as_ref().filter(|_| run.estimates.is_multiple_of(2));
                client.set_recorder(traced.cloned().unwrap_or_default());
                let r = client.request(
                    "POST",
                    "/v1/estimate",
                    Some("application/json"),
                    &self.bodies[t][c],
                );
                if let Some(ph) = check_estimate(&mut run.out, r, t, &self.expected[t]) {
                    if in_window {
                        let l = ms(ph.total_ns);
                        if traced.is_some() {
                            run.traced_lat_ms.push(l);
                        } else {
                            run.lat_ms.push(l);
                            latency = Some(l);
                        }
                        if trace.is_some() {
                            run.phases.push(ph);
                        }
                    }
                }
            }
            finished = Instant::now();
            if in_window {
                run.slices.record(finished.duration_since(ws), latency);
            }
        }
        run.connects = client.connects();
        run.exchanges = client.exchanges();
        (run, finished)
    }

    /// Sends every template once (session `c00`) and checks each answer.
    pub fn estimate_all(&self, addr: SocketAddr, out: &mut Outcome) {
        let mut client = Client::new(addr, Recorder::disabled());
        for (t, bodies) in self.bodies.iter().enumerate() {
            let r = client.request("POST", "/v1/estimate", Some("application/json"), &bodies[0]);
            check_estimate(out, r, t, &self.expected[t]);
        }
    }

    /// Checks that each churned name exports exactly the sketch of the
    /// matrix its last ingest carried.
    pub fn check_exports(&self, addr: SocketAddr, last_body: &[Option<usize>], out: &mut Outcome) {
        let mut client = Client::new(addr, Recorder::disabled());
        for (name, body) in last_body.iter().enumerate() {
            // Names the window never re-bound still hold their set-up body.
            let body = body.unwrap_or(name);
            let want = to_bytes(&MncSketch::build(&self.inputs.churn[body].matrix));
            match client.request(
                "GET",
                &format!("/v1/matrices/churn{name}/sketch"),
                None,
                b"",
            ) {
                Ok(r) if r.status == 200 && r.body == want => out.ok(),
                Ok(r) => out.fail(format!(
                    "churn{name}: exported sketch ({} B, HTTP {}) differs from body {body}",
                    r.body.len(),
                    r.status
                )),
                Err(e) => out.fail(format!("churn{name} export: {e}")),
            }
        }
    }

    /// Kills `daemon` with SIGKILL and restarts it on `dir`, `times` times,
    /// then checks that the last restart rebuilt no sketch and answers
    /// every template (and, for churn, every export) as before. Returns each
    /// restart's kill → healthy time in seconds.
    pub fn restart(
        &self,
        mut daemon: Daemon,
        dir: &Path,
        times: usize,
        last_body: &[Option<usize>],
        out: &mut Outcome,
    ) -> Vec<f64> {
        let mut secs = Vec::with_capacity(times);
        for _ in 0..times {
            daemon.kill();
            let t = Instant::now();
            match Daemon::start(&self.bin, dir) {
                Ok(d) => {
                    secs.push(t.elapsed().as_secs_f64());
                    daemon = d;
                }
                Err(e) => {
                    out.fail(format!("restart: {e}"));
                    return secs;
                }
            }
        }
        check_rebuilds(daemon.addr(), out);
        self.estimate_all(daemon.addr(), out);
        if self.workload == Workload::IngestChurn {
            self.check_exports(daemon.addr(), last_body, out);
        }
        secs
    }

    /// The plain run (tracing off).
    pub fn run_e2e(&self) -> Outcome {
        let mut out = Outcome::default();
        let Some((daemon, dir, setup_s)) = self.setups(&mut out) else {
            return out;
        };
        let catalog_bytes = dir_bytes(&dir);
        let mut lp = self.closed_loop(daemon.addr(), self.cfg.warmup, self.cfg.window, None);
        out.absorb(std::mem::take(&mut lp.out));
        if self.workload == Workload::IngestChurn {
            self.check_exports(daemon.addr(), &lp.last_body, &mut out);
        }
        let peak_rss = peak_rss_bytes(&daemon.pid().to_string()).unwrap_or(0);
        // One restart checks durability; the traced run times restarts.
        self.restart(daemon, &dir, 1, &lp.last_body, &mut out);
        let rel_error = self.rel_error(&mut out);
        E2e {
            setup_s,
            ops: lp.ops,
            elapsed_s: lp.elapsed_s,
            slices: lp.slices,
            peak_rss_bytes: peak_rss,
            catalog_bytes,
            rel_error,
        }
        .record(&mut out);
        out.info("client_connects", lp.connects as f64);
        out.info("client_exchanges", lp.exchanges as f64);
        out.info("window_estimates", lp.estimates as f64);
        out
    }

    /// The relative-error geomean of the oracle's estimates (see
    /// [`reference`]).
    pub fn rel_error(&self, out: &mut Outcome) -> (f64, usize) {
        let estimates: Vec<f64> = self.expected.iter().map(|e| e.sparsity).collect();
        reference(self.inputs, self.expected, out).map_or((f64::NAN, 0), |truths| {
            oracle::rel_error_geomean(self.inputs, &estimates, &truths)
        })
    }
}

/// Computes the exact answers (timed as `reference_s`, outside every
/// metric) and checks every Theorem 3.1 template against them.
pub(crate) fn reference(
    inputs: &Inputs,
    expected: &[Expected],
    out: &mut Outcome,
) -> Option<Vec<Truth>> {
    let t = Instant::now();
    let truths = match oracle::truths(inputs, &inputs.truth_dags) {
        Ok(tr) => tr,
        Err(e) => {
            out.fail(e);
            return None;
        }
    };
    out.info("reference_s", t.elapsed().as_secs_f64());
    for (i, (tpl, exp)) in inputs.templates.iter().zip(expected).enumerate() {
        if tpl.exact {
            let truth = truths[tpl.truth];
            out.check(exp.nnz == truth.nnz, || {
                format!(
                    "template {i}: Theorem 3.1 estimate {} != exact {}",
                    exp.nnz, truth.nnz
                )
            });
        }
    }
    Some(truths)
}

/// Checks one estimate answer against the oracle; returns its phases when
/// it passed.
pub(crate) fn check_estimate(
    out: &mut Outcome,
    reply: std::io::Result<Reply>,
    t: usize,
    exp: &Expected,
) -> Option<Phases> {
    match reply {
        Err(e) => out.fail(format!("template {t}: {e}")),
        Ok(r) if r.status != 200 => out.fail(format!("template {t}: HTTP {}", r.status)),
        Ok(r) => {
            let s = json_number(&r.body, "sparsity");
            let nnz = json_number(&r.body, "nnz");
            if s.map(f64::to_bits) == Some(exp.sparsity.to_bits()) && nnz == Some(exp.nnz as f64) {
                out.ok();
                return Some(r.phases);
            }
            out.fail(format!(
                "template {t}: answered sparsity {s:?} nnz {nnz:?}, expected {:?} / {}",
                exp.sparsity, exp.nnz
            ));
        }
    }
    None
}

/// Checks that the daemon reports zero sketch rebuilds.
pub(crate) fn check_rebuilds(addr: SocketAddr, out: &mut Outcome) {
    let mut client = Client::new(addr, Recorder::disabled());
    match client.request("GET", "/v1/status", None, b"") {
        Ok(r) if r.status == 200 => {
            let rebuilds = json_number(&r.body, "rebuilds");
            out.check(rebuilds == Some(0.0), || {
                format!("restart rebuilt sketches: rebuilds = {rebuilds:?}")
            });
        }
        Ok(r) => out.fail(format!("/v1/status: HTTP {}", r.status)),
        Err(e) => out.fail(format!("/v1/status: {e}")),
    }
}
