//! `mnc-cli` — inspect sketches and estimate sparsity from the command
//! line, on MatrixMarket files.
//!
//! ```text
//! mnc-cli sketch <a.mtx>                      # print the MNC sketch summary
//! mnc-cli estimate <a.mtx> <b.mtx> [--op matmul|ewadd|ewmul|ewmax|ewmin]
//!                                  [--exact] [--repeat N] [--threads N] [--json]
//!                                             # all estimators on one op
//! mnc-cli gen <uniform|permutation|nlp> <out.mtx> [rows cols sparsity]
//! mnc-cli catalog add <dir> <a.mtx> [--name NAME]   # build + persist sketch
//! mnc-cli catalog list <dir>                  # list persisted sketches
//! mnc-cli top [--addr HOST:PORT] [--interval-ms N] [--once] [--frames N]
//! ```
//!
//! `estimate` runs inside an estimation session: synopses are cached across
//! estimators and repeats, and the session's `EstimationStats` (builds,
//! cache traffic, per-op timings) are printed at the end. `--repeat N`
//! re-estimates N times to show the cache at work. `--json` emits one
//! machine-readable line with full-precision (shortest round-trip)
//! estimates instead of the table — CI diffs these bits against the
//! `mnc-served` HTTP answers.
//!
//! `catalog add` / `catalog list` manage an `mnc-served` synopsis catalog
//! directory offline: sketches added here are served after a daemon start
//! without any rebuild. The daemon itself is the `mnc-served` binary
//! (`mnc-served --catalog <dir>`); `top` watches a running one.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use mnc_core::MncSketch;
use mnc_estimators::{
    BiasedSamplingEstimator, BitsetEstimator, DensityMapEstimator, DynamicDensityMapEstimator,
    HashEstimator, LayeredGraphEstimator, MetaAcEstimator, MetaWcEstimator, MncEstimator, OpKind,
    SparsityEstimator, UnbiasedSamplingEstimator,
};
use mnc_expr::{EstimationContext, ExprDag};
use mnc_matrix::io::{read_matrix_market_file, write_matrix_market_file};
use mnc_matrix::{gen, ops, CsrMatrix};
use rand::SeedableRng;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sketch") => cmd_sketch(&args[1..]),
        Some("estimate") => cmd_estimate(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("catalog") => cmd_catalog(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        _ => {
            eprintln!(
                "usage:\n  mnc-cli sketch <a.mtx>\n  mnc-cli estimate <a.mtx> \
                 <b.mtx> [--op matmul|ewadd|ewmul|ewmax|ewmin] [--exact] [--repeat N]\n    \
                 [--threads N] [--json]\n    \
                 {}\n  \
                 mnc-cli gen <uniform|permutation|nlp> <out.mtx> [rows cols sparsity]\n  \
                 mnc-cli catalog add <dir> <a.mtx> [--name NAME]\n  \
                 mnc-cli catalog list <dir>\n  \
                 mnc-cli top [--addr HOST:PORT] [--interval-ms N] [--once] [--frames N]\n  \
                 (to serve a catalog over HTTP, run `mnc-served --catalog <dir>`)",
                mnc_bench::OBS_USAGE
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<CsrMatrix, String> {
    read_matrix_market_file(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_sketch(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("sketch: missing file argument")?;
    let m = load(path)?;
    let t = Instant::now();
    let h = MncSketch::build(&m);
    let took = t.elapsed();
    println!(
        "matrix           : {}x{}, nnz {} (sparsity {:.3e})",
        m.nrows(),
        m.ncols(),
        m.nnz(),
        m.sparsity()
    );
    println!("construction     : {took:?}");
    println!("sketch size      : {} B", h.size_bytes());
    println!("max(h^r), max(h^c): {} / {}", h.meta.max_hr, h.meta.max_hc);
    println!(
        "non-empty rows/cols: {} / {}",
        h.meta.nonempty_rows, h.meta.nonempty_cols
    );
    println!(
        "rows/cols with 1 nnz: {} / {}",
        h.meta.rows_eq_1, h.meta.cols_eq_1
    );
    println!(
        "half-full rows/cols: {} / {}",
        h.meta.half_full_rows, h.meta.half_full_cols
    );
    println!("fully diagonal   : {}", h.meta.fully_diagonal);
    println!(
        "extended vectors : {}",
        if h.her.is_some() {
            "built"
        } else {
            "not needed"
        }
    );
    if h.meta.max_hr <= 1 {
        println!("note: max(h^r) <= 1 — products with this matrix on the left are estimated EXACTLY (Theorem 3.1)");
    }
    if h.meta.max_hc <= 1 {
        println!("note: max(h^c) <= 1 — products with this matrix on the right are estimated EXACTLY (Theorem 3.1)");
    }
    Ok(())
}

fn parse_op(name: &str) -> Result<OpKind, String> {
    Ok(match name {
        "matmul" | "mm" => OpKind::MatMul,
        "ewadd" | "+" => OpKind::EwAdd,
        "ewmul" | "*" => OpKind::EwMul,
        "ewmax" | "max" => OpKind::EwMax,
        "ewmin" | "min" => OpKind::EwMin,
        other => return Err(format!("unknown op `{other}`")),
    })
}

fn op_token(op: &OpKind) -> &'static str {
    match op {
        OpKind::MatMul => "matmul",
        OpKind::EwAdd => "ewadd",
        OpKind::EwMul => "ewmul",
        OpKind::EwMax => "ewmax",
        OpKind::EwMin => "ewmin",
        _ => "op",
    }
}

fn cmd_estimate(args: &[String]) -> Result<(), String> {
    let (obs, args) = mnc_bench::ObsArgs::parse(args)?;
    let mut files = Vec::new();
    let mut op = OpKind::MatMul;
    let mut exact = false;
    let mut json = false;
    let mut repeat = 1usize;
    let mut threads = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--op" => {
                op = parse_op(it.next().ok_or("--op needs a value")?)?;
            }
            "--exact" => exact = true,
            "--json" => json = true,
            "--repeat" => {
                repeat = it
                    .next()
                    .ok_or("--repeat needs a value")?
                    .parse()
                    .map_err(|_| "bad --repeat value")?;
            }
            "--threads" => {
                threads = it
                    .next()
                    .ok_or("--threads needs a value")?
                    .parse()
                    .map_err(|_| "bad --threads value")?;
            }
            f => files.push(f.to_string()),
        }
    }
    if files.len() != 2 {
        return Err("estimate: expected exactly two .mtx files".into());
    }
    let a = Arc::new(load(&files[0])?);
    let b = Arc::new(load(&files[1])?);

    let estimators: Vec<Box<dyn SparsityEstimator>> = vec![
        Box::new(MetaWcEstimator),
        Box::new(MetaAcEstimator),
        Box::new(BiasedSamplingEstimator::default()),
        Box::new(UnbiasedSamplingEstimator::default()),
        Box::new(HashEstimator::default()),
        Box::new(MncEstimator::basic()),
        Box::new(MncEstimator::new()),
        Box::new(DensityMapEstimator::default()),
        Box::new(DynamicDensityMapEstimator::default()),
        Box::new(BitsetEstimator::default()),
        Box::new(LayeredGraphEstimator::default()),
    ];
    if !json {
        println!(
            "{:<10} {:>14} {:>14} {:>12}",
            "estimator", "estimate s_C", "est. nnz", "time"
        );
    }
    let (rows, cols) = mnc_estimators::OpKind::output_shape(&op, &[a.shape(), b.shape()])
        .map_err(|e| e.to_string())?;
    let mut dag = ExprDag::new();
    let na = dag.leaf(files[0].clone(), Arc::clone(&a));
    let nb = dag.leaf(files[1].clone(), Arc::clone(&b));
    let root = dag.op(op.clone(), &[na, nb]).map_err(|e| e.to_string())?;
    let server = obs.serve()?;
    let mut ctx = EstimationContext::new()
        .with_threads(threads)
        .with_recorder(obs.recorder(server.as_ref()));
    if let Some(srv) = &server {
        srv.install(ctx.recorder());
    }
    let mut json_estimates = Vec::new();
    for est in &estimators {
        let t = Instant::now();
        let mut outcome = ctx.estimate_root(est, &dag, root);
        for _ in 1..repeat {
            outcome = ctx.estimate_root(est, &dag, root);
        }
        if json {
            json_estimates.push((est.name(), outcome.ok()));
            continue;
        }
        match outcome {
            Ok(s) => println!(
                "{:<10} {:>14.6e} {:>14.0} {:>12?}",
                est.name(),
                s,
                s * rows as f64 * cols as f64,
                t.elapsed()
            ),
            Err(e) => println!("{:<10} {:>14} ({e})", est.name(), "✗"),
        }
    }
    if !json {
        println!("\nestimation session:\n{}", ctx.stats());
    }
    obs.emit(ctx.recorder())?;
    let exact_result = if exact {
        let t = Instant::now();
        let c = match op {
            OpKind::MatMul => ops::bool_matmul(&a, &b),
            OpKind::EwAdd => ops::ew_add(&a, &b),
            OpKind::EwMul => ops::ew_mul(&a, &b),
            OpKind::EwMax => ops::ew_max(&a, &b),
            OpKind::EwMin => ops::ew_min(&a, &b),
            _ => unreachable!("parse_op only yields the above"),
        }
        .map_err(|e| e.to_string())?;
        if !json {
            println!(
                "{:<10} {:>14.6e} {:>14} {:>12?}",
                "EXACT",
                c.sparsity(),
                c.nnz(),
                t.elapsed()
            );
        }
        Some(c.sparsity())
    } else {
        None
    };
    if json {
        // One machine-readable line, full precision: `json_f64` is the
        // shortest round-trip rendering, so the bits survive a parse —
        // this is what CI diffs against the `mnc-served` HTTP answer.
        use mnc_obs::export::{json_escape, json_f64};
        let ests = json_estimates
            .iter()
            .map(|(name, s)| {
                let value = s.map_or_else(|| "null".into(), json_f64);
                format!("\"{}\":{}", json_escape(name), value)
            })
            .collect::<Vec<_>>()
            .join(",");
        let mut line = format!(
            "{{\"files\":[\"{}\",\"{}\"],\"op\":\"{}\",\"shape\":[{rows},{cols}],\"estimates\":{{{ests}}}",
            json_escape(&files[0]),
            json_escape(&files[1]),
            op_token(&op),
        );
        if let Some(s) = exact_result {
            line.push_str(&format!(",\"exact\":{}", json_f64(s)));
        }
        line.push('}');
        println!("{line}");
    }
    if let Some(srv) = server {
        srv.finish();
    }
    Ok(())
}

fn cmd_catalog(args: &[String]) -> Result<(), String> {
    use mnc_served::SynopsisCatalog;
    match args.first().map(String::as_str) {
        Some("add") => {
            let dir = args.get(1).ok_or("catalog add: missing <dir>")?;
            let file = args.get(2).ok_or("catalog add: missing <a.mtx>")?;
            let mut name: Option<String> = None;
            let mut it = args[3..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--name" => name = Some(it.next().ok_or("--name needs a value")?.clone()),
                    other => return Err(format!("catalog add: unknown argument `{other}`")),
                }
            }
            let name = name.unwrap_or_else(|| {
                std::path::Path::new(file)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .unwrap_or("matrix")
                    .to_string()
            });
            let m = load(file)?;
            let sketch = Arc::new(MncSketch::build(&m));
            let mut cat = SynopsisCatalog::open(dir).map_err(|e| e.to_string())?;
            let entry = cat.put(&name, sketch, true).map_err(|e| e.to_string())?;
            println!(
                "{}",
                mnc_served::proto::matrix_meta_json(&name, entry.sketch(), entry.file_bytes)
            );
            Ok(())
        }
        Some("list") => {
            let dir = args.get(1).ok_or("catalog list: missing <dir>")?;
            let cat = SynopsisCatalog::open(dir).map_err(|e| e.to_string())?;
            println!(
                "{:<24} {:>10} {:>10} {:>12} {:>12} {:>10}",
                "name", "rows", "cols", "nnz", "sparsity", "bytes"
            );
            for (name, entry) in cat.iter() {
                println!(
                    "{:<24} {:>10} {:>10} {:>12} {:>12.3e} {:>10}",
                    name,
                    entry.sketch().nrows,
                    entry.sketch().ncols,
                    entry.sketch().meta.nnz,
                    entry.sketch().sparsity(),
                    entry.file_bytes
                );
            }
            for q in cat.quarantined() {
                eprintln!("warning: quarantined undecodable entry `{q}`");
            }
            Ok(())
        }
        _ => Err(
            "usage: mnc-cli catalog add <dir> <a.mtx> [--name NAME] | catalog list <dir>".into(),
        ),
    }
}

fn cmd_top(args: &[String]) -> Result<(), String> {
    let opts = mnc_bench::top::parse_args(args)?;
    mnc_bench::top::run(&opts)
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    let kind = args.first().ok_or("gen: missing kind")?;
    let out = args.get(1).ok_or("gen: missing output path")?;
    let rows: usize = args
        .get(2)
        .map_or(Ok(1000), |v| v.parse().map_err(|_| "bad rows"))?;
    let cols: usize = args
        .get(3)
        .map_or(Ok(rows), |v| v.parse().map_err(|_| "bad cols"))?;
    let sparsity: f64 = args
        .get(4)
        .map_or(Ok(0.01), |v| v.parse().map_err(|_| "bad sparsity"))?;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC11);
    let m = match kind.as_str() {
        "uniform" => gen::rand_uniform(&mut rng, rows, cols, sparsity),
        "permutation" => gen::permutation(&mut rng, rows),
        "nlp" => {
            let counts = vec![1u32; rows];
            gen::rand_with_row_counts(&mut rng, cols, &counts)
        }
        other => return Err(format!("unknown generator `{other}`")),
    };
    write_matrix_market_file(&m, out).map_err(|e| e.to_string())?;
    println!(
        "wrote {out}: {}x{} with {} non-zeros",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    Ok(())
}
