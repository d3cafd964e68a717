//! `optimizer_inproc`: the embedded optimizer, with no daemon and no HTTP.
//!
//! One thread and one long-lived [`EstimationContext`], as an optimizer
//! would keep. Each operation builds a fresh [`ExprDag`] for a seeded plan
//! over the shared leaves (leaves hit the context's cache, intermediates
//! miss), costs it with [`Planner::plan_with_context`] and a fresh
//! estimator, and orders product chains with the sparse chain optimizer.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mnc_core::serialize::to_bytes;
use mnc_estimators::{MncEstimator, Synopsis};
use mnc_expr::chain_opt::sparse_chain_order_cached;
use mnc_expr::{EstimationContext, Planner};
use mnc_matrix::CsrMatrix;
use mnc_obs::Recorder;

use crate::daemon::peak_rss_bytes;
use crate::inputs::{estimate_body, expr_from_spec, Inputs, Picks, Template, Workload};
use crate::oracle::{self, Expected};
use crate::report::Outcome;
use crate::served::{reference, Served, SETUPS};
use crate::{layers, stats, E2e, RunConfig, Slices};

/// What planning one template answers; compared bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PlanAnswer {
    /// Estimated sparsity of the root node.
    pub root: f64,
    /// Estimated total multiply FLOPs of the plan.
    pub flops: f64,
    /// Optimal estimated chain cost, for pure product templates.
    pub chain: Option<f64>,
}

/// Plans one template in `ctx` — the unit of work of this workload.
pub(crate) fn plan_op(
    ctx: &mut EstimationContext,
    tpl: &Template,
    mats: &BTreeMap<String, Arc<CsrMatrix>>,
    rec: &Recorder,
) -> Result<PlanAnswer, String> {
    let (dag, root) = {
        let _s = rec.span("dag_build");
        expr_from_spec(&tpl.dag, mats)
    };
    let est = MncEstimator::new();
    let plan = {
        let _s = rec.span("plan");
        Planner::default()
            .plan_with_context(&est, &dag, ctx)
            .map_err(|e| format!("plan: {e}"))?
    };
    let chain = match &tpl.chain {
        Some(names) => {
            let _s = rec.span("chain_order");
            let ms: Vec<Arc<CsrMatrix>> = names.iter().map(|n| Arc::clone(&mats[n])).collect();
            Some(
                sparse_chain_order_cached(ctx, &est, &ms)
                    .map_err(|e| format!("chain order: {e}"))?
                    .0,
            )
        }
        None => None,
    };
    Ok(PlanAnswer {
        root: plan.node(root).sparsity,
        flops: plan.total_flops,
        chain,
    })
}

/// Each template's answer from a cold context (templates with identical
/// expressions share one computation).
pub(crate) fn expected_plans(inputs: &Inputs) -> Result<Vec<PlanAnswer>, String> {
    let mats = inputs.matrices();
    let mut memo: BTreeMap<Vec<u8>, PlanAnswer> = BTreeMap::new();
    inputs
        .templates
        .iter()
        .map(|t| {
            let key = estimate_body(t, "");
            if let Some(a) = memo.get(&key) {
                return Ok(*a);
            }
            let a = plan_op(
                &mut EstimationContext::new(),
                t,
                &mats,
                &Recorder::disabled(),
            )?;
            memo.insert(key, a);
            Ok(a)
        })
        .collect()
}

fn same(a: &PlanAnswer, b: &PlanAnswer) -> bool {
    a.root.to_bits() == b.root.to_bits()
        && a.flops.to_bits() == b.flops.to_bits()
        && a.chain.map(f64::to_bits) == b.chain.map(f64::to_bits)
}

/// Builds every leaf synopsis in a fresh context. Returns the context and
/// the set-up time in seconds.
fn setup(inputs: &Inputs) -> Result<(EstimationContext, f64), String> {
    let est = MncEstimator::new();
    let t = Instant::now();
    let mut ctx = EstimationContext::new();
    for l in &inputs.leaves {
        ctx.leaf_synopsis(&est, &l.matrix)
            .map_err(|e| format!("build {}: {e}", l.name))?;
    }
    Ok((ctx, t.elapsed().as_secs_f64()))
}

/// The serialized size of every leaf sketch the context holds: what the
/// embedded optimizer keeps of its matrices, and what a catalog of them
/// would store.
fn leaf_sketch_bytes(inputs: &Inputs, ctx: &mut EstimationContext) -> Result<u64, String> {
    let est = MncEstimator::new();
    inputs.leaves.iter().try_fold(0, |total, l| {
        match ctx.leaf_synopsis(&est, &l.matrix).as_deref() {
            Ok(Synopsis::Mnc(s)) => Ok(total + to_bytes(&s.sketch).len() as u64),
            Ok(_) => Err(format!("{}: not an MNC synopsis", l.name)),
            Err(e) => Err(format!("{}: {e}", l.name)),
        }
    })
}

/// Resets this process's `VmHWM` to its current resident set, so that a
/// later reading covers only what happens after the reset. Linux only.
fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

struct PlanLoop {
    lat_ms: Vec<f64>,
    ops: u64,
    elapsed_s: f64,
    slices: Slices,
}

/// Plans seeded templates back to back: `warmup` unmeasured, then `window`.
#[allow(clippy::too_many_arguments)]
fn plan_loop(
    cfg: &RunConfig,
    inputs: &Inputs,
    mats: &BTreeMap<String, Arc<CsrMatrix>>,
    expect: &[PlanAnswer],
    ctx: &mut EstimationContext,
    warmup: Duration,
    window: Duration,
    rec: &Recorder,
    out: &mut Outcome,
) -> PlanLoop {
    let mut picks = Picks::new(cfg.seed, 0);
    let start = Instant::now();
    let (ws, end) = (start + warmup, start + warmup + window);
    let mut lp = PlanLoop {
        lat_ms: Vec::new(),
        ops: 0,
        elapsed_s: 0.0,
        slices: Slices::new(window),
    };
    let mut finished = ws;
    loop {
        let t0 = Instant::now();
        if t0 >= end {
            break;
        }
        let (t, _) = picks.next_pick();
        let got = {
            let _s = rec.span("plan_op");
            plan_op(ctx, &inputs.templates[t], mats, rec)
        };
        finished = Instant::now();
        let mut latency = None;
        match got {
            Ok(a) if same(&a, &expect[t]) => {
                out.ok();
                latency = Some((finished - t0).as_secs_f64() * 1e3);
            }
            Ok(a) => out.fail(format!(
                "template {t}: planned {a:?}, expected {:?}",
                expect[t]
            )),
            Err(e) => out.fail(format!("template {t}: {e}")),
        }
        if t0 >= ws {
            lp.ops += 1;
            lp.lat_ms.extend(latency);
            lp.slices.record(finished.duration_since(ws), latency);
        }
    }
    lp.elapsed_s = finished.saturating_duration_since(ws).as_secs_f64();
    lp
}

/// Runs `optimizer_inproc` (plain or traced).
pub(crate) fn run(cfg: &RunConfig, inputs: &Inputs, expected: &[Expected]) -> Outcome {
    let mut out = Outcome::default();
    let expect = match expected_plans(inputs) {
        Ok(e) => e,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let mats = inputs.matrices();
    if cfg.trace {
        return trace(cfg, inputs, expected, &expect, &mats);
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut ctx = None;
    for _ in 0..SETUPS {
        // One context at a time, as the optimizer would hold.
        drop(ctx.take());
        match setup(inputs) {
            Ok((c, secs)) => {
                out.ok();
                setup_s.push(secs);
                ctx = Some(c);
            }
            Err(e) => {
                out.fail(e);
                return out;
            }
        }
    }
    let mut ctx = ctx.expect("at least one set-up");
    let catalog_bytes = match leaf_sketch_bytes(inputs, &mut ctx) {
        Ok(b) => b,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    // The peak then covers the optimizer from its set-up context on, not
    // the generation of inputs and oracle answers before it.
    if let Err(e) = reset_peak_rss() {
        out.fail(format!("reset peak RSS: {e}"));
        return out;
    }

    let lp = plan_loop(
        cfg,
        inputs,
        &mats,
        &expect,
        &mut ctx,
        cfg.warmup,
        cfg.window,
        &Recorder::disabled(),
        &mut out,
    );
    // Read before the exact reference evaluation, which is not the
    // optimizer's memory.
    let peak_rss = peak_rss_bytes("self").unwrap_or(0);
    let roots: Vec<f64> = expect.iter().map(|a| a.root).collect();
    let rel_error = reference(inputs, expected, &mut out).map_or((f64::NAN, 0), |truths| {
        oracle::rel_error_geomean(inputs, &roots, &truths)
    });
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
    out.info("context_cache_hits", ctx.stats().cache_hits as f64);
    out.info("context_cache_misses", ctx.stats().cache_misses as f64);
    out
}

/// The traced run: the plan loop untraced and traced (for the tracing
/// overhead), then the daemon probed with the same plans so that every
/// per-layer metric is measured on this workload too.
fn trace(
    cfg: &RunConfig,
    inputs: &Inputs,
    expected: &[Expected],
    expect: &[PlanAnswer],
    mats: &BTreeMap<String, Arc<CsrMatrix>>,
) -> Outcome {
    let mut out = Outcome::default();
    let Some(bin) = cfg.daemon.clone() else {
        out.fail("the traced run probes the daemon, but none was given");
        return out;
    };
    let mut ctx = match setup(inputs) {
        Ok((c, _)) => c,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let half = cfg.window / 2;
    let rec = layers::span_recorder();
    let plain = plan_loop(
        cfg,
        inputs,
        mats,
        expect,
        &mut ctx,
        cfg.warmup,
        half,
        &Recorder::disabled(),
        &mut out,
    );
    let mut ctx = ctx.with_recorder(rec.clone());
    let traced = plan_loop(
        cfg,
        inputs,
        mats,
        expect,
        &mut ctx,
        Duration::ZERO,
        half,
        &rec,
        &mut out,
    );
    drop(ctx);
    let plans = layers::PlanTrace {
        overhead: stats::p50(&traced.lat_ms) / stats::p50(&plain.lat_ms),
        latency_p99_ms: stats::tail(&stats::sorted(&plain.lat_ms), 0.99).map_or(f64::NAN, |t| t.1),
    };
    let s = Served::new(cfg, Workload::OptimizerInproc, inputs, expected, bin);
    let mut probe = layers::trace_served(&s, rec, Some(plans));
    probe.absorb(out);
    probe
}
