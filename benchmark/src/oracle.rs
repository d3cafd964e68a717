//! The output oracle: what every answer must be.
//!
//! Each template's expected answer comes from a cold in-process
//! [`EstimationContext::estimate_root`] with a fresh [`MncEstimator`] — the
//! daemon promises the same bits. Exact answers come from the [`Evaluator`]
//! and serve two purposes: Theorem 3.1 templates must match them exactly,
//! and every template's symmetric relative error feeds `rel_error_geomean`.

use std::collections::BTreeMap;

use mnc_estimators::MncEstimator;
use mnc_expr::{EstimationContext, Evaluator};
use mnc_served::DagSpec;
use mnc_sparsest::relative_error;

use crate::inputs::{estimate_body, expr_from_spec, Inputs};

/// The answer a template must get.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Expected {
    /// Estimated sparsity (compared bit for bit).
    pub sparsity: f64,
    /// Implied non-zero count, as the daemon rounds it.
    pub nnz: u64,
}

/// An exact answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Truth {
    /// Exact sparsity.
    pub sparsity: f64,
    /// Exact non-zero count.
    pub nnz: u64,
}

/// Expected answers for every template. Templates with identical bodies
/// share one computation (a chain has only 42 distinct parenthesizations).
pub(crate) fn expected(inputs: &Inputs) -> Result<Vec<Expected>, String> {
    let mats = inputs.matrices();
    let mut memo: BTreeMap<Vec<u8>, Expected> = BTreeMap::new();
    inputs
        .templates
        .iter()
        .map(|t| {
            let key = estimate_body(t, "");
            if let Some(e) = memo.get(&key) {
                return Ok(*e);
            }
            let (dag, root) = expr_from_spec(&t.dag, &mats);
            let sparsity = EstimationContext::new()
                .estimate_root(&MncEstimator::new(), &dag, root)
                .map_err(|e| format!("oracle estimate: {e}"))?;
            let shape = dag.shape(root);
            let e = Expected {
                sparsity,
                nnz: (sparsity * shape.0 as f64 * shape.1 as f64).round() as u64,
            };
            memo.insert(key, e);
            Ok(e)
        })
        .collect()
}

/// Exact answers of `dags` over the inputs' matrices.
pub(crate) fn truths(inputs: &Inputs, dags: &[DagSpec]) -> Result<Vec<Truth>, String> {
    let mats = inputs.matrices();
    dags.iter()
        .map(|spec| {
            let (dag, root) = expr_from_spec(spec, &mats);
            let m = Evaluator::new()
                .eval(&dag, root)
                .map_err(|e| format!("exact evaluation: {e}"))?;
            Ok(Truth {
                sparsity: m.sparsity(),
                nnz: m.nnz() as u64,
            })
        })
        .collect()
}

/// Geometric mean over templates of the symmetric relative error
/// `max(s, ŝ) / min(s, ŝ)` between `estimates` and the exact answers.
/// Templates whose error is infinite (an empty answer estimated non-empty,
/// or the reverse) cannot enter a geometric mean; they are returned as the
/// second value.
pub(crate) fn rel_error_geomean(
    inputs: &Inputs,
    estimates: &[f64],
    truths: &[Truth],
) -> (f64, usize) {
    let errors: Vec<f64> = inputs
        .templates
        .iter()
        .zip(estimates)
        .map(|(t, &est)| relative_error(truths[t.truth].sparsity, est))
        .collect();
    let finite: Vec<f64> = errors.iter().copied().filter(|e| e.is_finite()).collect();
    (crate::stats::geomean(&finite), errors.len() - finite.len())
}
