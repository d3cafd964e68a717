//! [`InstrumentedEstimator`]: a transparent observability decorator for any
//! [`SparsityEstimator`].
//!
//! Wrapping an estimator adds a span per `build`/`estimate`/`propagate` call
//! (carrying the op or estimator label, non-zeros in/out, and synopsis
//! bytes) and feeds the per-phase latency histograms of the recorder's
//! metrics registry. Results are forwarded untouched, so estimates are
//! bit-identical with and without the wrapper; with a disabled recorder the
//! wrapper reduces to plain delegation (no clock reads, no allocation).

use std::sync::Arc;

use mnc_matrix::CsrMatrix;
use mnc_obs::{Counter, Histogram, Recorder};

use crate::{OpKind, Result, SparsityEstimator, Synopsis};

/// Decorates an inner estimator with spans and latency metrics.
pub struct InstrumentedEstimator<E> {
    inner: E,
    rec: Recorder,
    build_ns: Histogram,
    estimate_ns: Histogram,
    propagate_ns: Histogram,
    unsupported: Counter,
}

impl<E: SparsityEstimator> InstrumentedEstimator<E> {
    /// Wraps `inner`, pre-registering the latency histograms so hot-path
    /// calls never touch the registry mutex.
    pub fn new(inner: E, rec: Recorder) -> Self {
        InstrumentedEstimator {
            build_ns: rec.histogram("estimator.build_ns"),
            estimate_ns: rec.histogram("estimator.estimate_ns"),
            propagate_ns: rec.histogram("estimator.propagate_ns"),
            unsupported: rec.counter("estimator.unsupported"),
            inner,
            rec,
        }
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Unwraps back into the inner estimator.
    pub fn into_inner(self) -> E {
        self.inner
    }
}

impl<E: SparsityEstimator> SparsityEstimator for InstrumentedEstimator<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn build(&self, m: &Arc<CsrMatrix>) -> Result<Synopsis> {
        if !self.rec.is_enabled() {
            return self.inner.build(m);
        }
        let mut span = self
            .rec
            .span("build")
            .op(self.inner.name())
            .nnz_in(m.nnz() as u64);
        let start = std::time::Instant::now();
        let out = self.inner.build(m);
        self.build_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        if let Ok(syn) = &out {
            span.set_nnz_out(syn.nnz());
            span.set_bytes(syn.size_bytes());
        }
        out
    }

    fn estimate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<f64> {
        if !self.rec.is_enabled() {
            return self.inner.estimate(op, inputs);
        }
        let mut span = self
            .rec
            .span("estimate")
            .op(op.name())
            .nnz_in(inputs.iter().map(|s| s.nnz()).sum());
        let start = std::time::Instant::now();
        let out = self.inner.estimate(op, inputs);
        self.estimate_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match &out {
            Ok(s) => {
                let shapes: Vec<(usize, usize)> = inputs.iter().map(|i| i.shape()).collect();
                if let Ok((rows, cols)) = op.output_shape(&shapes) {
                    span.set_nnz_out((s * rows as f64 * cols as f64).round() as u64);
                }
            }
            Err(crate::EstimatorError::Unsupported { .. }) => self.unsupported.incr(),
            Err(_) => {}
        }
        out
    }

    fn propagate(&self, op: &OpKind, inputs: &[&Synopsis]) -> Result<Synopsis> {
        if !self.rec.is_enabled() {
            return self.inner.propagate(op, inputs);
        }
        let mut span = self
            .rec
            .span("propagate")
            .op(op.name())
            .nnz_in(inputs.iter().map(|s| s.nnz()).sum());
        let start = std::time::Instant::now();
        let out = self.inner.propagate(op, inputs);
        self.propagate_ns
            .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match &out {
            Ok(syn) => {
                span.set_nnz_out(syn.nnz());
                span.set_bytes(syn.size_bytes());
            }
            Err(crate::EstimatorError::Unsupported { .. }) => self.unsupported.incr(),
            Err(_) => {}
        }
        out
    }

    fn supports_chains(&self) -> bool {
        self.inner.supports_chains()
    }

    // `as_sync` keeps its `None` default: the blanket impl cannot promise
    // `Sync` for an arbitrary `E`, so instrumented estimators always take
    // the sequential walk (instrumentation targets measurement runs, where
    // a fixed schedule is a feature anyway).

    fn cache_key(&self) -> String {
        // Same key as the wrapped estimator: instrumentation never changes a
        // synopsis, so cached entries stay valid across wrapping.
        self.inner.cache_key()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaAcEstimator, MncEstimator};
    use mnc_matrix::CsrMatrix;

    fn sample() -> Arc<CsrMatrix> {
        Arc::new(
            CsrMatrix::from_triples(4, 4, vec![(0, 0, 1.0), (1, 2, 2.0), (3, 3, 3.0)]).unwrap(),
        )
    }

    #[test]
    fn results_are_identical_with_and_without_instrumentation() {
        let m = sample();
        let plain = MncEstimator::new();
        let wrapped = InstrumentedEstimator::new(MncEstimator::new(), Recorder::enabled());
        let ps = plain.build(&m).unwrap();
        let ws = wrapped.build(&m).unwrap();
        let pe = plain.estimate(&OpKind::MatMul, &[&ps, &ps]).unwrap();
        let we = wrapped.estimate(&OpKind::MatMul, &[&ws, &ws]).unwrap();
        assert_eq!(pe.to_bits(), we.to_bits());
        assert_eq!(wrapped.name(), plain.name());
        assert_eq!(wrapped.cache_key(), plain.cache_key());
        assert_eq!(wrapped.supports_chains(), plain.supports_chains());
    }

    #[test]
    fn spans_and_histograms_capture_each_phase() {
        let rec = Recorder::enabled();
        let est = InstrumentedEstimator::new(MncEstimator::new(), rec.clone());
        let m = sample();
        let syn = est.build(&m).unwrap();
        est.estimate(&OpKind::MatMul, &[&syn, &syn]).unwrap();
        let out = est.propagate(&OpKind::Transpose, &[&syn]).unwrap();

        let spans = rec.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["build", "estimate", "propagate"]);
        assert_eq!(spans[0].op.as_deref(), Some("MNC"));
        assert_eq!(spans[0].nnz_in, Some(3));
        assert_eq!(spans[0].synopsis_bytes, Some(syn.size_bytes()));
        assert_eq!(spans[1].op.as_deref(), Some("matmul"));
        assert_eq!(spans[2].nnz_out, Some(out.nnz()));

        let metrics = rec.registry().unwrap().snapshot();
        assert_eq!(metrics.histograms["estimator.build_ns"].count(), 1);
        assert_eq!(metrics.histograms["estimator.estimate_ns"].count(), 1);
        assert_eq!(metrics.histograms["estimator.propagate_ns"].count(), 1);
    }

    #[test]
    fn unsupported_operations_are_counted_not_hidden() {
        let rec = Recorder::enabled();
        // MetaAC does not support Eq0 (complement needs exact structure).
        let est = InstrumentedEstimator::new(MetaAcEstimator, rec.clone());
        let syn = est.build(&sample()).unwrap();
        let r = est.estimate(&OpKind::Eq0, &[&syn]);
        if r.is_err() {
            let snap = rec.registry().unwrap().snapshot();
            assert_eq!(snap.counters["estimator.unsupported"], 1);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::disabled();
        let est = InstrumentedEstimator::new(MncEstimator::new(), rec.clone());
        let syn = est.build(&sample()).unwrap();
        est.estimate(&OpKind::Transpose, &[&syn]).unwrap();
        assert!(rec.spans().is_empty());
        assert!(rec.registry().is_none());
    }
}
