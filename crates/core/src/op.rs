//! The shared operation vocabulary and the op-driven sketch API.
//!
//! [`OpKind`] and [`EstimatorError`] originally lived in `mnc-estimators`;
//! they moved here so that the core sketch and every estimator speak one
//! vocabulary (`mnc-estimators` re-exports them). On top of that vocabulary,
//! [`MncSketch::estimate`] and [`MncSketch::propagate`] collapse the twelve
//! `estimate_*`/`propagate_*` free-function pairs into two entry points that
//! validate arity and shapes up front and return [`EstimatorError`] instead
//! of panicking on malformed input.

use std::fmt;

use crate::estimate::{
    estimate_cbind, estimate_diag_extract, estimate_diag_v2m, estimate_eq_zero, estimate_ew_add,
    estimate_ew_mul, estimate_matmul_with, estimate_neq_zero, estimate_rbind, estimate_reshape,
    estimate_transpose,
};
use crate::propagate::{
    propagate_cbind_in, propagate_diag_extract_in, propagate_diag_v2m, propagate_eq_zero_in,
    propagate_ew_add_in, propagate_ew_mul_in, propagate_matmul_in, propagate_neq_zero,
    propagate_rbind_in, propagate_reshape_in, propagate_transpose,
};
use crate::round::SplitMix64;
use crate::sketch::MncSketch;
use crate::MncConfig;
use mnc_kernels::ScratchArena;

/// The operations the SparsEst benchmark exercises (paper Sections 3–4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Matrix product `A B`.
    MatMul,
    /// Element-wise addition `A + B`.
    EwAdd,
    /// Element-wise (Hadamard) multiplication `A ⊙ B`.
    EwMul,
    /// Element-wise maximum `max(A, B)` — under assumption A1 its pattern
    /// is the union, like `EwAdd` (the paper's spatial pattern where `max`
    /// replaces `∨`).
    EwMax,
    /// Element-wise minimum `min(A, B)` — pattern-equivalent to `EwMul`
    /// under A1.
    EwMin,
    /// Transposition `Aᵀ`.
    Transpose,
    /// Row-wise reshape to `rows x cols`.
    Reshape { rows: usize, cols: usize },
    /// `diag(v)`: column vector onto the diagonal.
    DiagV2M,
    /// `diag(A)`: diagonal extraction from a square matrix into an
    /// `m x 1` vector.
    DiagM2V,
    /// Row-wise concatenation.
    Rbind,
    /// Column-wise concatenation.
    Cbind,
    /// `A != 0` indicator.
    Neq0,
    /// `A == 0` indicator.
    Eq0,
}

impl OpKind {
    /// Number of operands the operation consumes.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::MatMul
            | OpKind::EwAdd
            | OpKind::EwMul
            | OpKind::EwMax
            | OpKind::EwMin
            | OpKind::Rbind
            | OpKind::Cbind => 2,
            _ => 1,
        }
    }

    /// Stable short name, used as the per-op key in
    /// [`EstimationStats`](crate::EstimationStats) and in reports.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::MatMul => "matmul",
            OpKind::EwAdd => "ew_add",
            OpKind::EwMul => "ew_mul",
            OpKind::EwMax => "ew_max",
            OpKind::EwMin => "ew_min",
            OpKind::Transpose => "transpose",
            OpKind::Reshape { .. } => "reshape",
            OpKind::DiagV2M => "diag_v2m",
            OpKind::DiagM2V => "diag_m2v",
            OpKind::Rbind => "rbind",
            OpKind::Cbind => "cbind",
            OpKind::Neq0 => "neq0",
            OpKind::Eq0 => "eq0",
        }
    }

    /// Output shape given input shapes; an error for a wrong input count or
    /// incompatible shapes (a malformed DAG must not panic).
    pub fn output_shape(&self, inputs: &[(usize, usize)]) -> Result<(usize, usize)> {
        if inputs.len() != self.arity() {
            return Err(EstimatorError::arity(self, inputs.len()));
        }
        match self {
            OpKind::MatMul => {
                if inputs[0].1 != inputs[1].0 {
                    return Err(EstimatorError::dims(
                        self,
                        inputs[0],
                        inputs[1],
                        "inner dimension",
                    ));
                }
                Ok((inputs[0].0, inputs[1].1))
            }
            OpKind::EwAdd | OpKind::EwMul | OpKind::EwMax | OpKind::EwMin => {
                if inputs[0] != inputs[1] {
                    return Err(EstimatorError::dims(
                        self,
                        inputs[0],
                        inputs[1],
                        "equal shapes required",
                    ));
                }
                Ok(inputs[0])
            }
            OpKind::Transpose => Ok((inputs[0].1, inputs[0].0)),
            OpKind::Reshape { rows, cols } => {
                if inputs[0].0 * inputs[0].1 != rows * cols {
                    return Err(EstimatorError::shape(
                        self,
                        inputs[0],
                        "cell count must be conserved",
                    ));
                }
                Ok((*rows, *cols))
            }
            OpKind::DiagV2M => {
                if inputs[0].1 != 1 {
                    return Err(EstimatorError::shape(
                        self,
                        inputs[0],
                        "column vector required",
                    ));
                }
                Ok((inputs[0].0, inputs[0].0))
            }
            OpKind::DiagM2V => {
                if inputs[0].0 != inputs[0].1 {
                    return Err(EstimatorError::shape(
                        self,
                        inputs[0],
                        "square matrix required",
                    ));
                }
                Ok((inputs[0].0, 1))
            }
            OpKind::Rbind => {
                if inputs[0].1 != inputs[1].1 {
                    return Err(EstimatorError::dims(
                        self,
                        inputs[0],
                        inputs[1],
                        "column count",
                    ));
                }
                Ok((inputs[0].0 + inputs[1].0, inputs[0].1))
            }
            OpKind::Cbind => {
                if inputs[0].0 != inputs[1].0 {
                    return Err(EstimatorError::dims(
                        self,
                        inputs[0],
                        inputs[1],
                        "row count",
                    ));
                }
                Ok((inputs[0].0, inputs[0].1 + inputs[1].1))
            }
            OpKind::Neq0 | OpKind::Eq0 => Ok(inputs[0]),
        }
    }
}

/// Errors surfaced by estimators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EstimatorError {
    /// The estimator does not support the operation (reported as `✗`).
    Unsupported { estimator: &'static str, op: String },
    /// The synopsis would exceed the configured memory budget — mirrors the
    /// paper's bitset out-of-memory cases (e.g. ≈8 TB for B2.1).
    SynopsisTooLarge {
        estimator: &'static str,
        bytes: u64,
        limit: u64,
    },
    /// Wrong operand count for an operation (a malformed DAG or request).
    ArityMismatch {
        op: &'static str,
        expected: usize,
        got: usize,
    },
    /// Two operand shapes that must agree do not (matmul inner dimension,
    /// element-wise equal shapes, rbind/cbind aligned counts).
    DimensionMismatch {
        op: &'static str,
        lhs: (usize, usize),
        rhs: (usize, usize),
        requirement: &'static str,
    },
    /// A single operand's shape violates the operation's requirement
    /// (diag wants a column vector or square input, reshape must conserve
    /// the cell count).
    ShapeInvalid {
        op: &'static str,
        shape: (usize, usize),
        requirement: &'static str,
    },
    /// Internal invariant violation (wrong synopsis variant handed to an
    /// estimator, ...) — conditions no well-formed input can trigger.
    Internal(String),
}

impl EstimatorError {
    /// Convenience constructor used across estimator modules.
    pub fn unsupported(estimator: &'static str, op: &OpKind) -> EstimatorError {
        EstimatorError::Unsupported {
            estimator,
            op: format!("{op:?}"),
        }
    }

    /// Convenience constructor: wrong operand count for `op`.
    pub fn arity(op: &OpKind, got: usize) -> EstimatorError {
        EstimatorError::ArityMismatch {
            op: op.name(),
            expected: op.arity(),
            got,
        }
    }

    /// Convenience constructor: two operand shapes that must agree do not.
    pub fn dims(
        op: &OpKind,
        lhs: (usize, usize),
        rhs: (usize, usize),
        requirement: &'static str,
    ) -> EstimatorError {
        EstimatorError::DimensionMismatch {
            op: op.name(),
            lhs,
            rhs,
            requirement,
        }
    }

    /// Convenience constructor: a single operand shape violates `op`'s
    /// requirement.
    pub fn shape(op: &OpKind, shape: (usize, usize), requirement: &'static str) -> EstimatorError {
        EstimatorError::ShapeInvalid {
            op: op.name(),
            shape,
            requirement,
        }
    }
}

impl fmt::Display for EstimatorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimatorError::Unsupported { estimator, op } => {
                write!(f, "{estimator} does not support {op}")
            }
            EstimatorError::SynopsisTooLarge {
                estimator,
                bytes,
                limit,
            } => write!(
                f,
                "{estimator} synopsis of {bytes} B exceeds the {limit} B budget"
            ),
            EstimatorError::ArityMismatch { op, expected, got } => {
                write!(f, "{op}: expected {expected} input(s), got {got}")
            }
            EstimatorError::DimensionMismatch {
                op,
                lhs,
                rhs,
                requirement,
            } => write!(
                f,
                "{op}: operand shapes {}x{} and {}x{} are incompatible ({requirement})",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            EstimatorError::ShapeInvalid {
                op,
                shape,
                requirement,
            } => write!(
                f,
                "{op}: operand shape {}x{} is invalid ({requirement})",
                shape.0, shape.1
            ),
            EstimatorError::Internal(msg) => write!(f, "internal estimator error: {msg}"),
        }
    }
}

impl std::error::Error for EstimatorError {}

/// Result alias for estimator operations.
pub type Result<T> = std::result::Result<T, EstimatorError>;

/// Validates arity and shape compatibility, returning the output shape.
fn validate(op: &OpKind, inputs: &[&MncSketch]) -> Result<(usize, usize)> {
    let shapes: Vec<(usize, usize)> = inputs.iter().map(|h| (h.nrows, h.ncols)).collect();
    op.output_shape(&shapes)
}

impl MncSketch {
    /// Estimates the output sparsity of `op` applied to `inputs` with the
    /// default configuration — the op-driven face of the twelve
    /// `estimate_*` functions (Sections 3–4).
    ///
    /// ```
    /// use mnc_core::{MncSketch, OpKind};
    /// use mnc_matrix::CsrMatrix;
    ///
    /// let p = MncSketch::build(&CsrMatrix::identity(3));
    /// let x = MncSketch::build(
    ///     &CsrMatrix::from_triples(3, 2, vec![(0, 0, 1.0), (2, 1, 1.0)]).unwrap(),
    /// );
    /// let s = MncSketch::estimate(&OpKind::MatMul, &[&p, &x]).unwrap();
    /// assert!((s - 2.0 / 6.0).abs() < 1e-12);
    /// // Malformed input errors instead of panicking:
    /// assert!(MncSketch::estimate(&OpKind::MatMul, &[&p]).is_err());
    /// ```
    pub fn estimate(op: &OpKind, inputs: &[&MncSketch]) -> Result<f64> {
        Self::estimate_with(op, inputs, &MncConfig::default())
    }

    /// [`MncSketch::estimate`] under an explicit [`MncConfig`].
    pub fn estimate_with(op: &OpKind, inputs: &[&MncSketch], cfg: &MncConfig) -> Result<f64> {
        validate(op, inputs)?;
        let a = inputs[0];
        Ok(match op {
            OpKind::MatMul => estimate_matmul_with(a, inputs[1], cfg),
            // Under A1, max is pattern-equivalent to + and min to ⊙.
            OpKind::EwAdd | OpKind::EwMax => estimate_ew_add(a, inputs[1]),
            OpKind::EwMul | OpKind::EwMin => estimate_ew_mul(a, inputs[1]),
            OpKind::Transpose => estimate_transpose(a),
            OpKind::Reshape { .. } => estimate_reshape(a),
            OpKind::DiagV2M => estimate_diag_v2m(a),
            OpKind::DiagM2V => estimate_diag_extract(a),
            OpKind::Rbind => estimate_rbind(a, inputs[1]),
            OpKind::Cbind => estimate_cbind(a, inputs[1]),
            OpKind::Neq0 => estimate_neq_zero(a),
            OpKind::Eq0 => estimate_eq_zero(a),
        })
    }

    /// Derives the output sketch of `op` applied to `inputs` with the
    /// default configuration and a rounding generator seeded from it — the
    /// op-driven face of the twelve `propagate_*` functions.
    pub fn propagate(op: &OpKind, inputs: &[&MncSketch]) -> Result<MncSketch> {
        let cfg = MncConfig::default();
        let mut rng = SplitMix64::new(cfg.seed);
        Self::propagate_with(op, inputs, &cfg, &mut rng)
    }

    /// [`MncSketch::propagate`] under an explicit configuration and rounding
    /// generator (callers that propagate repeatedly thread one generator
    /// through for deterministic, unbiased rounding).
    pub fn propagate_with(
        op: &OpKind,
        inputs: &[&MncSketch],
        cfg: &MncConfig,
        rng: &mut SplitMix64,
    ) -> Result<MncSketch> {
        Self::propagate_in(op, inputs, cfg, rng, &mut ScratchArena::new())
    }

    /// [`MncSketch::propagate_with`] with caller-provided scratch: every
    /// output count vector and extended-count temporary is leased from
    /// `arena`, so repeated propagation over a DAG runs allocation-free in
    /// steady state. Bit-identical to the plain variant.
    pub fn propagate_in(
        op: &OpKind,
        inputs: &[&MncSketch],
        cfg: &MncConfig,
        rng: &mut SplitMix64,
        arena: &mut ScratchArena,
    ) -> Result<MncSketch> {
        validate(op, inputs)?;
        let a = inputs[0];
        Ok(match op {
            OpKind::MatMul => propagate_matmul_in(a, inputs[1], cfg, rng, arena),
            OpKind::EwAdd | OpKind::EwMax => propagate_ew_add_in(a, inputs[1], cfg, rng, arena),
            OpKind::EwMul | OpKind::EwMin => propagate_ew_mul_in(a, inputs[1], cfg, rng, arena),
            OpKind::Transpose => propagate_transpose(a),
            OpKind::Reshape { rows, cols } => {
                propagate_reshape_in(a, *rows, *cols, cfg, rng, arena)
            }
            OpKind::DiagV2M => propagate_diag_v2m(a),
            OpKind::DiagM2V => propagate_diag_extract_in(a, cfg, rng, arena),
            OpKind::Rbind => propagate_rbind_in(a, inputs[1], arena),
            OpKind::Cbind => propagate_cbind_in(a, inputs[1], arena),
            OpKind::Neq0 => propagate_neq_zero(a),
            OpKind::Eq0 => propagate_eq_zero_in(a, arena),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::estimate_matmul;
    use mnc_matrix::{gen, CsrMatrix};
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn op_output_shapes() {
        assert_eq!(
            OpKind::MatMul.output_shape(&[(2, 3), (3, 5)]).unwrap(),
            (2, 5)
        );
        assert!(OpKind::MatMul.output_shape(&[(2, 3), (4, 5)]).is_err());
        assert_eq!(OpKind::Transpose.output_shape(&[(2, 3)]).unwrap(), (3, 2));
        assert_eq!(
            OpKind::Reshape { rows: 6, cols: 1 }
                .output_shape(&[(2, 3)])
                .unwrap(),
            (6, 1)
        );
        assert!(OpKind::Reshape { rows: 4, cols: 2 }
            .output_shape(&[(2, 3)])
            .is_err());
        assert_eq!(
            OpKind::Rbind.output_shape(&[(2, 3), (4, 3)]).unwrap(),
            (6, 3)
        );
        assert_eq!(
            OpKind::Cbind.output_shape(&[(2, 3), (2, 4)]).unwrap(),
            (2, 7)
        );
        assert_eq!(OpKind::DiagV2M.output_shape(&[(5, 1)]).unwrap(), (5, 5));
        assert!(OpKind::DiagV2M.output_shape(&[(5, 2)]).is_err());
    }

    #[test]
    fn output_shape_rejects_wrong_arity_instead_of_panicking() {
        // Regression: binary ops used to index inputs[1] unchecked, so a
        // malformed DAG paniced instead of returning an error.
        for op in [
            OpKind::MatMul,
            OpKind::EwAdd,
            OpKind::EwMul,
            OpKind::EwMax,
            OpKind::EwMin,
            OpKind::Rbind,
            OpKind::Cbind,
        ] {
            assert!(
                matches!(
                    op.output_shape(&[(2, 3)]),
                    Err(EstimatorError::ArityMismatch {
                        expected: 2,
                        got: 1,
                        ..
                    })
                ),
                "{op:?} must reject a single input"
            );
            assert!(op.output_shape(&[]).is_err());
        }
        for op in [OpKind::Transpose, OpKind::Neq0, OpKind::DiagV2M] {
            assert!(op.output_shape(&[]).is_err(), "{op:?} must reject 0 inputs");
            assert!(
                op.output_shape(&[(3, 1), (3, 1)]).is_err(),
                "{op:?} must reject 2 inputs"
            );
        }
    }

    #[test]
    fn arity() {
        assert_eq!(OpKind::MatMul.arity(), 2);
        assert_eq!(OpKind::Transpose.arity(), 1);
        assert_eq!(OpKind::Eq0.arity(), 1);
        assert_eq!(OpKind::Rbind.arity(), 2);
    }

    #[test]
    fn error_display() {
        let e = EstimatorError::Unsupported {
            estimator: "LGraph",
            op: "EwMul".into(),
        };
        assert_eq!(e.to_string(), "LGraph does not support EwMul");
    }

    #[test]
    fn op_driven_estimate_matches_free_functions() {
        let mut r = rng(1);
        let a = gen::rand_uniform(&mut r, 30, 25, 0.15);
        let b = gen::rand_uniform(&mut r, 25, 20, 0.2);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let via_op = MncSketch::estimate(&OpKind::MatMul, &[&ha, &hb]).unwrap();
        assert_eq!(via_op, estimate_matmul(&ha, &hb));

        let c = gen::rand_uniform(&mut r, 30, 25, 0.3);
        let hc = MncSketch::build(&c);
        assert_eq!(
            MncSketch::estimate(&OpKind::EwAdd, &[&ha, &hc]).unwrap(),
            estimate_ew_add(&ha, &hc)
        );
        assert_eq!(
            MncSketch::estimate(&OpKind::Transpose, &[&ha]).unwrap(),
            a.sparsity()
        );
    }

    #[test]
    fn op_driven_propagate_matches_free_functions() {
        let mut r = rng(2);
        let a = gen::rand_uniform(&mut r, 20, 16, 0.2);
        let b = gen::rand_uniform(&mut r, 16, 12, 0.25);
        let (ha, hb) = (MncSketch::build(&a), MncSketch::build(&b));
        let cfg = MncConfig::default();
        let mut r1 = SplitMix64::new(cfg.seed);
        let mut r2 = SplitMix64::new(cfg.seed);
        let via_op =
            MncSketch::propagate_with(&OpKind::MatMul, &[&ha, &hb], &cfg, &mut r1).unwrap();
        let direct = crate::propagate::propagate_matmul(&ha, &hb, &cfg, &mut r2);
        assert_eq!(via_op, direct);
    }

    #[test]
    fn op_driven_api_errors_on_malformed_input() {
        let v = MncSketch::build(&CsrMatrix::identity(4));
        // Wrong arity.
        assert!(MncSketch::estimate(&OpKind::MatMul, &[&v]).is_err());
        assert!(MncSketch::propagate(&OpKind::EwAdd, &[&v]).is_err());
        // Incompatible shapes.
        let w = MncSketch::build(&CsrMatrix::zeros(3, 5));
        assert!(MncSketch::estimate(&OpKind::MatMul, &[&v, &w]).is_err());
        assert!(MncSketch::estimate(&OpKind::DiagV2M, &[&w]).is_err());
        assert!(MncSketch::propagate(&OpKind::DiagM2V, &[&w]).is_err());
    }
}
