//! Property-based guarantee that observability is purely passive: attaching
//! a recorder to an estimation session (or wrapping an estimator in
//! `InstrumentedEstimator`) never changes any estimate, bit for bit.

use std::sync::Arc;

use proptest::prelude::*;
use rand::SeedableRng;

use mnc_estimators::{BitsetEstimator, InstrumentedEstimator, MncEstimator, OpKind};
use mnc_expr::{EstimationContext, ExprDag, NodeId, Recorder};
use mnc_matrix::{gen, CsrMatrix};

fn make(rows: usize, cols: usize, s: f64, seed: u64) -> Arc<CsrMatrix> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Arc::new(gen::rand_uniform(&mut rng, rows, cols, s))
}

/// A random expression over `k` square matrices of dimension `d`: fold the
/// leaves together with ops picked by `op_bits`, so every generated DAG is
/// shape-valid.
fn random_dag(d: usize, sparsities: &[f64], op_bits: u64, seed: u64) -> (ExprDag, NodeId) {
    let mut dag = ExprDag::new();
    let leaves: Vec<NodeId> = sparsities
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            let m = make(d, d, s, seed.wrapping_add(i as u64));
            dag.leaf(format!("L{i}"), m)
        })
        .collect();
    let mut acc = leaves[0];
    for (i, &l) in leaves[1..].iter().enumerate() {
        let op = match (op_bits >> (2 * i)) & 0b11 {
            0 => OpKind::MatMul,
            1 => OpKind::EwAdd,
            2 => OpKind::EwMul,
            _ => OpKind::EwMax,
        };
        acc = dag.op(op, &[acc, l]).expect("square shapes always agree");
    }
    (dag, acc)
}

// The vendored proptest stub has no `collection::vec`; draw up to five
// sparsities as a tuple and truncate to `k` leaves.
type Params = (usize, usize, (f64, f64, f64, f64, f64), u64, u64);

fn params() -> impl Strategy<Value = Params> {
    (
        4usize..40,
        2usize..6,
        (
            0.0f64..0.6,
            0.0f64..0.6,
            0.0f64..0.6,
            0.0f64..0.6,
            0.0f64..0.6,
        ),
        any::<u64>(),
        any::<u64>(),
    )
}

fn sparsity_vec(k: usize, s: (f64, f64, f64, f64, f64)) -> Vec<f64> {
    let all = [s.0, s.1, s.2, s.3, s.4];
    all[..k].to_vec()
}

/// Golden pin across build configurations: this fixed traced workload must
/// produce these exact bits in *every* build — in particular with and
/// without the `alloc-track` counting allocator (CI runs the test under
/// both feature sets). A differing value here means a feature changed an
/// estimate, which observability must never do.
#[test]
fn estimates_are_bit_stable_across_build_configurations() {
    let (dag, root) = random_dag(24, &[0.1, 0.3, 0.05], 0b0110, 7);
    let mut ctx = EstimationContext::new().with_recorder(Recorder::enabled());
    let traced = ctx
        .estimate_root(&MncEstimator::new(), &dag, root)
        .expect("estimate");
    assert_eq!(
        traced.to_bits(),
        0x3fb733fc139dea6cu64, // 0.09063697318007663
        "pinned estimate drifted (alloc-track={}): got {} = {:#018x}",
        mnc_obs::alloc::tracking_active(),
        traced,
        traced.to_bits()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Recorder on, recorder off, and no recorder at all produce
    /// bit-identical estimates. One `MncEstimator` serves all three
    /// sessions; its calls are pure, so any divergence would be the
    /// recorder's fault.
    #[test]
    fn tracing_never_changes_estimates((d, k, raw, op_bits, seed) in params()) {
        let sparsities = sparsity_vec(k, raw);
        let (dag, root) = random_dag(d, &sparsities, op_bits, seed);
        let est = MncEstimator::new();

        let mut plain_ctx = EstimationContext::new();
        let plain = plain_ctx
            .estimate_root(&est, &dag, root)
            .expect("plain estimate");

        let rec = Recorder::enabled();
        let mut traced_ctx = EstimationContext::new().with_recorder(rec.clone());
        let traced = traced_ctx
            .estimate_root(&est, &dag, root)
            .expect("traced estimate");

        let mut off_ctx = EstimationContext::new().with_recorder(Recorder::disabled());
        let off = off_ctx
            .estimate_root(&est, &dag, root)
            .expect("disabled-recorder estimate");

        prop_assert_eq!(plain.to_bits(), traced.to_bits(),
            "enabled recorder perturbed the estimate");
        prop_assert_eq!(plain.to_bits(), off.to_bits(),
            "disabled recorder perturbed the estimate");
        // The traced session must actually have observed the walk, and its
        // spans carry allocation deltas exactly when the build tracks them
        // (`--features mnc-obs/alloc-track`) — never otherwise.
        let spans = rec.spans();
        prop_assert!(!spans.is_empty(), "enabled recorder saw no spans");
        let tracked = mnc_obs::alloc::tracking_active();
        prop_assert!(
            spans.iter().all(|s| s.alloc_bytes.is_some() == tracked
                && s.alloc_net.is_some() == tracked),
            "span allocation stamping disagrees with the alloc-track feature"
        );
    }

    /// The counting global allocator is bit-invariant: estimates under a
    /// traced session match the plain session inside *this* build, whatever
    /// its feature set. Cross-build identity is pinned by
    /// `estimates_are_bit_stable_across_build_configurations` below.
    #[test]
    fn alloc_tracking_never_changes_estimates((d, k, raw, op_bits, seed) in params()) {
        let sparsities = sparsity_vec(k, raw);
        let (dag, root) = random_dag(d, &sparsities, op_bits, seed);
        let mut plain_ctx = EstimationContext::new();
        let plain = plain_ctx
            .estimate_root(&BitsetEstimator::default(), &dag, root)
            .expect("plain estimate");
        let mut traced_ctx = EstimationContext::new().with_recorder(Recorder::enabled());
        let traced = traced_ctx
            .estimate_root(&BitsetEstimator::default(), &dag, root)
            .expect("traced estimate");
        prop_assert_eq!(plain.to_bits(), traced.to_bits());
    }

    /// `InstrumentedEstimator` is transparent: wrapped and bare estimators
    /// agree bit for bit, with tracing on or off.
    #[test]
    fn instrumented_estimator_is_transparent((d, k, raw, op_bits, seed) in params()) {
        let sparsities = sparsity_vec(k, raw);
        let (dag, root) = random_dag(d, &sparsities, op_bits, seed);

        let mut bare_ctx = EstimationContext::new();
        let bare = bare_ctx
            .estimate_root(&BitsetEstimator::default(), &dag, root)
            .expect("bare estimate");

        for rec in [Recorder::enabled(), Recorder::disabled()] {
            let est = InstrumentedEstimator::new(BitsetEstimator::default(), rec);
            let mut ctx = EstimationContext::new();
            let wrapped = ctx.estimate_root(&est, &dag, root).expect("wrapped estimate");
            prop_assert_eq!(bare.to_bits(), wrapped.to_bits(),
                "InstrumentedEstimator changed the estimate");
        }
    }
}
