//! Scalar reference implementations.
//!
//! These mirror the original (pre-kernel) inner loops of `mnc-core` and
//! `mnc-estimators` verbatim: sequential `f64` accumulation, per-op
//! `collect()` allocations, one word at a time. They are the ground truth
//! the bit-identity property tests compare against, and the baseline the
//! `kernel.*` rows of `BENCH_MNC.json` measure speedups over.

use crate::combine::VecMeta;
use crate::round::SplitMix64;

/// Sequential `f64` dot product of two count vectors — the original
/// `mnc_core::estimate::dot`. The loop-carried `f64` addition cannot be
/// reassociated by the compiler, so this never autovectorizes.
pub fn dot_u32(x: &[u32], y: &[u32]) -> f64 {
    x.iter().zip(y).map(|(&a, &b)| a as f64 * b as f64).sum()
}

/// Sequential `f64` sum of a count vector — the original `scale_counts`
/// prologue.
pub fn sum_u32(v: &[u32]) -> f64 {
    v.iter().map(|&c| c as f64).sum()
}

/// The original `mnc_core::estimate::vector_edm` with `f64` per-element
/// products.
pub fn vector_edm(x: &[u32], y: &[u32], p: f64) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    if p <= 0.0 {
        return 0.0;
    }
    let mut log_zero = 0.0f64;
    for (&xi, &yi) in x.iter().zip(y) {
        if xi == 0 || yi == 0 {
            continue;
        }
        let v = (xi as f64 * yi as f64) / p;
        if v >= 1.0 {
            return 1.0;
        }
        log_zero += (-v).ln_1p();
    }
    1.0 - log_zero.exp()
}

/// Allocating element-wise add — the original rbind/cbind combinator.
pub fn zip_add(x: &[u32], y: &[u32]) -> Vec<u32> {
    x.iter().zip(y).map(|(&a, &b)| a + b).collect()
}

/// Allocating saturating subtract — the original `sub_sat`.
pub fn sub_sat(x: &[u32], y: &[u32]) -> Vec<u32> {
    x.iter()
        .zip(y)
        .map(|(&a, &b)| a.saturating_sub(b))
        .collect()
}

/// Allocating complement `bound - c` — the original `propagate_eq_zero`
/// combinator.
pub fn complement(x: &[u32], bound: u32) -> Vec<u32> {
    x.iter().map(|&c| bound - c).collect()
}

/// Allocating element-wise minimum.
pub fn zip_min(x: &[u32], y: &[u32]) -> Vec<u32> {
    x.iter().zip(y).map(|(&a, &b)| a.min(b)).collect()
}

/// Allocating element-wise maximum.
pub fn zip_max(x: &[u32], y: &[u32]) -> Vec<u32> {
    x.iter().zip(y).map(|(&a, &b)| a.max(b)).collect()
}

/// Allocating scale-and-round — the original `scale_counts`, with the
/// rounding decision injected so the caller controls the RNG.
pub fn scale_round(
    counts: &[u32],
    target: f64,
    cap: u64,
    mut round: impl FnMut(f64) -> u64,
) -> Vec<u32> {
    let sum: f64 = sum_u32(counts);
    if sum <= 0.0 || target <= 0.0 {
        return vec![0; counts.len()];
    }
    let factor = target / sum;
    counts
        .iter()
        .map(|&c| {
            if c == 0 {
                0
            } else {
                round(c as f64 * factor).min(cap) as u32
            }
        })
        .collect()
}

/// Probabilistic rounding as a sequential generator draws it — the
/// original `SplitMix64::prob_round`: libm `floor`, and a draw only when
/// the fraction is positive.
pub fn prob_round(rng: &mut SplitMix64, x: f64) -> u64 {
    if x <= 0.0 {
        return 0;
    }
    let floor = x.floor();
    let frac = x - floor;
    let up = frac > 0.0 && rng.next_f64() < frac;
    floor as u64 + u64::from(up)
}

/// One-word-at-a-time popcount — the original `count_ones` scan.
pub fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| w.count_ones() as u64).sum()
}

/// Word-at-a-time OR — the original `bool_mm` inner loop body.
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

/// Separate-pass metadata scan — the original `compute_meta` loop over one
/// count vector.
pub fn meta_scan(v: &[u32], half: u32) -> VecMeta {
    let mut meta = VecMeta::default();
    for &c in v {
        meta.sum += c as u64;
        meta.max = meta.max.max(c);
        meta.nonempty += usize::from(c > 0);
        meta.eq1 += usize::from(c == 1);
        meta.over_half += usize::from(c > half);
    }
    meta
}
