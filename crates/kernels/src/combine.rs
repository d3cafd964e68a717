//! Fused count-vector combinators.
//!
//! Each combinator writes into a caller-provided buffer (typically leased
//! from a [`crate::ScratchArena`]) instead of `collect()`ing a fresh `Vec`,
//! and recomputes the per-vector summary statistics **in the same pass** —
//! the output never needs the separate metadata scan `compute_meta` used to
//! perform. The exception is [`scale_round_into`], whose rounding loop runs
//! faster alone, followed by one vectorized [`meta_scan`].

use crate::dot::sum_u32;
use crate::round::{prob_round_step, splitmix64, Rounding, GAMMA};

/// Single-pass summary of one count vector: exactly the per-vector half of
/// `mnc_core`'s `SketchMeta` (Section 3.1 summary statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VecMeta {
    /// `Σ v` — total count.
    pub sum: u64,
    /// `max(v)`.
    pub max: u32,
    /// `|v > 0|` — non-empty entries.
    pub nonempty: usize,
    /// `|v = 1|` — entries with exactly one non-zero.
    pub eq1: usize,
    /// `|v > half|` — entries above the half-full threshold.
    pub over_half: usize,
}

impl VecMeta {
    #[inline]
    pub(crate) fn accum(&mut self, v: u32, half: u32) {
        self.sum += v as u64;
        self.max = self.max.max(v);
        self.nonempty += usize::from(v > 0);
        self.eq1 += usize::from(v == 1);
        self.over_half += usize::from(v > half);
    }
}

/// Scans an existing vector — the kernel counterpart of the `compute_meta`
/// loop, shared by sketch construction. Dispatches to the AVX2 form
/// ([`crate::simd`]) where available; all statistics are integer
/// sums/maxima/counts, so any evaluation order is exact.
pub fn meta_scan(v: &[u32], half: u32) -> VecMeta {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::meta_scan(v, half) };
    }
    meta_scan_portable(v, half)
}

/// The portable scalar [`meta_scan`] body (dispatch fallback).
pub fn meta_scan_portable(v: &[u32], half: u32) -> VecMeta {
    let mut meta = VecMeta::default();
    for &c in v {
        meta.accum(c, half);
    }
    meta
}

/// `out = x + y` element-wise, with fused metadata (threshold `half`).
pub fn zip_add_into(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::zip_add_into(x, y, half, out) };
    }
    zip_add_into_portable(x, y, half, out)
}

/// The portable scalar [`zip_add_into`] body (dispatch fallback).
pub fn zip_add_into_portable(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    debug_assert_eq!(x.len(), y.len());
    out.clear();
    let mut meta = VecMeta::default();
    out.extend(x.iter().zip(y).map(|(&a, &b)| {
        let v = a + b;
        meta.accum(v, half);
        v
    }));
    meta
}

/// `out = concat(x, y)`, with fused metadata — the rbind/cbind
/// concatenation half.
pub fn concat_meta_into(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    out.clear();
    out.reserve(x.len() + y.len());
    out.extend_from_slice(x);
    out.extend_from_slice(y);
    meta_scan(out, half)
}

/// `out = x ⊖ y` (saturating subtract) — temporaries of the extended-count
/// estimator, no metadata needed.
pub fn sub_sat_into(x: &[u32], y: &[u32], out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::sub_sat_into(x, y, out) };
    }
    sub_sat_into_portable(x, y, out)
}

/// The portable scalar [`sub_sat_into`] body (dispatch fallback).
pub fn sub_sat_into_portable(x: &[u32], y: &[u32], out: &mut Vec<u32>) {
    debug_assert_eq!(x.len(), y.len());
    out.clear();
    out.extend(x.iter().zip(y).map(|(&a, &b)| a.saturating_sub(b)));
}

/// `out = bound - x` element-wise, with fused metadata — the `A == 0`
/// complement rule (Eq. 14). Requires `x[i] <= bound` (counts never exceed
/// the opposite dimension), matching the original unchecked subtraction.
pub fn complement_into(x: &[u32], bound: u32, half: u32, out: &mut Vec<u32>) -> VecMeta {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::complement_into(x, bound, half, out) };
    }
    complement_into_portable(x, bound, half, out)
}

/// The portable scalar [`complement_into`] body (dispatch fallback).
pub fn complement_into_portable(x: &[u32], bound: u32, half: u32, out: &mut Vec<u32>) -> VecMeta {
    out.clear();
    let mut meta = VecMeta::default();
    out.extend(x.iter().map(|&c| {
        let v = bound - c;
        meta.accum(v, half);
        v
    }));
    meta
}

/// `out = min(x, y)` element-wise, with fused metadata.
pub fn zip_min_into(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::zip_min_into(x, y, half, out) };
    }
    zip_min_into_portable(x, y, half, out)
}

/// The portable scalar [`zip_min_into`] body (dispatch fallback).
pub fn zip_min_into_portable(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    debug_assert_eq!(x.len(), y.len());
    out.clear();
    let mut meta = VecMeta::default();
    out.extend(x.iter().zip(y).map(|(&a, &b)| {
        let v = a.min(b);
        meta.accum(v, half);
        v
    }));
    meta
}

/// `out = max(x, y)` element-wise, with fused metadata.
pub fn zip_max_into(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        return unsafe { crate::simd::zip_max_into(x, y, half, out) };
    }
    zip_max_into_portable(x, y, half, out)
}

/// The portable scalar [`zip_max_into`] body (dispatch fallback).
pub fn zip_max_into_portable(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
    debug_assert_eq!(x.len(), y.len());
    out.clear();
    let mut meta = VecMeta::default();
    out.extend(x.iter().zip(y).map(|(&a, &b)| {
        let v = a.max(b);
        meta.accum(v, half);
        v
    }));
    meta
}

/// Scales `counts` to sum to `target`, rounding each entry as `rounding`
/// says and capping at `cap` — the propagation scaling rule of Section
/// 3.3, with the metadata of the output.
///
/// Bit-identity with [`crate::scalar::scale_round`] rounding through
/// [`SplitMix64::prob_round`](crate::SplitMix64::prob_round) (or `x.round()`): the integer sum equals the
/// sequential `f64` sum exactly (counts sum below `2^53`), the per-element
/// value `round(c · factor).min(cap) as u32` is the reference's, and zero
/// entries consume **no draw**. The probabilistic arm is branch-free: a
/// zero entry scales to `0.0`, which has no fractional part, and draws are
/// counter-indexed ([`crate::round`]) — draw `k` is `splitmix64(s + k·γ)`,
/// so the generator state stays in a register and the generator is left at
/// `s + k·γ`, where the sequential draws would have left it. The metadata
/// comes from one [`meta_scan`] after the loop.
pub fn scale_round_into(
    counts: &[u32],
    target: f64,
    cap: u64,
    half: u32,
    rounding: Rounding<'_>,
    out: &mut Vec<u32>,
) -> VecMeta {
    out.clear();
    out.resize(counts.len(), 0);
    let sum = sum_u32(counts);
    if sum == 0 || target <= 0.0 {
        return VecMeta::default();
    }
    let factor = target / sum as f64;
    match rounding {
        Rounding::Nearest => {
            for (o, &c) in out.iter_mut().zip(counts) {
                *o = ((c as f64 * factor).round() as u64).min(cap) as u32;
            }
        }
        Rounding::Probabilistic(rng) => {
            rng.state = prob_round_scaled(counts, factor, cap, rng.state, out);
        }
    }
    meta_scan(out, half)
}

/// Dispatches the counter-indexed rounding loop: the AVX2 form where
/// available and the cap fits in `u32` (always, for count vectors), the
/// portable body otherwise.
fn prob_round_scaled(counts: &[u32], factor: f64, cap: u64, state: u64, out: &mut [u32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        if let Ok(cap) = u32::try_from(cap) {
            // SAFETY: AVX2 is available (checked above).
            return unsafe { crate::simd::prob_round_scaled(counts, factor, cap, state, out) };
        }
    }
    prob_round_scaled_portable(counts, factor, cap, state, out)
}

/// The portable counter-indexed rounding loop (dispatch fallback): rounds
/// each `c · factor` by the rule of [`SplitMix64::prob_round`](crate::SplitMix64::prob_round), capped at
/// `cap`, into `out`, drawing from a generator in state `state`, and
/// returns the generator state after the draws. A plain loop with the
/// counter in a register — not `extend` with a capturing closure, whose
/// captured counter the output stores might alias.
pub fn prob_round_scaled_portable(
    counts: &[u32],
    factor: f64,
    cap: u64,
    state: u64,
    out: &mut [u32],
) -> u64 {
    debug_assert_eq!(counts.len(), out.len());
    let mut k = 0u64;
    for (o, &c) in out.iter_mut().zip(counts) {
        let z = splitmix64(state.wrapping_add(k.wrapping_mul(GAMMA)));
        let (v, drew) = prob_round_step(c as f64 * factor, z);
        k += drew;
        *o = v.min(cap) as u32;
    }
    state.wrapping_add(k.wrapping_mul(GAMMA))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scalar, SplitMix64};

    #[test]
    fn fused_meta_equals_separate_scan() {
        let x: Vec<u32> = (0..53).map(|i| (i * 5) % 17).collect();
        let y: Vec<u32> = (0..53).map(|i| (i * 3 + 1) % 11).collect();
        let mut out = Vec::new();
        let meta = zip_add_into(&x, &y, 8, &mut out);
        assert_eq!(out, scalar::zip_add(&x, &y));
        assert_eq!(meta, scalar::meta_scan(&out, 8));
        assert_eq!(meta, meta_scan(&out, 8));
    }

    #[test]
    fn concat_covers_both_inputs() {
        let mut out = Vec::new();
        let meta = concat_meta_into(&[1, 0, 2], &[3, 1], 1, &mut out);
        assert_eq!(out, vec![1, 0, 2, 3, 1]);
        assert_eq!(meta.sum, 7);
        assert_eq!(meta.nonempty, 4);
        assert_eq!(meta.eq1, 2);
        assert_eq!(meta.over_half, 2);
    }

    #[test]
    fn sub_sat_and_complement_match_scalar() {
        let x = [5u32, 2, 9, 0];
        let y = [3u32, 4, 9, 1];
        let mut out = Vec::new();
        sub_sat_into(&x, &y, &mut out);
        assert_eq!(out, scalar::sub_sat(&x, &y));
        let meta = complement_into(&x, 10, 5, &mut out);
        assert_eq!(out, scalar::complement(&x, 10));
        assert_eq!(meta, scalar::meta_scan(&out, 5));
    }

    #[test]
    fn min_max_match_scalar() {
        let x = [5u32, 2, 9, 0];
        let y = [3u32, 4, 9, 1];
        let mut out = Vec::new();
        zip_min_into(&x, &y, 3, &mut out);
        assert_eq!(out, scalar::zip_min(&x, &y));
        zip_max_into(&x, &y, 3, &mut out);
        assert_eq!(out, scalar::zip_max(&x, &y));
    }

    #[test]
    fn scale_round_skips_zeros_without_drawing() {
        let counts = [0u32, 3, 0, 7, 1];
        let mut g = SplitMix64::new(9);
        let mut g2 = g.clone();
        let mut out = Vec::new();
        let meta = scale_round_into(
            &counts,
            5.5,
            4,
            2,
            Rounding::Probabilistic(&mut g),
            &mut out,
        );
        let mut draws = 0;
        let reference = scalar::scale_round(&counts, 5.5, 4, |x| {
            draws += 1;
            g2.prob_round(x)
        });
        assert_eq!(out, reference);
        assert_eq!(draws, 3, "zero counts must not reach the rounding rule");
        assert_eq!(g, g2);
        assert_eq!(meta, scalar::meta_scan(&out, 2));
    }

    #[test]
    fn scale_round_zero_sum_or_target_is_all_zeros() {
        let mut g = SplitMix64::new(1);
        let mut out = vec![9u32; 3];
        let meta = scale_round_into(
            &[0, 0, 0],
            5.0,
            4,
            1,
            Rounding::Probabilistic(&mut g),
            &mut out,
        );
        assert_eq!(out, vec![0, 0, 0]);
        assert_eq!(meta, VecMeta::default());
        let meta = scale_round_into(
            &[1, 2],
            0.0,
            4,
            1,
            Rounding::Probabilistic(&mut g),
            &mut out,
        );
        assert_eq!(out, vec![0, 0]);
        assert_eq!(meta, VecMeta::default());
        assert_eq!(g, SplitMix64::new(1), "no draws");
    }
}
