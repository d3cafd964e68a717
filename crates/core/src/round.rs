//! Probabilistic rounding and the tiny generator backing it.
//!
//! Section 3.3: deterministic rounding of scaled count vectors introduces
//! systematic bias for ultra-sparse matrices (e.g. every entry `0.4` rounds
//! to `0`, predicting an empty intermediate). Probabilistic rounding —
//! round `x` up with probability `x - floor(x)` — is unbiased with minimal
//! variance.
//!
//! The generator ([`SplitMix64`], [`splitmix64`]) and the per-entry
//! rounding step live in [`mnc_kernels::round`] and are re-exported here:
//! the scale-and-round kernel draws from the same generator with
//! counter-indexed draws (draw `k` is `splitmix64(s + k·γ)`), so one
//! branch-free loop rounds a whole count vector and leaves the generator
//! exactly where per-entry [`SplitMix64::prob_round`] calls would.

pub use mnc_kernels::round::{splitmix64, Rounding, SplitMix64};

/// Rounds a scaled count to `u64` according to the configuration: unbiased
/// probabilistic rounding, or deterministic nearest-integer rounding.
#[inline]
pub fn round_count(rng: &mut SplitMix64, x: f64, probabilistic: bool) -> u64 {
    if probabilistic {
        rng.prob_round(x)
    } else if x <= 0.0 {
        0
    } else {
        x.round() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_rounding_matches_round() {
        let mut rng = SplitMix64::new(5);
        assert_eq!(round_count(&mut rng, 0.4, false), 0);
        assert_eq!(round_count(&mut rng, 0.6, false), 1);
        assert_eq!(round_count(&mut rng, 2.0, false), 2);
    }
}
