//! Probabilistic rounding and the tiny generator backing it.
//!
//! Section 3.3: deterministic rounding of scaled count vectors introduces
//! systematic bias for ultra-sparse matrices (e.g. every entry `0.4` rounds
//! to `0`, predicting an empty intermediate). Probabilistic rounding —
//! round `x` up with probability `x - floor(x)` — is unbiased with minimal
//! variance.

/// SplitMix64's state increment (the golden-ratio gamma).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a stateless hash: advances `x` by the gamma and
/// applies the output finaliser, so `splitmix64(s)` is the first output of
/// `SplitMix64::new(s)`. A bijection on `u64` with full avalanche, and
/// stable across Rust versions (unlike `std`'s `DefaultHasher`).
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG.
///
/// Used only for rounding decisions. Every propagation seeds a fresh one
/// from its own inputs (`MncSketch::propagate_in`), so no generator state
/// outlives a call.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        z
    }

    /// Uniform `f64` in `[0, 1)` (53-bit mantissa construction).
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Probabilistic rounding: returns `floor(x)` or `ceil(x)` such that the
    /// expectation equals `x`. Negative inputs clamp to zero (counts cannot
    /// be negative).
    #[inline]
    pub fn prob_round(&mut self, x: f64) -> u64 {
        if x <= 0.0 {
            return 0;
        }
        let floor = x.floor();
        let frac = x - floor;
        let up = frac > 0.0 && self.next_f64() < frac;
        floor as u64 + u64::from(up)
    }
}

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
    fn prob_round_integer_is_exact() {
        let mut rng = SplitMix64::new(1);
        assert_eq!(rng.prob_round(3.0), 3);
        assert_eq!(rng.prob_round(0.0), 0);
        assert_eq!(rng.prob_round(-2.5), 0);
    }

    #[test]
    fn prob_round_is_unbiased() {
        let mut rng = SplitMix64::new(2);
        let n = 100_000;
        let sum: u64 = (0..n).map(|_| rng.prob_round(0.4)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 0.4).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn prob_round_within_one_of_input() {
        let mut rng = SplitMix64::new(3);
        for i in 0..1000 {
            let x = i as f64 * 0.37;
            let r = rng.prob_round(x) as f64;
            assert!(r == x.floor() || r == x.ceil(), "x={x} r={r}");
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(4);
        for _ in 0..1000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn deterministic_rounding_matches_round() {
        let mut rng = SplitMix64::new(5);
        assert_eq!(round_count(&mut rng, 0.4, false), 0);
        assert_eq!(round_count(&mut rng, 0.6, false), 1);
        assert_eq!(round_count(&mut rng, 2.0, false), 2);
    }

    #[test]
    fn stateless_hash_is_the_first_draw() {
        for seed in [0, 1, 0xC0FFEE, u64::MAX] {
            assert_eq!(splitmix64(seed), SplitMix64::new(seed).next_u64());
        }
        // The reference SplitMix64 sequence from seed 1234567.
        let mut g = SplitMix64::new(1_234_567);
        assert_eq!(g.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(g.next_u64(), 3_203_168_211_198_807_973);
    }

    #[test]
    fn sequences_are_reproducible() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
