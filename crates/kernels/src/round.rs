//! The SplitMix64 generator behind probabilistic rounding, and the one
//! per-entry rounding step shared by [`SplitMix64::prob_round`] and the
//! [`scale_round_into`](crate::scale_round_into) kernel.
//!
//! ## Counter-indexed draws
//!
//! SplitMix64's state advances by a constant `γ` per draw, so draw
//! `k` of a generator in state `s` is the stateless hash
//! `splitmix64(s + k·γ)`. A loop that rounds many entries therefore needs no
//! generator state in memory and no data-dependent branch: it hashes
//! `s + k·γ` for every entry, lets the entry use the draw only when it has
//! a fractional part, and advances the counter by `k += drew`. Entries
//! without a fractional part (zeros, integers) consume no draw, exactly as
//! in the sequential generator, and the final state `s + k·γ` is the one
//! the sequential generator would have reached — so the counter-indexed
//! loop is bit-identical to calling [`SplitMix64::prob_round`] per entry,
//! output and generator state alike.

/// SplitMix64's state increment (the golden-ratio gamma).
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// `2^53`: every `f64` at or above it is an integer.
const TWO_POW_53: f64 = (1u64 << 53) as f64;

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

/// The uniform `f64` in `[0, 1)` that a raw 64-bit draw `z` stands for
/// (53-bit mantissa construction). The shifted value is below `2^53`, so
/// the cheaper signed conversion is exact.
#[inline(always)]
fn unit_f64(z: u64) -> f64 {
    ((z >> 11) as i64) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// One probabilistic-rounding step: rounds `x` up with probability
/// `x - floor(x)`, deciding with the raw draw `z`. Returns the rounded
/// value and whether the entry *consumed* the draw (`1`) or not (`0`).
///
/// Exact for every `f64`, branch-free:
/// - `0 ≤ x < 2^53` with a fractional part draws; `x as u64` is its floor
///   and `x - floor` its exact fraction.
/// - Integers, and every `x ≥ 2^53` (all integers), round to themselves
///   (saturating at `u64::MAX`) and do not draw.
/// - Zero, negatives and NaN round to `0` and do not draw.
#[inline(always)]
pub(crate) fn prob_round_step(x: f64, z: u64) -> (u64, u64) {
    let floor = x as u64;
    let frac = x - floor as f64;
    let draws = (frac > 0.0) & (x < TWO_POW_53);
    let up = draws & (unit_f64(z) < frac);
    (floor + u64::from(up), u64::from(draws))
}

/// SplitMix64: a tiny, high-quality, dependency-free PRNG.
///
/// Used only for rounding decisions. Every propagation seeds a fresh one
/// from its own inputs (`MncSketch::propagate_in`), so no generator state
/// outlives a call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    pub(crate) state: u64,
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
        unit_f64(self.next_u64())
    }

    /// Probabilistic rounding: returns `floor(x)` or `ceil(x)` such that the
    /// expectation equals `x`. Negative inputs and NaN clamp to zero (counts
    /// cannot be negative). Consumes a draw only when `x` has a fractional
    /// part: zero, integers and every `x ≥ 2^53` draw nothing.
    #[inline]
    pub fn prob_round(&mut self, x: f64) -> u64 {
        let (v, drew) = prob_round_step(x, splitmix64(self.state));
        self.state = self.state.wrapping_add(drew.wrapping_mul(GAMMA));
        v
    }
}

/// How [`scale_round_into`](crate::scale_round_into) rounds each scaled
/// count.
#[derive(Debug)]
pub enum Rounding<'a> {
    /// Deterministic nearest-integer rounding (`x.round()`, ties away from
    /// zero; negatives and NaN to `0`).
    Nearest,
    /// Unbiased probabilistic rounding drawing from the generator, which is
    /// left where per-entry [`SplitMix64::prob_round`] calls would leave it.
    Probabilistic(&'a mut SplitMix64),
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
        assert_eq!(rng, SplitMix64::new(1), "no fraction, no draw");
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
    fn draw_k_is_the_hash_of_the_advanced_state() {
        let seed = 0xDEAD_BEEF;
        let mut g = SplitMix64::new(seed);
        for k in 0..64u64 {
            assert_eq!(
                g.next_u64(),
                splitmix64(seed.wrapping_add(k.wrapping_mul(GAMMA)))
            );
        }
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
