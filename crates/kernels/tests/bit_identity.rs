//! Property tests: every kernel is bit-identical to its scalar reference.
//!
//! CI runs these in debug **and** `--release` — autovectorization only
//! happens in release builds, so the release run is the one that would
//! catch a kernel whose vectorized evaluation order drifts.

use proptest::prelude::*;

use mnc_kernels::{scalar, Rounding, ScratchArena, SplitMix64, VecMeta};

/// Deterministic vector generator (the vendored proptest subset has no
/// `collection::vec` strategy): values in `0..=max`, so proptest shrinks
/// only over `(len, seed, max)`.
fn gen_vec(seed: u64, len: usize, max: u32) -> Vec<u32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((s >> 33) as u32) % (max + 1)
        })
        .collect()
}

fn gen_words(seed: u64, len: usize) -> Vec<u64> {
    let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
    (0..len)
        .map(|_| {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s
        })
        .collect()
}

/// [`gen_vec`] with about `zero_pct` percent of the entries zeroed (all of
/// them at 100): propagated sketches of sparse matrices are mostly zero,
/// and zeros must not consume a rounding draw.
fn sparse_vec(seed: u64, len: usize, max: u32, zero_pct: u32) -> Vec<u32> {
    let mask = gen_vec(seed ^ 0x5A5A, len, 99);
    gen_vec(seed, len, max)
        .into_iter()
        .zip(mask)
        .map(|(v, m)| if m < zero_pct { 0 } else { v })
        .collect()
}

/// `(target, cap)` for one scale-and-round case class, `t ∈ [0, 1)`:
/// target 0; an ordinary target; targets up to `1e20`; a target that puts
/// the largest `c · factor` within a factor two of `2^53` (uncapped, so
/// values straddling `2^53` reach the output); scaling down below the
/// current sum (mostly fractional entries below one); and caps of 1–4 that
/// most entries hit.
fn scale_case(counts: &[u32], class: u32, t: f64, cap: u64) -> (f64, u64) {
    let sum: u64 = counts.iter().map(|&c| c as u64).sum();
    let top = counts.iter().copied().max().unwrap_or(0).max(1) as f64;
    match class {
        0 => (0.0, cap),
        1 => (t * 1e6, cap),
        2 => (10f64.powf(20.0 * t), cap),
        3 => (
            (1u64 << 53) as f64 * sum.max(1) as f64 / top * (0.5 + t),
            u64::MAX,
        ),
        4 => (t * sum as f64, cap),
        _ => (t * 1e6, 1 + cap % 4),
    }
}

/// An `f64` from one of the rounding rule's edge classes: zero, negative
/// zero, subnormals, integers, values straddling `2^52` and `2^53` in
/// half-steps, `1e20`, negatives, NaN and infinity, and ordinary values.
fn special_f64(class: u32, bits: u64) -> f64 {
    let near = |base: u64| {
        let offset = (bits % 17) as f64 * 0.5 - 4.0;
        (1u64 << base) as f64 + offset
    };
    match class {
        0 => {
            if bits & 1 == 0 {
                0.0
            } else {
                -0.0
            }
        }
        1 => f64::from_bits(bits & ((1u64 << 52) - 1)),
        2 => (bits % (1 << 40)) as f64,
        3 => near(52),
        4 => near(53),
        5 => 1e20 * (1.0 + (bits % 8) as f64),
        6 => -((bits >> 11) as f64) / 1e6,
        7 => {
            if bits & 1 == 0 {
                f64::NAN
            } else {
                f64::INFINITY
            }
        }
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64 * 1e6,
    }
}

/// `(len, seed, max)` with values small enough that every sequential `f64`
/// partial sum of products is an exact integer (`len · max² < 2^53`), the
/// regime where the scalar reference itself is exact.
fn params() -> impl Strategy<Value = (usize, u64, u32)> {
    (0usize..1500, any::<u64>(), 1u32..100_000)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dot_is_bit_identical((len, seed, max) in params()) {
        let x = gen_vec(seed, len, max);
        let y = gen_vec(seed ^ 1, len, max);
        prop_assert_eq!(
            mnc_kernels::dot_u32(&x, &y).to_bits(),
            scalar::dot_u32(&x, &y).to_bits()
        );
    }

    #[test]
    fn sum_is_bit_identical((len, seed, max) in params()) {
        let v = gen_vec(seed, len, max);
        prop_assert_eq!(
            (mnc_kernels::sum_u32(&v) as f64).to_bits(),
            scalar::sum_u32(&v).to_bits()
        );
    }

    #[test]
    fn vector_edm_is_bit_identical((len, seed, max) in params()) {
        let x = gen_vec(seed, len, max);
        let y = gen_vec(seed ^ 2, len, max);
        // Several magnitudes of p: tiny p exercises the early return,
        // huge p the log-space accumulation.
        for p in [0.5, 1e3, 1e9, 1e15] {
            prop_assert_eq!(
                mnc_kernels::vector_edm(&x, &y, p).to_bits(),
                scalar::vector_edm(&x, &y, p).to_bits()
            );
        }
    }

    #[test]
    fn combinators_match_scalar_and_fused_meta((len, seed, max) in params()) {
        let x = gen_vec(seed, len, max);
        let y = gen_vec(seed ^ 3, len, max);
        let half = max / 2;
        let mut arena = ScratchArena::new();
        let mut out = arena.take_u32(0);

        let meta = mnc_kernels::zip_add_into(&x, &y, half, &mut out);
        prop_assert_eq!(&out, &scalar::zip_add(&x, &y));
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));

        let meta = mnc_kernels::zip_min_into(&x, &y, half, &mut out);
        prop_assert_eq!(&out, &scalar::zip_min(&x, &y));
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));

        let meta = mnc_kernels::zip_max_into(&x, &y, half, &mut out);
        prop_assert_eq!(&out, &scalar::zip_max(&x, &y));
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));

        mnc_kernels::sub_sat_into(&x, &y, &mut out);
        prop_assert_eq!(&out, &scalar::sub_sat(&x, &y));

        let meta = mnc_kernels::complement_into(&x, max, half, &mut out);
        prop_assert_eq!(&out, &scalar::complement(&x, max));
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));

        let meta = mnc_kernels::concat_meta_into(&x, &y, half, &mut out);
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));
        prop_assert_eq!(&out[..len], &x[..]);
        prop_assert_eq!(&out[len..], &y[..]);
        arena.put_u32(out);
    }

    #[test]
    fn prob_scale_round_matches_scalar_draw_for_draw(
        (len, seed, max) in params(),
        (zero_pct, class, t) in (0u32..=100, 0u32..6, 0.0f64..1.0),
        cap in 1u64..2000,
    ) {
        let counts = sparse_vec(seed, len, max, zero_pct);
        let (target, cap) = scale_case(&counts, class, t, cap);
        let half = max / 2;
        let mut g = SplitMix64::new(seed ^ 0xA5A5);
        let (mut g_step, mut g_libm) = (g.clone(), g.clone());
        let mut out = Vec::new();
        let meta = mnc_kernels::scale_round_into(
            &counts, target, cap, half, Rounding::Probabilistic(&mut g), &mut out,
        );
        // The sequential reference, once through the shared per-entry step
        // and once through the original libm-`floor` formula.
        let via_step = scalar::scale_round(&counts, target, cap, |x| g_step.prob_round(x));
        let via_libm =
            scalar::scale_round(&counts, target, cap, |x| scalar::prob_round(&mut g_libm, x));
        prop_assert_eq!(&out, &via_step);
        prop_assert_eq!(&out, &via_libm);
        prop_assert_eq!(meta, scalar::meta_scan(&out, half));
        prop_assert_eq!(&g, &g_step, "generator state diverged from per-entry draws");
        prop_assert_eq!(&g, &g_libm, "generator state diverged from the libm formula");
        // The portable loop (the dispatch fallback) draws the same bits.
        let sum: u64 = counts.iter().map(|&c| c as u64).sum();
        if sum > 0 && target > 0.0 {
            let state = seed ^ 0xA5A5;
            let mut portable = vec![0; counts.len()];
            let end = mnc_kernels::combine::prob_round_scaled_portable(
                &counts, target / sum as f64, cap, state, &mut portable,
            );
            prop_assert_eq!(&portable, &out);
            prop_assert_eq!(SplitMix64::new(end), g, "portable loop left the generator elsewhere");
        }
    }

    #[test]
    fn nearest_scale_round_matches_scalar(
        (len, seed, max) in params(),
        (zero_pct, class, t) in (0u32..=100, 0u32..6, 0.0f64..1.0),
        cap in 1u64..2000,
    ) {
        let counts = sparse_vec(seed, len, max, zero_pct);
        let (target, cap) = scale_case(&counts, class, t, cap);
        let mut out = Vec::new();
        let meta = mnc_kernels::scale_round_into(
            &counts, target, cap, max / 2, Rounding::Nearest, &mut out,
        );
        let reference = scalar::scale_round(&counts, target, cap, |x| {
            if x <= 0.0 { 0 } else { x.round() as u64 }
        });
        prop_assert_eq!(&out, &reference);
        prop_assert_eq!(meta, scalar::meta_scan(&out, max / 2));
    }

    #[test]
    fn prob_round_matches_the_libm_formula(
        classes in (0u32..10, 0u32..10, 0u32..10, 0u32..10),
        bits in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        seed in any::<u64>(),
    ) {
        let xs = [
            special_f64(classes.0, bits.0),
            special_f64(classes.1, bits.1),
            special_f64(classes.2, bits.2),
            special_f64(classes.3, bits.3),
        ];
        let mut g = SplitMix64::new(seed);
        let mut reference = g.clone();
        for x in xs {
            let got = g.prob_round(x);
            let want = scalar::prob_round(&mut reference, x);
            prop_assert_eq!(got, want, "x = {:e}", x);
            prop_assert_eq!(&g, &reference, "generator state diverged at x = {:e}", x);
        }
    }

    #[test]
    fn word_kernels_match_scalar((len, seed, _max) in params()) {
        let len = len % 200;
        let a = gen_words(seed, len);
        let b = gen_words(seed ^ 4, len);
        prop_assert_eq!(mnc_kernels::popcount(&a), scalar::popcount(&a));

        let mut dst_k = a.clone();
        let mut dst_s = a.clone();
        mnc_kernels::or_into(&mut dst_k, &b);
        scalar::or_into(&mut dst_s, &b);
        prop_assert_eq!(&dst_k, &dst_s);

        let mut anded = a.clone();
        mnc_kernels::and_into(&mut anded, &b);
        prop_assert_eq!(
            mnc_kernels::and_popcount(&a, &b),
            scalar::popcount(&anded)
        );

        let (c, d) = (gen_words(seed ^ 5, len), gen_words(seed ^ 6, len));
        let mut dst4 = a.clone();
        mnc_kernels::or4_into(&mut dst4, &b, &c, &d, &a);
        let mut expect = a.clone();
        for src in [&b, &c, &d, &a] {
            scalar::or_into(&mut expect, src);
        }
        prop_assert_eq!(&dst4, &expect);
    }

    #[test]
    fn meta_scan_matches_scalar((len, seed, max) in params()) {
        let v = gen_vec(seed, len, max);
        for half in [0, 1, max / 2, max] {
            let got: VecMeta = mnc_kernels::meta_scan(&v, half);
            prop_assert_eq!(got, scalar::meta_scan(&v, half));
        }
    }
}
