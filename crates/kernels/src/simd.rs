//! AVX2 specializations of the hot-path kernels, selected at runtime.
//!
//! Every function here is an *implementation detail* of the public kernels
//! in [`crate::dot`], [`crate::words`], and [`crate::combine`]: those entry
//! points probe [`enabled`] once per call (a cached atomic load inside
//! `is_x86_feature_detected!`) and fall back to the portable four-lane
//! bodies on non-x86_64 targets or pre-AVX2 hardware.
//!
//! ## Why the wide lanes stay bit-identical
//!
//! The portable kernels already accumulate `u32` products and sums in `u64`
//! lanes, where addition is associative — so widening from 4 scalar lanes to
//! 4×64-bit vector lanes (or 8×32-bit for the element-wise combinators)
//! cannot change the final integer, and the single `as f64` conversion at
//! the end is unchanged. Bitwise OR/AND/popcount are per-word and order-free.
//! The element-wise combinators (`zip_add` & co.) compute each output lane
//! independently with exact integer ops (`_mm256_add_epi32`,
//! `_mm256_max_epu32`, ...), and their fused [`VecMeta`](crate::VecMeta) statistics are
//! integer sums/maxima/counts — again order-free. Nothing here touches a
//! transcendental: `vector_edm` keeps its sequential scalar order upstream.
//! The one floating-point kernel, `prob_round_scaled`, evaluates the scalar
//! rounding step lane by lane with the same IEEE operations, and its draws
//! are counter-indexed, so lanes need no sequential generator.

#[cfg(target_arch = "x86_64")]
pub(crate) use x86::*;

/// True when the AVX2 paths may be taken on this machine. The detection
/// result is cached in a static by the standard library, so this is an
/// atomic load + branch after the first call.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use core::arch::x86_64::*;

    use crate::combine::VecMeta;
    use crate::round::GAMMA;

    /// Sums the four `u64` lanes of `v` (wrapping, matching `u64` addition).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, v);
        lanes[0]
            .wrapping_add(lanes[1])
            .wrapping_add(lanes[2])
            .wrapping_add(lanes[3])
    }

    /// `dot_u32` over 8 elements per iteration: even/odd 32-bit lanes are
    /// multiplied into 64-bit products (`_mm256_mul_epu32`) and accumulated
    /// in two independent `u64x4` registers.
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_u32(x: &[u32], y: &[u32]) -> f64 {
        let n = x.len().min(y.len());
        let chunks = n / 8;
        let mut acc_even = _mm256_setzero_si256();
        let mut acc_odd = _mm256_setzero_si256();
        for i in 0..chunks {
            let vx = _mm256_loadu_si256(x.as_ptr().add(i * 8) as *const __m256i);
            let vy = _mm256_loadu_si256(y.as_ptr().add(i * 8) as *const __m256i);
            acc_even = _mm256_add_epi64(acc_even, _mm256_mul_epu32(vx, vy));
            acc_odd = _mm256_add_epi64(
                acc_odd,
                _mm256_mul_epu32(_mm256_srli_epi64::<32>(vx), _mm256_srli_epi64::<32>(vy)),
            );
        }
        let mut total = hsum_epi64(_mm256_add_epi64(acc_even, acc_odd));
        for k in chunks * 8..n {
            total += *x.get_unchecked(k) as u64 * *y.get_unchecked(k) as u64;
        }
        total as f64
    }

    /// `sum_u32` with even/odd lane widening into two `u64x4` accumulators.
    #[target_feature(enable = "avx2")]
    pub unsafe fn sum_u32(v: &[u32]) -> u64 {
        let n = v.len();
        let chunks = n / 8;
        let mask32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let mut acc_even = _mm256_setzero_si256();
        let mut acc_odd = _mm256_setzero_si256();
        for i in 0..chunks {
            let w = _mm256_loadu_si256(v.as_ptr().add(i * 8) as *const __m256i);
            acc_even = _mm256_add_epi64(acc_even, _mm256_and_si256(w, mask32));
            acc_odd = _mm256_add_epi64(acc_odd, _mm256_srli_epi64::<32>(w));
        }
        let mut total = hsum_epi64(_mm256_add_epi64(acc_even, acc_odd));
        for k in chunks * 8..n {
            total += *v.get_unchecked(k) as u64;
        }
        total
    }

    /// Per-byte popcount of `v` via the classic nibble shuffle LUT; the
    /// byte counts are folded to four `u64` partials with `_mm256_sad_epu8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn popcnt_bytes(v: __m256i) -> __m256i {
        let lut = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
            3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16::<4>(v), low_mask);
        let cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(cnt, _mm256_setzero_si256())
    }

    /// Popcount over a `u64` word slice, 4 words per iteration.
    #[target_feature(enable = "avx2")]
    pub unsafe fn popcount(words: &[u64]) -> u64 {
        let chunks = words.len() / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let w = _mm256_loadu_si256(words.as_ptr().add(i * 4) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcnt_bytes(w));
        }
        let mut total = hsum_epi64(acc);
        for k in chunks * 4..words.len() {
            total += words.get_unchecked(k).count_ones() as u64;
        }
        total
    }

    /// Popcount of `a & b` without materializing the intersection.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_popcount(a: &[u64], b: &[u64]) -> u64 {
        let n = a.len().min(b.len());
        let chunks = n / 4;
        let mut acc = _mm256_setzero_si256();
        for i in 0..chunks {
            let wa = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let wb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            acc = _mm256_add_epi64(acc, popcnt_bytes(_mm256_and_si256(wa, wb)));
        }
        let mut total = hsum_epi64(acc);
        for k in chunks * 4..n {
            total += (a.get_unchecked(k) & b.get_unchecked(k)).count_ones() as u64;
        }
        total
    }

    /// `dst |= src`, 256 bits at a time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn or_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let chunks = n / 4;
        for i in 0..chunks {
            let p = dst.as_mut_ptr().add(i * 4) as *mut __m256i;
            let d = _mm256_loadu_si256(p as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i * 4) as *const __m256i);
            _mm256_storeu_si256(p, _mm256_or_si256(d, s));
        }
        for k in chunks * 4..n {
            *dst.get_unchecked_mut(k) |= src.get_unchecked(k);
        }
    }

    /// `dst &= src`, 256 bits at a time.
    #[target_feature(enable = "avx2")]
    pub unsafe fn and_into(dst: &mut [u64], src: &[u64]) {
        let n = dst.len().min(src.len());
        let chunks = n / 4;
        for i in 0..chunks {
            let p = dst.as_mut_ptr().add(i * 4) as *mut __m256i;
            let d = _mm256_loadu_si256(p as *const __m256i);
            let s = _mm256_loadu_si256(src.as_ptr().add(i * 4) as *const __m256i);
            _mm256_storeu_si256(p, _mm256_and_si256(d, s));
        }
        for k in chunks * 4..n {
            *dst.get_unchecked_mut(k) &= src.get_unchecked(k);
        }
    }

    /// `dst |= a | b | c | e`, 256 bits at a time (the `bool_mm` fast path).
    #[target_feature(enable = "avx2")]
    pub unsafe fn or4_into(dst: &mut [u64], a: &[u64], b: &[u64], c: &[u64], e: &[u64]) {
        let n = dst
            .len()
            .min(a.len())
            .min(b.len())
            .min(c.len())
            .min(e.len());
        let chunks = n / 4;
        for i in 0..chunks {
            let p = dst.as_mut_ptr().add(i * 4) as *mut __m256i;
            let d = _mm256_loadu_si256(p as *const __m256i);
            let wa = _mm256_loadu_si256(a.as_ptr().add(i * 4) as *const __m256i);
            let wb = _mm256_loadu_si256(b.as_ptr().add(i * 4) as *const __m256i);
            let wc = _mm256_loadu_si256(c.as_ptr().add(i * 4) as *const __m256i);
            let we = _mm256_loadu_si256(e.as_ptr().add(i * 4) as *const __m256i);
            let or = _mm256_or_si256(_mm256_or_si256(wa, wb), _mm256_or_si256(wc, we));
            _mm256_storeu_si256(p, _mm256_or_si256(d, or));
        }
        for k in chunks * 4..n {
            *dst.get_unchecked_mut(k) |= (a.get_unchecked(k) | b.get_unchecked(k))
                | (c.get_unchecked(k) | e.get_unchecked(k));
        }
    }

    /// Vectorized [`VecMeta`] accumulator: `u64` sums via even/odd widening,
    /// running `max` lanes, and compare-mask popcounts for the three
    /// predicate counters (`>0`, `==1`, `>half`; the unsigned `>` uses the
    /// usual sign-flip trick).
    struct MetaAcc {
        sum_even: __m256i,
        sum_odd: __m256i,
        max: __m256i,
        nonempty: usize,
        eq1: usize,
        over_half: usize,
        mask32: __m256i,
        one: __m256i,
        zero: __m256i,
        sign: __m256i,
        half_flipped: __m256i,
    }

    impl MetaAcc {
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn new(half: u32) -> Self {
            let sign = _mm256_set1_epi32(i32::MIN);
            MetaAcc {
                sum_even: _mm256_setzero_si256(),
                sum_odd: _mm256_setzero_si256(),
                max: _mm256_setzero_si256(),
                nonempty: 0,
                eq1: 0,
                over_half: 0,
                mask32: _mm256_set1_epi64x(0xFFFF_FFFF),
                one: _mm256_set1_epi32(1),
                zero: _mm256_setzero_si256(),
                sign,
                half_flipped: _mm256_xor_si256(_mm256_set1_epi32(half as i32), sign),
            }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn accum8(&mut self, v: __m256i) {
            self.sum_even = _mm256_add_epi64(self.sum_even, _mm256_and_si256(v, self.mask32));
            self.sum_odd = _mm256_add_epi64(self.sum_odd, _mm256_srli_epi64::<32>(v));
            self.max = _mm256_max_epu32(self.max, v);
            let zero_lanes =
                _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, self.zero))) as u32;
            self.nonempty += 8 - (zero_lanes & 0xff).count_ones() as usize;
            let one_lanes =
                _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, self.one))) as u32;
            self.eq1 += (one_lanes & 0xff).count_ones() as usize;
            let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(v, self.sign), self.half_flipped);
            let gt_lanes = _mm256_movemask_ps(_mm256_castsi256_ps(gt)) as u32;
            self.over_half += (gt_lanes & 0xff).count_ones() as usize;
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn finish(self) -> VecMeta {
            let mut max_lanes = [0u32; 8];
            _mm256_storeu_si256(max_lanes.as_mut_ptr() as *mut __m256i, self.max);
            VecMeta {
                sum: hsum_epi64(_mm256_add_epi64(self.sum_even, self.sum_odd)),
                max: max_lanes.iter().copied().max().unwrap_or(0),
                nonempty: self.nonempty,
                eq1: self.eq1,
                over_half: self.over_half,
            }
        }
    }

    /// Generates one binary element-wise combinator with fused metadata:
    /// `$vexpr` is the 8-lane vector form, `$sexpr` the scalar remainder.
    macro_rules! avx2_zip_meta {
        ($(#[$doc:meta])* $name:ident, |$va:ident, $vb:ident| $vexpr:expr, |$sa:ident, $sb:ident| $sexpr:expr) => {
            $(#[$doc])*
            #[target_feature(enable = "avx2")]
            pub unsafe fn $name(x: &[u32], y: &[u32], half: u32, out: &mut Vec<u32>) -> VecMeta {
                debug_assert_eq!(x.len(), y.len());
                let n = x.len().min(y.len());
                out.clear();
                out.resize(n, 0);
                let chunks = n / 8;
                let mut acc = MetaAcc::new(half);
                let dst = out.as_mut_ptr();
                for i in 0..chunks {
                    let $va = _mm256_loadu_si256(x.as_ptr().add(i * 8) as *const __m256i);
                    let $vb = _mm256_loadu_si256(y.as_ptr().add(i * 8) as *const __m256i);
                    let v = $vexpr;
                    acc.accum8(v);
                    _mm256_storeu_si256(dst.add(i * 8) as *mut __m256i, v);
                }
                let mut meta = acc.finish();
                for k in chunks * 8..n {
                    let $sa = *x.get_unchecked(k);
                    let $sb = *y.get_unchecked(k);
                    let v = $sexpr;
                    meta.accum(v, half);
                    *out.get_unchecked_mut(k) = v;
                }
                meta
            }
        };
    }

    avx2_zip_meta!(
        /// `out = x + y` with fused metadata.
        zip_add_into,
        |a, b| _mm256_add_epi32(a, b),
        |a, b| a.wrapping_add(b)
    );
    avx2_zip_meta!(
        /// `out = min(x, y)` with fused metadata.
        zip_min_into,
        |a, b| _mm256_min_epu32(a, b),
        |a, b| a.min(b)
    );
    avx2_zip_meta!(
        /// `out = max(x, y)` with fused metadata.
        zip_max_into,
        |a, b| _mm256_max_epu32(a, b),
        |a, b| a.max(b)
    );

    /// `out = x ⊖ y` (unsigned saturating subtract, `max(a, b) - b`), no
    /// metadata — mirrors [`crate::combine::sub_sat_into`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn sub_sat_into(x: &[u32], y: &[u32], out: &mut Vec<u32>) {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len().min(y.len());
        out.clear();
        out.resize(n, 0);
        let chunks = n / 8;
        let dst = out.as_mut_ptr();
        for i in 0..chunks {
            let a = _mm256_loadu_si256(x.as_ptr().add(i * 8) as *const __m256i);
            let b = _mm256_loadu_si256(y.as_ptr().add(i * 8) as *const __m256i);
            let v = _mm256_sub_epi32(_mm256_max_epu32(a, b), b);
            _mm256_storeu_si256(dst.add(i * 8) as *mut __m256i, v);
        }
        for k in chunks * 8..n {
            *out.get_unchecked_mut(k) = x.get_unchecked(k).saturating_sub(*y.get_unchecked(k));
        }
    }

    /// `out = bound - x` with fused metadata (requires `x[i] <= bound`, the
    /// [`crate::combine::complement_into`] precondition).
    #[target_feature(enable = "avx2")]
    pub unsafe fn complement_into(x: &[u32], bound: u32, half: u32, out: &mut Vec<u32>) -> VecMeta {
        let n = x.len();
        out.clear();
        out.resize(n, 0);
        let chunks = n / 8;
        let vb = _mm256_set1_epi32(bound as i32);
        let mut acc = MetaAcc::new(half);
        let dst = out.as_mut_ptr();
        for i in 0..chunks {
            let a = _mm256_loadu_si256(x.as_ptr().add(i * 8) as *const __m256i);
            let v = _mm256_sub_epi32(vb, a);
            acc.accum8(v);
            _mm256_storeu_si256(dst.add(i * 8) as *mut __m256i, v);
        }
        let mut meta = acc.finish();
        for k in chunks * 8..n {
            let v = bound - x.get_unchecked(k);
            meta.accum(v, half);
            *out.get_unchecked_mut(k) = v;
        }
        meta
    }

    /// `[e₀·γ, e₁·γ, e₂·γ, e₃·γ]` (wrapping) for every 4-lane draw mask,
    /// where `eᵢ` counts the drawing lanes below lane `i`: the offsets of
    /// each lane's counter-indexed generator state from the chunk's base.
    const DRAW_OFFSETS: [[u64; 4]; 16] = {
        let mut table = [[0u64; 4]; 16];
        let mut mask = 0;
        while mask < 16 {
            let mut lane = 0;
            let mut below = 0u64;
            while lane < 4 {
                table[mask][lane] = below.wrapping_mul(GAMMA);
                below += (mask >> lane) as u64 & 1;
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    /// Set-bit count of every 4-bit mask, one nibble each.
    const NIBBLE_POPCOUNT: u64 = 0x4332_3221_3221_2110;

    /// `a · b` on each 64-bit lane, wrapping (AVX2 has no 64-bit multiply):
    /// `lo·lo + ((hi_a·lo_b + lo_a·hi_b) << 32)`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mullo_epi64(a: __m256i, b: __m256i) -> __m256i {
        let lo = _mm256_mul_epu32(a, b);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), b),
            _mm256_mul_epu32(a, _mm256_srli_epi64::<32>(b)),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// The 4-lane [`crate::splitmix64`].
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splitmix64_x4(x: __m256i) -> __m256i {
        let mut z = _mm256_add_epi64(x, _mm256_set1_epi64x(GAMMA as i64));
        z = _mm256_xor_si256(z, _mm256_srli_epi64::<30>(z));
        z = mullo_epi64(z, _mm256_set1_epi64x(0xBF58_476D_1CE4_E5B9u64 as i64));
        z = _mm256_xor_si256(z, _mm256_srli_epi64::<27>(z));
        z = mullo_epi64(z, _mm256_set1_epi64x(0x94D0_49BB_1331_11EBu64 as i64));
        _mm256_xor_si256(z, _mm256_srli_epi64::<31>(z))
    }

    /// The counter-indexed probabilistic rounding loop of
    /// [`crate::combine::scale_round_into`], four entries per iteration —
    /// the vector form of [`crate::combine::prob_round_scaled_portable`],
    /// for caps that fit in `u32`. Returns the generator state after the
    /// draws.
    ///
    /// Exactness, lane by lane: `c` converts to `f64` exactly (sign-flip,
    /// signed convert, add `2^31`), and `x = c · factor` is the scalar
    /// product. `x` is clamped to `[0, 2^53]` (NaN to `0`), which keeps
    /// every value the scalar step returns once capped at `cap < 2^53`;
    /// `floor` is `_mm256_round_pd` toward −∞, and `x - floor` the exact
    /// fraction. A draw's 53-bit integer converts to `f64` exactly in two
    /// halves through the `2^52` exponent trick, and the capped result —
    /// an integer below `2^32` — leaves through the same trick. The drawing
    /// lanes of a chunk take consecutive draw indices in lane order
    /// ([`DRAW_OFFSETS`]), exactly as the sequential loop would.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2 ([`super::enabled`]). Slices of any
    /// lengths are sound: only the first `min(counts.len(), out.len())`
    /// entries are read and written.
    #[target_feature(enable = "avx2")]
    pub unsafe fn prob_round_scaled(
        counts: &[u32],
        factor: f64,
        cap: u32,
        state: u64,
        out: &mut [u32],
    ) -> u64 {
        debug_assert_eq!(counts.len(), out.len());
        let n = counts.len().min(out.len());
        let chunks = n / 4;
        let two52 = _mm256_set1_pd((1u64 << 52) as f64);
        let magic = _mm256_castpd_si256(two52);
        let low32 = _mm256_set1_epi64x(0xFFFF_FFFF);
        let sign = _mm_set1_epi32(i32::MIN);
        let two31 = _mm256_set1_pd(2_147_483_648.0);
        let vfactor = _mm256_set1_pd(factor);
        let zero = _mm256_setzero_pd();
        let two53 = _mm256_set1_pd((1u64 << 53) as f64);
        let two32 = _mm256_set1_pd((1u64 << 32) as f64);
        let unit = _mm256_set1_pd(1.0 / (1u64 << 53) as f64);
        let one = _mm256_set1_pd(1.0);
        let vcap = _mm256_set1_pd(cap as f64);
        let even_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
        let mut base = state;
        for i in 0..chunks {
            // SAFETY: `i * 4 + 4 <= n`, within both slices.
            let c = _mm_loadu_si128(counts.as_ptr().add(i * 4) as *const __m128i);
            let cd = _mm256_add_pd(_mm256_cvtepi32_pd(_mm_xor_si128(c, sign)), two31);
            // `max_pd` returns its second operand when the first is NaN.
            let x = _mm256_min_pd(_mm256_max_pd(_mm256_mul_pd(cd, vfactor), zero), two53);
            let floor = _mm256_round_pd::<{ _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC }>(x);
            let frac = _mm256_sub_pd(x, floor);
            let draws = _mm256_cmp_pd::<_CMP_GT_OQ>(frac, zero);
            let mask = _mm256_movemask_pd(draws) as usize;
            let offsets = _mm256_loadu_si256(DRAW_OFFSETS[mask].as_ptr() as *const __m256i);
            let z = splitmix64_x4(_mm256_add_epi64(_mm256_set1_epi64x(base as i64), offsets));
            base = base.wrapping_add(((NIBBLE_POPCOUNT >> (mask * 4)) & 0xF).wrapping_mul(GAMMA));
            let m = _mm256_srli_epi64::<11>(z);
            let lo = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_or_si256(_mm256_and_si256(m, low32), magic)),
                two52,
            );
            let hi = _mm256_sub_pd(
                _mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64::<32>(m), magic)),
                two52,
            );
            let u = _mm256_mul_pd(_mm256_add_pd(_mm256_mul_pd(hi, two32), lo), unit);
            let up = _mm256_and_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(u, frac), draws);
            let v = _mm256_min_pd(_mm256_add_pd(floor, _mm256_and_pd(up, one)), vcap);
            let bits = _mm256_castpd_si256(_mm256_add_pd(v, two52));
            let packed = _mm256_permutevar8x32_epi32(bits, even_dwords);
            _mm_storeu_si128(
                out.as_mut_ptr().add(i * 4) as *mut __m128i,
                _mm256_castsi256_si128(packed),
            );
        }
        let tail = chunks * 4;
        crate::combine::prob_round_scaled_portable(
            &counts[tail..n],
            factor,
            cap as u64,
            base,
            &mut out[tail..n],
        )
    }

    /// Metadata scan of an existing vector — the vectorized
    /// [`crate::combine::meta_scan`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn meta_scan(v: &[u32], half: u32) -> VecMeta {
        let n = v.len();
        let chunks = n / 8;
        let mut acc = MetaAcc::new(half);
        for i in 0..chunks {
            acc.accum8(_mm256_loadu_si256(v.as_ptr().add(i * 8) as *const __m256i));
        }
        let mut meta = acc.finish();
        for k in chunks * 8..n {
            meta.accum(*v.get_unchecked(k), half);
        }
        meta
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use crate::combine::VecMeta;
    use crate::scalar;

    fn vecs(seed: u64, n: usize, max: u32) -> Vec<u32> {
        let mut s = seed;
        (0..n)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (s >> 33) as u32 % (max + 1)
            })
            .collect()
    }

    #[test]
    fn avx2_kernels_match_scalar_reference() {
        if !super::enabled() {
            return;
        }
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 31, 64, 257] {
            let x = vecs(n as u64 + 1, n, 1000);
            let y = vecs(n as u64 + 7, n, 1000);
            unsafe {
                // The portable bodies are the dispatch peers; the `f64`
                // scalar reference differs from both only in the sign of
                // the empty sum (`f64::sum()` starts from `-0.0`).
                assert_eq!(
                    super::dot_u32(&x, &y).to_bits(),
                    crate::dot::dot_u32_portable(&x, &y).to_bits(),
                    "dot n={n}"
                );
                assert_eq!(
                    super::sum_u32(&x),
                    crate::dot::sum_u32_portable(&x),
                    "sum n={n}"
                );
                if n > 0 {
                    assert_eq!(
                        super::dot_u32(&x, &y).to_bits(),
                        scalar::dot_u32(&x, &y).to_bits(),
                        "dot vs scalar n={n}"
                    );
                }
                for half in [0u32, 1, 499] {
                    let mut out = Vec::new();
                    let meta = super::zip_add_into(&x, &y, half, &mut out);
                    assert_eq!(out, scalar::zip_add(&x, &y), "add n={n}");
                    assert_eq!(meta, scalar::meta_scan(&out, half), "add meta n={n}");
                    let meta = super::zip_min_into(&x, &y, half, &mut out);
                    assert_eq!(out, scalar::zip_min(&x, &y));
                    assert_eq!(meta, scalar::meta_scan(&out, half));
                    let meta = super::zip_max_into(&x, &y, half, &mut out);
                    assert_eq!(out, scalar::zip_max(&x, &y));
                    assert_eq!(meta, scalar::meta_scan(&out, half));
                    super::sub_sat_into(&x, &y, &mut out);
                    assert_eq!(out, scalar::sub_sat(&x, &y));
                    let meta = super::complement_into(&x, 1000, half, &mut out);
                    assert_eq!(out, scalar::complement(&x, 1000));
                    assert_eq!(meta, scalar::meta_scan(&out, half));
                    assert_eq!(
                        super::meta_scan(&x, half),
                        scalar::meta_scan(&x, half),
                        "scan n={n} half={half}"
                    );
                }
            }
        }
    }

    #[test]
    fn avx2_word_kernels_match_scalar_reference() {
        if !super::enabled() {
            return;
        }
        let words = |seed: u64, n: usize| -> Vec<u64> {
            let mut s = seed;
            (0..n)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    s
                })
                .collect()
        };
        for n in [0usize, 1, 3, 4, 5, 8, 63, 130] {
            let a = words(n as u64 + 1, n);
            let b = words(n as u64 + 2, n);
            unsafe {
                assert_eq!(super::popcount(&a), scalar::popcount(&a), "pop n={n}");
                let mut m = a.clone();
                super::and_into(&mut m, &b);
                assert_eq!(super::and_popcount(&a, &b), scalar::popcount(&m));
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                super::or_into(&mut d1, &b);
                scalar::or_into(&mut d2, &b);
                assert_eq!(d1, d2, "or n={n}");
                let (c, e, f) = (words(3, n), words(4, n), words(5, n));
                let mut d1 = a.clone();
                let mut d2 = a.clone();
                super::or4_into(&mut d1, &b, &c, &e, &f);
                for src in [&b, &c, &e, &f] {
                    scalar::or_into(&mut d2, src);
                }
                assert_eq!(d1, d2, "or4 n={n}");
            }
        }
    }

    #[test]
    fn meta_acc_handles_extreme_values() {
        if !super::enabled() {
            return;
        }
        // u32::MAX exercises the sign-flip unsigned compare and the widening
        // sums; an all-zero vector exercises the empty predicates.
        let x = vec![u32::MAX, 0, 1, u32::MAX - 1, 2, 0, 1, u32::MAX, 7];
        let y = vec![0u32; 9];
        unsafe {
            let got = super::meta_scan(&x, u32::MAX - 1);
            let want = scalar::meta_scan(&x, u32::MAX - 1);
            assert_eq!(got, want);
            let mut out = Vec::new();
            let meta = super::zip_max_into(&x, &y, 0, &mut out);
            assert_eq!(meta, scalar::meta_scan(&x, 0));
            assert_eq!(super::meta_scan(&y, 0), VecMeta::default());
        }
    }
}
