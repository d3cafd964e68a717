//! # mnc-kernels — vectorized hot-path primitives for MNC sketches
//!
//! The sketch operations of the paper (Sections 3.2–3.3) are `O(m + n)`
//! passes over `u32` count vectors and `u64` bit rows. This crate collects
//! those inner loops as free-standing kernels so every caller — matmul
//! estimation, sketch propagation, the chain-optimizer DP, and the bitset
//! boolean product — shares one implementation that the compiler can
//! autovectorize, plus a [`ScratchArena`] of reusable buffers so a
//! propagation chain that recycles its retired intermediates runs
//! allocation-free in steady state.
//!
//! ## Bit-identity contract
//!
//! Every kernel is **bit-identical** to its scalar reference in [`scalar`]
//! (property-tested in `tests/bit_identity.rs`, in debug and release). The
//! trick is integer accumulation: `u32` products and sums are computed in
//! `u64`, where addition is associative, so chunked/unrolled evaluation
//! orders cannot drift. The final integer is converted to `f64` once —
//! exactly the value a sequential `f64` accumulation produces while partial
//! sums stay below `2^53` (guaranteed for count vectors: entries are bounded
//! by matrix dimensions, sums by FLOP counts of realistic workloads).
//! Floating-point-transcendental loops ([`vector_edm`]) keep their original
//! sequential evaluation order and only replace the per-element product with
//! the (identically rounded) integer form.
//!
//! Probabilistic rounding ([`scale_round_into`] with
//! [`Rounding::Probabilistic`]) draws **counter-indexed**: SplitMix64's draw
//! `k` from state `s` is `splitmix64(s + k·γ)` ([`round`]), so one
//! branch-free loop gives each entry with a fractional part the next index,
//! lets zeros and integers draw nothing, and leaves the generator where the
//! sequential per-entry [`SplitMix64::prob_round`] calls would — output and
//! generator state are bit-identical to the sequential reference.
//!
//! Dispatch is runtime feature detection behind a plain function call: on
//! x86_64 with AVX2 the entry points take the wide-lane forms in [`simd`]
//! (integer-exact, so still bit-identical — see the module docs there); on
//! every other target, or pre-AVX2 hardware, the portable `*_portable`
//! bodies run. No feature flags are required for correctness, and no caller
//! changes when a new specialization is layered in.
//!
//! The crate also hosts the [`WorkerPool`] scoped-thread pool used by
//! multi-threaded sketch/bitset builds and DAG-wavefront propagation:
//! workers produce per-chunk partials that are merged in a fixed order, so
//! parallel answers stay bit-identical to sequential ones.

pub mod arena;
pub mod chunk;
pub mod combine;
pub mod dot;
pub mod pool;
pub mod round;
pub mod scalar;
pub mod simd;
pub mod words;

pub use arena::ScratchArena;
pub use chunk::row_chunks;
pub use combine::{
    complement_into, concat_meta_into, meta_scan, scale_round_into, sub_sat_into, zip_add_into,
    zip_max_into, zip_min_into, VecMeta,
};
pub use dot::{dot_u32, dot_u32_portable, sum_u32, sum_u32_portable, vector_edm};
pub use pool::WorkerPool;
pub use round::{splitmix64, Rounding, SplitMix64};
pub use words::{
    and_into, and_into_portable, and_popcount, and_popcount_portable, or4_into, or4_into_portable,
    or_into, or_into_portable, popcount, popcount_portable,
};
