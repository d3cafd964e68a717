//! Offline stand-in for the `proptest` crate covering the subset this
//! workspace uses: the `proptest!` macro (with `#![proptest_config(...)]`),
//! `prop_assert!`/`prop_assert_eq!`/`prop_assert_ne!`, `Strategy` over
//! numeric ranges and tuples, and `any::<T>()` for primitive `T`.
//!
//! The build environment has no crates.io access, so the workspace patches
//! `proptest` to this crate. Semantics are simplified but sound for CI:
//! each property runs `cases` times over values drawn from the strategies
//! with a deterministic per-case seed, so failures reproduce exactly.
//! There is no shrinking — a failing case panics with the sampled inputs
//! already visible in the assertion message.

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values of one type. Unlike upstream proptest there
    /// is no value tree/shrinking; `generate` directly produces a value.
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Strategy producing a single constant value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty strategy range");
                    let span = (self.end as u128 - self.start as u128) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty strategy range");
                    let span = (hi as u128 - lo as u128) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u64, u32, u16, u8);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            assert!(self.start < self.end, "empty strategy range");
            self.start + (self.end - self.start) * rng.next_f64()
        }
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
    tuple_strategy!(A, B, C, D, E, F, G);
    tuple_strategy!(A, B, C, D, E, F, G, H);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Types with a canonical "any value" strategy.
    pub trait Arbitrary: Sized {
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    macro_rules! int_arbitrary {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u64, u32, u16, u8, usize, i64, i32);

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    impl Arbitrary for f64 {
        fn arbitrary(rng: &mut TestRng) -> f64 {
            // Finite values only: uniform sign/exponent surprises most
            // numeric properties; uniform in [-1e6, 1e6] is plenty here.
            (rng.next_f64() - 0.5) * 2.0e6
        }
    }

    /// Strategy wrapper returned by [`any`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Any<T>(core::marker::PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The canonical strategy for "any value of type `T`".
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(core::marker::PhantomData)
    }
}

pub mod test_runner {
    /// Deterministic per-case RNG (SplitMix64).
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn from_seed(seed: u64) -> Self {
            let mut rng = TestRng { state: seed };
            rng.next_u64();
            rng
        }

        #[inline]
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        #[inline]
        pub fn next_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    /// Subset of proptest's runner configuration: only `cases` is honored.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Runs `body` once per case with a deterministic RNG. The seed mixes a
    /// fixed constant with the case index so runs are reproducible and the
    /// failing case index appears in the panic message.
    pub fn run_cases<F: FnMut(&mut TestRng)>(cases: u32, mut body: F) {
        for case in 0..cases {
            let mut rng = TestRng::from_seed(0x9E3779B9u64 ^ ((case as u64) << 17));
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                body(&mut rng);
            }));
            if let Err(payload) = result {
                eprintln!("proptest case {case}/{cases} failed (deterministic seed)");
                std::panic::resume_unwind(payload);
            }
        }
    }
}

pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};
}

/// Generates functions that sample strategy-bound parameters and run the
/// body once per configured case. As with real proptest, each property
/// carries its own `#[test]` attribute; the macro adds none, so a property
/// is registered once.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr)) => {};
    (($cfg:expr)
     $(#[$meta:meta])*
     fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
     $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            $crate::test_runner::run_cases(config.cases, |__proptest_rng| {
                $(let $pat = $crate::strategy::Strategy::generate(
                    &($strat),
                    __proptest_rng,
                );)+
                $body
            });
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

/// Drop-in for `assert!` inside properties (no shrinking, plain panic).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Drop-in for `assert_eq!` inside properties.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Drop-in for `assert_ne!` inside properties.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    fn params() -> impl Strategy<Value = (usize, f64, u64)> {
        (1usize..10, 0.0f64..1.0, any::<u64>())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Tuple strategies stay within their component ranges.
        #[test]
        fn tuple_ranges((n, s, _seed) in params(), k in 2usize..5) {
            prop_assert!((1..10).contains(&n));
            prop_assert!((0.0..1.0).contains(&s));
            prop_assert!((2..5).contains(&k));
        }

        #[test]
        fn eq_holds(x in 0u64..100) {
            prop_assert_eq!(x, x);
            prop_assert_ne!(x, x + 1);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::from_seed(1);
        let mut b = TestRng::from_seed(1);
        let s = (0usize..100, 0.0f64..1.0);
        assert_eq!(s.generate(&mut a).0, s.generate(&mut b).0);
    }
}
