//! Offline drop-in replacement for the slice of the `proptest` crate API
//! used by this workspace (the build environment has no network access).
//!
//! Supported surface:
//!
//! * the [`proptest!`] macro with both binding forms
//!   (`name: Type` and `name in strategy`) and an optional
//!   `#![proptest_config(...)]` header;
//! * [`ProptestConfig::with_cases`];
//! * [`any`] for types implementing [`Arbitrary`];
//! * integer-range strategies (`0usize..6`, `0u32..256`, …);
//! * [`collection::vec`] with an exact element count;
//! * [`prop_assert!`] / [`prop_assert_eq!`].
//!
//! Unlike the real proptest there is no shrinking and no persisted
//! failure seeds: each `#[test]` runs `cases` deterministic iterations
//! derived from a fixed seed, so failures are reproducible run to run.
//! Setting the `TM_PROPTEST_SEED` environment variable (decimal or
//! `0x` hex) replaces the fixed seed, so a CI job can rotate it; a
//! failing case prints the seed and its case index to stderr.

#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-test configuration, mirroring `proptest::test_runner::Config`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases each property runs.
    pub cases: u32,
}

impl ProptestConfig {
    /// Configuration running `cases` iterations per property.
    #[must_use]
    pub fn with_cases(cases: u32) -> Self {
        Self { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self { cases: 64 }
    }
}

/// The deterministic RNG driving each property test.
#[derive(Clone, Debug)]
pub struct TestRng(StdRng);

/// The seed every property starts from unless `TM_PROPTEST_SEED`
/// overrides it.
pub const DEFAULT_SEED: u64 = 0x70726F_70746573;

impl TestRng {
    /// A fixed-seed generator; every test body starts from the same
    /// stream so failures reproduce deterministically.
    #[must_use]
    pub fn deterministic() -> Self {
        Self::from_seed(DEFAULT_SEED)
    }

    /// A generator seeded with `seed`.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self(StdRng::seed_from_u64(seed))
    }
}

/// The seed of this run: `TM_PROPTEST_SEED` (decimal or `0x` hex) when
/// set, [`DEFAULT_SEED`] otherwise.
///
/// # Panics
///
/// Panics if `TM_PROPTEST_SEED` is set but is not a `u64`.
#[must_use]
pub fn run_seed() -> u64 {
    match std::env::var("TM_PROPTEST_SEED") {
        Ok(text) => parse_seed(&text).unwrap_or_else(|| {
            panic!("TM_PROPTEST_SEED={text:?} is not a u64 (decimal or 0x hex)")
        }),
        Err(_) => DEFAULT_SEED,
    }
}

fn parse_seed(text: &str) -> Option<u64> {
    let text = text.trim();
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Names the failing case on stderr when a property panics while it is
/// alive: drop it after the case body returns normally.
#[derive(Debug)]
pub struct CaseGuard {
    /// The property's name.
    pub test: &'static str,
    /// The seed the run started from.
    pub seed: u64,
    /// The case index within the run.
    pub case: u32,
}

impl Drop for CaseGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "proptest: {} failed at case {}; rerun with TM_PROPTEST_SEED={:#x}",
                self.test, self.case, self.seed
            );
        }
    }
}

/// A source of random values for one binding in a property.
pub trait Strategy {
    /// The type of values this strategy produces.
    type Value;
    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an unconstrained value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.0.gen_bool(0.5)
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rand::RngCore::next_u64(&mut rng.0) as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Strategy wrapper returned by [`any`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

/// The canonical strategy for `T`, mirroring `proptest::prelude::any`.
#[must_use]
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                rng.0.gen_range(self.clone())
            }
        }
    )*};
}
impl_range_strategy!(usize, u8, u16, u32, u64);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Strategy producing vectors of exactly `count` elements.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        element: S,
        count: usize,
    }

    /// Builds a [`VecStrategy`] drawing `count` elements from `element`.
    #[must_use]
    pub fn vec<S: Strategy>(element: S, count: usize) -> VecStrategy<S> {
        VecStrategy { element, count }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (0..self.count).map(|_| self.element.sample(rng)).collect()
        }
    }
}

/// Everything a property-test module needs in scope.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
    };
}

/// Asserts a condition inside a property (maps to `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($arg:tt)*) => { assert!($($arg)*) };
}

/// Asserts equality inside a property (maps to `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($($arg:tt)*) => { assert_eq!($($arg)*) };
}

/// Declares property tests.
///
/// Each function becomes a `#[test]` running `config.cases` iterations
/// with fresh values bound for every parameter.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::ProptestConfig::default()) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: expands each test function.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    (($cfg:expr)) => {};
    (($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident ( $($params:tt)* ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __config: $crate::ProptestConfig = $cfg;
            let __seed = $crate::run_seed();
            let mut __rng = $crate::TestRng::from_seed(__seed);
            for __case in 0..__config.cases {
                let __guard = $crate::CaseGuard {
                    test: stringify!($name),
                    seed: __seed,
                    case: __case,
                };
                $crate::__proptest_bind!{ __rng; $($params)* }
                $body
                drop(__guard);
            }
        }
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
}

/// Implementation detail of [`proptest!`]: binds one parameter list entry.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_bind {
    ($rng:ident;) => {};
    ($rng:ident; $x:ident in $s:expr, $($rest:tt)*) => {
        let $x = $crate::Strategy::sample(&($s), &mut $rng);
        $crate::__proptest_bind!{ $rng; $($rest)* }
    };
    ($rng:ident; $x:ident in $s:expr) => {
        let $x = $crate::Strategy::sample(&($s), &mut $rng);
    };
    ($rng:ident; $x:ident : $t:ty, $($rest:tt)*) => {
        let $x = <$t as $crate::Arbitrary>::arbitrary(&mut $rng);
        $crate::__proptest_bind!{ $rng; $($rest)* }
    };
    ($rng:ident; $x:ident : $t:ty) => {
        let $x = <$t as $crate::Arbitrary>::arbitrary(&mut $rng);
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn typed_bindings_work(a: bool, b: u8) {
            prop_assert!(u16::from(b) <= 255);
            prop_assert_eq!(a, a);
        }

        #[test]
        fn strategy_bindings_work(
            k in 0usize..6,
            xs in collection::vec(any::<bool>(), 5),
            flag: bool,
        ) {
            prop_assert!(k < 6);
            prop_assert_eq!(xs.len(), 5);
            let _ = flag;
        }
    }

    #[test]
    fn seeds_parse_as_decimal_or_hex() {
        assert_eq!(crate::parse_seed("42"), Some(42));
        assert_eq!(crate::parse_seed(" 0x2a "), Some(42));
        assert_eq!(crate::parse_seed("0X2A"), Some(42));
        assert_eq!(crate::parse_seed("forty-two"), None);
    }

    #[test]
    fn cases_actually_vary() {
        let mut rng = crate::TestRng::deterministic();
        let strat = 0u32..1_000_000;
        let a = crate::Strategy::sample(&strat, &mut rng);
        let b = crate::Strategy::sample(&strat, &mut rng);
        assert_ne!(a, b);
    }
}
