//! Offline stand-in for the `proptest` crate.
//!
//! Implements the declarative surface this workspace's property tests use —
//! `proptest! { #[test] fn f(x in strategy) { .. } }`, range/tuple/`vec`/
//! `any` strategies, `prop_map`, `prop_oneof!`, and the `prop_assert*`
//! macros — over a deterministic splitmix64 generator. Case seeds derive
//! from the test name and case index, so every run of every machine
//! exercises the same inputs (no shrinking: a failure report prints the
//! offending case's generated values instead).

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Test-case failure raised by the `prop_assert*` macros.
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    /// Builds a failure with `msg`.
    pub fn fail(msg: String) -> Self {
        TestCaseError(msg)
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone)]
pub struct ProptestConfig {
    /// Number of generated cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// Config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> Self {
        // The real crate defaults to 256; 64 keeps the full offline suite
        // fast while still exercising plenty of schedules.
        ProptestConfig { cases: 64 }
    }
}

/// Deterministic per-case generator (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Derives a generator from a test name and case index.
    pub fn for_case(test_name: &str, case: u32) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
        }
        TestRng {
            state: h ^ ((case as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// A generator of test-case values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Type-erases the strategy (used by [`prop_oneof!`]).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        Box::new(self)
    }
}

/// A type-erased strategy.
pub type BoxedStrategy<V> = Box<dyn Strategy<Value = V>>;

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (**self).generate(rng)
    }
}

/// Output of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among same-valued strategies ([`prop_oneof!`]).
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Builds a union over `options` (must be non-empty).
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let i = rng.below(self.options.len() as u64) as usize;
        self.options[i].generate(rng)
    }
}

/// Integer types range strategies can draw.
pub trait UniformValue: Copy {
    /// Uniform draw from `[lo, hi)`.
    fn draw_half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self;
    /// Next representable value (for inclusive ranges).
    fn successor(self) -> Self;
}

macro_rules! impl_uniform_value {
    ($($t:ty),*) => {$(
        impl UniformValue for $t {
            fn draw_half_open(rng: &mut TestRng, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "strategy range is empty");
                let span = (hi as i128 - lo as i128) as u64;
                (lo as i128 + rng.below(span) as i128) as $t
            }
            fn successor(self) -> Self {
                self.checked_add(1).expect("inclusive range at type max")
            }
        }
    )*};
}
impl_uniform_value!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: UniformValue> Strategy for Range<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::draw_half_open(rng, self.start, self.end)
    }
}

impl<T: UniformValue> Strategy for RangeInclusive<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::draw_half_open(rng, *self.start(), self.end().successor())
    }
}

macro_rules! impl_tuple_strategy {
    ($(($($s:ident . $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}
impl_tuple_strategy! {
    (A.0)
    (A.0, B.1)
    (A.0, B.1, C.2)
    (A.0, B.1, C.2, D.3)
    (A.0, B.1, C.2, D.3, E.4)
}

/// Types [`any`] can generate.
pub trait Arbitrary {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Strategy generating any value of `T` (`any::<T>()`).
pub struct Any<T> {
    _marker: std::marker::PhantomData<fn() -> T>,
}

/// An arbitrary value of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any {
        _marker: std::marker::PhantomData,
    }
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// `Vec` of values from `element`, with a length drawn from `len`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        VecStrategy { element, len }
    }

    /// Output of [`vec()`].
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.len.end - self.len.start) as u64;
            assert!(span > 0, "vec length range is empty");
            let n = self.len.start + rng.below(span) as usize;
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Runs the body of one `proptest!`-generated test across its cases.
/// `runner` generates inputs and executes the property for one case.
pub fn run_cases(
    test_name: &str,
    config: &ProptestConfig,
    mut runner: impl FnMut(&mut TestRng) -> (String, Result<(), TestCaseError>),
) {
    for case in 0..config.cases {
        let mut rng = TestRng::for_case(test_name, case);
        let (inputs, result) = runner(&mut rng);
        if let Err(e) = result {
            panic!(
                "proptest case {case}/{cases} of `{test_name}` failed: {e}\n  inputs: {inputs}",
                cases = config.cases,
            );
        }
    }
}

/// Declares property tests. Mirrors the real crate's surface:
/// an optional `#![proptest_config(expr)]` header, then `#[test]` functions
/// whose arguments are `name in strategy` bindings.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), &__config, |__rng| {
                    $(let $arg = $crate::Strategy::generate(&($strat), __rng);)*
                    let __inputs = {
                        let mut s = String::new();
                        $(
                            s.push_str(concat!(stringify!($arg), " = "));
                            s.push_str(&format!("{:?}; ", $arg));
                        )*
                        s
                    };
                    let __result = (move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                    (__inputs, __result)
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fails the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r,
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "{}\n  left: {:?}\n right: {:?}",
                format!($($fmt)+), l, r,
            )));
        }
    }};
}

/// Skips the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Ok(());
        }
    };
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// One-stop imports, mirroring `proptest::prelude::*`.
pub mod prelude {
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest, Arbitrary,
        ProptestConfig, Strategy, TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u64..17, y in 1usize..=4) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=4).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_range(v in crate::collection::vec(0u8..10, 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() < 6);
            prop_assert!(v.iter().all(|&b| b < 10));
        }

        #[test]
        fn tuples_and_map_compose(
            pairs in crate::collection::vec((0u32..5, 0u32..5).prop_map(|(a, b)| a + b), 1..8),
        ) {
            prop_assert!(pairs.iter().all(|&s| s <= 8));
        }

        #[test]
        fn oneof_hits_every_branch(xs in crate::collection::vec(prop_oneof![
            (0u8..1).prop_map(|_| 1u8),
            (0u8..1).prop_map(|_| 2u8),
        ], 8..32)) {
            prop_assert!(xs.iter().all(|&x| x == 1 || x == 2));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let mut a = crate::TestRng::for_case("t", 3);
        let mut b = crate::TestRng::for_case("t", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::for_case("t", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    #[should_panic(expected = "inputs")]
    fn failure_reports_inputs() {
        proptest! {
            @impl (ProptestConfig::with_cases(4));
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
