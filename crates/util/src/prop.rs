//! A minimal property-testing harness (replaces `proptest`).
//!
//! Each property is an ordinary closure over a [`Gen`], run for a number of
//! seeded cases.  There is no shrinking: on failure the harness reports the
//! case's seed so the exact input can be replayed with
//! `MIM_PROP_SEED=<seed> MIM_PROP_CASES=1`.  Case seeds are derived
//! deterministically from a fixed base, so CI runs are reproducible.
//!
//! ```
//! mim_util::props! {
//!     fn addition_commutes(g) {
//!         let (a, b) = (g.gen_range(0u64..1000), g.gen_range(0u64..1000));
//!         assert_eq!(a + b, b + a);
//!     }
//!
//!     fn expensive_property(g, cases = 8) {
//!         let xs = g.vec(0..50, |g| g.any_f64());
//!         assert!(xs.len() < 50);
//!     }
//! }
//! # fn main() {}
//! ```

use std::ops::{Deref, DerefMut, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use crate::env_u64;
use crate::rng::{splitmix64, Rng};

/// Cases per property when not overridden in `props!` or by `MIM_PROP_CASES`.
pub const DEFAULT_CASES: u64 = 64;

/// Base from which per-case seeds are derived (overridden by `MIM_PROP_SEED`).
const BASE_SEED: u64 = 0x6D69_6D5F_7574_696C; // "mim_util"

/// Per-case value source: a seeded [`Rng`] plus generation helpers.
///
/// `Gen` derefs to [`Rng`], so every `Rng` method (`gen_range`, `shuffle`,
/// `index`, `permutation`, …) is available directly.
pub struct Gen {
    rng: Rng,
}

impl Gen {
    /// Generator for one case.
    pub fn from_seed(seed: u64) -> Self {
        Self { rng: Rng::seed_from_u64(seed) }
    }

    /// A vector with a length drawn from `len` and elements from `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = if len.start == len.end { len.start } else { self.rng.gen_range(len) };
        (0..n).map(|_| f(self)).collect()
    }

    /// A reference to a uniformly chosen element.
    ///
    /// # Panics
    /// Panics when `xs` is empty.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.rng.index(xs.len())]
    }

    /// Any 64-bit value (uniform over the full domain).
    pub fn any_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Any 32-bit value.
    pub fn any_u32(&mut self) -> u32 {
        self.rng.next_u64() as u32
    }

    /// Any `i32`, including the extremes.
    pub fn any_i32(&mut self) -> i32 {
        self.rng.next_u64() as i32
    }

    /// Any bit pattern reinterpreted as `f64` — covers infinities, NaNs and
    /// subnormals, which uniform-in-range generation never produces.
    pub fn any_f64(&mut self) -> f64 {
        f64::from_bits(self.rng.next_u64())
    }

    /// A coin flip.
    pub fn any_bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }
}

impl Deref for Gen {
    type Target = Rng;
    fn deref(&self) -> &Rng {
        &self.rng
    }
}

impl DerefMut for Gen {
    fn deref_mut(&mut self) -> &mut Rng {
        &mut self.rng
    }
}

/// Run `property` for `cases` seeded cases (see the module docs for the
/// replay workflow).
///
/// # Panics
/// Re-raises the property's panic after reporting the failing seed; panics
/// up front on a malformed `MIM_PROP_CASES` or `MIM_PROP_SEED`.
pub fn check<F: FnMut(&mut Gen)>(cases: u64, mut property: F) {
    let cases = env_u64("MIM_PROP_CASES").unwrap_or(cases).max(1);
    let fixed_seed = env_u64("MIM_PROP_SEED");
    let mut base = BASE_SEED;
    for case in 0..cases {
        let seed = fixed_seed.unwrap_or_else(|| splitmix64(&mut base));
        let mut g = Gen::from_seed(seed);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut g))) {
            eprintln!(
                "property failed on case {}/{} — replay with \
                 MIM_PROP_SEED={seed:#x} MIM_PROP_CASES=1",
                case + 1,
                cases,
            );
            resume_unwind(panic);
        }
    }
}

/// Declare `#[test]` property functions; see the module-level example.
///
/// Each item has the form `fn name(g) { … }` with an optional
/// `, cases = N` after the generator binding; outer attributes and doc
/// comments are passed through.
#[macro_export]
macro_rules! props {
    () => {};
    ($(#[$meta:meta])* fn $name:ident($g:ident) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::prop::check($crate::prop::DEFAULT_CASES, |$g: &mut $crate::prop::Gen| $body);
        }
        $crate::props!($($rest)*);
    };
    ($(#[$meta:meta])* fn $name:ident($g:ident, cases = $n:expr) $body:block $($rest:tt)*) => {
        $(#[$meta])*
        #[test]
        fn $name() {
            $crate::prop::check($n, |$g: &mut $crate::prop::Gen| $body);
        }
        $crate::props!($($rest)*);
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_get_distinct_seeds() {
        let mut draws = Vec::new();
        check(16, |g| draws.push(g.any_u64()));
        // 16 independent generators: first draws should not all collide.
        draws.sort_unstable();
        draws.dedup();
        assert!(draws.len() > 1);
    }

    #[test]
    fn vec_respects_length_range() {
        check(32, |g| {
            let xs = g.vec(2..7, |g| g.gen_range(0u32..10));
            assert!((2..7).contains(&xs.len()));
            assert!(xs.iter().all(|&x| x < 10));
        });
    }

    #[test]
    fn failure_is_propagated() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            check(4, |_g| panic!("intentional"));
        }));
        assert!(result.is_err());
    }

    props! {
        /// The macro form compiles, takes attributes, and runs.
        fn macro_declared_property(g) {
            let n = g.gen_range(1usize..20);
            assert_eq!(g.permutation(n).len(), n);
        }

        fn macro_with_case_count(g, cases = 3) {
            assert!(g.next_f64() < 1.0);
        }
    }
}
