//! A seeded property runner that needs no external crate, shared by
//! the workspace's property suites: each suite includes this file with
//! `#[path = ".../tests/support/prop.rs"] mod prop;`.
//!
//! [`check`] draws `cases` inputs, each from its own seed, and applies
//! the property to each. The case seeds come from one
//! [`SplitMix64`] stream keyed by the property's name, so a run is
//! the same on every machine. Each input is generated from a
//! [`SplitMix64`] stream of its own seed, by a generator that takes a
//! size bound ([`Gen`]). Every case is drawn at [`FULL`] size, where
//! each draw covers its whole declared range.
//!
//! When a case fails, the runner re-draws the same seed at halved
//! sizes while it still fails. It then bisects between the last
//! passing size and the smallest failing one, and panics with the
//! seed, that size and the input's `Debug`. A smaller size draws
//! shorter collections and values nearer the start of their ranges,
//! so the reported input is a small one. To replay a failure, list its
//! seed in the suite's `REGRESSIONS` slice, which [`check`] runs
//! before the drawn cases.

#![allow(dead_code)]

use regent_fault::SplitMix64;
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The size every case is drawn at. Shrinking halves it.
pub const FULL: u64 = 1 << 10;

/// Generates one input: the case's seeded stream and its size bound.
pub struct Gen {
    rng: SplitMix64,
    size: u64,
}

impl Gen {
    /// The stream of `seed`, drawing at `size` (1 ..= [`FULL`]).
    pub fn new(seed: u64, size: u64) -> Gen {
        Gen {
            rng: SplitMix64::new(seed),
            size,
        }
    }

    /// A value of `r` (non-empty). At size `s` the draw covers the
    /// first `s / FULL` of the range (at least one value), so a smaller
    /// size gives a value nearer `r.start` and a shorter collection.
    pub fn range<T: Copy + TryInto<i128> + TryFrom<i128>>(&mut self, r: Range<T>) -> T {
        let wide = |v: T| v.try_into().ok().expect("an integer type");
        let (lo, hi) = (wide(r.start), wide(r.end));
        assert!(lo < hi, "empty range {lo}..{hi}");
        let width = ((hi - lo) as u128 * self.size as u128).div_ceil(FULL as u128);
        let off = (self.rng.next_u64() as u128 * width.max(1)) >> 64;
        T::try_from(lo + off as i128)
            .ok()
            .expect("inside the range")
    }

    /// A vector whose length is drawn from `len`, each element by `f`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut f: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.range(len);
        (0..n).map(|_| f(self)).collect()
    }

    /// A fair coin, at every size.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() >> 63 == 1
    }

    /// One of `items` (non-empty), uniformly, at every size: a choice
    /// is not a size.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.rng.gen_range(items.len() as u64) as usize]
    }

    /// A real in `[0, scale)`, at every size.
    pub fn unit(&mut self, scale: f64) -> f64 {
        scale * self.rng.next_f64()
    }
}

/// Runs `prop` on the inputs `gen` draws from every seed of
/// `regressions`, then from `cases` seeds of the property's own
/// stream. A property fails by panicking (`assert!`). The first
/// failure is shrunk and reported with its seed.
pub fn check<T: Debug>(
    name: &str,
    cases: u64,
    regressions: &[u64],
    gen: impl Fn(&mut Gen) -> T,
    prop: impl Fn(&T),
) {
    let key = name
        .bytes()
        .fold(0u64, |h, b| regent_fault::splitmix64(h ^ b as u64));
    let mut stream = SplitMix64::new(key);
    let drawn = (0..cases).map(|_| stream.next_u64());
    for seed in regressions.iter().copied().chain(drawn) {
        let attempt = |size| {
            let input = gen(&mut Gen::new(seed, size));
            match catch_unwind(AssertUnwindSafe(|| prop(&input))) {
                Ok(()) => None,
                Err(payload) => Some((size, input, message(payload))),
            }
        };
        let Some(mut fail) = attempt(FULL) else {
            continue;
        };
        // Halve while the case still fails, then bisect between the
        // passing half and the smallest failing size.
        let mut pass = 0;
        while fail.0 > 1 {
            match attempt(fail.0 / 2) {
                Some(smaller) => fail = smaller,
                None => {
                    pass = fail.0 / 2;
                    break;
                }
            }
        }
        while fail.0 - pass > 1 {
            let mid = pass + (fail.0 - pass) / 2;
            match attempt(mid) {
                Some(smaller) => fail = smaller,
                None => pass = mid,
            }
        }
        let (size, input, msg) = fail;
        panic!(
            "property `{name}` failed on seed {seed:#018x} at size {size} of {FULL}\n\
             input: {input:?}\n{msg}\n\
             replay it by listing {seed:#018x} in REGRESSIONS"
        );
    }
}

/// The text of a panic payload.
pub fn message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => payload
            .downcast_ref::<&str>()
            .map_or_else(|| "non-string panic".to_string(), |s| s.to_string()),
    }
}
