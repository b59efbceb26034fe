//! Offline test support for the redbin workspace.
//!
//! The build environment has no access to a crates.io registry, so the
//! workspace carries no external dependencies at all. This crate replaces
//! what `rand` and `proptest` used to provide: [`Rng`] + [`cases`], a
//! deterministic SplitMix64 generator and a tiny property-test harness. The
//! property suites (`crates/*/tests/`) draw their inputs from it. Failures
//! print the case seed; re-running with [`cases_from`] reproduces a single
//! case.
//!
//! Everything here is deterministic: the same seed always produces the
//! same case stream, on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A SplitMix64 pseudo-random number generator.
///
/// Small, fast, passes BigCrush on its output function, and — crucially for
/// golden tests — fully deterministic and platform-independent.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly distributed `i64`.
    pub fn next_i64(&mut self) -> i64 {
        self.next_u64() as i64
    }

    /// A uniformly distributed boolean.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = hi - lo;
        // Multiply-shift reduction: unbiased enough for test generation and
        // avoids a modulo on a hot path.
        lo + (((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        let span = (hi as i128 - lo as i128) as u64;
        let off = ((self.next_u64() as u128 * span as u128) >> 64) as i128;
        (lo as i128 + off) as i64
    }

    /// A uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.range_usize(0, items.len())]
    }

    /// A vector of `len` draws from `f`.
    pub fn vec<T>(&mut self, len: usize, mut f: impl FnMut(&mut Self) -> T) -> Vec<T> {
        (0..len).map(|_| f(self)).collect()
    }
}

/// The default number of cases a property test runs (matches proptest's).
pub const DEFAULT_CASES: usize = 256;

/// Runs `f` against `n` generated cases derived from `seed`.
///
/// Each case gets its own [`Rng`] seeded with `seed ^ case-index` spread
/// through SplitMix64, so a failing case can be reproduced in isolation
/// with [`cases_from`]. On panic, the case seed is printed before the
/// panic propagates.
pub fn cases(n: usize, seed: u64, f: impl Fn(&mut Rng)) {
    for i in 0..n {
        let case_seed = Rng::new(seed ^ (i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64();
        run_case(case_seed, &f);
    }
}

/// Runs property `f` for the default number of cases.
pub fn check(seed: u64, f: impl Fn(&mut Rng)) {
    cases(DEFAULT_CASES, seed, f);
}

/// Reproduces a single case from the seed printed by a failing run.
pub fn cases_from(case_seed: u64, f: impl Fn(&mut Rng)) {
    run_case(case_seed, &f);
}

fn run_case(case_seed: u64, f: &impl Fn(&mut Rng)) {
    struct PrintSeedOnPanic(u64, bool);
    impl Drop for PrintSeedOnPanic {
        fn drop(&mut self) {
            if self.1 && std::thread::panicking() {
                eprintln!(
                    "property failed; reproduce with redbin_testkit::cases_from(0x{:016x}, ..)",
                    self.0
                );
            }
        }
    }
    let mut guard = PrintSeedOnPanic(case_seed, true);
    let mut rng = Rng::new(case_seed);
    f(&mut rng);
    guard.1 = false;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First outputs for seed 1234567, from the SplitMix64 reference
        // implementation (Vigna).
        let mut r = Rng::new(1234567);
        assert_eq!(r.next_u64(), 0x599e_d017_fb08_fc85);
    }

    #[test]
    fn determinism() {
        let a: Vec<u64> = Rng::new(42).vec(100, |r| r.next_u64());
        let b: Vec<u64> = Rng::new(42).vec(100, |r| r.next_u64());
        assert_eq!(a, b);
        let c: Vec<u64> = Rng::new(43).vec(100, |r| r.next_u64());
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let v = r.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let w = r.range_i64(-5, 5);
            assert!((-5..5).contains(&w));
        }
        // Degenerate single-element range.
        assert_eq!(r.range_u64(3, 4), 3);
    }

    #[test]
    fn range_covers_extremes() {
        let mut r = Rng::new(99);
        let mut seen = [false; 8];
        for _ in 0..10_000 {
            seen[r.range_usize(0, 8)] = true;
        }
        assert!(seen.iter().all(|s| *s), "all buckets hit: {seen:?}");
    }

    #[test]
    fn pick_selects_all_elements() {
        let mut r = Rng::new(5);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[*r.pick(&items) - 1] = true;
        }
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn cases_runs_the_requested_count() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = AtomicUsize::new(0);
        cases(37, 1, |_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 37);
    }

    #[test]
    fn full_i64_range_is_reachable() {
        // range_i64 over the full domain must not overflow.
        let mut r = Rng::new(11);
        let mut neg = false;
        let mut pos = false;
        for _ in 0..1000 {
            let v = r.range_i64(i64::MIN, i64::MAX);
            neg |= v < 0;
            pos |= v > 0;
        }
        assert!(neg && pos);
    }
}
