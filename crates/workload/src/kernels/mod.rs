//! The twenty benchmark-proxy kernels.
//!
//! Each kernel is a small assembly program that mimics the dominant
//! computation of a SPECint95 / SPECint2000 benchmark (see the table in
//! DESIGN.md). Kernels take a `units` parameter — an abstract amount of
//! work — so the same program shape can run at test, calibration, and full
//! experiment sizes.

pub mod spec2000;
pub mod spec95;

use redbin_testkit::Rng;

/// A value in `[0, bound)` by modulo reduction — kept, rather than
/// [`Rng::range_u64`]'s multiply-shift, because every kernel's input data
/// was generated this way.
pub(crate) fn below(rng: &mut Rng, bound: u64) -> u64 {
    rng.next_u64() % bound
}

/// Builds a random permutation cycle over `n` slots: following
/// `perm[perm[...]]` visits every slot exactly once before returning to the
/// start. Used for worst-case pointer-chasing working sets (`mcf`, `li`).
pub fn permutation_cycle(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = below(&mut rng, i as u64 + 1) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0u64; n];
    for i in 0..n {
        next[order[i]] = order[(i + 1) % n] as u64;
    }
    next
}

/// Synthesizes `len` bytes with tunable repetitiveness: `rep_pct` percent
/// of bytes repeat a short earlier window (compressible text-like data for
/// `compress`/`gzip`).
pub fn text_like_bytes(len: usize, rep_pct: u64, seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(len);
    for i in 0..len {
        if i > 64 && below(&mut rng, 100) < rep_pct {
            let back = 1 + below(&mut rng, 63) as usize;
            out.push(out[i - back]);
        } else {
            out.push((below(&mut rng, 26) + b'a' as u64) as u8);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_respects_bound() {
        let mut r = Rng::new(7);
        for _ in 0..1000 {
            assert!(below(&mut r, 13) < 13);
        }
    }

    #[test]
    fn permutation_is_a_single_cycle() {
        let n = 257;
        let next = permutation_cycle(n, 1);
        let mut seen = vec![false; n];
        let mut at = 0usize;
        for _ in 0..n {
            assert!(!seen[at], "revisited before covering all");
            seen[at] = true;
            at = next[at] as usize;
        }
        assert_eq!(at, 0, "must return to start");
        assert!(seen.iter().all(|s| *s));
    }

    #[test]
    fn text_like_is_lowercase_ascii() {
        let t = text_like_bytes(1000, 40, 3);
        assert_eq!(t.len(), 1000);
        assert!(t.iter().all(|b| b.is_ascii_lowercase()));
    }
}
