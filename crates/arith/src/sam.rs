//! Sum-Addressed Memory (SAM) decoders (§3.6, "Memory Access Instructions").
//!
//! A SAM decoder accepts a base and a displacement and produces the one-hot
//! word-line vector of `base + displacement`'s cache index **without** a
//! carry-propagating addition: each word line performs a private equality
//! test using the *forced-carry* recurrence (if `A + B = K` then every carry
//! is locally determined by `A`, `B`, and `K`, so consistency can be checked
//! with constant depth per bit and one AND tree).
//!
//! Two decoders are provided:
//!
//! * [`SamDecoder`] — the conventional 2-input decoder of Heald et al. /
//!   Lynch & Lauterbach, used by all simulated machines so that no machine
//!   pays a base+displacement adder on the load path.
//! * [`ModifiedSamDecoder`] — the paper's 3-input variant: the positive and
//!   negative planes of a **redundant binary** base register plus a
//!   2's-complement displacement. A carry-save compression (one 3-input XOR
//!   per bit) reduces the three inputs to two, which feed a conventional
//!   SAM. This lets a load indexed by a redundant address skip format
//!   conversion entirely.

use crate::number::RbNumber;

/// Tests `a + b + cin == k` over the low `width` bits (i.e. modulo
/// `2^width`) using the forced-carry consistency check — no carry-propagate
/// adder.
///
/// If the sum equals `k`, the carry into each bit is uniquely determined:
/// `c₀ = cin`, `cᵢ₊₁ = (aᵢ·bᵢ) | ((aᵢ⊕bᵢ)·¬kᵢ)`. The test verifies
/// `aᵢ⊕bᵢ⊕cᵢ = kᵢ` at every bit, which is a per-bit XOR and a wide AND —
/// constant depth per word line.
pub fn sum_equals(a: u64, b: u64, k: u64, cin: bool, width: u32) -> bool {
    assert!((1..=64).contains(&width), "width must be in 1..=64");
    let mask = if width == 64 { !0 } else { (1u64 << width) - 1 };
    let (a, b, k) = (a & mask, b & mask, k & mask);
    let forced = (((a & b) | ((a ^ b) & !k)) << 1 | cin as u64) & mask;
    (a ^ b ^ forced) & mask == k
}

/// A conventional 2-input sum-addressed decoder for the index field
/// `[lo, hi)` of the effective address `base + displacement`.
///
/// Every row performs the equality test twice — once per possible carry into
/// the index field — and the true carry out of the offset bits (a short,
/// off-critical-path add) selects between the two, mirroring the
/// carry-select word-line organization of the UltraSPARC III cache.
///
/// # Example
///
/// ```
/// use redbin_arith::sam::SamDecoder;
///
/// // An 8 KB, 2-way cache with 32-byte lines: index bits [5, 12).
/// let dec = SamDecoder::new(5, 12);
/// let row = dec.decode(0x1000, 0x24);
/// assert_eq!(row, ((0x1000u64 + 0x24) >> 5) as usize & 0x7f);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamDecoder {
    lo: u32,
    hi: u32,
}

impl SamDecoder {
    /// Creates a decoder for index bits `[lo, hi)` of the effective address.
    ///
    /// # Panics
    ///
    /// Panics unless `lo < hi`, `hi <= 58`, and the field is at most 24 bits
    /// wide (a sane word-line count).
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo < hi, "index field must be non-empty");
        assert!(hi <= 58, "index field out of range");
        assert!(hi - lo <= 24, "index field too wide for a decoder");
        SamDecoder { lo, hi }
    }

    /// The number of word lines (rows) the decoder drives.
    #[inline]
    pub fn rows(&self) -> usize {
        1usize << (self.hi - self.lo)
    }

    /// Decodes `base + disp` to its row, using only per-row equality tests.
    ///
    /// # Panics
    ///
    /// Panics if no row matched or more than one matched — either would be
    /// a decoder logic bug, and the tests rely on exactly-one-hot behaviour.
    pub fn decode(&self, base: u64, disp: u64) -> usize {
        let onehot = self.decode_onehot(base, disp);
        let mut found = None;
        for (r, hot) in onehot.iter().enumerate() {
            if *hot {
                assert!(found.is_none(), "SAM decoder asserted two word lines");
                found = Some(r);
            }
        }
        found.expect("SAM decoder asserted no word line")
    }

    /// Produces the full one-hot word-line vector for `base + disp`.
    pub fn decode_onehot(&self, base: u64, disp: u64) -> Vec<bool> {
        let width = self.hi - self.lo;
        let a = (base >> self.lo) & ((1u64 << width) - 1);
        let b = (disp >> self.lo) & ((1u64 << width) - 1);
        // Carry out of the offset bits: a short add, computed in parallel
        // with the per-row tests and used as the select.
        let cin = if self.lo == 0 {
            false
        } else {
            let m = (1u64 << self.lo) - 1;
            (base & m)
                .checked_add(disp & m)
                .is_none_or(|s| s >> self.lo != 0)
        };
        (0..self.rows() as u64)
            .map(|r| sum_equals(a, b, r, cin, width))
            .collect()
    }
}

/// The paper's 3-input *modified SAM*: indexes a cache with a redundant
/// binary base register and a 2's-complement displacement.
///
/// The effective address is `X⁺ − X⁻ + D`. Writing `−X⁻ = ¬X⁻ + 1`, a
/// single carry-save stage (3-input XOR plus majority, constant depth)
/// compresses `X⁺ + ¬X⁻ + D` into a sum word and a carry word, which drive
/// a conventional 2-input SAM with carry-in 1. The critical path is "the
/// conventional SAM preceded by a 3-input XOR gate", as the paper states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModifiedSamDecoder {
    inner: SamDecoder,
}

impl ModifiedSamDecoder {
    /// Creates a decoder for index bits `[lo, hi)` of the effective address.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`SamDecoder::new`], and if
    /// `lo == 0` (the carry-save stage needs somewhere to park its carry-in;
    /// real caches always have offset bits).
    pub fn new(lo: u32, hi: u32) -> Self {
        assert!(lo > 0, "modified SAM needs at least one offset bit");
        ModifiedSamDecoder {
            inner: SamDecoder::new(lo, hi),
        }
    }

    /// The number of word lines (rows) the decoder drives.
    #[inline]
    pub fn rows(&self) -> usize {
        self.inner.rows()
    }

    /// Decodes the row of `base + disp` where `base` is redundant binary.
    pub fn decode(&self, base: RbNumber, disp: u64) -> usize {
        let (s, c) = carry_save(base.plus(), !base.minus(), disp);
        // The +1 completing ¬X⁻ + 1 = −X⁻ rides in as the carry-save
        // carry-in: c was shifted left, freeing bit 0.
        self.inner.decode(s, c | 1)
    }

    /// Produces the full one-hot word-line vector.
    pub fn decode_onehot(&self, base: RbNumber, disp: u64) -> Vec<bool> {
        let (s, c) = carry_save(base.plus(), !base.minus(), disp);
        self.inner.decode_onehot(s, c | 1)
    }
}

/// One carry-save (3:2 compressor) stage: reduces three addends to a sum
/// word and a shifted carry word with constant depth.
#[inline]
fn carry_save(a: u64, b: u64, c: u64) -> (u64, u64) {
    let sum = a ^ b ^ c;
    let carry = ((a & b) | (a & c) | (b & c)) << 1;
    (sum, carry)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_equals_basic() {
        assert!(sum_equals(3, 5, 8, false, 8));
        assert!(!sum_equals(3, 5, 9, false, 8));
        assert!(sum_equals(3, 5, 9, true, 8));
        // Modulo behaviour: 0xff + 1 ≡ 0 over 8 bits.
        assert!(sum_equals(0xff, 1, 0, false, 8));
        assert!(sum_equals(u64::MAX, 1, 0, false, 64));
    }

    #[test]
    fn decoder_matches_plain_addition() {
        let dec = SamDecoder::new(5, 12);
        let cases = [
            (0u64, 0u64),
            (0x1000, 0x24),
            (0xffff_ffff, 1),
            (0x12345, 0xfff),
            (0x7fff_ffff_ffff_ffff, 0x1fff),
        ];
        for (b, d) in cases {
            let expect = ((b.wrapping_add(d)) >> 5) as usize & 0x7f;
            assert_eq!(dec.decode(b, d), expect, "base={b:#x} disp={d:#x}");
        }
    }

    #[test]
    fn decoder_is_one_hot() {
        let dec = SamDecoder::new(4, 10);
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..200 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(12345);
            let b = x;
            let d = x >> 17 & 0xffff;
            let hot: usize = dec.decode_onehot(b, d).iter().filter(|h| **h).count();
            assert_eq!(hot, 1);
        }
    }

    #[test]
    fn modified_sam_matches_redundant_address() {
        let dec = ModifiedSamDecoder::new(5, 12);
        let adder = crate::adder::RbAdder::new();
        let mut x = 0xb772_1e3cu64;
        for _ in 0..300 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(99991);
            // Build a genuinely redundant base: sum of two values.
            let p1 = (x >> 3) as i64;
            let p2 = (x >> 29) as i64;
            let base_rb = adder
                .add(RbNumber::from_i64(p1), RbNumber::from_i64(p2))
                .sum;
            let disp = x & 0x7fff;
            let ea = base_rb.to_u64().wrapping_add(disp);
            let expect = (ea >> 5) as usize & 0x7f;
            assert_eq!(dec.decode(base_rb, disp), expect);
        }
    }

    #[test]
    fn modified_sam_one_hot() {
        let dec = ModifiedSamDecoder::new(6, 13);
        let base = RbNumber::from_digits(&[(8, 1), (7, -1), (0, -1)]).unwrap();
        let hot = dec.decode_onehot(base, 0x40);
        assert_eq!(hot.iter().filter(|h| **h).count(), 1);
    }

    #[test]
    #[should_panic(expected = "offset bit")]
    fn modified_sam_requires_offset_bits() {
        let _ = ModifiedSamDecoder::new(0, 7);
    }

    #[test]
    fn rows() {
        assert_eq!(SamDecoder::new(5, 12).rows(), 128);
        assert_eq!(ModifiedSamDecoder::new(5, 12).rows(), 128);
    }
}
