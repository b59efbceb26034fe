//! Non-add operations that work on redundant binary inputs (§3.6).
//!
//! Left shifts, scaled adds, sign/zero/least-significant-bit tests, trailing
//! zero counts, and quadword→longword extraction all work directly on the
//! redundant representation. Right shifts, bitwise logic, byte manipulation,
//! and leading-zero/population counts do **not** — they require a unique
//! (2's-complement) representation, which is what drives the paper's
//! instruction classification (Table 1).

use crate::adder::{normalize, RbAdder};
use crate::number::RbNumber;

/// The sign of a redundant binary number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sign {
    /// The value is negative.
    Negative,
    /// The value is zero.
    Zero,
    /// The value is positive.
    Positive,
}

/// Determines the sign of a redundant binary number by scanning for the most
/// significant nonzero digit (§3.6, "Conditional Operations").
///
/// The leading nonzero digit always dominates the remainder
/// (`|Σ_{i<j} dᵢ2^i| < 2^j`), so its sign is the sign of the value. For
/// normalized numbers this agrees exactly with the 2's-complement sign.
///
/// # Example
///
/// ```
/// use redbin_arith::{ops::{sign, Sign}, RbNumber};
///
/// assert_eq!(sign(RbNumber::from_i64(-7)), Sign::Negative);
/// assert_eq!(sign(RbNumber::ZERO), Sign::Zero);
/// ```
#[inline]
pub fn sign(n: RbNumber) -> Sign {
    match n.leading_nonzero() {
        None => Sign::Zero,
        Some(i) => {
            if n.digit(i).neg_bit() {
                Sign::Negative
            } else {
                Sign::Positive
            }
        }
    }
}

/// Tests whether the value is odd: a 2-input OR of the two bits comprising
/// the least significant digit (§3.6). Every digit above position 0
/// contributes an even amount, so the value is odd iff digit 0 is nonzero.
#[inline]
pub fn lsb_set(n: RbNumber) -> bool {
    (n.plus() | n.minus()) & 1 == 1
}

/// Counts trailing zero digits — the redundant binary implementation of the
/// Alpha `CTTZ` instruction (§3.6, "Arithmetic Operations").
///
/// If the lowest nonzero digit is at position `j`, the value is `2^j` times
/// an odd number, so this equals the 2's-complement trailing-zero count.
/// Returns 64 for zero.
#[inline]
pub fn cttz(n: RbNumber) -> u32 {
    (n.plus() | n.minus()).trailing_zeros()
}

/// Shifts left by `k` digit positions and renormalizes the most significant
/// digit (§3.6, "Shifts and Scaled Adds").
///
/// Digits shifted past position 63 are discarded, so the value is the
/// wrapping 2's-complement left shift. Shift amounts are taken modulo 64,
/// matching Alpha `SLL` semantics.
#[must_use]
pub fn shl_digits(n: RbNumber, k: u32) -> RbNumber {
    let k = k & 63;
    let shifted =
        RbNumber::from_planes(n.plus() << k, n.minus() << k).expect("shift cannot create <1,1>");
    normalize(shifted)
}

/// Scaled add: shifts `x` left by `scale` digits (2 for `S4ADD`, 3 for
/// `S8ADD`) and adds `y` — all in redundant binary (§3.6).
#[must_use]
pub fn scaled_add(adder: &RbAdder, x: RbNumber, scale: u32, y: RbNumber) -> RbNumber {
    adder.add(shl_digits(x, scale), y).sum
}

/// Scaled subtract: `(x << scale) − y` in redundant binary.
#[must_use]
pub fn scaled_sub(adder: &RbAdder, x: RbNumber, scale: u32, y: RbNumber) -> RbNumber {
    adder.sub(shl_digits(x, scale), y).sum
}

/// Extracts the low 32 digits as a sign-extended longword (§3.6,
/// "Quadword to Longword Forwarding").
///
/// Digits 0–30 are kept; digit 31 is re-derived with the same
/// bogus-overflow/sign-correction machinery the adder applies at digit 63,
/// so the result's exact value is the sign-extended low 32 bits of the
/// input's 2's-complement pattern. Digits 32–63 of the result are zero.
#[must_use]
pub fn extract_longword(n: RbNumber) -> RbNumber {
    const M31: u64 = (1 << 31) - 1;
    // Value of digits 30..0 (carry-free to compute in hardware via the same
    // sign-scan tree the §3.5 corrections use).
    let rest = (n.plus() & M31) as i64 - (n.minus() & M31) as i64;
    // Target: the sign-extended low 32 bits of the wrapped pattern.
    let target = ((n.to_u64() as u32) as i32) as i64;
    // rest ≡ target (mod 2^31) and both lie within ±2^31, so the difference
    // is exactly −2^31, 0, or +2^31: that difference is digit 31.
    let d31 = (target - rest) >> 31;
    debug_assert!((-1..=1).contains(&d31));
    let plus = (n.plus() & M31) | if d31 == 1 { 1 << 31 } else { 0 };
    let minus = (n.minus() & M31) | if d31 == -1 { 1 << 31 } else { 0 };
    let out = RbNumber::from_planes(plus, minus).expect("plane conflict in extract");
    debug_assert_eq!(out.value_i128(), target as i128);
    out
}

/// Signed comparison via redundant subtraction and a sign test — the
/// mechanism behind `CMPLT`/`CMPLE`/`CMOVxx` on redundant inputs.
///
/// Note that, like the hardware, this computes `sign(x − y)` with the
/// wrapping subtractor; for operand pairs whose difference overflows i64 the
/// answer follows the wrapped difference (the Alpha compare instructions
/// have the same behaviour as this implementation only for in-range
/// differences; the simulator's functional oracle uses exact semantics and
/// the faithful datapath cross-checks where exactness holds).
#[inline]
pub fn cmp_signed(adder: &RbAdder, x: RbNumber, y: RbNumber) -> Sign {
    sign(adder.sub(x, y).sum)
}

/// Equality test via redundant subtraction and the OR-tree zero test.
#[inline]
pub fn eq_test(adder: &RbAdder, x: RbNumber, y: RbNumber) -> bool {
    adder.sub(x, y).sum.is_zero()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(v: i64) -> RbNumber {
        RbNumber::from_i64(v)
    }

    #[test]
    fn sign_tests() {
        assert_eq!(sign(rb(5)), Sign::Positive);
        assert_eq!(sign(rb(-5)), Sign::Negative);
        assert_eq!(sign(rb(0)), Sign::Zero);
        assert_eq!(sign(rb(i64::MIN)), Sign::Negative);
        // A redundant (non-canonical) representation of a positive value:
        // ⟨1,-1⟩ = 1.
        let n = RbNumber::from_digits(&[(1, 1), (0, -1)]).unwrap();
        assert_eq!(sign(n), Sign::Positive);
    }

    #[test]
    fn lsb() {
        assert!(lsb_set(rb(1)));
        assert!(lsb_set(rb(-1)));
        assert!(!lsb_set(rb(2)));
        assert!(!lsb_set(rb(0)));
        // ⟨1,-1⟩ = 1: odd, digit0 nonzero.
        let n = RbNumber::from_digits(&[(1, 1), (0, -1)]).unwrap();
        assert!(lsb_set(n));
    }

    #[test]
    fn cttz_matches_tc() {
        for v in [1i64, 2, 4, 8, -8, 3, 48, i64::MIN, 0x40] {
            assert_eq!(cttz(rb(v)), (v as u64).trailing_zeros(), "cttz({v})");
        }
        assert_eq!(cttz(rb(0)), 64);
        // On a redundant chain result too.
        let adder = RbAdder::new();
        let n = adder.add(rb(6), rb(2)).sum; // 8
        assert_eq!(cttz(n), 3);
    }

    #[test]
    fn shifts_match_tc() {
        for v in [1i64, -1, 0x7fff_ffff_ffff_ffff, i64::MIN, 1234567] {
            for k in [0u32, 1, 2, 3, 31, 32, 63] {
                let got = shl_digits(rb(v), k);
                assert_eq!(got.to_i64(), v.wrapping_shl(k), "{v} << {k}");
                assert!(got.is_normalized());
            }
        }
    }

    #[test]
    fn paper_shift_example() {
        // ⟨-1,1,0,1⟩ = −3 shifted left one digit becomes −6.
        let n = RbNumber::from_digits(&[(3, -1), (2, 1), (0, 1)]).unwrap();
        assert_eq!(n.to_i64(), -3);
        assert_eq!(shl_digits(n, 1).to_i64(), -6);
    }

    #[test]
    fn scaled_ops() {
        let adder = RbAdder::new();
        assert_eq!(scaled_add(&adder, rb(10), 2, rb(3)).to_i64(), 43);
        assert_eq!(scaled_add(&adder, rb(10), 3, rb(3)).to_i64(), 83);
        assert_eq!(scaled_sub(&adder, rb(10), 2, rb(3)).to_i64(), 37);
        assert_eq!(scaled_sub(&adder, rb(-10), 3, rb(3)).to_i64(), -83);
    }

    #[test]
    fn longword_extraction() {
        for v in [0i64, 1, -1, 0x1_2345_6789, 0xffff_ffff, 0x8000_0000, -42] {
            let got = extract_longword(rb(v));
            assert_eq!(got.to_i64(), ((v as u32) as i32) as i64, "extract({v:#x})");
        }
        // On a chained redundant result.
        let adder = RbAdder::new();
        let sum = adder.add(rb(0x7fff_ffff), rb(1)).sum; // 2^31
        let lw = extract_longword(sum);
        assert_eq!(lw.to_i64(), i32::MIN as i64);
    }

    #[test]
    fn comparisons() {
        let adder = RbAdder::new();
        assert_eq!(cmp_signed(&adder, rb(3), rb(5)), Sign::Negative);
        assert_eq!(cmp_signed(&adder, rb(5), rb(3)), Sign::Positive);
        assert_eq!(cmp_signed(&adder, rb(5), rb(5)), Sign::Zero);
        assert!(eq_test(&adder, rb(-9), rb(-9)));
        assert!(!eq_test(&adder, rb(-9), rb(9)));
        // Works on differently-shaped representations of the same value.
        let three_a = RbNumber::from_digits(&[(2, 1), (0, -1)]).unwrap();
        let three_b = rb(3);
        assert!(eq_test(&adder, three_a, three_b));
    }
}
