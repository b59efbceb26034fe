//! The constant-depth redundant binary adder (§3.3–§3.5).
//!
//! Redundant binary addition limits carry propagation to at most two digit
//! positions: the sum digit at position *i* is a function of digits *i*,
//! *i−1*, and *i−2* of both inputs. The classic two-step scheme is used:
//!
//! 1. At every position `j`, split the digit sum `pⱼ = xⱼ + yⱼ ∈ [−2, 2]`
//!    into an interim digit `wⱼ` and a transfer `tⱼ₊₁` with
//!    `pⱼ = 2·tⱼ₊₁ + wⱼ`. When `pⱼ = ±1` the split is chosen by looking at
//!    the *signs* of the digits one position below, so that the incoming
//!    transfer can never push the final digit outside `{-1, 0, 1}`.
//! 2. The sum digit is `sⱼ = wⱼ + tⱼ` — guaranteed carry-free.
//!
//! After the raw addition, two corrections are applied at the most
//! significant digit (§3.5):
//!
//! * **Bogus overflow** correction: the patterns `⟨carry=1, d₆₃=−1⟩` and
//!   `⟨carry=−1, d₆₃=1⟩` are folded back into `⟨0, 1⟩` / `⟨0, −1⟩`.
//! * **Sign normalization**: when `d₆₃ = 1` with a non-negative remainder
//!   (or `d₆₃ = −1` with a negative remainder), the digit's sign is flipped,
//!   which is the paper's rule for making the redundant result carry the
//!   same value "as if it were computed in 2's complement". These are also
//!   exactly the 2's-complement overflow conditions.
//!
//! The combination makes the adder *value-exact* with respect to wrapping
//! 2's-complement addition: the normalized result's mathematical value
//! always equals `(x + y) mod 2^64` interpreted as a signed quadword. That
//! is what allows redundant sign, zero, and compare tests to agree with a
//! conventional machine even across long dependent chains.

use crate::digit::RbDigit;
use crate::number::{RbNumber, DIGITS};

/// The result of a redundant binary addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddOutcome {
    /// The normalized redundant binary sum. Its exact value equals the
    /// wrapping 2's-complement sum of the operands.
    pub sum: RbNumber,
    /// The raw transfer out of the most significant digit, before bogus
    /// overflow correction (`−1`, `0`, or `+1`).
    pub raw_carry_out: RbDigit,
    /// `true` if the bogus-overflow pattern occurred and was corrected.
    pub bogus_overflow_corrected: bool,
    /// `true` if the addition overflowed 2's complement (the trap condition
    /// an `ADDQ/V` instruction would raise).
    pub tc_overflow: bool,
}

/// A 64-digit redundant binary adder.
///
/// The struct is zero-sized; it exists so that call sites read like the
/// hardware structure they model (`adder.add(a, b)`), and so alternative
/// adders (e.g. the gate-level model in `redbin-gates`) can mirror the API.
///
/// # Example
///
/// ```
/// use redbin_arith::{RbAdder, RbNumber};
///
/// let adder = RbAdder::new();
/// let out = adder.add(RbNumber::from_i64(i64::MAX), RbNumber::from_i64(1));
/// assert!(out.tc_overflow);
/// assert_eq!(out.sum.to_i64(), i64::MIN); // wraps exactly like hardware
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RbAdder;

impl RbAdder {
    /// Creates a new adder.
    #[inline]
    pub fn new() -> Self {
        RbAdder
    }

    /// Adds two redundant binary numbers with bounded carry propagation.
    ///
    /// The returned sum is normalized (see the module docs); its value is
    /// exactly the wrapping 2's-complement sum of the operands' 64-bit
    /// patterns.
    pub fn add(&self, x: RbNumber, y: RbNumber) -> AddOutcome {
        let (raw, carry) = raw_add(x, y);
        finish(raw, carry)
    }

    /// Subtracts `y` from `x` by negating `y` (free in redundant binary) and
    /// adding.
    pub fn sub(&self, x: RbNumber, y: RbNumber) -> AddOutcome {
        self.add(x, y.negated())
    }

    /// Adds a 2's-complement immediate, converting it on the fly with the
    /// free hardwired conversion.
    pub fn add_i64(&self, x: RbNumber, imm: i64) -> AddOutcome {
        self.add(x, RbNumber::from_i64(imm))
    }

    /// Longword add: adds the operands, then extracts and sign-extends the
    /// low 32 digits (§3.6, "Quadword to Longword Forwarding").
    ///
    /// Equivalent to the Alpha `ADDL` semantics: the result is the wrapped
    /// 32-bit sum, sign-extended to 64 bits.
    pub fn add_longword(&self, x: RbNumber, y: RbNumber) -> AddOutcome {
        let out = self.add(x, y);
        AddOutcome {
            sum: crate::ops::extract_longword(out.sum),
            ..out
        }
    }
}

/// Raw digit-parallel addition: returns the 64 interim+transfer-combined sum
/// digits and the transfer out of digit 63 (no top-digit corrections yet).
///
/// Implemented bit-parallel over the digit planes; `raw_add_serial` is the
/// digit-at-a-time reference implementation mirroring the hardware slice.
fn raw_add(x: RbNumber, y: RbNumber) -> (RbNumber, RbDigit) {
    let (xp, xm) = (x.plus(), x.minus());
    let (yp, ym) = (y.plus(), y.minus());

    // Classify each position by the digit sum p = x + y.
    let p_two = xp & yp; // p = +2: both digits +1
    let p_neg_two = xm & ym; // p = −2: both digits −1
    let p_one = (xp ^ yp) & !(xm | ym); // p = +1: exactly one +1, no −1
    let p_neg_one = (xm ^ ym) & !(xp | yp); // p = −1: exactly one −1, no +1

    // Sign information from one position below. A transfer of +1 out of
    // position j−1 is only possible when no digit at j−1 is negative, and a
    // transfer of −1 only when no digit there is positive; the interim digit
    // is chosen to be compatible.
    let neg_below = (xm | ym) << 1;
    let pos_below = (xp | yp) << 1;

    // Interim digit w and transfer t (t indexed by the position it leaves).
    let w_plus = (p_one & neg_below) | (p_neg_one & !pos_below);
    let w_minus = (p_one & !neg_below) | (p_neg_one & pos_below);
    let t_plus = p_two | (p_one & !neg_below);
    let t_minus = p_neg_two | (p_neg_one & !pos_below);

    debug_assert_eq!(w_plus & w_minus, 0);
    debug_assert_eq!(t_plus & t_minus, 0);

    // Incoming transfers.
    let tin_plus = t_plus << 1;
    let tin_minus = t_minus << 1;

    // s = w + t_in. The selection rule guarantees w and t_in are never both
    // +1 or both −1 at the same position.
    debug_assert_eq!(w_plus & tin_plus, 0, "two +1s would need a second carry");
    debug_assert_eq!(w_minus & tin_minus, 0, "two −1s would need a second carry");

    let s_plus = (w_plus & !tin_minus) | (tin_plus & !w_minus);
    let s_minus = (w_minus & !tin_plus) | (tin_minus & !w_plus);

    let sum = RbNumber::from_planes(s_plus, s_minus).expect("adder produced <1,1> digit");
    let carry = RbDigit::from_bits(t_plus >> 63 == 1, t_minus >> 63 == 1);
    (sum, carry)
}

/// Digit-serial reference implementation of the bit-parallel adder core,
/// structured as one hardware digit slice per iteration (the paper's
/// Figure 2): each slice
/// consumes the digits at its own position plus the sign information of the
/// position below, and the transfer produced by the slice below.
pub fn raw_add_serial(x: RbNumber, y: RbNumber) -> (RbNumber, RbDigit) {
    let mut sum = RbNumber::ZERO;
    let mut t_in = RbDigit::Zero;
    let mut t_next = RbDigit::Zero;
    for j in 0..DIGITS {
        let p = x.digit(j).value() + y.digit(j).value();
        let (neg_below, pos_below) = if j == 0 {
            (false, false)
        } else {
            (
                x.digit(j - 1).neg_bit() || y.digit(j - 1).neg_bit(),
                x.digit(j - 1).pos_bit() || y.digit(j - 1).pos_bit(),
            )
        };
        let (w, t_out): (i8, i8) = match p {
            2 => (0, 1),
            1 => {
                if neg_below {
                    (1, 0)
                } else {
                    (-1, 1)
                }
            }
            0 => (0, 0),
            -1 => {
                if pos_below {
                    (-1, 0)
                } else {
                    (1, -1)
                }
            }
            -2 => (0, -1),
            _ => unreachable!("digit sum out of range"),
        };
        let s = w + t_in.value();
        sum = sum.with_digit(
            j,
            RbDigit::from_value(s).expect("slice produced out-of-range sum digit"),
        );
        t_in = RbDigit::from_value(t_out).expect("transfer out of range");
        if j == DIGITS - 1 {
            t_next = t_in;
        }
    }
    (sum, t_next)
}

/// Applies the §3.5 top-digit corrections and overflow detection to a raw
/// sum, producing the normalized outcome.
fn finish(raw: RbNumber, raw_carry: RbDigit) -> AddOutcome {
    let mut sum = raw;
    let mut carry = raw_carry;
    let msd = sum.digit(63);

    // Bogus overflow: ⟨carry=1, msd=−1⟩ → ⟨0, 1⟩ and ⟨carry=−1, msd=1⟩ →
    // ⟨0, −1⟩. Both rewrites preserve the value (2^64 − 2^63 = 2^63).
    let mut bogus = false;
    match (carry, msd) {
        (RbDigit::One, RbDigit::NegOne) => {
            sum = sum.with_digit(63, RbDigit::One);
            carry = RbDigit::Zero;
            bogus = true;
        }
        (RbDigit::NegOne, RbDigit::One) => {
            sum = sum.with_digit(63, RbDigit::NegOne);
            carry = RbDigit::Zero;
            bogus = true;
        }
        _ => {}
    }

    // 2's-complement overflow detection and sign normalization (§3.5).
    // `rest` is the value of digits 62..0.
    let top_bit = 1u64 << 63;
    let rest = (sum.plus() & !top_bit) as i128 - (sum.minus() & !top_bit) as i128;
    let msd = sum.digit(63);
    let mut tc_overflow = carry != RbDigit::Zero;
    match msd {
        RbDigit::NegOne if rest < 0 => {
            // Value < −2^63: overflow; set the digit to +1 so the retained
            // 64 digits carry the wrapped (mod 2^64) value with the correct
            // sign.
            sum = sum.with_digit(63, RbDigit::One);
            tc_overflow = true;
        }
        RbDigit::One if rest >= 0 => {
            // Value ≥ 2^63: overflow; flip to −1, same reasoning.
            sum = sum.with_digit(63, RbDigit::NegOne);
            tc_overflow = true;
        }
        _ => {}
    }

    debug_assert!(
        sum.is_normalized(),
        "normalized adder output out of i64 range: {sum:?}"
    );

    AddOutcome {
        sum,
        raw_carry_out: raw_carry,
        bogus_overflow_corrected: bogus,
        tc_overflow,
    }
}

/// Normalizes an arbitrary redundant binary number so that its exact value
/// is the signed interpretation of its 64-bit pattern (value mod `2^64`,
/// taken in `[−2^63, 2^63)`).
///
/// Used after digit shifts, which can leave the most significant digit
/// sign-inconsistent (§3.6, "Shifts and Scaled Adds").
pub fn normalize(n: RbNumber) -> RbNumber {
    let outcome = finish(n, RbDigit::Zero);
    outcome.sum
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rb(v: i64) -> RbNumber {
        RbNumber::from_i64(v)
    }

    #[test]
    fn simple_sums() {
        let adder = RbAdder::new();
        for (a, b) in [(0i64, 0i64), (1, 1), (2, 3), (-5, 3), (100, -100), (7, -7)] {
            let out = adder.add(rb(a), rb(b));
            assert_eq!(out.sum.to_i64(), a.wrapping_add(b), "{a} + {b}");
            assert!(!out.tc_overflow);
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mut seed = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..2000 {
            let x = rb(next() as i64);
            let y = rb(next() as i64);
            // Also exercise non-canonical inputs by chaining once.
            let x = RbAdder::new().add(x, y).sum;
            let (ps, pc) = raw_add(x, y);
            let (ss, sc) = raw_add_serial(x, y);
            assert_eq!(ps, ss);
            assert_eq!(pc, sc);
        }
    }

    #[test]
    fn repeated_increment_matches_paper_growth() {
        // §3.5: repeatedly incrementing 1 makes nonzero digits march left:
        // ⟨0,0,0,1⟩, ⟨0,0,1,0⟩, ⟨0,1,0,-1⟩, ⟨1,-1,0,0⟩, ⟨1,-1,1,-1⟩ …
        let adder = RbAdder::new();
        let one = rb(1);
        let mut v = one;
        for expect in 2..=64i64 {
            v = adder.add(v, one).sum;
            assert_eq!(v.to_i64(), expect);
        }
    }

    #[test]
    fn chained_adds_stay_exact() {
        let adder = RbAdder::new();
        let mut acc = rb(0);
        let mut expect = 0i64;
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x as i64;
            acc = adder.add(acc, rb(v)).sum;
            expect = expect.wrapping_add(v);
            assert_eq!(acc.to_i64(), expect);
            assert!(acc.is_normalized());
        }
    }

    #[test]
    fn overflow_detection_matches_checked_add() {
        let cases = [
            (i64::MAX, 1),
            (i64::MAX, i64::MAX),
            (i64::MIN, -1),
            (i64::MIN, i64::MIN),
            (i64::MAX, -1),
            (i64::MIN, 1),
            (1, 1),
            (-1, -1),
            (i64::MAX / 2, i64::MAX / 2),
        ];
        let adder = RbAdder::new();
        for (a, b) in cases {
            let out = adder.add(rb(a), rb(b));
            assert_eq!(
                out.tc_overflow,
                a.checked_add(b).is_none(),
                "overflow flag wrong for {a} + {b}"
            );
            assert_eq!(out.sum.to_i64(), a.wrapping_add(b));
        }
    }

    #[test]
    fn subtraction() {
        let adder = RbAdder::new();
        for (a, b) in [(10i64, 3i64), (3, 10), (-4, -9), (i64::MIN, i64::MIN)] {
            let out = adder.sub(rb(a), rb(b));
            assert_eq!(out.sum.to_i64(), a.wrapping_sub(b));
        }
        // i64::MIN − 1 overflows.
        assert!(adder.sub(rb(i64::MIN), rb(1)).tc_overflow);
    }

    #[test]
    fn add_longword_matches_addl() {
        let adder = RbAdder::new();
        let cases = [
            (1i64, 2i64),
            (i32::MAX as i64, 1),
            (0x1_0000_0000, 5),
            (-1, -1),
            (0x7fff_ffff_ffff_ffff, 0x10),
        ];
        for (a, b) in cases {
            let out = adder.add_longword(rb(a), rb(b));
            let expect = (a.wrapping_add(b) as i32) as i64;
            assert_eq!(out.sum.to_i64(), expect, "{a} +L {b}");
        }
    }

    #[test]
    fn normalized_sign_agrees_with_tc_wrap() {
        // The classic divergence case: MAX + 1 wraps negative. The
        // sign-normalized adder must agree.
        let adder = RbAdder::new();
        let out = adder.add(rb(i64::MAX), rb(1));
        assert_eq!(out.sum.to_i64(), i64::MIN);
        assert_eq!(out.sum.digit(63), RbDigit::NegOne);
        assert!(out.sum.value_i128() < 0);
    }

    #[test]
    fn carry_locality() {
        // Perturbing a digit at position j must not change sum digits below
        // j−? — more precisely, sum digit i depends only on input digits
        // i, i−1, i−2. Check by brute difference.
        let x = rb(0x0f0f_0f0f_0f0f_0f0f);
        let y = rb(0x1111_1111_7777_0001u64 as i64);
        let (base, _) = raw_add(x, y);
        for j in 2..60 {
            let x2 = x.with_digit(j, RbDigit::NegOne);
            let (pert, _) = raw_add(x2, y);
            // Sum digit i is a function of input digits i, i−1, i−2, so
            // digits strictly below j cannot observe the perturbation.
            for i in 0..j {
                assert_eq!(
                    base.digit(i),
                    pert.digit(i),
                    "sum digit {i} changed when input digit {j} was perturbed"
                );
            }
        }
    }

    #[test]
    fn normalize_after_manual_pattern() {
        // ⟨1, 0…0⟩ at digit 63 with positive rest: value 2^63 + r, must
        // normalize to the wrapped negative value.
        let n = RbNumber::from_digits(&[(63, 1), (1, 1)]).unwrap();
        let norm = normalize(n);
        assert!(norm.is_normalized());
        assert_eq!(norm.to_u64(), n.to_u64());
        assert_eq!(norm.value_i128(), norm.to_i64() as i128);
    }
}
