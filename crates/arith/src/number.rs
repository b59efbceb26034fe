//! The 64-digit redundant binary number representation.

use core::fmt;

use crate::digit::RbDigit;

/// Number of digits in a quadword redundant binary number.
pub const DIGITS: usize = 64;

/// A 64-digit redundant binary (signed-digit) number.
///
/// The number is stored as two 64-bit *digit planes*: bit `i` of [`plus`]
/// asserts digit `i` is `+1`, bit `i` of [`minus`] asserts it is `-1`. A set
/// bit in both planes at the same position is illegal (the `<1,1>` encoding
/// does not exist), and every constructor maintains that invariant.
///
/// The represented value is `Σ dᵢ·2^i` where `dᵢ ∈ {-1, 0, 1}`. Numbers
/// built by [`RbNumber::from_i64`] or produced by
/// [`RbAdder`](crate::adder::RbAdder) are *normalized*: their exact value
/// fits in an `i64`, so [`to_i64`](Self::to_i64) is exact and sign/zero
/// tests agree with 2's complement. Hand-assembled digit patterns (via
/// [`from_digits`](Self::from_digits) or [`from_planes`](Self::from_planes))
/// may represent values up to `±(2^64 − 1)`; [`value_i128`](Self::value_i128)
/// always reports the exact mathematical value.
///
/// [`plus`]: Self::plus
/// [`minus`]: Self::minus
///
/// # Example
///
/// ```
/// use redbin_arith::RbNumber;
///
/// let three = RbNumber::from_i64(3);
/// assert_eq!(three.to_i64(), 3);
/// // 3 can also be written ⟨0,1,0,-1⟩ = 4 - 1:
/// let alt = RbNumber::from_digits(&[(2, 1), (0, -1)]).unwrap();
/// assert_eq!(alt.to_i64(), 3);
/// assert_ne!(three, alt); // same value, different representation
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RbNumber {
    plus: u64,
    minus: u64,
}

impl RbNumber {
    /// The canonical all-digits-zero representation of zero.
    pub const ZERO: RbNumber = RbNumber { plus: 0, minus: 0 };

    /// Creates the canonical zero. Equivalent to [`RbNumber::ZERO`].
    #[inline]
    pub fn new() -> Self {
        Self::ZERO
    }

    /// Converts a 2's-complement quadword to redundant binary.
    ///
    /// This is the paper's free (hardwired) conversion, §3.2: all bits except
    /// the most significant go to the positive plane; the sign bit goes to
    /// the negative plane so the value keeps its sign (in 2's complement the
    /// top bit has weight `−2^63`, which is exactly a `−1` digit).
    #[inline]
    pub fn from_i64(v: i64) -> Self {
        let bits = v as u64;
        RbNumber {
            plus: bits & !(1u64 << 63),
            minus: bits & (1u64 << 63),
        }
    }

    /// Converts the low 32 bits of a 2's-complement longword, hardwiring bit
    /// 31 to the negative plane so the longword keeps the correct sign
    /// (§3.6, "Quadword to Longword Forwarding").
    ///
    /// The result is the sign-extended value of `v`.
    #[inline]
    pub fn from_i32(v: i32) -> Self {
        let bits = (v as u32) as u64;
        RbNumber {
            plus: bits & !(1u64 << 31),
            minus: bits & (1u64 << 31),
        }
    }

    /// Builds a number directly from its two digit planes.
    ///
    /// Returns `None` if any digit position is set in both planes (the
    /// illegal `<1,1>` encoding).
    #[inline]
    pub fn from_planes(plus: u64, minus: u64) -> Option<Self> {
        if plus & minus != 0 {
            None
        } else {
            Some(RbNumber { plus, minus })
        }
    }

    /// Builds a number from `(position, digit_value)` pairs; unmentioned
    /// digits are zero.
    ///
    /// Returns `None` if a position is ≥ 64, a digit value is outside
    /// `{-1, 0, 1}`, or the same position is given conflicting values.
    pub fn from_digits(digits: &[(usize, i8)]) -> Option<Self> {
        let mut plus = 0u64;
        let mut minus = 0u64;
        for &(pos, val) in digits {
            if pos >= DIGITS {
                return None;
            }
            let bit = 1u64 << pos;
            match val {
                0 => {}
                1 => {
                    if minus & bit != 0 {
                        return None;
                    }
                    plus |= bit;
                }
                -1 => {
                    if plus & bit != 0 {
                        return None;
                    }
                    minus |= bit;
                }
                _ => return None,
            }
        }
        Some(RbNumber { plus, minus })
    }

    /// The positive digit plane: bit `i` set means digit `i` is `+1`.
    #[inline]
    pub fn plus(self) -> u64 {
        self.plus
    }

    /// The negative digit plane: bit `i` set means digit `i` is `-1`.
    #[inline]
    pub fn minus(self) -> u64 {
        self.minus
    }

    /// The digit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    pub fn digit(self, i: usize) -> RbDigit {
        assert!(i < DIGITS, "digit index {i} out of range");
        RbDigit::from_bits((self.plus >> i) & 1 == 1, (self.minus >> i) & 1 == 1)
    }

    /// Returns a copy with the digit at position `i` replaced.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 64`.
    #[inline]
    #[must_use]
    pub fn with_digit(self, i: usize, d: RbDigit) -> Self {
        assert!(i < DIGITS, "digit index {i} out of range");
        let bit = 1u64 << i;
        RbNumber {
            plus: (self.plus & !bit) | if d.pos_bit() { bit } else { 0 },
            minus: (self.minus & !bit) | if d.neg_bit() { bit } else { 0 },
        }
    }

    /// Iterates over the digits from least to most significant.
    pub fn digits(self) -> impl Iterator<Item = RbDigit> {
        (0..DIGITS).map(move |i| self.digit(i))
    }

    /// The exact mathematical value `Σ dᵢ·2^i`, which may not fit in `i64`
    /// for hand-assembled representations.
    #[inline]
    pub fn value_i128(self) -> i128 {
        self.plus as i128 - self.minus as i128
    }

    /// The 64-bit 2's-complement pattern of this number: the value reduced
    /// modulo `2^64`.
    ///
    /// In hardware this is the §3.2 conversion — a full-width subtraction
    /// `X⁺ − X⁻` with carry propagation (the slow direction).
    #[inline]
    pub fn to_u64(self) -> u64 {
        self.plus.wrapping_sub(self.minus)
    }

    /// The value as a signed quadword.
    ///
    /// Exact (not merely congruent modulo `2^64`) whenever the number is
    /// normalized, which holds for everything built from `from_i64` /
    /// `from_i32` or produced by the adder and the digit-shift operations.
    #[inline]
    pub fn to_i64(self) -> i64 {
        self.to_u64() as i64
    }

    /// `true` if this number is normalized: its exact value fits in `i64`.
    #[inline]
    pub fn is_normalized(self) -> bool {
        let v = self.value_i128();
        v >= i64::MIN as i128 && v <= i64::MAX as i128
    }

    /// `true` if the value is zero.
    ///
    /// A redundant binary number is zero **iff** every digit is zero (the
    /// leading nonzero digit always dominates the rest), so this is the
    /// paper's OR-circuit zero test and needs no carry propagation.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.plus | self.minus == 0
    }

    /// The position of the most significant nonzero digit, if any.
    #[inline]
    pub fn leading_nonzero(self) -> Option<usize> {
        let any = self.plus | self.minus;
        if any == 0 {
            None
        } else {
            Some(63 - any.leading_zeros() as usize)
        }
    }

    /// Negates the number by swapping the digit planes — a free operation in
    /// redundant binary (every digit flips sign, so the value flips sign
    /// exactly, even for `i64::MIN`).
    #[inline]
    #[must_use]
    pub fn negated(self) -> Self {
        RbNumber {
            plus: self.minus,
            minus: self.plus,
        }
    }

    /// Number of nonzero digits in the representation (a measure of how
    /// "spread" the redundancy is; useful in tests and diagnostics).
    #[inline]
    pub fn nonzero_digits(self) -> u32 {
        (self.plus | self.minus).count_ones()
    }
}

impl From<i64> for RbNumber {
    #[inline]
    fn from(v: i64) -> Self {
        RbNumber::from_i64(v)
    }
}

impl From<i32> for RbNumber {
    #[inline]
    fn from(v: i32) -> Self {
        RbNumber::from_i32(v)
    }
}

impl fmt::Debug for RbNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RbNumber {{ plus: {:#018x}, minus: {:#018x}, value: {} }}",
            self.plus,
            self.minus,
            self.value_i128()
        )
    }
}

impl fmt::Display for RbNumber {
    /// Displays the digits from most to least significant, trimming leading
    /// zeros, e.g. `⟨1,-1,0,0⟩`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let top = self.leading_nonzero().unwrap_or(0);
        f.write_str("⟨")?;
        for i in (0..=top).rev() {
            write!(f, "{}", self.digit(i))?;
            if i != 0 {
                f.write_str(",")?;
            }
        }
        f.write_str("⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_i64_round_trips_extremes() {
        for v in [
            0i64,
            1,
            -1,
            42,
            -42,
            i64::MAX,
            i64::MIN,
            0x5555_5555_5555_5555,
        ] {
            let n = RbNumber::from_i64(v);
            assert_eq!(n.to_i64(), v, "round trip failed for {v}");
            assert!(n.is_normalized());
            assert_eq!(
                n.value_i128(),
                v as i128,
                "hardwired conversion must be exact"
            );
        }
    }

    #[test]
    fn from_i32_sign_extends() {
        for v in [0i32, 1, -1, i32::MAX, i32::MIN, -123456] {
            let n = RbNumber::from_i32(v);
            assert_eq!(n.to_i64(), v as i64);
            assert_eq!(n.value_i128(), v as i128);
        }
    }

    #[test]
    fn paper_example_three() {
        // ⟨0,1,0,-1⟩ = 2² − 2⁰ = 3 (paper §3.1).
        let n = RbNumber::from_digits(&[(2, 1), (0, -1)]).unwrap();
        assert_eq!(n.to_i64(), 3);
        // ⟨0,0,1,1⟩ = 3 as well.
        let m = RbNumber::from_digits(&[(1, 1), (0, 1)]).unwrap();
        assert_eq!(m.to_i64(), 3);
        assert_ne!(n, m);
    }

    #[test]
    fn from_planes_rejects_conflicts() {
        assert!(RbNumber::from_planes(0b10, 0b01).is_some());
        assert!(RbNumber::from_planes(0b11, 0b01).is_none());
    }

    #[test]
    fn from_digits_rejects_bad_input() {
        assert!(RbNumber::from_digits(&[(64, 1)]).is_none());
        assert!(RbNumber::from_digits(&[(3, 2)]).is_none());
        assert!(RbNumber::from_digits(&[(3, 1), (3, -1)]).is_none());
        // Re-stating the same digit value is fine.
        assert!(RbNumber::from_digits(&[(3, 1), (3, 1)]).is_some());
    }

    #[test]
    fn digit_accessors() {
        let n = RbNumber::from_digits(&[(0, -1), (5, 1)]).unwrap();
        assert_eq!(n.digit(0), RbDigit::NegOne);
        assert_eq!(n.digit(5), RbDigit::One);
        assert_eq!(n.digit(1), RbDigit::Zero);
        let m = n.with_digit(0, RbDigit::One);
        assert_eq!(m.digit(0), RbDigit::One);
        assert_eq!(m.to_i64(), 33);
    }

    #[test]
    fn zero_iff_all_digits_zero() {
        assert!(RbNumber::ZERO.is_zero());
        // No nonzero digit pattern can sum to zero: the leading digit
        // dominates.
        let n =
            RbNumber::from_digits(&[(5, 1), (4, -1), (3, -1), (2, -1), (1, -1), (0, -1)]).unwrap();
        assert_eq!(n.to_i64(), 1);
        assert!(!n.is_zero());
    }

    #[test]
    fn negation_is_exact() {
        let n = RbNumber::from_i64(i64::MIN);
        assert_eq!(n.negated().value_i128(), -(i64::MIN as i128));
    }

    #[test]
    fn display_trims() {
        let n = RbNumber::from_digits(&[(3, 1), (2, -1)]).unwrap();
        assert_eq!(n.to_string(), "⟨1,-1,0,0⟩");
        assert_eq!(RbNumber::ZERO.to_string(), "⟨0⟩");
    }

    #[test]
    fn leading_nonzero() {
        assert_eq!(RbNumber::ZERO.leading_nonzero(), None);
        let n = RbNumber::from_digits(&[(17, -1)]).unwrap();
        assert_eq!(n.leading_nonzero(), Some(17));
    }

    #[test]
    fn digits_iterator_matches_digit() {
        let n = RbNumber::from_i64(-987654321);
        for (i, d) in n.digits().enumerate() {
            assert_eq!(d, n.digit(i));
        }
    }
}
