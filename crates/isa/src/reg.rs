//! Architectural registers.

use core::fmt;

/// An architectural integer register, `r0`–`r31`.
///
/// `r31` reads as zero and discards writes, exactly like the Alpha ISA.
///
/// # Example
///
/// ```
/// use redbin_isa::Reg;
///
/// assert!(Reg(31).is_zero_reg());
/// assert_eq!(Reg::R31, Reg(31));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

/// The number of architectural registers.
pub const NUM_REGS: usize = 32;

impl Reg {
    /// The always-zero register, `r31`.
    pub const R31: Reg = Reg(31);

    /// Conventional return-address register (`r26`), used by `BSR`/`RET`.
    pub const RA: Reg = Reg(26);

    /// `true` for `r31`, which always reads zero and ignores writes.
    #[inline]
    pub fn is_zero_reg(self) -> bool {
        self.0 == 31
    }

    /// The register index as a usize.
    ///
    /// # Panics
    ///
    /// Panics if the register number is out of range (≥ 32); `Reg` values
    /// should only be constructed with indices below [`NUM_REGS`].
    #[inline]
    pub fn index(self) -> usize {
        assert!((self.0 as usize) < NUM_REGS, "register {self} out of range");
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

impl From<u8> for Reg {
    fn from(v: u8) -> Self {
        Reg(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_reg() {
        assert!(Reg::R31.is_zero_reg());
        assert!(!Reg(0).is_zero_reg());
    }

    #[test]
    fn display() {
        assert_eq!(Reg(7).to_string(), "r7");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn index_rejects_out_of_range() {
        let _ = Reg(32).index();
    }
}
