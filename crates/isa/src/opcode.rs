//! The operation set: the fixed-point Alpha instructions classified by the
//! paper, plus branches, jumps and a small floating-point contingent.

use core::fmt;

/// An operation code.
///
/// Naming follows the Alpha ISA (`Bis` is OR, `Lda` is load-address, the
/// `S4`/`S8` prefixes are the scaled adds). Memory, branch and operate
/// instructions all share the [`Inst`](crate::Inst) container; the opcode
/// determines which fields are meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are the ISA; each group is documented
pub enum Opcode {
    // ---- integer arithmetic (redundant-binary capable) ----
    /// Quadword add / subtract.
    Addq,
    Subq,
    /// Longword (32-bit, sign-extending) add / subtract.
    Addl,
    Subl,
    /// Load address: `rc ← ra + disp` (an add with an immediate).
    Lda,
    /// Load address high: `rc ← ra + disp·65536`.
    Ldah,
    /// Scaled adds/subtracts: `rc ← (ra << 2|3) ± rb`.
    S4addq,
    S8addq,
    S4subq,
    S8subq,

    // ---- multiply ----
    /// Quadword / longword multiply.
    Mulq,
    Mull,

    // ---- shifts ----
    /// Shift left logical (digit-shiftable in redundant binary).
    Sll,
    /// Shift right logical / arithmetic (2's complement only).
    Srl,
    Sra,

    // ---- logical (2's complement only) ----
    And,
    /// OR (Alpha calls it BIS).
    Bis,
    Xor,
    /// AND-NOT.
    Bic,
    /// OR-NOT.
    Ornot,
    /// XNOR.
    Eqv,

    // ---- compares (redundant inputs, 2's complement 0/1 result) ----
    Cmpeq,
    Cmplt,
    Cmple,
    Cmpult,
    Cmpule,

    // ---- conditional moves (redundant capable) ----
    Cmoveq,
    Cmovne,
    Cmovlt,
    Cmovge,
    Cmovle,
    Cmovgt,
    /// Conditional move on low bit set / clear.
    Cmovlbs,
    Cmovlbc,

    // ---- byte manipulation (2's complement only) ----
    /// Extract byte/word/longword low.
    Extbl,
    Extwl,
    Extll,
    /// Insert byte low.
    Insbl,
    /// Mask byte low.
    Mskbl,
    /// Zero bytes / zero bytes NOT.
    Zap,
    Zapnot,
    /// Sign-extend byte / word.
    Sextb,
    Sextw,

    // ---- counts (2's complement only) ----
    Ctlz,
    Cttz,
    Ctpop,

    // ---- memory ----
    /// Load quadword / longword (sign-extending) / byte (zero-extending).
    Ldq,
    Ldl,
    Ldbu,
    /// Store quadword / longword / byte.
    Stq,
    Stl,
    Stb,

    // ---- control ----
    /// Conditional branches on `ra` relative to zero (or its low bit).
    Beq,
    Bne,
    Blt,
    Bge,
    Ble,
    Bgt,
    Blbs,
    Blbc,
    /// Unconditional branch.
    Br,
    /// Branch to subroutine: writes the return index to `rc`.
    Bsr,
    /// Indirect jump to the instruction index in `ra`; writes return to `rc`.
    Jmp,
    /// Return: indirect jump to `ra` (no link write).
    Ret,

    // ---- floating point (bits-in-integer-registers model) ----
    /// f64 add / multiply / divide on register bit patterns.
    Fadd,
    Fmul,
    Fdiv,

    /// Stops the emulator (stands in for the OS exit path).
    Halt,
}

impl Opcode {
    /// `true` for conditional branches (not `Br`/`Bsr`/`Jmp`/`Ret`).
    pub fn is_conditional_branch(self) -> bool {
        use Opcode::*;
        matches!(self, Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc)
    }

    /// `true` for any control-transfer instruction.
    pub fn is_control(self) -> bool {
        use Opcode::*;
        self.is_conditional_branch() || matches!(self, Br | Bsr | Jmp | Ret)
    }

    /// `true` for indirect control transfers.
    pub fn is_indirect(self) -> bool {
        matches!(self, Opcode::Jmp | Opcode::Ret)
    }

    /// `true` for calls (instructions that push a return address,
    /// steering the return-address stack).
    pub fn is_call(self) -> bool {
        matches!(self, Opcode::Bsr | Opcode::Jmp)
    }

    /// `true` for returns.
    pub fn is_return(self) -> bool {
        matches!(self, Opcode::Ret)
    }

    /// `true` for loads.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Ldq | Opcode::Ldl | Opcode::Ldbu)
    }

    /// `true` for stores.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Stq | Opcode::Stl | Opcode::Stb)
    }

    /// `true` for any memory access.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// `true` for conditional moves (whose destination is also a source).
    pub fn is_cmov(self) -> bool {
        use Opcode::*;
        matches!(
            self,
            Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc
        )
    }

    /// `true` if the instruction writes a destination register.
    pub fn writes_dest(self) -> bool {
        use Opcode::*;
        !(self.is_store() || self.is_conditional_branch() || matches!(self, Br | Ret | Halt))
    }

    /// A short mnemonic for display.
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            Addq => "addq",
            Subq => "subq",
            Addl => "addl",
            Subl => "subl",
            Lda => "lda",
            Ldah => "ldah",
            S4addq => "s4addq",
            S8addq => "s8addq",
            S4subq => "s4subq",
            S8subq => "s8subq",
            Mulq => "mulq",
            Mull => "mull",
            Sll => "sll",
            Srl => "srl",
            Sra => "sra",
            And => "and",
            Bis => "bis",
            Xor => "xor",
            Bic => "bic",
            Ornot => "ornot",
            Eqv => "eqv",
            Cmpeq => "cmpeq",
            Cmplt => "cmplt",
            Cmple => "cmple",
            Cmpult => "cmpult",
            Cmpule => "cmpule",
            Cmoveq => "cmoveq",
            Cmovne => "cmovne",
            Cmovlt => "cmovlt",
            Cmovge => "cmovge",
            Cmovle => "cmovle",
            Cmovgt => "cmovgt",
            Cmovlbs => "cmovlbs",
            Cmovlbc => "cmovlbc",
            Extbl => "extbl",
            Extwl => "extwl",
            Extll => "extll",
            Insbl => "insbl",
            Mskbl => "mskbl",
            Zap => "zap",
            Zapnot => "zapnot",
            Sextb => "sextb",
            Sextw => "sextw",
            Ctlz => "ctlz",
            Cttz => "cttz",
            Ctpop => "ctpop",
            Ldq => "ldq",
            Ldl => "ldl",
            Ldbu => "ldbu",
            Stq => "stq",
            Stl => "stl",
            Stb => "stb",
            Beq => "beq",
            Bne => "bne",
            Blt => "blt",
            Bge => "bge",
            Ble => "ble",
            Bgt => "bgt",
            Blbs => "blbs",
            Blbc => "blbc",
            Br => "br",
            Bsr => "bsr",
            Jmp => "jmp",
            Ret => "ret",
            Fadd => "fadd",
            Fmul => "fmul",
            Fdiv => "fdiv",
            Halt => "halt",
        }
    }

    /// Every opcode, for exhaustive table-driven tests.
    pub fn all() -> &'static [Opcode] {
        use Opcode::*;
        &[
            Addq, Subq, Addl, Subl, Lda, Ldah, S4addq, S8addq, S4subq, S8subq, Mulq, Mull, Sll,
            Srl, Sra, And, Bis, Xor, Bic, Ornot, Eqv, Cmpeq, Cmplt, Cmple, Cmpult, Cmpule, Cmoveq,
            Cmovne, Cmovlt, Cmovge, Cmovle, Cmovgt, Cmovlbs, Cmovlbc, Extbl, Extwl, Extll, Insbl,
            Mskbl, Zap, Zapnot, Sextb, Sextw, Ctlz, Cttz, Ctpop, Ldq, Ldl, Ldbu, Stq, Stl, Stb,
            Beq, Bne, Blt, Bge, Ble, Bgt, Blbs, Blbc, Br, Bsr, Jmp, Ret, Fadd, Fmul, Fdiv, Halt,
        ]
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_are_disjoint_where_expected() {
        for &op in Opcode::all() {
            assert!(
                !(op.is_load() && op.is_store()),
                "{op} is both load and store"
            );
            if op.is_conditional_branch() {
                assert!(op.is_control());
                assert!(!op.writes_dest());
            }
        }
    }

    #[test]
    fn linking_jumps_write_dest() {
        assert!(Opcode::Bsr.writes_dest());
        assert!(Opcode::Jmp.writes_dest());
        assert!(!Opcode::Ret.writes_dest());
        assert!(!Opcode::Br.writes_dest());
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }

    #[test]
    fn all_is_exhaustive_for_display() {
        // Every opcode formats without panicking and is lowercase.
        for &op in Opcode::all() {
            let m = op.to_string();
            assert_eq!(m, m.to_lowercase());
        }
    }
}
