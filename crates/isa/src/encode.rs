//! A 32-bit binary encoding of the instruction set.
//!
//! The simulator operates on the structural [`Inst`] form, which allows
//! arbitrary 64-bit immediates for workload-authoring convenience. This
//! module provides an Alpha-flavoured fixed-width encoding for the subset
//! that fits real instruction words — useful for storage, hashing, and as
//! a check that the ISA is implementable:
//!
//! * operate: 7-bit opcode, `ra`, `rc`, and either `rb` or an 8-bit
//!   literal;
//! * memory / `LDA`/`LDAH`: 7-bit opcode, `ra`, `rc`, 15-bit signed
//!   displacement;
//! * branch: 7-bit opcode, `ra` (or link `rc` for `BSR`), 20-bit signed
//!   displacement.
//!
//! Encoding is fallible: immediates and displacements outside these fields
//! report [`EncodeError::FieldOverflow`] (a real compiler would materialize
//! large constants with `LDAH`+`LDA` sequences).

use crate::inst::{Inst, Operand};
use crate::opcode::Opcode;
use crate::reg::Reg;

/// Errors from [`encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate or displacement does not fit its field.
    FieldOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The value that did not fit.
        value: i64,
    },
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::FieldOverflow { field, value } => {
                write!(f, "value {value} does not fit the {field} field")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors from [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The opcode field does not name an instruction.
    BadOpcode(u32),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadOpcode(v) => write!(f, "opcode index {v} is not defined"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn opcode_index(op: Opcode) -> u32 {
    Opcode::all()
        .iter()
        .position(|o| *o == op)
        .expect("opcode in table") as u32
}

fn opcode_from_index(idx: u32) -> Option<Opcode> {
    Opcode::all().get(idx as usize).copied()
}

fn fit_signed(value: i64, bits: u32, field: &'static str) -> Result<u32, EncodeError> {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    if value < min || value > max {
        return Err(EncodeError::FieldOverflow { field, value });
    }
    Ok((value as u32) & ((1 << bits) - 1))
}

fn sext(value: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    (((value as u64) << shift) as i64) >> shift
}

/// Encodes an instruction into a 32-bit word.
///
/// # Errors
///
/// Returns [`EncodeError::FieldOverflow`] when an immediate or displacement
/// does not fit the encoding's field widths.
pub fn encode(inst: &Inst) -> Result<u32, EncodeError> {
    let op = opcode_index(inst.op) << 25;
    let ra = (inst.ra.0 as u32 & 31) << 20;
    let rc = (inst.rc.0 as u32 & 31) << 15;
    Ok(
        if inst.op.is_mem() || matches!(inst.op, Opcode::Lda | Opcode::Ldah) {
            op | ra | rc | fit_signed(inst.disp, 15, "memory displacement")?
        } else if inst.op.is_conditional_branch() || matches!(inst.op, Opcode::Br | Opcode::Bsr) {
            // BSR stores its link register where conditionals store the test
            // register; the decoder routes by opcode.
            let reg_field = if inst.op == Opcode::Bsr {
                inst.rc.0
            } else {
                inst.ra.0
            };
            op | ((reg_field as u32 & 31) << 20) | fit_signed(inst.disp, 20, "branch displacement")?
        } else if inst.op.is_indirect() || inst.op == Opcode::Halt {
            op | ra | rc
        } else {
            match inst.rb {
                Operand::Reg(r) => op | ra | rc | ((r.0 as u32 & 31) << 9),
                Operand::Imm(v) => {
                    op | ra | rc | (1 << 14) | (fit_signed(v, 8, "operate literal")? << 6)
                }
            }
        },
    )
}

/// Decodes a 32-bit word back into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError::BadOpcode`] for undefined opcode indices.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let idx = word >> 25;
    let op = opcode_from_index(idx).ok_or(DecodeError::BadOpcode(idx))?;
    let ra = Reg(((word >> 20) & 31) as u8);
    let rc = Reg(((word >> 15) & 31) as u8);
    Ok(if op.is_mem() || matches!(op, Opcode::Lda | Opcode::Ldah) {
        Inst {
            op,
            ra,
            rb: Operand::Imm(0),
            rc,
            disp: sext(word & 0x7fff, 15),
        }
    } else if op.is_conditional_branch() || matches!(op, Opcode::Br | Opcode::Bsr) {
        let link = Reg(((word >> 20) & 31) as u8);
        Inst {
            op,
            ra: if op == Opcode::Bsr { Reg::R31 } else { link },
            rb: Operand::Imm(0),
            rc: if op == Opcode::Bsr { link } else { Reg::R31 },
            disp: sext(word & 0xfffff, 20),
        }
    } else if op.is_indirect() || op == Opcode::Halt {
        Inst {
            op,
            ra,
            rb: Operand::Imm(0),
            rc,
            disp: 0,
        }
    } else {
        let rb = if (word >> 14) & 1 == 1 {
            Operand::Imm(sext((word >> 6) & 0xff, 8))
        } else {
            Operand::Reg(Reg(((word >> 9) & 31) as u8))
        };
        Inst {
            op,
            ra,
            rb,
            rc,
            disp: 0,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(i: Inst) {
        let w = encode(&i).unwrap_or_else(|e| panic!("{i}: {e}"));
        let back = decode(w).unwrap();
        assert_eq!(i, back, "word {w:#010x}");
    }

    #[test]
    fn operate_round_trips() {
        round_trip(Inst::op(Opcode::Addq, Reg(1), Operand::Reg(Reg(2)), Reg(3)));
        round_trip(Inst::op(Opcode::Xor, Reg(9), Operand::Imm(-5), Reg(10)));
        round_trip(Inst::op(Opcode::S8addq, Reg(31), Operand::Imm(127), Reg(0)));
        round_trip(Inst::op(
            Opcode::Cmovlt,
            Reg(4),
            Operand::Reg(Reg(5)),
            Reg(6),
        ));
    }

    #[test]
    fn memory_round_trips() {
        round_trip(Inst::mem(Opcode::Ldq, Reg(5), Reg(6), 8184));
        round_trip(Inst::mem(Opcode::Stb, Reg(5), Reg(6), -16384));
        round_trip(Inst::lda(Opcode::Lda, Reg(1), -1, Reg(2)));
        round_trip(Inst::lda(Opcode::Ldah, Reg(1), 16000, Reg(2)));
    }

    #[test]
    fn control_round_trips() {
        round_trip(Inst::branch(Opcode::Beq, Reg(3), -100));
        round_trip(Inst::branch(Opcode::Blbs, Reg(3), 52_428));
        round_trip(Inst::br(77));
        round_trip(Inst::bsr(1234, Reg::RA));
        round_trip(Inst::ret(Reg::RA));
        round_trip(Inst::halt());
    }

    #[test]
    fn overflow_is_reported() {
        let big = Inst::op(Opcode::Addq, Reg(1), Operand::Imm(300), Reg(2));
        assert!(matches!(
            encode(&big),
            Err(EncodeError::FieldOverflow {
                field: "operate literal",
                ..
            })
        ));
        let far = Inst::mem(Opcode::Ldq, Reg(1), Reg(2), 1 << 20);
        assert!(encode(&far).is_err());
    }

    #[test]
    fn bad_opcode_is_reported() {
        let bad = 127u32 << 25;
        assert_eq!(decode(bad), Err(DecodeError::BadOpcode(127)));
    }

    #[test]
    fn every_opcode_fits_seven_bits() {
        assert!(Opcode::all().len() <= 128);
        for &op in Opcode::all() {
            assert_eq!(opcode_from_index(opcode_index(op)), Some(op));
        }
    }
}
