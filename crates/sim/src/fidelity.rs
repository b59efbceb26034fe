//! The redundant-datapath check: Brown & Patt's premise (§3) that
//! redundant values pass from RB op to RB op with no conversion, tested
//! over a program's retired stream.
//!
//! [`check`] runs the emulator beside a shadow register file of genuine
//! redundant representations. Each redundant-capable operation is
//! recomputed with `redbin-arith`'s hardware algorithms over the shadow
//! operands, unconverted, as the bypass network would deliver them, and
//! must equal the emulator's result as a 64-bit pattern. Branch conditions
//! are tested on the redundant value, and each load and store index goes
//! through the 3-input modified SAM decoder and must select the cache row
//! of the emulator's address. A [`Faithful`](crate::DatapathMode::Faithful)
//! simulation runs the pass once, before its timing run.
//!
//! # Example
//!
//! ```
//! use redbin_sim::fidelity;
//! use redbin_workload::{Benchmark, Scale};
//!
//! let program = Benchmark::Gap.program(Scale::Test);
//! let (checks, state) = fidelity::check(&program, u64::MAX).expect("the datapaths agree");
//! assert!(checks > 1000);
//! assert!(state.halted);
//! ```

// The pass runs inside Faithful server jobs: a disagreement is a value.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use redbin_arith::adder::RbAdder;
use redbin_arith::ops::{self, Sign};
use redbin_arith::sam::ModifiedSamDecoder;
use redbin_arith::RbNumber;
use redbin_isa::{ArchState, Emulator, Inst, Opcode, Operand, Program};

use crate::config::DCACHE;

/// The L1 data cache's set-index bits `[lo, hi)`: above the line offset,
/// one bit per doubling of the set count.
const DCACHE_INDEX_BITS: (u32, u32) = {
    let (bytes, ways, line, _) = DCACHE;
    let lo = line.trailing_zeros();
    (lo, lo + (bytes / (ways * line)).trailing_zeros())
};

/// The first instruction at which the redundant datapath and the
/// architectural emulator disagree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// Static index of the instruction.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// What was compared: `"result"`, `"branch test"` or `"SAM row"`.
    pub what: &'static str,
    /// The redundant datapath's value: a result as a 64-bit pattern, a
    /// branch outcome as 0 or 1, or a cache row.
    pub redundant: u64,
    /// The emulator's value, in the same terms.
    pub architectural: u64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "redundant {} diverged at pc {} ({}): {:#x} vs architectural {:#x}",
            self.what, self.pc, self.inst, self.redundant, self.architectural
        )
    }
}

impl std::error::Error for Divergence {}

/// Runs `program` for at most `max_steps` instructions on the emulator and
/// the redundant shadow datapath side by side, and returns how many
/// comparisons it made and the emulator's final state.
///
/// The pass stops early when the program halts or faults. A fault or an
/// exhausted budget is not a divergence; the final state tells the three
/// stops apart: `halted`, a `pc` outside the code (a fault), or neither
/// (the budget ran out).
///
/// # Errors
///
/// Returns the first [`Divergence`].
pub fn check(program: &Program, max_steps: u64) -> Result<(u64, ArchState), Divergence> {
    use Opcode::*;
    let sam = ModifiedSamDecoder::new(DCACHE_INDEX_BITS.0, DCACHE_INDEX_BITS.1);
    let mut emu = Emulator::new(program);
    // r31 is never written, so it reads zero, as it does architecturally.
    let mut shadow = [RbNumber::ZERO; 32];
    for &(r, v) in &program.init_regs {
        if r < 31 {
            shadow[r as usize] = RbNumber::from_i64(v as i64);
        }
    }
    let mut checks = 0;
    for _ in 0..max_steps {
        // The operands are read before the step overwrites them.
        let Some(inst) = emu.current_inst() else {
            break;
        };
        let a = shadow[inst.ra.index()];
        let (b, b_val) = match inst.rb {
            Operand::Reg(r) => (shadow[r.index()], emu.reg(r)),
            Operand::Imm(v) => (RbNumber::from_i64(v), v as u64),
        };
        let old = shadow[inst.rc.index()];
        let Ok(retired) = emu.step() else {
            break;
        };
        let diverged = |what, redundant, architectural| Divergence {
            pc: retired.pc,
            inst,
            what,
            redundant,
            architectural,
        };
        let computed = match inst.op {
            Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc => {
                if let Some(taken) = retired.taken {
                    let cond = condition(inst.op, a);
                    if cond != taken {
                        return Err(diverged("branch test", cond.into(), taken.into()));
                    }
                    checks += 1;
                }
                None
            }
            Ldq | Ldl | Ldbu | Stq | Stl | Stb => {
                if let Some(ea) = retired.ea {
                    let row = sam.decode(a, inst.disp as u64) as u64;
                    let (lo, hi) = DCACHE_INDEX_BITS;
                    let ea_row = (ea >> lo) & ((1 << (hi - lo)) - 1);
                    if row != ea_row {
                        return Err(diverged("SAM row", row, ea_row));
                    }
                    checks += 1;
                }
                None
            }
            _ => redundant_result(&inst, a, b, old, b_val),
        };
        match (computed, retired.write) {
            (Some(rb), Some((dest, val))) => {
                if rb.to_u64() != val {
                    return Err(diverged("result", rb.to_u64(), val));
                }
                checks += 1;
                if !dest.is_zero_reg() {
                    shadow[dest.index()] = rb; // keep the redundant form!
                }
            }
            // Other ops refresh the shadow from the architectural value
            // (hardwired TC→RB conversion).
            (None, Some((dest, val))) if !dest.is_zero_reg() => {
                shadow[dest.index()] = RbNumber::from_i64(val as i64);
            }
            // A redundant op writing r31 has nothing to compare.
            _ => {}
        }
    }
    Ok((checks, emu.arch_state()))
}

/// `inst`'s result on the redundant datapath, from its operands `a` and
/// `b` (`b_val` architecturally) and its destination's `old` value, or
/// `None` if the redundant ALUs do not compute it.
fn redundant_result(
    inst: &Inst,
    a: RbNumber,
    b: RbNumber,
    old: RbNumber,
    b_val: u64,
) -> Option<RbNumber> {
    use Opcode::*;
    let adder = RbAdder::new();
    Some(match inst.op {
        Addq => adder.add(a, b).sum,
        Subq => adder.sub(a, b).sum,
        Addl => adder.add_longword(a, b).sum,
        Subl => ops::extract_longword(adder.sub(a, b).sum),
        Lda => adder.add_i64(a, inst.disp).sum,
        Ldah => adder.add_i64(a, inst.disp << 16).sum,
        S4addq => ops::scaled_add(&adder, a, 2, b),
        S8addq => ops::scaled_add(&adder, a, 3, b),
        S4subq => ops::scaled_sub(&adder, a, 2, b),
        S8subq => ops::scaled_sub(&adder, a, 3, b),
        Sll => ops::shl_digits(a, (b_val & 63) as u32),
        Cmpeq => RbNumber::from_i64(ops::eq_test(&adder, a, b) as i64),
        // Exact when the difference does not overflow (the regime the
        // hardware sign test covers; see redbin-arith docs).
        Cmplt | Cmple if a.to_i64().checked_sub(b.to_i64()).is_some() => {
            let s = ops::cmp_signed(&adder, a, b);
            let r = match inst.op {
                Cmplt => s == Sign::Negative,
                _ => s != Sign::Positive,
            };
            RbNumber::from_i64(r as i64)
        }
        Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc => {
            if condition(inst.op, a) {
                b
            } else {
                old
            }
        }
        _ => return None,
    })
}

/// The condition a cmov or conditional branch tests, evaluated on the
/// redundant value.
fn condition(op: Opcode, a: RbNumber) -> bool {
    use Opcode::*;
    match op {
        Cmoveq | Beq => a.is_zero(),
        Cmovne | Bne => !a.is_zero(),
        Cmovlt | Blt => ops::sign(a) == Sign::Negative,
        Cmovge | Bge => ops::sign(a) != Sign::Negative,
        Cmovle | Ble => ops::sign(a) != Sign::Positive,
        Cmovgt | Bgt => ops::sign(a) == Sign::Positive,
        Cmovlbs | Blbs => ops::lsb_set(a),
        _ => !ops::lsb_set(a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::Reg;

    #[test]
    fn the_pass_checks_until_halt_a_fault_or_its_budget() {
        // r1 = 5; r2 = r1 - 7; r3 = 4*r2 + r1; a branch on r3's sign.
        let chain = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(5), Reg(1)),
            Inst::op(Opcode::Subq, Reg(1), Operand::Imm(7), Reg(2)),
            Inst::op(Opcode::S4addq, Reg(2), Operand::Reg(Reg(1)), Reg(3)),
            Inst::branch(Opcode::Blt, Reg(3), 0),
            Inst::halt(),
        ]);
        let (checks, state) = check(&chain, u64::MAX).expect("agrees");
        assert_eq!((checks, state.halted, state.retired), (4, true, 5));
        // Without the halt the pc leaves the code after the branch.
        let falls_off = Program::new(chain.code[..4].to_vec());
        let (checks, state) = check(&falls_off, u64::MAX).expect("agrees");
        assert_eq!((checks, state.halted, state.pc), (4, false, 4));
        // Its first add and a branch back to it never halt.
        let spin = Program::new(vec![chain.code[0], Inst::br(-2)]);
        let (checks, state) = check(&spin, 1000).expect("agrees");
        assert_eq!((checks, state.halted, state.retired), (500, false, 1000));
    }

    #[test]
    fn a_divergence_names_the_instruction_and_both_values() {
        let d = Divergence {
            pc: 7,
            inst: Inst::op(Opcode::Subq, Reg(1), Operand::Imm(2), Reg(3)),
            what: "result",
            redundant: 3,
            architectural: u64::MAX,
        };
        assert_eq!(
            d.to_string(),
            "redundant result diverged at pc 7 (subq r1, #2, r3): 0x3 vs architectural \
             0xffffffffffffffff"
        );
    }
}
