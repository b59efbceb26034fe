//! The oracle front end: architectural execution at fetch time, with an
//! optional *faithful* redundant binary shadow datapath.
//!
//! In [`DatapathMode::Faithful`], every redundant-capable operation is
//! recomputed with `redbin-arith`'s hardware algorithms over a shadow
//! register file that holds genuine redundant representations — values flow
//! from redundant op to redundant op without conversion, exactly as they
//! would through the machine's bypass network — and each result is asserted
//! equal (as a 64-bit pattern) to the architectural oracle. Load and store
//! indices are additionally pushed through the 3-input modified SAM
//! decoder. A whole benchmark running this way is an end-to-end proof that
//! the redundant machine computes what the 2's-complement machine does.

use redbin_arith::adder::RbAdder;
use redbin_arith::ops;
use redbin_arith::sam::ModifiedSamDecoder;
use redbin_arith::RbNumber;
use redbin_isa::{Emulator, Inst, Opcode, Operand, Program, Reg, StepError};

use crate::config::{DatapathMode, DCACHE};

/// The L1 data cache's set-index bits `[lo, hi)`: above the line offset,
/// one bit per doubling of the set count.
const DCACHE_INDEX_BITS: (u32, u32) = {
    let (bytes, ways, line, _) = DCACHE;
    let lo = line.trailing_zeros();
    (lo, lo + (bytes / (ways * line)).trailing_zeros())
};

/// One dynamic (correct-path) instruction produced by the oracle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynInst {
    /// Dynamic sequence number (0-based).
    pub seq: u64,
    /// Static instruction index.
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// The next correct-path pc.
    pub next_pc: usize,
    /// Branch outcome, for control instructions.
    pub taken: Option<bool>,
    /// Effective address, for memory instructions.
    pub ea: Option<u64>,
}

/// The oracle: steps the architectural emulator and (optionally) the
/// redundant shadow datapath.
#[derive(Debug)]
pub struct Oracle {
    emu: Emulator,
    seq: u64,
    mode: DatapathMode,
    adder: RbAdder,
    shadow: [RbNumber; 32],
    sam: ModifiedSamDecoder,
    checks: u64,
    done: bool,
}

impl Oracle {
    /// Creates the oracle over a program.
    pub fn new(prog: &Program, mode: DatapathMode) -> Self {
        let emu = Emulator::new(prog);
        let mut shadow = [RbNumber::ZERO; 32];
        for &(r, v) in &prog.init_regs {
            if (r as usize) < 32 && r != 31 {
                shadow[r as usize] = RbNumber::from_i64(v as i64);
            }
        }
        Oracle {
            emu,
            seq: 0,
            mode,
            adder: RbAdder::new(),
            shadow,
            sam: ModifiedSamDecoder::new(DCACHE_INDEX_BITS.0, DCACHE_INDEX_BITS.1),
            checks: 0,
            done: false,
        }
    }

    /// Number of shadow-datapath assertions performed so far.
    pub fn fidelity_checks(&self) -> u64 {
        self.checks
    }

    /// Instructions retired by the underlying emulator.
    pub fn retired(&self) -> u64 {
        self.emu.retired()
    }

    /// Snapshots the final architectural state of the underlying emulator
    /// (registers, pc, memory digest) for differential comparison.
    pub fn arch_state(&self) -> redbin_isa::ArchState {
        self.emu.arch_state()
    }

    fn shadow_reg(&self, r: Reg) -> RbNumber {
        if r.is_zero_reg() {
            RbNumber::ZERO
        } else {
            self.shadow[r.index()]
        }
    }

    fn shadow_operand(&self, o: Operand) -> RbNumber {
        match o {
            Operand::Reg(r) => self.shadow_reg(r),
            Operand::Imm(v) => RbNumber::from_i64(v),
        }
    }

    /// The next correct-path instruction, or `None` once the program halts.
    /// (Deliberately named like `Iterator::next`; the `Result` wrapper makes
    /// a literal `Iterator` impl awkward.)
    ///
    /// # Errors
    ///
    /// Propagates emulator errors (pc out of range).
    ///
    /// # Panics
    ///
    /// In faithful mode, panics if the redundant shadow datapath ever
    /// disagrees with the architectural result — that would mean the
    /// redundant machine computes wrong answers.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<DynInst>, StepError> {
        if self.done {
            return Ok(None);
        }
        let faithful = self.mode == DatapathMode::Faithful;
        let pc = self.emu.pc();
        // Capture the shadow operands before the architectural step.
        let (pre_a, pre_b, pre_old, pre_b_val) = if faithful {
            if let Some(i) = self.emu.current_inst() {
                (
                    self.shadow_reg(i.ra),
                    self.shadow_operand(i.rb),
                    self.shadow_reg(i.rc),
                    match i.rb {
                        Operand::Reg(r) => self.emu.reg(r),
                        Operand::Imm(v) => v as u64,
                    },
                )
            } else {
                (RbNumber::ZERO, RbNumber::ZERO, RbNumber::ZERO, 0)
            }
        } else {
            (RbNumber::ZERO, RbNumber::ZERO, RbNumber::ZERO, 0)
        };

        let retired = match self.emu.step() {
            Ok(r) => r,
            Err(StepError::Halted) => {
                self.done = true;
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if retired.inst.op == Opcode::Halt {
            self.done = true;
            return Ok(None);
        }

        if faithful {
            self.check_shadow(&retired.inst, pre_a, pre_b, pre_old, pre_b_val, &retired);
        }

        let d = DynInst {
            seq: self.seq,
            pc,
            inst: retired.inst,
            next_pc: retired.next_pc,
            taken: retired.taken,
            ea: retired.ea,
        };
        self.seq += 1;
        Ok(Some(d))
    }

    /// Runs the redundant shadow datapath for one instruction and asserts
    /// agreement with the architectural result.
    #[allow(clippy::too_many_arguments)]
    fn check_shadow(
        &mut self,
        inst: &Inst,
        a: RbNumber,
        b: RbNumber,
        old: RbNumber,
        b_val: u64,
        retired: &redbin_isa::Retired,
    ) {
        use Opcode::*;
        let adder = self.adder;
        let computed: Option<RbNumber> = match inst.op {
            Addq => Some(adder.add(a, b).sum),
            Subq => Some(adder.sub(a, b).sum),
            Addl => Some(adder.add_longword(a, b).sum),
            Subl => Some(ops::extract_longword(adder.sub(a, b).sum)),
            Lda => Some(adder.add_i64(a, inst.disp).sum),
            Ldah => Some(adder.add_i64(a, inst.disp << 16).sum),
            S4addq => Some(ops::scaled_add(&adder, a, 2, b)),
            S8addq => Some(ops::scaled_add(&adder, a, 3, b)),
            S4subq => Some(ops::scaled_sub(&adder, a, 2, b)),
            S8subq => Some(ops::scaled_sub(&adder, a, 3, b)),
            Sll => Some(ops::shl_digits(a, (b_val & 63) as u32)),
            Cmpeq => Some(RbNumber::from_i64(ops::eq_test(&adder, a, b) as i64)),
            Cmplt | Cmple => {
                // Exact when the difference does not overflow (the regime
                // the hardware sign test covers; see redbin-arith docs).
                let av = a.to_i64();
                let bv = b.to_i64();
                if av.checked_sub(bv).is_some() {
                    let s = ops::cmp_signed(&adder, a, b);
                    let r = match inst.op {
                        Cmplt => s == ops::Sign::Negative,
                        _ => s != ops::Sign::Positive,
                    };
                    Some(RbNumber::from_i64(r as i64))
                } else {
                    None
                }
            }
            Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc => {
                let cond = match inst.op {
                    Cmoveq => a.is_zero(),
                    Cmovne => !a.is_zero(),
                    Cmovlt => ops::sign(a) == ops::Sign::Negative,
                    Cmovge => ops::sign(a) != ops::Sign::Negative,
                    Cmovle => ops::sign(a) != ops::Sign::Positive,
                    Cmovgt => ops::sign(a) == ops::Sign::Positive,
                    Cmovlbs => ops::lsb_set(a),
                    _ => !ops::lsb_set(a),
                };
                Some(if cond { b } else { old })
            }
            Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc => {
                // Branch condition evaluation on the redundant value.
                let cond = match inst.op {
                    Beq => a.is_zero(),
                    Bne => !a.is_zero(),
                    Blt => ops::sign(a) == ops::Sign::Negative,
                    Bge => ops::sign(a) != ops::Sign::Negative,
                    Ble => ops::sign(a) != ops::Sign::Positive,
                    Bgt => ops::sign(a) == ops::Sign::Positive,
                    Blbs => ops::lsb_set(a),
                    _ => !ops::lsb_set(a),
                };
                assert_eq!(
                    Some(cond),
                    retired.taken,
                    "redundant branch test diverged at pc {} ({})",
                    retired.pc,
                    inst
                );
                self.checks += 1;
                None
            }
            Ldq | Ldl | Ldbu | Stq | Stl | Stb => {
                // Push the redundant base + displacement through the
                // modified SAM decoder and compare cache rows.
                let ea = retired.ea.expect("memory op has an address");
                let row = self.sam.decode(a, inst.disp as u64);
                let (lo, hi) = DCACHE_INDEX_BITS;
                assert_eq!(
                    row as u64,
                    (ea >> lo) & ((1 << (hi - lo)) - 1),
                    "modified SAM row diverged at pc {} ({})",
                    retired.pc,
                    inst
                );
                self.checks += 1;
                None
            }
            _ => None,
        };

        if let Some(rb) = computed {
            let (dest, val) = match retired.write {
                Some(w) => w,
                None => {
                    // Write to r31: nothing architectural to compare, but
                    // the shadow math already ran.
                    return;
                }
            };
            assert_eq!(
                rb.to_u64(),
                val,
                "redundant datapath diverged at pc {} ({}): rb={rb:?}",
                retired.pc,
                inst
            );
            self.checks += 1;
            if !dest.is_zero_reg() {
                self.shadow[dest.index()] = rb; // keep the redundant form!
            }
            return;
        }

        // Non-redundant ops: refresh the shadow from the architectural
        // value (hardwired TC→RB conversion).
        if let Some((dest, val)) = retired.write {
            if !dest.is_zero_reg() {
                self.shadow[dest.index()] = RbNumber::from_i64(val as i64);
            }
        }
    }
}
