//! The architectural (functional) emulator.
//!
//! This is the golden model: the timing simulator uses it as an oracle
//! front end (executing each instruction as it is fetched so branch
//! outcomes and memory addresses are known), and the redundant-datapath
//! fidelity tests compare `redbin-arith` results against it.

use crate::inst::{Inst, Operand};
use crate::mem::Memory;
use crate::opcode::Opcode;
use crate::program::Program;
use crate::reg::{Reg, NUM_REGS};

/// A fully executed (retired) dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Retired {
    /// The instruction's static index.
    pub pc: usize,
    /// The instruction itself.
    pub inst: Inst,
    /// The next program counter (reflects taken branches).
    pub next_pc: usize,
    /// The architectural write performed, if any.
    pub write: Option<(Reg, u64)>,
    /// The effective address, for memory operations.
    pub ea: Option<u64>,
    /// The value stored, for stores.
    pub store_value: Option<u64>,
    /// For control transfers: whether the branch was taken.
    pub taken: Option<bool>,
}

/// A snapshot of final architectural state, for differential comparison
/// between executors (pure emulator, fast timing simulator, faithful
/// timing simulator): registers, control state, and a content digest of
/// memory. Two executions of the same program must produce equal
/// snapshots; [`ArchState::diff`] renders the first disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// Final architectural register values (`r31` is always zero).
    pub regs: [u64; NUM_REGS],
    /// Final program counter (the `Halt` site for halted programs).
    pub pc: usize,
    /// Instructions retired, including the `Halt`.
    pub retired: u64,
    /// Whether the program reached `Halt`.
    pub halted: bool,
    /// [`Memory::digest`] of the final memory image.
    pub mem_digest: u64,
}

impl ArchState {
    /// Describes the first field where two snapshots disagree, or `None`
    /// when they are equal — the failure message of the differential tests.
    pub fn diff(&self, other: &ArchState) -> Option<String> {
        for i in 0..NUM_REGS {
            if self.regs[i] != other.regs[i] {
                return Some(format!("r{i}: {:#x} vs {:#x}", self.regs[i], other.regs[i]));
            }
        }
        if self.pc != other.pc {
            return Some(format!("pc: {} vs {}", self.pc, other.pc));
        }
        if self.retired != other.retired {
            return Some(format!("retired: {} vs {}", self.retired, other.retired));
        }
        if self.halted != other.halted {
            return Some(format!("halted: {} vs {}", self.halted, other.halted));
        }
        if self.mem_digest != other.mem_digest {
            return Some(format!(
                "memory digest: {:#018x} vs {:#018x}",
                self.mem_digest, other.mem_digest
            ));
        }
        None
    }
}

/// Errors from stepping the emulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepError {
    /// The program has executed `Halt`.
    Halted,
    /// The program counter left the code region.
    PcOutOfRange(usize),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Halted => write!(f, "program has halted"),
            StepError::PcOutOfRange(pc) => write!(f, "pc {pc} is outside the code region"),
        }
    }
}

impl std::error::Error for StepError {}

/// The architectural executor.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct Emulator {
    code: Vec<Inst>,
    regs: [u64; NUM_REGS],
    pc: usize,
    mem: Memory,
    halted: bool,
    retired: u64,
}

impl Emulator {
    /// Creates an emulator with the program's initial memory image,
    /// registers and entry point.
    pub fn new(prog: &Program) -> Self {
        let mut regs = [0u64; NUM_REGS];
        for &(r, v) in &prog.init_regs {
            if (r as usize) < NUM_REGS && r != 31 {
                regs[r as usize] = v;
            }
        }
        Emulator {
            code: prog.code.clone(),
            regs,
            pc: prog.entry,
            mem: prog.initial_memory(),
            halted: false,
            retired: 0,
        }
    }

    /// The instruction at the current program counter — the one the next
    /// [`step`](Self::step) executes — or `None` if the pc is outside the
    /// code.
    pub fn current_inst(&self) -> Option<Inst> {
        self.code.get(self.pc).copied()
    }

    /// Reads an architectural register (`r31` reads zero).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero_reg() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (`r31` writes are discarded).
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero_reg() {
            self.regs[r.index()] = v;
        }
    }

    /// The memory image.
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// `true` once `Halt` has executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Snapshots the architectural state for differential comparison.
    pub fn arch_state(&self) -> ArchState {
        ArchState {
            regs: self.regs,
            pc: self.pc,
            retired: self.retired,
            halted: self.halted,
            mem_digest: self.mem.digest(),
        }
    }

    /// Number of instructions retired so far, counting the `Halt` once it
    /// has executed.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    fn operand(&self, o: Operand) -> u64 {
        match o {
            Operand::Reg(r) => self.reg(r),
            Operand::Imm(v) => v as u64,
        }
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::Halted`] once the program has halted (the
    /// `Halt` itself is reported as a normal retirement) and
    /// [`StepError::PcOutOfRange`] if control flowed outside the code.
    pub fn step(&mut self) -> Result<Retired, StepError> {
        if self.halted {
            return Err(StepError::Halted);
        }
        let pc = self.pc;
        let inst = *self.code.get(pc).ok_or(StepError::PcOutOfRange(pc))?;
        let op = inst.op;
        let a = self.reg(inst.ra);
        let b = self.operand(inst.rb);
        let mut next_pc = pc + 1;
        let mut write: Option<(Reg, u64)> = None;
        let mut ea: Option<u64> = None;
        let mut store_value: Option<u64> = None;
        let mut taken: Option<bool> = None;

        let branch_target = |disp: i64| (pc as i64 + 1 + disp) as usize;
        let sext32 = |v: u64| ((v as u32) as i32) as i64 as u64;

        use Opcode::*;
        match op {
            Addq => write = Some((inst.rc, a.wrapping_add(b))),
            Subq => write = Some((inst.rc, a.wrapping_sub(b))),
            Addl => write = Some((inst.rc, sext32(a.wrapping_add(b)))),
            Subl => write = Some((inst.rc, sext32(a.wrapping_sub(b)))),
            Lda => write = Some((inst.rc, a.wrapping_add(inst.disp as u64))),
            Ldah => write = Some((inst.rc, a.wrapping_add((inst.disp as u64) << 16))),
            S4addq => write = Some((inst.rc, (a << 2).wrapping_add(b))),
            S8addq => write = Some((inst.rc, (a << 3).wrapping_add(b))),
            S4subq => write = Some((inst.rc, (a << 2).wrapping_sub(b))),
            S8subq => write = Some((inst.rc, (a << 3).wrapping_sub(b))),
            Mulq => write = Some((inst.rc, a.wrapping_mul(b))),
            Mull => write = Some((inst.rc, sext32(a.wrapping_mul(b)))),
            Sll => write = Some((inst.rc, a << (b & 63))),
            Srl => write = Some((inst.rc, a >> (b & 63))),
            Sra => write = Some((inst.rc, ((a as i64) >> (b & 63)) as u64)),
            And => write = Some((inst.rc, a & b)),
            Bis => write = Some((inst.rc, a | b)),
            Xor => write = Some((inst.rc, a ^ b)),
            Bic => write = Some((inst.rc, a & !b)),
            Ornot => write = Some((inst.rc, a | !b)),
            Eqv => write = Some((inst.rc, a ^ !b)),
            Cmpeq => write = Some((inst.rc, (a == b) as u64)),
            Cmplt => write = Some((inst.rc, ((a as i64) < (b as i64)) as u64)),
            Cmple => write = Some((inst.rc, ((a as i64) <= (b as i64)) as u64)),
            Cmpult => write = Some((inst.rc, (a < b) as u64)),
            Cmpule => write = Some((inst.rc, (a <= b) as u64)),
            Cmoveq | Cmovne | Cmovlt | Cmovge | Cmovle | Cmovgt | Cmovlbs | Cmovlbc => {
                let cond = match op {
                    Cmoveq => a == 0,
                    Cmovne => a != 0,
                    Cmovlt => (a as i64) < 0,
                    Cmovge => (a as i64) >= 0,
                    Cmovle => (a as i64) <= 0,
                    Cmovgt => (a as i64) > 0,
                    Cmovlbs => a & 1 == 1,
                    Cmovlbc => a & 1 == 0,
                    _ => unreachable!(),
                };
                let old = self.reg(inst.rc);
                write = Some((inst.rc, if cond { b } else { old }));
            }
            Extbl => write = Some((inst.rc, (a >> ((b & 7) * 8)) & 0xff)),
            Extwl => write = Some((inst.rc, (a >> ((b & 7) * 8)) & 0xffff)),
            Extll => write = Some((inst.rc, (a >> ((b & 7) * 8)) & 0xffff_ffff)),
            Insbl => write = Some((inst.rc, (a & 0xff) << ((b & 7) * 8))),
            Mskbl => write = Some((inst.rc, a & !(0xffu64 << ((b & 7) * 8)))),
            Zap => {
                let mut v = a;
                for i in 0..8 {
                    if (b >> i) & 1 == 1 {
                        v &= !(0xffu64 << (i * 8));
                    }
                }
                write = Some((inst.rc, v));
            }
            Zapnot => {
                let mut v = 0;
                for i in 0..8 {
                    if (b >> i) & 1 == 1 {
                        v |= a & (0xffu64 << (i * 8));
                    }
                }
                write = Some((inst.rc, v));
            }
            Sextb => write = Some((inst.rc, (a as u8 as i8) as i64 as u64)),
            Sextw => write = Some((inst.rc, (a as u16 as i16) as i64 as u64)),
            Ctlz => write = Some((inst.rc, a.leading_zeros() as u64)),
            Cttz => write = Some((inst.rc, a.trailing_zeros() as u64)),
            Ctpop => write = Some((inst.rc, a.count_ones() as u64)),
            Ldq | Ldl | Ldbu => {
                let addr = a.wrapping_add(inst.disp as u64);
                ea = Some(addr);
                let v = match op {
                    Ldq => self.mem.read_u64(addr),
                    Ldl => sext32(self.mem.read_u32(addr) as u64),
                    Ldbu => self.mem.read_u8(addr) as u64,
                    _ => unreachable!(),
                };
                write = Some((inst.rc, v));
            }
            Stq | Stl | Stb => {
                let addr = a.wrapping_add(inst.disp as u64);
                ea = Some(addr);
                let v = self.reg(inst.rc);
                store_value = Some(v);
                match op {
                    Stq => self.mem.write_u64(addr, v),
                    Stl => self.mem.write_u32(addr, v as u32),
                    Stb => self.mem.write_u8(addr, v as u8),
                    _ => unreachable!(),
                }
            }
            Beq | Bne | Blt | Bge | Ble | Bgt | Blbs | Blbc => {
                let t = match op {
                    Beq => a == 0,
                    Bne => a != 0,
                    Blt => (a as i64) < 0,
                    Bge => (a as i64) >= 0,
                    Ble => (a as i64) <= 0,
                    Bgt => (a as i64) > 0,
                    Blbs => a & 1 == 1,
                    Blbc => a & 1 == 0,
                    _ => unreachable!(),
                };
                taken = Some(t);
                if t {
                    next_pc = branch_target(inst.disp);
                }
            }
            Br => {
                taken = Some(true);
                next_pc = branch_target(inst.disp);
            }
            Bsr => {
                taken = Some(true);
                write = Some((inst.rc, (pc + 1) as u64));
                next_pc = branch_target(inst.disp);
            }
            Jmp => {
                taken = Some(true);
                write = Some((inst.rc, (pc + 1) as u64));
                next_pc = a as usize;
            }
            Ret => {
                taken = Some(true);
                next_pc = a as usize;
            }
            Fadd | Fmul | Fdiv => {
                let x = f64::from_bits(a);
                let y = f64::from_bits(b);
                let r = match op {
                    Fadd => x + y,
                    Fmul => x * y,
                    Fdiv => x / y,
                    _ => unreachable!(),
                };
                write = Some((inst.rc, r.to_bits()));
            }
            Halt => {
                self.halted = true;
                next_pc = pc;
            }
        }

        if let Some((r, v)) = write {
            self.set_reg(r, v);
            if r.is_zero_reg() {
                write = None;
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(Retired {
            pc,
            inst,
            next_pc,
            write,
            ea,
            store_value,
            taken,
        })
    }

    /// Runs until `Halt`, returning the number of retired instructions.
    ///
    /// # Errors
    ///
    /// Returns [`StepError::PcOutOfRange`] if control left the code region,
    /// or [`StepError::Halted`] if `max_steps` elapsed without reaching
    /// `Halt` (the program is *not* halted in that case; this reuses the
    /// error type to keep the API small).
    pub fn run(&mut self, max_steps: u64) -> Result<u64, StepError> {
        for _ in 0..max_steps {
            match self.step() {
                Ok(_) => {
                    if self.halted {
                        return Ok(self.retired);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        if self.halted {
            Ok(self.retired)
        } else {
            Err(StepError::Halted)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;

    fn run_prog(code: Vec<Inst>) -> Emulator {
        let p = Program::new(code);
        let mut e = Emulator::new(&p);
        e.run(1_000_000).expect("program should halt");
        e
    }

    #[test]
    fn arithmetic_and_logic() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(100), Reg(1)),
            Inst::op(Opcode::Subq, Reg(1), Operand::Imm(58), Reg(2)), // 42
            Inst::op(Opcode::Sll, Reg(2), Operand::Imm(2), Reg(3)),   // 168
            Inst::op(Opcode::And, Reg(3), Operand::Imm(0xff), Reg(4)),
            Inst::op(Opcode::Xor, Reg(4), Operand::Reg(Reg(2)), Reg(5)),
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 42);
        assert_eq!(e.reg(Reg(3)), 168);
        assert_eq!(e.reg(Reg(5)), 168 ^ 42);
    }

    #[test]
    fn current_inst_is_the_next_to_step() {
        let add = Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(1), Reg(1));
        let mut e = Emulator::new(&Program::new(vec![add, Inst::halt()]));
        assert_eq!(e.current_inst(), Some(add));
        let retired = e.step().expect("steps");
        assert_eq!(retired.inst, add);
        assert_eq!(e.current_inst(), Some(Inst::halt()));
        let mut off_the_end = Emulator::new(&Program::new(vec![add]));
        off_the_end.step().expect("steps");
        assert_eq!(off_the_end.current_inst(), None, "pc past the code");
    }

    #[test]
    fn longword_ops_sign_extend() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x7fff_ffff), Reg(1)),
            Inst::op(Opcode::Addl, Reg(1), Operand::Imm(1), Reg(2)),
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)) as i64, i32::MIN as i64);
    }

    #[test]
    fn scaled_adds() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(10), Reg(1)),
            Inst::op(Opcode::S4addq, Reg(1), Operand::Imm(3), Reg(2)), // 43
            Inst::op(Opcode::S8subq, Reg(1), Operand::Imm(3), Reg(3)), // 77
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 43);
        assert_eq!(e.reg(Reg(3)), 77);
    }

    #[test]
    fn compares_and_cmov() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(-5), Reg(1)),
            Inst::op(Opcode::Cmplt, Reg(1), Operand::Imm(0), Reg(2)), // 1
            Inst::op(Opcode::Cmpult, Reg(1), Operand::Imm(0), Reg(3)), // 0 (unsigned -5 is big)
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(7), Reg(4)),
            Inst::op(Opcode::Cmovlt, Reg(1), Operand::Imm(99), Reg(4)), // taken: r4=99
            Inst::op(Opcode::Cmovgt, Reg(1), Operand::Imm(55), Reg(4)), // not taken
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 1);
        assert_eq!(e.reg(Reg(3)), 0);
        assert_eq!(e.reg(Reg(4)), 99);
    }

    #[test]
    fn byte_manipulation() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x1122_3344), Reg(1)),
            Inst::op(Opcode::Extbl, Reg(1), Operand::Imm(1), Reg(2)), // 0x33
            Inst::op(Opcode::Insbl, Reg(2), Operand::Imm(3), Reg(3)), // 0x33000000
            Inst::op(Opcode::Zapnot, Reg(1), Operand::Imm(0b0011), Reg(4)), // 0x3344
            Inst::op(Opcode::Sextb, Reg(1), Operand::Imm(0), Reg(5)), // sext(0x44)=0x44
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 0x33);
        assert_eq!(e.reg(Reg(3)), 0x3300_0000);
        assert_eq!(e.reg(Reg(4)), 0x3344);
        assert_eq!(e.reg(Reg(5)), 0x44);
    }

    #[test]
    fn counts() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x00f0), Reg(1)),
            Inst::op(Opcode::Ctlz, Reg(1), Operand::Imm(0), Reg(2)), // 56
            Inst::op(Opcode::Cttz, Reg(1), Operand::Imm(0), Reg(3)), // 4
            Inst::op(Opcode::Ctpop, Reg(1), Operand::Imm(0), Reg(4)), // 4
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 56);
        assert_eq!(e.reg(Reg(3)), 4);
        assert_eq!(e.reg(Reg(4)), 4);
    }

    #[test]
    fn memory_round_trip() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x1000), Reg(1)),
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(-7), Reg(2)),
            Inst::mem(Opcode::Stq, Reg(2), Reg(1), 8),
            Inst::mem(Opcode::Ldq, Reg(3), Reg(1), 8),
            Inst::mem(Opcode::Stl, Reg(2), Reg(1), 32),
            Inst::mem(Opcode::Ldl, Reg(4), Reg(1), 32),
            Inst::mem(Opcode::Stb, Reg(2), Reg(1), 64),
            Inst::mem(Opcode::Ldbu, Reg(5), Reg(1), 64),
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(3)) as i64, -7);
        assert_eq!(e.reg(Reg(4)) as i64, -7); // sign-extended longword
        assert_eq!(e.reg(Reg(5)), 0xf9); // zero-extended byte of -7
    }

    #[test]
    fn loop_with_branches() {
        // r1 = 10; r2 = 0; while (r1 != 0) { r2 += r1; r1 -= 1 }
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(10), Reg(1)),
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0), Reg(2)),
            Inst::op(Opcode::Addq, Reg(2), Operand::Reg(Reg(1)), Reg(2)),
            Inst::op(Opcode::Subq, Reg(1), Operand::Imm(1), Reg(1)),
            Inst::branch(Opcode::Bne, Reg(1), -3),
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg(2)), 55);
    }

    #[test]
    fn call_and_return() {
        // main: bsr f; halt. f: r1 = 42; ret.
        let e = run_prog(vec![
            Inst::bsr(1, Reg::RA),                                      // 0 -> 2
            Inst::halt(),                                               // 1
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(42), Reg(1)), // 2
            Inst::ret(Reg::RA),                                         // 3 -> 1
        ]);
        assert_eq!(e.reg(Reg(1)), 42);
        assert_eq!(e.reg(Reg::RA), 1);
    }

    #[test]
    fn fp_ops() {
        let p = Program::new(vec![
            Inst::op(Opcode::Fadd, Reg(1), Operand::Reg(Reg(2)), Reg(3)),
            Inst::op(Opcode::Fdiv, Reg(3), Operand::Reg(Reg(2)), Reg(4)),
            Inst::halt(),
        ])
        .with_reg(1, 1.5f64.to_bits())
        .with_reg(2, 2.0f64.to_bits());
        let mut e = Emulator::new(&p);
        e.run(10).unwrap();
        assert_eq!(f64::from_bits(e.reg(Reg(3))), 3.5);
        assert_eq!(f64::from_bits(e.reg(Reg(4))), 1.75);
    }

    #[test]
    fn retired_metadata() {
        let p = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(0x2000), Reg(1)),
            Inst::mem(Opcode::Stq, Reg(1), Reg(1), 0),
            Inst::branch(Opcode::Beq, Reg::R31, 1),
            Inst::halt(), // skipped
            Inst::halt(),
        ]);
        let mut e = Emulator::new(&p);
        let r0 = e.step().unwrap();
        assert_eq!(r0.write, Some((Reg(1), 0x2000)));
        let r1 = e.step().unwrap();
        assert_eq!(r1.ea, Some(0x2000));
        assert_eq!(r1.store_value, Some(0x2000));
        let r2 = e.step().unwrap();
        assert_eq!(r2.taken, Some(true));
        assert_eq!(r2.next_pc, 4);
        let r3 = e.step().unwrap();
        assert_eq!(r3.inst.op, Opcode::Halt);
        assert!(e.is_halted());
        assert!(e.step().is_err());
    }

    #[test]
    fn writes_to_r31_are_discarded() {
        let e = run_prog(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(5), Reg::R31),
            Inst::halt(),
        ]);
        assert_eq!(e.reg(Reg::R31), 0);
    }

    #[test]
    fn arch_state_snapshots_and_diffs() {
        let prog = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(7), Reg(1)),
            Inst::mem(Opcode::Stq, Reg(1), Reg(1), 0x1000),
            Inst::halt(),
        ]);
        let run = |p: &Program| {
            let mut e = Emulator::new(p);
            e.run(100).unwrap();
            e.arch_state()
        };
        let a = run(&prog);
        let b = run(&prog);
        assert_eq!(a, b);
        assert_eq!(a.diff(&b), None);
        assert!(a.halted);
        assert_eq!(a.retired, 3, "halt counts as retired");

        let other = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(8), Reg(1)),
            Inst::mem(Opcode::Stq, Reg(1), Reg(1), 0x1000),
            Inst::halt(),
        ]);
        let c = run(&other);
        let msg = a.diff(&c).expect("states differ");
        assert!(msg.starts_with("r1:"), "{msg}");
    }

    #[test]
    fn pc_out_of_range() {
        let p = Program::new(vec![Inst::br(10)]);
        let mut e = Emulator::new(&p);
        e.step().unwrap();
        assert_eq!(e.step(), Err(StepError::PcOutOfRange(11)));
    }
}
