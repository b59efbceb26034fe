//! The oracle front end: architectural execution at fetch time.
//!
//! The timing core reads the program's correct-path stream from here, one
//! [`DynInst`] at a time, so branch outcomes and memory addresses are
//! exact. The redundant-datapath check runs over the same stream as a
//! pass of its own ([`crate::fidelity`]).

use redbin_isa::{Emulator, Inst, Opcode, Program, StepError};

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

/// The oracle: steps the architectural emulator and numbers what it
/// retires.
#[derive(Debug)]
pub struct Oracle {
    emu: Emulator,
}

impl Oracle {
    /// Creates the oracle over a program.
    pub fn new(prog: &Program) -> Self {
        Oracle {
            emu: Emulator::new(prog),
        }
    }

    /// Snapshots the final architectural state of the underlying emulator
    /// (registers, pc, memory digest) for differential comparison.
    pub fn arch_state(&self) -> redbin_isa::ArchState {
        self.emu.arch_state()
    }

    /// The next correct-path instruction, or `None` once the program halts.
    /// (Deliberately named like `Iterator::next`; the `Result` wrapper makes
    /// a literal `Iterator` impl awkward.)
    ///
    /// # Errors
    ///
    /// Propagates emulator errors (pc out of range).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Option<DynInst>, StepError> {
        match self.emu.step() {
            Ok(r) if r.inst.op != Opcode::Halt => Ok(Some(DynInst {
                // The step just counted this instruction.
                seq: self.emu.retired() - 1,
                pc: r.pc,
                inst: r.inst,
                next_pc: r.next_pc,
                taken: r.taken,
                ea: r.ea,
            })),
            Ok(_) | Err(StepError::Halted) => Ok(None),
            Err(e) => Err(e),
        }
    }
}
