//! An Alpha-like 64-bit integer ISA with a functional emulator.
//!
//! This crate is the instruction-set substrate for the HPCA 2002
//! reproduction. It provides:
//!
//! * [`Opcode`] / [`Inst`] — the instruction set: the fixed-point
//!   operations of the Alpha ISA the paper classifies in Table 1, a small
//!   floating-point contingent (Table 3 charges them 8/32 cycles), and
//!   branches/jumps.
//! * [`format`](mod@format) — the paper's Table 1 classification: which operations can
//!   consume redundant binary inputs, which must receive 2's complement,
//!   and which format they produce.
//! * [`class`] — the Table 3 latency classes.
//! * [`Emulator`] — an architectural (functional) executor over a sparse
//!   [`Memory`], used as the oracle front end of the timing simulator and
//!   as the golden model for the redundant-datapath fidelity checks.
//! * [`Program`] — static code plus an initial memory image.
//!
//! The instruction encoding is structural (a Rust enum/struct, not bits):
//! the paper's questions are about formats, latencies and bypass networks,
//! none of which depend on binary encodings.
//!
//! # Example
//!
//! ```
//! use redbin_isa::{Emulator, Inst, Opcode, Operand, Program, Reg};
//!
//! // r1 = 20; r2 = 22; r0 = r1 + r2; halt.
//! let prog = Program::new(vec![
//!     Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(20), Reg(1)),
//!     Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(22), Reg(2)),
//!     Inst::op(Opcode::Addq, Reg(1), Operand::Reg(Reg(2)), Reg(0)),
//!     Inst::halt(),
//! ]);
//! let mut emu = Emulator::new(&prog);
//! emu.run(100).unwrap();
//! assert_eq!(emu.reg(Reg(0)), 42);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod class;
pub mod emu;
pub mod format;
pub mod inst;
pub mod mem;
pub mod opcode;
pub mod program;
pub mod reg;

pub use emu::{ArchState, Emulator, Retired, StepError};
pub use inst::{Inst, Operand, SourceRegs};
pub use mem::Memory;
pub use opcode::Opcode;
pub use program::Program;
pub use reg::Reg;
