//! A tiny assembler: label-based control flow over the structural ISA.

use std::collections::HashMap;

use redbin_isa::{Inst, Opcode, Operand, Program, Reg};

/// A pending instruction: either final, or a branch awaiting label
/// resolution.
#[derive(Debug, Clone)]
enum Pending {
    Done(Inst),
    Branch {
        op: Opcode,
        ra: Reg,
        rc: Reg,
        label: String,
    },
}

/// A small assembler with labels and builder-style helpers.
///
/// Branch displacements are expressed as labels and resolved at
/// [`assemble`](Asm::assemble) time. Register conventions are up to the
/// caller.
///
/// # Example
///
/// ```
/// use redbin_workload::Asm;
/// use redbin_isa::{Emulator, Reg};
///
/// let mut a = Asm::new("sum-to-ten");
/// a.li(Reg(1), 10);
/// a.li(Reg(2), 0);
/// a.label("loop");
/// a.addq(Reg(2), Reg(1), Reg(2));
/// a.subq_imm(Reg(1), 1, Reg(1));
/// a.bne(Reg(1), "loop");
/// a.halt();
/// let prog = a.assemble();
/// let mut emu = Emulator::new(&prog);
/// emu.run(1000).unwrap();
/// assert_eq!(emu.reg(Reg(2)), 55);
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    name: String,
    insts: Vec<Pending>,
    labels: HashMap<String, usize>,
    data: Vec<(u64, Vec<u8>)>,
    init_regs: Vec<(u8, u64)>,
    regions: Vec<(u64, u64)>,
}

impl Asm {
    /// Creates an empty assembler for a program with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Asm {
            name: name.into(),
            insts: Vec::new(),
            labels: HashMap::new(),
            data: Vec::new(),
            init_regs: Vec::new(),
            regions: Vec::new(),
        }
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already defined.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let prev = self.labels.insert(name.clone(), self.insts.len());
        assert!(prev.is_none(), "label `{name}` defined twice");
    }

    /// Emits a raw instruction.
    pub fn inst(&mut self, i: Inst) {
        self.insts.push(Pending::Done(i));
    }

    /// Emits an operate instruction `rc ← ra ⊕ rb`.
    pub fn op(&mut self, op: Opcode, ra: Reg, rb: impl Into<Operand>, rc: Reg) {
        self.inst(Inst::op(op, ra, rb.into(), rc));
    }

    // --- common operate helpers -------------------------------------------

    /// Loads a (possibly large) immediate into `rc`.
    pub fn li(&mut self, rc: Reg, v: i64) {
        self.op(Opcode::Addq, Reg::R31, v, rc);
    }

    /// Register move.
    pub fn mov(&mut self, src: Reg, dst: Reg) {
        self.op(Opcode::Bis, src, src, dst);
    }

    /// `rc ← ra + rb`.
    pub fn addq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.op(Opcode::Addq, ra, rb, rc);
    }

    /// `rc ← ra + imm`.
    pub fn addq_imm(&mut self, ra: Reg, imm: i64, rc: Reg) {
        self.op(Opcode::Addq, ra, imm, rc);
    }

    /// `rc ← ra − rb`.
    pub fn subq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.op(Opcode::Subq, ra, rb, rc);
    }

    /// `rc ← ra − imm`.
    pub fn subq_imm(&mut self, ra: Reg, imm: i64, rc: Reg) {
        self.op(Opcode::Subq, ra, imm, rc);
    }

    /// `rc ← (ra << 3) + rb` — the array-index idiom.
    pub fn s8addq(&mut self, ra: Reg, rb: Reg, rc: Reg) {
        self.op(Opcode::S8addq, ra, rb, rc);
    }

    // --- memory ------------------------------------------------------------

    /// Load quadword: `rc ← mem[base + disp]`.
    pub fn ldq(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Ldq, rc, base, disp));
    }

    /// Load longword (sign-extending).
    pub fn ldl(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Ldl, rc, base, disp));
    }

    /// Load byte (zero-extending).
    pub fn ldbu(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Ldbu, rc, base, disp));
    }

    /// Store quadword: `mem[base + disp] ← rc`.
    pub fn stq(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Stq, rc, base, disp));
    }

    /// Store longword.
    pub fn stl(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Stl, rc, base, disp));
    }

    /// Store byte.
    pub fn stb(&mut self, rc: Reg, base: Reg, disp: i64) {
        self.inst(Inst::mem(Opcode::Stb, rc, base, disp));
    }

    // --- control -----------------------------------------------------------

    fn branch_to(&mut self, op: Opcode, ra: Reg, rc: Reg, label: impl Into<String>) {
        self.insts.push(Pending::Branch {
            op,
            ra,
            rc,
            label: label.into(),
        });
    }

    /// Conditional branch if `ra == 0`.
    pub fn beq(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Beq, ra, Reg::R31, label);
    }

    /// Conditional branch if `ra != 0`.
    pub fn bne(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Bne, ra, Reg::R31, label);
    }

    /// Conditional branch if `ra < 0` (signed).
    pub fn blt(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Blt, ra, Reg::R31, label);
    }

    /// Conditional branch if `ra >= 0` (signed).
    pub fn bge(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Bge, ra, Reg::R31, label);
    }

    /// Conditional branch if `ra <= 0` (signed).
    pub fn ble(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Ble, ra, Reg::R31, label);
    }

    /// Conditional branch if `ra > 0` (signed).
    pub fn bgt(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Bgt, ra, Reg::R31, label);
    }

    /// Conditional branch if the low bit of `ra` is set.
    pub fn blbs(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Blbs, ra, Reg::R31, label);
    }

    /// Conditional branch if the low bit of `ra` is clear.
    pub fn blbc(&mut self, ra: Reg, label: impl Into<String>) {
        self.branch_to(Opcode::Blbc, ra, Reg::R31, label);
    }

    /// Unconditional branch.
    pub fn br(&mut self, label: impl Into<String>) {
        self.branch_to(Opcode::Br, Reg::R31, Reg::R31, label);
    }

    /// Branch to subroutine, linking into `Reg::RA`.
    pub fn bsr(&mut self, label: impl Into<String>) {
        self.branch_to(Opcode::Bsr, Reg::R31, Reg::RA, label);
    }

    /// Return through `Reg::RA`.
    pub fn ret(&mut self) {
        self.inst(Inst::ret(Reg::RA));
    }

    /// Return through an arbitrary register.
    pub fn ret_via(&mut self, ra: Reg) {
        self.inst(Inst::ret(ra));
    }

    /// Stop the program.
    pub fn halt(&mut self) {
        self.inst(Inst::halt());
    }

    // --- data & initial state ----------------------------------------------

    /// Places raw bytes at `addr` in the initial memory image.
    pub fn data_bytes(&mut self, addr: u64, bytes: Vec<u8>) {
        self.data.push((addr, bytes));
    }

    /// Places an array of u64 values at `addr`.
    pub fn data_u64(&mut self, addr: u64, values: &[u64]) {
        let mut bytes = Vec::with_capacity(values.len() * 8);
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        self.data.push((addr, bytes));
    }

    /// Sets an initial register value.
    pub fn init_reg(&mut self, r: Reg, v: u64) {
        self.init_regs.push((r.0, v));
    }

    /// Declares a scratch memory region of `len` bytes at `addr`: storage
    /// the program writes before reading (hash tables, result buffers)
    /// and so carries no initial bytes. Static analysis proves every
    /// load/store lands inside a declared region or an initial data
    /// chunk; scratch areas must be declared to be provably in bounds.
    pub fn scratch(&mut self, addr: u64, len: u64) {
        self.regions.push((addr, len));
    }

    /// The current instruction count (the address the next instruction
    /// will occupy).
    pub fn here(&self) -> usize {
        self.insts.len()
    }

    /// Resolves labels and produces the program.
    ///
    /// # Panics
    ///
    /// Panics if a branch references an undefined label.
    pub fn assemble(self) -> Program {
        let code = self
            .insts
            .iter()
            .enumerate()
            .map(|(site, p)| match p {
                Pending::Done(i) => *i,
                Pending::Branch { op, ra, rc, label } => {
                    // Labels here are spelled by this repo's kernel
                    // builders, never by external input (server-supplied
                    // programs assemble through `text::parse`, which
                    // returns errors); a typo is a build defect every
                    // kernel's unit test catches at `cargo test` time.
                    #[allow(clippy::panic)]
                    let target = *self
                        .labels
                        .get(label)
                        .unwrap_or_else(|| panic!("undefined label `{label}`"));
                    let disp = target as i64 - (site as i64 + 1);
                    match op {
                        Opcode::Br => Inst::br(disp),
                        Opcode::Bsr => Inst::bsr(disp, *rc),
                        _ => Inst::branch(*op, *ra, disp),
                    }
                }
            })
            .collect();
        let mut prog = Program::new(code).with_name(self.name);
        // Declared regions replace the derived data extents wholesale, so
        // when any scratch region exists, the data chunks must be declared
        // alongside it.
        let declare_data = !self.regions.is_empty();
        for (addr, bytes) in self.data {
            if declare_data {
                prog = prog.with_region(addr, bytes.len() as u64);
            }
            prog = prog.with_data(addr, bytes);
        }
        for (addr, len) in self.regions {
            prog = prog.with_region(addr, len);
        }
        for (r, v) in self.init_regs {
            prog = prog.with_reg(r, v);
        }
        prog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::Emulator;

    #[test]
    fn forward_and_backward_branches() {
        let mut a = Asm::new("t");
        a.li(Reg(1), 3);
        a.label("top");
        a.subq_imm(Reg(1), 1, Reg(1));
        a.beq(Reg(1), "out"); // forward reference
        a.br("top"); // backward reference
        a.label("out");
        a.halt();
        let p = a.assemble();
        let mut e = Emulator::new(&p);
        e.run(100).unwrap();
        assert_eq!(e.reg(Reg(1)), 0);
    }

    #[test]
    fn call_return() {
        let mut a = Asm::new("t");
        a.bsr("double");
        a.halt();
        a.label("double");
        a.addq(Reg(1), Reg(1), Reg(1));
        a.ret();
        let p = a.assemble();
        let mut e = Emulator::new(&p);
        e.set_reg(Reg(1), 21);
        e.run(100).unwrap();
        assert_eq!(e.reg(Reg(1)), 42);
    }

    #[test]
    fn data_and_init_regs() {
        let mut a = Asm::new("t");
        a.data_u64(0x1000, &[7, 8, 9]);
        a.init_reg(Reg(5), 0x1000);
        a.ldq(Reg(2), Reg(5), 16);
        a.halt();
        let p = a.assemble();
        let mut e = Emulator::new(&p);
        e.run(10).unwrap();
        assert_eq!(e.reg(Reg(2)), 9);
    }

    #[test]
    #[should_panic(expected = "undefined label")]
    fn undefined_label_panics() {
        let mut a = Asm::new("t");
        a.br("nowhere");
        let _ = a.assemble();
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut a = Asm::new("t");
        a.label("x");
        a.label("x");
    }

    #[test]
    fn scratch_regions_cover_data_and_scratch() {
        let mut a = Asm::new("t");
        a.data_u64(0x1000, &[1, 2]);
        a.scratch(0x2000, 64);
        a.halt();
        let p = a.assemble();
        assert_eq!(p.memory_regions(), vec![(0x1000, 16), (0x2000, 64)]);
    }

    #[test]
    fn here_tracks_position() {
        let mut a = Asm::new("t");
        assert_eq!(a.here(), 0);
        a.halt();
        assert_eq!(a.here(), 1);
    }
}
