//! Seeded random-program torture generator for the differential oracle.
//!
//! [`torture_program`] turns a 64-bit seed into a complete, always-halting
//! [`Program`] that stresses the parts of the machine the hand-written
//! workloads cannot cover systematically:
//!
//! * **control-flow shapes** — counted loops nested up to three deep,
//!   forward branch diamonds, overlapping ("irreducible-ish") forward
//!   regions with multiple entries, and call/return chains that link
//!   through three different registers (`r26`, a saved copy in `r24`,
//!   and a moved copy returned through `r25`);
//! * **memory patterns** — strided store/load runs, pointer chasing over
//!   a pre-built ring of nodes, and aliased store/load pairs that overlap
//!   a quadword store with byte loads and stores;
//! * **operand classes** — dependent chains with a controlled gap of
//!   independent filler instructions between producer and consumer
//!   (gap 0 hits the tightest bypass level, larger gaps fall through to
//!   the register file and probe RB/RF hole configurations), immediate
//!   vs. register operands, conditional moves, and load-use pairs.
//!
//! Generation is deterministic: the same seed always yields the same
//! program, so a failing seed is a complete reproduction recipe. For
//! human consumption (and one-command repro through the text assembler)
//! [`disassemble`] renders any program — including its data image and
//! initial registers — as source text that [`crate::text::parse`] accepts
//! and reassembles into an identical program.
//!
//! Termination is guaranteed by construction: every backward branch is a
//! counted loop whose dedicated counter register (`r20`–`r22`, one per
//! nesting level) is never written by generated block bodies, and every
//! other branch is strictly forward. [`STEP_BOUND`] is a generous dynamic
//! limit any torture program halts well within.
//!
//! # Example
//!
//! ```
//! use redbin_isa::Emulator;
//! use redbin_workload::fuzz;
//!
//! let prog = fuzz::torture_program(42);
//! let mut emu = Emulator::new(&prog);
//! emu.run(fuzz::STEP_BOUND).expect("torture programs halt");
//! ```

use std::fmt::Write as _;

use redbin_isa::{Opcode, Operand, Program, Reg};
use redbin_testkit::Rng;

use crate::asm::Asm;

/// Base address of the random-data region (`r16` at program start).
const DATA_BASE: u64 = 0x1_0000;
/// Number of initialized quadword slots at [`DATA_BASE`].
const DATA_SLOTS: usize = 128;
/// Base address of the pointer-chase ring (`r18` at program start).
const RING_BASE: u64 = 0x2_0000;
/// Number of nodes in the pointer-chase ring.
const RING_NODES: usize = 32;

/// Dynamic step bound every torture program halts within.
///
/// The static structure caps dynamic length at a few tens of thousands of
/// instructions; this bound leaves two orders of magnitude of headroom.
pub const STEP_BOUND: u64 = 2_000_000;

/// Scratch registers the generator may freely read and write.
///
/// Everything outside this pool has a reserved role: `r16`/`r18` are
/// read-only region bases, `r20`–`r22` are loop counters (one per nesting
/// level), `r24`/`r25` are alternate link registers, `r26` is the primary
/// link, and `r31` is the zero register.
const SCRATCH: [u8; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// Two-source operate opcodes that are safe on arbitrary operand values.
const ALU: [Opcode; 21] = [
    Opcode::Addq,
    Opcode::Subq,
    Opcode::Addl,
    Opcode::Subl,
    Opcode::Mulq,
    Opcode::Mull,
    Opcode::And,
    Opcode::Bis,
    Opcode::Xor,
    Opcode::Bic,
    Opcode::Ornot,
    Opcode::Eqv,
    Opcode::S4addq,
    Opcode::S8addq,
    Opcode::S4subq,
    Opcode::S8subq,
    Opcode::Cmpeq,
    Opcode::Cmplt,
    Opcode::Cmple,
    Opcode::Cmpult,
    Opcode::Cmpule,
];

/// Shift opcodes (shift count masked to 6 bits by the ISA).
const SHIFTS: [Opcode; 3] = [Opcode::Sll, Opcode::Srl, Opcode::Sra];

/// Byte-manipulation opcodes (`b` selects a byte position or mask).
const BYTES: [Opcode; 5] = [
    Opcode::Extbl,
    Opcode::Insbl,
    Opcode::Mskbl,
    Opcode::Zap,
    Opcode::Zapnot,
];

/// One-source opcodes (read `ra`, ignore `rb`).
const UNARY: [Opcode; 5] = [
    Opcode::Sextb,
    Opcode::Sextw,
    Opcode::Ctlz,
    Opcode::Cttz,
    Opcode::Ctpop,
];

/// Conditional-move opcodes.
const CMOVS: [Opcode; 8] = [
    Opcode::Cmoveq,
    Opcode::Cmovne,
    Opcode::Cmovlt,
    Opcode::Cmovge,
    Opcode::Cmovle,
    Opcode::Cmovgt,
    Opcode::Cmovlbs,
    Opcode::Cmovlbc,
];

/// The shape of a generated subroutine.
#[derive(Clone, Copy, PartialEq)]
enum SubKind {
    /// Straight-line body, returns through `r26`.
    Leaf,
    /// Moves the link to `r25` and returns through it.
    AltRet,
    /// Saves the link to `r24`, calls the leaf (re-linking `r26`), then
    /// returns through the saved copy — a two-deep call chain.
    Chainer,
}

/// Program generator state: the PRNG, the assembler under construction,
/// a fresh-label counter, the current loop-nesting depth, and the
/// subroutine roster callable from generated blocks.
struct Gen<'a> {
    rng: &'a mut Rng,
    a: Asm,
    next_label: u32,
    depth: usize,
    subs: Vec<(String, SubKind)>,
}

impl Gen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        let n = self.next_label;
        self.next_label += 1;
        format!("{prefix}{n}")
    }

    /// A random scratch register.
    fn sreg(&mut self) -> Reg {
        Reg(*self.rng.pick(&SCRATCH))
    }

    /// A random scratch register different from `avoid`.
    fn sreg_not(&mut self, avoid: Reg) -> Reg {
        loop {
            let r = self.sreg();
            if r != avoid {
                return r;
            }
        }
    }

    /// A random second operand: usually a scratch register, sometimes an
    /// immediate (small, or occasionally a large constant).
    fn operand(&mut self) -> Operand {
        match self.rng.range_u64(0, 10) {
            0..=5 => Operand::Reg(self.sreg()),
            6..=8 => Operand::Imm(self.rng.range_i64(-1024, 1024)),
            _ => Operand::Imm(self.rng.range_i64(-1, 2) * 0x1234_5678),
        }
    }

    /// Emits one random operate instruction writing `rc` (a random
    /// scratch register when `None`).
    fn rand_op(&mut self, rc: Option<Reg>) {
        let rc = rc.unwrap_or_else(|| self.sreg());
        let ra = self.sreg();
        match self.rng.range_u64(0, 10) {
            0..=5 => {
                let op = *self.rng.pick(&ALU);
                let rb = self.operand();
                self.a.op(op, ra, rb, rc);
            }
            6..=7 => {
                let op = *self.rng.pick(&SHIFTS);
                let rb = if self.rng.next_bool() {
                    Operand::Imm(self.rng.range_i64(0, 64))
                } else {
                    Operand::Reg(self.sreg())
                };
                self.a.op(op, ra, rb, rc);
            }
            8 => {
                let op = *self.rng.pick(&BYTES);
                let rb = if self.rng.next_bool() {
                    Operand::Imm(self.rng.range_i64(0, 8))
                } else {
                    Operand::Reg(self.sreg())
                };
                self.a.op(op, ra, rb, rc);
            }
            _ => {
                let op = *self.rng.pick(&UNARY);
                self.a.op(op, ra, Operand::Imm(0), rc);
            }
        }
    }

    /// Computes a bounded quadword address inside the data region into a
    /// scratch register: `t = r16 + (s & 63) * 8`.
    fn data_addr(&mut self) -> Reg {
        let s = self.sreg();
        let t = self.sreg();
        self.a.op(Opcode::And, s, 63, t);
        self.a.s8addq(t, Reg(16), t);
        t
    }

    // --- block strata -------------------------------------------------------

    /// A short run of independent random operates.
    fn block_ops(&mut self) {
        for _ in 0..self.rng.range_u64(2, 6) {
            self.rand_op(None);
        }
    }

    /// A dependent chain with a controlled producer→consumer gap.
    ///
    /// Gap 0 forces back-to-back bypass at the tightest level; gaps 1–3
    /// land the consumer progressively later, probing the remaining
    /// bypass levels and finally the register file / RB holes.
    fn block_chain(&mut self) {
        let rd = self.sreg();
        let gap = self.rng.range_u64(0, 4);
        self.rand_op(Some(rd));
        for _ in 0..self.rng.range_u64(2, 5) {
            for _ in 0..gap {
                let filler = self.sreg_not(rd);
                self.rand_op(Some(filler));
            }
            let op = *self.rng.pick(&ALU);
            let rb = self.operand();
            self.a.op(op, rd, rb, rd);
        }
    }

    /// A compare feeding a forward branch over a short arm.
    fn block_diamond(&mut self) {
        let c = self.sreg();
        let cmp = *self
            .rng
            .pick(&[Opcode::Cmplt, Opcode::Cmpeq, Opcode::Cmpule]);
        let ra = self.sreg();
        let rb = self.operand();
        self.a.op(cmp, ra, rb, c);
        let skip = self.fresh("d");
        if self.rng.next_bool() {
            self.a.beq(c, skip.clone());
        } else {
            self.a.bne(c, skip.clone());
        }
        for _ in 0..self.rng.range_u64(1, 4) {
            self.rand_op(None);
        }
        self.a.label(skip);
    }

    /// Two forward branches into overlapping tails, so both join points
    /// have multiple entries — the closest an always-terminating forward
    /// region gets to irreducible control flow.
    fn block_overlap(&mut self) {
        let mid = self.fresh("m");
        let end = self.fresh("e");
        let c1 = self.sreg();
        let c2 = self.sreg();
        let cond = *self
            .rng
            .pick(&[Opcode::Cmplt, Opcode::Cmpult, Opcode::Cmpeq]);
        let (a1, a2) = (self.sreg(), self.sreg());
        self.a.op(cond, a1, Operand::Reg(a2), c1);
        self.a.bne(c1, mid.clone());
        self.rand_op(None);
        self.a.op(Opcode::Cmpeq, c1, Operand::Reg(a1), c2);
        self.a.beq(c2, end.clone());
        self.rand_op(None);
        self.a.label(mid);
        self.rand_op(None);
        self.a.label(end);
    }

    /// A counted loop with a dedicated, body-unwritable counter register.
    fn block_loop(&mut self) {
        let counter = Reg(20 + self.depth as u8);
        let trips = self.rng.range_i64(2, 7);
        let top = self.fresh("lp");
        self.a.li(counter, trips);
        self.a.label(top.clone());
        self.depth += 1;
        for _ in 0..self.rng.range_u64(2, 5) {
            self.block();
        }
        self.depth -= 1;
        self.a.subq_imm(counter, 1, counter);
        self.a.bgt(counter, top);
    }

    /// An unrolled strided store run, then strided loads back over it.
    fn block_strided(&mut self) {
        let p = self.sreg();
        self.a.mov(Reg(16), p);
        let stride = *self.rng.pick(&[8i64, 16, 24]);
        let n = self.rng.range_u64(3, 7);
        let v = self.sreg_not(p);
        for _ in 0..n {
            self.a.stq(v, p, 0);
            self.a.addq_imm(p, stride, p);
        }
        let rd = self.sreg_not(p);
        for i in 1..=self.rng.range_i64(1, n as i64 + 1) {
            self.a.ldq(rd, p, -(i * stride));
        }
    }

    /// A pointer chase through the prebuilt ring: a serial load-to-load
    /// dependence chain.
    fn block_chase(&mut self) {
        let p = self.sreg();
        self.a.mov(Reg(18), p);
        for _ in 0..self.rng.range_u64(2, 7) {
            self.a.ldq(p, p, 0);
        }
        let rd = self.sreg();
        let mix = self.sreg();
        self.a.op(Opcode::Xor, p, Operand::Reg(mix), rd);
    }

    /// Aliased store/load pairs: a quadword store overlapped by byte
    /// loads and a byte store, then re-read as a quadword.
    fn block_alias(&mut self) {
        let t = self.data_addr();
        let v = self.sreg_not(t);
        self.a.stq(v, t, 0);
        let rd = self.sreg_not(t);
        self.a.ldbu(rd, t, self.rng.range_i64(0, 8));
        let v2 = self.sreg_not(t);
        self.a.stb(v2, t, self.rng.range_i64(0, 8));
        let rd2 = self.sreg_not(t);
        self.a.ldq(rd2, t, 0);
        if self.rng.next_bool() {
            let rd3 = self.sreg_not(t);
            self.a.ldl(rd3, t, if self.rng.next_bool() { 0 } else { 4 });
        }
    }

    /// A load whose value is consumed immediately (and again one later).
    fn block_load_use(&mut self) {
        let t = self.data_addr();
        let rd = self.sreg_not(t);
        self.a.ldq(rd, t, 0);
        let other = self.sreg_not(rd);
        let sum = self.sreg_not(rd);
        let flag = self.sreg_not(rd);
        self.a.op(Opcode::Addq, rd, Operand::Reg(other), sum);
        self.a.op(Opcode::Cmplt, rd, Operand::Imm(0), flag);
    }

    /// A cluster of conditional moves off freshly computed conditions.
    fn block_cmov(&mut self) {
        for _ in 0..self.rng.range_u64(2, 5) {
            let op = *self.rng.pick(&CMOVS);
            let cond = self.sreg();
            let rb = self.operand();
            let rc = self.sreg();
            self.a.op(op, cond, rb, rc);
        }
    }

    /// A call to one of the generated subroutines.
    fn block_call(&mut self) {
        let name = self.rng.pick(&self.subs).0.clone();
        self.a.bsr(name);
    }

    /// Emits one randomly chosen block at the current nesting depth.
    fn block(&mut self) {
        let max = if self.depth < 3 { 11 } else { 10 };
        match self.rng.range_u64(0, max) {
            0 => self.block_ops(),
            1 | 2 => self.block_chain(),
            3 => self.block_diamond(),
            4 => self.block_overlap(),
            5 => self.block_strided(),
            6 => self.block_chase(),
            7 => self.block_alias(),
            8 => self.block_load_use(),
            9 => {
                if self.rng.next_bool() {
                    self.block_cmov();
                } else {
                    self.block_call();
                }
            }
            _ => self.block_loop(),
        }
    }

    /// Emits the subroutine bodies after the main program's `halt`.
    fn emit_subs(&mut self) {
        for i in 0..self.subs.len() {
            let (name, kind) = self.subs[i].clone();
            self.a.label(name);
            match kind {
                SubKind::Leaf => {
                    for _ in 0..self.rng.range_u64(2, 6) {
                        self.rand_op(None);
                    }
                    if self.rng.next_bool() {
                        self.block_load_use();
                    }
                    self.a.ret();
                }
                SubKind::AltRet => {
                    self.a.mov(Reg::RA, Reg(25));
                    for _ in 0..self.rng.range_u64(2, 5) {
                        self.rand_op(None);
                    }
                    self.a.ret_via(Reg(25));
                }
                SubKind::Chainer => {
                    self.a.mov(Reg::RA, Reg(24));
                    self.rand_op(None);
                    // Call the first sub, which is always a leaf.
                    let leaf = self.subs[0].0.clone();
                    self.a.bsr(leaf);
                    self.rand_op(None);
                    self.a.ret_via(Reg(24));
                }
            }
        }
    }
}

/// Generates a deterministic, always-halting torture program from a seed.
///
/// See the [module docs](self) for the strata the generator draws from.
pub fn torture_program(seed: u64) -> Program {
    let mut rng = Rng::new(seed);
    let rng = &mut rng;

    // Fixed roster: subs[0] is the leaf the chainer calls.
    let mut subs = vec![("fn0".to_string(), SubKind::Leaf)];
    if rng.next_bool() {
        subs.push(("fn1".to_string(), SubKind::AltRet));
    }
    if rng.next_bool() {
        subs.push((format!("fn{}", subs.len()), SubKind::Chainer));
    }

    let mut g = Gen {
        rng,
        a: Asm::new(format!("torture-{seed:#018x}")),
        next_label: 0,
        depth: 0,
        subs,
    };

    for _ in 0..g.rng.range_u64(6, 13) {
        g.block();
    }
    g.a.halt();
    g.emit_subs();

    // Data image: random quadwords, then a single-cycle pointer ring
    // (each node holds the address of the next, so chases stay in-ring).
    let slots = g.rng.vec(DATA_SLOTS, Rng::next_u64);
    g.a.data_u64(DATA_BASE, &slots);
    let mut order: Vec<usize> = (0..RING_NODES).collect();
    for i in (1..RING_NODES).rev() {
        order.swap(i, g.rng.range_usize(0, i + 1));
    }
    let mut ring = vec![0u64; RING_NODES];
    for i in 0..RING_NODES {
        let next = order[(i + 1) % RING_NODES];
        ring[order[i]] = RING_BASE + 8 * next as u64;
    }
    g.a.data_u64(RING_BASE, &ring);

    // Region bases, then random starting values for every scratch register.
    g.a.init_reg(Reg(16), DATA_BASE);
    g.a.init_reg(Reg(18), RING_BASE);
    for r in SCRATCH {
        let v = g.rng.next_u64();
        g.a.init_reg(Reg(r), v);
    }

    g.a.assemble()
}

/// Renders a program as assembler source text.
///
/// The output is accepted by [`crate::text::parse`] and reassembles into
/// a program with identical code, data, initial registers, and entry
/// point, so a failing fuzz case can be reproduced from its printout
/// alone. Branch displacements print as signed numbers, which the text
/// assembler reads back as relative displacements.
pub fn disassemble(prog: &Program) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "; {} — {} instructions", prog.name, prog.code.len());
    if prog.entry != 0 {
        let _ = writeln!(s, "        .entry __entry");
    }
    for (r, v) in &prog.init_regs {
        let _ = writeln!(s, "        .reg r{r}, {v:#x}");
    }
    for (addr, bytes) in &prog.data {
        for (i, chunk) in bytes.chunks(16).enumerate() {
            let _ = write!(s, "        .bytes {:#x}", addr + 16 * i as u64);
            for b in chunk {
                let _ = write!(s, ", {b:#04x}");
            }
            let _ = writeln!(s);
        }
    }
    for (i, inst) in prog.code.iter().enumerate() {
        if prog.entry != 0 && i == prog.entry {
            let _ = writeln!(s, "__entry:");
        }
        let _ = writeln!(s, "        {inst}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_isa::Emulator;

    #[test]
    fn generation_is_deterministic() {
        let a = torture_program(0xDEAD_BEEF);
        let b = torture_program(0xDEAD_BEEF);
        assert_eq!(disassemble(&a), disassemble(&b));
        assert_ne!(disassemble(&a), disassemble(&torture_program(1)));
    }

    #[test]
    fn torture_programs_halt_within_the_step_bound() {
        redbin_testkit::cases(64, 0x7041_7041, |rng| {
            let seed = rng.next_u64();
            let prog = torture_program(seed);
            let mut emu = Emulator::new(&prog);
            let retired = emu
                .run(STEP_BOUND)
                .unwrap_or_else(|e| panic!("seed {seed:#x} did not halt: {e}"));
            assert!(retired > 10, "seed {seed:#x} retired almost nothing");
        });
    }

    #[test]
    fn disassembly_reassembles_identically() {
        redbin_testkit::cases(16, 0xD15A, |rng| {
            let seed = rng.next_u64();
            let prog = torture_program(seed);
            let text = disassemble(&prog);
            let back = crate::text::parse(&text)
                .unwrap_or_else(|e| panic!("seed {seed:#x} disassembly failed to parse: {e}"));
            assert_eq!(prog.code, back.code, "seed {seed:#x} code differs");
            assert_eq!(prog.entry, back.entry, "seed {seed:#x} entry differs");
            assert_eq!(
                prog.initial_memory().digest(),
                back.initial_memory().digest(),
                "seed {seed:#x} data image differs"
            );
            assert_eq!(
                prog.init_regs, back.init_regs,
                "seed {seed:#x} init regs differ"
            );
        });
    }

    #[test]
    fn strata_all_appear_across_a_seed_batch() {
        use redbin_isa::Opcode;
        let mut saw_store = false;
        let mut saw_load = false;
        let mut saw_cond = false;
        let mut saw_call = false;
        let mut saw_ret = false;
        let mut saw_cmov = false;
        for seed in 0..24u64 {
            for inst in &torture_program(seed).code {
                match inst.op {
                    Opcode::Stq | Opcode::Stl | Opcode::Stb => saw_store = true,
                    Opcode::Ldq | Opcode::Ldl | Opcode::Ldbu => saw_load = true,
                    Opcode::Bsr => saw_call = true,
                    Opcode::Ret => saw_ret = true,
                    op if op.is_conditional_branch() => saw_cond = true,
                    op if CMOVS.contains(&op) => saw_cmov = true,
                    _ => {}
                }
            }
        }
        assert!(saw_store && saw_load && saw_cond && saw_call && saw_ret && saw_cmov);
    }

    #[test]
    fn architectural_results_vary_with_the_seed() {
        // Two different seeds should not produce identical final states —
        // a near-certain sign the generator ignored its seed.
        let run = |seed: u64| {
            let prog = torture_program(seed);
            let mut emu = Emulator::new(&prog);
            emu.run(STEP_BOUND).unwrap();
            emu.arch_state()
        };
        assert!(run(3).diff(&run(4)).is_some());
    }
}
