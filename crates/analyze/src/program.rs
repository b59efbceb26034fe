//! Whole-program static analysis over assembled [`Program`]s.
//!
//! Given a program from the text assembler (or any [`Program`] value),
//! this module builds the control-flow graph, computes dominators and
//! natural loops, and runs three pass families (see `ANALYSIS.md` for the
//! rule catalogue):
//!
//! 1. **Safety** — every load/store must stay inside the program's
//!    declared `.data`/`.bss` regions ([`Program::memory_regions`]) and
//!    the program must halt. Both claims are decided by a two-tier
//!    scheme: tier A is a static proof (interval value-range analysis on
//!    address-forming registers; counted-loop termination with
//!    call-linkage discipline), tier B is a concrete monitored run of the
//!    architectural emulator — for these closed, deterministic programs a
//!    complete decision procedure, bounded by [`TRACE_STEP_BOUND`].
//! 2. **Lints** — dead stores, unused results, unreachable blocks,
//!    use-before-def, and call-linkage-discipline violations, rendered
//!    with the assembler's `file:line:column` spans and suppressible by
//!    a `; redbin-lint: allow(<rule>)` comment on the flagged line or the
//!    line above.
//! 3. **Dataflow-limit bound** — the critical-path height of the dynamic
//!    register-dependence graph, weighted by the Table 3 execution
//!    latencies, yields a static per-(program, model, width) IPC upper
//!    bound no bypass network can beat: `bound = N / max(H, ceil(N/w))`.
//!    Memory-carried dependences are ignored, which can only *raise* the
//!    bound — it stays a sound upper limit.

use std::collections::BTreeSet;

use redbin::isa::{Emulator, Inst, Opcode, Operand, Program, Reg, SourceRegs, StepError};
use redbin::json::Json;
use redbin::sim::{CoreModel, MachineConfig};
use redbin::workload::text::Listing;

/// Step budget for the concrete (tier B) verification run: the
/// differential oracle's budget, under which every shipped program and
/// torture seed halts.
pub const TRACE_STEP_BOUND: u64 = redbin::differential::EMULATOR_STEP_BOUND;

const NUM_REGS: usize = 32;
type RegMask = u32;
const ALL_REGS: RegMask = u32::MAX;

fn bit(r: Reg) -> RegMask {
    1 << r.index()
}

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

/// Outcome of a safety claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The claim holds.
    Proved,
    /// The claim is violated (a concrete counterexample exists).
    Violated,
    /// Neither provable nor refutable within this analysis.
    Unknown,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Violated => "violated",
            Verdict::Unknown => "unknown",
        }
    }
}

// ---------------------------------------------------------------------------
// CFG
// ---------------------------------------------------------------------------

/// How control reaches a successor block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Ordinary fallthrough or branch edge.
    Flow,
    /// The fallthrough after a call (`Bsr`/`Jmp`): the callee runs in
    /// between and may clobber any register, so forward dataflow must
    /// forget everything along this edge.
    CallFall,
    /// The `Bsr` call edge into the callee's entry block.
    CallTarget,
}

/// A basic block: the instructions `start..end`.
#[derive(Debug, Clone, Copy)]
pub struct Block {
    /// First instruction index.
    pub start: usize,
    /// One past the last instruction index.
    pub end: usize,
}

/// The control-flow graph of a program, with call edges flattened in
/// (`Bsr` gets both its target and its fallthrough as successors; `Ret`
/// and `Halt` are terminators with no successors, so matched
/// call/return pairs never manufacture spurious cycles).
pub struct Cfg {
    /// Basic blocks in instruction order.
    pub blocks: Vec<Block>,
    /// The entry block index.
    pub entry: usize,
    succs: Vec<Vec<(usize, EdgeKind)>>,
    preds: Vec<Vec<usize>>,
    block_of: Vec<usize>,
    /// Structural defects (branch target out of code, fallthrough off the
    /// end) that make the program unsound before any dataflow runs.
    problems: Vec<String>,
    /// Whether any reachable block ends in an indirect call (`Jmp`).
    has_indirect_call: bool,
}

/// The branch target of a direct control transfer at `pc`, if any.
fn direct_target(pc: usize, inst: &Inst) -> Option<i64> {
    if inst.op.is_conditional_branch() || matches!(inst.op, Opcode::Br | Opcode::Bsr) {
        Some(pc as i64 + 1 + inst.disp)
    } else {
        None
    }
}

impl Cfg {
    /// Builds the CFG of `prog`.
    pub fn build(prog: &Program) -> Cfg {
        let n = prog.code.len();
        let mut problems = Vec::new();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[prog.entry.min(n - 1)] = true;
            leader[0] = leader[0] || prog.entry == 0;
        }
        if prog.entry >= n {
            problems.push(format!("entry point {} is outside the code", prog.entry));
        }
        for (i, inst) in prog.code.iter().enumerate() {
            if (inst.op.is_control() || inst.op == Opcode::Halt) && i + 1 < n {
                leader[i + 1] = true;
            }
            if let Some(t) = direct_target(i, inst) {
                if (0..n as i64).contains(&t) {
                    leader[t as usize] = true;
                } else {
                    problems.push(format!("pc {i}: branch target {t} is outside the code"));
                }
            }
        }

        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0;
        for (i, &is_leader) in leader.iter().enumerate() {
            if i > start && is_leader {
                blocks.push(Block { start, end: i });
                start = i;
            }
        }
        if n > 0 {
            blocks.push(Block { start, end: n });
        }
        for (b, blk) in blocks.iter().enumerate() {
            block_of[blk.start..blk.end].fill(b);
        }

        let mut succs: Vec<Vec<(usize, EdgeKind)>> = vec![Vec::new(); blocks.len()];
        let mut has_indirect_call = false;
        for (b, blk) in blocks.iter().enumerate() {
            let last_pc = blk.end - 1;
            let last = &prog.code[last_pc];
            let target = direct_target(last_pc, last)
                .filter(|t| (0..n as i64).contains(t))
                .map(|t| block_of[t as usize]);
            match last.op {
                Opcode::Halt | Opcode::Ret => {}
                Opcode::Br => {
                    if let Some(t) = target {
                        succs[b].push((t, EdgeKind::Flow));
                    }
                }
                Opcode::Bsr => {
                    if let Some(t) = target {
                        succs[b].push((t, EdgeKind::CallTarget));
                    }
                    if blk.end < n {
                        succs[b].push((block_of[blk.end], EdgeKind::CallFall));
                    } else {
                        problems.push(format!("pc {last_pc}: call falls off the end of the code"));
                    }
                }
                Opcode::Jmp => {
                    has_indirect_call = true;
                    if blk.end < n {
                        succs[b].push((block_of[blk.end], EdgeKind::CallFall));
                    } else {
                        problems.push(format!("pc {last_pc}: call falls off the end of the code"));
                    }
                }
                op if op.is_conditional_branch() => {
                    if let Some(t) = target {
                        succs[b].push((t, EdgeKind::Flow));
                    }
                    if blk.end < n {
                        let fall = block_of[blk.end];
                        if succs[b].iter().all(|&(s, _)| s != fall) {
                            succs[b].push((fall, EdgeKind::Flow));
                        }
                    } else {
                        problems.push(format!(
                            "pc {last_pc}: branch falls off the end of the code"
                        ));
                    }
                }
                _ => {
                    // Plain instruction; the block ended because the next
                    // instruction is a leader.
                    if blk.end < n {
                        succs[b].push((block_of[blk.end], EdgeKind::Flow));
                    } else {
                        problems.push(format!(
                            "pc {last_pc}: execution falls off the end of the code"
                        ));
                    }
                }
            }
        }

        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); blocks.len()];
        for (b, out) in succs.iter().enumerate() {
            for &(s, _) in out {
                if !preds[s].contains(&b) {
                    preds[s].push(b);
                }
            }
        }

        let entry = if n > 0 {
            block_of[prog.entry.min(n - 1)]
        } else {
            0
        };
        Cfg {
            blocks,
            entry,
            succs,
            preds,
            block_of,
            problems,
            has_indirect_call,
        }
    }

    /// Blocks reachable from the entry.
    fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.blocks.len()];
        if self.blocks.is_empty() {
            return seen;
        }
        let mut stack = vec![self.entry];
        seen[self.entry] = true;
        while let Some(b) = stack.pop() {
            for &(s, _) in &self.succs[b] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }

    /// Dominator sets over blocks (bit `d` of `dom[b]` = block `d`
    /// dominates block `b`), by the classic iterative dataflow.
    fn dominators(&self) -> Vec<Vec<u64>> {
        let nb = self.blocks.len();
        let words = nb.div_ceil(64);
        let full = vec![u64::MAX; words];
        let mut dom = vec![full.clone(); nb];
        if nb == 0 {
            return dom;
        }
        dom[self.entry] = vec![0; words];
        dom[self.entry][self.entry / 64] |= 1 << (self.entry % 64);
        let reach = self.reachable();
        let mut changed = true;
        while changed {
            changed = false;
            for b in 0..nb {
                if b == self.entry || !reach[b] {
                    continue;
                }
                let mut new = full.clone();
                let mut any_pred = false;
                for &p in &self.preds[b] {
                    if !reach[p] {
                        continue;
                    }
                    any_pred = true;
                    for (w, pw) in new.iter_mut().zip(&dom[p]) {
                        *w &= pw;
                    }
                }
                if !any_pred {
                    new = vec![0; words];
                }
                new[b / 64] |= 1 << (b % 64);
                if new != dom[b] {
                    dom[b] = new;
                    changed = true;
                }
            }
        }
        dom
    }
}

fn dom_has(dom: &[Vec<u64>], b: usize, d: usize) -> bool {
    dom[b][d / 64] & (1 << (d % 64)) != 0
}

// ---------------------------------------------------------------------------
// Natural loops
// ---------------------------------------------------------------------------

/// A natural loop discovered from a back edge.
pub struct NaturalLoop {
    /// The header block.
    pub header: usize,
    /// The latch (source of the back edge).
    pub latch: usize,
    /// All blocks in the loop body (header included).
    pub blocks: BTreeSet<usize>,
    /// `Some((counter, step))` when the loop is a proved counted loop:
    /// the counter strictly decreases by `step >= 1` each iteration and
    /// the back edge requires it positive.
    pub counted: Option<(Reg, u64)>,
}

fn natural_loops(prog: &Program, cfg: &Cfg, dom: &[Vec<u64>]) -> Vec<NaturalLoop> {
    let reach = cfg.reachable();
    let mut loops = Vec::new();
    for (b, out) in cfg.succs.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        for &(h, _) in out {
            if !dom_has(dom, b, h) {
                continue; // not a back edge
            }
            // Collect the body: everything that reaches the latch without
            // passing through the header.
            let mut body: BTreeSet<usize> = [h, b].into_iter().collect();
            let mut stack = vec![b];
            while let Some(x) = stack.pop() {
                if x == h {
                    continue;
                }
                for &p in &cfg.preds[x] {
                    if body.insert(p) {
                        stack.push(p);
                    }
                }
            }
            let counted = prove_counted(prog, cfg, dom, h, b, &body);
            loops.push(NaturalLoop {
                header: h,
                latch: b,
                blocks: body,
                counted,
            });
        }
    }
    loops
}

/// Tries to prove the loop `(header, latch, body)` is a counted loop:
/// the latch ends with `bgt c, header` (or `bge c, header`) whose
/// fallthrough leaves the loop, and every definition of `c` inside the
/// body is a `subq c, #k, c` with constant `k >= 1`, at least one of
/// which dominates the latch. Such a counter strictly decreases while
/// the back edge requires it non-negative, so the trip count is finite.
fn prove_counted(
    prog: &Program,
    cfg: &Cfg,
    dom: &[Vec<u64>],
    header: usize,
    latch: usize,
    body: &BTreeSet<usize>,
) -> Option<(Reg, u64)> {
    let latch_blk = cfg.blocks[latch];
    let last_pc = latch_blk.end - 1;
    let last = &prog.code[last_pc];
    if !matches!(last.op, Opcode::Bgt | Opcode::Bge | Opcode::Bne) {
        return None;
    }
    let t = direct_target(last_pc, last)?;
    if t < 0 || t as usize >= prog.code.len() {
        return None;
    }
    if cfg.block_of[t as usize] != header {
        return None; // taken edge must be the back edge
    }
    if latch_blk.end < prog.code.len() && body.contains(&cfg.block_of[latch_blk.end]) {
        return None; // fallthrough must exit the loop
    }
    let c = last.ra;
    if c.is_zero_reg() {
        return None;
    }
    let mut step = None;
    let mut have_dominating_dec = false;
    for &blk in body {
        let b = cfg.blocks[blk];
        for pc in b.start..b.end {
            let inst = &prog.code[pc];
            if inst.dest() != Some(c) {
                continue;
            }
            // A `bne` latch only exits when the counter lands exactly on
            // zero, so every decrement must be by 1; the signed `bgt`/`bge`
            // latches exit on any crossing and tolerate larger steps.
            let min_ok = if last.op == Opcode::Bne {
                1..=1
            } else {
                1..=i64::MAX
            };
            let k = match (inst.op, inst.ra, inst.rb) {
                (Opcode::Subq, ra, Operand::Imm(k)) if ra == c && min_ok.contains(&k) => k as u64,
                _ => return None, // some other def of the counter
            };
            match step {
                None => step = Some(k),
                Some(s) if s == k => {}
                Some(s) => step = Some(s.min(k)),
            }
            if dom_has(dom, latch, blk) {
                have_dominating_dec = true;
            }
        }
    }
    let step = step?;
    if !have_dominating_dec {
        return None;
    }
    Some((c, step))
}

// ---------------------------------------------------------------------------
// Intervals (value-range analysis)
// ---------------------------------------------------------------------------

/// An unsigned interval `[lo, hi]`; `TOP` is the full u64 range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Itv {
    lo: u64,
    hi: u64,
}

impl Itv {
    const TOP: Itv = Itv {
        lo: 0,
        hi: u64::MAX,
    };

    fn exact(v: u64) -> Itv {
        Itv { lo: v, hi: v }
    }

    fn is_top(self) -> bool {
        self == Itv::TOP
    }

    fn join(self, other: Itv) -> Itv {
        Itv {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Widens `self` toward `TOP` on any bound that moved since `old`.
    fn widen(self, old: Itv) -> Itv {
        Itv {
            lo: if self.lo < old.lo { 0 } else { self.lo },
            hi: if self.hi > old.hi { u64::MAX } else { self.hi },
        }
    }

    /// `[lo+k, hi+k]` when neither bound wraps in u64, else `TOP`.
    fn add_signed(self, k: i64) -> Itv {
        let lo = self.lo as i128 + k as i128;
        let hi = self.hi as i128 + k as i128;
        Itv::from_i128(lo, hi)
    }

    fn from_i128(lo: i128, hi: i128) -> Itv {
        if lo < 0 || hi > u64::MAX as i128 {
            Itv::TOP
        } else {
            Itv {
                lo: lo as u64,
                hi: hi as u64,
            }
        }
    }
}

/// Abstract interpretation of one instruction over a register state.
/// Returns the destination interval (callers handle the zero register).
fn transfer_itv(inst: &Inst, regs: &[Itv; NUM_REGS], pc: usize) -> Itv {
    let val = |r: Reg| -> Itv {
        if r.is_zero_reg() {
            Itv::exact(0)
        } else {
            regs[r.index()]
        }
    };
    let operand = |o: Operand| -> Itv {
        match o {
            Operand::Reg(r) => val(r),
            Operand::Imm(k) => Itv::from_i128(k as i128, k as i128),
        }
    };
    let a = val(inst.ra);
    match inst.op {
        Opcode::Lda => a.add_signed(inst.disp),
        Opcode::Ldah => a.add_signed(inst.disp.saturating_mul(65536)),
        Opcode::Addq => {
            let b = operand(inst.rb);
            Itv::from_i128(a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128)
        }
        Opcode::Subq => {
            let b = operand(inst.rb);
            Itv::from_i128(a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128)
        }
        Opcode::S4addq | Opcode::S8addq => {
            let scale = if inst.op == Opcode::S4addq { 4 } else { 8 };
            let b = operand(inst.rb);
            Itv::from_i128(
                a.lo as i128 * scale + b.lo as i128,
                a.hi as i128 * scale + b.hi as i128,
            )
        }
        Opcode::S4subq | Opcode::S8subq => {
            let scale = if inst.op == Opcode::S4subq { 4 } else { 8 };
            let b = operand(inst.rb);
            Itv::from_i128(
                a.lo as i128 * scale - b.hi as i128,
                a.hi as i128 * scale - b.lo as i128,
            )
        }
        Opcode::Addl | Opcode::Subl => {
            // Sign-extending 32-bit ops: exact only when the 64-bit result
            // provably fits in the non-negative 32-bit range.
            let b = operand(inst.rb);
            let (lo, hi) = if inst.op == Opcode::Addl {
                (a.lo as i128 + b.lo as i128, a.hi as i128 + b.hi as i128)
            } else {
                (a.lo as i128 - b.hi as i128, a.hi as i128 - b.lo as i128)
            };
            if lo >= 0 && hi <= i32::MAX as i128 {
                Itv::from_i128(lo, hi)
            } else {
                Itv::TOP
            }
        }
        Opcode::And => {
            // a & b <= min(a, b) for unsigned values; the result is
            // non-negative, so a mask like `and s, #63, s` pins [0, 63].
            let b = operand(inst.rb);
            Itv {
                lo: 0,
                hi: a.hi.min(b.hi),
            }
        }
        Opcode::Sll => {
            if let Operand::Imm(k) = inst.rb {
                if (0..64).contains(&k) && !a.is_top() {
                    let f = 1i128 << k;
                    if let (Some(lo), Some(hi)) =
                        ((a.lo as i128).checked_mul(f), (a.hi as i128).checked_mul(f))
                    {
                        return Itv::from_i128(lo, hi);
                    }
                }
            }
            Itv::TOP
        }
        Opcode::Srl => {
            if let Operand::Imm(k) = inst.rb {
                if (0..64).contains(&k) {
                    return Itv {
                        lo: a.lo >> k,
                        hi: a.hi >> k,
                    };
                }
            }
            Itv::TOP
        }
        Opcode::Mulq | Opcode::Mull => {
            let b = operand(inst.rb);
            let r = match (
                (a.lo as i128).checked_mul(b.lo as i128),
                (a.hi as i128).checked_mul(b.hi as i128),
            ) {
                (Some(lo), Some(hi)) => Itv::from_i128(lo, hi),
                _ => Itv::TOP,
            };
            if inst.op == Opcode::Mull && r.hi > i32::MAX as u64 {
                Itv::TOP
            } else {
                r
            }
        }
        Opcode::Bis => match (inst.ra.is_zero_reg(), inst.rb) {
            // The assembler's move/load-immediate idioms.
            (true, rb) => operand(rb),
            (false, Operand::Imm(0)) => a,
            (false, Operand::Reg(r)) if r == inst.ra => a,
            (false, Operand::Reg(r)) if r.is_zero_reg() => a,
            _ => Itv::TOP,
        },
        Opcode::Cmpeq | Opcode::Cmplt | Opcode::Cmple | Opcode::Cmpult | Opcode::Cmpule => {
            Itv { lo: 0, hi: 1 }
        }
        Opcode::Ldbu => Itv { lo: 0, hi: 0xFF },
        Opcode::Bsr | Opcode::Jmp => Itv::exact(pc as u64 + 1),
        op if op.is_cmov() => val(inst.rc).join(operand(inst.rb)),
        Opcode::Zapnot => {
            if let Operand::Imm(k) = inst.rb {
                // zapnot a, #mask keeps only the selected bytes; with the
                // low-byte mask the result fits the kept bytes' range.
                let kept: u64 = (0..8)
                    .filter(|i| k & (1 << i) != 0)
                    .map(|i| 0xFFu64 << (8 * i))
                    .fold(0, u64::wrapping_add);
                return Itv { lo: 0, hi: kept };
            }
            Itv::TOP
        }
        _ => Itv::TOP,
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One lint finding over the program.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The rule name (`dead-store`, `unused-result`, `unreachable-block`,
    /// `use-before-def`, `call-linkage`).
    pub rule: &'static str,
    /// The flagged instruction index.
    pub pc: usize,
    /// `file:line:column` when a listing is available, else `pc N`.
    pub location: String,
    /// Human-readable description.
    pub message: String,
}

/// Memory-safety counterexample from the concrete run.
#[derive(Debug, Clone, Copy)]
pub struct MemViolation {
    /// Instruction index of the faulting access.
    pub pc: usize,
    /// The effective address.
    pub ea: u64,
    /// Access width in bytes.
    pub width: u64,
    /// `true` for stores.
    pub store: bool,
}

/// Facts gathered by the concrete monitored run: halt status, memory
/// monitoring, and the dependence-height inputs of the dataflow bound.
#[derive(Debug, Clone, Copy)]
pub struct TraceFacts {
    /// Dynamic instructions retired (the `Halt` included).
    pub retired: u64,
    /// Whether the program reached `Halt` within the step budget.
    pub halted: bool,
    /// Whether the program jumped outside its code (a crash).
    pub pc_fault: bool,
    /// Critical-path height with Baseline (2-cycle adder) latencies.
    pub height_baseline: u64,
    /// Critical-path height with the fast (1-cycle result) latencies the
    /// RB-limited, RB-full and Ideal machines share.
    pub height_fast: u64,
    /// Memory accesses landing outside every declared region.
    pub oob_accesses: u64,
    /// The first out-of-bounds access, if any.
    pub first_violation: Option<MemViolation>,
}

/// What [`TraceFacts::trace`] needs of one static instruction.
struct TraceStep {
    sources: SourceRegs,
    dest: Option<Reg>,
    /// Execution latency on the Baseline machine.
    lat_slow: u64,
    /// Execution latency on the fast machines.
    lat_fast: u64,
    /// Access width of a memory instruction.
    width: u64,
}

/// Access width in bytes of a memory opcode.
fn access_width(op: Opcode) -> u64 {
    match op {
        Opcode::Ldq | Opcode::Stq => 8,
        Opcode::Ldl | Opcode::Stl => 4,
        _ => 1,
    }
}

fn covered(regions: &[(u64, u64)], ea: u64, width: u64) -> bool {
    let last = ea.saturating_add(width - 1);
    regions
        .iter()
        .any(|&(start, len)| start <= ea && last < start.saturating_add(len))
}

impl TraceFacts {
    /// Runs `prog` on the architectural emulator for at most `max_steps`
    /// steps, monitoring every memory access against the program's
    /// declared regions and accumulating the register-dependence
    /// critical-path heights under both latency groups.
    pub fn trace(prog: &Program, max_steps: u64) -> TraceFacts {
        let regions = prog.memory_regions();
        // The Table 3 execution latencies live on MachineConfig; Baseline
        // is the lone slow group, every other model resolves results in
        // one cycle (width does not enter exec_latency).
        let slow = MachineConfig::baseline(8);
        let fast = MachineConfig::ideal(8);
        // Each static instruction decoded once, not once per step.
        let decoded: Vec<TraceStep> = prog
            .code
            .iter()
            .map(|inst| TraceStep {
                sources: inst.source_regs(),
                dest: inst.dest(),
                lat_slow: slow.exec_latency(inst.op),
                lat_fast: fast.exec_latency(inst.op),
                width: access_width(inst.op),
            })
            .collect();
        let mut emu = Emulator::new(prog);
        let mut comp_slow = [0u64; NUM_REGS];
        let mut comp_fast = [0u64; NUM_REGS];
        let mut facts = TraceFacts {
            retired: 0,
            halted: false,
            pc_fault: false,
            height_baseline: 0,
            height_fast: 0,
            oob_accesses: 0,
            first_violation: None,
        };
        let mut steps = 0u64;
        while steps < max_steps {
            match emu.step() {
                Ok(r) => {
                    steps += 1;
                    let step = &decoded[r.pc];
                    if let Some(ea) = r.ea {
                        let width = step.width;
                        if !covered(&regions, ea, width) {
                            facts.oob_accesses += 1;
                            facts.first_violation.get_or_insert(MemViolation {
                                pc: r.pc,
                                ea,
                                width,
                                store: r.inst.op.is_store(),
                            });
                        }
                    }
                    let mut ready_slow = 0;
                    let mut ready_fast = 0;
                    for &s in step.sources.as_slice() {
                        ready_slow = ready_slow.max(comp_slow[s.index()]);
                        ready_fast = ready_fast.max(comp_fast[s.index()]);
                    }
                    let done_slow = ready_slow + step.lat_slow;
                    let done_fast = ready_fast + step.lat_fast;
                    if let Some(d) = step.dest {
                        comp_slow[d.index()] = done_slow;
                        comp_fast[d.index()] = done_fast;
                    }
                    facts.height_baseline = facts.height_baseline.max(done_slow);
                    facts.height_fast = facts.height_fast.max(done_fast);
                    if r.inst.op == Opcode::Halt {
                        facts.halted = true;
                        break;
                    }
                }
                Err(StepError::Halted) => {
                    facts.halted = true;
                    break;
                }
                Err(StepError::PcOutOfRange(_)) => {
                    facts.pc_fault = true;
                    break;
                }
            }
        }
        facts.retired = emu.retired();
        facts
    }

    /// The static dataflow-limit IPC upper bound for `model` at issue
    /// width `width`: `N / max(H, ceil(N / width))`, where `H` is the
    /// model's dependence-height and `N` the retired-instruction count.
    /// No simulation of the same program on the same model/width can
    /// exceed it.
    pub fn bound_ipc(&self, model: CoreModel, width: usize) -> f64 {
        let h = match model {
            CoreModel::Baseline => self.height_baseline,
            _ => self.height_fast,
        };
        let n = self.retired;
        if n == 0 {
            return 0.0;
        }
        let cycles = h.max(n.div_ceil(width.max(1) as u64)).max(1);
        n as f64 / cycles as f64
    }
}

// ---------------------------------------------------------------------------
// Forward dataflow: must-initialized registers
// ---------------------------------------------------------------------------

/// Registers definitely written by the instructions of `blk` given the
/// incoming mask.
fn scan_defs(prog: &Program, blk: Block, mut mask: RegMask) -> RegMask {
    for pc in blk.start..blk.end {
        if let Some(d) = prog.code[pc].dest() {
            mask |= bit(d);
        }
    }
    mask
}

/// Block-entry "must be initialized" masks. The entry starts from the
/// program's `init_regs` (plus the always-zero register); merges
/// intersect; the fallthrough edge of a call assumes the callee may have
/// initialized anything (so return values never flag).
fn must_init(prog: &Program, cfg: &Cfg, entry_mask: RegMask) -> Vec<RegMask> {
    let nb = cfg.blocks.len();
    let mut state = vec![ALL_REGS; nb];
    if nb == 0 {
        return state;
    }
    state[cfg.entry] = entry_mask;
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            let out_flow = scan_defs(prog, cfg.blocks[b], state[b]);
            for &(s, kind) in &cfg.succs[b] {
                let out = match kind {
                    EdgeKind::CallFall => ALL_REGS,
                    _ => out_flow,
                };
                let merged = state[s] & out;
                let merged = if s == cfg.entry {
                    merged | entry_mask & merged
                } else {
                    merged
                };
                if merged != state[s] {
                    state[s] = merged;
                    changed = true;
                }
            }
        }
    }
    state
}

// ---------------------------------------------------------------------------
// Forward dataflow: call-linkage discipline
// ---------------------------------------------------------------------------

/// The source of a register-to-register move idiom (`bis r, r, d`,
/// `bis r, #0, d`, `bis r31, r, d`, …), if the instruction is one.
fn move_source(inst: &Inst) -> Option<Reg> {
    if inst.op != Opcode::Bis {
        return None;
    }
    match (inst.ra, inst.rb) {
        (ra, Operand::Reg(rb)) if ra == rb => Some(ra),
        (ra, Operand::Imm(0)) if !ra.is_zero_reg() => Some(ra),
        (ra, Operand::Reg(rb)) if rb.is_zero_reg() && !ra.is_zero_reg() => Some(ra),
        (ra, Operand::Reg(rb)) if ra.is_zero_reg() => Some(rb),
        _ => None,
    }
}

/// Per-register three-valued linkage facts as two must-masks:
/// `link` = definitely holds a live return address planted by a call,
/// `not` = definitely does not. A register in neither mask is unknown
/// (e.g. after a load — callees legally spill and reload their link).
#[derive(Clone, Copy, PartialEq)]
struct Linkage {
    link: RegMask,
    not: RegMask,
}

impl Linkage {
    const TOP: Linkage = Linkage {
        link: ALL_REGS,
        not: ALL_REGS,
    };

    fn meet(self, other: Linkage) -> Linkage {
        Linkage {
            link: self.link & other.link,
            not: self.not & other.not,
        }
    }
}

fn scan_linkage(prog: &Program, blk: Block, mut st: Linkage) -> Linkage {
    for pc in blk.start..blk.end {
        let inst = &prog.code[pc];
        let Some(d) = inst.dest() else { continue };
        let db = bit(d);
        if matches!(inst.op, Opcode::Bsr | Opcode::Jmp) {
            st.link |= db;
            st.not &= !db;
        } else if let Some(src) = move_source(inst) {
            let (l, n) = if src.is_zero_reg() {
                (false, true)
            } else {
                (st.link & bit(src) != 0, st.not & bit(src) != 0)
            };
            st.link = if l { st.link | db } else { st.link & !db };
            st.not = if n { st.not | db } else { st.not & !db };
        } else if inst.op.is_load() {
            st.link &= !db;
            st.not &= !db;
        } else {
            st.link &= !db;
            st.not |= db;
        }
    }
    st
}

/// Block-entry linkage facts. Program entry holds no live link.
fn linkage(prog: &Program, cfg: &Cfg) -> Vec<Linkage> {
    let nb = cfg.blocks.len();
    let mut state = vec![Linkage::TOP; nb];
    if nb == 0 {
        return state;
    }
    state[cfg.entry] = Linkage {
        link: 0,
        not: ALL_REGS,
    };
    let mut changed = true;
    while changed {
        changed = false;
        for b in 0..nb {
            let out_flow = scan_linkage(prog, cfg.blocks[b], state[b]);
            for &(s, kind) in &cfg.succs[b] {
                let out = match kind {
                    EdgeKind::CallFall => Linkage { link: 0, not: 0 },
                    _ => out_flow,
                };
                let merged = state[s].meet(out);
                if merged != state[s] {
                    state[s] = merged;
                    changed = true;
                }
            }
        }
    }
    state
}

// ---------------------------------------------------------------------------
// Backward dataflow: liveness
// ---------------------------------------------------------------------------

/// Block live-out masks. `Ret` blocks treat every register as live (the
/// caller — across the matched return the CFG does not model — may use
/// any of them); `Halt` blocks end the program with nothing live.
fn liveness(prog: &Program, cfg: &Cfg) -> Vec<RegMask> {
    let nb = cfg.blocks.len();
    let mut live_in = vec![0 as RegMask; nb];
    let mut live_out = vec![0 as RegMask; nb];
    let use_def: Vec<(RegMask, RegMask)> = cfg
        .blocks
        .iter()
        .map(|blk| {
            let mut used = 0;
            let mut def = 0;
            for pc in blk.start..blk.end {
                let inst = &prog.code[pc];
                for &s in inst.source_regs().as_slice() {
                    if def & bit(s) == 0 {
                        used |= bit(s);
                    }
                }
                if let Some(d) = inst.dest() {
                    def |= bit(d);
                }
            }
            (used, def)
        })
        .collect();
    // `Ret` blocks feed unknown callers; `Halt` freezes the architectural
    // state the harness inspects (e.g. the checksum register). Both make
    // every register observable.
    let rets: Vec<bool> = cfg
        .blocks
        .iter()
        .map(|blk| matches!(prog.code[blk.end - 1].op, Opcode::Ret | Opcode::Halt))
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let mut out = if rets[b] { ALL_REGS } else { 0 };
            for &(s, _) in &cfg.succs[b] {
                out |= live_in[s];
            }
            let (used, def) = use_def[b];
            let new_in = used | (out & !def);
            if out != live_out[b] || new_in != live_in[b] {
                live_out[b] = out;
                live_in[b] = new_in;
                changed = true;
            }
        }
    }
    live_out
}

// ---------------------------------------------------------------------------
// Value-range analysis and the static memory proof
// ---------------------------------------------------------------------------

const WIDEN_AFTER: u32 = 8;

type ItvState = [Itv; NUM_REGS];

fn scan_itv(prog: &Program, blk: Block, mut st: ItvState) -> ItvState {
    for pc in blk.start..blk.end {
        let inst = &prog.code[pc];
        if let Some(d) = inst.dest() {
            st[d.index()] = transfer_itv(inst, &st, pc);
        }
    }
    st
}

/// Fixpoint of the interval analysis: block-entry states for reachable
/// blocks. Registers start exactly zero (the emulator's initial state)
/// with `init_regs` applied on top.
fn value_ranges(prog: &Program, cfg: &Cfg) -> Vec<Option<ItvState>> {
    let nb = cfg.blocks.len();
    let mut state: Vec<Option<ItvState>> = vec![None; nb];
    if nb == 0 {
        return state;
    }
    let mut entry = [Itv::exact(0); NUM_REGS];
    for &(r, v) in &prog.init_regs {
        if (r as usize) < NUM_REGS {
            entry[r as usize] = Itv::exact(v);
        }
    }
    state[cfg.entry] = Some(entry);
    let mut visits = vec![0u32; nb];
    let mut work = vec![cfg.entry];
    while let Some(b) = work.pop() {
        visits[b] += 1;
        let Some(in_state) = state[b] else { continue };
        let out_flow = scan_itv(prog, cfg.blocks[b], in_state);
        for &(s, kind) in &cfg.succs[b] {
            let out = match kind {
                EdgeKind::CallFall => [Itv::TOP; NUM_REGS],
                _ => out_flow,
            };
            let merged = match state[s] {
                None => out,
                Some(old) => {
                    let mut m = old;
                    for (slot, new) in m.iter_mut().zip(out.iter()) {
                        let joined = slot.join(*new);
                        *slot = if visits[s] > WIDEN_AFTER {
                            joined.widen(*slot)
                        } else {
                            joined
                        };
                    }
                    m
                }
            };
            if state[s] != Some(merged) {
                state[s] = Some(merged);
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }
    state
}

/// Statically checks every reachable memory access against the declared
/// regions. Returns `(sites, proved)`.
fn prove_memory(
    prog: &Program,
    cfg: &Cfg,
    ranges: &[Option<ItvState>],
    regions: &[(u64, u64)],
) -> (usize, usize) {
    let mut sites = 0;
    let mut proved = 0;
    for (b, blk) in cfg.blocks.iter().enumerate() {
        let Some(entry) = ranges[b] else { continue };
        let mut st = entry;
        for pc in blk.start..blk.end {
            let inst = &prog.code[pc];
            if inst.op.is_mem() {
                sites += 1;
                let base = if inst.ra.is_zero_reg() {
                    Itv::exact(0)
                } else {
                    st[inst.ra.index()]
                };
                let ea = base.add_signed(inst.disp);
                let width = access_width(inst.op);
                if !ea.is_top()
                    && regions.iter().any(|&(start, len)| {
                        start <= ea.lo
                            && ea.hi.saturating_add(width - 1) < start.saturating_add(len)
                    })
                {
                    proved += 1;
                }
            }
            if let Some(d) = inst.dest() {
                st[d.index()] = transfer_itv(inst, &st, pc);
            }
        }
    }
    (sites, proved)
}

// ---------------------------------------------------------------------------
// The combined analysis
// ---------------------------------------------------------------------------

/// Options for [`analyze_program`].
#[derive(Debug, Clone)]
pub struct AnalyzeOptions {
    /// Emit lint findings. Style lints (dead stores, unused results,
    /// unreachable blocks, call-linkage) additionally need a [`Listing`]
    /// for spans and suppression; use-before-def reports by `pc` when no
    /// listing exists. Torture-seed sweeps disable lints entirely —
    /// random ALU soup is not style-checked, only proved safe.
    pub lints: bool,
    /// Step budget for the concrete tier-B run.
    pub max_steps: u64,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            lints: true,
            max_steps: TRACE_STEP_BOUND,
        }
    }
}

/// The full analysis result for one program.
pub struct ProgramAnalysis {
    /// Program name.
    pub name: String,
    /// Static instruction count.
    pub insts: usize,
    /// Basic-block count.
    pub blocks: usize,
    /// Natural-loop count (per back edge).
    pub loops: usize,
    /// Loops proved counted (statically terminating).
    pub counted_loops: usize,
    /// Reachable memory-access sites.
    pub mem_sites: usize,
    /// Sites proved in-bounds by the interval analysis alone.
    pub mem_proved: usize,
    /// Tier-A (static) memory-safety verdict. Never `Violated` — the
    /// static tier only proves, the concrete tier refutes.
    pub memory_static: Verdict,
    /// Tier-A (static) termination verdict.
    pub termination_static: Verdict,
    /// Merged memory-safety verdict across both tiers.
    pub memory: Verdict,
    /// Merged termination verdict across both tiers.
    pub termination: Verdict,
    /// Lint findings (after suppression).
    pub findings: Vec<Finding>,
    /// Concrete-run facts (also the dataflow-bound inputs).
    pub facts: TraceFacts,
    /// Free-form diagnostics: structural problems, the first concrete
    /// violation, budget exhaustion.
    pub notes: Vec<String>,
}

impl ProgramAnalysis {
    /// `true` when both safety claims are proved.
    pub fn safe(&self) -> bool {
        self.memory == Verdict::Proved && self.termination == Verdict::Proved
    }

    /// `true` when safe and lint-clean.
    pub fn clean(&self) -> bool {
        self.safe() && self.findings.is_empty()
    }
}

/// Analyzes `prog`: CFG + dominators + loops, the static safety tier,
/// the concrete verification/bound tier, and (optionally) the lints.
/// Pass the assembler's [`Listing`] to get `file:line:column` spans and
/// `redbin-lint: allow(...)` suppression on the style lints.
pub fn analyze_program(
    prog: &Program,
    listing: Option<&Listing>,
    opts: &AnalyzeOptions,
) -> ProgramAnalysis {
    let cfg = Cfg::build(prog);
    let dom = cfg.dominators();
    let loops = natural_loops(prog, &cfg, &dom);
    let reach = cfg.reachable();
    let regions = prog.memory_regions();
    let mut notes: Vec<String> = cfg.problems.clone();

    // Tier A: memory.
    let ranges = value_ranges(prog, &cfg);
    let (mem_sites, mem_proved) = prove_memory(prog, &cfg, &ranges, &regions);
    let memory_static = if cfg.problems.is_empty() && mem_proved == mem_sites {
        Verdict::Proved
    } else {
        Verdict::Unknown
    };

    // Tier A: termination.
    let link = linkage(prog, &cfg);
    let counted_loops = loops.iter().filter(|l| l.counted.is_some()).count();
    let termination_static = prove_termination(prog, &cfg, &loops, &link, &reach);

    // Tier B: the concrete monitored run (also the bound inputs).
    let facts = TraceFacts::trace(prog, opts.max_steps);
    if let Some(v) = facts.first_violation {
        notes.push(format!(
            "concrete run: {} of {} byte(s) at {:#x} (pc {}) is outside every declared region ({} such access(es))",
            if v.store { "store" } else { "load" },
            v.width,
            v.ea,
            v.pc,
            facts.oob_accesses,
        ));
    }
    if !facts.halted && !facts.pc_fault {
        notes.push(format!(
            "concrete run: no halt within the {}-step budget",
            opts.max_steps
        ));
    }
    if facts.pc_fault {
        notes.push("concrete run: control left the code region".to_string());
    }

    // Merge the tiers. For these closed, deterministic programs the
    // concrete run is a complete decision procedure once it halts.
    let memory = if facts.oob_accesses > 0 {
        Verdict::Violated
    } else if memory_static == Verdict::Proved || facts.halted {
        Verdict::Proved
    } else {
        Verdict::Unknown
    };
    let termination = if facts.halted {
        Verdict::Proved
    } else if facts.pc_fault {
        Verdict::Violated
    } else if termination_static == Verdict::Proved {
        Verdict::Proved
    } else {
        Verdict::Unknown
    };

    let mut findings = Vec::new();
    if opts.lints {
        collect_findings(prog, &cfg, &link, &reach, listing, &mut findings);
    }

    ProgramAnalysis {
        name: prog.name.clone(),
        insts: prog.code.len(),
        blocks: cfg.blocks.len(),
        loops: loops.len(),
        counted_loops,
        mem_sites,
        mem_proved,
        memory_static,
        termination_static,
        memory,
        termination,
        findings,
        facts,
        notes,
    }
}

/// Tier-A termination: reducible control flow whose every cycle is a
/// proved counted loop, no indirect calls, no structural defects, and
/// every reachable `Ret` provably returns through a live link register.
fn prove_termination(
    prog: &Program,
    cfg: &Cfg,
    loops: &[NaturalLoop],
    link: &[Linkage],
    reach: &[bool],
) -> Verdict {
    if !cfg.problems.is_empty() || cfg.has_indirect_call || cfg.blocks.is_empty() {
        return Verdict::Unknown;
    }
    // Every reachable Ret must carry a proved link.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let last = &prog.code[blk.end - 1];
        if last.op == Opcode::Ret {
            let st = scan_linkage(
                prog,
                Block {
                    start: blk.start,
                    end: blk.end - 1,
                },
                link[b],
            );
            if st.link & bit(last.ra) == 0 {
                return Verdict::Unknown;
            }
        }
    }
    // Remove the back edges of proved counted loops; whatever cycles
    // remain (unproved loops, irreducible regions) defeat the proof.
    let proved: BTreeSet<(usize, usize)> = loops
        .iter()
        .filter(|l| l.counted.is_some())
        .map(|l| (l.latch, l.header))
        .collect();
    let nb = cfg.blocks.len();
    let mut indeg = vec![0usize; nb];
    for b in 0..nb {
        if !reach[b] {
            continue;
        }
        for &(s, _) in &cfg.succs[b] {
            if reach[s] && !proved.contains(&(b, s)) {
                indeg[s] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..nb).filter(|&b| reach[b] && indeg[b] == 0).collect();
    let mut seen = 0;
    while let Some(b) = queue.pop() {
        seen += 1;
        for &(s, _) in &cfg.succs[b] {
            if reach[s] && !proved.contains(&(b, s)) {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    queue.push(s);
                }
            }
        }
    }
    let reachable_count = reach.iter().filter(|&&r| r).count();
    if seen == reachable_count {
        Verdict::Proved
    } else {
        Verdict::Unknown
    }
    // Soundness note: with acyclic calls (covered by the cycle check —
    // recursion shows up as a CFG cycle through the call edge) and every
    // return provably using a planted link, each procedure invocation
    // runs a bounded, loop-counted path, so the whole program halts.
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

/// `true` for register writes worth flagging when dead: pure ALU
/// results. Loads (may be deliberate cache warming) and link writes
/// (their value is the call protocol, not data) are exempt.
fn lintable_def(inst: &Inst) -> bool {
    inst.dest().is_some() && !inst.op.is_load() && !matches!(inst.op, Opcode::Bsr | Opcode::Jmp)
}

fn collect_findings(
    prog: &Program,
    cfg: &Cfg,
    link: &[Linkage],
    reach: &[bool],
    listing: Option<&Listing>,
    out: &mut Vec<Finding>,
) {
    let mut push = |rule: &'static str, pc: usize, message: String| {
        if let Some(l) = listing {
            if l.suppresses(pc, rule) {
                return;
            }
        }
        let location = listing
            .and_then(|l| l.span(pc))
            .map(|s| s.to_string())
            .unwrap_or_else(|| format!("pc {pc}"));
        out.push(Finding {
            rule,
            pc,
            location,
            message,
        });
    };

    // use-before-def: spans are optional (works on binary programs too).
    let mut entry_mask = bit(Reg::R31);
    for &(r, _) in &prog.init_regs {
        if (r as usize) < NUM_REGS {
            entry_mask |= 1 << r;
        }
    }
    let init = must_init(prog, cfg, entry_mask);
    let mut seen_ubd: BTreeSet<(usize, u8)> = BTreeSet::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let mut mask = init[b];
        for pc in blk.start..blk.end {
            let inst = &prog.code[pc];
            for &s in inst.source_regs().as_slice() {
                if mask & bit(s) == 0 && seen_ubd.insert((pc, s.0)) {
                    push(
                        "use-before-def",
                        pc,
                        format!("r{} may be read before it is ever written", s.0),
                    );
                }
            }
            if let Some(d) = inst.dest() {
                mask |= bit(d);
            }
        }
    }

    // The remaining style lints need source spans to be suppressible.
    if listing.is_none() {
        return;
    }

    // unreachable-block.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            push(
                "unreachable-block",
                blk.start,
                format!(
                    "block of {} instruction(s) can never execute",
                    blk.end - blk.start
                ),
            );
        }
    }

    // dead-store / unused-result, via a backward scan per block.
    let live_out = liveness(prog, cfg);
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let mut live = live_out[b];
        let mut defined_later: RegMask = 0;
        for pc in (blk.start..blk.end).rev() {
            let inst = &prog.code[pc];
            if let Some(d) = inst.dest() {
                if live & bit(d) == 0 && lintable_def(inst) {
                    if defined_later & bit(d) != 0 {
                        push(
                            "dead-store",
                            pc,
                            format!("r{} is overwritten before this value is ever read", d.0),
                        );
                    } else {
                        push(
                            "unused-result",
                            pc,
                            format!("the value written to r{} is never used", d.0),
                        );
                    }
                }
                live &= !bit(d);
                defined_later |= bit(d);
            }
            for &s in inst.source_regs().as_slice() {
                live |= bit(s);
            }
        }
    }

    // call-linkage: a Ret through a register that provably does not hold
    // a call-planted return address.
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        let last_pc = blk.end - 1;
        let last = &prog.code[last_pc];
        if last.op != Opcode::Ret {
            continue;
        }
        let st = scan_linkage(
            prog,
            Block {
                start: blk.start,
                end: last_pc,
            },
            link[b],
        );
        if st.not & bit(last.ra) != 0 {
            push(
                "call-linkage",
                last_pc,
                format!(
                    "ret through r{}, which provably does not hold a return address",
                    last.ra.0
                ),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Issue widths the reports and the pinned bounds golden cover.
pub const REPORT_WIDTHS: [usize; 2] = [4, 8];

impl ProgramAnalysis {
    /// The per-(model, width) bound table as JSON.
    fn bounds_table(&self) -> Json {
        let mut bounds = Json::object();
        for &model in CoreModel::all() {
            let mut per_width = Json::object();
            for &w in &REPORT_WIDTHS {
                per_width.set(&format!("w{w}"), Json::Num(self.facts.bound_ipc(model, w)));
            }
            bounds.set(model.name(), per_width);
        }
        bounds
    }

    /// The full JSON entry for the `programs` subcommand report.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("name", Json::Str(self.name.clone()));
        o.set("insts", Json::UInt(self.insts as u64));
        o.set("blocks", Json::UInt(self.blocks as u64));
        o.set("loops", Json::UInt(self.loops as u64));
        o.set("counted-loops", Json::UInt(self.counted_loops as u64));
        o.set("memory", Json::Str(self.memory.label().into()));
        o.set(
            "memory-static",
            Json::Str(self.memory_static.label().into()),
        );
        o.set("mem-sites", Json::UInt(self.mem_sites as u64));
        o.set("mem-proved-static", Json::UInt(self.mem_proved as u64));
        o.set("termination", Json::Str(self.termination.label().into()));
        o.set(
            "termination-static",
            Json::Str(self.termination_static.label().into()),
        );
        o.set("retired", Json::UInt(self.facts.retired));
        o.set("height-baseline", Json::UInt(self.facts.height_baseline));
        o.set("height-fast", Json::UInt(self.facts.height_fast));
        o.set("bound-ipc", self.bounds_table());
        let findings: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                let mut fo = Json::object();
                fo.set("rule", Json::Str(f.rule.into()));
                fo.set("location", Json::Str(f.location.clone()));
                fo.set("message", Json::Str(f.message.clone()));
                fo
            })
            .collect();
        o.set("findings", Json::Arr(findings));
        o.set(
            "notes",
            Json::Arr(self.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        );
        o
    }

    /// The compact, scheduler-independent entry pinned byte-for-byte in
    /// `tests/golden/program_bounds.json`.
    pub fn bounds_json(&self) -> Json {
        let mut o = Json::object();
        o.set("name", Json::Str(self.name.clone()));
        o.set("retired", Json::UInt(self.facts.retired));
        o.set("height-baseline", Json::UInt(self.facts.height_baseline));
        o.set("height-fast", Json::UInt(self.facts.height_fast));
        o.set("bound-ipc", self.bounds_table());
        o
    }

    /// One summary line for the text report.
    pub fn render_line(&self) -> String {
        format!(
            "  {:<18} mem {:<8} halt {:<8} loops {}/{} mem-proof {}/{} findings {:>2}  N {:>7}  H {:>6}/{:<6} bound(w8) {:.3}/{:.3}",
            self.name,
            self.memory.label(),
            self.termination.label(),
            self.counted_loops,
            self.loops,
            self.mem_proved,
            self.mem_sites,
            self.findings.len(),
            self.facts.retired,
            self.facts.height_baseline,
            self.facts.height_fast,
            self.facts.bound_ipc(CoreModel::Baseline, 8),
            self.facts.bound_ipc(CoreModel::Ideal, 8),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin::isa::Operand;
    use redbin::workload::text;

    fn asm(src: &str) -> (Program, Listing) {
        text::parse_listing(src).expect("assembles")
    }

    #[test]
    fn cfg_blocks_loops_and_counted_proof() {
        // li r1, 5; top: subq r1, #1, r1; bgt r1, top; halt
        let src = "\
        .reg r2, 0
top:    subq r1, #1, r1
        bgt r1, top
        halt
";
        let (prog, _) = asm(src);
        let prog = prog.with_reg(1, 5);
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 2);
        let dom = cfg.dominators();
        let loops = natural_loops(&prog, &cfg, &dom);
        assert_eq!(loops.len(), 1);
        assert_eq!(loops[0].counted, Some((Reg(1), 1)));
        let a = analyze_program(&prog, None, &AnalyzeOptions::default());
        assert_eq!(a.termination_static, Verdict::Proved);
        assert_eq!(a.termination, Verdict::Proved);
        assert_eq!(a.memory, Verdict::Proved); // no memory accesses
        assert_eq!(a.facts.retired, 11); // 5 iterations x 2 + halt
    }

    #[test]
    fn uncounted_loop_is_statically_unknown_but_concretely_proved() {
        // The counter moves by a register amount — not a counted loop,
        // but the concrete run still halts.
        let src = "\
        .reg r1, 10
        .reg r2, 2
top:    subq r1, r2, r1
        bgt r1, top
        halt
";
        let (prog, _) = asm(src);
        let a = analyze_program(&prog, None, &AnalyzeOptions::default());
        assert_eq!(a.termination_static, Verdict::Unknown);
        assert_eq!(a.termination, Verdict::Proved);
    }

    #[test]
    fn masked_index_store_is_statically_proved() {
        // The `and #63` / `s8addq` idiom the torture generator uses.
        let src = "\
        .data
        .org 0x1000
buf:    .space 512
        .text
        .reg r16, 0x1000
        and r1, #63, r2
        s8addq r2, r16, r3
        stq r4, (r3)
        halt
";
        let (prog, _) = asm(src);
        let a = analyze_program(&prog, None, &AnalyzeOptions::default());
        assert_eq!(a.mem_sites, 1);
        assert_eq!(a.mem_proved, 1);
        assert_eq!(a.memory_static, Verdict::Proved);
    }

    #[test]
    fn out_of_bounds_store_is_violated() {
        let src = "\
        .data
        .org 0x1000
buf:    .space 64
        .text
        .reg r16, 0x1000
        stq r1, 64(r16)
        halt
";
        let (prog, _) = asm(src);
        let a = analyze_program(&prog, None, &AnalyzeOptions::default());
        assert_eq!(a.memory_static, Verdict::Unknown);
        assert_eq!(a.memory, Verdict::Violated);
        assert!(!a.safe());
        let v = a.facts.first_violation.expect("violation recorded");
        assert_eq!(v.ea, 0x1040);
        assert!(v.store);
    }

    #[test]
    fn use_before_def_fires_and_init_reg_clears_it() {
        let prog = Program::new(vec![
            Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(2)),
            Inst::halt(),
        ]);
        let a = analyze_program(&prog, None, &AnalyzeOptions::default());
        assert_eq!(a.findings.len(), 1);
        assert_eq!(a.findings[0].rule, "use-before-def");
        assert_eq!(a.findings[0].location, "pc 0");

        let fixed = prog.clone().with_reg(1, 0);
        let a = analyze_program(&fixed, None, &AnalyzeOptions::default());
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn style_lints_fire_with_spans_and_are_suppressible() {
        let src = "\
        .reg r1, 7
        addq r1, #1, r2
        addq r1, #2, r2
        stq r2, 0(r31)          ; keeps the second write live
        halt
dead:   addq r1, #3, r3
        br dead
";
        let (prog, listing) = asm(src);
        let a = analyze_program(&prog, Some(&listing), &AnalyzeOptions::default());
        let rules: Vec<&str> = a.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"dead-store"), "{rules:?}");
        assert!(rules.contains(&"unreachable-block"), "{rules:?}");
        let dead = a
            .findings
            .iter()
            .find(|f| f.rule == "dead-store")
            .expect("dead");
        assert_eq!(dead.pc, 0);
        assert_eq!(dead.location, "2:9");

        let suppressed = src.replace(
            "        addq r1, #1, r2",
            "        addq r1, #1, r2 ; redbin-lint: allow(dead-store)",
        );
        let (prog, listing) = asm(&suppressed);
        let a = analyze_program(&prog, Some(&listing), &AnalyzeOptions::default());
        assert!(
            a.findings.iter().all(|f| f.rule != "dead-store"),
            "{:?}",
            a.findings
        );
    }

    #[test]
    fn call_linkage_violation_is_flagged_and_clean_calls_are_not() {
        // A ret through an ALU-produced value is a provable violation.
        let bad = "\
        bsr sub
        halt
sub:    addq r31, #1, r26
        ret r26
";
        let (prog, listing) = asm(bad);
        let a = analyze_program(&prog, Some(&listing), &AnalyzeOptions::default());
        assert!(
            a.findings.iter().any(|f| f.rule == "call-linkage"),
            "{:?}",
            a.findings
        );
        assert_eq!(a.termination_static, Verdict::Unknown);

        let good = "\
        bsr sub
        halt
sub:    bis r26, r26, r25
        ret r25
";
        let (prog, listing) = asm(good);
        let a = analyze_program(&prog, Some(&listing), &AnalyzeOptions::default());
        assert!(
            a.findings.iter().all(|f| f.rule != "call-linkage"),
            "{:?}",
            a.findings
        );
        assert_eq!(a.termination_static, Verdict::Proved);
        assert_eq!(a.termination, Verdict::Proved);
    }

    #[test]
    fn bound_reflects_dependence_height_and_width() {
        // A serial add chain: every instruction depends on the last.
        let chain: Vec<Inst> = (0..20)
            .map(|_| Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1)))
            .chain([Inst::halt()])
            .collect();
        let serial = TraceFacts::trace(&Program::new(chain), TRACE_STEP_BOUND);
        // Baseline pays 2 cycles per link, the fast group 1.
        assert_eq!(serial.height_baseline, 40);
        assert_eq!(serial.height_fast, 20);
        assert!(serial.bound_ipc(CoreModel::Baseline, 8) < serial.bound_ipc(CoreModel::Ideal, 8));

        // Independent adds: the width cap is the only limit.
        let wide: Vec<Inst> = (0..20)
            .map(|i| {
                Inst::op(
                    Opcode::Addq,
                    Reg(1),
                    Operand::Imm(1),
                    Reg(2 + (i % 8) as u8),
                )
            })
            .chain([Inst::halt()])
            .collect();
        let p = Program::new(wide).with_reg(1, 0);
        let wide = TraceFacts::trace(&p, TRACE_STEP_BOUND);
        let w8 = wide.bound_ipc(CoreModel::Ideal, 8);
        let w4 = wide.bound_ipc(CoreModel::Ideal, 4);
        assert!(w8 > w4, "width cap must bind: {w8} vs {w4}");
        // The bound is never above the issue width.
        assert!(w8 <= 8.0 + 1e-9 && w4 <= 4.0 + 1e-9);
    }

    #[test]
    fn torture_programs_verify_safe_without_lints() {
        for seed in [0u64, 1, 2, 17] {
            let prog = redbin::workload::fuzz::torture_program(seed);
            let opts = AnalyzeOptions {
                lints: false,
                ..AnalyzeOptions::default()
            };
            let a = analyze_program(&prog, None, &opts);
            assert!(
                a.safe(),
                "seed {seed}: mem {:?} halt {:?} {:?}",
                a.memory,
                a.termination,
                a.notes
            );
            assert!(a.findings.is_empty());
            // The generator's loops are counted by construction; the
            // static tier must prove every one of them.
            assert_eq!(a.counted_loops, a.loops, "seed {seed}");
        }
    }
}
