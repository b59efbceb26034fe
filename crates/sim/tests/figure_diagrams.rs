//! Reproduces the paper's pipeline-diagram examples (Figures 4, 5 and 7):
//! the dependency graph SLL → {AND, ADD}, ADD → SUB, SLL → SUB, timed on
//! the RB machine with a full bypass network (Figure 5) and with the §4.2
//! limited network (Figure 7).

use redbin_isa::{Inst, Opcode, Operand, Program, Reg};
use redbin_sim::trace::PipelineTrace;
use redbin_sim::{MachineConfig, Simulator};

/// The paper's Figure 4 dependency graph, preceded by a register setup.
///
/// Returns (program, seqs of [SLL, AND, ADD, SUB]).
fn figure4_program() -> (Program, [u64; 4]) {
    let code = vec![
        // setup (seq 0): r1 = 7
        Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(7), Reg(1)),
        // SLL (seq 1): r2 = r1 << 2      (RB-output ALU)
        Inst::op(Opcode::Sll, Reg(1), Operand::Imm(2), Reg(2)),
        // AND (seq 2): r3 = r2 & 0xff    (TC-input ALU)
        Inst::op(Opcode::And, Reg(2), Operand::Imm(0xff), Reg(3)),
        // ADD (seq 3): r4 = r2 + 1       (RB-output ALU, forwards from SLL)
        Inst::op(Opcode::Addq, Reg(2), Operand::Imm(1), Reg(4)),
        // SUB (seq 4): r5 = r4 − r2      (needs ADD and SLL results)
        Inst::op(Opcode::Subq, Reg(4), Operand::Reg(Reg(2)), Reg(5)),
        Inst::halt(),
    ];
    (Program::new(code), [1, 2, 3, 4])
}

fn run_traced(cfg: MachineConfig) -> PipelineTrace {
    let (program, _) = figure4_program();
    let sim = Simulator::new(cfg, &program);
    let (_stats, trace) = sim.run_traced().expect("runs");
    trace
}

#[test]
fn figure5_full_bypass_timing() {
    // RB-full: the ADD executes the cycle after SLL's EXE via BYP-1 (in
    // redundant format); the SUB chains off the ADD the next cycle; the
    // AND (2's-complement consumer) waits for the CV1/CV2 conversion.
    let t = run_traced(MachineConfig::rb_full(4));
    let sll = t.entry(1).expect("sll").clone();
    let and = t.entry(2).expect("and").clone();
    let add = t.entry(3).expect("add").clone();
    let sub = t.entry(4).expect("sub").clone();

    assert!(sll.rb, "SLL produces a redundant result on the RB machine");
    assert_eq!(sll.tc_ready, sll.exec_end + 2, "two conversion stages");
    assert_eq!(
        add.exec_start,
        sll.exec_end + 1,
        "ADD consumes SLL's intermediate redundant result back-to-back\n{}",
        t.render(&[1, 2, 3, 4])
    );
    assert_eq!(
        sub.exec_start,
        add.exec_end + 1,
        "SUB chains off ADD in redundant format"
    );
    assert_eq!(
        and.exec_start,
        sll.tc_ready + 1,
        "AND must wait for the converted (BYP-3) value"
    );
}

#[test]
fn figure7_limited_bypass_delays_the_sub() {
    // RB-limited: BYP-2 is gone and BYP-3 is not wired to the RB-input
    // ALUs, so SLL's value has a 2-cycle hole; the SUB (whose other
    // operand arrives one cycle after SLL's BYP-1 slot) must wait for the
    // register file.
    let full = run_traced(MachineConfig::rb_full(4));
    let limited = run_traced(MachineConfig::rb_limited(4));
    let sub_full = full.entry(4).expect("sub").clone();
    let sub_lim = limited.entry(4).expect("sub").clone();
    let sll_lim = limited.entry(1).expect("sll").clone();
    let and_lim = limited.entry(2).expect("and").clone();

    assert!(
        sub_lim.exec_start > sub_full.exec_start,
        "the SUB is delayed on the limited machine (full: {}, limited: {})\n{}",
        sub_full.exec_start,
        sub_lim.exec_start,
        limited.render(&[1, 2, 3, 4])
    );
    // It retrieves both operands from the register file, as in Figure 7:
    // SLL's value is readable from exec_end+4, but the ADD (which executed
    // at exec_end+1) has its own 2-cycle hole, so its register-file slot at
    // exec_end+5 is what finally releases the SUB.
    assert_eq!(
        sub_lim.exec_start,
        sll_lim.exec_end + 5,
        "the SUB retrieves its operands from the register file"
    );
    // The AND is unaffected: BYP-3 still feeds TC-input ALUs.
    assert_eq!(and_lim.exec_start, sll_lim.tc_ready + 1);
}

#[test]
fn baseline_has_no_conversion_stages() {
    let t = run_traced(MachineConfig::baseline(4));
    let sll = t.entry(1).expect("sll").clone();
    let add = t.entry(3).expect("add").clone();
    assert!(!sll.rb);
    assert_eq!(sll.tc_ready, sll.exec_end);
    // 2-cycle adds: the dependent ADD executes after the SLL completes.
    assert!(add.exec_start > sll.exec_end);
    assert_eq!(add.exec_end - add.exec_start, 1, "2-cycle pipelined add");
}

#[test]
fn rendered_diagram_shows_the_conversion_pipeline() {
    let t = run_traced(MachineConfig::rb_full(4));
    let s = t.render(&[1, 2, 3, 4]);
    assert!(s.contains("EXE"), "{s}");
    assert!(s.contains("CV1"), "{s}");
    assert!(s.contains("CV2"), "{s}");
    assert!(s.contains("WB"), "{s}");
    assert!(s.contains("sll"), "{s}");
}

#[test]
fn trace_is_complete_and_ordered() {
    let (program, _) = figure4_program();
    let sim = Simulator::new(MachineConfig::ideal(4), &program);
    let (stats, trace) = sim.run_traced().expect("runs");
    assert_eq!(trace.entries().len() as u64, stats.retired);
    for w in trace.entries().windows(2) {
        assert!(w[0].retire <= w[1].retire, "retirement is in order");
    }
    for e in trace.entries() {
        assert!(e.fetch <= e.dispatch);
        assert!(e.dispatch <= e.issue);
        assert!(e.issue < e.exec_start);
        assert!(e.exec_start <= e.exec_end);
        assert!(e.exec_end <= e.tc_ready);
        assert!(e.tc_ready < e.retire);
    }
}

#[test]
fn dependence_aware_steering_keeps_chains_together() {
    use redbin_sim::SteeringPolicy;
    use redbin_workload::{Benchmark, Scale};
    // On the clustered 8-wide RB-limited machine, steering consumers next
    // to producers should never hurt in aggregate, and usually helps on
    // chain-heavy kernels.
    let mut better = 0;
    let mut total = 0;
    for b in [
        Benchmark::Gap,
        Benchmark::Compress95,
        Benchmark::Vpr,
        Benchmark::Li,
    ] {
        let program = b.program(Scale::Test);
        let rr = Simulator::new(MachineConfig::rb_limited(8), &program)
            .run()
            .expect("runs")
            .ipc();
        let dep = Simulator::new(
            MachineConfig::rb_limited(8).with_steering(SteeringPolicy::DependenceAware),
            &program,
        )
        .run()
        .expect("runs")
        .ipc();
        total += 1;
        if dep >= rr * 0.999 {
            better += 1;
        }
    }
    assert!(
        better * 2 >= total,
        "dependence-aware steering should help or tie on most chain-heavy kernels ({better}/{total})"
    );
}
