//! The stall-cause taxonomy must account for every issue slot: over a whole
//! run, `used + charged == cycles × width` exactly, for every benchmark and
//! every machine model. See `SimStats::stall_accounting_is_complete`.

use redbin_sim::config::{CoreModel, MachineConfig};
use redbin_sim::stats::{SimStats, StallCause};
use redbin_sim::Simulator;
use redbin_workload::{Benchmark, Scale};

fn run(model: CoreModel, width: usize, b: Benchmark) -> SimStats {
    let program = b.program(Scale::Test);
    Simulator::new(MachineConfig::new(model, width), &program)
        .run()
        .expect("benchmark runs")
}

#[test]
fn every_slot_is_charged_on_every_benchmark_and_model() {
    for b in Benchmark::all() {
        for &model in CoreModel::all() {
            let stats = run(model, 8, b);
            assert!(
                stats.stall_accounting_is_complete(),
                "{b:?}/{model}: used {} + charged {} != cycles {} x width {}",
                stats.stall.used,
                stats.stall.charged(),
                stats.cycles,
                stats.width,
            );
            assert_eq!(
                stats.stall.used, stats.retired,
                "{b:?}/{model}: every retired instruction issued exactly once"
            );
        }
    }
}

#[test]
fn narrow_machine_accounts_too() {
    for b in [Benchmark::Gap, Benchmark::Mcf, Benchmark::Vortex95] {
        let stats = run(CoreModel::RbFull, 4, b);
        assert!(stats.stall_accounting_is_complete());
        assert_eq!(stats.width, 4);
    }
}

#[test]
fn ideal_machine_never_charges_bypass_holes_or_conversions() {
    // The Ideal model has 1-cycle adds, a full bypass network, and no
    // conversion stage: those two causes must be structurally impossible.
    for b in Benchmark::all() {
        let stats = run(CoreModel::Ideal, 8, b);
        assert_eq!(
            stats.stall.count(StallCause::BypassHole),
            0,
            "{b:?}: ideal machine charged bypass holes"
        );
        assert_eq!(
            stats.stall.count(StallCause::ConversionWait),
            0,
            "{b:?}: ideal machine charged conversion waits"
        );
    }
}

#[test]
fn dependent_code_charges_operand_wait_and_parallel_code_runs_clean() {
    use redbin_isa::{Inst, Opcode, Operand, Program, Reg};
    // A long serial add chain: most unused slots are operand waits.
    let mut code = vec![Inst::op(
        Opcode::Addq,
        Reg::R31,
        Operand::Imm(4000),
        Reg(20),
    )];
    for _ in 0..32 {
        code.push(Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1)));
    }
    code.push(Inst::op(Opcode::Subq, Reg(20), Operand::Imm(1), Reg(20)));
    code.push(Inst::branch(Opcode::Bne, Reg(20), -34));
    code.push(Inst::halt());
    let p = Program::new(code);
    let stats = Simulator::new(MachineConfig::baseline(8), &p)
        .run()
        .expect("runs");
    assert!(stats.stall_accounting_is_complete());
    let waits = stats.stall.count(StallCause::OperandWait);
    assert!(
        waits > stats.stall.charged() / 2,
        "serial chain: operand-wait {waits} should dominate {} charged slots",
        stats.stall.charged()
    );
}

#[test]
fn rb_limited_charges_holes_that_rb_full_does_not() {
    // The paper's §4.2 machine removes BYP-2 and the RB-side BYP-3: a
    // dependence chain of adds at distance 2 lands in the hole.
    let mut total_full = 0u64;
    let mut total_limited = 0u64;
    for b in Benchmark::all() {
        total_full += run(CoreModel::RbFull, 8, b)
            .stall
            .count(StallCause::BypassHole);
        total_limited += run(CoreModel::RbLimited, 8, b)
            .stall
            .count(StallCause::BypassHole);
    }
    assert!(
        total_limited > total_full,
        "limited bypass should expose holes: limited {total_limited} vs full {total_full}"
    );
}
