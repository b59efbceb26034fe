//! Dataflow-limit invariant suite: the static IPC upper bound from
//! `redbin_analyze::program` must dominate every simulated IPC.
//!
//! The bound is the critical-path height of the dynamic dependence
//! graph under the model's execution latencies, capped by fetch width —
//! no pipeline, bypass network, or scheduler can beat it. Three checks:
//!
//! 1. every shipped program (twenty kernels + five whole programs) on
//!    every core model at both report widths,
//! 2. two hundred torture-fuzz seeds on their seed-derived machines
//!    (striped like `integration_fuzz.rs`),
//! 3. a bypass-ablation property: the bound does not depend on the
//!    bypass network, so ablating levels can only move simulated IPC
//!    further below it.
//!
//! The per-program numbers themselves are pinned byte-for-byte in
//! `tests/golden/program_bounds.json` (regenerate intentional changes
//! with `REDBIN_REGEN_GOLDEN=1`). The bound is emulator-derived, so the
//! golden is scheduler-independent by construction.

mod common;

use common::check_golden;
use redbin::differential;
use redbin::isa::Program;
use redbin::json::Json;
use redbin::sim::{BypassLevels, CoreModel, MachineConfig};
use redbin::workload::{fuzz, Benchmark, Scale, WholeProgram};
use redbin_analyze::program::{
    analyze_program, AnalyzeOptions, TraceFacts, REPORT_WIDTHS, TRACE_STEP_BOUND,
};

/// Slack for float comparison only — the bound itself already includes
/// the emulator-vs-simulator `Halt` accounting difference.
const EPS: f64 = 1e-9;

fn all_programs() -> Vec<Program> {
    let mut out: Vec<Program> = Benchmark::all()
        .into_iter()
        .map(|b| b.program(Scale::Test))
        .collect();
    out.extend(
        WholeProgram::all()
            .iter()
            .map(|&wp| wp.program(Scale::Test)),
    );
    out
}

fn simulated_ipc(machine: MachineConfig, prog: &Program) -> f64 {
    redbin::sim::Simulator::new(machine, prog)
        .run()
        .unwrap_or_else(|e| panic!("{}: simulation faults: {e}", prog.name))
        .ipc()
}

/// Checks `sim IPC <= static bound` for every (model, width) pair of the
/// programs in this stripe.
fn run_program_stripe(stripe: usize, of: usize) {
    for (i, prog) in all_programs().iter().enumerate() {
        if i % of != stripe {
            continue;
        }
        let facts = TraceFacts::trace(prog, TRACE_STEP_BOUND);
        assert!(facts.halted, "{}: must halt", prog.name);
        assert_eq!(facts.oob_accesses, 0, "{}: must stay in bounds", prog.name);
        for &model in CoreModel::all() {
            for &width in &REPORT_WIDTHS {
                let bound = facts.bound_ipc(model, width);
                let machine =
                    MachineConfig::try_new(model, width).unwrap_or_else(|e| panic!("{e}"));
                let ipc = simulated_ipc(machine, prog);
                assert!(
                    ipc <= bound + EPS,
                    "{}: {} w{width}: simulated IPC {ipc:.4} beats the dataflow bound {bound:.4}",
                    prog.name,
                    model.name(),
                );
            }
        }
    }
}

#[test]
fn program_ipc_stripe_0_of_4_respects_the_bound() {
    run_program_stripe(0, 4);
}

#[test]
fn program_ipc_stripe_1_of_4_respects_the_bound() {
    run_program_stripe(1, 4);
}

#[test]
fn program_ipc_stripe_2_of_4_respects_the_bound() {
    run_program_stripe(2, 4);
}

#[test]
fn program_ipc_stripe_3_of_4_respects_the_bound() {
    run_program_stripe(3, 4);
}

/// The same invariant over the torture-fuzz generator: each seed's
/// random program on its seed-derived random machine.
fn run_fuzz_stripe(stripe: u64, of: u64) {
    for seed in (0..200).filter(|s| s % of == stripe) {
        let prog = fuzz::torture_program(seed);
        let config = differential::torture_config(seed);
        let facts = TraceFacts::trace(&prog, TRACE_STEP_BOUND);
        assert!(facts.halted, "seed {seed:#x}: torture programs halt");
        let bound = facts.bound_ipc(config.model, config.width);
        let ipc = simulated_ipc(config.clone(), &prog);
        assert!(
            ipc <= bound + EPS,
            "seed {seed:#x}: {} w{}: simulated IPC {ipc:.4} beats the bound {bound:.4}\n{}",
            config.model.name(),
            config.width,
            fuzz::disassemble(&prog),
        );
    }
}

#[test]
fn fuzz_seeds_stripe_0_of_4_respect_the_bound() {
    run_fuzz_stripe(0, 4);
}

#[test]
fn fuzz_seeds_stripe_1_of_4_respect_the_bound() {
    run_fuzz_stripe(1, 4);
}

#[test]
fn fuzz_seeds_stripe_2_of_4_respect_the_bound() {
    run_fuzz_stripe(2, 4);
}

#[test]
fn fuzz_seeds_stripe_3_of_4_respect_the_bound() {
    run_fuzz_stripe(3, 4);
}

/// The bound is a *dataflow* limit: it knows nothing of the bypass
/// network, so every Figure 14 ablation must stay under the same bound
/// its full-bypass machine does, and the bound itself must be monotone
/// in width and in latency group.
#[test]
fn bound_dominates_every_bypass_ablation() {
    let ablations = [
        BypassLevels::FULL,
        BypassLevels::without(&[1]),
        BypassLevels::without(&[2]),
        BypassLevels::without(&[3]),
        BypassLevels::without(&[1, 2]),
        BypassLevels::without(&[2, 3]),
        BypassLevels::without(&[1, 2, 3]),
    ];
    for bench in [Benchmark::Go, Benchmark::Gzip, Benchmark::Mcf] {
        let prog = bench.program(Scale::Test);
        let facts = TraceFacts::trace(&prog, TRACE_STEP_BOUND);
        for &model in CoreModel::all() {
            // Width monotonicity: a wider fetch cannot lower the limit.
            assert!(
                facts.bound_ipc(model, 8) >= facts.bound_ipc(model, 4) - EPS,
                "{}: {} bound must be monotone in width",
                prog.name,
                model.name(),
            );
            let bound = facts.bound_ipc(model, 8);
            for &bypass in &ablations {
                let machine = MachineConfig::new(model, 8).with_bypass(bypass);
                // Some ablations are statically unsound on RB models —
                // those are pruned before simulation everywhere else.
                if redbin_analyze::bypass::validate_machine(&machine).is_err() {
                    continue;
                }
                let ipc = simulated_ipc(machine, &prog);
                assert!(
                    ipc <= bound + EPS,
                    "{}: {} {}: ablated IPC {ipc:.4} beats the bound {bound:.4}",
                    prog.name,
                    model.name(),
                    bypass.label(),
                );
            }
        }
        // Latency monotonicity: Baseline's 2-cycle adder can only
        // lengthen dependence chains.
        assert!(
            facts.bound_ipc(CoreModel::Baseline, 8) <= facts.bound_ipc(CoreModel::Ideal, 8) + EPS
        );
    }
}

// --------------------------------------------------------------------------
// The pinned golden: every shipped program's bound table, byte-for-byte.

#[test]
fn program_bounds_match_the_golden() {
    let opts = AnalyzeOptions::default();
    let entries: Vec<Json> = all_programs()
        .iter()
        .map(|prog| analyze_program(prog, None, &opts).bounds_json())
        .collect();
    let mut doc = Json::object();
    doc.set("programs", Json::Arr(entries));
    check_golden("program_bounds.json", &doc.to_pretty());
}
