//! Timing-class property suite: every machine simulates bit-identically
//! to its `MachineConfig::timing_class()`.
//!
//! `redbin-explore` simulates only the first job of each timing class and
//! gives its result to every grid point in the class, so the class rule
//! must be exact: identical `SimStats`, not merely close IPC. Each member
//! machine below differs from its class in a field the class resets:
//!
//! * every model at width 4 (one cluster) with dependence-aware steering
//!   and a non-default `cluster_delay`;
//! * Baseline and Ideal at both widths with `rb_rf_only`.
//!
//! The members run on all twenty kernels and five whole programs (Test
//! scale) and on tier-1 torture seeds, striped across four `#[test]`
//! functions like `integration_fuzz.rs`, and on Mcf under every Figure 14
//! bypass network. A last test pins what the class keeps apart.

use redbin::isa::Program;
use redbin::prelude::*;
use redbin::sim::SteeringPolicy;
use redbin::workload::{fuzz, WholeProgram};

/// Torture seeds `0..TORTURE_SEEDS`, a prefix of `integration_fuzz`'s
/// default range.
const TORTURE_SEEDS: u64 = 64;

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
    out.extend((0..TORTURE_SEEDS).map(fuzz::torture_program));
    out
}

/// Machines whose timing class is another machine: the fields it resets
/// are set away from their defaults.
fn members(bypass: BypassLevels) -> Vec<MachineConfig> {
    let mut out = Vec::new();
    for &model in CoreModel::all() {
        let mut m = MachineConfig::new(model, 4)
            .with_bypass(bypass)
            .with_steering(SteeringPolicy::DependenceAware);
        m.cluster_delay = 3;
        out.push(m);
    }
    for model in [CoreModel::Baseline, CoreModel::Ideal] {
        for width in [4, 8] {
            out.push(
                MachineConfig::new(model, width)
                    .with_bypass(bypass)
                    .with_rb_rf_only(),
            );
        }
    }
    out
}

fn simulate(cfg: &MachineConfig, program: &Program) -> SimStats {
    Simulator::new(cfg.clone(), program)
        .run()
        .unwrap_or_else(|e| panic!("{}: {cfg:?} failed: {e}", program.name))
}

/// Simulates every member and its class on `program` and asserts
/// identical statistics.
fn assert_members_match_their_class(program: &Program, bypass: BypassLevels) {
    for member in members(bypass) {
        let class = member.timing_class();
        assert_ne!(
            class, member,
            "{member:?} must collapse onto another machine"
        );
        let want = simulate(&class, program);
        assert!(want.retired > 0, "{}: nothing retired", program.name);
        assert_eq!(
            simulate(&member, program),
            want,
            "{} {}: {member:?} diverged from its timing class",
            program.name,
            bypass.label(),
        );
    }
}

fn run_stripe(stripe: usize, of: usize) {
    for (i, program) in all_programs().iter().enumerate() {
        if i % of == stripe {
            assert_members_match_their_class(program, BypassLevels::FULL);
        }
    }
}

#[test]
fn programs_stripe_0_of_4_match_their_timing_class() {
    run_stripe(0, 4);
}

#[test]
fn programs_stripe_1_of_4_match_their_timing_class() {
    run_stripe(1, 4);
}

#[test]
fn programs_stripe_2_of_4_match_their_timing_class() {
    run_stripe(2, 4);
}

#[test]
fn programs_stripe_3_of_4_match_their_timing_class() {
    run_stripe(3, 4);
}

/// Mcf is the memory-bound kernel whose long fills the event-driven
/// scheduler fast-forwards; every Figure 14 network moves its wakeups.
#[test]
fn mcf_matches_its_timing_class_under_every_figure14_network() {
    let program = Benchmark::Mcf.program(Scale::Test);
    for levels in experiments::figure14_configs() {
        assert_members_match_their_class(&program, levels);
    }
}

/// What can reach timing stays apart: steering and cluster delay on the
/// clustered 8-wide machine, `rb_rf_only` on the RB models, and the
/// datapath mode on every machine each give a class of their own.
#[test]
fn timing_class_keeps_fields_that_reach_timing_apart() {
    let class_hash = |cfg: &MachineConfig| cfg.timing_class().canonical_hash();
    for &model in CoreModel::all() {
        for width in [4, 8] {
            let plain = MachineConfig::new(model, width);
            assert_eq!(
                plain.timing_class(),
                plain,
                "a Table 2 machine is its own class"
            );
            let mut kept = vec![plain.clone().with_datapath(DatapathMode::Faithful)];
            if model.is_rb() {
                kept.push(plain.clone().with_rb_rf_only());
            }
            if width == 8 {
                kept.push(plain.clone().with_steering(SteeringPolicy::DependenceAware));
                let mut delayed = plain.clone();
                delayed.cluster_delay = 3;
                kept.push(delayed);
            }
            for cfg in kept {
                assert_eq!(cfg.timing_class(), cfg);
                assert_ne!(class_hash(&cfg), class_hash(&plain), "{cfg:?}");
            }
        }
    }
}
