//! Torture-fuzz integration suite: fixed seed ranges through the three-way
//! differential oracle (`redbin::differential`).
//!
//! Every seed deterministically generates a random whole program
//! (`redbin::workload::fuzz::torture_program`) and a random machine
//! configuration (`redbin::differential::torture_config`), then checks:
//!
//! 1. the `redbin_isa` emulator against the fast simulator's architectural
//!    state,
//! 2. the retired stream on the redundant-binary shadow datapath
//!    (`redbin::sim::fidelity::check`) against the emulator's values,
//! 3. the event-driven scheduler against the retained `issue_reference`.
//!
//! On failure the panic message embeds the seed, the machine configuration,
//! and the full disassembled program, plus the one-command reproduction
//! `redbin-repro fuzz --start-seed <seed> --seeds 1`.
//!
//! The seed range is environment-tunable — CI's nightly sweep runs a much
//! larger range than the default batch:
//!
//! ```text
//! REDBIN_FUZZ_START=5000 REDBIN_FUZZ_SEEDS=1000 \
//!     cargo test --release --test integration_fuzz
//! ```
//!
//! The batch is striped across four `#[test]` functions so the harness
//! runs it on four threads.

use redbin::differential;

/// A non-negative integer from the environment, or `default` when unset.
fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{name}: `{v}` is not a non-negative integer")),
        Err(_) => default,
    }
}

/// Runs every seed of the configured range with `seed % of == stripe`
/// through the oracle, panicking with the full reproduction report on the
/// first failure.
fn run_stripe(stripe: u64, of: u64) {
    let start = env_u64("REDBIN_FUZZ_START", 0);
    let n = env_u64("REDBIN_FUZZ_SEEDS", 200);
    let mut passed = 0u64;
    for seed in (start..start + n).filter(|s| s % of == stripe) {
        match differential::check_seed(seed) {
            Ok(verdict) => {
                assert!(verdict.retired > 0, "seed {seed:#x} retired nothing");
                assert!(verdict.cycles > 0, "seed {seed:#x} took no cycles");
                passed += 1;
            }
            Err(failure) => panic!("{failure}"),
        }
    }
    if n >= of {
        assert!(passed > 0, "stripe {stripe}/{of} was empty");
    }
}

#[test]
fn torture_seeds_stripe_0_of_4_pass_the_oracle() {
    run_stripe(0, 4);
}

#[test]
fn torture_seeds_stripe_1_of_4_pass_the_oracle() {
    run_stripe(1, 4);
}

#[test]
fn torture_seeds_stripe_2_of_4_pass_the_oracle() {
    run_stripe(2, 4);
}

#[test]
fn torture_seeds_stripe_3_of_4_pass_the_oracle() {
    run_stripe(3, 4);
}

/// The five hand-written whole programs also pass the full oracle — on the
/// paper's flagship machine and on a narrow baseline.
#[test]
fn the_whole_program_suite_passes_the_oracle() {
    use redbin::prelude::*;
    use redbin::workload::WholeProgram;
    for &wp in WholeProgram::all() {
        let program = wp.program(Scale::Test);
        for config in [MachineConfig::rb_full(8), MachineConfig::baseline(4)] {
            let verdict =
                differential::check_program(&program, &config).unwrap_or_else(|f| panic!("{f}"));
            assert!(
                verdict.retired > 1_000,
                "{} at test scale is too trivial to exercise the pipeline",
                wp.name()
            );
            assert!(
                verdict.fidelity_checks > 0,
                "{} never touched the faithful RB datapath",
                wp.name()
            );
        }
    }
}
