//! The three-way differential oracle behind the fuzz and whole-program
//! suites.
//!
//! Any program the workspace can express is validated three independent
//! ways:
//!
//! 1. **Redundant datapath** — [`redbin_sim::fidelity::check`] runs the
//!    standalone emulator and recomputes every redundant-capable
//!    operation, branch test and modified-SAM row of its retired stream on
//!    the redundant-binary shadow datapath, which must agree with the
//!    emulator everywhere.
//! 2. **Emulator vs. fast simulator** — the emulator's final
//!    [`ArchState`] (registers, pc, retirement count, memory digest) from
//!    that pass and the timing simulator's embedded oracle must agree.
//! 3. **Event-driven vs. reference scheduler** — the optimized wakeup
//!    scheduler must match the retained `issue_reference` implementation
//!    statistic for statistic.
//!
//! [`check_program`] runs all three legs for one program/machine pair:
//! one emulation with the redundant-datapath pass beside it, and two
//! timing simulations.
//! [`check_seed`] feeds a [`redbin_workload::fuzz`] torture program plus
//! a seed-derived machine configuration through the same oracle and, on
//! failure, packages everything needed to reproduce: the seed, the
//! machine, the failing leg, and the full disassembly.
//!
//! # Example
//!
//! ```
//! use redbin::differential;
//!
//! let verdict = differential::check_seed(7).expect("seed 7 is clean");
//! assert!(verdict.retired > 0);
//! ```

use redbin_isa::{ArchState, Program, StepError};
use redbin_sim::{
    BypassLevels, CoreModel, DatapathMode, MachineConfig, SimStats, Simulator, SteeringPolicy,
};
use redbin_testkit::Rng;
use redbin_workload::fuzz;

/// Emulator step budget for oracle runs — far above any bundled workload
/// (the full-scale suite retires tens of millions of instructions at most)
/// but finite, so a non-terminating program fails instead of hanging.
pub const EMULATOR_STEP_BOUND: u64 = 200_000_000;

/// What a clean three-way differential run measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleVerdict {
    /// Retired instructions (identical across all executions by
    /// construction — the oracle fails otherwise).
    pub retired: u64,
    /// Simulated cycles of the timing run.
    pub cycles: u64,
    /// IPC of the timing run.
    pub ipc: f64,
    /// Comparisons the redundant-datapath leg made.
    pub fidelity_checks: u64,
}

/// One leg of the oracle disagreeing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleFailure {
    /// The program's name.
    pub program: String,
    /// Which comparison failed: `"redundant-datapath"`, `"emulator"`,
    /// `"fast-simulator"`, `"emulator-vs-fast"`, `"reference-scheduler"` or
    /// `"event-driven-vs-reference"`.
    pub leg: &'static str,
    /// Human-readable detail: the first diverging field, or the error.
    pub detail: String,
}

impl std::fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "differential oracle failed on `{}` [{}]: {}",
            self.program, self.leg, self.detail
        )
    }
}

impl std::error::Error for OracleFailure {}

/// A fuzz seed failing the oracle, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct SeedFailure {
    /// The failing seed.
    pub seed: u64,
    /// The machine configuration the seed resolved to.
    pub config: MachineConfig,
    /// The underlying disagreement.
    pub failure: OracleFailure,
    /// The generated program, disassembled ([`fuzz::disassemble`]).
    pub disassembly: String,
}

impl std::fmt::Display for SeedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.failure)?;
        writeln!(f, "seed: {:#018x}", self.seed)?;
        writeln!(
            f,
            "reproduce: redbin-repro fuzz --start-seed {} --seeds 1",
            self.seed
        )?;
        writeln!(f, "machine: {:?}", self.config)?;
        write!(f, "program:\n{}", self.disassembly)
    }
}

impl std::error::Error for SeedFailure {}

fn fail(program: &Program, leg: &'static str, detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        program: program.name.clone(),
        leg,
        detail: detail.into(),
    }
}

/// How an emulation that did not halt stopped: control left the code, or
/// the step budget ran out.
fn stop(program: &Program, state: &ArchState) -> String {
    if state.pc < program.code.len() {
        format!("no halt within {EMULATOR_STEP_BOUND} instructions")
    } else {
        let fault = StepError::PcOutOfRange(state.pc);
        format!("{fault} after {} instructions", state.retired)
    }
}

/// Runs the three-way differential oracle for one program on one machine.
///
/// `base`'s datapath mode is ignored: the oracle runs the redundant
/// datapath itself, once, and simulates on the fast datapath.
///
/// # Errors
///
/// Returns the first [`OracleFailure`] encountered, in leg order. The
/// emulation stops at the first divergence, so a program whose datapaths
/// agree but that faults or does not halt fails under `"emulator"` before
/// any simulation runs.
pub fn check_program(
    program: &Program,
    base: &MachineConfig,
) -> Result<OracleVerdict, OracleFailure> {
    // The standalone emulator defines the architectural truth, and the
    // redundant datapath must compute what it does.
    let (fidelity_checks, expect) = redbin_sim::fidelity::check(program, EMULATOR_STEP_BOUND)
        .map_err(|d| fail(program, "redundant-datapath", d.to_string()))?;
    if !expect.halted {
        return Err(fail(program, "emulator", stop(program, &expect)));
    }

    // The fast simulator must land in the same architectural state.
    let fast_cfg = base.clone().with_datapath(DatapathMode::Fast);
    let (fast, fast_arch) = Simulator::new(fast_cfg.clone(), program)
        .run_with_arch()
        .map_err(|e| fail(program, "fast-simulator", e.to_string()))?;
    if let Some(d) = expect.diff(&fast_arch) {
        return Err(fail(program, "emulator-vs-fast", d));
    }

    // The event-driven scheduler against the retained reference.
    let reference = Simulator::new(fast_cfg, program)
        .with_reference_scheduler()
        .run()
        .map_err(|e| fail(program, "reference-scheduler", e.to_string()))?;
    if fast != reference {
        return Err(fail(
            program,
            "event-driven-vs-reference",
            stats_diff(&fast, &reference),
        ));
    }

    Ok(OracleVerdict {
        retired: fast.retired,
        cycles: fast.cycles,
        ipc: fast.ipc(),
        fidelity_checks,
    })
}

/// Summarizes how two stats blocks differ (headline counters only; the
/// full structures are available to a debugger via the failing test).
fn stats_diff(a: &SimStats, b: &SimStats) -> String {
    for (name, x, y) in [
        ("cycles", a.cycles, b.cycles),
        ("retired", a.retired, b.retired),
        ("mispredicts", a.mispredicts, b.mispredicts),
        (
            "bypassed-operands",
            a.bypassed_operands,
            b.bypassed_operands,
        ),
        ("regfile-operands", a.regfile_operands, b.regfile_operands),
        ("store-forwards", a.store_forwards, b.store_forwards),
        ("stall-used", a.stall.used, b.stall.used),
    ] {
        if x != y {
            return format!("{name}: {x} vs {y}");
        }
    }
    "stats differ outside the headline counters".to_string()
}

/// Derives a sound, shipped-shape machine configuration from a fuzz seed:
/// model × width plus one bypass/steering/datapath-layout variant.
///
/// Mirrors the scheduler differential suite's config generator, including
/// its soundness constraint: `rb_rf_only` always keeps full bypass, since
/// dropping level 3 there makes some operands statically unreachable
/// (`redbin-analyze` rejects that machine as unsound).
pub fn torture_config(seed: u64) -> MachineConfig {
    // Decorrelate from the program stream, which consumes `seed` directly.
    let mut rng = Rng::new(seed ^ 0xC0F1_6D1F_F00D_5EED);
    let model = *rng.pick(CoreModel::all());
    let width = if rng.next_bool() { 4 } else { 8 };
    let mut cfg = MachineConfig::new(model, width);
    match rng.range_u64(0, 7) {
        0 => cfg = cfg.with_bypass(BypassLevels::without(&[2])),
        1 => cfg = cfg.with_bypass(BypassLevels::without(&[3])),
        2 => cfg = cfg.with_bypass(BypassLevels::without(&[2, 3])),
        3 => cfg = cfg.with_steering(SteeringPolicy::DependenceAware),
        4 => cfg = cfg.with_rb_rf_only(),
        _ => {}
    }
    // A divergence that deadlocks a scheduler must fail fast, not hang CI.
    cfg.max_cycles = 2_000_000;
    cfg
}

/// Runs one fuzz seed through the oracle: generates the torture program
/// and machine from the seed, then delegates to [`check_program`].
///
/// # Errors
///
/// Returns a [`SeedFailure`] carrying the seed, machine, and disassembly
/// alongside the underlying [`OracleFailure`] — a self-contained repro.
pub fn check_seed(seed: u64) -> Result<OracleVerdict, Box<SeedFailure>> {
    let program = fuzz::torture_program(seed);
    let config = torture_config(seed);
    check_program(&program, &config).map_err(|failure| {
        Box::new(SeedFailure {
            seed,
            config,
            failure,
            disassembly: fuzz::disassemble(&program),
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin_workload::{Benchmark, Scale};

    #[test]
    fn a_proxy_kernel_passes_all_three_legs() {
        let program = Benchmark::Gzip.program(Scale::Test);
        let verdict = check_program(&program, &MachineConfig::rb_full(8)).expect("clean");
        assert!(verdict.retired > 0);
        assert!(verdict.fidelity_checks > 0, "the datapath leg must check");
    }

    #[test]
    fn a_program_that_leaves_the_code_fails_the_emulator_leg() {
        use redbin_isa::{Inst, Opcode, Operand, Reg};
        // The branch targets pc 6, past the end of the two-instruction code.
        let program = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(1), Reg(1)),
            Inst::br(4),
        ]);
        let failure = check_program(&program, &MachineConfig::rb_full(4)).expect_err("faults");
        assert_eq!(failure.leg, "emulator");
        assert_eq!(
            failure.detail,
            "pc 6 is outside the code region after 2 instructions"
        );
    }

    #[test]
    fn torture_configs_are_always_statically_sound() {
        for seed in 0..256u64 {
            let cfg = torture_config(seed);
            assert!(
                !cfg.rb_rf_only || cfg.bypass == BypassLevels::FULL,
                "seed {seed}: rb_rf_only with limited bypass is unsound"
            );
            assert_eq!(cfg.max_cycles, 2_000_000);
        }
    }

    #[test]
    fn a_handful_of_seeds_pass_the_oracle() {
        for seed in 0..4u64 {
            let v = check_seed(seed).unwrap_or_else(|f| panic!("{f}"));
            assert!(v.retired > 10, "seed {seed} retired {}", v.retired);
        }
    }

    #[test]
    fn failures_render_a_reproducible_report() {
        let f = SeedFailure {
            seed: 0x2A,
            config: MachineConfig::rb_full(8),
            failure: OracleFailure {
                program: "torture-0x2a".into(),
                leg: "emulator-vs-fast",
                detail: "reg r9: 1 vs 2".into(),
            },
            disassembly: "        halt\n".into(),
        };
        let text = f.to_string();
        assert!(text.contains("--start-seed 42"), "{text}");
        assert!(text.contains("halt"), "{text}");
        assert!(text.contains("emulator-vs-fast"), "{text}");
    }
}
