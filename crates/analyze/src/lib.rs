//! Static verification for the redbin workspace.
//!
//! Two passes, runnable independently or together (see `ANALYSIS.md` at
//! the repository root for the full rule catalogue):
//!
//! 1. [`netlist`] — structural analysis of the gate-level adders: cycle
//!    detection, per-output depth under both delay models, fan-out
//!    histograms, and a static proof of the paper's claim 1 (the RB adder's
//!    critical path is width-independent and far shorter than the CLA's).
//! 2. [`bypass`] — reachability analysis of the bypass network implied by
//!    a [`MachineConfig`]: every operand class must be obtainable, holes
//!    are classified, and static level support is diffed against the
//!    simulator's dynamic Figure 14 counters.
//!
//! The [`program`] verifier behind `redbin-analyze programs` checks
//! assembly programs. The workspace's source rules are clippy lints (see
//! `ANALYSIS.md`, "Source rules").
//!
//! The `redbin-analyze` binary wires the passes into a CI gate: exit 0
//! when clean, 1 when any pass finds a problem, 2 on usage errors.
//!
//! [`MachineConfig`]: redbin::sim::MachineConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bypass;
pub mod netlist;
pub mod program;

use std::path::PathBuf;

use redbin::json::Json;

/// What `run` should do, parsed from CLI arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Options {
    /// Run the netlist pass.
    pub netlist: bool,
    /// Run the bypass/config pass.
    pub bypass: bool,
    /// Emit a JSON report instead of text.
    pub json: bool,
}

/// CLI usage, printed on `--help` and argument errors.
pub const USAGE: &str = "\
redbin-analyze: static verification of netlists, bypass networks, and programs

USAGE:
    redbin-analyze [--netlist] [--bypass] [--all] [--json]
    redbin-analyze programs [...]     (see `redbin-analyze programs --help`)

FLAGS:
    --netlist    gate-level pass: cycles, depths, fan-out, claim-1 proof
    --bypass     config pass: operand reachability over shipped machines
    --all        both passes (default when no pass is selected)
    --json       machine-readable report on stdout
    --help       this text

EXIT CODES:
    0  every selected pass is clean
    1  at least one pass found a problem
    2  usage error
";

/// CLI usage for the `programs` subcommand.
pub const PROGRAMS_USAGE: &str = "\
redbin-analyze programs: the assembly-program verifier and dataflow-limit
IPC bounds (see ANALYSIS.md for the pass catalogue)

USAGE:
    redbin-analyze programs [--kernels] [--programs] [--file PATH]
                            [--torture-seeds N] [--start-seed S] [--json]

FLAGS:
    --kernels          verify the 20 suite kernels (Test scale)
    --programs         verify the 5 whole programs (Test scale)
    --file PATH        assemble and verify one .s file
    --torture-seeds N  safety-verify N torture programs (lints off)
    --start-seed S     first torture seed (decimal or 0x hex; default 0)
    --json             machine-readable report on stdout
    --help             this text

With no target selected, --kernels and --programs are implied.

EXIT CODES:
    0  every program proved safe, no lint findings
    1  safe, but at least one lint finding
    2  a safety claim is Violated or Unknown, or a usage/assembly error
";

/// Parses CLI arguments (without the program name).
///
/// # Errors
///
/// Returns a message (to print alongside [`USAGE`], exit 2) on unknown
/// flags. A lone `--help` returns `Err("help")` by convention — callers
/// print usage and exit 0.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut all = false;
    for a in args {
        match a.as_str() {
            "--netlist" => opts.netlist = true,
            "--bypass" => opts.bypass = true,
            "--all" => all = true,
            "--json" => opts.json = true,
            "--help" | "-h" => return Err("help".to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if all || (!opts.netlist && !opts.bypass) {
        opts.netlist = true;
        opts.bypass = true;
    }
    Ok(opts)
}

/// Runs the selected passes. Returns `(exit_code, report)` where the
/// report is JSON or human text per `opts.json` — separated from process
/// exit so tests can drive it in-process.
pub fn run(opts: &Options) -> (i32, String) {
    let mut clean = true;
    let mut doc = Json::object();
    doc.set("tool", Json::Str("redbin-analyze".into()));
    let mut text = String::new();

    if opts.netlist {
        let pass = netlist::run();
        clean &= pass.clean();
        if opts.json {
            doc.set("netlist", netlist::to_json(&pass));
        } else {
            text.push_str(&netlist_text(&pass));
        }
    }
    if opts.bypass {
        let pass = bypass::run();
        clean &= pass.clean();
        if opts.json {
            doc.set("bypass", bypass::to_json(&pass));
        } else {
            text.push_str(&bypass_text(&pass));
        }
    }

    let code = i32::from(!clean);
    if opts.json {
        doc.set("clean", Json::Bool(clean));
        (code, doc.to_pretty())
    } else {
        text.push_str(if clean {
            "analyze: clean\n"
        } else {
            "analyze: PROBLEMS FOUND\n"
        });
        (code, text)
    }
}

/// Options for the `programs` subcommand.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProgramsOptions {
    /// Verify the twenty suite kernels.
    pub kernels: bool,
    /// Verify the five whole programs.
    pub programs: bool,
    /// How many torture programs to safety-verify (0 = none).
    pub torture_seeds: u64,
    /// First torture seed.
    pub start_seed: u64,
    /// An external `.s` file to verify.
    pub file: Option<PathBuf>,
    /// Emit a JSON report instead of text.
    pub json: bool,
}

/// A parsed `redbin-analyze` invocation: either the workspace passes or
/// the `programs` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// The netlist/bypass passes.
    Passes(Options),
    /// The `programs` verifier.
    Programs(ProgramsOptions),
}

/// Parses a full argument list, dispatching on the `programs` subcommand.
///
/// # Errors
///
/// As [`parse_args`]; `--help` under `programs` returns `Err("help
/// programs")` so the caller can print [`PROGRAMS_USAGE`].
pub fn parse_command(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("programs") => parse_programs_args(&args[1..]).map(Command::Programs),
        _ => parse_args(args).map(Command::Passes),
    }
}

/// Strictly parses the arguments after `programs` — unknown flags are
/// errors, exit 2, same discipline as every other workspace binary.
///
/// # Errors
///
/// Returns a message to print alongside [`PROGRAMS_USAGE`]; `--help`
/// returns `Err("help programs")`.
pub fn parse_programs_args(args: &[String]) -> Result<ProgramsOptions, String> {
    let mut opts = ProgramsOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--kernels" => opts.kernels = true,
            "--programs" => opts.programs = true,
            "--json" => opts.json = true,
            "--torture-seeds" => match it.next() {
                Some(v) => opts.torture_seeds = redbin::cli::parse_u64(a, v)?,
                None => return Err("--torture-seeds requires a count".to_string()),
            },
            "--start-seed" => match it.next() {
                Some(v) => opts.start_seed = redbin::cli::parse_u64(a, v)?,
                None => return Err("--start-seed requires a seed".to_string()),
            },
            "--file" => match it.next() {
                Some(p) => opts.file = Some(PathBuf::from(p)),
                None => return Err("--file requires a path".to_string()),
            },
            "--help" | "-h" => return Err("help programs".to_string()),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if !opts.kernels && !opts.programs && opts.torture_seeds == 0 && opts.file.is_none() {
        opts.kernels = true;
        opts.programs = true;
    }
    Ok(opts)
}

/// Runs a parsed [`Command`].
pub fn run_command(cmd: &Command) -> (i32, String) {
    match cmd {
        Command::Passes(opts) => run(opts),
        Command::Programs(opts) => run_programs(opts),
    }
}

/// Runs the `programs` verifier. Returns `(exit_code, report)` like
/// [`run`]: 0 all safe and clean, 1 safe with findings, 2 anything
/// Violated/Unknown or a file that does not assemble.
pub fn run_programs(opts: &ProgramsOptions) -> (i32, String) {
    use program::{analyze_program, AnalyzeOptions};
    use redbin::workload::{fuzz, text, Benchmark, Scale, WholeProgram};

    let lint_opts = AnalyzeOptions::default();
    let mut analyses = Vec::new();
    let mut errors: Vec<String> = Vec::new();

    if opts.kernels {
        for bench in Benchmark::all() {
            let prog = bench.program(Scale::Test);
            analyses.push(analyze_program(&prog, None, &lint_opts));
        }
    }
    if opts.programs {
        for &wp in WholeProgram::all() {
            let (prog, listing) = wp.program_with_listing(Scale::Test);
            analyses.push(analyze_program(&prog, Some(&listing), &lint_opts));
        }
    }
    if let Some(path) = &opts.file {
        match text::parse_file_listing(path) {
            Ok((prog, listing)) => {
                let prog = prog.with_name(path.display().to_string());
                analyses.push(analyze_program(&prog, Some(&listing), &lint_opts));
            }
            Err(e) => errors.push(format!("{}: {e}", path.display())),
        }
    }

    // Torture programs are safety-verified only (lints off): random ALU
    // soup is not style-checked, just proved in-bounds and halting.
    let torture_opts = AnalyzeOptions {
        lints: false,
        ..AnalyzeOptions::default()
    };
    let mut torture_safe = 0u64;
    let mut torture_unsafe: Vec<(u64, program::ProgramAnalysis)> = Vec::new();
    for seed in opts.start_seed..opts.start_seed.saturating_add(opts.torture_seeds) {
        let prog = fuzz::torture_program(seed);
        let a = analyze_program(&prog, None, &torture_opts);
        if a.safe() {
            torture_safe += 1;
        } else {
            torture_unsafe.push((seed, a));
        }
    }

    let all_safe =
        errors.is_empty() && torture_unsafe.is_empty() && analyses.iter().all(|a| a.safe());
    let findings: usize = analyses.iter().map(|a| a.findings.len()).sum();
    let code = if !all_safe {
        2
    } else {
        i32::from(findings > 0)
    };

    if opts.json {
        let mut doc = Json::object();
        doc.set("tool", Json::Str("redbin-analyze programs".into()));
        doc.set(
            "programs",
            Json::Arr(
                analyses
                    .iter()
                    .map(program::ProgramAnalysis::to_json)
                    .collect(),
            ),
        );
        if opts.torture_seeds > 0 {
            let mut t = Json::object();
            t.set("start-seed", Json::UInt(opts.start_seed));
            t.set("seeds", Json::UInt(opts.torture_seeds));
            t.set("safe", Json::UInt(torture_safe));
            t.set(
                "unsafe",
                Json::Arr(
                    torture_unsafe
                        .iter()
                        .map(|(s, a)| {
                            let mut o = a.to_json();
                            o.set("seed", Json::UInt(*s));
                            o
                        })
                        .collect(),
                ),
            );
            doc.set("torture", t);
        }
        if !errors.is_empty() {
            doc.set(
                "errors",
                Json::Arr(errors.iter().map(|e| Json::Str(e.clone())).collect()),
            );
        }
        doc.set("safe", Json::Bool(all_safe));
        doc.set("clean", Json::Bool(all_safe && findings == 0));
        (code, doc.to_pretty())
    } else {
        let mut text = String::from("== program verifier ==\n");
        for a in &analyses {
            text.push_str(&a.render_line());
            text.push('\n');
            for f in &a.findings {
                text.push_str(&format!("    [{}] {}: {}\n", f.rule, f.location, f.message));
            }
            for n in &a.notes {
                text.push_str(&format!("    note: {n}\n"));
            }
        }
        if opts.torture_seeds > 0 {
            text.push_str(&format!(
                "  torture seeds {}..{}: {}/{} proved safe\n",
                opts.start_seed,
                opts.start_seed.saturating_add(opts.torture_seeds),
                torture_safe,
                opts.torture_seeds,
            ));
            for (seed, a) in &torture_unsafe {
                text.push_str(&format!("    UNSAFE seed {seed:#x}: "));
                text.push_str(&a.render_line());
                text.push('\n');
                for n in &a.notes {
                    text.push_str(&format!("      note: {n}\n"));
                }
            }
        }
        for e in &errors {
            text.push_str(&format!("  error: {e}\n"));
        }
        text.push_str(match code {
            0 => "programs: safe and clean\n",
            1 => "programs: safe, findings present\n",
            _ => "programs: UNSAFE OR UNPROVABLE\n",
        });
        (code, text)
    }
}

fn netlist_text(pass: &netlist::NetlistAnalysis) -> String {
    let mut s = String::from("== netlist pass ==\n");
    for c in &pass.circuits {
        s.push_str(&format!(
            "  {:<8} gates {:>5}  unit-depth {:>5.1}  fanout-depth {:>6.1}  max-fanout {:>3}{}\n",
            c.name,
            c.gates,
            c.unit_depth,
            c.fanout_depth,
            c.max_fanout,
            if c.cycle.is_some() { "  CYCLE" } else { "" },
        ));
    }
    for claim in &pass.claims {
        s.push_str(&format!(
            "  claim1[{}]: rb depth constant = {}, cla64/rb = {:.2} -> {}\n",
            claim.model,
            claim.rb_width_independent,
            claim.cla_over_rb,
            if claim.holds { "holds" } else { "FAILS" },
        ));
    }
    for p in &pass.problems {
        s.push_str(&format!("  problem: {p}\n"));
    }
    s
}

fn bypass_text(pass: &bypass::BypassPass) -> String {
    let mut s = String::from("== bypass pass ==\n");
    for a in &pass.analyses {
        s.push_str(&format!(
            "  {:<40} {}\n",
            a.machine,
            if a.sound() { "sound" } else { "UNSOUND" }
        ));
        for e in &a.entries {
            if !e.reachable() {
                s.push_str(&format!("    unreachable: {}\n", e.class.label()));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_selects_all_passes() {
        let opts = parse_args(&[]).expect("parses");
        assert!(opts.netlist && opts.bypass);
        assert!(!opts.json);
    }

    #[test]
    fn single_pass_selection_sticks() {
        let opts = parse_args(&["--netlist".into(), "--json".into()]).expect("parses");
        assert!(opts.netlist && !opts.bypass && opts.json);
    }

    #[test]
    fn bad_flags_error() {
        assert!(parse_args(&["--frobnicate".into()]).is_err());
        assert_eq!(parse_args(&["--help".into()]).unwrap_err(), "help");
    }

    #[test]
    fn netlist_and_bypass_passes_are_clean_in_process() {
        let opts = Options {
            netlist: true,
            bypass: true,
            json: true,
        };
        let (code, report) = run(&opts);
        assert_eq!(code, 0, "report: {report}");
        let doc = redbin::json::parse(&report).expect("json report");
        assert_eq!(doc.get("clean"), Some(&Json::Bool(true)));
    }
}
