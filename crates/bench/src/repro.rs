//! The reproduction driver behind `redbin-repro`:
//!
//! ```text
//! redbin-repro figure9|figure10|figure11|figure12|figure13|figure14
//!              [--scale S] [--json PATH]
//! redbin-repro table1|table3|delays|ablations|programs [--scale S] [--json PATH]
//! redbin-repro fuzz [--seeds N] [--start-seed S] [--json PATH]
//! redbin-repro all [--scale S] [--json PATH] [--server HOST:PORT] [--profile PATH]
//! ```
//!
//! `all --profile PATH` additionally writes a throughput profile to `PATH`:
//! per-experiment wall-clock, simulation counts, and throughput
//! (simulations/second and simulated instructions/second), plus whole-run
//! totals. The committed `BENCH_6.json` is one such profile, the baseline
//! CI's perf gate compares a fresh one against.

use redbin::experiments;
use redbin::json::{self, Json};
use redbin::report;
use redbin::telemetry::Clock;
use redbin::wire::{ExperimentKind, JobSpec};
use redbin::workload::Benchmark;

use crate::BenchArgs;

/// Every subcommand `redbin-repro` accepts, in `all`'s execution order
/// (`all` itself and the beyond-the-paper `ablations`, `programs` and
/// `fuzz` are extra).
pub const COMMANDS: &[&str] = &[
    "delays",
    "table1",
    "table3",
    "figure9",
    "figure10",
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "ablations",
    "programs",
    "fuzz",
    "all",
];

/// The experiments `all` runs, in order, with their transcript headings —
/// locally and with `--server` alike. `ablations` and `programs` stay out,
/// so the `--profile` simulation count stays comparable across commits.
const ALL: [(ExperimentKind, &str); 9] = [
    (ExperimentKind::Delays, "§3.4 delays"),
    (ExperimentKind::Table1, "Table 1"),
    (ExperimentKind::Table3, "Table 3"),
    (ExperimentKind::Figure9, "Figure 9"),
    (ExperimentKind::Figure10, "Figure 10"),
    (ExperimentKind::Figure11, "Figure 11"),
    (ExperimentKind::Figure12, "Figure 12"),
    (ExperimentKind::Figure13, "Figure 13"),
    (ExperimentKind::Figure14, "Figure 14"),
];

/// What one experiment produced, beyond its printed report.
struct Outcome {
    /// The `--json` result body.
    body: Json,
    /// Total instructions the timing simulations behind the result
    /// retired, when meaningful. Table 1's emulator-only runs report
    /// their instruction counts in their own body instead.
    instructions: Option<u64>,
    /// Timing simulations behind the result — the denominator of the
    /// `sims-per-second` profile rate. Emulator-only runs do not count,
    /// so `table1` reports zero, like the static `table3` and `delays`.
    simulations: u64,
}

/// Runs one subcommand with an already-parsed argument set, printing the
/// report to stdout and honoring `--json`.
///
/// Exits the process with status 2 on an unknown command (the strict
/// behavior of [`crate::parse_cli`]).
pub fn run(command: &str, args: &BenchArgs) {
    if command == "all" {
        run_all(args);
        return;
    }
    if command == "fuzz" {
        run_fuzz(args);
        return;
    }
    let cfg = crate::experiment_config_for(args);
    let started = Clock::now();
    let outcome = match run_single(command, &cfg) {
        Some(o) => o,
        None => {
            eprintln!(
                "error: unknown command `{command}` (expected {})",
                COMMANDS.join("|")
            );
            std::process::exit(2);
        }
    };
    crate::emit_json(args, command, started, outcome.instructions, outcome.body);
}

/// Parses `rest` (everything after the subcommand) and runs `command`:
/// the entry point of `redbin-repro`.
pub fn run_from_argv(command: &str, rest: &[String]) {
    let args = crate::cli_args_from(rest);
    run(command, &args);
}

/// Dispatches one non-`all` experiment; `None` for unknown names.
fn run_single(command: &str, cfg: &experiments::ExperimentConfig) -> Option<Outcome> {
    Some(match command {
        "figure9" => run_ipc_figure(9, experiments::figure9(cfg)),
        "figure10" => run_ipc_figure(10, experiments::figure10(cfg)),
        "figure11" => run_ipc_figure(11, experiments::figure11(cfg)),
        "figure12" => run_ipc_figure(12, experiments::figure12(cfg)),
        "figure13" => run_figure13(cfg),
        "figure14" => run_figure14(cfg),
        "table1" => run_table1(cfg),
        "table3" => run_table3(),
        "delays" => run_delays(),
        "ablations" => run_ablations(cfg),
        "programs" => run_programs(cfg),
        _ => return None,
    })
}

fn run_ipc_figure(n: u32, fig: experiments::IpcFigure) -> Outcome {
    print!(
        "{}",
        report::render_ipc_figure(&fig, &format!("Figure {n}."))
    );
    println!();
    print!("{}", report::render_ipc_bars(&fig));
    Outcome {
        instructions: Some(crate::figure_instructions(&fig)),
        simulations: fig.rows.iter().map(|r| r.stats.len() as u64).sum(),
        body: json::ipc_figure(&fig),
    }
}

fn run_figure13(cfg: &experiments::ExperimentConfig) -> Outcome {
    let fig = experiments::figure13(cfg);
    print!("{}", report::render_figure13(&fig));
    Outcome {
        instructions: None,
        simulations: fig.rows.len() as u64,
        body: json::figure13(&fig),
    }
}

fn run_figure14(cfg: &experiments::ExperimentConfig) -> Outcome {
    let fig = experiments::figure14(cfg);
    print!("{}", report::render_figure14(&fig));
    // Jobs: bypass config × both widths × all twenty benchmarks.
    let sims = fig.rows.len() as u64 * 2 * Benchmark::all().len() as u64;
    Outcome {
        instructions: None,
        simulations: sims,
        body: json::figure14(&fig),
    }
}

fn run_table1(cfg: &experiments::ExperimentConfig) -> Outcome {
    let (merged, per) = experiments::table1(cfg);
    print!("{}", report::render_table1(&merged, &per));
    Outcome {
        instructions: None,
        simulations: 0,
        body: json::table1(&merged, &per),
    }
}

fn run_table3() -> Outcome {
    let rows = experiments::table3();
    print!("{}", report::render_table3(&rows));
    Outcome {
        instructions: None,
        simulations: 0,
        body: json::table3(&rows),
    }
}

fn run_delays() -> Outcome {
    use redbin::gates::netlist::DelayModel;
    use redbin::gates::report::DelayReport;
    let unit = experiments::delay_report();
    let fanout = DelayReport::compute(
        DelayModel::FanoutAware { load_factor: 0.2 },
        &[8, 16, 32, 64, 128],
    );
    println!("§3.4 critical-path delays (unit-gate model):");
    print!("{unit}");
    println!();
    println!("fan-out-aware model (load factor 0.2):");
    print!("{fanout}");
    println!();
    println!("paper reference points: RB ≈ 3× faster than a 64-bit CLA;");
    println!("RB→TC converter ≈ 2.7× slower than the RB adder (SPICE, 0.5 µm).");
    println!();
    // The static claim-1 proof (redbin-analyze, see ANALYSIS.md): the same
    // numbers derived independently of DelayReport, per delay model.
    for model in [DelayModel::UnitGate, redbin_analyze::netlist::FANOUT_MODEL] {
        let proof = redbin_analyze::netlist::prove_claim1(model);
        println!(
            "claim 1 [{}]: rb width-independent = {}, cla64/rb = {:.2} -> {}",
            proof.model,
            proof.rb_width_independent,
            proof.cla_over_rb,
            if proof.holds { "holds" } else { "FAILS" },
        );
    }
    let mut body = Json::object();
    body.set("unit-gate", json::delay_report(&unit));
    body.set("fanout-aware", json::delay_report(&fanout));
    body.set(
        "static-analysis",
        redbin_analyze::netlist::depth_report_json(),
    );
    Outcome {
        instructions: None,
        simulations: 0,
        body,
    }
}

fn run_ablations(cfg: &experiments::ExperimentConfig) -> Outcome {
    println!("Conversion-latency sweep (8-wide RB-full, h-mean IPC over all 20):");
    let conversion = experiments::conversion_sweep(cfg, &[1, 2, 3, 4]);
    for (conv, hm) in &conversion {
        println!("  CV = {conv} cycles: {hm:.3}");
    }
    println!();
    println!("Inter-cluster delay sweep (8-wide Ideal):");
    let cluster = experiments::cluster_sweep(cfg, &[0, 1, 2, 3]);
    for (d, hm) in &cluster {
        println!("  +{d} cycles: {hm:.3}");
    }
    println!();
    println!("Window-size sweep (8-wide Ideal):");
    let window = experiments::window_sweep(cfg, &[32, 64, 128, 256]);
    for (w, hm) in &window {
        println!("  {w} entries: {hm:.3}");
    }
    println!();
    println!("Steering policies on RB-limited (§4.2 future work):");
    let steering = experiments::steering_comparison(cfg);
    for (name, width, hm) in &steering {
        println!("  {name:>18} w{width}: {hm:.3}");
    }
    let benches = Benchmark::all().len() as u64;
    let sims = (conversion.len() + cluster.len() + window.len() + steering.len()) as u64 * benches;
    let window_u64: Vec<(u64, f64)> = window.iter().map(|&(w, hm)| (w as u64, hm)).collect();
    let mut body = Json::object();
    body.set(
        "conversion-sweep",
        json::sweep("conversion-cycles", &conversion),
    );
    body.set("cluster-sweep", json::sweep("cluster-delay", &cluster));
    body.set("window-sweep", json::sweep("window-entries", &window_u64));
    body.set("steering", json::steering(&steering));
    Outcome {
        instructions: None,
        simulations: sims,
        body,
    }
}

fn run_programs(cfg: &experiments::ExperimentConfig) -> Outcome {
    let rep = experiments::programs(cfg);
    print!("{}", report::render_programs(&rep));
    let retired: u64 = rep
        .rows
        .iter()
        .flat_map(|r| r.stats.iter())
        .map(|s| s.retired)
        .sum();
    let emulated: u64 = rep.rows.iter().map(|r| r.emulated).sum();
    Outcome {
        instructions: Some(retired + emulated),
        simulations: rep.rows.iter().map(|r| r.stats.len() as u64).sum(),
        body: json::programs(&rep),
    }
}

/// The `fuzz` subcommand: runs torture seeds `start..start+n` through the
/// three-way differential oracle ([`redbin::differential::check_seed`]).
/// Prints the full reproduction report and exits non-zero on the first
/// failing seed.
fn run_fuzz(args: &BenchArgs) {
    use redbin::differential;
    let start = args.start_seed.unwrap_or(0);
    let n = args.seeds.unwrap_or(200);
    let started = Clock::now();
    let mut retired = 0u64;
    let mut cycles = 0u64;
    println!(
        "fuzz: seeds {start}..{} through the differential oracle",
        start + n
    );
    for seed in start..start + n {
        match differential::check_seed(seed) {
            Ok(v) => {
                retired += v.retired;
                cycles += v.cycles;
                let done = seed - start + 1;
                if done.is_multiple_of(25) || done == n {
                    println!(
                        "fuzz: {done}/{n} seeds ok ({retired} instructions, {:.1}s)",
                        started.seconds()
                    );
                }
            }
            Err(failure) => {
                eprintln!("{failure}");
                std::process::exit(1);
            }
        }
    }
    println!("fuzz: all {n} seeds passed");
    let mut body = Json::object();
    body.set("start-seed", Json::UInt(start));
    body.set("seeds", Json::UInt(n));
    body.set("retired-instructions", Json::UInt(retired));
    body.set("simulated-cycles", Json::UInt(cycles));
    body.set("passed", Json::Bool(true));
    crate::emit_json(args, "fuzz", started, Some(retired), body);
}

/// One throughput-profile line: what an experiment cost and delivered.
struct ProfileRow {
    name: &'static str,
    wall_seconds: f64,
    instructions: Option<u64>,
    simulations: u64,
}

impl ProfileRow {
    fn to_json(&self) -> Json {
        let mut o = Json::object();
        let secs = self.wall_seconds.max(1e-9);
        o.set("wall-seconds", Json::Num(self.wall_seconds));
        o.set("simulations", Json::UInt(self.simulations));
        o.set("sims-per-second", Json::Num(self.simulations as f64 / secs));
        if let Some(n) = self.instructions {
            o.set("simulated-instructions", Json::UInt(n));
            o.set("instructions-per-second", Json::Num(n as f64 / secs));
        }
        o
    }
}

/// The `all` subcommand: every table and figure in sequence (the full
/// evaluation section of the paper), locally or — with `--server` — as a
/// thin client against `redbin-served`.
fn run_all(args: &BenchArgs) {
    if let Some(addr) = args.server.clone() {
        if args.profile.is_some() {
            eprintln!("warning: --profile measures local simulation; ignored with --server");
        }
        run_all_remote(&addr, args);
        return;
    }
    let cfg = crate::experiment_config_for(args);
    let run_started = Clock::now();
    let mut manifest = Json::object();
    let mut instructions = 0u64;
    let mut profile = Vec::new();

    for (i, (kind, heading)) in ALL.iter().enumerate() {
        println!("=== {heading} ===");
        let name = kind.name();
        let t = Clock::now();
        // Every experiment of `ALL` is a known single command.
        let Some(outcome) = run_single(name, &cfg) else {
            unreachable!("`ALL` names only single commands")
        };
        instructions += outcome.instructions.unwrap_or(0);
        let mut entry = Json::object();
        entry.set("wall-seconds", Json::Num(t.seconds()));
        entry.set("result", outcome.body);
        manifest.set(name, entry);
        profile.push(ProfileRow {
            name,
            wall_seconds: t.seconds(),
            instructions: outcome.instructions,
            simulations: outcome.simulations,
        });
        if i + 1 < ALL.len() {
            println!();
        }
    }

    crate::emit_json(args, "all", run_started, Some(instructions), manifest);
    if let Some(path) = &args.profile {
        write_profile(path, args, run_started, &profile);
    }
}

/// Writes the per-experiment and whole-run throughput profile of an
/// `all --profile PATH` run to `path`.
fn write_profile(
    path: &std::path::Path,
    args: &BenchArgs,
    run_started: Clock,
    rows: &[ProfileRow],
) {
    let mut experiments = Json::object();
    for row in rows {
        experiments.set(row.name, row.to_json());
    }
    let total = ProfileRow {
        name: "all",
        wall_seconds: run_started.seconds(),
        instructions: Some(rows.iter().filter_map(|r| r.instructions).sum()),
        simulations: rows.iter().map(|r| r.simulations).sum(),
    };
    let mut body = Json::object();
    body.set("experiments", experiments);
    body.set("totals", total.to_json());
    let doc = json::with_meta(
        "profile",
        args.effective_scale(),
        run_started.elapsed(),
        body,
    );
    json::write_file(path, &doc).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    eprintln!("profile: wrote {}", path.display());
}

/// Thin-client mode: submit the whole evaluation to `redbin-served` and
/// collect the structured results into the same manifest shape the local
/// run produces (plus per-experiment cache-hit flags).
fn run_all_remote(addr: &str, args: &BenchArgs) {
    let scale = args.effective_scale();
    let client = redbin_serve::Client::new(addr.to_string());
    let run_started = Clock::now();
    let mut manifest = Json::object();
    let mut hits = 0u64;
    for (kind, _) in ALL {
        let t = Clock::now();
        let (job, body, cache_hit) = client
            .run_to_completion(
                JobSpec::new(kind, scale),
                None,
                std::time::Duration::from_secs(24 * 3600),
            )
            .unwrap_or_else(|e| {
                eprintln!("redbin-repro: {}: {e}", kind.name());
                std::process::exit(1);
            });
        println!(
            "{:>8}: job {job} done in {:.2}s (cache {})",
            kind.name(),
            t.seconds(),
            if cache_hit { "hit" } else { "miss" }
        );
        hits += u64::from(cache_hit);
        let mut entry = Json::object();
        entry.set("wall-seconds", Json::Num(t.seconds()));
        entry.set("cache-hit", Json::Bool(cache_hit));
        entry.set("result", body);
        manifest.set(kind.name(), entry);
    }
    println!(
        "all {} experiments done in {:.2}s ({hits} cache hit(s))",
        ALL.len(),
        run_started.seconds()
    );
    manifest.set("server", Json::Str(addr.to_string()));
    crate::emit_json(args, "all", run_started, None, manifest);
}
