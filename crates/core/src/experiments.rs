//! Experiment drivers: one function per table/figure of the paper.
//!
//! Every simulating driver is a programs × machines matrix run by one
//! runner, [`run_matrix`], and every paper experiment takes its machines
//! from one table, [`machines`], which `JobSpec::machine_configs` reads
//! too, so a server job simulates exactly the machines its id names.
//! Drivers return structured results; [`crate::report`] renders them as
//! text and `redbin-repro` in `redbin-bench` prints them, so library
//! users can regenerate any figure programmatically.

use redbin_isa::class::LatencyClass;
use redbin_isa::format::Table1Counts;
use redbin_isa::{Emulator, Opcode, Program};
use redbin_sim::core::SimError;
use redbin_sim::stats::{harmonic_mean, BypassCases};
use redbin_sim::{
    BypassLevels, CoreModel, DatapathMode, MachineConfig, SimStats, Simulator, SteeringPolicy,
};
use redbin_workload::programs::CHECKSUM_REG;
use redbin_workload::{Benchmark, Scale, Suite, WholeProgram};

use crate::differential::EMULATOR_STEP_BOUND;
use crate::pool::run_jobs;
use crate::wire::ExperimentKind;

/// Global settings for an experiment run.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Workload size (the figures use [`Scale::Full`]).
    pub scale: Scale,
    /// Worker threads for the benchmark fan-out.
    pub threads: usize,
    /// Whether to run the redundant shadow datapath (slower; used by the
    /// fidelity experiments).
    pub datapath: DatapathMode,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            scale: Scale::Full,
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(16))
                .unwrap_or(4),
            datapath: DatapathMode::Fast,
        }
    }
}

impl ExperimentConfig {
    /// A configuration suitable for tests: small workloads, few threads.
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: Scale::Test,
            ..Default::default()
        }
    }

    /// Folds the result-affecting fields into `h` in canonical order.
    ///
    /// Deliberately excludes `threads`: the worker count changes wall-clock
    /// time but never the result ([`crate::pool::run_jobs`] preserves
    /// order), so two runs differing only in parallelism share a cache key.
    pub fn fold_canonical(&self, h: &mut redbin_sim::hash::Fnv64) {
        h.write_tag(0xB0); // domain tag: ExperimentConfig
        h.write_tag(self.scale.canonical_tag());
        h.write_tag(self.datapath.canonical_tag());
    }

    /// A stable, platform-independent FNV-1a fingerprint of the
    /// result-affecting experiment settings (scale, datapath — not
    /// `threads`; see [`Self::fold_canonical`]).
    pub fn canonical_hash(&self) -> u64 {
        let mut h = redbin_sim::hash::Fnv64::new();
        self.fold_canonical(&mut h);
        h.finish()
    }
}

/// The one experiment runner: simulates every program on every machine,
/// one [`run_jobs`] job per (program, machine) cell. Each job builds its
/// own program with `build` and drives its simulator with `run` (usually
/// [`Simulator::run`]), so workers share nothing. Returns the cells
/// program-major: `out[p][m]` is `programs[p]` on `machines[m]`.
///
/// # Panics
///
/// Panics, naming the program and machine, if a simulation faults (all
/// bundled programs are well-formed on buildable machines).
pub fn run_matrix<P: Sync, R: Send>(
    programs: &[P],
    machines: &[MachineConfig],
    threads: usize,
    build: impl Fn(&P) -> Program + Sync,
    run: impl Fn(Simulator) -> Result<R, SimError> + Sync,
) -> Vec<Vec<R>> {
    let n = machines.len();
    let mut cells = run_jobs(programs.len() * n, threads, |i| {
        let program = build(&programs[i / n]);
        let machine = &machines[i % n];
        run(Simulator::new(machine.clone(), &program))
            .unwrap_or_else(|e| panic!("{} on {} failed: {e}", program.name, machine.model))
    })
    .into_iter();
    programs
        .iter()
        .map(|_| cells.by_ref().take(n).collect())
        .collect()
}

/// [`run_matrix`] over benchmarks at `cfg`'s scale and thread count,
/// collecting plain statistics.
fn run_benchmarks(
    benches: &[Benchmark],
    machines: &[MachineConfig],
    cfg: &ExperimentConfig,
) -> Vec<Vec<SimStats>> {
    run_matrix(
        benches,
        machines,
        cfg.threads,
        |b| b.program(cfg.scale),
        Simulator::run,
    )
}

/// Harmonic-mean IPC of machine `m` over every program of a
/// [`run_matrix`] result.
fn column_hmean(cells: &[Vec<SimStats>], m: usize) -> f64 {
    let ipcs: Vec<f64> = cells.iter().map(|row| row[m].ipc()).collect();
    harmonic_mean(&ipcs)
}

/// Harmonic-mean IPC of each machine over all twenty benchmarks: Figure
/// 14 and every ablation sweep.
fn suite_hmeans(machines: &[MachineConfig], cfg: &ExperimentConfig) -> Vec<f64> {
    let cells = run_benchmarks(&Benchmark::all(), machines, cfg);
    (0..machines.len())
        .map(|m| column_hmean(&cells, m))
        .collect()
}

/// The four core models at `width`, in [`CoreModel::all`] order.
fn four_models(width: usize, datapath: DatapathMode) -> Vec<MachineConfig> {
    CoreModel::all()
        .iter()
        .map(|&m| MachineConfig::new(m, width).with_datapath(datapath))
        .collect()
}

/// The machine table: what each experiment simulates, in result order.
/// The drivers below run these lists and `JobSpec::machine_configs` starts
/// from them, so a job's id, its soundness check and its run see the same
/// machines. A point job's machine comes from its spec; Table 1, the delay
/// report and sleep jobs simulate nothing. Table 3 reads its machines'
/// latencies and keeps the default datapath.
pub fn machines(kind: ExperimentKind, datapath: DatapathMode) -> Vec<MachineConfig> {
    match kind {
        ExperimentKind::Figure9
        | ExperimentKind::Figure10
        | ExperimentKind::Programs
        | ExperimentKind::Custom => four_models(8, datapath),
        ExperimentKind::Figure11 | ExperimentKind::Figure12 => four_models(4, datapath),
        ExperimentKind::Figure13 => vec![MachineConfig::rb_full(8).with_datapath(datapath)],
        ExperimentKind::Figure14 => figure14_configs()
            .into_iter()
            .flat_map(|levels| {
                [4, 8].map(|w| {
                    MachineConfig::ideal(w)
                        .with_bypass(levels)
                        .with_datapath(datapath)
                })
            })
            .collect(),
        ExperimentKind::Table3 => vec![
            MachineConfig::baseline(8),
            MachineConfig::rb_full(8),
            MachineConfig::ideal(8),
        ],
        ExperimentKind::Table1
        | ExperimentKind::Delays
        | ExperimentKind::Sleep
        | ExperimentKind::Point => Vec::new(),
    }
}

/// One design-space point's simulation outcome: a single machine over a
/// benchmark set (the `point` experiment behind `redbin-explore`).
#[derive(Debug, Clone, PartialEq)]
pub struct PointResult {
    /// The simulated machine.
    pub machine: MachineConfig,
    /// Per-benchmark IPC, in the order the benchmarks were given.
    pub rows: Vec<(Benchmark, f64)>,
    /// Harmonic-mean IPC over the rows.
    pub hmean: f64,
    /// Total simulated cycles across the rows.
    pub cycles: u64,
    /// Total retired instructions across the rows.
    pub retired: u64,
}

/// Runs one design-space point: `machine` over `benches` at `scale`,
/// fanning the benchmarks across `threads` workers, optionally on the
/// retained reference scheduler — the behavioral spec the event-driven
/// scheduler is tested against. The two produce bit-identical statistics,
/// which `redbin-explore`'s frontier stability test pins.
///
/// # Panics
///
/// Panics if a simulation faults (all bundled benchmarks are well-formed
/// on buildable machines).
pub fn run_point_with(
    machine: &MachineConfig,
    benches: &[Benchmark],
    scale: Scale,
    threads: usize,
    reference: bool,
) -> PointResult {
    let cells = run_matrix(
        benches,
        std::slice::from_ref(machine),
        threads,
        |b| b.program(scale),
        |sim| {
            if reference {
                sim.with_reference_scheduler().run()
            } else {
                sim.run()
            }
        },
    );
    PointResult {
        machine: machine.clone(),
        rows: benches
            .iter()
            .zip(&cells)
            .map(|(&b, row)| (b, row[0].ipc()))
            .collect(),
        hmean: column_hmean(&cells, 0),
        cycles: cells.iter().map(|row| row[0].cycles).sum(),
        retired: cells.iter().map(|row| row[0].retired).sum(),
    }
}

/// One benchmark's IPC under the four machine models, in
/// [`CoreModel::all`] order (Baseline, RB-limited, RB-full, Ideal).
#[derive(Debug, Clone, PartialEq)]
pub struct IpcRow {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// IPC per machine model.
    pub ipc: [f64; 4],
    /// Full simulator statistics per machine model (stall breakdowns,
    /// cache counters, …) — the source the IPC column is derived from.
    pub stats: Vec<SimStats>,
}

/// The data behind Figures 9–12: per-benchmark IPC for the four machines.
#[derive(Debug, Clone, PartialEq)]
pub struct IpcFigure {
    /// Execution width (4 or 8).
    pub width: usize,
    /// Which suite.
    pub suite: Suite,
    /// One row per benchmark.
    pub rows: Vec<IpcRow>,
}

impl IpcFigure {
    /// Harmonic-mean IPC per machine model.
    pub fn harmonic_means(&self) -> [f64; 4] {
        std::array::from_fn(|m| {
            harmonic_mean(&self.rows.iter().map(|r| r.ipc[m]).collect::<Vec<_>>())
        })
    }

    /// The headline ratios: (RB-full / Baseline − 1, 1 − RB-full / Ideal,
    /// 1 − RB-limited / RB-full), as fractions. An empty figure (or one
    /// with a zero harmonic mean) yields 0.0 ratios rather than NaN/inf,
    /// so JSON documents built from them stay finite.
    pub fn headline_ratios(&self) -> (f64, f64, f64) {
        let hm = self.harmonic_means();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 1.0 };
        (
            ratio(hm[2], hm[0]) - 1.0,
            1.0 - ratio(hm[2], hm[3]),
            1.0 - ratio(hm[1], hm[2]),
        )
    }
}

/// Runs a Figure 9–12 style experiment: all four machines over a suite at
/// one width.
pub fn figure_ipc(width: usize, suite: Suite, cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc_on(&four_models(width, cfg.datapath), suite, cfg)
}

/// [`figure_ipc`] on explicit machines: one per core model, in
/// [`CoreModel::all`] order, all of one width.
///
/// # Panics
///
/// Panics if there are fewer than four machines, or as [`run_matrix`].
pub fn figure_ipc_on(
    machines: &[MachineConfig],
    suite: Suite,
    cfg: &ExperimentConfig,
) -> IpcFigure {
    let benches = suite.benchmarks();
    let rows = benches
        .iter()
        .zip(run_benchmarks(benches, machines, cfg))
        .map(|(&benchmark, stats)| IpcRow {
            benchmark,
            ipc: std::array::from_fn(|m| stats[m].ipc()),
            stats,
        })
        .collect();
    IpcFigure {
        width: machines[0].width,
        suite,
        rows,
    }
}

/// Figure 9: 8-wide machines on SPECint2000.
pub fn figure9(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc_on(
        &machines(ExperimentKind::Figure9, cfg.datapath),
        Suite::Spec2000,
        cfg,
    )
}

/// Figure 10: 8-wide machines on SPECint95.
pub fn figure10(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc_on(
        &machines(ExperimentKind::Figure10, cfg.datapath),
        Suite::Spec95,
        cfg,
    )
}

/// Figure 11: 4-wide machines on SPECint2000.
pub fn figure11(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc_on(
        &machines(ExperimentKind::Figure11, cfg.datapath),
        Suite::Spec2000,
        cfg,
    )
}

/// Figure 12: 4-wide machines on SPECint95.
pub fn figure12(cfg: &ExperimentConfig) -> IpcFigure {
    figure_ipc_on(
        &machines(ExperimentKind::Figure12, cfg.datapath),
        Suite::Spec95,
        cfg,
    )
}

/// One whole program's results across the four machine models, in
/// [`CoreModel::all`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRow {
    /// The program.
    pub program: WholeProgram,
    /// The emulator-verified architectural checksum (register `r9`),
    /// already checked against the program's Rust reference.
    pub checksum: u64,
    /// Instructions the emulator retired.
    pub emulated: u64,
    /// IPC per machine model.
    pub ipc: [f64; 4],
    /// Full simulator statistics per machine model.
    pub stats: Vec<SimStats>,
}

/// The whole-program suite result: five complete programs (quicksort,
/// matmul, box blur, prime sieve, QOI-style decoder) on the four machines.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramsReport {
    /// Execution width (8, matching Figures 9/10).
    pub width: usize,
    /// One row per program.
    pub rows: Vec<ProgramRow>,
}

impl ProgramsReport {
    /// Harmonic-mean IPC per machine model.
    pub fn harmonic_means(&self) -> [f64; 4] {
        std::array::from_fn(|m| {
            harmonic_mean(&self.rows.iter().map(|r| r.ipc[m]).collect::<Vec<_>>())
        })
    }
}

/// Runs the whole-program suite on the four 8-wide machines.
///
/// Unlike the proxy-kernel figures this experiment is self-verifying:
/// every simulation's final architectural state is compared against the
/// standalone emulator's, and the emulator's checksum register against
/// the program's Rust reference implementation.
///
/// # Panics
///
/// Panics if any program misbehaves: wrong checksum, architectural
/// divergence between emulator and simulator, or a simulation fault.
pub fn programs(cfg: &ExperimentConfig) -> ProgramsReport {
    programs_on(&machines(ExperimentKind::Programs, cfg.datapath), cfg)
}

/// [`programs`] on explicit machines: one per core model, in
/// [`CoreModel::all`] order, all of one width.
///
/// # Panics
///
/// As [`programs`], and if there are fewer than four machines.
pub fn programs_on(machines: &[MachineConfig], cfg: &ExperimentConfig) -> ProgramsReport {
    let progs = WholeProgram::all();
    let scale = cfg.scale;
    let expected = run_jobs(progs.len(), cfg.threads, |i| {
        let wp = progs[i];
        let mut emu = Emulator::new(&wp.program(scale));
        emu.run(EMULATOR_STEP_BOUND)
            .unwrap_or_else(|e| panic!("{} did not halt: {e}", wp.name()));
        let state = emu.arch_state();
        assert_eq!(
            state.regs[CHECKSUM_REG as usize],
            wp.expected_checksum(scale),
            "{}: checksum diverged from the Rust reference",
            wp.name()
        );
        state
    });
    let cells = run_matrix(
        progs,
        machines,
        cfg.threads,
        |wp| wp.program(scale),
        Simulator::run_with_arch,
    );
    let rows = progs
        .iter()
        .zip(expected)
        .zip(cells)
        .map(|((&wp, expect), cells)| {
            let stats: Vec<SimStats> = cells
                .into_iter()
                .zip(machines)
                .map(|((s, arch), machine)| {
                    if let Some(d) = expect.diff(&arch) {
                        panic!(
                            "{} on {}: architectural divergence: {d}",
                            wp.name(),
                            machine.model
                        );
                    }
                    s
                })
                .collect();
            ProgramRow {
                program: wp,
                checksum: expect.regs[CHECKSUM_REG as usize],
                emulated: expect.retired,
                ipc: std::array::from_fn(|m| stats[m].ipc()),
                stats,
            }
        })
        .collect();
    ProgramsReport {
        width: machines[0].width,
        rows,
    }
}

/// The data behind Figure 13: bypass-case distribution on the 8-wide
/// RB-full machine over SPECint2000.
#[derive(Debug, Clone)]
pub struct Figure13 {
    /// Per-benchmark accounting of last-arriving bypassed operands.
    pub rows: Vec<(Benchmark, BypassCases, f64)>,
}

/// Runs Figure 13: which bypass cases are potentially critical.
pub fn figure13(cfg: &ExperimentConfig) -> Figure13 {
    figure13_on(&machines(ExperimentKind::Figure13, cfg.datapath), cfg)
}

/// [`figure13`] on explicit machines: one row per benchmark and machine.
pub fn figure13_on(machines: &[MachineConfig], cfg: &ExperimentConfig) -> Figure13 {
    let benches = Suite::Spec2000.benchmarks();
    let cells = run_benchmarks(benches, machines, cfg);
    let rows = benches
        .iter()
        .zip(&cells)
        .flat_map(|(&b, row)| {
            row.iter()
                .map(move |s| (b, s.bypass_cases, s.bypassed_inst_fraction()))
        })
        .collect();
    Figure13 { rows }
}

/// One limited-bypass configuration's harmonic-mean IPC at both widths
/// (Figure 14).
#[derive(Debug, Clone, PartialEq)]
pub struct Figure14Row {
    /// The paper's configuration name (`Full`, `No-1`, …).
    pub label: String,
    /// The bypass levels present.
    pub levels: BypassLevels,
    /// Harmonic-mean IPC over all 20 benchmarks, 4-wide.
    pub hmean_w4: f64,
    /// Harmonic-mean IPC over all 20 benchmarks, 8-wide.
    pub hmean_w8: f64,
}

/// The data behind Figure 14.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure14 {
    /// One row per bypass configuration.
    pub rows: Vec<Figure14Row>,
}

/// The bypass configurations Figure 14 evaluates.
pub fn figure14_configs() -> Vec<BypassLevels> {
    vec![
        BypassLevels::FULL,
        BypassLevels::without(&[1]),
        BypassLevels::without(&[2]),
        BypassLevels::without(&[3]),
        BypassLevels::without(&[1, 2]),
        BypassLevels::without(&[2, 3]),
    ]
}

/// Runs Figure 14: the Ideal machine under limited bypass networks,
/// harmonic mean over all twenty benchmarks at both widths.
pub fn figure14(cfg: &ExperimentConfig) -> Figure14 {
    figure14_on(&machines(ExperimentKind::Figure14, cfg.datapath), cfg)
}

/// [`figure14`] on explicit machines: consecutive pairs at widths 4 and
/// 8, each pair one row labelled with its bypass network.
pub fn figure14_on(machines: &[MachineConfig], cfg: &ExperimentConfig) -> Figure14 {
    let hmeans = suite_hmeans(machines, cfg);
    let rows = machines
        .chunks(2)
        .zip(hmeans.chunks(2))
        .map(|(pair, hm)| Figure14Row {
            label: pair[0].bypass.label(),
            levels: pair[0].bypass,
            hmean_w4: hm[0],
            hmean_w8: hm[1],
        })
        .collect();
    Figure14 { rows }
}

/// Measures Table 1's dynamic-fraction column over the whole 20-benchmark
/// suite using the functional emulator (no timing needed).
///
/// Returns the merged histogram and the per-benchmark breakdown.
pub fn table1(cfg: &ExperimentConfig) -> (Table1Counts, Vec<(Benchmark, Table1Counts)>) {
    let benches = Benchmark::all();
    let per = run_jobs(benches.len(), cfg.threads, |i| {
        let b = benches[i];
        let program = b.program(cfg.scale);
        let mut emu = Emulator::new(&program);
        let mut counts = Table1Counts::new();
        while let Ok(r) = emu.step() {
            if r.inst.op == Opcode::Halt {
                break;
            }
            counts.record(r.inst.op);
            if emu.is_halted() {
                break;
            }
        }
        (b, counts)
    });
    let mut merged = Table1Counts::new();
    for (_, c) in &per {
        merged.merge(c);
    }
    (merged, per)
}

/// One row of Table 3: the latency of an instruction class on each machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// The instruction class.
    pub class: LatencyClass,
    /// Baseline latency.
    pub base: u64,
    /// RB machine latency to the primary result.
    pub rb: u64,
    /// RB machine latency to the 2's-complement result, when it differs.
    pub rb_tc: Option<u64>,
    /// Ideal machine latency.
    pub ideal: u64,
}

/// Reconstructs Table 3 from the machine configurations (a consistency
/// check that the code encodes what the paper states).
pub fn table3() -> Vec<Table3Row> {
    let table = machines(ExperimentKind::Table3, DatapathMode::Fast);
    let (base, rb, ideal) = (&table[0], &table[1], &table[2]);
    let representative = |class: LatencyClass| -> Opcode {
        match class {
            LatencyClass::IntArith => Opcode::Addq,
            LatencyClass::IntLogical => Opcode::And,
            LatencyClass::ShiftLeft => Opcode::Sll,
            LatencyClass::ShiftRight => Opcode::Srl,
            LatencyClass::IntCompare => Opcode::Cmplt,
            LatencyClass::ByteManip => Opcode::Extbl,
            LatencyClass::IntMul => Opcode::Mulq,
            LatencyClass::FpArith => Opcode::Fadd,
            LatencyClass::FpDiv => Opcode::Fdiv,
            LatencyClass::Mem => Opcode::Ldq,
            LatencyClass::Branch => Opcode::Beq,
        }
    };
    LatencyClass::all()
        .iter()
        .map(|&class| {
            let op = representative(class);
            let rb_lat = rb.exec_latency(op);
            let rb_tc = rb
                .result_is_rb(op)
                .then_some(rb_lat + rb.conversion_latency);
            Table3Row {
                class,
                base: base.exec_latency(op),
                rb: rb_lat,
                rb_tc,
                ideal: ideal.exec_latency(op),
            }
        })
        .collect()
}

/// The §3.4 delay comparison (critical paths of the gate-level adders).
pub fn delay_report() -> redbin_gates::report::DelayReport {
    redbin_gates::report::DelayReport::standard()
}

/// Harmonic-mean IPC over all twenty benchmarks of `base` with `set`
/// applied for each of `values`: the shape of every ablation sweep.
fn sweep<T: Copy>(
    cfg: &ExperimentConfig,
    base: MachineConfig,
    values: &[T],
    set: impl Fn(&mut MachineConfig, T),
) -> Vec<(T, f64)> {
    let base = base.with_datapath(cfg.datapath);
    let machines: Vec<MachineConfig> = values
        .iter()
        .map(|&v| {
            let mut m = base.clone();
            set(&mut m, v);
            m
        })
        .collect();
    values
        .iter()
        .copied()
        .zip(suite_hmeans(&machines, cfg))
        .collect()
}

/// Ablation: sweep the redundant→TC conversion latency on the 8-wide
/// RB-full machine; returns `(conversion_cycles, harmonic-mean IPC over all
/// benchmarks)`.
pub fn conversion_sweep(cfg: &ExperimentConfig, latencies: &[u64]) -> Vec<(u64, f64)> {
    sweep(cfg, MachineConfig::rb_full(8), latencies, |m, v| {
        m.conversion_latency = v;
    })
}

/// Ablation: sweep the inter-cluster forwarding delay on the 8-wide Ideal
/// machine; returns `(delay_cycles, harmonic-mean IPC)`.
pub fn cluster_sweep(cfg: &ExperimentConfig, delays: &[u64]) -> Vec<(u64, f64)> {
    sweep(cfg, MachineConfig::ideal(8), delays, |m, v| {
        m.cluster_delay = v
    })
}

/// Extension (the paper's §4.2 future work): compare steering policies on
/// the limited-bypass RB machine, where keeping consumers next to their
/// producers matters most. Returns `(policy name, width, harmonic-mean
/// IPC)` rows.
pub fn steering_comparison(cfg: &ExperimentConfig) -> Vec<(&'static str, usize, f64)> {
    let mut rows = Vec::new();
    let mut machines = Vec::new();
    for (name, policy) in [
        ("round-robin pairs", SteeringPolicy::RoundRobinPairs),
        ("dependence-aware", SteeringPolicy::DependenceAware),
    ] {
        for width in [4usize, 8] {
            rows.push((name, width));
            machines.push(
                MachineConfig::rb_limited(width)
                    .with_steering(policy)
                    .with_datapath(cfg.datapath),
            );
        }
    }
    rows.into_iter()
        .zip(suite_hmeans(&machines, cfg))
        .map(|((name, width), hm)| (name, width, hm))
        .collect()
}

/// Ablation: sweep the instruction-window size on the 8-wide Ideal machine.
pub fn window_sweep(cfg: &ExperimentConfig, windows: &[usize]) -> Vec<(usize, f64)> {
    sweep(cfg, MachineConfig::ideal(8), windows, |m, v| m.window = v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_shapes() {
        let cfg = ExperimentConfig::quick();
        let fig = figure_ipc(8, Suite::Spec95, &cfg);
        assert_eq!(fig.rows.len(), 8);
        let hm = fig.harmonic_means();
        // Ordering: Baseline ≤ RB-full ≤ Ideal (aggregate).
        assert!(
            hm[0] <= hm[2] * 1.001,
            "baseline {0} vs rb-full {1}",
            hm[0],
            hm[2]
        );
        assert!(
            hm[2] <= hm[3] * 1.001,
            "rb-full {0} vs ideal {1}",
            hm[2],
            hm[3]
        );
    }

    #[test]
    fn table3_matches_paper() {
        let rows = table3();
        let find = |c: LatencyClass| rows.iter().find(|r| r.class == c).unwrap().clone();
        let arith = find(LatencyClass::IntArith);
        assert_eq!(
            (arith.base, arith.rb, arith.rb_tc, arith.ideal),
            (2, 1, Some(3), 1)
        );
        let shl = find(LatencyClass::ShiftLeft);
        assert_eq!((shl.base, shl.rb, shl.rb_tc, shl.ideal), (3, 3, Some(5), 3));
        let logic = find(LatencyClass::IntLogical);
        assert_eq!(
            (logic.base, logic.rb, logic.rb_tc, logic.ideal),
            (1, 1, None, 1)
        );
        let mul = find(LatencyClass::IntMul);
        assert_eq!((mul.base, mul.rb, mul.rb_tc, mul.ideal), (10, 10, None, 10));
        let fdiv = find(LatencyClass::FpDiv);
        assert_eq!((fdiv.base, fdiv.rb, fdiv.ideal), (32, 32, 32));
    }

    #[test]
    fn whole_program_suite_is_self_verifying() {
        // `programs` panics on any checksum or architectural divergence,
        // so a clean return at test scale is itself the verification.
        let rep = programs(&ExperimentConfig::quick());
        assert_eq!(rep.rows.len(), 5);
        for r in &rep.rows {
            assert_eq!(r.stats.len(), 4, "{:?}", r.program);
            assert!(r.ipc.iter().all(|&v| v > 0.0), "{:?}: zero IPC", r.program);
            assert!(r.emulated > 1_000, "{:?}: trivial run", r.program);
        }
        assert!(rep.harmonic_means().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn table1_counts_cover_the_suite() {
        let cfg = ExperimentConfig::quick();
        let (merged, per) = table1(&cfg);
        assert_eq!(per.len(), 20);
        assert!(merged.total() > 50_000, "total {}", merged.total());
        use redbin_isa::format::Table1Row;
        // Memory traffic and arithmetic must both be substantial.
        assert!(merged.fraction(Table1Row::MemAccess) > 10.0);
        assert!(merged.fraction(Table1Row::ArithRbRb) > 10.0);
        assert!(merged.fraction(Table1Row::CondBranch) > 5.0);
    }

    #[test]
    fn canonical_hash_separates_scales_but_not_threads() {
        let quick = ExperimentConfig::quick();
        let mut more_threads = quick;
        more_threads.threads = quick.threads + 7;
        assert_eq!(quick.canonical_hash(), more_threads.canonical_hash());
        let mut full = quick;
        full.scale = Scale::Full;
        assert_ne!(quick.canonical_hash(), full.canonical_hash());
        let mut faithful = quick;
        faithful.datapath = DatapathMode::Faithful;
        assert_ne!(quick.canonical_hash(), faithful.canonical_hash());
    }
}
