//! The simulator's observer API: one run path, pluggable instrumentation.
//!
//! [`Simulator::run_observed`](crate::Simulator::run_observed) is the
//! single way a simulation executes; everything that used to be a
//! hardwired code path in `core.rs` is now an implementation of
//! [`SimObserver`]:
//!
//! - statistics cross-checks — [`StatsObserver`] re-derives the stage
//!   histograms and Figure 13/14 counters purely from hooks (the
//!   equivalence tests pin it against [`SimStats`](crate::SimStats));
//! - tracing — [`TraceObserver`] collects the Figures 5/7 pipeline
//!   diagrams that `run_traced` returns;
//! - telemetry — [`TelemetryObserver`] samples wall-clock phase timers
//!   with the monotonic clock and flushes a
//!   [`MetricsRegistry`].
//!
//! Hooks are `&mut self` methods with empty default bodies, so the
//! [`NoopObserver`] compiles away entirely — a plain `run()` pays nothing.

use redbin_isa::Inst;
use redbin_telemetry::{Histogram, MetricsRegistry, Stopwatch};
use std::time::Duration;

use crate::stats::BypassCase;
use crate::trace::{PipelineTrace, TraceEntry};

/// Pipeline stages reported through [`SimObserver::on_stage`], in the
/// order the hooks fire within a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Instruction fetch (occupancy: instructions fetched this cycle).
    Fetch,
    /// Rename/dispatch into the window (occupancy: instructions dispatched).
    Rename,
    /// Wakeup/select (occupancy: instructions issued this cycle).
    Issue,
    /// Execution window (occupancy: instructions in flight).
    Execute,
    /// In-order retirement (occupancy: instructions retired this cycle).
    Retire,
}

impl Stage {
    /// All stages, in hook order.
    pub const ALL: [Stage; 5] = [
        Stage::Fetch,
        Stage::Rename,
        Stage::Issue,
        Stage::Execute,
        Stage::Retire,
    ];

    /// Kebab-case label, used in metric names (`phase-seconds-fetch`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Stage::Fetch => "fetch",
            Stage::Rename => "rename",
            Stage::Issue => "issue",
            Stage::Execute => "execute",
            Stage::Retire => "retire",
        }
    }

    /// Dense index for per-stage accumulator arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Stage::Fetch => 0,
            Stage::Rename => 1,
            Stage::Issue => 2,
            Stage::Execute => 3,
            Stage::Retire => 4,
        }
    }
}

/// Kebab-case metric key for a bypass case (`bypass-case-rb-to-tc`).
#[must_use]
pub fn case_key(case: BypassCase) -> &'static str {
    match case {
        BypassCase::TcToTc => "tc-to-tc",
        BypassCase::TcToRb => "tc-to-rb",
        BypassCase::RbToRb => "rb-to-rb",
        BypassCase::RbToTc => "rb-to-tc",
    }
}

/// One retiring instruction, with its full pipeline timing. Borrowed
/// fields keep the event free to construct; observers that need the
/// disassembly render it themselves from `inst`.
#[derive(Debug)]
pub struct RetireEvent<'a> {
    /// The retire cycle.
    pub cycle: u64,
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static pc.
    pub pc: usize,
    /// The static instruction (for lazy disassembly).
    pub inst: &'a Inst,
    /// Fetch cycle.
    pub fetch: u64,
    /// Dispatch cycle.
    pub dispatch: u64,
    /// Issue (select) cycle.
    pub issue: u64,
    /// First execute cycle.
    pub exec_start: u64,
    /// Last execute cycle.
    pub exec_end: u64,
    /// Cycle the 2's-complement form exists.
    pub tc_ready: u64,
    /// Whether the primary result was redundant binary.
    pub rb: bool,
}

impl RetireEvent<'_> {
    /// Builds the equivalent [`TraceEntry`] (allocates the disassembly).
    #[must_use]
    pub fn trace_entry(&self) -> TraceEntry {
        TraceEntry {
            seq: self.seq,
            pc: self.pc,
            text: self.inst.to_string(),
            fetch: self.fetch,
            dispatch: self.dispatch,
            issue: self.issue,
            exec_start: self.exec_start,
            exec_end: self.exec_end,
            tc_ready: self.tc_ready,
            rb: self.rb,
            retire: self.cycle,
        }
    }
}

/// Per-cycle instrumentation hooks. All hooks have empty defaults; an
/// observer implements only what it needs.
pub trait SimObserver {
    /// A new cycle has begun (fires before any stage runs). It fires for
    /// every cycle, including the quiet ones the simulator fast-forwards
    /// over, which then report their (empty) stages as usual.
    fn on_cycle(&mut self, _cycle: u64) {}

    /// A stage finished its work for this cycle with the given occupancy
    /// (see [`Stage`] for what "occupancy" means per stage).
    ///
    /// Every stage except [`Stage::Fetch`] fires exactly once per cycle.
    /// Fetch is skipped on cycles it is stalled behind a branch redirect
    /// or an icache miss, matching `SimStats::fetch_hist`.
    fn on_stage(&mut self, _stage: Stage, _occupancy: usize) {}

    /// An instruction retired.
    fn on_retire(&mut self, _event: &RetireEvent<'_>) {}

    /// A source operand was served by the bypass network at forwarding
    /// `level` (1-based, as in Figure 14), classified as `case`. This is
    /// a per-operand stream; `SimStats::bypass_cases` records only each
    /// instruction's critical (latest-arriving) operand.
    fn on_bypass(&mut self, _level: u8, _case: BypassCase) {}
}

/// The do-nothing observer behind [`Simulator::run`](crate::Simulator::run).
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopObserver;

impl SimObserver for NoopObserver {}

/// Forwarding pair: drive two observers from one run (e.g. trace +
/// telemetry).
impl<A: SimObserver, B: SimObserver> SimObserver for (A, B) {
    fn on_cycle(&mut self, cycle: u64) {
        self.0.on_cycle(cycle);
        self.1.on_cycle(cycle);
    }
    fn on_stage(&mut self, stage: Stage, occupancy: usize) {
        self.0.on_stage(stage, occupancy);
        self.1.on_stage(stage, occupancy);
    }
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.0.on_retire(event);
        self.1.on_retire(event);
    }
    fn on_bypass(&mut self, level: u8, case: BypassCase) {
        self.0.on_bypass(level, case);
        self.1.on_bypass(level, case);
    }
}

/// Re-derives the statistics that flow through the hooks, independently
/// of the simulator's own [`SimStats`](crate::SimStats) accounting. The
/// observer-equivalence tests pin both sides against each other, proving
/// the hook stream carries the same information as the hardwired
/// counters it replaced.
#[derive(Debug, Default, Clone)]
pub struct StatsObserver {
    /// Cycles seen via [`SimObserver::on_cycle`].
    pub cycles: u64,
    /// Per-stage occupancy histograms (occupancy clamped to 8, as in
    /// `SimStats::fetch_hist` and friends).
    pub stage_hist: [[u64; 9]; 5],
    /// Instructions seen via [`SimObserver::on_retire`].
    pub retired: u64,
    /// Operands served per forwarding level (Figure 14).
    pub bypass_levels: [u64; 3],
    /// Operands served per bypass case (a per-operand view of Figure 13).
    pub case_counts: [u64; 4],
}

impl SimObserver for StatsObserver {
    fn on_cycle(&mut self, _cycle: u64) {
        self.cycles += 1;
    }
    fn on_stage(&mut self, stage: Stage, occupancy: usize) {
        self.stage_hist[stage.index()][occupancy.min(8)] += 1;
    }
    fn on_retire(&mut self, _event: &RetireEvent<'_>) {
        self.retired += 1;
    }
    fn on_bypass(&mut self, level: u8, case: BypassCase) {
        if (1..=3).contains(&level) {
            self.bypass_levels[(level - 1) as usize] += 1;
        }
        self.case_counts[case.index()] += 1;
    }
}

/// Collects the pipeline diagram `run_traced` returns. Only use for
/// short programs — the trace grows with every retired instruction.
#[derive(Debug, Default)]
pub struct TraceObserver {
    trace: PipelineTrace,
}

impl TraceObserver {
    /// An empty trace collector.
    #[must_use]
    pub fn new() -> Self {
        TraceObserver::default()
    }

    /// The collected trace.
    #[must_use]
    pub fn into_trace(self) -> PipelineTrace {
        self.trace
    }
}

impl SimObserver for TraceObserver {
    fn on_retire(&mut self, event: &RetireEvent<'_>) {
        self.trace.push(event.trace_entry());
    }
}

/// Samples wall-clock phase timers and event counters, flushing a
/// [`MetricsRegistry`] when the run ends.
///
/// Counts are tallied in flat arrays during the hot loop (no name
/// lookups); the registry is built once by
/// [`into_registry`](TelemetryObserver::into_registry). Phase timers
/// slice the real time spent in each stage's code with a monotonic
/// [`Stopwatch`]; the `execute` phase is modelled (not stepped
/// unit-by-unit), so its wall share is reported but near zero.
#[derive(Debug)]
pub struct TelemetryObserver {
    cycles: u64,
    retired: u64,
    stage_hist: [[u64; 9]; 5],
    stage_sum: [u64; 5],
    phase: [Duration; 5],
    levels: [u64; 3],
    cases: [u64; 4],
    watch: Stopwatch,
}

impl Default for TelemetryObserver {
    fn default() -> Self {
        TelemetryObserver::new()
    }
}

impl TelemetryObserver {
    /// A fresh observer; the phase stopwatch starts immediately.
    #[must_use]
    pub fn new() -> Self {
        TelemetryObserver {
            cycles: 0,
            retired: 0,
            stage_hist: [[0; 9]; 5],
            stage_sum: [0; 5],
            phase: [Duration::ZERO; 5],
            levels: [0; 3],
            cases: [0; 4],
            watch: Stopwatch::start(),
        }
    }

    /// Flushes everything observed into a registry. Metric names are
    /// documented in `OBSERVABILITY.md`.
    #[must_use]
    pub fn into_registry(self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.add("sim-cycles", self.cycles);
        reg.add("sim-retired", self.retired);
        for (slot, n) in self.levels.iter().enumerate() {
            reg.add(&format!("bypass-level-{}", slot + 1), *n);
        }
        for case in BypassCase::all() {
            reg.add(
                &format!("bypass-case-{}", case_key(*case)),
                self.cases[case.index()],
            );
        }
        let bounds: Vec<u64> = (0..=7).collect();
        for stage in Stage::ALL {
            let i = stage.index();
            reg.set_histogram(
                &format!("stage-occupancy-{}", stage.label()),
                Histogram::from_counts(&bounds, &self.stage_hist[i], self.stage_sum[i]),
            );
            reg.set_gauge(
                &format!("phase-seconds-{}", stage.label()),
                self.phase[i].as_secs_f64(),
            );
        }
        let total: Duration = self.phase.iter().sum();
        reg.set_gauge("sim-wall-seconds", total.as_secs_f64());
        let secs = total.as_secs_f64();
        reg.set_gauge(
            "instructions-per-second",
            self.retired as f64 / secs.max(1e-9),
        );
        reg.set_gauge("cycles-per-second", self.cycles as f64 / secs.max(1e-9));
        reg
    }
}

impl SimObserver for TelemetryObserver {
    fn on_cycle(&mut self, _cycle: u64) {
        self.cycles += 1;
        // Time between the previous cycle's last stage and here is loop
        // overhead; restart the watch so it lands in no phase.
        let _ = self.watch.lap();
    }
    fn on_stage(&mut self, stage: Stage, occupancy: usize) {
        let i = stage.index();
        self.stage_hist[i][occupancy.min(8)] += 1;
        self.stage_sum[i] += occupancy.min(8) as u64;
        self.phase[i] += self.watch.lap();
    }
    fn on_retire(&mut self, _event: &RetireEvent<'_>) {
        self.retired += 1;
    }
    fn on_bypass(&mut self, level: u8, case: BypassCase) {
        if (1..=3).contains(&level) {
            self.levels[(level - 1) as usize] += 1;
        }
        self.cases[case.index()] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_labels_unique() {
        let mut seen = std::collections::HashSet::new();
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(seen.insert(s.label()));
        }
    }

    #[test]
    fn telemetry_histograms_sum_to_cycle_count() {
        let mut t = TelemetryObserver::new();
        for c in 1..=10u64 {
            t.on_cycle(c);
            for s in Stage::ALL {
                t.on_stage(s, (c % 9) as usize);
            }
        }
        let reg = t.into_registry();
        assert_eq!(reg.counter("sim-cycles"), 10);
        for s in Stage::ALL {
            let h = reg
                .histogram(&format!("stage-occupancy-{}", s.label()))
                .expect("registered");
            assert_eq!(h.count(), 10, "{}: one sample per cycle", s.label());
        }
    }

    #[test]
    fn pair_observer_forwards_to_both() {
        let mut pair = (StatsObserver::default(), StatsObserver::default());
        pair.on_cycle(1);
        pair.on_stage(Stage::Issue, 2);
        pair.on_bypass(2, BypassCase::RbToTc);
        assert_eq!(pair.0.cycles, 1);
        assert_eq!(pair.1.cycles, 1);
        assert_eq!(pair.0.stage_hist[Stage::Issue.index()][2], 1);
        assert_eq!(pair.1.bypass_levels[1], 1);
        assert_eq!(pair.0.case_counts, pair.1.case_counts);
    }

    #[test]
    fn out_of_range_levels_are_ignored_not_counted() {
        let mut s = StatsObserver::default();
        s.on_bypass(0, BypassCase::TcToTc);
        s.on_bypass(4, BypassCase::TcToTc);
        assert_eq!(s.bypass_levels, [0, 0, 0]);
        assert_eq!(s.case_counts[BypassCase::TcToTc.index()], 2);
    }
}
