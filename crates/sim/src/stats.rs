//! Simulation statistics, including the Figure 13 bypass-case accounting
//! and the per-cycle stall-cause (lost-slot) breakdown.

// `StallCause` is designed to grow: a wildcard arm would absorb a new
// cause instead of forcing the accounting to be extended.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

/// Why an issue slot went unused in some cycle — the stall taxonomy.
///
/// Every cycle the machine has `width` issue slots. Slots that issue an
/// instruction are counted as *used*; every other slot is charged to
/// exactly one of these causes, so the breakdown is a complete accounting:
/// `used + Σ causes == cycles × width` (asserted by the test suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallCause {
    /// The scheduler partition had no instructions at all: the front end
    /// did not deliver (icache miss, mispredict redirect, fetch/decode
    /// latency, program exhausted).
    FetchStarved,
    /// Instructions were fetched and decodable, but dispatch could not
    /// insert them: the reorder buffer or the reservation stations were
    /// full (window pressure).
    WindowFull,
    /// The oldest waiting instruction's operand simply does not exist yet:
    /// its producer has not issued, or is still executing.
    OperandWait,
    /// The operand *exists* but no bypass level nor the register file can
    /// deliver it this cycle — a hole in a limited bypass network (§4.2,
    /// Figure 14).
    BypassHole,
    /// The operand exists in redundant form but the consumer needs 2's
    /// complement and the CV1/CV2 conversion has not finished (RB→TC
    /// delay).
    ConversionWait,
    /// The operand is being produced by a load that missed in the L1 data
    /// cache (waiting on L2/memory).
    CacheMiss,
    /// A ready load was blocked by memory disambiguation (a conflicting
    /// older store's address or data is unknown, or a partial overlap
    /// cannot forward).
    Disambiguation,
}

impl StallCause {
    /// All causes, in reporting order.
    pub fn all() -> &'static [StallCause] {
        &[
            StallCause::FetchStarved,
            StallCause::WindowFull,
            StallCause::OperandWait,
            StallCause::BypassHole,
            StallCause::ConversionWait,
            StallCause::CacheMiss,
            StallCause::Disambiguation,
        ]
    }

    /// A stable kebab-case key (used in the JSON schema).
    pub fn key(self) -> &'static str {
        match self {
            StallCause::FetchStarved => "fetch-starved",
            StallCause::WindowFull => "window-full",
            StallCause::OperandWait => "operand-wait",
            StallCause::BypassHole => "bypass-hole",
            StallCause::ConversionWait => "conversion-wait",
            StallCause::CacheMiss => "cache-miss",
            StallCause::Disambiguation => "disambiguation",
        }
    }

    const fn index(self) -> usize {
        match self {
            StallCause::FetchStarved => 0,
            StallCause::WindowFull => 1,
            StallCause::OperandWait => 2,
            StallCause::BypassHole => 3,
            StallCause::ConversionWait => 4,
            StallCause::CacheMiss => 5,
            StallCause::Disambiguation => 6,
        }
    }
}

impl std::fmt::Display for StallCause {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.key())
    }
}

/// Where every issue slot of every cycle went: used, or charged to a
/// [`StallCause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallBreakdown {
    slots: [u64; 7],
    /// Issue slots that actually issued an instruction.
    pub used: u64,
}

impl StallBreakdown {
    /// Charges `n` unused slots to a cause.
    pub fn charge(&mut self, cause: StallCause, n: u64) {
        self.slots[cause.index()] += n;
    }

    /// The slots charged to one cause.
    pub fn count(&self, cause: StallCause) -> u64 {
        self.slots[cause.index()]
    }

    /// Total slots charged to stall causes (excludes used slots).
    pub fn charged(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Total slots accounted for: used + charged. Equals `cycles × width`
    /// for a completed simulation.
    pub fn total(&self) -> u64 {
        self.used + self.charged()
    }

    /// The fraction (0–1) of *all* slots charged to one cause.
    pub fn fraction(&self, cause: StallCause) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.count(cause) as f64 / total as f64
        }
    }
}

/// The four bypass cases of Figure 13: who produced the forwarded value and
/// what kind of operation consumed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BypassCase {
    /// 2's complement result → 2's complement operation.
    TcToTc,
    /// 2's complement result → redundant-capable operation.
    TcToRb,
    /// Redundant result → redundant-capable operation.
    RbToRb,
    /// Redundant result → 2's complement operation — the only case needing
    /// a format conversion.
    RbToTc,
}

impl BypassCase {
    /// Classifies from (producer-is-redundant, consumer-needs-TC).
    pub fn classify(producer_rb: bool, consumer_needs_tc: bool) -> Self {
        match (producer_rb, consumer_needs_tc) {
            (false, true) => BypassCase::TcToTc,
            (false, false) => BypassCase::TcToRb,
            (true, false) => BypassCase::RbToRb,
            (true, true) => BypassCase::RbToTc,
        }
    }

    /// All cases in figure order.
    pub fn all() -> &'static [BypassCase] {
        &[
            BypassCase::TcToTc,
            BypassCase::TcToRb,
            BypassCase::RbToRb,
            BypassCase::RbToTc,
        ]
    }

    /// The figure's label.
    pub fn label(self) -> &'static str {
        match self {
            BypassCase::TcToTc => "TC→TC",
            BypassCase::TcToRb => "TC→RB",
            BypassCase::RbToRb => "RB→RB",
            BypassCase::RbToTc => "RB→TC (conversion)",
        }
    }

    /// The case's slot in [`BypassCases`] — an exhaustive match, so adding
    /// a variant fails to compile instead of silently miscounting.
    pub const fn index(self) -> usize {
        match self {
            BypassCase::TcToTc => 0,
            BypassCase::TcToRb => 1,
            BypassCase::RbToRb => 2,
            BypassCase::RbToTc => 3,
        }
    }
}

/// Figure 13 accounting: last-arriving bypassed source operands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BypassCases {
    counts: [u64; 4],
    /// Instructions that had at least one bypassed source operand.
    pub insts_with_bypass: u64,
    /// Instructions that had at least one register source operand.
    pub insts_with_sources: u64,
}

impl BypassCases {
    /// Records the last-arriving bypassed source of one instruction.
    pub fn record(&mut self, case: BypassCase) {
        self.counts[case.index()] += 1;
    }

    /// The count for one case.
    pub fn count(&self, case: BypassCase) -> u64 {
        self.counts[case.index()]
    }

    /// The fraction (0–1) of recorded last-arriving bypasses in this case.
    pub fn fraction(&self, case: BypassCase) -> f64 {
        let total: u64 = self.counts.iter().sum();
        if total == 0 {
            0.0
        } else {
            self.count(case) as f64 / total as f64
        }
    }

    /// Total last-arriving bypasses recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Everything a simulation run reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Issue width of the simulated machine (slots per cycle).
    pub width: u64,
    /// Retired (correct-path) instructions.
    pub retired: u64,
    /// Conditional-branch direction lookups and mispredicts.
    pub branches: u64,
    /// Control-flow mispredictions that redirected fetch.
    pub mispredicts: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache (L1D) accesses and misses.
    pub dcache_accesses: u64,
    /// Data-cache (L1D) misses.
    pub dcache_misses: u64,
    /// L2 hits and misses.
    pub l2_hits: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
    /// Store-to-load forwards.
    pub store_forwards: u64,
    /// Load issue attempts blocked by disambiguation.
    pub load_blocks: u64,
    /// Figure 13 accounting.
    pub bypass_cases: BypassCases,
    /// Operands sourced from a bypass level rather than the register file.
    pub bypassed_operands: u64,
    /// Per-level breakdown of `bypassed_operands`: slot `l-1` counts
    /// operands served by bypass level `l` (the Figure 14 attribution the
    /// static analyzer cross-checks). Deliberately not serialized to JSON —
    /// it is an internal consistency surface, not a reported figure.
    pub bypass_levels: [u64; 3],
    /// Operands sourced from the register file.
    pub regfile_operands: u64,
    /// Comparisons the redundant-datapath check made (Faithful machines
    /// only; see [`crate::fidelity`]).
    pub fidelity_checks: u64,
    /// Cycles in which no instruction could be selected anywhere.
    pub idle_issue_cycles: u64,
    /// Per-slot stall-cause accounting (`used + charged == cycles × width`).
    pub stall: StallBreakdown,
    /// Histogram of instructions fetched per cycle (index = count, 0..=8).
    pub fetch_hist: [u64; 9],
    /// Histogram of instructions dispatched per cycle.
    pub dispatch_hist: [u64; 9],
    /// Histogram of instructions issued per cycle.
    pub issue_hist: [u64; 9],
}

impl SimStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// Conditional-branch misprediction ratio (all control redirects over
    /// all control instructions seen by the predictor).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// L1D miss ratio.
    pub fn dcache_miss_ratio(&self) -> f64 {
        if self.dcache_accesses == 0 {
            0.0
        } else {
            self.dcache_misses as f64 / self.dcache_accesses as f64
        }
    }

    /// Fraction of dynamic instructions with at least one bypassed source.
    pub fn bypassed_inst_fraction(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.bypass_cases.insts_with_bypass as f64 / self.retired as f64
        }
    }

    /// Total issue slots the run had (`cycles × width`).
    pub fn total_slots(&self) -> u64 {
        self.cycles * self.width
    }

    /// Checks the stall accounting invariant: every issue slot of every
    /// cycle is either used or charged to exactly one cause.
    pub fn stall_accounting_is_complete(&self) -> bool {
        self.stall.total() == self.total_slots()
    }
}

/// The harmonic mean of a set of IPCs — the paper's Figure 14 aggregate.
///
/// Returns 0 for an empty slice; ignores non-positive entries (which would
/// otherwise poison the mean).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    positive.len() as f64 / positive.iter().map(|v| 1.0 / v).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_matches_figure() {
        assert_eq!(BypassCase::classify(false, true), BypassCase::TcToTc);
        assert_eq!(BypassCase::classify(false, false), BypassCase::TcToRb);
        assert_eq!(BypassCase::classify(true, false), BypassCase::RbToRb);
        assert_eq!(BypassCase::classify(true, true), BypassCase::RbToTc);
    }

    #[test]
    fn case_fractions() {
        let mut c = BypassCases::default();
        c.record(BypassCase::TcToTc);
        c.record(BypassCase::TcToTc);
        c.record(BypassCase::RbToTc);
        c.record(BypassCase::RbToRb);
        assert_eq!(c.total(), 4);
        assert!((c.fraction(BypassCase::TcToTc) - 0.5).abs() < 1e-12);
        assert!((c.fraction(BypassCase::RbToTc) - 0.25).abs() < 1e-12);
        assert_eq!(c.count(BypassCase::TcToRb), 0);
    }

    #[test]
    fn ipc_and_ratios() {
        let s = SimStats {
            cycles: 100,
            retired: 250,
            branches: 50,
            mispredicts: 5,
            dcache_accesses: 80,
            dcache_misses: 8,
            ..Default::default()
        };
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.mispredict_ratio() - 0.1).abs() < 1e-12);
        assert!((s.dcache_miss_ratio() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn harmonic_mean_properties() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        let hm = harmonic_mean(&[1.0, 2.0]);
        assert!((hm - 4.0 / 3.0).abs() < 1e-12);
        // Harmonic ≤ arithmetic.
        assert!(hm < 1.5);
    }

    #[test]
    fn stall_breakdown_accounts_every_slot() {
        let mut s = StallBreakdown {
            used: 10,
            ..StallBreakdown::default()
        };
        s.charge(StallCause::FetchStarved, 3);
        s.charge(StallCause::BypassHole, 2);
        s.charge(StallCause::BypassHole, 1);
        assert_eq!(s.count(StallCause::BypassHole), 3);
        assert_eq!(s.count(StallCause::WindowFull), 0);
        assert_eq!(s.charged(), 6);
        assert_eq!(s.total(), 16);
        assert!((s.fraction(StallCause::FetchStarved) - 3.0 / 16.0).abs() < 1e-12);
        let stats = SimStats {
            cycles: 4,
            width: 4,
            stall: s,
            ..Default::default()
        };
        assert!(stats.stall_accounting_is_complete());
        assert_eq!(stats.total_slots(), 16);
    }

    #[test]
    fn stall_cause_keys_are_stable_and_unique() {
        let keys: Vec<&str> = StallCause::all().iter().map(|c| c.key()).collect();
        assert_eq!(keys.len(), 7);
        for (i, k) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(k), "duplicate key {k}");
        }
        assert_eq!(StallCause::ConversionWait.to_string(), "conversion-wait");
    }

    #[test]
    fn empty_stats_do_not_divide_by_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.mispredict_ratio(), 0.0);
        assert_eq!(s.dcache_miss_ratio(), 0.0);
        assert_eq!(s.bypassed_inst_fraction(), 0.0);
    }
}
