//! Machine configuration: the §5.1 core models, Table 2 parameters, and
//! Table 3 latencies.

use redbin_isa::class::{latency_class, LatencyClass};
use redbin_isa::Opcode;

use crate::hash::Fnv64;

/// Which execution core is being modeled (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreModel {
    /// 2-cycle pipelined 2's-complement ALUs (Figure 1, configuration B).
    Baseline,
    /// 1-cycle redundant binary adders, 2-cycle converters, TC register
    /// files only, and the §4.2 limited bypass network (BYP-2 removed;
    /// BYP-3 unusable by RB-input ALUs → a 2-cycle availability hole).
    RbLimited,
    /// 1-cycle redundant binary adders with both TC and RB register files:
    /// redundant results are continuously available to redundant consumers.
    RbFull,
    /// 1-cycle 2's-complement ALUs — the upper bound.
    Ideal,
}

impl CoreModel {
    /// `true` for the two redundant binary machines.
    pub fn is_rb(self) -> bool {
        matches!(self, CoreModel::RbLimited | CoreModel::RbFull)
    }

    /// The name used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            CoreModel::Baseline => "Baseline",
            CoreModel::RbLimited => "RB-limited",
            CoreModel::RbFull => "RB-full",
            CoreModel::Ideal => "Ideal",
        }
    }

    /// The lowercase name used on the wire, in grid specs and on the
    /// command line: `baseline`, `rb-limited`, `rb-full` or `ideal`.
    pub fn wire_name(self) -> &'static str {
        match self {
            CoreModel::Baseline => "baseline",
            CoreModel::RbLimited => "rb-limited",
            CoreModel::RbFull => "rb-full",
            CoreModel::Ideal => "ideal",
        }
    }

    /// Parses a [`CoreModel::wire_name`].
    ///
    /// # Errors
    ///
    /// Names the accepted values on anything else.
    pub fn from_wire_name(name: &str) -> Result<CoreModel, String> {
        CoreModel::all()
            .iter()
            .copied()
            .find(|m| m.wire_name() == name)
            .ok_or_else(|| {
                format!("unknown model `{name}` (expected baseline|rb-limited|rb-full|ideal)")
            })
    }

    /// The canonical one-byte tag used by [`MachineConfig::canonical_hash`].
    pub fn canonical_tag(self) -> u8 {
        match self {
            CoreModel::Baseline => 0,
            CoreModel::RbLimited => 1,
            CoreModel::RbFull => 2,
            CoreModel::Ideal => 3,
        }
    }

    /// The four machines in figure order.
    pub fn all() -> &'static [CoreModel] {
        &[
            CoreModel::Baseline,
            CoreModel::RbLimited,
            CoreModel::RbFull,
            CoreModel::Ideal,
        ]
    }
}

impl std::fmt::Display for CoreModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which levels of the (up to 3-level) bypass network exist — the Figure 14
/// limited-bypass experiment removes levels from the Ideal machine.
///
/// Level `ℓ` forwards a result produced at the end of cycle `t` to
/// executions beginning at cycle `t + ℓ`; with a 2-cycle register file the
/// register file itself serves executions from `t + 4` onward, so removing
/// levels creates *holes* in availability that the scheduler must schedule
/// around (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BypassLevels {
    /// First-level (back-to-back) bypass paths exist.
    pub l1: bool,
    /// Second-level bypass paths exist.
    pub l2: bool,
    /// Third-level bypass paths exist.
    pub l3: bool,
}

impl BypassLevels {
    /// The full network.
    pub const FULL: BypassLevels = BypassLevels {
        l1: true,
        l2: true,
        l3: true,
    };

    /// Builds a configuration by listing the removed levels (1-indexed, as
    /// the paper names them: `No-1`, `No-2,3`, …).
    ///
    /// # Panics
    ///
    /// Panics if a level outside 1–3 is named.
    pub fn without(removed: &[u8]) -> Self {
        let mut b = BypassLevels::FULL;
        for &l in removed {
            match l {
                1 => b.l1 = false,
                2 => b.l2 = false,
                3 => b.l3 = false,
                _ => panic!("bypass level {l} out of range 1-3"),
            }
        }
        b
    }

    /// `true` if level `l` (1-indexed) is present.
    pub fn has(self, l: u64) -> bool {
        match l {
            1 => self.l1,
            2 => self.l2,
            3 => self.l3,
            _ => false,
        }
    }

    /// The paper's name for the configuration (`Full`, `No-1`, `No-1,2`…).
    pub fn label(self) -> String {
        let removed: Vec<&str> = [(self.l1, "1"), (self.l2, "2"), (self.l3, "3")]
            .iter()
            .filter(|(p, _)| !p)
            .map(|(_, n)| *n)
            .collect();
        if removed.is_empty() {
            "Full".to_string()
        } else {
            format!("No-{}", removed.join(","))
        }
    }

    /// Parses a [`BypassLevels::label`] (`Full`, `No-2`, `No-1,2`, …).
    ///
    /// # Errors
    ///
    /// Names the expected form on anything `label` cannot produce.
    pub fn from_label(label: &str) -> Result<Self, String> {
        if label == "Full" {
            return Ok(BypassLevels::FULL);
        }
        let Some(rest) = label.strip_prefix("No-") else {
            return Err(format!(
                "unknown bypass label `{label}` (expected Full or No-<levels>)"
            ));
        };
        let mut removed = Vec::new();
        for part in rest.split(',') {
            match part {
                "1" => removed.push(1u8),
                "2" => removed.push(2),
                "3" => removed.push(3),
                other => {
                    return Err(format!(
                        "bad bypass level `{other}` in `{label}` (expected 1, 2 or 3)"
                    ))
                }
            }
        }
        Ok(BypassLevels::without(&removed))
    }
}

/// How dispatched instructions are distributed across the partitioned
/// schedulers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SteeringPolicy {
    /// Groups of two consecutive instructions, round-robin across
    /// schedulers — the paper's configuration (§5.1).
    RoundRobinPairs,
    /// Steer each instruction to the *cluster* of its youngest in-flight
    /// producer, picking the scheduler there with the most free entries
    /// (falling back to round-robin when that cluster is full or no
    /// producer is in flight). On a single-cluster machine this is exactly
    /// round-robin. This is the paper's §4.2 future-work direction:
    /// keeping consumers next to producers makes clustered forwarding
    /// cheaper.
    DependenceAware,
}

impl SteeringPolicy {
    /// Both policies, the paper's first.
    pub fn all() -> &'static [SteeringPolicy] {
        &[
            SteeringPolicy::RoundRobinPairs,
            SteeringPolicy::DependenceAware,
        ]
    }

    /// The name used on the wire and in grid specs: `round-robin` or
    /// `dependence-aware`.
    pub fn name(self) -> &'static str {
        match self {
            SteeringPolicy::RoundRobinPairs => "round-robin",
            SteeringPolicy::DependenceAware => "dependence-aware",
        }
    }

    /// Parses a [`SteeringPolicy::name`].
    ///
    /// # Errors
    ///
    /// Names the accepted values on anything else.
    pub fn from_name(name: &str) -> Result<SteeringPolicy, String> {
        SteeringPolicy::all()
            .iter()
            .copied()
            .find(|p| p.name() == name)
            .ok_or_else(|| {
                format!("unknown steering `{name}` (expected round-robin|dependence-aware)")
            })
    }

    /// The canonical one-byte tag used by [`MachineConfig::canonical_hash`].
    pub fn canonical_tag(self) -> u8 {
        match self {
            SteeringPolicy::RoundRobinPairs => 0,
            SteeringPolicy::DependenceAware => 1,
        }
    }
}

/// Whether a simulation first checks the program on the redundant binary
/// datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatapathMode {
    /// Values come from the architectural emulator only (fast).
    Fast,
    /// The run starts with [`fidelity::check`](crate::fidelity::check):
    /// redundant-capable operations are computed with `redbin-arith`
    /// (redundant adders, digit shifts, SAM decoders) and compared with
    /// the emulator — a whole-program hardware-algorithm check. Its count
    /// is `SimStats::fidelity_checks`; every other statistic is the fast
    /// run's.
    Faithful,
}

impl DatapathMode {
    /// The name used on the wire: `fast` or `faithful`.
    pub fn name(self) -> &'static str {
        match self {
            DatapathMode::Fast => "fast",
            DatapathMode::Faithful => "faithful",
        }
    }

    /// Parses a [`DatapathMode::name`].
    ///
    /// # Errors
    ///
    /// Names the accepted values on anything else.
    pub fn from_name(name: &str) -> Result<DatapathMode, String> {
        [DatapathMode::Fast, DatapathMode::Faithful]
            .into_iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| format!("unknown datapath `{name}` (expected fast|faithful)"))
    }

    /// The canonical one-byte tag folded into configuration hashes.
    pub fn canonical_tag(self) -> u8 {
        match self {
            DatapathMode::Fast => 0,
            DatapathMode::Faithful => 1,
        }
    }
}

/// Fetch/decode/rename/retire width (Table 2).
pub const FRONT_WIDTH: usize = 8;
/// Reorder-buffer entries.
pub const ROB_ENTRIES: usize = 256;
/// Fetch-to-dispatch depth: 6 fetch/decode + 2 rename.
pub const FRONT_LATENCY: u64 = 8;
/// Select-to-execute depth: 1 schedule + 2 register file read. A full
/// bypass network therefore has this many levels, and the register file
/// serves a result that finishes at `t` from `t + SCHED_TO_EXEC + 1`.
pub const SCHED_TO_EXEC: u64 = 3;
/// Basic blocks fetchable per cycle.
pub const FETCH_BLOCKS: usize = 2;
/// Fetch/decode queue capacity.
pub const FETCH_QUEUE: usize = 96;
/// L1 instruction cache: (bytes, ways, line bytes, access cycles).
pub const ICACHE: (usize, usize, usize, u64) = (64 * 1024, 4, 64, 2);
/// L1 data cache: (bytes, ways, line bytes, access cycles).
pub const DCACHE: (usize, usize, usize, u64) = (8 * 1024, 2, 64, 2);
/// Unified L2: (bytes, ways, line bytes, access cycles, banks, busy cycles per access).
pub const L2: (usize, usize, usize, u64, usize, u64) = (1024 * 1024, 8, 64, 8, 2, 2);
/// Memory: (access cycles, banks, busy cycles per access).
pub const MEMORY: (u64, usize, u64) = (100, 32, 4);

/// The values of one machine that an experiment varies. The rest of
/// Table 2 is fixed: see the constants of this module.
///
/// Construct through a preset ([`MachineConfig::ideal`], …) or, for a
/// width that is not known to be valid, [`MachineConfig::try_new`],
/// which returns a `Result` instead of panicking; then chain the
/// `with_*` modifiers. `redbin-analyze`'s `validate_machine` proves the
/// result's bypass network sound. The fields are public and may be
/// assigned directly: the ablation sweeps vary `window`, `cluster_delay`
/// and `conversion_latency`, which no modifier sets; the torture
/// configurations set `max_cycles`; and the analyzer's tests build
/// deliberately-unsound machines (`rb_rf_only` without bypass level 3)
/// that `validate_machine` must reject.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Which §5.1 core model.
    pub model: CoreModel,
    /// Number of functional units: 4 or 8.
    pub width: usize,
    /// Total reservation-station entries, split evenly across schedulers.
    pub window: usize,
    /// Extra forwarding delay between clusters (cycles).
    pub cluster_delay: u64,
    /// Which bypass levels exist (Figure 14 removes some).
    pub bypass: BypassLevels,
    /// Redundant→TC format conversion latency (CV1+CV2).
    pub conversion_latency: u64,
    /// Scheduler steering policy.
    pub steering: SteeringPolicy,
    /// Datapath fidelity checking.
    pub datapath: DatapathMode,
    /// Safety valve: abort if a run exceeds this many cycles (0 = off).
    pub max_cycles: u64,
    /// Hypothetical RB machine without a 2's-complement write-back path:
    /// redundant results live only in the RB register file / bypass
    /// network and are never converted into the TC register file. On such
    /// a machine a TC-needing consumer of a redundant result can *never*
    /// obtain its operand from the register file — if the post-conversion
    /// bypass level is also missing, the operand is statically
    /// unreachable. This is the deliberately-unsound configuration the
    /// `redbin-analyze` bypass pass must reject (and `redbin-served`
    /// refuses to queue). Defaults to `false` on every real machine.
    pub rb_rf_only: bool,
}

impl MachineConfig {
    /// A Table 2 machine of the given width (4 or 8 functional units) and
    /// core model.
    ///
    /// # Panics
    ///
    /// Panics unless `width` is 4 or 8; [`try_new`](Self::try_new) is the
    /// checked form.
    pub fn new(model: CoreModel, width: usize) -> Self {
        Self::try_new(model, width).unwrap_or_else(|e| panic!("{e}"))
    }

    /// A Table 2 machine of the given width and core model.
    ///
    /// # Errors
    ///
    /// [`ConfigError::UnsupportedWidth`] unless `width` is 4 or 8.
    pub fn try_new(model: CoreModel, width: usize) -> Result<Self, ConfigError> {
        if width != 4 && width != 8 {
            return Err(ConfigError::UnsupportedWidth(width));
        }
        Ok(MachineConfig {
            model,
            width,
            window: 128,
            cluster_delay: 1,
            bypass: BypassLevels::FULL,
            conversion_latency: 2,
            steering: SteeringPolicy::RoundRobinPairs,
            datapath: DatapathMode::Fast,
            max_cycles: 0,
            rb_rf_only: false,
        })
    }

    /// The Baseline machine (2-cycle pipelined TC adders).
    pub fn baseline(width: usize) -> Self {
        Self::new(CoreModel::Baseline, width)
    }

    /// The RB machine with TC register files and the §4.2 limited bypass.
    pub fn rb_limited(width: usize) -> Self {
        Self::new(CoreModel::RbLimited, width)
    }

    /// The RB machine with TC and RB register files.
    pub fn rb_full(width: usize) -> Self {
        Self::new(CoreModel::RbFull, width)
    }

    /// The Ideal machine (1-cycle TC adders).
    pub fn ideal(width: usize) -> Self {
        Self::new(CoreModel::Ideal, width)
    }

    /// Builder: replace the bypass-level configuration (Figure 14).
    #[must_use]
    pub fn with_bypass(mut self, bypass: BypassLevels) -> Self {
        self.bypass = bypass;
        self
    }

    /// Builder: enable faithful redundant-datapath checking.
    #[must_use]
    pub fn with_datapath(mut self, mode: DatapathMode) -> Self {
        self.datapath = mode;
        self
    }

    /// Builder: replace the steering policy (§4.2 future work).
    #[must_use]
    pub fn with_steering(mut self, steering: SteeringPolicy) -> Self {
        self.steering = steering;
        self
    }

    /// Builder: drop the 2's-complement write-back path for redundant
    /// results (see [`MachineConfig::rb_rf_only`]). The resulting
    /// configuration is *unsound* on RB machines and exists to exercise
    /// the static bypass analysis and the server's submit-time rejection.
    #[must_use]
    pub fn with_rb_rf_only(mut self) -> Self {
        self.rb_rf_only = true;
        self
    }

    /// Schedulers, each select-2 feeding 2 FUs: width / 2.
    pub fn schedulers(&self) -> usize {
        self.width / 2
    }

    /// Clusters: the 8-wide machine is split into two.
    pub fn clusters(&self) -> usize {
        if self.width == 8 {
            2
        } else {
            1
        }
    }

    /// Reservation-station entries per scheduler.
    pub fn entries_per_scheduler(&self) -> usize {
        self.window / self.schedulers()
    }

    /// The cluster a scheduler belongs to.
    pub fn cluster_of(&self, scheduler: usize) -> usize {
        scheduler * self.clusters() / self.schedulers()
    }

    /// The Table 3 *execution* latency of an opcode on this machine —
    /// cycles from the first EXE stage to the primary (earliest-format)
    /// result. Loads return the address-generation latency only; the cache
    /// pipeline is added by the memory system.
    pub fn exec_latency(&self, op: Opcode) -> u64 {
        let class = latency_class(op);
        let fast = !matches!(self.model, CoreModel::Baseline);
        match class {
            LatencyClass::IntArith | LatencyClass::IntCompare | LatencyClass::ByteManip => {
                if fast {
                    1
                } else {
                    2
                }
            }
            LatencyClass::IntLogical => 1,
            LatencyClass::ShiftLeft | LatencyClass::ShiftRight => 3,
            LatencyClass::IntMul => 10,
            LatencyClass::FpArith => 8,
            LatencyClass::FpDiv => 32,
            LatencyClass::Mem => 1,
            LatencyClass::Branch => 1,
        }
    }

    /// `true` if the opcode's register result is produced in redundant
    /// binary *timing* on this machine: the value exists `conversion_latency`
    /// cycles before its 2's-complement form does.
    ///
    /// Follows Table 3: on the RB machines, integer arithmetic, compares,
    /// conditional moves, byte manipulation and left shifts are listed as
    /// `L (L+2)`; multiplies, right shifts, logicals and loads produce TC
    /// directly.
    pub fn result_is_rb(&self, op: Opcode) -> bool {
        if !self.model.is_rb() || !op.writes_dest() {
            return false;
        }
        match latency_class(op) {
            LatencyClass::IntArith
            | LatencyClass::IntCompare
            | LatencyClass::ByteManip
            | LatencyClass::ShiftLeft => true,
            LatencyClass::IntMul => false, // converter folded into the pipeline (Table 3: "10")
            _ => false,
        }
    }

    /// Folds every timing-relevant field into `h` in canonical order.
    ///
    /// This is the [`MachineConfig`] half of the serving layer's
    /// content-addressed cache key; see [`crate::hash`] for the stability
    /// contract. Every field of the struct is absorbed — two configurations
    /// hash equal iff they are `==`. Fields added after the original
    /// layout ([`MachineConfig::rb_rf_only`]) are folded only when they
    /// differ from their default, so every pre-existing pinned hash
    /// (`tests/golden/canonical_hashes.json`) is preserved.
    pub fn fold_canonical(&self, h: &mut Fnv64) {
        // The Table 2 constants and the two values derived from `width`
        // were fields in the original layout. They are still folded, in
        // that layout's order and integer types, so that every job id and
        // pinned hash keeps its value.
        h.write_tag(0xA0); // domain tag: MachineConfig
        h.write_tag(self.model.canonical_tag());
        h.write_usize(self.width);
        h.write_usize(FRONT_WIDTH);
        h.write_usize(self.window);
        h.write_usize(self.schedulers());
        h.write_usize(self.clusters());
        h.write_u64(self.cluster_delay);
        h.write_usize(ROB_ENTRIES);
        h.write_bool(self.bypass.l1);
        h.write_bool(self.bypass.l2);
        h.write_bool(self.bypass.l3);
        h.write_u64(FRONT_LATENCY);
        h.write_u64(SCHED_TO_EXEC);
        h.write_usize(FETCH_BLOCKS);
        h.write_usize(FETCH_QUEUE);
        h.write_u64(self.conversion_latency);
        for (a, b, c, d) in [ICACHE, DCACHE] {
            h.write_usize(a).write_usize(b).write_usize(c).write_u64(d);
        }
        let (a, b, c, d, e, f) = L2;
        h.write_usize(a).write_usize(b).write_usize(c);
        h.write_u64(d).write_usize(e).write_u64(f);
        let (a, b, c) = MEMORY;
        h.write_u64(a).write_usize(b).write_u64(c);
        h.write_tag(self.steering.canonical_tag());
        h.write_tag(self.datapath.canonical_tag());
        h.write_u64(self.max_cycles);
        if self.rb_rf_only {
            h.write_tag(0xA1); // domain tag: post-v1 extension fields
            h.write_bool(true);
        }
    }

    /// A stable, platform-independent FNV-1a fingerprint of this machine
    /// configuration (all fields, canonical order).
    pub fn canonical_hash(&self) -> u64 {
        let mut h = Fnv64::new();
        self.fold_canonical(&mut h);
        h.finish()
    }

    /// This machine with every field that cannot reach timing on it reset
    /// to its Table 2 default. Two machines with the same timing class
    /// give bit-identical [`SimStats`](crate::stats::SimStats) on every
    /// program, so a caller may simulate one and key the rest on the
    /// class's [`canonical_hash`](Self::canonical_hash):
    ///
    /// * on one cluster, dependence-aware steering picks exactly the
    ///   round-robin scheduler, and no result crosses a cluster, so
    ///   `steering` and `cluster_delay` are reset;
    /// * `rb_rf_only` only changes how redundant results reach their
    ///   consumers, and Baseline and Ideal produce none, so it is reset
    ///   there.
    ///
    /// `datapath` stays: the Faithful check adds `fidelity_checks`.
    pub fn timing_class(&self) -> MachineConfig {
        let mut class = self.clone();
        if self.clusters() <= 1 {
            let table2 = MachineConfig::new(self.model, 4);
            class.steering = table2.steering;
            class.cluster_delay = table2.cluster_delay;
        }
        if !self.model.is_rb() {
            class.rb_rf_only = false;
        }
        class
    }
}

/// A structurally invalid [`MachineConfig`] request, from
/// [`MachineConfig::try_new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// The paper studies 4- and 8-wide machines only.
    UnsupportedWidth(usize),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnsupportedWidth(w) => {
                write!(
                    f,
                    "unsupported machine width {w}: the paper studies 4- and 8-wide"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_and_partitions_match_the_paper() {
        let m8 = MachineConfig::ideal(8);
        assert_eq!(m8.schedulers(), 4);
        assert_eq!(m8.entries_per_scheduler(), 32);
        assert_eq!(m8.clusters(), 2);
        assert_eq!(m8.cluster_of(0), 0);
        assert_eq!(m8.cluster_of(1), 0);
        assert_eq!(m8.cluster_of(2), 1);
        assert_eq!(m8.cluster_of(3), 1);
        let m4 = MachineConfig::ideal(4);
        assert_eq!(m4.schedulers(), 2);
        assert_eq!(m4.entries_per_scheduler(), 64);
        assert_eq!(m4.clusters(), 1);
        assert_eq!(m4.cluster_of(1), 0);
    }

    #[test]
    #[should_panic(expected = "4- and 8-wide")]
    fn rejects_odd_widths() {
        let _ = MachineConfig::ideal(6);
    }

    #[test]
    fn try_new_rejects_odd_widths_without_panicking() {
        let err = MachineConfig::try_new(CoreModel::Ideal, 6).unwrap_err();
        assert_eq!(err, ConfigError::UnsupportedWidth(6));
        assert!(err.to_string().contains("width 6"));
        assert_eq!(
            MachineConfig::try_new(CoreModel::RbFull, 0),
            Err(ConfigError::UnsupportedWidth(0))
        );
        assert_eq!(
            MachineConfig::try_new(CoreModel::RbLimited, 8),
            Ok(MachineConfig::rb_limited(8))
        );
    }

    #[test]
    fn table3_latencies() {
        let base = MachineConfig::baseline(8);
        let rb = MachineConfig::rb_full(8);
        let ideal = MachineConfig::ideal(8);
        assert_eq!(base.exec_latency(Opcode::Addq), 2);
        assert_eq!(rb.exec_latency(Opcode::Addq), 1);
        assert_eq!(ideal.exec_latency(Opcode::Addq), 1);
        for m in [&base, &rb, &ideal] {
            assert_eq!(m.exec_latency(Opcode::And), 1);
            assert_eq!(m.exec_latency(Opcode::Sll), 3);
            assert_eq!(m.exec_latency(Opcode::Srl), 3);
            assert_eq!(m.exec_latency(Opcode::Mulq), 10);
            assert_eq!(m.exec_latency(Opcode::Fadd), 8);
            assert_eq!(m.exec_latency(Opcode::Fdiv), 32);
            assert_eq!(m.exec_latency(Opcode::Ldq), 1);
        }
        assert_eq!(base.exec_latency(Opcode::Cmplt), 2);
        assert_eq!(rb.exec_latency(Opcode::Cmplt), 1);
    }

    #[test]
    fn rb_results_only_on_rb_machines() {
        let rb = MachineConfig::rb_limited(4);
        let ideal = MachineConfig::ideal(4);
        assert!(rb.result_is_rb(Opcode::Addq));
        assert!(rb.result_is_rb(Opcode::Sll));
        assert!(rb.result_is_rb(Opcode::Cmplt));
        assert!(!rb.result_is_rb(Opcode::And));
        assert!(!rb.result_is_rb(Opcode::Ldq));
        assert!(!rb.result_is_rb(Opcode::Mulq));
        assert!(!rb.result_is_rb(Opcode::Srl));
        assert!(!ideal.result_is_rb(Opcode::Addq));
    }

    #[test]
    fn bypass_labels() {
        assert_eq!(BypassLevels::FULL.label(), "Full");
        assert_eq!(BypassLevels::without(&[1]).label(), "No-1");
        assert_eq!(BypassLevels::without(&[1, 2]).label(), "No-1,2");
        assert_eq!(BypassLevels::without(&[2, 3]).label(), "No-2,3");
        assert!(BypassLevels::without(&[2]).has(1));
        assert!(!BypassLevels::without(&[2]).has(2));
    }

    #[test]
    fn canonical_hash_tracks_equality() {
        let a = MachineConfig::rb_full(8);
        let b = MachineConfig::rb_full(8);
        assert_eq!(a, b);
        assert_eq!(a.canonical_hash(), b.canonical_hash());
    }

    #[test]
    fn canonical_hash_changes_on_any_field_flip() {
        let base = MachineConfig::ideal(8);
        let h0 = base.canonical_hash();
        let mut seen = std::collections::HashSet::new();
        seen.insert(h0);
        let variants: Vec<MachineConfig> = vec![
            MachineConfig::baseline(8),
            MachineConfig::rb_limited(8),
            MachineConfig::rb_full(8),
            MachineConfig::ideal(4),
            {
                let mut c = base.clone();
                c.window = 256;
                c
            },
            {
                let mut c = base.clone();
                c.cluster_delay = 2;
                c
            },
            {
                let mut c = base.clone();
                c.conversion_latency = 3;
                c
            },
            base.clone().with_bypass(BypassLevels::without(&[2])),
            base.clone().with_steering(SteeringPolicy::DependenceAware),
            base.clone().with_datapath(DatapathMode::Faithful),
            {
                let mut c = base.clone();
                c.max_cycles = 1;
                c
            },
            base.clone().with_rb_rf_only(),
        ];
        for v in variants {
            assert!(
                seen.insert(v.canonical_hash()),
                "hash collision for variant {v:?}"
            );
        }
    }

    #[test]
    fn canonical_hash_is_stable_across_threads() {
        let cfg = MachineConfig::rb_limited(4);
        let expected = cfg.canonical_hash();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = cfg.clone();
                std::thread::spawn(move || c.canonical_hash())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("thread"), expected);
        }
    }

    #[test]
    fn model_names() {
        assert_eq!(CoreModel::all().len(), 4);
        assert_eq!(CoreModel::RbLimited.to_string(), "RB-limited");
        assert!(CoreModel::RbFull.is_rb());
        assert!(!CoreModel::Ideal.is_rb());
    }
}
