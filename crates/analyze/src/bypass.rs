//! Pass 2: static reachability analysis of bypass networks and machine
//! configurations.
//!
//! For a [`MachineConfig`] the pass derives, per operand class (producer
//! format × consumer format need × cluster locality), the full availability
//! timeline implied by the machine's [`BypassModel`]: the first cycle the
//! operand can be sourced, which forwarding level serves each discrete
//! slot, every hole (with its width), and the point from which the register
//! file serves it continuously. From that timeline it proves *soundness*:
//! every operand class is eventually obtainable, so no instruction can
//! starve waiting for a value that no datapath will ever deliver.
//!
//! A configuration can be unsound: an RB-register-file-only machine
//! ([`MachineConfig::rb_rf_only`]) with the third bypass level removed has
//! no path — bypass or register file — that ever carries the converted 2's
//! complement value to a TC consumer. `redbin-served` runs this pass on
//! every submitted job and rejects such configurations with a structured
//! error *before* queueing (see `crates/serve`), and the `redbin-analyze`
//! CI gate fails if any shipped experiment config is unsound.
//!
//! The pass also exports the static *support* of usable bypass levels,
//! which a test diffs against the simulator's dynamic per-level usage
//! counters ([`SimStats::bypass_levels`](redbin::sim::SimStats)): a level
//! that is used dynamically but statically unreachable is a hard failure.

use redbin::json::Json;
use redbin::sim::bypass::{BypassModel, ResultTiming};
use redbin::sim::{CoreModel, MachineConfig};

/// How many cycles past production the timeline is probed. Every
/// interesting event (bypass slots, conversion, register-file start) in a
/// sane configuration happens within a handful of cycles; 48 leaves a wide
/// margin even with cross-cluster delays and slow conversions.
pub const HORIZON: u64 = 48;

/// A reference production cycle for the probes; only offsets from it
/// matter (the model is time-invariant).
const READY: u64 = 100;

/// One operand class: who produced the value, what the consumer needs,
/// and whether the value crosses a cluster boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandClass {
    /// The producer leaves its result in redundant binary form.
    pub producer_rb: bool,
    /// The consumer requires the 2's-complement form.
    pub need_tc: bool,
    /// Producer and consumer sit in different clusters.
    pub cross_cluster: bool,
}

impl OperandClass {
    /// A short stable label (`"rb->tc local"`, `"tc->any remote"`, …).
    pub fn label(&self) -> String {
        format!(
            "{}->{} {}",
            if self.producer_rb { "rb" } else { "tc" },
            if self.need_tc { "tc" } else { "any" },
            if self.cross_cluster {
                "remote"
            } else {
                "local"
            },
        )
    }
}

/// A gap in availability: `width` consecutive cycles, starting `start`
/// cycles after production, in which the operand exists but nothing can
/// deliver it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hole {
    /// Offset (cycles after the producer's `ready`) of the first
    /// unavailable cycle of the gap.
    pub start: u64,
    /// Number of consecutive unavailable cycles.
    pub width: u64,
}

/// The derived availability timeline of one operand class.
#[derive(Debug, Clone, PartialEq)]
pub struct Reachability {
    /// The operand class.
    pub class: OperandClass,
    /// Offset of the first cycle the operand can be sourced, or `None` if
    /// it is never obtainable (an unsound configuration).
    pub first: Option<u64>,
    /// Offset from which availability is continuous through the end of the
    /// probed horizon *and* in steady state, or `None` if availability
    /// never becomes continuous (e.g. a single discrete slot).
    pub continuous_from: Option<u64>,
    /// Holes between the first available cycle and the continuous tail.
    pub holes: Vec<Hole>,
    /// Which bypass levels (1–3, at index `l-1`) serve at least one cycle.
    pub levels: [bool; 3],
    /// The register file serves at least one probed cycle.
    pub uses_rf: bool,
}

impl Reachability {
    /// `true` if the operand can be sourced at some cycle.
    pub fn reachable(&self) -> bool {
        self.first.is_some()
    }
}

/// The bypass pass result for one machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct BypassAnalysis {
    /// A human-readable description of the analyzed machine.
    pub machine: String,
    /// One timeline per operand class the machine can produce.
    pub entries: Vec<Reachability>,
    /// The union of `levels` across entries: the static support the
    /// dynamic Figure 14 counters must stay inside.
    pub static_levels: [bool; 3],
}

impl BypassAnalysis {
    /// `true` if every operand class is eventually obtainable.
    pub fn sound(&self) -> bool {
        self.entries.iter().all(Reachability::reachable)
    }

    /// The labels of unreachable operand classes (empty iff sound).
    pub fn unreachable(&self) -> Vec<String> {
        self.entries
            .iter()
            .filter(|e| !e.reachable())
            .map(|e| e.class.label())
            .collect()
    }
}

fn machine_label(cfg: &MachineConfig) -> String {
    format!(
        "{:?} w{} bypass={}{}",
        cfg.model,
        cfg.width,
        cfg.bypass.label(),
        if cfg.rb_rf_only { " rb-rf-only" } else { "" }
    )
}

/// Derives the availability timeline for one operand class on `model`.
fn probe(model: &BypassModel, cfg: &MachineConfig, class: OperandClass) -> Reachability {
    let r = ResultTiming {
        ready: READY,
        rb: class.producer_rb,
        tc_ready: READY
            + if class.producer_rb {
                cfg.conversion_latency
            } else {
                0
            },
        cluster: 0,
    };
    let consumer_cluster = usize::from(class.cross_cluster);
    let mut available = Vec::with_capacity(HORIZON as usize);
    let mut levels = [false; 3];
    let mut uses_rf = false;
    for off in 1..=HORIZON {
        let e = READY + off;
        let avail = model.available(&r, class.need_tc, consumer_cluster, e);
        available.push(avail);
        if avail {
            match model.level_used(&r, class.need_tc, consumer_cluster, e) {
                Some(l) => levels[(l - 1) as usize] = true,
                None => uses_rf = true,
            }
        }
    }
    // Steady-state probe far past any discrete slot: does the register
    // file (or an equivalent continuous path) eventually serve this class?
    let steady = model.available(&r, class.need_tc, consumer_cluster, READY + 10_000);

    let first = available
        .iter()
        .position(|&a| a)
        .map(|i| i as u64 + 1)
        .or(if steady { Some(10_000) } else { None });

    // The continuous tail: the last maximal run of `true` reaching the end
    // of the horizon, provided steady-state availability backs it up.
    let continuous_from = if steady {
        let mut from = None;
        for (i, &a) in available.iter().enumerate().rev() {
            if a {
                from = Some(i as u64 + 1);
            } else {
                break;
            }
        }
        from
    } else {
        None
    };

    // Holes: maximal unavailable runs strictly after `first` and before the
    // continuous tail (or the end of the horizon if there is none).
    let mut holes = Vec::new();
    if let Some(f) = first {
        let end = continuous_from.unwrap_or(HORIZON + 1);
        let mut run_start: Option<u64> = None;
        for off in f..end {
            let avail = *available.get(off as usize - 1).unwrap_or(&steady);
            if !avail && run_start.is_none() {
                run_start = Some(off);
            }
            if avail {
                if let Some(s) = run_start.take() {
                    holes.push(Hole {
                        start: s,
                        width: off - s,
                    });
                }
            }
        }
        if let Some(s) = run_start {
            holes.push(Hole {
                start: s,
                width: end - s,
            });
        }
    }

    Reachability {
        class,
        first,
        continuous_from,
        holes,
        levels,
        uses_rf,
    }
}

/// Runs the bypass pass over one machine configuration.
pub fn analyze_config(cfg: &MachineConfig) -> BypassAnalysis {
    let model = BypassModel::new(cfg);
    // Redundant results exist only on the RB machines; probing an rb
    // producer on Baseline/Ideal would ask about a value those datapaths
    // cannot produce.
    let produces_rb = matches!(cfg.model, CoreModel::RbFull | CoreModel::RbLimited);
    let mut entries = Vec::new();
    for producer_rb in [false, true] {
        if producer_rb && !produces_rb {
            continue;
        }
        for need_tc in [false, true] {
            for cross_cluster in [false, true] {
                if cross_cluster && cfg.clusters() <= 1 {
                    continue;
                }
                entries.push(probe(
                    &model,
                    cfg,
                    OperandClass {
                        producer_rb,
                        need_tc,
                        cross_cluster,
                    },
                ));
            }
        }
    }
    let mut static_levels = [false; 3];
    for e in &entries {
        for (level, &reaches) in static_levels.iter_mut().zip(&e.levels) {
            *level |= reaches;
        }
    }
    BypassAnalysis {
        machine: machine_label(cfg),
        entries,
        static_levels,
    }
}

/// The structured rejection `redbin-served` sends for an unsound config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnsoundConfig {
    /// The offending machine.
    pub machine: String,
    /// Labels of the unreachable operand classes.
    pub unreachable: Vec<String>,
}

impl std::fmt::Display for UnsoundConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unsound machine config [{}]: operand class(es) never obtainable: {}",
            self.machine,
            self.unreachable.join(", ")
        )
    }
}

impl std::error::Error for UnsoundConfig {}

/// Validates one machine configuration.
///
/// # Errors
///
/// Returns [`UnsoundConfig`] if some operand class can never be sourced.
pub fn validate_machine(cfg: &MachineConfig) -> Result<BypassAnalysis, UnsoundConfig> {
    let a = analyze_config(cfg);
    if a.sound() {
        Ok(a)
    } else {
        Err(UnsoundConfig {
            machine: a.machine.clone(),
            unreachable: a.unreachable(),
        })
    }
}

/// Validates every machine configuration a job would instantiate — the
/// check `redbin-served` runs at submit time.
///
/// # Errors
///
/// Returns the first [`UnsoundConfig`] found.
pub fn validate_job_configs(configs: &[MachineConfig]) -> Result<(), UnsoundConfig> {
    for cfg in configs {
        validate_machine(cfg)?;
    }
    Ok(())
}

/// Checks the static/dynamic Figure 14 agreement: every bypass level with
/// dynamic uses must be inside the static support.
///
/// # Errors
///
/// Returns a message naming the first level used dynamically but proved
/// statically unreachable.
pub fn check_level_agreement(
    static_levels: [bool; 3],
    dynamic_counts: [u64; 3],
) -> Result<(), String> {
    for (l, &n) in dynamic_counts.iter().enumerate() {
        if n > 0 && !static_levels[l] {
            return Err(format!(
                "bypass level {} served {n} operand(s) dynamically but is statically unreachable",
                l + 1
            ));
        }
    }
    Ok(())
}

/// Every machine configuration the shipped experiments instantiate, plus
/// the four base machines at both widths — the set the CI gate validates.
pub fn shipped_configs() -> Vec<MachineConfig> {
    use redbin::wire::{ExperimentKind, JobSpec};
    use redbin::workload::Scale;
    let mut out: Vec<MachineConfig> = Vec::new();
    for width in [4usize, 8] {
        for &m in CoreModel::all() {
            out.push(MachineConfig::new(m, width));
        }
    }
    for &kind in ExperimentKind::all() {
        for cfg in JobSpec::new(kind, Scale::Test).machine_configs() {
            if !out.contains(&cfg) {
                out.push(cfg);
            }
        }
    }
    out
}

/// The full bypass pass: every shipped configuration analyzed.
#[derive(Debug, Clone, PartialEq)]
pub struct BypassPass {
    /// One analysis per configuration.
    pub analyses: Vec<BypassAnalysis>,
}

impl BypassPass {
    /// `true` if every shipped configuration is sound.
    pub fn clean(&self) -> bool {
        self.analyses.iter().all(BypassAnalysis::sound)
    }
}

/// Runs the bypass pass over [`shipped_configs`].
pub fn run() -> BypassPass {
    BypassPass {
        analyses: shipped_configs().iter().map(analyze_config).collect(),
    }
}

/// Renders one analysis as JSON.
pub fn analysis_json(a: &BypassAnalysis) -> Json {
    let mut o = Json::object();
    o.set("machine", Json::Str(a.machine.clone()));
    o.set("sound", Json::Bool(a.sound()));
    o.set(
        "static-levels",
        Json::Arr(a.static_levels.iter().map(|&b| Json::Bool(b)).collect()),
    );
    let entries = a
        .entries
        .iter()
        .map(|e| {
            let mut eo = Json::object();
            eo.set("class", Json::Str(e.class.label()));
            eo.set("first", e.first.map_or(Json::Null, Json::UInt));
            eo.set(
                "continuous-from",
                e.continuous_from.map_or(Json::Null, Json::UInt),
            );
            eo.set(
                "holes",
                Json::Arr(
                    e.holes
                        .iter()
                        .map(|h| {
                            let mut ho = Json::object();
                            ho.set("start", Json::UInt(h.start));
                            ho.set("width", Json::UInt(h.width));
                            ho
                        })
                        .collect(),
                ),
            );
            eo.set(
                "levels",
                Json::Arr(e.levels.iter().map(|&b| Json::Bool(b)).collect()),
            );
            eo.set("register-file", Json::Bool(e.uses_rf));
            eo
        })
        .collect();
    o.set("classes", Json::Arr(entries));
    o
}

/// Renders the whole pass as JSON.
pub fn to_json(p: &BypassPass) -> Json {
    let mut o = Json::object();
    o.set("pass", Json::Str("bypass".into()));
    o.set("clean", Json::Bool(p.clean()));
    o.set(
        "machines",
        Json::Arr(p.analyses.iter().map(analysis_json).collect()),
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin::sim::BypassLevels;

    #[test]
    fn shipped_configs_are_all_sound() {
        let p = run();
        assert!(!p.analyses.is_empty());
        for a in &p.analyses {
            assert!(
                a.sound(),
                "{} unreachable: {:?}",
                a.machine,
                a.unreachable()
            );
        }
    }

    #[test]
    fn ideal_machine_has_full_support_and_no_holes() {
        let a = analyze_config(&MachineConfig::ideal(4));
        assert!(a.sound());
        assert_eq!(a.static_levels, [true, true, true]);
        for e in &a.entries {
            assert_eq!(e.first, Some(1), "{}", e.class.label());
            assert!(e.holes.is_empty(), "{}: {:?}", e.class.label(), e.holes);
            assert_eq!(e.continuous_from, Some(1));
        }
    }

    #[test]
    fn rb_limited_exposes_the_section42_hole() {
        let a = analyze_config(&MachineConfig::rb_limited(4));
        assert!(a.sound());
        let rb_rb = a
            .entries
            .iter()
            .find(|e| e.class.producer_rb && !e.class.need_tc && !e.class.cross_cluster)
            .expect("rb->any local class");
        assert_eq!(rb_rb.first, Some(1));
        // BYP-1 at +1, then the §4.2 two-cycle hole, then the RF at +4.
        assert_eq!(rb_rb.holes, vec![Hole { start: 2, width: 2 }]);
        assert_eq!(rb_rb.continuous_from, Some(4));
        assert!(rb_rb.levels[0] && !rb_rb.levels[1]);
    }

    #[test]
    fn figure14_removed_levels_show_up_as_holes() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[2]));
        let a = analyze_config(&cfg);
        assert!(a.sound());
        assert_eq!(a.static_levels, [true, false, true]);
        let e = &a.entries[0];
        assert_eq!(e.holes, vec![Hole { start: 2, width: 1 }]);
    }

    #[test]
    fn rb_rf_only_without_byp3_is_rejected() {
        let cfg = MachineConfig::rb_full(4)
            .with_rb_rf_only()
            .with_bypass(BypassLevels::without(&[3]));
        let err = validate_machine(&cfg).expect_err("must be unsound");
        assert_eq!(err.unreachable, vec!["rb->tc local".to_string()]);
        assert!(err.to_string().contains("never obtainable"));
        assert!(validate_job_configs(&[MachineConfig::ideal(4), cfg]).is_err());
    }

    #[test]
    fn rb_rf_only_with_byp3_is_sound_but_slot_limited() {
        let cfg = MachineConfig::rb_full(4).with_rb_rf_only();
        let a = validate_machine(&cfg).expect("sound");
        let e = a
            .entries
            .iter()
            .find(|e| e.class.producer_rb && e.class.need_tc && !e.class.cross_cluster)
            .expect("rb->tc local class");
        // One discrete post-conversion slot, then unavailable forever.
        assert_eq!(e.first, Some(cfg.conversion_latency + 1));
        assert_eq!(e.continuous_from, None);
        assert!(!e.uses_rf);
        assert_eq!(e.levels, [false, false, true]);
    }

    #[test]
    fn level_agreement_rejects_unsupported_use() {
        assert!(check_level_agreement([true, true, true], [5, 0, 2]).is_ok());
        assert!(check_level_agreement([true, false, true], [5, 0, 2]).is_ok());
        let err = check_level_agreement([true, false, true], [0, 1, 0]).expect_err("level 2");
        assert!(err.contains("level 2"));
    }

    #[test]
    fn cross_cluster_classes_are_probed_on_wide_machines() {
        let a = analyze_config(&MachineConfig::ideal(8));
        assert!(a.entries.iter().any(|e| e.class.cross_cluster));
        // The +1 forwarding delay shifts first availability.
        let remote = a
            .entries
            .iter()
            .find(|e| e.class.cross_cluster && !e.class.need_tc)
            .expect("remote class");
        assert_eq!(remote.first, Some(2));
    }
}
