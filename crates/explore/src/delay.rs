//! The frontier's delay axis: pricing each core model's adder with the
//! gate-level netlists from `redbin-gates`.
//!
//! The paper's argument is that the RB core buys its IPC back in cycle
//! time: a redundant-binary adder has O(1) carry depth where the
//! conventional core needs a full-width (or staggered) two's-complement
//! adder. The explorer prices every grid point's 64-bit adder under a
//! chosen [`DelayModel`] and uses that critical path as the delay axis
//! of the Pareto frontier.

use redbin::gates::adders::{carry_lookahead, rb_adder};
use redbin::gates::staggered::StaggeredAdder;
use redbin::gates::DelayModel;
use redbin::sim::CoreModel;

/// A serializable choice of gate-delay model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModelSpec {
    /// Every gate costs one unit regardless of fanout.
    UnitGate,
    /// Gate cost grows with fanout: `1 + load_factor * (fanout - 1)`.
    FanoutAware(f64),
}

impl DelayModelSpec {
    /// The wire/CLI name: `unit` or `fanout-<load>`.
    pub fn name(&self) -> String {
        match self {
            DelayModelSpec::UnitGate => "unit".to_string(),
            DelayModelSpec::FanoutAware(load) => format!("fanout-{load}"),
        }
    }

    /// Parses a name produced by [`name`](Self::name).
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names or unparsable load factors.
    pub fn from_name(name: &str) -> Result<Self, String> {
        if name == "unit" {
            return Ok(DelayModelSpec::UnitGate);
        }
        if let Some(load) = name.strip_prefix("fanout-") {
            let load: f64 = load
                .parse()
                .map_err(|_| format!("bad fanout load factor in `{name}`"))?;
            if !load.is_finite() || load < 0.0 {
                return Err(format!(
                    "fanout load factor must be finite and >= 0, got `{name}`"
                ));
            }
            return Ok(DelayModelSpec::FanoutAware(load));
        }
        Err(format!(
            "unknown delay model `{name}` (expected `unit` or `fanout-<load>`)"
        ))
    }

    /// The `redbin-gates` model this spec describes.
    pub fn model(&self) -> DelayModel {
        match *self {
            DelayModelSpec::UnitGate => DelayModel::UnitGate,
            DelayModelSpec::FanoutAware(load) => DelayModel::FanoutAware { load_factor: load },
        }
    }
}

/// Word width every adder is priced at. The simulated datapath is
/// 64-bit, so the frontier prices full-width execution.
pub const ADDER_BITS: usize = 64;

/// The critical-path delay (in gate units under `spec`) of the adder
/// each core model commits results through:
///
/// * `Baseline` — a two-part staggered two's-complement adder, the
///   Pentium-4-style structure the paper's conventional core assumes.
/// * `RbLimited` / `RbFull` — the constant-depth redundant-binary adder.
/// * `Ideal` — a full-width carry-lookahead (Brent–Kung) adder: the
///   no-redundancy oracle still has to resolve carries.
pub fn adder_delay(model: CoreModel, spec: DelayModelSpec) -> f64 {
    let dm = spec.model();
    match model {
        CoreModel::Baseline => StaggeredAdder::new(ADDER_BITS, 2).stage_critical_path(dm),
        CoreModel::RbLimited | CoreModel::RbFull => {
            rb_adder(ADDER_BITS).netlist().critical_path(dm)
        }
        CoreModel::Ideal => carry_lookahead(ADDER_BITS).netlist().critical_path(dm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for spec in [
            DelayModelSpec::UnitGate,
            DelayModelSpec::FanoutAware(0.2),
            DelayModelSpec::FanoutAware(1.5),
        ] {
            assert_eq!(DelayModelSpec::from_name(&spec.name()).unwrap(), spec);
        }
        assert!(DelayModelSpec::from_name("quantum").is_err());
        assert!(DelayModelSpec::from_name("fanout-x").is_err());
        assert!(DelayModelSpec::from_name("fanout--1").is_err());
    }

    #[test]
    fn rb_adder_is_fastest_and_staggered_beats_flat_lookahead_per_stage() {
        for spec in [DelayModelSpec::UnitGate, DelayModelSpec::FanoutAware(0.2)] {
            let rb = adder_delay(CoreModel::RbFull, spec);
            let base = adder_delay(CoreModel::Baseline, spec);
            let ideal = adder_delay(CoreModel::Ideal, spec);
            assert!(rb < base, "RB must beat the staggered adder ({spec:?})");
            assert!(rb < ideal, "RB must beat carry-lookahead ({spec:?})");
            assert_eq!(
                adder_delay(CoreModel::RbLimited, spec),
                adder_delay(CoreModel::RbFull, spec),
                "both RB cores share one adder"
            );
        }
    }
}
