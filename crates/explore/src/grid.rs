//! The declarative grid specification and its enumeration.
//!
//! A [`GridSpec`] is a cross product over the design axes the paper (and
//! its §4.2 future-work section) exposes: machine width, core model,
//! bypass ablation, scheduler steering, the `rb_rf_only` escape hatch,
//! and the gate-level delay model used for the frontier's delay axis.
//! Every combination becomes one [`GridPoint`]; points that share a
//! simulation identity (the delay model never affects simulated IPC)
//! collapse onto one content-addressed [`JobSpec`], which is what makes
//! re-running a grid against `redbin-served` incremental.

use redbin::json::Json;
use redbin::sim::{BypassLevels, CoreModel, MachineConfig, SteeringPolicy};
use redbin::wire::{JobSpec, PointSpec, PointSuite};
use redbin::workload::Scale;

use crate::delay::DelayModelSpec;

/// A declarative grid: the cross product of every listed axis value.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Machine widths (4 and/or 8).
    pub widths: Vec<usize>,
    /// Core models.
    pub models: Vec<CoreModel>,
    /// Bypass-level configurations (Figure 14 ablations).
    pub bypass: Vec<BypassLevels>,
    /// Scheduler steering policies.
    pub steering: Vec<SteeringPolicy>,
    /// Whether to sweep the RB-register-file-only escape hatch.
    pub rb_rf_only: Vec<bool>,
    /// Gate-level delay models for the frontier's delay axis.
    pub delay_models: Vec<DelayModelSpec>,
    /// The benchmark set every point simulates.
    pub suite: PointSuite,
    /// Workload scale.
    pub scale: Scale,
}

impl Default for GridSpec {
    /// The full default grid: 2 widths x 4 models x 7 bypass configs x
    /// 2 steering policies x 2 rb-rf-only settings x 2 delay models =
    /// 448 points, of which the §4.2 pathology prunes 64 before any
    /// simulation is spent.
    fn default() -> Self {
        GridSpec {
            widths: vec![4, 8],
            models: CoreModel::all().to_vec(),
            bypass: vec![
                BypassLevels::FULL,
                BypassLevels::without(&[1]),
                BypassLevels::without(&[2]),
                BypassLevels::without(&[3]),
                BypassLevels::without(&[1, 2]),
                BypassLevels::without(&[2, 3]),
                BypassLevels::without(&[1, 2, 3]),
            ],
            steering: SteeringPolicy::all().to_vec(),
            rb_rf_only: vec![false, true],
            delay_models: vec![DelayModelSpec::UnitGate, DelayModelSpec::FanoutAware(0.2)],
            suite: PointSuite::Quick,
            scale: Scale::Test,
        }
    }
}

impl GridSpec {
    /// The small fixed grid behind the pinned golden frontier snapshot
    /// (`tests/golden/explore_frontier_test.json`): the four models at
    /// width 8 under `Full` and `No-2` bypass, unit-gate delay.
    pub fn golden_small() -> Self {
        GridSpec {
            widths: vec![8],
            models: CoreModel::all().to_vec(),
            bypass: vec![BypassLevels::FULL, BypassLevels::without(&[2])],
            steering: vec![SteeringPolicy::RoundRobinPairs],
            rb_rf_only: vec![false],
            delay_models: vec![DelayModelSpec::UnitGate],
            suite: PointSuite::Quick,
            scale: Scale::Test,
        }
    }

    /// The number of points [`enumerate`](Self::enumerate) will yield.
    pub fn size(&self) -> usize {
        self.models.len()
            * self.widths.len()
            * self.bypass.len()
            * self.steering.len()
            * self.rb_rf_only.len()
            * self.delay_models.len()
    }

    /// Enumerates every point of the grid in a deterministic nested order
    /// (model, width, bypass, steering, rb-rf-only, delay model — the
    /// delay axis innermost, so points sharing a simulation identity are
    /// adjacent).
    pub fn enumerate(&self) -> Vec<GridPoint> {
        let mut out = Vec::with_capacity(self.size());
        for &model in &self.models {
            for &width in &self.widths {
                for &bypass in &self.bypass {
                    for &steering in &self.steering {
                        for &rb_rf_only in &self.rb_rf_only {
                            for &delay in &self.delay_models {
                                out.push(GridPoint {
                                    model,
                                    width,
                                    bypass,
                                    steering,
                                    rb_rf_only,
                                    delay,
                                });
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Serializes the grid for the report document.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set(
            "widths",
            Json::Arr(self.widths.iter().map(|&w| Json::UInt(w as u64)).collect()),
        );
        o.set(
            "models",
            Json::Arr(
                self.models
                    .iter()
                    .map(|m| Json::Str(m.wire_name().to_string()))
                    .collect(),
            ),
        );
        o.set(
            "bypass",
            Json::Arr(self.bypass.iter().map(|b| Json::Str(b.label())).collect()),
        );
        o.set(
            "steering",
            Json::Arr(
                self.steering
                    .iter()
                    .map(|s| Json::Str(s.name().to_string()))
                    .collect(),
            ),
        );
        o.set(
            "rb-rf-only",
            Json::Arr(self.rb_rf_only.iter().map(|&b| Json::Bool(b)).collect()),
        );
        o.set(
            "delay-models",
            Json::Arr(
                self.delay_models
                    .iter()
                    .map(|d| Json::Str(d.name()))
                    .collect(),
            ),
        );
        o.set("suite", Json::Str(self.suite.name().to_string()));
        o.set("scale", Json::Str(self.scale.name().to_string()));
        o
    }

    /// Decodes a grid from a JSON spec document. Every key is optional
    /// and defaults to the corresponding axis of [`GridSpec::default`];
    /// unknown values are rejected, never guessed at.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending key/value.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let mut spec = GridSpec::default();
        let str_items = |v: &Json, key: &str| -> Result<Option<Vec<String>>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(Json::Arr(items)) => {
                    let mut out = Vec::with_capacity(items.len());
                    for item in items {
                        match item.as_str() {
                            Some(s) => out.push(s.to_string()),
                            None => return Err(format!("`{key}` entries must be strings")),
                        }
                    }
                    Ok(Some(out))
                }
                Some(_) => Err(format!("`{key}` must be an array")),
            }
        };
        if let Some(ws) = v.get("widths") {
            let items = ws
                .as_array()
                .ok_or_else(|| "`widths` must be an array".to_string())?;
            let mut widths = Vec::with_capacity(items.len());
            for item in items {
                let w = item
                    .as_u64()
                    .ok_or_else(|| "`widths` entries must be integers".to_string())?
                    as usize;
                // Which widths exist does not depend on the model.
                MachineConfig::try_new(CoreModel::Baseline, w).map_err(|e| e.to_string())?;
                widths.push(w);
            }
            spec.widths = widths;
        }
        if let Some(names) = str_items(v, "models")? {
            spec.models = names
                .iter()
                .map(|n| CoreModel::from_wire_name(n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(labels) = str_items(v, "bypass")? {
            spec.bypass = labels
                .iter()
                .map(|l| BypassLevels::from_label(l))
                .collect::<Result<_, _>>()?;
        }
        if let Some(names) = str_items(v, "steering")? {
            spec.steering = names
                .iter()
                .map(|n| SteeringPolicy::from_name(n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(flags) = v.get("rb-rf-only") {
            let items = flags
                .as_array()
                .ok_or_else(|| "`rb-rf-only` must be an array".to_string())?;
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Json::Bool(b) => out.push(*b),
                    _ => return Err("`rb-rf-only` entries must be booleans".to_string()),
                }
            }
            spec.rb_rf_only = out;
        }
        if let Some(names) = str_items(v, "delay-models")? {
            spec.delay_models = names
                .iter()
                .map(|n| DelayModelSpec::from_name(n))
                .collect::<Result<_, _>>()?;
        }
        if let Some(s) = v.get("suite") {
            let name = s
                .as_str()
                .ok_or_else(|| "`suite` must be a string".to_string())?;
            spec.suite = PointSuite::from_name(name)?;
        }
        if let Some(s) = v.get("scale") {
            let name = s
                .as_str()
                .ok_or_else(|| "`scale` must be a string".to_string())?;
            spec.scale = Scale::from_name(name)?;
        }
        for axis in [
            ("widths", spec.widths.is_empty()),
            ("models", spec.models.is_empty()),
            ("bypass", spec.bypass.is_empty()),
            ("steering", spec.steering.is_empty()),
            ("rb-rf-only", spec.rb_rf_only.is_empty()),
            ("delay-models", spec.delay_models.is_empty()),
        ] {
            if axis.1 {
                return Err(format!("axis `{}` must not be empty", axis.0));
            }
        }
        Ok(spec)
    }
}

/// One point of the grid: a machine configuration plus the delay model
/// that prices its adder on the frontier's delay axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// The §5.1 core model.
    pub model: CoreModel,
    /// Machine width.
    pub width: usize,
    /// Bypass-level configuration.
    pub bypass: BypassLevels,
    /// Scheduler steering policy.
    pub steering: SteeringPolicy,
    /// The RB-register-file-only escape hatch.
    pub rb_rf_only: bool,
    /// The delay model pricing this point's adder.
    pub delay: DelayModelSpec,
}

impl GridPoint {
    /// A compact human-readable label for tables and logs.
    pub fn label(&self) -> String {
        format!(
            "{} w{} {} {}{} {}",
            self.model.name(),
            self.width,
            self.bypass.label(),
            self.steering.name(),
            if self.rb_rf_only { " rb-rf-only" } else { "" },
            self.delay.name(),
        )
    }

    /// Builds the machine this point describes — the same configuration
    /// the point's [`JobSpec`] resolves to on a server.
    ///
    /// # Errors
    ///
    /// Returns a message if the width is structurally invalid (only
    /// possible when a [`GridSpec`] is constructed by hand, bypassing
    /// the validated decode paths).
    pub fn machine(&self) -> Result<MachineConfig, String> {
        let mut cfg = MachineConfig::try_new(self.model, self.width)
            .map_err(|e| e.to_string())?
            .with_bypass(self.bypass)
            .with_steering(self.steering);
        if self.rb_rf_only {
            cfg = cfg.with_rb_rf_only();
        }
        Ok(cfg)
    }

    /// The content-addressed job this point's simulation resolves to.
    /// The delay model is deliberately absent — it cannot affect
    /// simulated IPC, so pricing the same machine under several delay
    /// models reuses one cached result.
    pub fn job_spec(&self, suite: PointSuite, scale: Scale) -> JobSpec {
        let mut spec = JobSpec::point(
            PointSpec {
                model: self.model,
                width: self.width,
                steering: self.steering,
                suite,
            },
            scale,
        );
        // Normalize: a full network is the machine default, so folding it
        // as an override would split the cache key for no reason.
        if self.bypass != BypassLevels::FULL {
            spec = spec.with_bypass(self.bypass);
        }
        if self.rb_rf_only {
            spec = spec.with_rb_rf_only();
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redbin::json;

    #[test]
    fn default_grid_is_large_and_deterministic() {
        let spec = GridSpec::default();
        assert_eq!(spec.size(), 448);
        let points = spec.enumerate();
        assert_eq!(points.len(), 448);
        assert_eq!(points, spec.enumerate());
        // The delay axis is innermost: adjacent points share a sim key.
        assert_eq!(
            points[0].job_spec(spec.suite, spec.scale).job_id(),
            points[1].job_spec(spec.suite, spec.scale).job_id()
        );
        assert_ne!(points[0].delay.name(), points[1].delay.name());
    }

    #[test]
    fn golden_small_grid_shape() {
        let spec = GridSpec::golden_small();
        assert_eq!(spec.size(), 8);
        for p in spec.enumerate() {
            assert!(p.machine().is_ok());
        }
    }

    #[test]
    fn full_bypass_does_not_split_the_cache_key() {
        let spec = GridSpec::golden_small();
        let full = spec
            .enumerate()
            .into_iter()
            .find(|p| p.bypass == BypassLevels::FULL)
            .unwrap();
        let job = full.job_spec(spec.suite, spec.scale);
        assert_eq!(job.bypass, None, "Full folds as the default");
        assert!(!job.rb_rf_only);
    }

    #[test]
    fn json_roundtrip_and_strictness() {
        let spec = GridSpec::default();
        let back = GridSpec::from_json(&spec.to_json()).expect("roundtrips");
        assert_eq!(back, spec);

        let small = json::parse(
            r#"{"widths":[8],"models":["ideal"],"bypass":["No-2"],
                "steering":["dependence-aware"],"rb-rf-only":[false],
                "delay-models":["fanout-0.25"],"suite":"spec95","scale":"small"}"#,
        )
        .unwrap();
        let g = GridSpec::from_json(&small).expect("parses");
        assert_eq!(g.size(), 1);
        assert_eq!(g.models, vec![CoreModel::Ideal]);
        assert_eq!(g.scale, Scale::Small);

        for bad in [
            r#"{"widths":[6]}"#,
            r#"{"models":["pentium"]}"#,
            r#"{"bypass":["No-4"]}"#,
            r#"{"steering":["static"]}"#,
            r#"{"delay-models":["quantum"]}"#,
            r#"{"suite":"huge"}"#,
            r#"{"models":[]}"#,
        ] {
            let doc = json::parse(bad).unwrap();
            assert!(GridSpec::from_json(&doc).is_err(), "{bad} must be rejected");
        }
    }
}
