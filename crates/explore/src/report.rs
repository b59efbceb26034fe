//! Rendering an [`ExploreOutcome`] as a JSON document and as the ASCII
//! frontier table the CLI prints.
//!
//! The JSON document is deliberately wall-clock-free and fully ordered,
//! so the same grid always renders byte-identically — that is what lets
//! `tests/golden/explore_frontier_test.json` pin a whole exploration.

use std::fmt::Write as _;

use redbin::json::{self, Json};

use crate::{EvaluatedPoint, ExploreOutcome};

/// Simulated IPC as a percentage of the point's static dataflow limit.
fn pct_of_bound(ep: &EvaluatedPoint) -> f64 {
    if ep.bound_ipc > 0.0 {
        100.0 * ep.ipc / ep.bound_ipc
    } else {
        0.0
    }
}

fn point_json(ep: &EvaluatedPoint, on_frontier: bool) -> Json {
    let mut o = Json::object();
    o.set("label", Json::Str(ep.point.label()));
    o.set("job", Json::Str(ep.job_id.clone()));
    o.set("model", Json::Str(ep.point.model.name().to_string()));
    o.set("width", Json::UInt(ep.point.width as u64));
    o.set("bypass", Json::Str(ep.point.bypass.label()));
    o.set("steering", Json::Str(ep.point.steering.name().to_string()));
    o.set("rb-rf-only", Json::Bool(ep.point.rb_rf_only));
    o.set("delay-model", Json::Str(ep.point.delay.name()));
    o.set("hmean-ipc", Json::Num(ep.ipc));
    o.set("bound-ipc", Json::Num(ep.bound_ipc));
    o.set("pct-of-bound", Json::Num(pct_of_bound(ep)));
    o.set("delay", Json::Num(ep.delay));
    o.set("frontier", Json::Bool(on_frontier));
    o
}

/// The full exploration report as a JSON document.
pub fn to_json(out: &ExploreOutcome) -> Json {
    let mut doc = Json::object();
    doc.set("grid", out.grid.to_json());
    doc.set("enumerated", Json::UInt(out.prune.total() as u64));
    let mut pruned = Json::object();
    pruned.set("count", Json::UInt(out.prune.pruned.len() as u64));
    pruned.set("reasons", out.prune.reasons_json());
    doc.set("pruned", pruned);
    doc.set("sound", Json::UInt(out.prune.sound.len() as u64));
    doc.set("unique-sims", Json::UInt(out.unique_sims as u64));
    doc.set("cache-hits", Json::UInt(out.cache_hits));
    doc.set(
        "points",
        Json::Arr(
            out.evaluated
                .iter()
                .enumerate()
                .map(|(i, ep)| point_json(ep, out.frontier.contains(&i)))
                .collect(),
        ),
    );
    doc.set(
        "frontier",
        Json::Arr(
            out.frontier
                .iter()
                .map(|&i| point_json(&out.evaluated[i], true))
                .collect(),
        ),
    );
    doc.set("metrics", json::metrics(&out.metrics));
    doc
}

/// The human-readable report: pruning summary plus the frontier table,
/// delay ascending (each successive row buys IPC with delay).
pub fn render_text(out: &ExploreOutcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Design-space exploration: IPC vs adder delay");
    let _ = writeln!(
        s,
        "enumerated {}  pruned {}  sound {}  unique sims {}  simulated {}  cache hits {}",
        out.prune.total(),
        out.prune.pruned.len(),
        out.prune.sound.len(),
        out.unique_sims,
        out.metrics.counter("explore.sims.run"),
        out.cache_hits,
    );
    if !out.prune.reasons.is_empty() {
        let _ = writeln!(s, "pruned by unreachable operand class:");
        for (label, count) in &out.prune.reasons {
            let _ = writeln!(s, "  {label:<16} {count}");
        }
    }
    let _ = writeln!(s, "Pareto frontier ({} points):", out.frontier.len());
    let _ = writeln!(
        s,
        "{:>10} {:>5} {:>8} {:>16} {:>10} {:>6} {:>9} {:>7} {:>7} {:>7}",
        "model",
        "width",
        "bypass",
        "steering",
        "rb-rf-only",
        "delay",
        "adder",
        "h-mean",
        "bound",
        "%limit"
    );
    for &i in &out.frontier {
        let ep = &out.evaluated[i];
        let _ = writeln!(
            s,
            "{:>10} {:>5} {:>8} {:>16} {:>10} {:>6} {:>9.2} {:>7.3} {:>7.3} {:>6.1}%",
            ep.point.model.name(),
            ep.point.width,
            ep.point.bypass.label(),
            ep.point.steering.name(),
            if ep.point.rb_rf_only { "yes" } else { "no" },
            ep.point.delay.name(),
            ep.delay,
            ep.ipc,
            ep.bound_ipc,
            pct_of_bound(ep),
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::Backend;
    use crate::grid::GridSpec;

    #[test]
    fn report_is_deterministic_and_well_formed() {
        let grid = GridSpec::golden_small();
        let backend = Backend::Local {
            threads: 0,
            reference: false,
        };
        let a = crate::explore(&grid, &backend).unwrap();
        let b = crate::explore(&grid, &backend).unwrap();
        assert_eq!(to_json(&a).to_pretty(), to_json(&b).to_pretty());

        let doc = to_json(&a);
        // The pretty form reparses to the same document.
        let reparsed = json::parse(&doc.to_pretty()).expect("valid JSON");
        assert_eq!(reparsed.to_pretty(), doc.to_pretty());
        assert_eq!(doc.get("enumerated").and_then(Json::as_u64), Some(8));
        let frontier = doc.get("frontier").and_then(Json::as_array).unwrap();
        assert!(!frontier.is_empty());

        let text = render_text(&a);
        assert!(text.contains("Pareto frontier"));
        assert!(text.contains("h-mean"));
        assert!(text.contains("%limit"));
        let points = doc.get("points").and_then(Json::as_array).unwrap();
        for p in points {
            let ipc = p.get("hmean-ipc").and_then(Json::as_f64).unwrap();
            let bound = p.get("bound-ipc").and_then(Json::as_f64).unwrap();
            let pct = p.get("pct-of-bound").and_then(Json::as_f64).unwrap();
            assert!(ipc <= bound + 1e-9, "simulated IPC beats its limit");
            assert!((0.0..=100.0 + 1e-6).contains(&pct));
        }
    }
}
