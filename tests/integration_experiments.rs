//! The experiment drivers end-to-end at test scale: every figure's code
//! path produces structurally valid results with the paper's shape.

use redbin::experiments::{self, ExperimentConfig};
use redbin::prelude::*;
use redbin::report;
use redbin::sim::stats::BypassCase;

fn cfg() -> ExperimentConfig {
    ExperimentConfig::quick()
}

#[test]
fn figures_9_to_12_produce_full_grids() {
    let fig = experiments::figure_ipc(8, Suite::Spec95, &cfg());
    assert_eq!(fig.rows.len(), 8);
    for row in &fig.rows {
        for m in 0..4 {
            assert!(row.ipc[m] > 0.0, "{:?} model {m}", row.benchmark);
        }
    }
    let rendered = report::render_ipc_figure(&fig, "Figure 10.");
    assert!(rendered.contains("h-mean"));
}

#[test]
fn figure13_distribution_shape() {
    let fig = experiments::figure13(&cfg());
    assert_eq!(fig.rows.len(), 12);
    for (b, cases, frac) in &fig.rows {
        assert!(*frac > 0.05 && *frac < 1.0, "{b:?}: bypass fraction {frac}");
        if cases.total() == 0 {
            continue;
        }
        let sum: f64 = BypassCase::all().iter().map(|c| cases.fraction(*c)).sum();
        assert!((sum - 1.0).abs() < 1e-9, "{b:?}: fractions must sum to 1");
    }
    // The paper's key observation: most last-arriving operands come from
    // loads (TC producers), so RB→TC conversions are rarely critical.
    let total_conversion: u64 = fig
        .rows
        .iter()
        .map(|(_, c, _)| c.count(BypassCase::RbToTc))
        .sum();
    let total: u64 = fig.rows.iter().map(|(_, c, _)| c.total()).sum();
    assert!(
        (total_conversion as f64) < 0.35 * total as f64,
        "conversions should be a minority of critical bypasses: {total_conversion}/{total}"
    );
}

#[test]
fn figure14_holes_cost_but_do_not_cripple() {
    let fig = experiments::figure14(&cfg());
    assert_eq!(fig.rows.len(), 6);
    assert_eq!(fig.rows[0].label, "Full");
    let full = &fig.rows[0];
    for row in &fig.rows[1..] {
        assert!(
            row.hmean_w4 <= full.hmean_w4 * 1.005 && row.hmean_w8 <= full.hmean_w8 * 1.005,
            "{}: limited bypass must not beat full",
            row.label
        );
        assert!(
            row.hmean_w4 > 0.5 * full.hmean_w4,
            "{}: losing a bypass level must not halve IPC",
            row.label
        );
    }
    // No-1 is the worst single-level removal (first level most used).
    let by_label = |l: &str| fig.rows.iter().find(|r| r.label == l).unwrap();
    assert!(by_label("No-1").hmean_w8 <= by_label("No-2").hmean_w8 * 1.005);
    assert!(by_label("No-1").hmean_w8 <= by_label("No-3").hmean_w8 * 1.005);
    // And removing two levels is no better than removing one of them.
    assert!(by_label("No-1,2").hmean_w8 <= by_label("No-1").hmean_w8 * 1.005);
    assert!(by_label("No-2,3").hmean_w8 <= by_label("No-2").hmean_w8 * 1.005);
}

#[test]
fn delay_report_reproduces_section_3_4() {
    let rep = experiments::delay_report();
    let r64 = rep.row(64).expect("64-bit row");
    assert!(r64.cla_over_rb() >= 2.0, "CLA/RB {}", r64.cla_over_rb());
    assert!(r64.converter_over_rb() >= 2.0);
    let r8 = rep.row(8).expect("8-bit row");
    assert_eq!(r8.rb, r64.rb, "redundant adder depth is width-independent");
}

#[test]
fn ablation_sweeps_are_monotonic_where_expected() {
    let c = cfg();
    // Cheaper conversions help (weakly).
    let conv = experiments::conversion_sweep(&c, &[1, 3]);
    assert!(conv[0].1 >= conv[1].1 * 0.995, "conv sweep: {conv:?}");
    // A bigger window helps (weakly).
    let win = experiments::window_sweep(&c, &[32, 128]);
    assert!(win[1].1 >= win[0].1 * 0.995, "window sweep: {win:?}");
    // A slower inter-cluster network hurts (weakly).
    let cluster = experiments::cluster_sweep(&c, &[0, 1, 3]);
    for pair in cluster.windows(2) {
        assert!(pair[1].1 <= pair[0].1 * 1.005, "cluster sweep: {cluster:?}");
    }
}

#[test]
fn steering_comparison_covers_both_policies_at_both_widths() {
    let rows = experiments::steering_comparison(&cfg());
    let shape: Vec<(&str, usize)> = rows.iter().map(|&(name, width, _)| (name, width)).collect();
    assert_eq!(
        shape,
        [
            ("round-robin pairs", 4),
            ("round-robin pairs", 8),
            ("dependence-aware", 4),
            ("dependence-aware", 8),
        ]
    );
    for (name, width, hm) in &rows {
        assert!(hm.is_finite() && *hm > 0.0, "{name} w{width}: h-mean {hm}");
    }
}
