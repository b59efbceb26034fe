//! Plain-text rendering of experiment results — the same rows/series the
//! paper's tables and figures report.

use std::fmt::Write as _;

use redbin_isa::format::{Table1Counts, Table1Row};
use redbin_sim::stats::BypassCase;
use redbin_sim::CoreModel;
use redbin_workload::Benchmark;

use crate::experiments::{Figure13, Figure14, IpcFigure, ProgramsReport, Table3Row};

/// Renders a Figure 9–12 style table: one row per benchmark, one column per
/// machine, harmonic means at the bottom, plus the paper's headline ratios.
pub fn render_ipc_figure(fig: &IpcFigure, title: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = writeln!(out, "{}-wide machines, {}", fig.width, fig.suite);
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>11} {:>9} {:>8}",
        "benchmark", "Baseline", "RB-limited", "RB-full", "Ideal"
    );
    for row in &fig.rows {
        let _ = writeln!(
            out,
            "{:>10} {:>10.3} {:>11.3} {:>9.3} {:>8.3}",
            row.benchmark.name(),
            row.ipc[0],
            row.ipc[1],
            row.ipc[2],
            row.ipc[3]
        );
    }
    let hm = fig.harmonic_means();
    let _ = writeln!(
        out,
        "{:>10} {:>10.3} {:>11.3} {:>9.3} {:>8.3}",
        "h-mean", hm[0], hm[1], hm[2], hm[3]
    );
    let (gain, vs_ideal, lim_cost) = fig.headline_ratios();
    let _ = writeln!(
        out,
        "RB-full vs Baseline: {:+.1}%   RB-full vs Ideal: -{:.1}%   RB-limited vs RB-full: -{:.1}%",
        gain * 100.0,
        vs_ideal * 100.0,
        lim_cost * 100.0
    );
    out
}

/// Renders the whole-program suite: one row per program, one IPC column
/// per machine, with the emulator-verified checksum alongside.
pub fn render_programs(rep: &ProgramsReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Whole-program suite (emulator-verified).");
    let _ = writeln!(out, "{}-wide machines", rep.width);
    let _ = writeln!(
        out,
        "{:>10} {:>10} {:>11} {:>9} {:>8}  {:>16}",
        "program", "Baseline", "RB-limited", "RB-full", "Ideal", "checksum"
    );
    for row in &rep.rows {
        let _ = writeln!(
            out,
            "{:>10} {:>10.3} {:>11.3} {:>9.3} {:>8.3}  {:016x}",
            row.program.name(),
            row.ipc[0],
            row.ipc[1],
            row.ipc[2],
            row.ipc[3],
            row.checksum
        );
    }
    let hm = rep.harmonic_means();
    let _ = writeln!(
        out,
        "{:>10} {:>10.3} {:>11.3} {:>9.3} {:>8.3}",
        "h-mean", hm[0], hm[1], hm[2], hm[3]
    );
    out
}

/// Renders Figure 13: the bypass-case distribution per benchmark.
pub fn render_figure13(fig: &Figure13) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 13. Potentially critical bypass cases");
    let _ = writeln!(out, "(8-wide RB-full machine, SPECint2000 proxies)");
    let _ = writeln!(
        out,
        "{:>10} {:>8} {:>7} {:>7} {:>7} {:>8}",
        "benchmark", "w/byp", "TC→TC", "TC→RB", "RB→RB", "RB→TC"
    );
    for (b, cases, frac) in &fig.rows {
        let _ = writeln!(
            out,
            "{:>10} {:>7.0}% {:>6.1}% {:>6.1}% {:>6.1}% {:>7.1}%",
            b.name(),
            frac * 100.0,
            cases.fraction(BypassCase::TcToTc) * 100.0,
            cases.fraction(BypassCase::TcToRb) * 100.0,
            cases.fraction(BypassCase::RbToRb) * 100.0,
            cases.fraction(BypassCase::RbToTc) * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "(w/byp = fraction of dynamic instructions with ≥1 bypassed source;"
    );
    let _ = writeln!(
        out,
        " the four columns classify each instruction's last-arriving bypassed operand;"
    );
    let _ = writeln!(
        out,
        " RB→TC is the only case requiring a format conversion.)"
    );
    out
}

/// Renders Figure 14: harmonic-mean IPC under limited bypass networks.
pub fn render_figure14(fig: &Figure14) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Figure 14. IPC with Limited Bypass Networks");
    let _ = writeln!(out, "(Ideal machine; harmonic mean over all 20 benchmarks)");
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>8} {:>9} {:>9}",
        "config", "4-wide", "8-wide", "Δ4-wide", "Δ8-wide"
    );
    let full = &fig.rows[0];
    for row in &fig.rows {
        let _ = writeln!(
            out,
            "{:>8} {:>8.3} {:>8.3} {:>8.1}% {:>8.1}%",
            row.label,
            row.hmean_w4,
            row.hmean_w8,
            (row.hmean_w4 / full.hmean_w4 - 1.0) * 100.0,
            (row.hmean_w8 / full.hmean_w8 - 1.0) * 100.0,
        );
    }
    out
}

/// Renders Table 1 with measured and paper fractions side by side.
pub fn render_table1(merged: &Table1Counts, per: &[(Benchmark, Table1Counts)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 1. Instruction Classifications (dynamic %)");
    let _ = writeln!(out, "{:<46} {:>9} {:>8}", "class", "measured", "paper");
    for &row in Table1Row::all() {
        let _ = writeln!(
            out,
            "{:<46} {:>8.1}% {:>7.1}%",
            row.label(),
            merged.fraction(row),
            row.paper_fraction()
        );
    }
    let _ = writeln!(
        out,
        "measured over {} dynamic instructions, {} proxies",
        merged.total(),
        per.len()
    );
    out
}

/// Renders Table 3 (instruction class latencies per machine).
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table 3. Instruction Class Latencies");
    let _ = writeln!(
        out,
        "{:<28} {:>5} {:>15} {:>6}",
        "class", "Base", "RB (TC result)", "Ideal"
    );
    for r in rows {
        let rb = match r.rb_tc {
            Some(tc) => format!("{} ({tc})", r.rb),
            None => format!("{}", r.rb),
        };
        let _ = writeln!(
            out,
            "{:<28} {:>5} {:>15} {:>6}",
            r.class.name(),
            r.base,
            rb,
            r.ideal
        );
    }
    out
}

/// Renders a horizontal bar for quick visual comparison in terminals.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let filled = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled.min(width) { '█' } else { '·' });
    }
    s
}

/// Renders an IPC figure as labelled bars (closer to the paper's plots).
pub fn render_ipc_bars(fig: &IpcFigure) -> String {
    let mut out = String::new();
    let max = fig
        .rows
        .iter()
        .flat_map(|r| r.ipc.iter().copied())
        .fold(0.0f64, f64::max);
    for row in &fig.rows {
        let _ = writeln!(out, "{}:", row.benchmark.name());
        for (m, model) in CoreModel::all().iter().enumerate() {
            let _ = writeln!(
                out,
                "  {:>10} {} {:.3}",
                model.name(),
                bar(row.ipc[m], max, 40),
                row.ipc[m]
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{IpcRow, Table3Row};
    use redbin_isa::class::LatencyClass;
    use redbin_sim::stats::BypassCases;
    use redbin_sim::BypassLevels;
    use redbin_workload::Suite;

    fn sample_fig() -> IpcFigure {
        IpcFigure {
            width: 8,
            suite: Suite::Spec95,
            rows: vec![IpcRow {
                benchmark: Benchmark::Go,
                ipc: [1.0, 1.05, 1.08, 1.1],
                stats: Vec::new(),
            }],
        }
    }

    #[test]
    fn ipc_table_renders() {
        let s = render_ipc_figure(&sample_fig(), "Figure 10");
        assert!(s.contains("Figure 10"));
        assert!(s.contains("go"));
        assert!(s.contains("h-mean"));
        assert!(s.contains("RB-full vs Baseline"));
    }

    #[test]
    fn bars_render() {
        let b = bar(0.5, 1.0, 10);
        assert_eq!(b.chars().filter(|c| *c == '█').count(), 5);
        let s = render_ipc_bars(&sample_fig());
        assert!(s.contains("go:"));
        assert!(s.contains("Ideal"));
    }

    #[test]
    fn figure13_renders() {
        let fig = Figure13 {
            rows: vec![(Benchmark::Bzip2, BypassCases::default(), 0.69)],
        };
        let s = render_figure13(&fig);
        assert!(s.contains("bzip2"));
        assert!(s.contains("69%"));
    }

    #[test]
    fn figure14_renders() {
        let fig = crate::experiments::Figure14 {
            rows: vec![
                crate::experiments::Figure14Row {
                    label: "Full".into(),
                    levels: BypassLevels::FULL,
                    hmean_w4: 1.0,
                    hmean_w8: 1.2,
                },
                crate::experiments::Figure14Row {
                    label: "No-1".into(),
                    levels: BypassLevels::without(&[1]),
                    hmean_w4: 0.9,
                    hmean_w8: 1.05,
                },
            ],
        };
        let s = render_figure14(&fig);
        assert!(s.contains("No-1"));
        assert!(s.contains("-10.0%"));
    }

    #[test]
    fn table3_renders() {
        let rows = vec![Table3Row {
            class: LatencyClass::IntArith,
            base: 2,
            rb: 1,
            rb_tc: Some(3),
            ideal: 1,
        }];
        let s = render_table3(&rows);
        assert!(s.contains("integer arithmetic"));
        assert!(s.contains("1 (3)"));
    }

    #[test]
    fn table1_renders() {
        let mut counts = Table1Counts::new();
        counts.record(redbin_isa::Opcode::Addq);
        let s = render_table1(&counts, &[]);
        assert!(s.contains("Memory Access"));
        assert!(s.contains("paper"));
    }
}
