//! The §3.4 delay-comparison report.

use std::fmt;

use crate::adders;
use crate::netlist::DelayModel;

/// Critical-path delays for every §3.4 circuit at one operand width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayRow {
    /// Operand width in bits (digits for the redundant adder).
    pub width: usize,
    /// Ripple-carry adder delay.
    pub ripple: f64,
    /// Carry-lookahead (parallel-prefix) adder delay.
    pub cla: f64,
    /// Carry-select adder delay (√n blocks).
    pub carry_select: f64,
    /// Redundant binary adder delay.
    pub rb: f64,
    /// Redundant→2's-complement converter delay.
    pub converter: f64,
}

impl DelayRow {
    /// Ratio of CLA to redundant adder delay — the paper quotes ≈3× at 64
    /// bits (Makino et al.).
    pub fn cla_over_rb(&self) -> f64 {
        self.cla / self.rb
    }

    /// Ratio of converter to redundant adder delay — the paper quotes ≈2.7×.
    pub fn converter_over_rb(&self) -> f64 {
        self.converter / self.rb
    }
}

/// The full delay report across operand widths.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayReport {
    /// The delay model the report was computed under.
    pub model: DelayModel,
    /// One row per operand width.
    pub rows: Vec<DelayRow>,
}

impl DelayReport {
    /// Computes the report for the given widths under `model`.
    ///
    /// # Panics
    ///
    /// Panics if any width is outside `2..=128`.
    pub fn compute(model: DelayModel, widths: &[usize]) -> Self {
        let rows = widths
            .iter()
            .map(|&w| {
                let block = (w as f64).sqrt().round().max(1.0) as usize;
                DelayRow {
                    width: w,
                    ripple: adders::ripple_carry(w).netlist().critical_path(model),
                    cla: adders::carry_lookahead(w).netlist().critical_path(model),
                    carry_select: adders::carry_select(w, block)
                        .netlist()
                        .critical_path(model),
                    rb: adders::rb_adder(w).netlist().critical_path(model),
                    converter: adders::rb_to_tc_converter(w).netlist().critical_path(model),
                }
            })
            .collect();
        DelayReport { model, rows }
    }

    /// The standard report: widths 8–64 under the unit-gate model.
    pub fn standard() -> Self {
        Self::compute(DelayModel::UnitGate, &[8, 16, 32, 64, 128])
    }

    /// The row for a particular width, if present.
    pub fn row(&self, width: usize) -> Option<&DelayRow> {
        self.rows.iter().find(|r| r.width == width)
    }
}

impl fmt::Display for DelayReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>6} {:>8} {:>8} {:>8} {:>8} {:>10} {:>8} {:>8}",
            "width", "ripple", "CLA", "csel", "RB", "converter", "CLA/RB", "conv/RB"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:>6} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>10.1} {:>8.2} {:>8.2}",
                r.width,
                r.ripple,
                r.cla,
                r.carry_select,
                r.rb,
                r.converter,
                r.cla_over_rb(),
                r.converter_over_rb()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_report_has_expected_shape() {
        let rep = DelayReport::standard();
        assert_eq!(rep.rows.len(), 5);
        let r64 = rep.row(64).unwrap();
        // Constant-depth redundant adder; growing CLA.
        let r8 = rep.row(8).unwrap();
        assert_eq!(r8.rb, r64.rb);
        assert!(r64.cla > r8.cla);
        assert!(r64.cla_over_rb() >= 2.0);
        assert!(r64.converter_over_rb() >= 2.0);
        // Ripple is worst at 64 bits.
        assert!(r64.ripple > r64.cla);
        assert!(r64.carry_select > r64.cla);
    }

    #[test]
    fn fanout_aware_report_widens_the_gap() {
        let unit = DelayReport::compute(DelayModel::UnitGate, &[64]);
        let load = DelayReport::compute(DelayModel::FanoutAware { load_factor: 0.2 }, &[64]);
        let u = unit.row(64).unwrap();
        let l = load.row(64).unwrap();
        // The prefix tree has big fanouts; the redundant adder's are ≤ 4.
        assert!(l.cla_over_rb() > u.cla_over_rb());
    }

    #[test]
    fn display_renders_rows() {
        let rep = DelayReport::compute(DelayModel::UnitGate, &[8]);
        let s = rep.to_string();
        assert!(s.contains("width"));
        assert!(s.contains('8'));
    }
}
