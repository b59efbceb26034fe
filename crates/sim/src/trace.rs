//! Per-instruction pipeline traces — the paper's Figures 5 and 7 as data.
//!
//! When tracing is enabled, the simulator records when each dynamic
//! instruction passed through each stage; [`PipelineTrace::render`] draws the same
//! cycle-grid diagrams the paper uses to explain redundant forwarding and
//! limited-bypass holes (`RF EXE CV1 CV2 WB`).

use std::fmt::Write as _;

/// One instruction's journey through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// Dynamic sequence number.
    pub seq: u64,
    /// Static pc.
    pub pc: usize,
    /// Disassembly.
    pub text: String,
    /// Fetch cycle.
    pub fetch: u64,
    /// Dispatch (into the window) cycle.
    pub dispatch: u64,
    /// Select (issue) cycle.
    pub issue: u64,
    /// First execute cycle.
    pub exec_start: u64,
    /// Last execute cycle (primary result ready at its end).
    pub exec_end: u64,
    /// Cycle the 2's-complement form exists (after CV1/CV2 for redundant
    /// results; equals `exec_end` otherwise).
    pub tc_ready: u64,
    /// `true` if the primary result was redundant binary.
    pub rb: bool,
    /// Retire cycle.
    pub retire: u64,
}

impl TraceEntry {
    /// The stage occupying the given cycle, if any, as a short label.
    fn stage_at(&self, cycle: u64) -> Option<&'static str> {
        if cycle >= self.issue && cycle < self.exec_start {
            // Schedule + register file read.
            return Some(if cycle == self.issue { "SCH" } else { "RF" });
        }
        if cycle >= self.exec_start && cycle <= self.exec_end {
            return Some("EXE");
        }
        if self.rb && cycle > self.exec_end && cycle <= self.tc_ready {
            return Some(if cycle == self.exec_end + 1 {
                "CV1"
            } else {
                "CV2"
            });
        }
        if cycle == self.retire {
            return Some("WB");
        }
        None
    }
}

/// A complete trace of a (small) simulated program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineTrace {
    entries: Vec<TraceEntry>,
}

impl PipelineTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one completed instruction.
    pub fn push(&mut self, e: TraceEntry) {
        self.entries.push(e);
    }

    /// The recorded entries, in retirement order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// The entry for a dynamic sequence number.
    pub fn entry(&self, seq: u64) -> Option<&TraceEntry> {
        self.entries.iter().find(|e| e.seq == seq)
    }

    /// Renders a Figure 5/7-style cycle grid for a window of sequence
    /// numbers, with cycles renumbered to start at 1.
    pub fn render(&self, seqs: &[u64]) -> String {
        let picked: Vec<&TraceEntry> = seqs.iter().filter_map(|s| self.entry(*s)).collect();
        if picked.is_empty() {
            return String::from("(no trace entries)\n");
        }
        let first = picked.iter().map(|e| e.issue).min().unwrap_or(1);
        let last = picked.iter().map(|e| e.retire).max().unwrap_or(1);
        let mut out = String::new();
        let _ = write!(out, "{:<24} |", "cycle:");
        for c in first..=last {
            let _ = write!(out, "{:^5}|", c - first + 1);
        }
        out.push('\n');
        for e in picked {
            let _ = write!(out, "{:<24} |", e.text);
            for c in first..=last {
                let _ = write!(out, "{:^5}|", e.stage_at(c).unwrap_or(""));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, issue: u64, lat: u64, rb: bool) -> TraceEntry {
        let exec_start = issue + 3;
        let exec_end = exec_start + lat - 1;
        let tc_ready = if rb { exec_end + 2 } else { exec_end };
        TraceEntry {
            seq,
            pc: seq as usize,
            text: format!("i{seq}"),
            fetch: issue.saturating_sub(8),
            dispatch: issue,
            issue,
            exec_start,
            exec_end,
            tc_ready,
            rb,
            retire: tc_ready + 1,
        }
    }

    #[test]
    fn stages_cover_the_pipeline() {
        let e = entry(0, 10, 1, true);
        assert_eq!(e.stage_at(10), Some("SCH"));
        assert_eq!(e.stage_at(11), Some("RF"));
        assert_eq!(e.stage_at(12), Some("RF"));
        assert_eq!(e.stage_at(13), Some("EXE"));
        assert_eq!(e.stage_at(14), Some("CV1"));
        assert_eq!(e.stage_at(15), Some("CV2"));
        assert_eq!(e.stage_at(16), Some("WB"));
        assert_eq!(e.stage_at(17), None);
    }

    #[test]
    fn non_redundant_results_have_no_conversion_stages() {
        let e = entry(0, 10, 1, false);
        assert_eq!(e.stage_at(13), Some("EXE"));
        assert_eq!(e.stage_at(14), Some("WB"));
    }

    #[test]
    fn render_produces_a_grid() {
        let mut t = PipelineTrace::new();
        t.push(entry(0, 10, 1, true));
        t.push(entry(1, 11, 1, true));
        let s = t.render(&[0, 1]);
        assert!(s.contains("EXE"));
        assert!(s.contains("CV1"));
        assert!(s.contains("i0"));
        assert!(s.contains("i1"));
    }

    #[test]
    fn multi_cycle_exe_occupies_every_exec_cycle() {
        // A 3-cycle op (e.g. a shift on the RB machines): EXE spans the
        // whole execution, WB follows immediately when not redundant.
        let e = entry(0, 10, 3, false);
        assert_eq!(e.stage_at(12), Some("RF"));
        assert_eq!(e.stage_at(13), Some("EXE"));
        assert_eq!(e.stage_at(14), Some("EXE"));
        assert_eq!(e.stage_at(15), Some("EXE"));
        assert_eq!(e.stage_at(16), Some("WB"));
        assert_eq!(e.stage_at(17), None);
    }

    #[test]
    fn stage_boundaries_are_exact() {
        let e = entry(0, 10, 2, true);
        // Before issue: nothing.
        assert_eq!(e.stage_at(9), None);
        // SCH exactly at issue, RF until exec starts.
        assert_eq!(e.stage_at(10), Some("SCH"));
        assert_eq!(e.stage_at(11), Some("RF"));
        assert_eq!(e.stage_at(12), Some("RF"));
        // EXE boundaries inclusive.
        assert_eq!(e.stage_at(e.exec_start), Some("EXE"));
        assert_eq!(e.stage_at(e.exec_end), Some("EXE"));
        // CV1 exactly one cycle after EXE, CV2 fills up to tc_ready.
        assert_eq!(e.stage_at(e.exec_end + 1), Some("CV1"));
        assert_eq!(e.stage_at(e.tc_ready), Some("CV2"));
        // WB at retire, then nothing.
        assert_eq!(e.stage_at(e.retire), Some("WB"));
        assert_eq!(e.stage_at(e.retire + 1), None);
    }

    #[test]
    fn back_to_back_issue_has_no_rf_stage() {
        // When select feeds execution directly (a select-to-execute depth
        // of 0), the SCH/RF range is empty and the issue cycle is already
        // EXE.
        let mut e = entry(0, 10, 1, false);
        e.exec_start = e.issue;
        e.exec_end = e.issue;
        e.tc_ready = e.issue;
        assert_eq!(e.stage_at(e.issue), Some("EXE"));
    }

    #[test]
    fn dependence_chain_grid_shows_redundant_forwarding() {
        // The paper's Figure 5 scenario, straight out of the simulator: two
        // dependent adds on the RB-full machine execute in consecutive
        // cycles (the consumer sources the redundant form over BYP-1),
        // while the 2-cycle baseline adders force a one-cycle bubble.
        use crate::config::MachineConfig;
        use crate::Simulator;
        use redbin_isa::{Inst, Opcode, Operand, Program, Reg};

        let program = Program::new(vec![
            Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(5), Reg(1)),
            Inst::op(Opcode::Addq, Reg(1), Operand::Imm(1), Reg(1)),
            Inst::halt(),
        ]);

        let (_, trace) = Simulator::new(MachineConfig::rb_full(4), &program)
            .run_traced()
            .expect("runs");
        let producer = trace.entry(0).expect("producer traced").clone();
        let consumer = trace.entry(1).expect("consumer traced").clone();
        assert_eq!(
            consumer.exec_start,
            producer.exec_start + 1,
            "RB-full forwards redundant results back-to-back"
        );

        let grid = trace.render(&[0, 1]);
        // Both instructions and their stages appear in the grid.
        assert!(grid.contains("addq"), "grid:\n{grid}");
        assert!(grid.contains("SCH"), "grid:\n{grid}");
        assert!(grid.contains("EXE"), "grid:\n{grid}");
        // Redundant adds convert after execution: CV1/CV2 visible.
        assert!(grid.contains("CV1"), "grid:\n{grid}");
        assert!(grid.contains("CV2"), "grid:\n{grid}");
        // One row per instruction plus the cycle header.
        assert_eq!(grid.lines().count(), 3, "grid:\n{grid}");

        // Baseline: 2-cycle pipelined adders → dependent add waits 2 cycles.
        let (_, base_trace) = Simulator::new(MachineConfig::baseline(4), &program)
            .run_traced()
            .expect("runs");
        let p = base_trace.entry(0).expect("producer").clone();
        let c = base_trace.entry(1).expect("consumer").clone();
        assert_eq!(
            c.exec_start,
            p.exec_start + 2,
            "baseline consumer waits for the full 2-cycle add"
        );
    }
}
