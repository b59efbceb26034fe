//! Integration tests for `redbin-analyze`:
//!
//! * the netlist depth report is pinned as a golden snapshot
//!   (`tests/golden/netlist_depths.json`) — the claim-1 numbers may not
//!   drift silently;
//! * the static bypass reachability agrees with the simulator's dynamic
//!   per-level counters on every shipped machine configuration;
//! * the CLI maps clean / findings / usage errors onto exit codes 0/1/2.
//!
//! Regenerate the golden after an intentional netlist change with
//! `REDBIN_REGEN_GOLDEN=1 cargo test --test integration_analyze`.

mod common;

use std::process::Command;

use common::check_golden;
use redbin::isa::{Inst, Opcode, Operand, Program, Reg};
use redbin::sim::Simulator;
use redbin_analyze::{bypass, netlist};

#[test]
fn netlist_depth_report_matches_golden() {
    let mut rendered = netlist::depth_report_json().to_pretty();
    rendered.push('\n');
    check_golden("netlist_depths.json", &rendered);
}

/// A small program that exercises every operand class the analyzer
/// probes: RB-producing adds feeding adds (RB→RB), adds feeding xors
/// (RB→TC, conversion required), TC producers feeding both, and loads.
fn mixed_program() -> Program {
    let mut code = vec![Inst::op(Opcode::Addq, Reg::R31, Operand::Imm(500), Reg(20))];
    for i in 0..8 {
        let r = 1 + (i % 8) as u8;
        code.push(Inst::op(Opcode::Addq, Reg(r), Operand::Imm(1), Reg(r)));
        code.push(Inst::op(Opcode::Xor, Reg(r), Operand::Imm(3), Reg(r + 8)));
        code.push(Inst::op(Opcode::Addq, Reg(r + 8), Operand::Imm(1), Reg(r)));
    }
    code.push(Inst::op(Opcode::Subq, Reg(20), Operand::Imm(1), Reg(20)));
    code.push(Inst::branch(Opcode::Bne, Reg(20), -(8 * 3 + 2)));
    code.push(Inst::halt());
    Program::new(code)
}

#[test]
fn static_reachability_agrees_with_dynamic_level_counters() {
    let program = mixed_program();
    for cfg in bypass::shipped_configs() {
        let analysis = bypass::analyze_config(&cfg);
        assert!(
            analysis.sound(),
            "shipped config {} must be sound",
            analysis.machine
        );
        let stats = Simulator::new(cfg, &program)
            .run()
            .expect("simulation completes");
        bypass::check_level_agreement(analysis.static_levels, stats.bypass_levels)
            .unwrap_or_else(|e| panic!("machine {}: {e}", analysis.machine));
        // Sanity: on forwarding-capable machines the program above must
        // actually light the counters, or this test proves nothing.
        if stats.bypassed_operands > 0 {
            assert!(
                stats.bypass_levels.iter().sum::<u64>() > 0,
                "machine {}: bypassed operands but no level attribution",
                analysis.machine
            );
        }
    }
}

fn analyze_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_redbin-analyze"))
}

#[test]
fn cli_is_clean_on_the_current_tree() {
    let out = analyze_bin()
        .args(["--all", "--json"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "expected exit 0, got {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout)
    );
    let doc = redbin::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("json output");
    assert_eq!(doc.get("clean"), Some(&redbin::json::Json::Bool(true)));
}

#[test]
fn cli_rejects_unknown_flags_with_usage_error() {
    let out = analyze_bin()
        .arg("--frobnicate")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn seeded_cycle_makes_the_netlist_pass_dirty() {
    use redbin::gates::NodeKind;
    use redbin_analyze::netlist::CircuitGraph;
    // A three-NOT ring: the pass must report it and go dirty, which is
    // exactly the predicate the CLI maps onto its non-zero exit code.
    let ring = CircuitGraph::from_parts(
        vec![NodeKind::Not; 3],
        vec![vec![1], vec![2], vec![0]],
        vec![("out".to_string(), 0)],
    );
    let report = netlist::analyze_graph("ring", &ring);
    assert!(report.cycle.is_some());
    let analysis = netlist::assess(vec![report], Vec::new());
    assert!(!analysis.clean(), "problems: {:?}", analysis.problems);
    assert!(analysis.problems[0].contains("ring"));
}

#[test]
fn unsound_config_makes_the_bypass_pass_dirty() {
    let mut cfg = redbin::sim::MachineConfig::rb_full(4);
    cfg.rb_rf_only = true;
    cfg.bypass = redbin::sim::BypassLevels::without(&[3]);
    let pass = bypass::BypassPass {
        analyses: vec![bypass::analyze_config(&cfg)],
    };
    assert!(!pass.clean(), "an unreachable operand must dirty the pass");
}

#[test]
fn unreachable_operand_config_is_detected() {
    // The §4.2 pathology: an RB-only register file with the conversion
    // bypass level removed strands every TC-needing consumer.
    let mut cfg = redbin::sim::MachineConfig::rb_full(4);
    cfg.rb_rf_only = true;
    cfg.bypass = redbin::sim::BypassLevels::without(&[3]);
    let err = bypass::validate_machine(&cfg).expect_err("must be unsound");
    assert!(
        err.to_string().contains("never obtainable"),
        "structured message: {err}"
    );
}
