//! Differential suite: event-driven scheduler vs the reference scheduler.
//!
//! `Simulator::issue` selects by event-driven wakeup (per-producer
//! consumer lists, wakeup floors, lazy-skip waiting queues) instead of
//! scanning every waiting entry every cycle. The optimization contract is
//! *bit-identical results*: every statistic, every stall-cause charge,
//! and every pipeline trace must match the retained reference
//! implementation exactly — not approximately. Both schedulers share the
//! store path (when store data reaches the store queue), so these tests
//! cannot see a change there; a trace test in `redbin-sim`'s core pins it.
//!
//! The event-driven path also fast-forwards quiet stretches of cycles
//! (nothing retires, dispatches, issues or fetches) to the next event in
//! one step; the reference steps every cycle, so the same equality pins
//! the skip and its bulk stall charges.
//!
//! These tests lockstep the two schedulers over every shipped machine
//! configuration (the models and widths the golden snapshots exercise,
//! plus bypass ablations, steering, and the redundant-RF-only datapath)
//! and over randomized programs generated with `redbin-testkit`, both
//! cache-resident and memory-bound.

use redbin::prelude::*;
use redbin::sim::stats::SimStats;
use redbin::sim::{BypassLevels, SteeringPolicy};
use redbin_isa::{Inst, Opcode, Operand, Program, Reg};

/// Runs `program` under both schedulers and asserts identical stats.
fn assert_schedulers_agree(cfg: &MachineConfig, program: &Program, label: &str) -> SimStats {
    let optimized = Simulator::new(cfg.clone(), program)
        .run()
        .unwrap_or_else(|e| panic!("{label}: optimized scheduler failed: {e}"));
    let reference = Simulator::new(cfg.clone(), program)
        .with_reference_scheduler()
        .run()
        .unwrap_or_else(|e| panic!("{label}: reference scheduler failed: {e}"));
    assert_eq!(
        optimized, reference,
        "{label}: event-driven scheduler diverged from the reference"
    );
    optimized
}

/// Same, comparing full pipeline traces as well as stats.
fn assert_traces_agree(cfg: &MachineConfig, program: &Program, label: &str) {
    let (stats_o, trace_o) = Simulator::new(cfg.clone(), program)
        .run_traced()
        .unwrap_or_else(|e| panic!("{label}: optimized scheduler failed: {e}"));
    let (stats_r, trace_r) = Simulator::new(cfg.clone(), program)
        .with_reference_scheduler()
        .run_traced()
        .unwrap_or_else(|e| panic!("{label}: reference scheduler failed: {e}"));
    assert_eq!(stats_o, stats_r, "{label}: stats diverged");
    assert_eq!(trace_o, trace_r, "{label}: traces diverged");
}

// ---- shipped configurations ------------------------------------------------

#[test]
fn schedulers_agree_on_every_model_and_width() {
    // The model × width grid the golden snapshots (figure_ipc, figure13)
    // and Tables 1/3 run on.
    for b in [Benchmark::Go, Benchmark::Mcf, Benchmark::Gap] {
        let program = b.program(Scale::Test);
        for &model in CoreModel::all() {
            for width in [4usize, 8] {
                let cfg = MachineConfig::new(model, width);
                let stats =
                    assert_schedulers_agree(&cfg, &program, &format!("{b:?} {model} w{width}"));
                assert!(stats.retired > 0, "{b:?} {model} w{width}: nothing retired");
            }
        }
    }
}

#[test]
fn schedulers_agree_on_bypass_ablations_and_steering() {
    let program = Benchmark::Compress95.program(Scale::Test);
    let mut cases: Vec<(String, MachineConfig)> = Vec::new();
    for removed in [&[1u8][..], &[2], &[3], &[2, 3]] {
        cases.push((
            format!("rb_limited no-{removed:?}"),
            MachineConfig::rb_limited(8).with_bypass(BypassLevels::without(removed)),
        ));
    }
    cases.push((
        "rb_full dependence-steered".into(),
        MachineConfig::rb_full(8).with_steering(SteeringPolicy::DependenceAware),
    ));
    // Redundant-binary register file (§4.2 pathological datapath): TC
    // consumers get exactly one discrete bypass slot, which exercises the
    // non-contiguous-availability path of the wakeup floor.
    cases.push((
        "rb_full rb-rf-only".into(),
        MachineConfig::rb_full(8).with_rb_rf_only(),
    ));
    cases.push((
        "rb_limited rb-rf-only 4-wide".into(),
        MachineConfig::rb_limited(4).with_rb_rf_only(),
    ));
    for (label, cfg) in cases {
        assert_schedulers_agree(&cfg, &program, &label);
    }
}

#[test]
fn schedulers_agree_on_a_memory_bound_kernel_under_every_ablation() {
    // Mcf spends most of its cycles waiting on memory fills, the stretches
    // the event-driven scheduler fast-forwards over; the reference steps
    // every one of them. Every Figure 14 ablation (on the Ideal machine, as
    // the figure runs it, and on the limited RB machine, whose redundant
    // producers it turns into holes), the RB-RF-only datapath and
    // dependence-aware steering, at both widths.
    let program = Benchmark::Mcf.program(Scale::Test);
    for width in [4usize, 8] {
        let mut cases: Vec<(String, MachineConfig)> = Vec::new();
        for levels in redbin::experiments::figure14_configs() {
            for machine in [
                MachineConfig::ideal(width),
                MachineConfig::rb_limited(width),
            ] {
                cases.push((
                    format!("mcf {} {} w{width}", machine.model, levels.label()),
                    machine.with_bypass(levels),
                ));
            }
        }
        cases.push((
            format!("mcf rb_full rb-rf-only w{width}"),
            MachineConfig::rb_full(width).with_rb_rf_only(),
        ));
        cases.push((
            format!("mcf rb_full dependence-steered w{width}"),
            MachineConfig::rb_full(width).with_steering(SteeringPolicy::DependenceAware),
        ));
        for (label, cfg) in cases {
            assert_schedulers_agree(&cfg, &program, &label);
        }
    }
}

#[test]
fn schedulers_agree_on_the_ablation_machines() {
    // The machines `redbin-repro ablations` runs: each sweep's values are
    // exactly what an operand's availability descriptor encodes
    // (conversion latency, cluster delay), plus the window sweep and the
    // steering comparison.
    let mut cases: Vec<(String, MachineConfig)> = Vec::new();
    for conversion in [1u64, 2, 3, 4] {
        let mut m = MachineConfig::rb_full(8);
        m.conversion_latency = conversion;
        cases.push((format!("rb_full w8 conversion {conversion}"), m));
    }
    for delay in [0u64, 1, 2, 3] {
        let mut m = MachineConfig::ideal(8);
        m.cluster_delay = delay;
        cases.push((format!("ideal w8 cluster delay {delay}"), m));
    }
    for window in [32usize, 64, 128, 256] {
        let mut m = MachineConfig::ideal(8);
        m.window = window;
        cases.push((format!("ideal w8 window {window}"), m));
    }
    for policy in [
        SteeringPolicy::RoundRobinPairs,
        SteeringPolicy::DependenceAware,
    ] {
        for width in [4usize, 8] {
            cases.push((
                format!("rb_limited w{width} {}", policy.name()),
                MachineConfig::rb_limited(width).with_steering(policy),
            ));
        }
    }
    for b in [Benchmark::Mcf, Benchmark::Gap, Benchmark::Go] {
        let program = b.program(Scale::Test);
        for (label, cfg) in &cases {
            assert_schedulers_agree(cfg, &program, &format!("{b:?} {label}"));
        }
    }
}

#[test]
fn schedulers_agree_on_the_faithful_datapath() {
    let program = Benchmark::Gzip.program(Scale::Test);
    let cfg = MachineConfig::rb_full(8).with_datapath(DatapathMode::Faithful);
    assert_schedulers_agree(&cfg, &program, "faithful rb_full");
}

#[test]
fn traces_agree_instruction_by_instruction() {
    // Traces record per-instruction fetch/dispatch/issue/execute/retire
    // cycles — a stronger check than aggregate stats: any reordering of
    // issue picks shows up here even if the totals happened to match.
    let program = Benchmark::Perl.program(Scale::Test);
    for &model in CoreModel::all() {
        let cfg = MachineConfig::new(model, 8);
        assert_traces_agree(&cfg, &program, &format!("trace {model}"));
    }
}

// ---- whole programs --------------------------------------------------------

#[test]
fn schedulers_agree_on_the_whole_program_suite() {
    // The five complete programs (assembled from `crates/workload/programs/`)
    // stress the schedulers far harder than the proxy kernels: deep call
    // chains, data-dependent branching, and pointer-chasing loads. Equality
    // of `SimStats` covers every counter including the stall-cause table.
    use redbin::workload::WholeProgram;
    for &wp in WholeProgram::all() {
        let program = wp.program(Scale::Test);
        for &model in CoreModel::all() {
            for width in [4usize, 8] {
                let cfg = MachineConfig::new(model, width);
                let stats = assert_schedulers_agree(
                    &cfg,
                    &program,
                    &format!("{} {model} w{width}", wp.name()),
                );
                assert!(
                    stats.retired > 1_000,
                    "{} {model} w{width}: suspiciously trivial run",
                    wp.name()
                );
            }
        }
    }
}

#[test]
fn whole_programs_agree_under_bypass_ablations() {
    use redbin::workload::WholeProgram;
    for &wp in [WholeProgram::Quicksort, WholeProgram::QoiDecode].iter() {
        let program = wp.program(Scale::Test);
        let mut cases: Vec<(String, MachineConfig)> = Vec::new();
        for removed in [&[2u8][..], &[3], &[2, 3]] {
            cases.push((
                format!("{} rb_limited no-{removed:?}", wp.name()),
                MachineConfig::rb_limited(8).with_bypass(BypassLevels::without(removed)),
            ));
        }
        cases.push((
            format!("{} rb_full rb-rf-only", wp.name()),
            MachineConfig::rb_full(8).with_rb_rf_only(),
        ));
        cases.push((
            format!("{} faithful rb_full", wp.name()),
            MachineConfig::rb_full(8).with_datapath(DatapathMode::Faithful),
        ));
        for (label, cfg) in cases {
            assert_schedulers_agree(&cfg, &program, &label);
        }
    }
}

#[test]
fn whole_program_traces_agree_instruction_by_instruction() {
    use redbin::workload::WholeProgram;
    let program = WholeProgram::BoxBlur.program(Scale::Test);
    for &model in CoreModel::all() {
        let cfg = MachineConfig::new(model, 8);
        assert_traces_agree(&cfg, &program, &format!("box_blur trace {model}"));
    }
}

// ---- randomized programs ---------------------------------------------------

/// Where a random program's three memory bases start (base `k` at
/// `(k + 1) * spacing`) and how many bytes each advances per iteration.
#[derive(Debug, Clone, Copy)]
struct Layout {
    spacing: i64,
    advance: i64,
}

/// Bases 4 KiB apart that never move: after the first iteration every
/// access hits in the caches.
const CACHE_RESIDENT: Layout = Layout {
    spacing: 0x1000,
    advance: 0,
};

/// Builds a random but always-terminating program: pointer setup, then a
/// counted loop over a random body of arithmetic, memory, conditional-move
/// and forward-branch instructions, then halt. Register roles: r1–r15
/// data, r16–r18 memory bases, r20 the loop counter. `layout` only sets
/// constants; the random draws are the same for every layout.
fn random_program(rng: &mut redbin_testkit::Rng, layout: Layout) -> Program {
    let data = |rng: &mut redbin_testkit::Rng| Reg(1 + rng.range_u64(0, 15) as u8);
    // A store of r14 stores r31 (zero) instead, a value with no producer.
    let store_data = |rng: &mut redbin_testkit::Rng| match data(rng) {
        Reg(14) => Reg::R31,
        r => r,
    };
    let base = |rng: &mut redbin_testkit::Rng| Reg(16 + rng.range_u64(0, 3) as u8);
    let operand = |rng: &mut redbin_testkit::Rng| {
        if rng.next_bool() {
            Operand::Reg(Reg(1 + rng.range_u64(0, 15) as u8))
        } else {
            Operand::Imm(rng.range_i64(-128, 127))
        }
    };

    let iters = rng.range_i64(4, 24);
    let body_len = rng.range_usize(12, 40);
    let mut code = vec![Inst::op(
        Opcode::Addq,
        Reg::R31,
        Operand::Imm(iters),
        Reg(20),
    )];
    for k in 0..3u8 {
        code.push(Inst::lda(
            Opcode::Lda,
            Reg::R31,
            layout.spacing * (k as i64 + 1),
            Reg(16 + k),
        ));
    }

    let alu = [
        Opcode::Addq,
        Opcode::Subq,
        Opcode::Addl,
        Opcode::Mulq,
        Opcode::Sll,
        Opcode::Srl,
        Opcode::And,
        Opcode::Bis,
        Opcode::Xor,
        Opcode::S4addq,
    ];
    let loads = [Opcode::Ldq, Opcode::Ldl, Opcode::Ldbu];
    let stores = [Opcode::Stq, Opcode::Stl, Opcode::Stb];

    let mut body = Vec::with_capacity(body_len);
    for i in 0..body_len {
        let inst = match rng.range_u64(0, 10) {
            0..=4 => Inst::op(*rng.pick(&alu), data(rng), operand(rng), data(rng)),
            5 => Inst::op(Opcode::Cmoveq, data(rng), operand(rng), data(rng)),
            6 => Inst::mem(
                *rng.pick(&loads),
                data(rng),
                base(rng),
                rng.range_i64(0, 256),
            ),
            7 => Inst::mem(
                *rng.pick(&stores),
                store_data(rng),
                base(rng),
                rng.range_i64(0, 256),
            ),
            8 => Inst::lda(Opcode::Lda, data(rng), rng.range_i64(-64, 64), data(rng)),
            _ => {
                // Forward conditional branch skipping 1–3 body slots;
                // near the end, degrade to a plain add instead.
                let remaining = body_len - i - 1;
                if remaining >= 1 {
                    let skip = rng.range_i64(1, remaining.min(3) as i64 + 1);
                    let op = if rng.next_bool() {
                        Opcode::Beq
                    } else {
                        Opcode::Bne
                    };
                    Inst::branch(op, data(rng), skip)
                } else {
                    Inst::op(Opcode::Addq, data(rng), Operand::Imm(1), data(rng))
                }
            }
        };
        body.push(inst);
    }
    if layout.advance != 0 {
        for k in 0..3u8 {
            body.push(Inst::lda(
                Opcode::Lda,
                Reg(16 + k),
                layout.advance,
                Reg(16 + k),
            ));
        }
    }
    let body_len = body.len() as i64;
    code.extend(body);
    code.push(Inst::op(Opcode::Subq, Reg(20), Operand::Imm(1), Reg(20)));
    code.push(Inst::branch(Opcode::Bne, Reg(20), -(body_len + 2)));
    code.push(Inst::halt());
    Program::new(code)
}

/// A random program whose loads miss to memory: bases 1 MiB apart, each
/// advanced to a fresh 64-byte line (or further) every iteration.
fn memory_bound_program(rng: &mut redbin_testkit::Rng) -> Program {
    let layout = Layout {
        spacing: 1 << 20,
        advance: 64 * rng.range_i64(1, 5),
    };
    random_program(rng, layout)
}

/// A random shipped-shape machine config (model × width × a sound bypass
/// or datapath variant).
fn random_config(rng: &mut redbin_testkit::Rng) -> MachineConfig {
    let model = *rng.pick(CoreModel::all());
    let width = if rng.next_bool() { 4 } else { 8 };
    let mut cfg = MachineConfig::new(model, width);
    match rng.range_u64(0, 5) {
        0 => cfg = cfg.with_bypass(BypassLevels::without(&[2])),
        1 => cfg = cfg.with_bypass(BypassLevels::without(&[3])),
        2 => cfg = cfg.with_steering(SteeringPolicy::DependenceAware),
        // Keep full bypass under rb_rf_only: dropping level 3 there makes
        // some operands statically unreachable (redbin-analyze rejects
        // that combination as unsound).
        3 => cfg = cfg.with_rb_rf_only(),
        _ => {}
    }
    // A bug that deadlocks one scheduler should fail fast, not hang CI.
    cfg.max_cycles = 2_000_000;
    cfg
}

/// The random lockstep cases reach what the generators are written to
/// draw: 8-wide machines, forward branches of both kinds in the loop body,
/// immediate operands, data register r15 and memory base r18.
#[test]
fn random_cases_reach_every_generated_shape() {
    let seen = std::cell::Cell::new([false; 6]);
    redbin_testkit::cases(32, 0x5EED_5C4E_D01E, |rng| {
        let program = random_program(rng, CACHE_RESIDENT);
        let mut s = seen.get();
        s[0] |= random_config(rng).width == 8;
        for inst in &program.code {
            s[1] |= inst.op == Opcode::Beq && inst.disp > 0;
            s[2] |= inst.op == Opcode::Bne && inst.disp > 0;
            s[3] |= inst.op == Opcode::Cmoveq && matches!(inst.rb, Operand::Imm(_));
            s[4] |= inst.dest() == Some(Reg(15)) || inst.sources().contains(&Reg(15));
            s[5] |= inst.op.is_mem() && inst.ra == Reg(18);
        }
        seen.set(s);
    });
    let shapes = [
        "an 8-wide config",
        "a forward beq",
        "a forward bne",
        "an immediate operand",
        "r15",
        "base r18",
    ];
    let missing: Vec<&str> = shapes
        .iter()
        .zip(seen.get())
        .filter_map(|(shape, hit)| (!hit).then_some(*shape))
        .collect();
    assert!(missing.is_empty(), "no random case drew {missing:?}");
}

#[test]
fn schedulers_agree_on_random_programs() {
    redbin_testkit::cases(32, 0x5EED_5C4E_D01E, |rng| {
        let program = random_program(rng, CACHE_RESIDENT);
        let cfg = random_config(rng);
        assert_schedulers_agree(&cfg, &program, &format!("random cfg={cfg:?}"));
    });
}

#[test]
fn schedulers_agree_on_memory_bound_random_programs() {
    redbin_testkit::cases(24, 0x3E30_B0D1_7E57, |rng| {
        let program = memory_bound_program(rng);
        let cfg = random_config(rng);
        let stats = assert_schedulers_agree(&cfg, &program, &format!("memory-bound cfg={cfg:?}"));
        assert!(
            stats.l2_misses > 0,
            "loads should miss to memory: {stats:?}"
        );
    });
}

#[test]
fn random_program_traces_agree_too() {
    redbin_testkit::cases(8, 0x7ACE_D1FF, |rng| {
        let program = random_program(rng, CACHE_RESIDENT);
        let cfg = random_config(rng);
        assert_traces_agree(&cfg, &program, &format!("random-trace cfg={cfg:?}"));
    });
}
