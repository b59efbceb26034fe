//! Differential test between the two datapath modes: `Fast` (timing-only)
//! and `Faithful` (runs the redundant-datapath pass,
//! `redbin::sim::fidelity::check`, before its timing run). The modes must
//! produce *identical* timing — the pass is a checker, not a behavior
//! change — so every statistic except the fidelity-check counter must
//! match exactly, and that counter must be the pass's own count.

use redbin::prelude::*;
use redbin::sim::fidelity;
use redbin::workload::WholeProgram;

/// On the 20 kernels and the 5 whole programs, a Faithful run on `config`
/// reports exactly the fast run's statistics plus the pass's count.
fn assert_faithful_is_fast_plus_the_pass(config: MachineConfig) {
    let kernels = Benchmark::all().into_iter().map(|b| b.program(Scale::Test));
    let whole = WholeProgram::all().iter().map(|wp| wp.program(Scale::Test));
    for program in kernels.chain(whole) {
        let label = format!("{} on {} {}-wide", program.name, config.model, config.width);
        let (checks, _) =
            fidelity::check(&program, u64::MAX).unwrap_or_else(|d| panic!("{label}: {d}"));
        assert!(checks > 0, "{label}: the pass checked nothing");
        let run = |c| Simulator::new(c, &program).run().expect(&label);
        let fast = run(config.clone());
        assert_eq!(fast.fidelity_checks, 0, "{label}: fast mode must not check");
        let faithful = run(config.clone().with_datapath(DatapathMode::Faithful));
        // The only permitted difference is the check counter itself.
        let expect = SimStats {
            fidelity_checks: checks,
            ..fast
        };
        assert_eq!(faithful, expect, "{label}: faithful changed the timing");
    }
}

#[test]
fn fast_and_faithful_timing_is_identical_on_every_benchmark() {
    assert_faithful_is_fast_plus_the_pass(MachineConfig::rb_full(8));
}

#[test]
fn fast_and_faithful_agree_on_the_narrow_machine_too() {
    assert_faithful_is_fast_plus_the_pass(MachineConfig::rb_limited(4));
}
