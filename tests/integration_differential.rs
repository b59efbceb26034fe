//! Differential test between the two datapath modes: `Fast` (timing-only)
//! and `Faithful` (runs the redundant shadow datapath and asserts it agrees
//! with the architectural values). The modes must produce *identical*
//! timing — the shadow datapath is a checker, not a behavior change — so
//! every statistic except the fidelity-check counter must match exactly.

use redbin::prelude::*;

fn run(b: Benchmark, mode: DatapathMode) -> SimStats {
    let program = b.program(Scale::Test);
    let cfg = MachineConfig::rb_full(8).with_datapath(mode);
    Simulator::new(cfg, &program).run().expect("benchmark runs")
}

#[test]
fn fast_and_faithful_timing_is_identical_on_every_benchmark() {
    for b in Benchmark::all() {
        let fast = run(b, DatapathMode::Fast);
        let mut faithful = run(b, DatapathMode::Faithful);
        assert_eq!(fast.fidelity_checks, 0, "{b:?}: fast mode must not check");
        assert!(
            faithful.fidelity_checks > 0,
            "{b:?}: faithful mode must actually check"
        );
        // The only permitted difference is the check counter itself.
        faithful.fidelity_checks = 0;
        assert_eq!(
            fast, faithful,
            "{b:?}: faithful datapath changed the simulated timing"
        );
    }
}

#[test]
fn fast_and_faithful_agree_on_the_narrow_machine_too() {
    for b in [Benchmark::Go, Benchmark::Gzip, Benchmark::Perlbmk] {
        let program = b.program(Scale::Test);
        let narrow = |mode| MachineConfig::rb_limited(4).with_datapath(mode);
        let fast = Simulator::new(narrow(DatapathMode::Fast), &program)
            .run()
            .expect("runs");
        let mut faithful = Simulator::new(narrow(DatapathMode::Faithful), &program)
            .run()
            .expect("runs");
        faithful.fidelity_checks = 0;
        assert_eq!(fast, faithful, "{b:?} (4-wide RB-limited)");
    }
}
