//! Whole-program redundant-datapath fidelity: `redbin::sim::fidelity::check`
//! computes every redundant-capable operation of the benchmark proxies and
//! whole programs with `redbin-arith`'s hardware algorithms over genuinely
//! redundant (unconverted) register values, checks each against the
//! emulator, and pushes every load/store index through the 3-input
//! modified SAM decoder. A Faithful simulation runs that pass first.
//!
//! A failure here would mean the redundant machine computes different
//! answers than the 2's-complement machine — the paper's whole premise.

use redbin::prelude::*;
use redbin::sim::fidelity;

#[test]
fn faithful_datapath_agrees_on_all_twenty_benchmarks() {
    for b in Benchmark::all() {
        let program = b.program(Scale::Test);
        let config = MachineConfig::rb_full(8).with_datapath(DatapathMode::Faithful);
        let stats = Simulator::new(config, &program)
            .run()
            .unwrap_or_else(|e| panic!("{b:?}: {e}"));
        assert!(
            stats.fidelity_checks > 500,
            "{b:?}: only {} fidelity checks ran — the kernel should exercise \
             the redundant datapath heavily",
            stats.fidelity_checks
        );
    }
}

#[test]
fn faithful_mode_does_not_change_timing() {
    // The pass is an observer: IPC must be identical, also under the
    // tightest cycle limit the fast run meets, which bounds the pass's
    // steps without cutting it short.
    let program = Benchmark::Gap.program(Scale::Test);
    let fast = Simulator::new(MachineConfig::rb_limited(4), &program)
        .run()
        .expect("runs");
    let mut config = MachineConfig::rb_limited(4).with_datapath(DatapathMode::Faithful);
    config.max_cycles = fast.cycles;
    let faithful = Simulator::new(config, &program).run().expect("runs");
    assert_eq!(fast.cycles, faithful.cycles);
    assert_eq!(fast.retired, faithful.retired);
    let (checks, _) = fidelity::check(&program, u64::MAX).expect("agrees");
    assert_eq!(faithful.fidelity_checks, checks);
}

#[test]
fn emulator_and_simulator_retire_identical_streams() {
    use redbin::isa::Emulator;
    for b in [Benchmark::Compress95, Benchmark::Bzip2, Benchmark::Twolf] {
        let program = b.program(Scale::Test);
        let mut emu = Emulator::new(&program);
        let emu_retired = emu.run(50_000_000).expect("halts");
        let config = MachineConfig::baseline(4);
        let stats = Simulator::new(config, &program).run().expect("runs");
        // The emulator counts the Halt; the simulator does not retire it.
        assert_eq!(stats.retired, emu_retired - 1, "{b:?}");
    }
}
