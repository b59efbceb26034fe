//! Cross-crate integration: real kernels through the full pipeline on all
//! machine models, checking the paper's qualitative claims hold end-to-end.

use redbin::prelude::*;
use redbin::sim::stats::harmonic_mean;

fn ipc(model: CoreModel, width: usize, b: Benchmark, scale: Scale) -> f64 {
    let program = b.program(scale);
    let config =
        MachineConfig::try_new(model, width).unwrap_or_else(|e| panic!("{model} w{width}: {e}"));
    Simulator::new(config, &program)
        .run()
        .unwrap_or_else(|e| panic!("{b:?} on {model}: {e}"))
        .ipc()
}

#[test]
fn every_benchmark_runs_on_every_machine() {
    for b in Benchmark::all() {
        for &model in CoreModel::all() {
            for width in [4, 8] {
                let v = ipc(model, width, b, Scale::Test);
                assert!(
                    v > 0.01 && v < 8.0,
                    "{b:?} {model} w{width}: implausible IPC {v}"
                );
            }
        }
    }
}

#[test]
fn machine_ordering_holds_in_aggregate() {
    // Baseline ≤ RB-limited ≤ RB-full ≤ Ideal on the harmonic mean over a
    // representative subset (Small scale keeps the test fast).
    let subset = [
        Benchmark::Compress95,
        Benchmark::Go,
        Benchmark::Gap,
        Benchmark::Crafty,
        Benchmark::Vpr,
        Benchmark::Li,
    ];
    let mut means = Vec::new();
    for &model in CoreModel::all() {
        let ipcs: Vec<f64> = subset
            .iter()
            .map(|&b| ipc(model, 8, b, Scale::Small))
            .collect();
        means.push(harmonic_mean(&ipcs));
    }
    let (base, rblim, rbfull, ideal) = (means[0], means[1], means[2], means[3]);
    assert!(
        base <= rblim * 1.005,
        "baseline {base} vs rb-limited {rblim}"
    );
    assert!(
        rblim <= rbfull * 1.005,
        "rb-limited {rblim} vs rb-full {rbfull}"
    );
    assert!(rbfull <= ideal * 1.005, "rb-full {rbfull} vs ideal {ideal}");
    // And the gaps are material, not noise: the RB machine recovers most
    // of the Ideal machine's advantage over the Baseline.
    assert!(ideal / base > 1.02, "ideal should beat baseline by >2%");
    assert!(
        (ideal - rbfull) / (ideal - base) < 0.65,
        "RB-full should recover most of the ideal-over-baseline gap \
         (base {base:.3}, rb-full {rbfull:.3}, ideal {ideal:.3})"
    );
}

#[test]
fn removing_first_level_bypass_hurts_most() {
    // Figure 14's key shape on one add-latency-critical kernel.
    let program = Benchmark::Gap.program(Scale::Small);
    let run = |levels: BypassLevels| {
        let config = MachineConfig::ideal(4).with_bypass(levels);
        Simulator::new(config, &program).run().expect("runs").ipc()
    };
    let full = run(BypassLevels::FULL);
    let no1 = run(BypassLevels::without(&[1]));
    let no2 = run(BypassLevels::without(&[2]));
    let no3 = run(BypassLevels::without(&[3]));
    let no12 = run(BypassLevels::without(&[1, 2]));
    assert!(no1 < full, "no-1 {no1} vs full {full}");
    assert!(no12 <= no1 * 1.005, "no-1,2 {no12} vs no-1 {no1}");
    // The first level is the heavily used one: removing it costs more than
    // removing either later level.
    assert!(no1 <= no2 * 1.001, "no-1 {no1} should cost ≥ no-2 {no2}");
    assert!(no1 <= no3 * 1.001, "no-1 {no1} should cost ≥ no-3 {no3}");
    assert!(no2 <= full * 1.001 && no3 <= full * 1.001);
}

#[test]
fn wider_machine_helps_high_ilp_kernels() {
    let w4 = ipc(CoreModel::Ideal, 4, Benchmark::Ijpeg, Scale::Small);
    let w8 = ipc(CoreModel::Ideal, 8, Benchmark::Ijpeg, Scale::Small);
    assert!(
        w8 > w4 * 1.05,
        "ijpeg should scale with width: w4 {w4}, w8 {w8}"
    );
}

#[test]
fn memory_bound_kernels_are_insensitive_to_adders() {
    // mcf's chase chain is dominated by memory latency; the adder choice
    // must not matter (the paper's mcf bars are flat).
    let base = ipc(CoreModel::Baseline, 8, Benchmark::Mcf, Scale::Small);
    let ideal = ipc(CoreModel::Ideal, 8, Benchmark::Mcf, Scale::Small);
    assert!(
        (ideal / base - 1.0).abs() < 0.03,
        "mcf should be flat: base {base}, ideal {ideal}"
    );
}

#[test]
fn fp_bound_kernels_are_insensitive_to_adders() {
    let base = ipc(CoreModel::Baseline, 8, Benchmark::Eon, Scale::Small);
    let ideal = ipc(CoreModel::Ideal, 8, Benchmark::Eon, Scale::Small);
    assert!(
        (ideal / base - 1.0).abs() < 0.05,
        "eon should be nearly flat: base {base}, ideal {ideal}"
    );
}

#[test]
fn stats_are_internally_consistent() {
    let program = Benchmark::Perl.program(Scale::Small);
    let config = MachineConfig::rb_full(8);
    let stats = Simulator::new(config, &program).run().expect("runs");
    assert!(stats.cycles > 0);
    assert!(stats.dcache_accesses >= stats.dcache_misses);
    assert!(stats.bypass_cases.insts_with_bypass <= stats.retired);
    // Perl's hash loop forwards constantly.
    assert!(stats.bypassed_inst_fraction() > 0.3);
    // Issue histogram sums to the cycle count.
    let hist_total: u64 = stats.issue_hist.iter().sum();
    assert_eq!(hist_total, stats.cycles);
}
