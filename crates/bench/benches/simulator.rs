//! End-to-end simulator throughput: simulated instructions per wall-clock
//! second on representative kernels, per machine model.
//!
//! Uses the in-repo `redbin-testkit` timer (the workspace builds offline,
//! so there is no criterion). Run with `cargo bench -p redbin-bench`.

use std::time::Duration;

use redbin::prelude::*;
use redbin_testkit::bench::Bench;

fn harness() -> Bench {
    // Whole-simulation iterations are slow; take fewer, longer samples.
    Bench {
        warmup: Duration::from_millis(200),
        samples: 10,
        sample_time: Duration::from_millis(120),
    }
}

fn bench_simulator(h: &Bench) {
    for b in [Benchmark::Go, Benchmark::Gap, Benchmark::Mcf] {
        let program = b.program(Scale::Test);
        for model in [CoreModel::Baseline, CoreModel::RbFull] {
            let config = MachineConfig::new(model, 8);
            h.run(&format!("simulate/{}_{}", b.name(), model.name()), || {
                Simulator::new(config.clone(), &program)
                    .run()
                    .expect("runs")
            });
        }
    }
}

fn bench_faithful_overhead(h: &Bench) {
    let program = Benchmark::Gap.program(Scale::Test);
    for mode in [DatapathMode::Fast, DatapathMode::Faithful] {
        let config = MachineConfig::rb_full(8).with_datapath(mode);
        h.run(&format!("faithful_datapath/{mode:?}"), || {
            Simulator::new(config.clone(), &program)
                .run()
                .expect("runs")
        });
    }
}

fn main() {
    let h = harness();
    bench_simulator(&h);
    bench_faithful_overhead(&h);
}
