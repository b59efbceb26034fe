//! Quickstart: simulate one benchmark on all four machine models and
//! compare IPC.
//!
//! ```text
//! cargo run --release --example quickstart [benchmark]
//! ```

use redbin::prelude::*;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "go".to_string());
    let benchmark = Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| {
            eprintln!("unknown benchmark `{name}`; try one of:");
            for b in Benchmark::all() {
                eprintln!("  {} ({:?})", b.name(), b.suite());
            }
            std::process::exit(1);
        });

    println!("benchmark: {} ({})", benchmark.name(), benchmark.suite());
    let program = benchmark.program(Scale::Small);
    println!("static instructions: {}", program.len());

    let mut results = Vec::new();
    for &model in CoreModel::all() {
        let config = MachineConfig::new(model, 8);
        let stats = Simulator::new(config, &program)
            .run()
            .expect("simulation runs");
        println!(
            "{:>11}: IPC {:.3}  ({} instructions in {} cycles, \
             {:.1}% branch mispredicts, {:.1}% L1D misses)",
            model.name(),
            stats.ipc(),
            stats.retired,
            stats.cycles,
            stats.mispredict_ratio() * 100.0,
            stats.dcache_miss_ratio() * 100.0,
        );
        results.push((model, stats.ipc()));
    }

    let base = results[0].1;
    let ideal = results[3].1;
    let rb_full = results[2].1;
    println!();
    println!(
        "RB-full gains {:+.1}% over the Baseline (2-cycle pipelined adders)",
        (rb_full / base - 1.0) * 100.0
    );
    println!(
        "and comes within {:.1}% of the Ideal (1-cycle 2's-complement adders).",
        (1.0 - rb_full / ideal) * 100.0
    );
}
