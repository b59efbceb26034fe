//! Machine shootout: run a whole suite through the four machine models and
//! print the per-benchmark bars the paper's Figures 9–12 show.
//!
//! ```text
//! cargo run --release --example machine_shootout [95|2000] [4|8]
//! ```

use redbin::prelude::*;
use redbin::{experiments, report};

fn main() {
    let mut args = std::env::args().skip(1);
    let suite = match args.next().as_deref() {
        Some("95") => Suite::Spec95,
        Some("2000") | None => Suite::Spec2000,
        Some(other) => {
            eprintln!("unknown suite `{other}` (expected 95 or 2000)");
            std::process::exit(1);
        }
    };
    let width: usize = args
        .next()
        .map(|w| w.parse().expect("width must be 4 or 8"))
        .unwrap_or(8);

    let cfg = ExperimentConfig {
        scale: Scale::Small,
        ..Default::default()
    };
    println!("running {suite} proxies on the {width}-wide machines (Small scale)...");
    let fig = experiments::figure_ipc(width, suite, &cfg);
    println!();
    print!("{}", report::render_ipc_figure(&fig, "Shootout"));
    println!();
    print!("{}", report::render_ipc_bars(&fig));
}
