//! # redbin — redundant binary execution cores and limited bypass networks
//!
//! A from-scratch reproduction of Mary D. Brown and Yale N. Patt,
//! *"Using Internal Redundant Representations and Limited Bypass to Support
//! Pipelined Adders and Register Files"* (HPCA 2002), as a production-style
//! Rust library.
//!
//! The crate re-exports the full substrate stack and adds the experiment
//! drivers that regenerate every table and figure of the paper:
//!
//! * [`arith`] — redundant binary (signed-digit) arithmetic: constant-depth
//!   adders, format conversion, overflow handling, sum-addressed memory.
//! * [`gates`] — gate-level netlists and the §3.4 delay comparison.
//! * [`isa`] — the Alpha-like instruction set and functional emulator.
//! * [`workload`] — twenty SPECint95/SPECint2000 proxy kernels.
//! * [`sim`] — the cycle-level out-of-order core with dual-format result
//!   tracking, limited bypass networks, and clustered execution.
//! * [`experiments`] — one driver per table/figure (Table 1, Figures 9–14,
//!   the §3.4 delay table), each simulating through one parallel
//!   programs × machines runner.
//! * [`differential`] — the three-way differential oracle (emulator vs.
//!   fast simulator, the redundant-datapath check, and event-driven vs.
//!   reference scheduler) behind the fuzz and whole-program suites.
//! * [`report`] — plain-text rendering of experiment results.
//! * [`json`] — dependency-free structured JSON output for every experiment
//!   (the `--json` flag of `redbin-repro`).
//! * [`pool`] — the scoped worker pool behind the parallel fan-out (shared
//!   with the `redbin-serve` batch service).
//! * [`wire`] — newline-delimited request/response envelopes for the
//!   `redbin-served` job server and its clients.
//! * [`telemetry`] — metrics (counters, gauges, histograms) and monotonic
//!   wall-clock timing; see `OBSERVABILITY.md`.
//!
//! # Quickstart
//!
//! ```
//! use redbin::prelude::*;
//!
//! // Simulate one benchmark on the RB-full machine.
//! let config = MachineConfig::rb_full(8);
//! let program = Benchmark::Go.program(Scale::Test);
//! let stats = Simulator::new(config, &program).run().expect("runs");
//! println!("go: {:.2} IPC", stats.ipc());
//! # assert!(stats.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use redbin_arith as arith;
pub use redbin_gates as gates;
pub use redbin_isa as isa;
pub use redbin_sim as sim;
pub use redbin_telemetry as telemetry;
pub use redbin_workload as workload;

pub mod cli;
pub mod differential;
pub mod experiments;
pub mod json;
pub mod pool;
pub mod report;
pub mod wire;

/// The most common imports, bundled.
pub mod prelude {
    pub use crate::experiments::{self, ExperimentConfig};
    pub use crate::json;
    pub use crate::report;
    pub use redbin_arith::{RbAdder, RbNumber};
    pub use redbin_sim::{
        BypassLevels, CoreModel, DatapathMode, MachineConfig, SimStats, Simulator,
    };
    pub use redbin_workload::{Benchmark, Scale, Suite};
}
