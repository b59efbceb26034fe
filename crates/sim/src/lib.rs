//! A cycle-level out-of-order execution core simulator with dual-format
//! (redundant binary / 2's complement) result tracking and limited bypass
//! networks — the machine model of Brown & Patt, HPCA 2002 (§4–§5).
//!
//! The simulator models the paper's Table 2 machine: 8-wide fetch (two
//! basic blocks per cycle) through a hybrid gshare/PAs predictor and a
//! pipelined instruction cache, 2-cycle rename, a 128-entry instruction
//! window split into select-2 schedulers, a 2-cycle register file,
//! homogeneous functional units with Table 3 latencies, a clustered 8-wide
//! backend (+1 cycle inter-cluster forwarding), an 8 KB L1D / 1 MB L2 /
//! 100-cycle memory hierarchy with bank contention, and conservative
//! memory disambiguation with store-to-load forwarding.
//!
//! The four machine models of §5.1 are presets of [`MachineConfig`]:
//!
//! * **Baseline** — 2-cycle pipelined 2's-complement adders.
//! * **RB-limited** — 1-cycle redundant adders, TC register files only,
//!   and the §4.2 limited bypass network (a 2-cycle hole in redundant
//!   result availability).
//! * **RB-full** — 1-cycle redundant adders with both TC and RB register
//!   files (full availability).
//! * **Ideal** — 1-cycle 2's-complement adders.
//!
//! The front end is *oracle-driven*: instructions are executed
//! architecturally (via [`redbin_isa::Emulator`]) as they are fetched, so
//! branch outcomes and memory addresses are exact; the timing model replays
//! the resulting stream. Mispredicted branches stall fetch until they
//! resolve at execute (wrong-path instructions are not simulated — a
//! substitution documented in DESIGN.md that affects all machine models
//! identically).
//!
//! # Example
//!
//! ```
//! use redbin_sim::{MachineConfig, Simulator};
//! use redbin_workload::{Benchmark, Scale};
//!
//! let config = MachineConfig::rb_full(8);
//! let program = Benchmark::Go.program(Scale::Test);
//! let stats = Simulator::new(config, &program).run().expect("sim runs");
//! assert!(stats.ipc() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bpred;
pub mod bypass;
pub mod cache;
pub mod config;
pub mod core;
pub mod fidelity;
pub mod hash;
pub mod lsq;
pub mod observer;
pub mod oracle;
pub mod stats;
pub mod trace;

pub use config::{
    BypassLevels, ConfigError, CoreModel, DatapathMode, MachineConfig, SteeringPolicy,
};
pub use core::Simulator;
pub use observer::{
    NoopObserver, RetireEvent, SimObserver, Stage, StatsObserver, TelemetryObserver, TraceObserver,
};
pub use stats::SimStats;
