//! Workloads for the HPCA 2002 reproduction: a mini-assembler and twenty
//! benchmark-proxy kernels standing in for SPECint95 / SPECint2000.
//!
//! The paper evaluates on SPECint95 and SPECint2000 with reduced inputs.
//! SPEC binaries (and an Alpha compiler to produce them) are not available
//! here, so each benchmark is replaced by a hand-written **proxy kernel**
//! that mimics the dominant computation of its namesake — the pointer
//! chasing of `mcf`, the bitboards of `crafty`, the dispatch loop of
//! `m88ksim`, and so on. The proxies execute real control flow over real
//! data, so branch predictors, caches and schedulers are exercised the way
//! real programs exercise them; only the absolute IPC levels are not
//! comparable to the paper's.
//!
//! * [`asm::Asm`] — a tiny assembler with labels, used to write the
//!   kernels (and available to users for their own programs).
//! * [`suite::Benchmark`] — the twenty proxies, organized into
//!   [`suite::Suite::Spec95`] and [`suite::Suite::Spec2000`].
//! * [`programs::WholeProgram`] — five complete programs (quicksort,
//!   matmul, box blur, prime sieve, a QOI-style decoder) written in
//!   assembly text, each paired with a Rust reference checksum.
//! * [`profile`] — static/dynamic workload characterization.
//! * [`text`] — a full text assembler (sections, data directives,
//!   constant expressions, `.include`) for hand-written programs.
//! * [`fuzz`] — a seeded random-program torture generator for the
//!   differential test oracle.
//!
//! # Example
//!
//! ```
//! use redbin_workload::suite::{Benchmark, Scale};
//! use redbin_isa::Emulator;
//!
//! let prog = Benchmark::Mcf.program(Scale::Test);
//! let mut emu = Emulator::new(&prog);
//! let retired = emu.run(10_000_000).expect("kernel halts");
//! assert!(retired > 1_000);
//! ```

// Server-supplied custom programs assemble here on worker threads, so a
// panic on outside input would kill a queued job: failures are `Result`s,
// and the few panics left carry an `#[allow]` arguing why they cannot
// fire.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod fuzz;
pub mod kernels;
pub mod profile;
pub mod programs;
pub mod suite;
pub mod text;

pub use asm::Asm;
pub use programs::WholeProgram;
pub use suite::{Benchmark, Scale, Suite};
