//! Std-only metrics and monotonic timing for the redbin workspace.
//!
//! Like `redbin::json`, this crate deliberately has **zero dependencies**:
//! everything an instrumented binary needs — counters, gauges, fixed-bucket
//! histograms, a monotonic [`Clock`], and a deterministic text exposition
//! format — lives here. Every other crate in the workspace is expected to
//! take wall-clock samples through this crate; clippy's
//! `disallowed_methods` (the workspace `clippy.toml`) rejects raw
//! `Instant::now()` calls anywhere else, so timing policy (monotonicity,
//! sanitisation of non-finite values) stays in one place.
//!
//! See `OBSERVABILITY.md` at the workspace root for the metric-name
//! conventions and how these pieces surface in `--json` output and the
//! `redbin-served` `METRICS` wire command.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The one crate that reads `Instant::now()`; see `clippy.toml`.
#![allow(clippy::disallowed_methods)]

pub mod clock;
pub mod registry;

pub use clock::{Clock, Deadline, Stopwatch};
pub use registry::{Histogram, MetricsRegistry, DEFAULT_TIME_BOUNDS_MS};
