//! # redbin-serve — a zero-dependency batch simulation service
//!
//! The ROADMAP's north star is serving experiment results at production
//! scale; this crate provides the serving layer. It is std-only (the
//! workspace builds with no registry access) and speaks the
//! newline-delimited JSON envelope protocol defined in [`redbin::wire`].
//!
//! * [`server`] — the multi-threaded TCP job server behind the
//!   `redbin-served` binary: bounded queue, worker pool, per-job deadlines
//!   with cancellation, explicit `retry-after` backpressure, and graceful
//!   drain on shutdown.
//! * [`cache`] — the content-addressed result cache: keys are canonical
//!   FNV hashes of the fully-resolved experiment + machine configuration
//!   ([`redbin::wire::JobSpec::canonical_key`]), so identical submissions
//!   are served byte-identically without recomputation.
//! * [`client`] — a blocking client (the `redbin-submit` binary, and the
//!   `--server` client mode of `redbin-repro all`).
//!
//! See `SERVING.md` at the repository root for the wire protocol and an
//! end-to-end example.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod server;

pub use cache::ResultCache;
pub use client::{Client, ClientError, RetryPolicy};
pub use server::{ServeConfig, Server};
