//! Execution backends: where the surviving (sound, deduplicated) grid
//! points actually get simulated.
//!
//! * [`Backend::Local`] fans the specs through the deterministic
//!   in-process worker pool (`redbin::pool::run_jobs`) — the default,
//!   no server required.
//! * [`Backend::Server`] submits the specs to a running `redbin-served`
//!   instance over the wire protocol, from as many concurrent callers as
//!   the local pool would use threads. Because every spec is
//!   content-addressed, a re-run of the same (or an overlapping) grid
//!   reuses the server's result cache; the reported `cache_hit` flags
//!   make that reuse observable.

use std::time::Duration;

use redbin::experiments::{self, ExperimentConfig};
use redbin::json::Json;
use redbin::pool::run_jobs;
use redbin::wire::JobSpec;
use redbin_serve::Client;

/// Where simulations run.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// In-process worker pool.
    Local {
        /// Worker threads for the fan-out (0 = the experiment default,
        /// [`ExperimentConfig::default`]'s `threads`: the host's
        /// parallelism, at most 16).
        threads: usize,
        /// Use the O(n²) reference scheduler instead of the event-driven
        /// one (they are bit-identical; this exists to prove it).
        reference: bool,
    },
    /// A running `redbin-served` instance.
    Server {
        /// `host:port` of the server.
        addr: String,
    },
}

/// How long a server-side job may take end to end before the client
/// gives up. Grids submit small Test-scale jobs; ten minutes is a wide
/// margin even on a loaded machine.
const SERVER_JOB_TIMEOUT: Duration = Duration::from_secs(600);

/// The result of simulating one deduplicated spec.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The spec's content-addressed job id.
    pub job_id: String,
    /// Harmonic-mean IPC over the spec's benchmark suite.
    pub hmean: f64,
    /// `true` when a server answered from its result cache.
    pub cache_hit: bool,
}

/// Runs every spec through the chosen backend, preserving order.
///
/// # Errors
///
/// Returns a message naming the spec that failed (unbuildable machine,
/// wire error, server rejection, or a result body missing its
/// `hmean-ipc`).
pub fn run_specs(backend: &Backend, specs: &[JobSpec]) -> Result<Vec<SimOutcome>, String> {
    match backend {
        Backend::Local { threads, reference } => run_local(specs, *threads, *reference),
        Backend::Server { addr } => run_server(specs, addr),
    }
}

fn run_local(
    specs: &[JobSpec],
    threads: usize,
    reference: bool,
) -> Result<Vec<SimOutcome>, String> {
    let threads = if threads == 0 {
        ExperimentConfig::default().threads
    } else {
        threads
    };
    // One pool across points; each point simulates its benchmarks
    // serially (inner threads = 1) so parallelism comes from the grid.
    run_jobs(specs.len(), threads, |i| {
        let spec = &specs[i];
        let machine = spec
            .machine_configs()
            .into_iter()
            .next()
            .ok_or_else(|| format!("job {} has no buildable machine", spec.job_id()))?;
        let benches = spec.point.map(|p| p.suite.benchmarks()).unwrap_or_default();
        let result = experiments::run_point_with(&machine, &benches, spec.scale, 1, reference);
        Ok(SimOutcome {
            job_id: spec.job_id(),
            hmean: result.hmean,
            cache_hit: false,
        })
    })
    .into_iter()
    .collect()
}

fn run_server(specs: &[JobSpec], addr: &str) -> Result<Vec<SimOutcome>, String> {
    let client = Client::new(addr);
    // Concurrent callers, as many as the local pool would use, keep the
    // server's workers busy. Each caller waits on its own job, and
    // `run_to_completion` backs off when the server's queue is full.
    run_jobs(specs.len(), ExperimentConfig::default().threads, |i| {
        let spec = &specs[i];
        let job_id = spec.job_id();
        let (_, body, cache_hit) = client
            .run_to_completion(spec.clone(), None, SERVER_JOB_TIMEOUT)
            .map_err(|e| format!("job {job_id} failed against {addr}: {e}"))?;
        let hmean = body
            .get("hmean-ipc")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("job {job_id}: result body has no `hmean-ipc`"))?;
        Ok(SimOutcome {
            job_id,
            hmean,
            cache_hit,
        })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;

    #[test]
    fn local_backend_simulates_the_golden_grid() {
        let grid = GridSpec::golden_small();
        let specs: Vec<JobSpec> = grid
            .enumerate()
            .iter()
            .map(|p| p.job_spec(grid.suite, grid.scale))
            .collect();
        let outcomes = run_specs(
            &Backend::Local {
                threads: 0,
                reference: false,
            },
            &specs,
        )
        .expect("golden grid simulates");
        assert_eq!(outcomes.len(), specs.len());
        for (o, spec) in outcomes.iter().zip(&specs) {
            assert_eq!(o.job_id, spec.job_id());
            assert!(o.hmean > 0.0, "{}: IPC must be positive", o.job_id);
            assert!(!o.cache_hit);
        }
    }
}
