//! # redbin-explore
//!
//! Design-space exploration over the machine configurations of the
//! HPCA 2002 redundant-binary pipeline reproduction.
//!
//! An exploration is a four-stage pipeline:
//!
//! 1. **Enumerate** — a declarative [`GridSpec`] cross
//!    product over widths, core models, bypass ablations, steering
//!    policies, the `rb_rf_only` escape hatch, and gate-delay models.
//! 2. **Prune** — every point runs through the static dataflow
//!    reachability proof (`redbin_analyze::bypass`) *before* any
//!    simulation; unsound points are rejected with per-reason counts.
//! 3. **Simulate** — surviving points deduplicate onto content-addressed
//!    [`JobSpec`]s (the delay axis never affects simulated IPC), and specs
//!    whose machines share a timing class
//!    ([`MachineConfig::timing_class`](redbin::sim::MachineConfig::timing_class))
//!    share one simulation: only each class's first spec fans out, through
//!    a local worker pool or a running `redbin-served` instance, where
//!    re-runs hit the cache.
//! 4. **Frontier** — the Pareto frontier of harmonic-mean IPC versus
//!    adder critical-path delay, reported as JSON, an ASCII table, and
//!    telemetry counters.
//!
//! All stages are deterministic: the same grid always yields the same
//! report document (the golden snapshot under `tests/golden/` pins one).

// A grid driver reports a bad point as a structured error instead of
// dying on it and taking the rest of the grid with it.
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

pub mod backend;
pub mod bounds;
pub mod delay;
pub mod grid;
pub mod pareto;
pub mod prune;
pub mod report;

use std::collections::{BTreeMap, BTreeSet};

use redbin::telemetry::MetricsRegistry;
use redbin::wire::JobSpec;

use backend::Backend;
use delay::adder_delay;
use grid::{GridPoint, GridSpec};
use pareto::Candidate;
use prune::PruneReport;

/// One sound, simulated grid point with both objective values attached.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluatedPoint {
    /// The grid point.
    pub point: GridPoint,
    /// The content-addressed id of this point's own job. Its `ipc` comes
    /// from the first job of its timing class, which may be another id.
    pub job_id: String,
    /// Harmonic-mean IPC over the grid's benchmark suite.
    pub ipc: f64,
    /// The suite's static dataflow-limit IPC for this point's model and
    /// width (bypass, steering and `rb_rf_only` cannot raise it).
    pub bound_ipc: f64,
    /// Critical-path delay of the point's adder under its delay model.
    pub delay: f64,
    /// `true` when the backend answered this point's simulation from a
    /// server-side cache.
    pub cache_hit: bool,
}

/// The complete result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreOutcome {
    /// The grid that was explored.
    pub grid: GridSpec,
    /// Static pruning statistics (sound and rejected points).
    pub prune: PruneReport,
    /// Every sound point, in enumeration order, with objectives.
    pub evaluated: Vec<EvaluatedPoint>,
    /// Indices into `evaluated` on the Pareto frontier, sorted by delay
    /// ascending.
    pub frontier: Vec<usize>,
    /// How many distinct job ids the sound points collapsed onto.
    pub unique_sims: usize,
    /// How many of the simulated specs (one per timing class, counted by
    /// the `explore.sims.run` metric) a server answered from cache.
    pub cache_hits: u64,
    /// Deterministic counters and histograms for the run. No wall-clock
    /// metrics on purpose: the outcome document must be byte-stable.
    pub metrics: MetricsRegistry,
}

/// Histogram bounds (milli-IPC) for the per-point IPC distribution.
const IPC_MILLI_BOUNDS: [u64; 7] = [250, 500, 750, 1000, 1500, 2000, 3000];

/// Runs the full enumerate → prune → simulate → frontier pipeline.
///
/// # Errors
///
/// Returns a message when a machine cannot be built or the backend
/// fails (unreachable server, rejected job, malformed result body).
pub fn explore(grid: &GridSpec, backend: &Backend) -> Result<ExploreOutcome, String> {
    let mut metrics = MetricsRegistry::new();
    metrics.register_histogram("explore.ipc.milli", &IPC_MILLI_BOUNDS);

    let points = grid.enumerate();
    metrics.add("explore.points.enumerated", points.len() as u64);

    let pruned = prune::prune(&points)?;
    metrics.add("explore.points.pruned", pruned.pruned.len() as u64);
    metrics.add("explore.points.sound", pruned.sound.len() as u64);

    // Points that differ only in delay model share a job id; jobs whose
    // machines share a timing class share a simulation. Only each class's
    // first spec in enumeration order runs, and every point keeps its own
    // job id but takes its class's result.
    let mut job_ids: BTreeSet<String> = BTreeSet::new();
    let mut class_index: BTreeMap<u64, usize> = BTreeMap::new();
    let mut specs: Vec<JobSpec> = Vec::new();
    let mut point_jobs: Vec<(String, usize)> = Vec::with_capacity(pruned.sound.len());
    for p in &pruned.sound {
        let spec = p.job_spec(grid.suite, grid.scale);
        let id = spec.job_id();
        job_ids.insert(id.clone());
        let class = p.machine()?.timing_class().canonical_hash();
        let idx = *class_index.entry(class).or_insert_with(|| {
            specs.push(spec);
            specs.len() - 1
        });
        point_jobs.push((id, idx));
    }
    metrics.add("explore.sims.unique", job_ids.len() as u64);

    // The dataflow limit depends only on (model, width): one trace of
    // the suite serves every point, and the per-point query is O(1).
    let suite_bounds = bounds::SuiteBounds::trace(grid.suite, grid.scale);

    let outcomes = backend::run_specs(backend, &specs)?;
    metrics.add("explore.sims.run", outcomes.len() as u64);
    let cache_hits = outcomes.iter().filter(|o| o.cache_hit).count() as u64;
    metrics.add("explore.sims.cache-hits", cache_hits);

    let evaluated: Vec<EvaluatedPoint> = pruned
        .sound
        .iter()
        .zip(point_jobs)
        .map(|(&point, (job_id, class))| EvaluatedPoint {
            point,
            job_id,
            ipc: outcomes[class].hmean,
            bound_ipc: suite_bounds.bound_ipc(point.model, point.width),
            delay: adder_delay(point.model, point.delay),
            cache_hit: outcomes[class].cache_hit,
        })
        .collect();
    for ep in &evaluated {
        metrics.observe("explore.ipc.milli", (ep.ipc * 1000.0).round() as u64);
    }

    let candidates: Vec<Candidate> = evaluated
        .iter()
        .enumerate()
        .map(|(index, ep)| Candidate {
            index,
            ipc: ep.ipc,
            delay: ep.delay,
        })
        .collect();
    let frontier = pareto::frontier(&candidates);
    metrics.add("explore.frontier.points", frontier.len() as u64);

    Ok(ExploreOutcome {
        grid: grid.clone(),
        prune: pruned,
        evaluated,
        frontier,
        unique_sims: job_ids.len(),
        cache_hits,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local() -> Backend {
        Backend::Local {
            threads: 0,
            reference: false,
        }
    }

    #[test]
    fn golden_grid_end_to_end() {
        let grid = GridSpec::golden_small();
        let out = explore(&grid, &local()).expect("explores");
        assert_eq!(out.prune.total(), 8);
        assert!(out.prune.pruned.is_empty());
        assert_eq!(out.evaluated.len(), 8);
        // All 8 points have distinct machines, so no dedup here.
        assert_eq!(out.unique_sims, 8);
        assert!(!out.frontier.is_empty());
        // The frontier is sorted by delay and internally non-dominated.
        for w in out.frontier.windows(2) {
            assert!(out.evaluated[w[0]].delay <= out.evaluated[w[1]].delay);
        }
        // No configuration beats its own dataflow limit.
        for ep in &out.evaluated {
            assert!(ep.bound_ipc > 0.0);
            assert!(ep.ipc <= ep.bound_ipc + 1e-9, "{}", ep.point.label());
        }
        assert_eq!(out.metrics.counter("explore.points.enumerated"), 8);
        assert_eq!(out.metrics.counter("explore.sims.cache-hits"), 0);
    }

    #[test]
    fn delay_axis_dedups_onto_shared_sims() {
        let mut grid = GridSpec::golden_small();
        grid.delay_models = vec![
            delay::DelayModelSpec::UnitGate,
            delay::DelayModelSpec::FanoutAware(0.2),
        ];
        let out = explore(&grid, &local()).expect("explores");
        assert_eq!(out.evaluated.len(), 16);
        assert_eq!(out.unique_sims, 8, "delay axis must not split sims");
        // Paired points agree on IPC but not (generally) on delay.
        for pair in out.evaluated.chunks(2) {
            assert_eq!(pair[0].ipc, pair[1].ipc);
            assert_eq!(pair[0].job_id, pair[1].job_id);
        }
    }
}
