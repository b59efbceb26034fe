//! End-to-end tests for `redbin-explore`: the default grid's static
//! pruning cross-checked against the bypass analyzer, the pinned golden
//! frontier for the small fixed grid, scheduler independence of the
//! whole report document, and one simulation per timing class through a
//! loopback server.
//!
//! To regenerate the golden after an intentional change:
//!
//! ```sh
//! REDBIN_REGEN_GOLDEN=1 cargo test --test integration_explore
//! ```

mod common;

use common::{check_golden, golden_dir};
use redbin::json;
use redbin::sim::{BypassLevels, CoreModel, SteeringPolicy};
use redbin_analyze::bypass::validate_machine;
use redbin_explore::backend::Backend;
use redbin_explore::delay::DelayModelSpec;
use redbin_explore::grid::GridSpec;
use redbin_explore::{explore, report};
use redbin_serve::{Client, ServeConfig, Server};

fn local() -> Backend {
    Backend::Local {
        threads: 0,
        reference: false,
    }
}

/// The default 448-point grid prunes exactly the §4.2 pathology, and
/// every verdict agrees with a direct call into the bypass analyzer.
#[test]
fn default_grid_pruning_matches_the_analyzer() {
    let spec = GridSpec::default();
    let points = spec.enumerate();
    assert_eq!(points.len(), 448, "the default grid is the acceptance grid");

    let report = redbin_explore::prune::prune(&points).expect("machines build");
    assert_eq!(report.sound.len(), 384);
    assert_eq!(report.pruned.len(), 64);
    assert_eq!(report.reasons.get("rb->tc local"), Some(&48));
    assert_eq!(report.reasons.get("rb->tc remote"), Some(&24));
    assert_eq!(report.reasons.get("rb->any local"), Some(&24));
    assert_eq!(report.reasons.get("rb->any remote"), Some(&12));
    assert_eq!(report.reasons.len(), 4, "no other rejection reasons");

    // Cross-check every single verdict against the analyzer itself.
    for p in &points {
        let machine = p.machine().expect("buildable");
        let analyzer_sound = validate_machine(&machine).is_ok();
        let kept = report.sound.contains(p);
        assert_eq!(
            kept,
            analyzer_sound,
            "{}: prune and analyzer disagree",
            p.label()
        );
    }
}

/// The small fixed grid's full report document is pinned byte-for-byte:
/// grid, pruning stats, every evaluated point, the frontier, and the
/// telemetry counters.
#[test]
fn small_grid_frontier_matches_golden() {
    let grid = GridSpec::golden_small();
    let outcome = explore(&grid, &local()).expect("explores");
    let doc = report::to_json(&outcome);
    // Every point reports its static dataflow limit, and no simulated
    // IPC exceeds it — the frontier invariant behind `pct-of-bound`.
    let points = doc
        .get("points")
        .and_then(json::Json::as_array)
        .expect("points");
    assert_eq!(points.len(), 8);
    for p in points {
        let ipc = p
            .get("hmean-ipc")
            .and_then(json::Json::as_f64)
            .expect("ipc");
        let bound = p
            .get("bound-ipc")
            .and_then(json::Json::as_f64)
            .expect("bound");
        assert!(bound > 0.0);
        assert!(
            ipc <= bound + 1e-9,
            "simulated IPC beats the dataflow limit"
        );
    }
    check_golden("explore_frontier_test.json", &doc.to_pretty());
}

/// The report document is identical under the event-driven and the O(n²)
/// reference schedulers — the frontier cannot depend on which one ran.
#[test]
fn frontier_is_stable_across_schedulers() {
    let grid = GridSpec::golden_small();
    let event = explore(&grid, &local()).expect("event-driven");
    let reference = explore(
        &grid,
        &Backend::Local {
            threads: 0,
            reference: true,
        },
    )
    .expect("reference");
    assert_eq!(
        report::to_json(&event).to_pretty(),
        report::to_json(&reference).to_pretty(),
        "schedulers must be bit-identical all the way to the report"
    );
}

/// The explore grid's job ids are pinned in the shared canonical-hash
/// manifest (`tests/golden/canonical_hashes.json`); drift there silently
/// invalidates every warm `redbin-served` cache.
#[test]
fn explore_grid_ids_match_the_hash_manifest() {
    let path = golden_dir().join("canonical_hashes.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); regenerate integration_golden",
            path.display()
        )
    });
    let doc = json::parse(&text).expect("manifest parses");
    let section = doc
        .get("explore-grid")
        .expect("manifest has an explore-grid section");

    let grid = GridSpec::golden_small();
    let mut checked = 0;
    for p in grid.enumerate() {
        let key = format!("{}-w{}-{}", p.model.name(), p.width, p.bypass.label());
        let pinned = section
            .get(&key)
            .and_then(json::Json::as_str)
            .unwrap_or_else(|| panic!("manifest missing `{key}`"));
        assert_eq!(
            pinned,
            p.job_spec(grid.suite, grid.scale).job_id(),
            "{key}: explore job id drifted from the pinned manifest"
        );
        checked += 1;
    }
    assert_eq!(checked, 8);
}

/// A report produced through the JSON spec decoder matches one from the
/// equivalent programmatic grid: the CLI's `--spec` path has no side
/// channel.
#[test]
fn spec_file_roundtrip_produces_the_same_report() {
    let grid = GridSpec::golden_small();
    let decoded = GridSpec::from_json(&grid.to_json()).expect("decodes");
    let a = explore(&grid, &local()).expect("explores");
    let b = explore(&decoded, &local()).expect("explores");
    assert_eq!(
        report::to_json(&a).to_pretty(),
        report::to_json(&b).to_pretty()
    );
}

/// Through a server too, each timing class is simulated once: Baseline
/// and Ideal at width 4 under both steerings and both `rb-rf-only`
/// settings are 8 job ids in 2 classes. The report equals the local
/// backend's, the server queues 2 jobs, and a rerun is 2 cache hits.
#[test]
fn server_backend_simulates_each_timing_class_once() {
    let grid = GridSpec {
        widths: vec![4],
        models: vec![CoreModel::Baseline, CoreModel::Ideal],
        bypass: vec![BypassLevels::FULL],
        steering: SteeringPolicy::all().to_vec(),
        rb_rf_only: vec![false, true],
        delay_models: vec![DelayModelSpec::UnitGate],
        ..GridSpec::golden_small()
    };
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..Default::default()
        },
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("local addr").to_string();
    let handle = std::thread::spawn(move || server.run());
    let backend = Backend::Server { addr: addr.clone() };

    let cold = explore(&grid, &backend).expect("explores through the server");
    assert_eq!(cold.unique_sims, 8);
    assert_eq!(cold.metrics.counter("explore.sims.run"), 2);
    assert_eq!(cold.cache_hits, 0);
    let local_run = explore(&grid, &local()).expect("explores locally");
    assert_eq!(
        report::to_json(&cold).to_pretty(),
        report::to_json(&local_run).to_pretty(),
        "server and local backends must agree on the whole report"
    );

    let client = Client::new(addr);
    let stats = client.stats().expect("stats");
    let submitted = stats
        .get("jobs")
        .and_then(|jobs| jobs.get("submitted"))
        .and_then(json::Json::as_u64);
    assert_eq!(submitted, Some(2), "one job per timing class");

    let warm = explore(&grid, &backend).expect("re-explores through the server");
    assert_eq!(warm.cache_hits, 2);
    assert_eq!(warm.metrics.counter("explore.sims.run"), 2);
    for (w, c) in warm.evaluated.iter().zip(&cold.evaluated) {
        assert!(
            w.cache_hit,
            "{}: every point takes its class's hit",
            w.job_id
        );
        assert_eq!((&w.job_id, w.ipc), (&c.job_id, c.ipc));
    }

    client.shutdown().expect("shutdown accepted");
    handle.join().expect("server thread").expect("clean exit");
}
