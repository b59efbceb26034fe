//! Golden-snapshot tests: the JSON serialization of three cheap experiments
//! is compared byte-for-byte against checked-in files under
//! `tests/golden/`. Any drift — in the simulator, the experiment drivers,
//! or the JSON writer — fails the diff with enough context to review.
//!
//! To regenerate after an intentional change:
//!
//! ```sh
//! REDBIN_REGEN_GOLDEN=1 cargo test --test integration_golden
//! ```
//!
//! then inspect `git diff tests/golden/` before committing.

mod common;

use common::check_golden;
use redbin::experiments::{self, ExperimentConfig};
use redbin::json;
use redbin::wire::{ExperimentKind, JobSpec};
use redbin::workload::{Scale, Suite};

fn quick_config() -> ExperimentConfig {
    // Test scale, fixed settings: thread count must not matter (run_jobs
    // preserves order), which `determinism_across_thread_counts` checks.
    ExperimentConfig::quick()
}

/// Renders `figure_ipc(8, Spec95)` at test scale — the first golden.
fn render_figure_ipc() -> String {
    let fig = experiments::figure_ipc(8, Suite::Spec95, &quick_config());
    json::ipc_figure(&fig).to_pretty()
}

/// Renders `figure13` at test scale — the second golden.
fn render_figure13() -> String {
    let fig = experiments::figure13(&quick_config());
    json::figure13(&fig).to_pretty()
}

/// Renders the whole-program suite at test scale — the third golden. Pins
/// per-program IPC, the full stall-cause breakdown, and the
/// emulator-verified checksums for all five programs on all four machines.
fn render_programs() -> String {
    let rep = experiments::programs(&quick_config());
    json::programs(&rep).to_pretty()
}

/// Renders the canonical-hash manifest: the content-addressed job id of
/// every experiment at every scale, plus the per-model machine-config
/// hashes behind Figure 9. These ids double as `redbin-served` cache
/// keys, so any drift silently invalidates every warm cache in the fleet
/// — pin them like any other golden.
fn render_hash_manifest() -> String {
    let mut doc = json::Json::object();
    doc.set(
        "note",
        json::Json::Str(
            "content-addressed job ids (FNV-1a/64 of the resolved config); \
             these are redbin-served cache keys — see SERVING.md"
                .to_string(),
        ),
    );
    let mut jobs = json::Json::object();
    for &kind in ExperimentKind::all() {
        if kind == ExperimentKind::Sleep {
            continue; // sleep ids hash the duration, not a config
        }
        if kind == ExperimentKind::Point {
            continue; // point jobs need a spec; pinned under `explore-grid`
        }
        if kind == ExperimentKind::Custom {
            continue; // custom ids hash the submitted source, not a preset
        }
        for scale in [Scale::Test, Scale::Small, Scale::Full] {
            let spec = JobSpec::new(kind, scale);
            jobs.set(
                &format!("{}-{}", kind.name(), scale.name()),
                json::Json::Str(spec.job_id()),
            );
        }
    }
    doc.set("jobs", jobs);
    let mut machines = json::Json::object();
    for cfg in JobSpec::new(ExperimentKind::Figure9, Scale::Test).machine_configs() {
        machines.set(
            cfg.model.name(),
            json::Json::Str(format!("{:016x}", cfg.canonical_hash())),
        );
    }
    doc.set("figure9-machines", machines);
    let mut explore = json::Json::object();
    for &model in redbin::sim::CoreModel::all() {
        for bypass in [
            redbin::sim::BypassLevels::FULL,
            redbin::sim::BypassLevels::without(&[2]),
        ] {
            // The `redbin-explore` golden small grid: width 8,
            // round-robin steering, quick suite, test scale. Mirror the
            // explorer's normalization — a full network folds as the
            // default, never as an override.
            let mut spec = JobSpec::point(
                redbin::wire::PointSpec {
                    model,
                    width: 8,
                    steering: redbin::sim::SteeringPolicy::RoundRobinPairs,
                    suite: redbin::wire::PointSuite::Quick,
                },
                Scale::Test,
            );
            if bypass != redbin::sim::BypassLevels::FULL {
                spec = spec.with_bypass(bypass);
            }
            explore.set(
                &format!("{}-w8-{}", model.name(), bypass.label()),
                json::Json::Str(spec.job_id()),
            );
        }
    }
    doc.set("explore-grid", explore);
    doc.to_pretty()
}

#[test]
fn figure_ipc_w8_spec95_matches_golden() {
    check_golden("figure_ipc_w8_spec95_test.json", &render_figure_ipc());
}

#[test]
fn figure13_matches_golden() {
    check_golden("figure13_test.json", &render_figure13());
}

#[test]
fn programs_suite_matches_golden() {
    check_golden("programs_test.json", &render_programs());
}

#[test]
fn canonical_hashes_match_pinned_manifest() {
    check_golden("canonical_hashes.json", &render_hash_manifest());
}

#[test]
fn hash_manifest_is_stable_and_collision_free() {
    // Same process, two renders: byte-identical. And every pinned id is
    // distinct — a collision would alias two different cache entries.
    let text = render_hash_manifest();
    assert_eq!(text, render_hash_manifest());
    let doc = json::parse(&text).expect("manifest parses");
    let json::Json::Obj(jobs) = doc.get("jobs").expect("jobs") else {
        panic!("jobs is an object")
    };
    let mut seen = std::collections::HashSet::new();
    for (name, id) in jobs {
        let id = id.as_str().expect("id string");
        assert_eq!(id.len(), 16, "{name}: 16 hex digits");
        assert!(seen.insert(id.to_string()), "{name}: duplicate job id {id}");
    }
    assert!(seen.len() >= 27, "10 experiments x 3 scales minus sleep");
    // The explore-grid point jobs are content-addressed through the same
    // key space and must not collide with any experiment id.
    let json::Json::Obj(explore) = doc.get("explore-grid").expect("explore-grid") else {
        panic!("explore-grid is an object")
    };
    assert_eq!(explore.len(), 8, "4 models x 2 bypass configs");
    for (name, id) in explore {
        let id = id.as_str().expect("id string");
        assert_eq!(id.len(), 16, "{name}: 16 hex digits");
        assert!(seen.insert(id.to_string()), "{name}: duplicate job id {id}");
    }
}

#[test]
fn rendering_is_deterministic_run_to_run() {
    // Two full runs in the same process: the simulators, the thread pool,
    // and the float formatting must all be reproducible.
    assert_eq!(render_figure_ipc(), render_figure_ipc());
    assert_eq!(render_figure13(), render_figure13());
    assert_eq!(render_programs(), render_programs());
}

#[test]
fn determinism_across_thread_counts() {
    // `run_jobs` preserves result order regardless of the worker count, so
    // the document must not depend on parallelism.
    let mut one = quick_config();
    one.threads = 1;
    let mut many = quick_config();
    many.threads = 8;
    let a = json::ipc_figure(&experiments::figure_ipc(8, Suite::Spec95, &one)).to_pretty();
    let b = json::ipc_figure(&experiments::figure_ipc(8, Suite::Spec95, &many)).to_pretty();
    assert_eq!(a, b);
}

#[test]
fn goldens_are_valid_json_with_complete_stall_accounting() {
    let text = render_figure_ipc();
    let doc = json::parse(&text).expect("golden parses");
    let rows = doc
        .get("rows")
        .and_then(json::Json::as_array)
        .expect("rows");
    assert_eq!(rows.len(), 8, "SPECint95 has 8 benchmarks");
    for row in rows {
        let stats = row.get("stats").expect("stats per model");
        let json::Json::Obj(models) = stats else {
            panic!("stats is an object")
        };
        assert_eq!(models.len(), 4);
        for (model, s) in models {
            let stall = s.get("stall").expect("stall");
            let used = stall.get("used").and_then(json::Json::as_u64).unwrap();
            let charged = stall.get("charged").and_then(json::Json::as_u64).unwrap();
            let total = stall
                .get("total-slots")
                .and_then(json::Json::as_u64)
                .unwrap();
            assert_eq!(
                used + charged,
                total,
                "{model}: stall accounting must cover every slot"
            );
        }
    }
}
