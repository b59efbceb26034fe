//! Observer-API equivalence and telemetry round-trip.
//!
//! `run_observed` is the only run path; `run()` and `run_traced()` are
//! thin wrappers over it with different observers plugged in. These tests
//! pin that claim: a no-op observer must be invisible (bit-identical
//! [`SimStats`] to the plain run, and therefore to the golden snapshots),
//! and the hook stream must carry the same information as the hardwired
//! counters it replaced.

use redbin::json;
use redbin::prelude::*;
use redbin::sim::stats::BypassCase;
use redbin::sim::{NoopObserver, Stage, StatsObserver, TelemetryObserver};

#[test]
fn noop_observer_is_bit_identical_to_plain_run() {
    for b in [Benchmark::Go, Benchmark::Perl, Benchmark::Mcf] {
        let program = b.program(Scale::Test);
        for &model in CoreModel::all() {
            let cfg = MachineConfig::new(model, 8);
            let plain = Simulator::new(cfg.clone(), &program).run().expect("runs");
            let observed = Simulator::new(cfg.clone(), &program)
                .run_observed(&mut NoopObserver)
                .expect("runs");
            let (traced, _) = Simulator::new(cfg, &program).run_traced().expect("runs");
            assert_eq!(
                plain, observed,
                "{b:?} {model}: no-op observer changed stats"
            );
            assert_eq!(plain, traced, "{b:?} {model}: tracing changed stats");
        }
    }
}

#[test]
fn stats_observer_rederives_the_hardwired_counters() {
    for b in [Benchmark::Gap, Benchmark::Gzip] {
        let program = b.program(Scale::Test);
        let cfg = MachineConfig::rb_limited(8);
        let mut obs = StatsObserver::default();
        let stats = Simulator::new(cfg, &program)
            .run_observed(&mut obs)
            .expect("runs");
        assert_eq!(obs.cycles, stats.cycles, "{b:?}: cycle hooks");
        assert_eq!(obs.retired, stats.retired, "{b:?}: retire hooks");
        assert_eq!(obs.bypass_levels, stats.bypass_levels, "{b:?}: level hooks");
        assert_eq!(
            obs.stage_hist[Stage::Fetch.index()],
            stats.fetch_hist,
            "{b:?}: fetch occupancy"
        );
        assert_eq!(
            obs.stage_hist[Stage::Rename.index()],
            stats.dispatch_hist,
            "{b:?}: dispatch occupancy"
        );
        assert_eq!(
            obs.stage_hist[Stage::Issue.index()],
            stats.issue_hist,
            "{b:?}: issue occupancy"
        );
        // `on_bypass` is a per-operand stream: every event carries one
        // level and one case, so the two breakdowns sum identically.
        let case_total: u64 = obs.case_counts.iter().sum();
        let level_total: u64 = obs.bypass_levels.iter().sum();
        assert_eq!(
            case_total, level_total,
            "{b:?}: one case per leveled operand"
        );
        assert!(case_total > 0, "{b:?}: bypass events must flow");
        let recorded: u64 = BypassCase::all()
            .iter()
            .map(|&c| stats.bypass_cases.count(c))
            .sum();
        assert!(
            case_total >= recorded,
            "{b:?}: per-operand stream ({case_total}) must cover the \
             per-instruction critical-operand record ({recorded})"
        );
        // Every stage except fetch fires exactly once per cycle; fetch is
        // skipped while stalled on a redirect or icache miss.
        for stage in Stage::ALL {
            let total: u64 = obs.stage_hist[stage.index()].iter().sum();
            if stage == Stage::Fetch {
                assert!(total <= stats.cycles, "{b:?}: fetch oversampled");
                assert_eq!(total, stats.fetch_hist.iter().sum::<u64>(), "{b:?}: fetch");
            } else {
                assert_eq!(total, stats.cycles, "{b:?}: {} samples", stage.label());
            }
        }
    }
}

#[test]
fn telemetry_registry_round_trips_through_json() {
    let program = Benchmark::Perlbmk.program(Scale::Test);
    let mut obs = TelemetryObserver::new();
    let stats = Simulator::new(MachineConfig::rb_full(8), &program)
        .run_observed(&mut obs)
        .expect("runs");
    let reg = obs.into_registry();
    let doc = json::metrics(&reg);
    let parsed = json::parse(&doc.to_pretty()).expect("valid JSON");

    let counter = |name: &str| {
        parsed
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_u64)
            .unwrap_or_else(|| panic!("counter {name} missing"))
    };
    assert_eq!(counter("sim-cycles"), stats.cycles);
    assert_eq!(counter("sim-retired"), stats.retired);
    for (i, &n) in stats.bypass_levels.iter().enumerate() {
        assert_eq!(counter(&format!("bypass-level-{}", i + 1)), n);
    }

    // Histogram invariant: each stage fires once per cycle (fetch is
    // skipped on redirect/miss stall cycles), so every stage-occupancy
    // histogram's bucket counts sum to the cycle counter, and always to
    // the histogram's own sample count.
    let hists = parsed.get("histograms").expect("histograms section");
    for stage in Stage::ALL {
        let h = hists
            .get(&format!("stage-occupancy-{}", stage.label()))
            .unwrap_or_else(|| panic!("{} histogram missing", stage.label()));
        let counts = h
            .get("counts")
            .and_then(json::Json::as_array)
            .expect("counts");
        let total: u64 = counts.iter().filter_map(json::Json::as_u64).sum();
        assert_eq!(
            h.get("count").and_then(json::Json::as_u64),
            Some(total),
            "{}: bucket sum vs sample count",
            stage.label()
        );
        if stage == Stage::Fetch {
            assert!(total <= stats.cycles, "fetch: bucket sum {total}");
        } else {
            assert_eq!(total, stats.cycles, "{}: bucket sum", stage.label());
        }
    }

    // Gauges are sanitised at registration: everything parses back finite.
    let gauges = parsed.get("gauges").expect("gauges section");
    for name in [
        "sim-wall-seconds",
        "instructions-per-second",
        "cycles-per-second",
    ] {
        let v = gauges
            .get(name)
            .and_then(json::Json::as_f64)
            .unwrap_or_else(|| panic!("gauge {name} missing"));
        assert!(v.is_finite() && v >= 0.0, "{name} = {v}");
    }
    for stage in Stage::ALL {
        let v = gauges
            .get(&format!("phase-seconds-{}", stage.label()))
            .and_then(json::Json::as_f64)
            .expect("phase gauge");
        assert!(v.is_finite() && v >= 0.0, "phase-seconds-{}", stage.label());
    }
}
