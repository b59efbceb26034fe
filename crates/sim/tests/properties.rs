//! Property-based tests for the simulator's substrates: caches, banks,
//! the store queue, and the bypass-availability model.
//!
//! Inputs come from `redbin-testkit`'s deterministic generator (the
//! workspace builds offline, so there is no proptest); a failing case
//! prints its seed for standalone reproduction.

use redbin_sim::bypass::{BypassModel, OperandAvail, ResultTiming};
use redbin_sim::cache::{Banks, Cache, Lookup, MemoryHierarchy};
use redbin_sim::config::{BypassLevels, CoreModel, MachineConfig};
use redbin_sim::lsq::{LoadDecision, StoreQueue};
use redbin_testkit::{cases, Rng};

const CASES: usize = 1024;

fn any_machine(r: &mut Rng) -> MachineConfig {
    let model = *r.pick(&[
        CoreModel::Baseline,
        CoreModel::RbLimited,
        CoreModel::RbFull,
        CoreModel::Ideal,
    ]);
    let width = *r.pick(&[4usize, 8]);
    let (l1, l2, l3) = (r.next_bool(), r.next_bool(), r.next_bool());
    MachineConfig::new(model, width).with_bypass(BypassLevels {
        l1: l1 || (!l2 && !l3), // keep at least one level
        l2,
        l3,
    })
}

fn timing_for(model: CoreModel, ready: u64, rb: bool) -> ResultTiming {
    let rb = rb && model.is_rb();
    ResultTiming {
        ready,
        rb,
        tc_ready: if rb { ready + 2 } else { ready },
        cluster: 0,
    }
}

#[test]
fn availability_is_continuous_from_rf_start() {
    cases(CASES, 0x51, |r| {
        let cfg = any_machine(r);
        let ready = r.range_u64(5, 1000);
        let rb = r.next_bool();
        let need_tc = r.next_bool();
        let probe = r.range_u64(0, 40);
        let m = BypassModel::new(&cfg);
        let t = timing_for(cfg.model, ready, rb);
        let rf = m.rf_start(&t, need_tc, 0);
        assert!(
            m.available(&t, need_tc, 0, rf + probe),
            "must be available at rf_start {rf} + {probe}"
        );
        // Nothing is available at or before production.
        assert!(!m.available(&t, need_tc, 0, ready));
    });
}

#[test]
fn earliest_is_the_first_available_cycle() {
    cases(CASES, 0x52, |r| {
        let cfg = any_machine(r);
        let ready = r.range_u64(5, 1000);
        let rb = r.next_bool();
        let need_tc = r.next_bool();
        let from = r.range_u64(0, 1020);
        let m = BypassModel::new(&cfg);
        let t = timing_for(cfg.model, ready, rb);
        let e = m.earliest(&t, need_tc, 0, from);
        assert!(e >= from);
        assert!(m.available(&t, need_tc, 0, e));
        for c in from..e {
            assert!(
                !m.available(&t, need_tc, 0, c),
                "cycle {c} available but earliest said {e}"
            );
        }
    });
}

#[test]
fn unavailable_reason_classifies_every_pre_available_cycle() {
    use redbin_sim::bypass::UnavailableReason;
    cases(CASES, 0x53, |r| {
        let cfg = any_machine(r);
        let ready = r.range_u64(5, 1000);
        let rb = r.next_bool();
        let need_tc = r.next_bool();
        let m = BypassModel::new(&cfg);
        let t = timing_for(cfg.model, ready, rb);
        let rf = m.rf_start(&t, need_tc, 0);
        for e in ready.saturating_sub(2)..rf + 3 {
            let reason = m.unavailable_reason(&t, need_tc, 0, e);
            assert_eq!(
                reason.is_none(),
                m.available(&t, need_tc, 0, e),
                "reason/available must agree at cycle {e}"
            );
            // The result cannot be "in flight" after it exists.
            if reason == Some(UnavailableReason::InFlight) {
                assert!(e <= t.ready, "in-flight after production at {e}");
            }
            // Conversion waits only happen for redundant producers feeding
            // 2's-complement consumers.
            if reason == Some(UnavailableReason::ConversionWait) {
                assert!(t.rb && need_tc);
                assert!(e <= t.tc_ready);
            }
        }
    });
}

#[test]
fn cross_cluster_never_arrives_earlier() {
    cases(CASES, 0x54, |r| {
        let ready = r.range_u64(5, 1000);
        let rb = r.next_bool();
        let need_tc = r.next_bool();
        let from = r.range_u64(0, 1020);
        let cfg = MachineConfig::rb_full(8);
        let m = BypassModel::new(&cfg);
        let t = timing_for(cfg.model, ready, rb);
        let local = m.earliest(&t, need_tc, 0, from);
        let remote = m.earliest(&t, need_tc, 1, from);
        assert!(remote >= local);
        assert!(
            remote <= local + cfg.cluster_delay + 4,
            "remote {remote} unreasonably far past local {local}"
        );
    });
}

#[test]
fn fewer_bypass_levels_never_help() {
    cases(CASES, 0x55, |r| {
        let ready = r.range_u64(5, 1000);
        let need_tc = r.next_bool();
        let from = r.range_u64(0, 1020);
        let full = BypassModel::new(&MachineConfig::ideal(4));
        let cut =
            BypassModel::new(&MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[2])));
        let t = timing_for(CoreModel::Ideal, ready, false);
        assert!(cut.earliest(&t, need_tc, 0, from) >= full.earliest(&t, need_tc, 0, from));
    });
}

#[test]
fn operand_descriptors_answer_as_the_model_does() {
    use redbin_sim::bypass::UnavailableReason;
    // Every machine shape the descriptor encodes: the four models, all
    // eight level subsets (`No-1,2,3` included), with and without the
    // RB-RF-only datapath, conversion latencies 0-8 and cluster delays
    // 0-3; a 2's-complement or redundant producer, read in either format
    // from its own cluster or the other one.
    let ready = 10;
    let mut checked = 0u64;
    for &model in CoreModel::all() {
        for mask in 0..8u8 {
            let levels = BypassLevels {
                l1: mask & 1 != 0,
                l2: mask & 2 != 0,
                l3: mask & 4 != 0,
            };
            for rb_rf_only in [false, true] {
                for conversion in 0..=8u64 {
                    for delay in 0..=3u64 {
                        let mut cfg = MachineConfig::new(model, 8).with_bypass(levels);
                        cfg.rb_rf_only = rb_rf_only;
                        cfg.conversion_latency = conversion;
                        cfg.cluster_delay = delay;
                        let m = BypassModel::new(&cfg);
                        for rb in [false, true] {
                            if rb && !model.is_rb() {
                                continue; // only the RB machines produce redundant results
                            }
                            let r = ResultTiming {
                                ready,
                                rb,
                                tc_ready: if rb { ready + conversion } else { ready },
                                cluster: 0,
                            };
                            for need_tc in [false, true] {
                                for consumer in [0, 1] {
                                    for load_missed in [false, true] {
                                        let a = m.operand(&r, need_tc, consumer, load_missed);
                                        let label = format!(
                                            "{model} {} rb_rf_only={rb_rf_only} cv={conversion} \
                                             x={delay} rb={rb} need_tc={need_tc} \
                                             cluster={consumer}",
                                            levels.label()
                                        );
                                        checked +=
                                            check_descriptor(&m, &r, need_tc, consumer, &a, &label);
                                        assert_eq!(a.load_missed(), load_missed, "{label}");
                                        assert_eq!(a.rb(), rb, "{label}");
                                        assert_eq!(a.need_tc(), need_tc, "{label}");
                                        assert!(a.issued(), "{label}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(checked > 1_000_000, "only {checked} answers compared");
    // A producer that has not issued: in flight, never available.
    let pending = OperandAvail::pending(true);
    assert!(!pending.issued() && pending.need_tc() && !pending.load_missed());
    for e in [0, 1, 1000] {
        assert!(!pending.at(e));
        assert_eq!(pending.earliest(e), u64::MAX);
        assert_eq!(pending.reason(e), Some(UnavailableReason::InFlight));
    }
}

/// Compares every answer of descriptor `a` with the model's for the same
/// operand at each cycle up to eight past the register file (or, when no
/// register file ever serves it, well past the conversion); returns the
/// number of answers compared.
fn check_descriptor(
    m: &BypassModel,
    r: &ResultTiming,
    need_tc: bool,
    consumer: usize,
    a: &OperandAvail,
    label: &str,
) -> u64 {
    let rf = m.rf_start(r, need_tc, consumer);
    assert_eq!(a.rf_start(), rf, "{label}: rf_start");
    assert_eq!(
        a.in_flight_until(),
        m.in_flight_until(r, consumer),
        "{label}: in_flight_until"
    );
    let last = if rf == u64::MAX {
        r.tc_ready + 16
    } else {
        rf + 8
    };
    let mut n = 2;
    for e in 0..=last {
        assert_eq!(
            a.at(e),
            m.available(r, need_tc, consumer, e),
            "{label}: at {e}"
        );
        assert_eq!(
            a.earliest(e),
            m.earliest(r, need_tc, consumer, e),
            "{label}: earliest from {e}"
        );
        assert_eq!(
            a.reason(e),
            m.unavailable_reason(r, need_tc, consumer, e),
            "{label}: reason at {e}"
        );
        assert_eq!(
            a.from_bypass(e),
            m.from_bypass(r, need_tc, consumer, e),
            "{label}: from_bypass at {e}"
        );
        assert_eq!(
            a.level(e),
            m.level_used(r, need_tc, consumer, e),
            "{label}: level at {e}"
        );
        n += 5;
    }
    n
}

#[test]
fn cache_hits_after_fill_and_respects_capacity() {
    cases(256, 0x56, |r| {
        let n = r.range_usize(1, 200);
        let addrs = r.vec(n, |r| r.range_u64(0, 1 << 20));
        let mut c = Cache::new(8 * 1024, 2, 64);
        for &a in &addrs {
            match c.access(a) {
                Lookup::Miss => c.set_fill(a, 0),
                Lookup::Hit { .. } => {}
            }
            // Immediately re-accessing the same line must hit (MRU).
            let hit = matches!(c.access(a), Lookup::Hit { .. });
            assert!(hit, "MRU line must hit");
        }
        assert!(c.misses() <= c.accesses());
    });
}

#[test]
fn banks_start_times_are_feasible() {
    cases(256, 0x57, |r| {
        let n = r.range_usize(1, 100);
        let mut reqs = r.vec(n, |r| (r.range_u64(0, 1 << 16), r.range_u64(0, 500)));
        let mut b = Banks::new(4, 3, 6);
        // Issue in nondecreasing time order, as the pipeline does.
        reqs.sort_by_key(|r| r.1);
        for (addr, cycle) in reqs {
            let start = b.schedule(addr, cycle);
            assert!(start >= cycle, "bank served before the request");
        }
    });
}

#[test]
fn store_queue_forwarding_is_sound() {
    cases(CASES, 0x58, |r| {
        let store_addr = r.range_u64(0, 256);
        let load_off = r.range_u64(0, 16);
        let data_time = r.range_u64(1, 100);
        let exec = r.range_u64(1, 200);
        let mut q = StoreQueue::new();
        q.dispatch(1);
        q.set_address(1, store_addr, 8, 1);
        q.set_data_time(1, data_time);
        let load_addr = store_addr + load_off;
        match q.check_load(5, load_addr, 8, exec) {
            LoadDecision::Forward(t) => {
                // Only fully covered loads forward, and never before the
                // data exists or the load executes.
                assert!(load_off == 0, "partial overlap must not forward");
                assert!(t > exec.max(data_time) - 1);
            }
            LoadDecision::Blocked => {
                assert!(
                    load_off > 0 && load_off < 8,
                    "blocked requires a partial overlap here"
                );
            }
            LoadDecision::Cache => {
                assert!(load_off >= 8, "disjoint loads go to the cache");
            }
        }
    });
}

#[test]
fn hierarchy_latencies_are_ordered() {
    cases(CASES, 0x59, |r| {
        let addr = r.range_u64(0, 1 << 24);
        let mut h = MemoryHierarchy::new(
            (64 * 1024, 4, 64, 2),
            (8 * 1024, 2, 64, 2),
            (1024 * 1024, 8, 64, 8, 2, 2),
            (100, 32, 4),
        );
        let (cold, _) = h.access_data(addr, 0);
        let (warm, _) = h.access_data(addr, cold + 10);
        assert!(cold >= 102, "cold access goes to memory: {cold}");
        assert_eq!(warm, cold + 10 + 2, "warm access is an L1 hit");
    });
}
