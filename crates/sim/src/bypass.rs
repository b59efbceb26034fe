//! The result-availability model: multi-level bypass networks, format
//! conversion timing, limited-bypass holes, and cluster forwarding delays.
//!
//! This module is the heart of the reproduction. Every in-flight result is
//! summarized by a [`ResultTiming`]; [`BypassModel::available`] answers the
//! scheduler's question "can this consumer execute at cycle *e* with that
//! operand?", encoding:
//!
//! * the three bypass levels a 2-cycle register file requires (a result
//!   finishing at the end of cycle *t* is bypassable to executions starting
//!   at *t+1*, *t+2*, *t+3*, and readable from the register file from
//!   *t+4*);
//! * redundant binary producers, whose 2's-complement form only exists
//!   after the CV1/CV2 conversion;
//! * the §4.2 **limited** network (no BYP-2, BYP-3 unusable by redundant
//!   consumers → a 2-cycle hole);
//! * the RB-full machine's redundant register file (continuous redundant
//!   availability);
//! * Figure 14's removed levels on the Ideal machine; and
//! * the +1 cycle inter-cluster forwarding delay of the 8-wide machine.

// `UnavailableReason` is designed to grow: a wildcard arm would absorb a
// new reason instead of forcing the stall accounting to place it.
#![deny(
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]

use crate::config::{BypassLevels, CoreModel, MachineConfig, SCHED_TO_EXEC};
use crate::stats::StallCause;

/// When and in what format one instruction's result becomes available.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResultTiming {
    /// End-of-execute cycle of the primary (earliest-format) result.
    pub ready: u64,
    /// `true` if the primary result is redundant binary.
    pub rb: bool,
    /// The cycle the 2's-complement form exists (`ready` for TC producers,
    /// `ready + conversion` for redundant ones).
    pub tc_ready: u64,
    /// The producer's cluster.
    pub cluster: usize,
}

/// Why an operand that is *not* available at some cycle is unavailable —
/// feeds the stall-cause accounting in [`crate::stats::StallBreakdown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnavailableReason {
    /// The result has not been produced (or has not reached this cluster)
    /// yet.
    InFlight,
    /// The result exists in redundant form but the consumer needs 2's
    /// complement and the CV1/CV2 conversion has not completed.
    ConversionWait,
    /// The result exists in the needed format, but no bypass level covers
    /// this cycle and the register file cannot serve it yet — a hole in a
    /// limited bypass network.
    Hole,
}

impl UnavailableReason {
    /// The stall cause charged to a consumer that waits for an operand
    /// unavailable for this reason. `load_missed` says the producer is a
    /// load that missed the L1 D-cache, which makes an in-flight wait a
    /// cache-miss wait.
    pub(crate) fn stall_cause(self, load_missed: bool) -> StallCause {
        match self {
            UnavailableReason::InFlight if load_missed => StallCause::CacheMiss,
            UnavailableReason::InFlight => StallCause::OperandWait,
            UnavailableReason::ConversionWait => StallCause::ConversionWait,
            UnavailableReason::Hole => StallCause::BypassHole,
        }
    }
}

/// The [`BypassModel`]'s answers for one source operand — one producer's
/// [`ResultTiming`], read in one format from one cluster — worked out
/// once, when the producer issues ([`BypassModel::operand`]). The
/// scheduler asks it every cycle the consumer waits; every answer equals
/// the model's for the same question (pinned by the property tests and,
/// through the reference scheduler, by the lockstep suite).
///
/// The operand is available at `e` if `e >= cont`, or if `e` is one of
/// the discrete bypass slots `formed + 1 + k` (bit `k` of `slots`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperandAvail {
    /// The last cycle the value is still in flight
    /// ([`BypassModel::in_flight_until`]).
    until: u64,
    /// The cycle the value exists in the consumer's format, so that no
    /// consumer can source it earlier than the next one: the end of the
    /// conversion (`tc_ready` + cluster delay) for a redundant producer
    /// read as 2's complement, `until` otherwise.
    formed: u64,
    /// The first cycle from which the value is always available
    /// (`u64::MAX`: never).
    cont: u64,
    /// [`BypassModel::rf_start`] (`u64::MAX`: never).
    rf: u64,
    /// Discrete bypass slots: bit `k` is the cycle `formed + 1 + k`.
    slots: u8,
    flags: u8,
}

impl OperandAvail {
    const RB: u8 = 1;
    const NEED_TC: u8 = 2;
    const LOAD_MISSED: u8 = 4;
    /// The redundant register file backs up BYP-1 (an RB-full machine's
    /// redundant consumer of a redundant result).
    const RB_RF: u8 = 8;

    /// An operand whose producer has not issued: in flight for as long
    /// as anyone asks, with no availability to bind.
    pub fn pending(need_tc: bool) -> Self {
        OperandAvail {
            until: u64::MAX,
            formed: u64::MAX,
            cont: u64::MAX,
            rf: u64::MAX,
            slots: 0,
            flags: u8::from(need_tc) * Self::NEED_TC,
        }
    }

    /// `true` once the producer has issued ([`BypassModel::operand`]),
    /// `false` for [`OperandAvail::pending`].
    pub fn issued(&self) -> bool {
        self.until != u64::MAX
    }

    /// Whether the consumer needs the 2's-complement form.
    pub fn need_tc(&self) -> bool {
        self.flags & Self::NEED_TC != 0
    }

    /// Whether the producer's result is redundant binary.
    pub fn rb(&self) -> bool {
        self.flags & Self::RB != 0
    }

    /// Whether the producer is a load that missed the L1 data cache.
    pub fn load_missed(&self) -> bool {
        self.flags & Self::LOAD_MISSED != 0
    }

    /// [`BypassModel::in_flight_until`].
    pub fn in_flight_until(&self) -> u64 {
        self.until
    }

    /// [`BypassModel::rf_start`].
    pub fn rf_start(&self) -> u64 {
        self.rf
    }

    fn slot(&self, e: u64) -> bool {
        match e.checked_sub(self.formed) {
            Some(d @ 1..=8) => self.slots >> (d - 1) & 1 != 0,
            _ => false,
        }
    }

    /// [`BypassModel::available`]: can the consumer execute at `e`?
    pub fn at(&self, e: u64) -> bool {
        e >= self.cont || self.slot(e)
    }

    /// [`BypassModel::earliest`]: the first cycle ≥ `from` at which the
    /// operand is available (`u64::MAX` if none is).
    pub fn earliest(&self, from: u64) -> u64 {
        let mut best = self.cont.max(from);
        if self.slots != 0 {
            let first = self.formed + 1;
            let skip = from.saturating_sub(first);
            if let Some(rest) = self.slots.checked_shr(skip.min(8) as u32) {
                if rest != 0 {
                    best = best.min(first + skip + u64::from(rest.trailing_zeros()));
                }
            }
        }
        best
    }

    /// [`BypassModel::unavailable_reason`]: why the operand cannot be
    /// sourced at `e`, or `None` if it can.
    pub fn reason(&self, e: u64) -> Option<UnavailableReason> {
        if self.at(e) {
            None
        } else if e <= self.until {
            Some(UnavailableReason::InFlight)
        } else if e <= self.formed {
            Some(UnavailableReason::ConversionWait)
        } else {
            Some(UnavailableReason::Hole)
        }
    }

    /// [`BypassModel::from_bypass`]: does sourcing at `e` use a bypass
    /// path rather than the register file?
    pub fn from_bypass(&self, e: u64) -> bool {
        if self.flags & Self::RB_RF != 0 {
            return e == self.until + 1;
        }
        e < self.rf
    }

    /// [`BypassModel::level_used`]: the bypass level (1–3) that delivers
    /// the operand at `e`, or `None` if the register file serves it or it
    /// is not available.
    pub fn level(&self, e: u64) -> Option<u8> {
        if !self.at(e) || !self.from_bypass(e) {
            return None;
        }
        Some(if !self.rb() {
            // A 2's-complement result reaches `e` through the level
            // equal to its forwarding distance.
            (e - self.until) as u8
        } else if self.need_tc() {
            3
        } else {
            1
        })
    }
}

/// The availability oracle for one machine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BypassModel {
    model: CoreModel,
    levels: BypassLevels,
    cluster_delay: u64,
    rb_rf_only: bool,
}

impl BypassModel {
    /// Builds the model from a machine configuration.
    pub fn new(config: &MachineConfig) -> Self {
        BypassModel {
            model: config.model,
            levels: config.bypass,
            cluster_delay: config.cluster_delay,
            rb_rf_only: config.rb_rf_only,
        }
    }

    fn xdelay(&self, r: &ResultTiming, consumer_cluster: usize) -> u64 {
        if r.cluster == consumer_cluster {
            0
        } else {
            self.cluster_delay
        }
    }

    /// The last execution-start cycle at which the result is still in
    /// flight for a consumer in `consumer_cluster` — not produced, or not
    /// yet across the cluster boundary ([`UnavailableReason::InFlight`]).
    pub fn in_flight_until(&self, r: &ResultTiming, consumer_cluster: usize) -> u64 {
        r.ready + self.xdelay(r, consumer_cluster)
    }

    /// The cycle from which the value is continuously available (the
    /// register file, including the write-to-read bypass within it that the
    /// paper's figures assume).
    pub fn rf_start(&self, r: &ResultTiming, need_tc: bool, consumer_cluster: usize) -> u64 {
        let x = self.xdelay(r, consumer_cluster);
        if r.rb && !need_tc && self.model == CoreModel::RbFull {
            // The redundant register file: written right after EXE, readable
            // continuously one cycle later.
            return r.ready + 1 + x;
        }
        if r.rb && self.rb_rf_only {
            // Hypothetical machine without TC write-back for redundant
            // results: no register file ever holds the converted value, so
            // the RF never starts serving it (see
            // [`MachineConfig::rb_rf_only`]). TC consumers are left with
            // the discrete post-conversion bypass slot — if that level is
            // missing, the operand is unreachable, which is exactly what
            // the static bypass analysis must catch.
            return u64::MAX;
        }
        // The TC register file (2-cycle read) serves executions from
        // t + SCHED_TO_EXEC + 1 — that is exactly why a full network needs
        // SCHED_TO_EXEC bypass levels. For redundant producers the
        // write-back follows CV1/CV2, so the RF can never serve before the
        // conversion completes either.
        (r.ready + SCHED_TO_EXEC + 1).max(r.tc_ready + 2) + x
    }

    /// Can a consumer needing `need_tc` format, in `consumer_cluster`,
    /// source this result for an execution beginning at cycle `e`?
    pub fn available(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        e: u64,
    ) -> bool {
        if e >= self.rf_start(r, need_tc, consumer_cluster) {
            return true;
        }
        let x = self.xdelay(r, consumer_cluster);
        if !r.rb {
            // 2's-complement producer: classic 3-level network.
            for l in 1..=3u64 {
                if self.levels.has(l) && e == r.ready + l + x {
                    return true;
                }
            }
            return false;
        }
        // Redundant producer.
        if need_tc {
            if self.rb_rf_only {
                // No TC write-back: the converted value exists only while
                // it drains through the post-conversion bypass — a single
                // discrete slot, never continuous.
                return self.levels.has(3) && e == r.tc_ready + 1 + x;
            }
            // The post-conversion level (BYP-3) carries TC from the cycle
            // after conversion until the register file takes over (the
            // value keeps flowing through WB; with the default 2-cycle
            // converter this is the single slot at tc_ready + 1).
            return self.levels.has(3) && e >= r.tc_ready + 1 + x;
        }
        match self.model {
            CoreModel::RbFull => {
                // BYP-1 then the RB register file — continuous (handled by
                // rf_start above); only the first cycle reaches here.
                self.levels.has(1) && e == r.ready + 1 + x
            }
            CoreModel::RbLimited => {
                // BYP-1 only: BYP-2 is removed and BYP-3 is not wired to
                // the RB-input ALUs (§4.2) → 2-cycle hole before the RF.
                self.levels.has(1) && e == r.ready + 1 + x
            }
            CoreModel::Baseline | CoreModel::Ideal => {
                // Non-RB machines never produce redundant results.
                debug_assert!(false, "rb result on a non-rb machine");
                false
            }
        }
    }

    /// The earliest execution cycle ≥ `from` at which the operand can be
    /// sourced.
    pub fn earliest(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        from: u64,
    ) -> u64 {
        let rf = self.rf_start(r, need_tc, consumer_cluster);
        let mut best = rf.max(from);
        // Try each discrete bypass slot.
        let x = self.xdelay(r, consumer_cluster);
        let mut candidates = [0u64; 4];
        let mut n = 0;
        if !r.rb {
            for l in 1..=3u64 {
                if self.levels.has(l) {
                    candidates[n] = r.ready + l + x;
                    n += 1;
                }
            }
        } else {
            if !need_tc && self.levels.has(1) {
                candidates[n] = r.ready + 1 + x;
                n += 1;
            }
            if need_tc && self.levels.has(3) {
                let slot = r.tc_ready + 1 + x;
                if self.rb_rf_only {
                    // Discrete slot only (no WB keeps the value flowing).
                    if slot >= from {
                        candidates[n] = slot;
                        n += 1;
                    }
                } else {
                    candidates[n] = slot.max(from);
                    n += 1;
                }
            }
        }
        for &c in &candidates[..n] {
            if c >= from && c < best {
                best = c;
            }
        }
        debug_assert!(self.available(r, need_tc, consumer_cluster, best));
        best
    }

    /// Classifies *why* the operand cannot be sourced for an execution
    /// beginning at cycle `e`, or `None` if it can.
    ///
    /// The classification is exhaustive and mutually exclusive:
    ///
    /// * [`UnavailableReason::InFlight`] — the producing execution has not
    ///   finished (or the value has not crossed the cluster boundary): the
    ///   value does not exist here in any format.
    /// * [`UnavailableReason::ConversionWait`] — a redundant result whose
    ///   2's-complement form is still in CV1/CV2.
    /// * [`UnavailableReason::Hole`] — the value exists in the needed
    ///   format but neither a bypass level nor the register file covers
    ///   this cycle (limited-bypass hole). Never occurs on a full network.
    pub fn unavailable_reason(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        e: u64,
    ) -> Option<UnavailableReason> {
        if self.available(r, need_tc, consumer_cluster, e) {
            return None;
        }
        if e <= self.in_flight_until(r, consumer_cluster) {
            return Some(UnavailableReason::InFlight);
        }
        let x = self.xdelay(r, consumer_cluster);
        if r.rb && need_tc && e <= r.tc_ready + x {
            return Some(UnavailableReason::ConversionWait);
        }
        Some(UnavailableReason::Hole)
    }

    /// `true` if sourcing at `e` uses a bypass path rather than the
    /// register file (for the Figure 13 accounting).
    ///
    /// On the RB-full machine, redundant consumers see continuous
    /// availability because the redundant register file backs up BYP-1;
    /// only the first cycle is the bypass path proper.
    pub fn from_bypass(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        e: u64,
    ) -> bool {
        if r.rb && !need_tc && self.model == CoreModel::RbFull {
            return e == r.ready + 1 + self.xdelay(r, consumer_cluster);
        }
        e < self.rf_start(r, need_tc, consumer_cluster)
    }

    /// Which bypass level (1–3) delivers the operand for an execution
    /// beginning at `e`, or `None` if the register file serves it (or the
    /// operand is not available at all at `e`).
    ///
    /// This is the dynamic side of the Figure 14 accounting: the static
    /// reachability analysis derives the *support* of usable levels per
    /// configuration, and the simulator's per-level usage counters (built
    /// on this attribution) must stay inside that support.
    pub fn level_used(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        e: u64,
    ) -> Option<u8> {
        if !self.available(r, need_tc, consumer_cluster, e)
            || !self.from_bypass(r, need_tc, consumer_cluster, e)
        {
            return None;
        }
        let x = self.xdelay(r, consumer_cluster);
        if !r.rb {
            // TC producer: the level is the forwarding distance.
            return (1..=3u8).find(|&l| self.levels.has(l as u64) && e == r.ready + l as u64 + x);
        }
        if need_tc {
            // Post-conversion forwarding rides the third-level network.
            return Some(3);
        }
        // Redundant consumer of a redundant producer: BYP-1.
        Some(1)
    }

    /// The availability of result `r` to a consumer needing `need_tc`
    /// format in `consumer_cluster`, as one [`OperandAvail`]. Built from
    /// the same formulas as [`available`](Self::available) rather than by
    /// probing it; `load_missed` says the producer is a load that missed
    /// the L1 data cache, which makes waiting for it a cache-miss stall.
    pub fn operand(
        &self,
        r: &ResultTiming,
        need_tc: bool,
        consumer_cluster: usize,
        load_missed: bool,
    ) -> OperandAvail {
        let x = self.xdelay(r, consumer_cluster);
        let until = r.ready + x;
        let rf = self.rf_start(r, need_tc, consumer_cluster);
        let rb_rf = r.rb && !need_tc && self.model == CoreModel::RbFull;
        let flags = (u8::from(r.rb) * OperandAvail::RB)
            | (u8::from(need_tc) * OperandAvail::NEED_TC)
            | (u8::from(load_missed) * OperandAvail::LOAD_MISSED)
            | (u8::from(rb_rf) * OperandAvail::RB_RF);
        let mut a = OperandAvail {
            until,
            formed: until,
            cont: rf,
            rf,
            slots: 0,
            flags,
        };
        if !r.rb {
            // One slot per level present, at `until + l`.
            for l in 1..=3u64 {
                if self.levels.has(l) {
                    a.slots |= 1 << (l - 1);
                }
            }
        } else if need_tc {
            a.formed = r.tc_ready + x;
            if self.levels.has(3) {
                if self.rb_rf_only {
                    // The single post-conversion slot.
                    a.slots = 1;
                } else {
                    // BYP-3 carries the converted value until the
                    // register file takes over.
                    a.cont = rf.min(a.formed + 1);
                }
            }
        } else if self.levels.has(1) {
            a.slots = 1;
        }
        a
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn rb_result(ready: u64) -> ResultTiming {
        ResultTiming {
            ready,
            rb: true,
            tc_ready: ready + 2,
            cluster: 0,
        }
    }

    fn tc_result(ready: u64) -> ResultTiming {
        ResultTiming {
            ready,
            rb: false,
            tc_ready: ready,
            cluster: 0,
        }
    }

    #[test]
    fn tc_producer_full_network_has_no_holes() {
        let m = BypassModel::new(&MachineConfig::ideal(4));
        let r = tc_result(10);
        assert!(!m.available(&r, false, 0, 10), "same cycle impossible");
        for e in 11..20 {
            assert!(m.available(&r, false, 0, e), "cycle {e}");
        }
        assert_eq!(m.earliest(&r, false, 0, 0), 11);
        assert!(m.from_bypass(&r, false, 0, 11));
        // One bypass level per cycle of select-to-execute depth, then the
        // register file.
        assert!(m.from_bypass(&r, false, 0, 10 + SCHED_TO_EXEC));
        assert!(
            !m.from_bypass(&r, false, 0, 10 + SCHED_TO_EXEC + 1),
            "RF from t + SCHED_TO_EXEC + 1"
        );
    }

    #[test]
    fn figure14_no1_shifts_earliest_by_one() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[1]));
        let m = BypassModel::new(&cfg);
        let r = tc_result(10);
        assert!(!m.available(&r, false, 0, 11));
        assert!(m.available(&r, false, 0, 12));
        assert_eq!(m.earliest(&r, false, 0, 0), 12);
    }

    #[test]
    fn figure14_no2_creates_a_hole() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[2]));
        let m = BypassModel::new(&cfg);
        let r = tc_result(10);
        assert!(m.available(&r, false, 0, 11));
        assert!(!m.available(&r, false, 0, 12), "hole where level 2 was");
        assert!(m.available(&r, false, 0, 13));
        assert!(m.available(&r, false, 0, 14));
        // earliest from 12 must skip the hole.
        assert_eq!(m.earliest(&r, false, 0, 12), 13);
    }

    #[test]
    fn figure14_no12_leaves_only_level3_then_rf() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[1, 2]));
        let m = BypassModel::new(&cfg);
        let r = tc_result(10);
        assert!(!m.available(&r, false, 0, 11));
        assert!(!m.available(&r, false, 0, 12));
        assert!(m.available(&r, false, 0, 13));
        assert!(m.available(&r, false, 0, 14));
    }

    #[test]
    fn figure14_no23_has_a_two_cycle_hole() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[2, 3]));
        let m = BypassModel::new(&cfg);
        let r = tc_result(10);
        assert!(m.available(&r, false, 0, 11));
        assert!(!m.available(&r, false, 0, 12));
        assert!(!m.available(&r, false, 0, 13));
        assert!(m.available(&r, false, 0, 14), "register file");
    }

    #[test]
    fn rb_full_gives_continuous_redundant_availability() {
        let m = BypassModel::new(&MachineConfig::rb_full(4));
        let r = rb_result(10);
        for e in 11..20 {
            assert!(m.available(&r, false, 0, e), "cycle {e}");
        }
        // TC consumers wait for the conversion: BYP-3 at t+3, RF at t+4.
        assert!(!m.available(&r, true, 0, 11));
        assert!(!m.available(&r, true, 0, 12));
        assert!(m.available(&r, true, 0, 13));
        assert!(m.available(&r, true, 0, 14));
        assert_eq!(m.earliest(&r, true, 0, 0), 13);
    }

    #[test]
    fn rb_limited_has_the_section42_hole() {
        let m = BypassModel::new(&MachineConfig::rb_limited(4));
        let r = rb_result(10);
        // Redundant consumers: BYP-1 at t+1, then a 2-cycle hole, then RF.
        assert!(m.available(&r, false, 0, 11));
        assert!(!m.available(&r, false, 0, 12), "BYP-2 removed");
        assert!(!m.available(&r, false, 0, 13), "BYP-3 not wired to RB ALUs");
        assert!(m.available(&r, false, 0, 14), "TC register file");
        // TC consumers: BYP-3 then the register file.
        assert!(m.available(&r, true, 0, 13));
        assert!(m.available(&r, true, 0, 14));
        assert!(!m.available(&r, true, 0, 12));
    }

    #[test]
    fn tc_producers_are_unaffected_by_rb_mode() {
        // Loads and logicals forward normally even on the limited machine.
        let m = BypassModel::new(&MachineConfig::rb_limited(4));
        let r = tc_result(10);
        for e in 11..20 {
            assert!(m.available(&r, false, 0, e));
            assert!(m.available(&r, true, 0, e));
        }
    }

    #[test]
    fn cross_cluster_adds_a_cycle() {
        let m = BypassModel::new(&MachineConfig::rb_full(8));
        let r = rb_result(10); // produced in cluster 0
        assert!(m.available(&r, false, 0, 11));
        assert!(!m.available(&r, false, 1, 11), "remote consumer waits");
        assert!(m.available(&r, false, 1, 12));
        assert_eq!(m.earliest(&r, false, 1, 0), 12);
        // The in-flight window ends one cycle later for the remote cluster.
        for (cluster, until) in [(0, 10), (1, 11)] {
            assert_eq!(m.in_flight_until(&r, cluster), until);
            for need_tc in [false, true] {
                let reason = |e| m.unavailable_reason(&r, need_tc, cluster, e);
                assert_eq!(reason(until), Some(UnavailableReason::InFlight));
                assert_ne!(reason(until + 1), Some(UnavailableReason::InFlight));
            }
        }
    }

    #[test]
    fn unavailable_reasons_partition_the_timeline() {
        // RB-limited, redundant producer, redundant consumer: InFlight up
        // to production, then BYP-1, then a two-cycle Hole, then the RF.
        let m = BypassModel::new(&MachineConfig::rb_limited(4));
        let r = rb_result(10);
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 9),
            Some(UnavailableReason::InFlight)
        );
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 10),
            Some(UnavailableReason::InFlight)
        );
        assert_eq!(m.unavailable_reason(&r, false, 0, 11), None, "BYP-1");
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 12),
            Some(UnavailableReason::Hole)
        );
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 13),
            Some(UnavailableReason::Hole)
        );
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 14),
            None,
            "register file"
        );
        // 2's-complement consumer of the same result: the wait before the
        // conversion completes is ConversionWait, not a hole.
        assert_eq!(
            m.unavailable_reason(&r, true, 0, 11),
            Some(UnavailableReason::ConversionWait)
        );
        assert_eq!(
            m.unavailable_reason(&r, true, 0, 12),
            Some(UnavailableReason::ConversionWait)
        );
        assert_eq!(
            m.unavailable_reason(&r, true, 0, 13),
            None,
            "BYP-3 post-conversion"
        );
    }

    #[test]
    fn full_network_tc_producers_never_report_holes() {
        let m = BypassModel::new(&MachineConfig::ideal(4));
        let r = tc_result(10);
        for e in 0..40 {
            for need_tc in [false, true] {
                match m.unavailable_reason(&r, need_tc, 0, e) {
                    None | Some(UnavailableReason::InFlight) => {}
                    other => panic!("cycle {e}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn figure14_removed_levels_report_holes() {
        let cfg = MachineConfig::ideal(4).with_bypass(BypassLevels::without(&[2]));
        let m = BypassModel::new(&cfg);
        let r = tc_result(10);
        assert_eq!(
            m.unavailable_reason(&r, false, 0, 12),
            Some(UnavailableReason::Hole)
        );
        assert_eq!(m.unavailable_reason(&r, false, 0, 11), None);
        assert_eq!(m.unavailable_reason(&r, false, 0, 13), None);
    }

    #[test]
    fn level_used_attributes_the_forwarding_distance() {
        let m = BypassModel::new(&MachineConfig::ideal(4));
        let r = tc_result(10);
        assert_eq!(m.level_used(&r, false, 0, 11), Some(1));
        assert_eq!(m.level_used(&r, false, 0, 12), Some(2));
        assert_eq!(m.level_used(&r, false, 0, 13), Some(3));
        assert_eq!(m.level_used(&r, false, 0, 14), None, "register file");
        assert_eq!(m.level_used(&r, false, 0, 10), None, "not available yet");
        // Redundant producers on the RB machines.
        let m = BypassModel::new(&MachineConfig::rb_limited(4));
        let r = rb_result(10);
        assert_eq!(m.level_used(&r, false, 0, 11), Some(1));
        assert_eq!(m.level_used(&r, false, 0, 12), None, "hole");
        assert_eq!(m.level_used(&r, true, 0, 13), Some(3), "post-conversion");
        assert_eq!(m.level_used(&r, true, 0, 14), None, "register file");
    }

    #[test]
    fn rb_rf_only_makes_tc_consumers_slot_limited() {
        let cfg = MachineConfig::rb_full(4).with_rb_rf_only();
        let m = BypassModel::new(&cfg);
        let r = rb_result(10); // tc_ready = 12
                               // Redundant consumers still have the RB register file.
        for e in 11..20 {
            assert!(m.available(&r, false, 0, e), "cycle {e}");
        }
        // TC consumers get exactly one discrete slot (BYP-3 after CV2) —
        // no register file ever serves the converted value.
        assert!(!m.available(&r, true, 0, 12));
        assert!(
            m.available(&r, true, 0, 13),
            "the single post-conversion slot"
        );
        for e in 14..40 {
            assert!(
                !m.available(&r, true, 0, e),
                "cycle {e} must be a hole forever"
            );
        }
        // With the third level also removed the operand is unreachable.
        let cfg = MachineConfig::rb_full(4)
            .with_rb_rf_only()
            .with_bypass(BypassLevels::without(&[3]));
        let m = BypassModel::new(&cfg);
        for e in 0..64 {
            assert!(
                !m.available(&r, true, 0, e),
                "cycle {e} must be unreachable"
            );
        }
    }

    #[test]
    fn earliest_respects_lower_bound() {
        let m = BypassModel::new(&MachineConfig::ideal(4));
        let r = tc_result(10);
        assert_eq!(m.earliest(&r, false, 0, 12), 12);
        assert_eq!(m.earliest(&r, false, 0, 30), 30);
    }
}
