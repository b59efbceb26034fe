//! The staggered (pipelined digit-serial) adder of §2 — the Pentium 4
//! technique the paper contrasts with redundant binary adders.
//!
//! A staggered adder splits an *n*-bit add across pipeline stages: stage 1
//! produces the low half of the result and its carry-out; stage 2 consumes
//! that carry and produces the high half. Dependent adds can still execute
//! back-to-back *on the low halves*, but each stage's critical path is a
//! carry-propagate add over `n/parts` bits — it shrinks only
//! logarithmically (`log(n) − log(parts)`), which is the paper's §2
//! argument for why staggering is "unlikely to cut the effective add
//! latency in half", unlike the constant-depth redundant adder.

use crate::adders::rb_adder;
use crate::netlist::{DelayModel, Netlist, NodeId};

/// A staggered adder: `parts` pipeline stages, each a carry-lookahead
/// adder over `n / parts` bits with an explicit carry-in.
///
/// # Example
///
/// ```
/// use redbin_gates::staggered::StaggeredAdder;
/// use redbin_gates::netlist::DelayModel;
///
/// let st = StaggeredAdder::new(32, 2); // the Pentium 4 configuration
/// let (sum, cout) = st.add(0xffff_0001, 0x0000_ffff);
/// assert_eq!(sum, 0xffff_0001u64.wrapping_add(0x0000_ffff) & 0xffff_ffff);
/// assert!(cout, "the add wraps past 32 bits");
/// // Each stage is shallower than a full 32-bit adder, but not by half:
/// let full = redbin_gates::adders::carry_lookahead(32);
/// let stage = st.stage_critical_path(DelayModel::UnitGate);
/// assert!(stage < full.netlist().critical_path(DelayModel::UnitGate));
/// ```
#[derive(Debug, Clone)]
pub struct StaggeredAdder {
    stages: Vec<Netlist>,
    part: usize,
    n: usize,
}

impl StaggeredAdder {
    /// Builds an `n`-bit adder staggered over `parts` equal stages.
    ///
    /// # Panics
    ///
    /// Panics unless `parts` divides `n`, `n <= 64`, and `parts >= 1`.
    pub fn new(n: usize, parts: usize) -> Self {
        assert!(
            parts >= 1 && n <= 64 && n.is_multiple_of(parts),
            "bad staggering"
        );
        let part = n / parts;
        let stages = (0..parts).map(|_| stage_netlist(part)).collect();
        StaggeredAdder { stages, part, n }
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Number of pipeline stages.
    pub fn parts(&self) -> usize {
        self.stages.len()
    }

    /// The slowest stage's critical path — what sets the staggered
    /// machine's cycle time.
    pub fn stage_critical_path(&self, model: DelayModel) -> f64 {
        self.stages
            .iter()
            .map(|s| s.critical_path(model))
            .fold(0.0, f64::max)
    }

    /// Functionally adds two `n`-bit operands through the staged gate
    /// networks, chaining each stage's carry into the next. Returns the
    /// masked sum and the final carry-out.
    pub fn add(&self, a: u64, b: u64) -> (u64, bool) {
        let mask = if self.n == 64 {
            !0u64
        } else {
            (1u64 << self.n) - 1
        };
        let (a, b) = (a & mask, b & mask);
        let pmask = if self.part == 64 {
            !0u64
        } else {
            (1u64 << self.part) - 1
        };
        let mut sum = 0u64;
        let mut carry = false;
        for (k, stage) in self.stages.iter().enumerate() {
            let ap = (a >> (k * self.part)) & pmask;
            let bp = (b >> (k * self.part)) & pmask;
            let mut inputs = Vec::with_capacity(2 * self.part + 1);
            for i in 0..self.part {
                inputs.push((ap >> i) & 1 == 1);
            }
            for i in 0..self.part {
                inputs.push((bp >> i) & 1 == 1);
            }
            inputs.push(carry);
            let out = stage.eval(&inputs);
            for i in 0..self.part {
                if out[&format!("s{i}")] {
                    sum |= 1 << (k * self.part + i);
                }
            }
            carry = out["cout"];
        }
        (sum, carry)
    }
}

/// One stage: a prefix adder over `part` bits with a carry-in input.
/// Inputs: `a[0..part]`, `b[0..part]`, `cin`.
fn stage_netlist(part: usize) -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.inputs(part);
    let b = nl.inputs(part);
    let cin = nl.input();

    // Generate/propagate and a parallel-prefix tree (same sparse shape as
    // the full CLA, so the comparison is apples-to-apples), with the
    // carry-in folded in at the end (c_i = G_i | P_i·cin).
    let mut g: Vec<NodeId> = Vec::with_capacity(part);
    let mut p: Vec<NodeId> = Vec::with_capacity(part);
    for i in 0..part {
        p.push(nl.xor(a[i], b[i]));
        g.push(nl.and(a[i], b[i]));
    }
    let gp = crate::adders::prefix_tree(&mut nl, &g, &p, crate::adders::PrefixShape::BrentKung);
    let mut carries = Vec::with_capacity(part);
    for &(gg, pp) in &gp {
        let t = nl.and(pp, cin);
        carries.push(nl.or(gg, t));
    }
    for i in 0..part {
        let c_in = if i == 0 { cin } else { carries[i - 1] };
        let s = nl.xor(p[i], c_in);
        nl.output(format!("s{i}"), s);
    }
    nl.output("cout", carries[part - 1]);
    nl
}

/// The §2 comparison in one place: per-cycle critical paths of a full
/// 32-bit adder, a 2-stage staggered adder, and the redundant binary adder.
///
/// The paper's point: staggering buys *some* cycle time, but nothing like
/// the redundant adder's constant depth.
pub fn section2_comparison(model: DelayModel) -> (f64, f64, f64) {
    let full = crate::adders::carry_lookahead(32)
        .netlist()
        .critical_path(model);
    let staggered = StaggeredAdder::new(32, 2).stage_critical_path(model);
    let rb = rb_adder(32).netlist().critical_path(model);
    (full, staggered, rb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staggered_addition_is_correct() {
        for (n, parts) in [(32usize, 2usize), (64, 2), (64, 4), (16, 4)] {
            let st = StaggeredAdder::new(n, parts);
            let mask = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
            let mut x = 0x9e37_79b9_97f4_a7c1u64;
            for _ in 0..50 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = x & mask;
                let b = (x >> 7) & mask;
                let (s, cout) = st.add(a, b);
                let wide = a as u128 + b as u128;
                assert_eq!(s, (wide as u64) & mask, "{a:#x}+{b:#x} n={n} parts={parts}");
                assert_eq!(cout, wide >> n != 0);
            }
        }
    }

    #[test]
    fn staggering_shortens_the_stage_but_not_by_half() {
        let (full, staggered, rb) = section2_comparison(DelayModel::UnitGate);
        assert!(staggered < full, "staggering must shorten the stage");
        assert!(
            staggered > full / 2.0,
            "…but logarithmic depth means less than 2× ({staggered} vs {full})"
        );
        assert!(rb < staggered, "the redundant adder beats both");
    }

    #[test]
    fn more_parts_keep_shrinking_slowly() {
        let s2 = StaggeredAdder::new(64, 2).stage_critical_path(DelayModel::UnitGate);
        let s4 = StaggeredAdder::new(64, 4).stage_critical_path(DelayModel::UnitGate);
        assert!(s4 <= s2);
        // Diminishing returns: quartering the width does not quarter depth.
        assert!(s4 > s2 / 2.0);
    }

    #[test]
    #[should_panic(expected = "bad staggering")]
    fn rejects_non_dividing_parts() {
        let _ = StaggeredAdder::new(32, 3);
    }
}
