//! Netlist builders for the adder circuits compared in §3.4.

use redbin_arith::RbNumber;

use crate::netlist::{Netlist, NodeId};

/// A built adder circuit for `n`-bit 2's-complement operands.
///
/// Inputs are ordered `a[0..n]` then `b[0..n]`; outputs are named
/// `s0..s{n-1}` and `cout`.
#[derive(Debug, Clone)]
pub struct TcAdderCircuit {
    netlist: Netlist,
    n: usize,
}

impl TcAdderCircuit {
    /// The operand width in bits.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Access to the underlying netlist (for timing analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Functionally adds two operands through the gate network.
    ///
    /// Returns the `n`-bit sum and the carry out.
    pub fn add(&self, a: u64, b: u64) -> (u64, bool) {
        assert!(self.n <= 64, "eval helper supports up to 64 bits");
        let mut inputs = Vec::with_capacity(2 * self.n);
        for i in 0..self.n {
            inputs.push((a >> i) & 1 == 1);
        }
        for i in 0..self.n {
            inputs.push((b >> i) & 1 == 1);
        }
        let out = self.netlist.eval(&inputs);
        let mut sum = 0u64;
        for i in 0..self.n {
            if out[&format!("s{i}")] {
                sum |= 1 << i;
            }
        }
        (sum, out["cout"])
    }
}

/// Builds an `n`-bit ripple-carry adder: the O(n)-depth strawman.
///
/// # Panics
///
/// Panics unless `1 <= n <= 128`.
pub fn ripple_carry(n: usize) -> TcAdderCircuit {
    assert!((1..=128).contains(&n));
    let mut nl = Netlist::new();
    let a = nl.inputs(n);
    let b = nl.inputs(n);
    let mut carry = nl.constant(false);
    for i in 0..n {
        let p = nl.xor(a[i], b[i]);
        let s = nl.xor(p, carry);
        let g = nl.and(a[i], b[i]);
        let pc = nl.and(p, carry);
        carry = nl.or(g, pc);
        nl.output(format!("s{i}"), s);
    }
    nl.output("cout", carry);
    TcAdderCircuit { netlist: nl, n }
}

/// Builds an `n`-bit carry-lookahead adder in parallel-prefix
/// (Brent–Kung) form: O(log n) depth with the sparse tree a 2002-era
/// layout could actually wire (a fully-dense Kogge–Stone assumes free
/// wires and underestimates a real CLA's depth once decomposed into
/// 2-input gates).
///
/// # Panics
///
/// Panics unless `1 <= n <= 128`.
pub fn carry_lookahead(n: usize) -> TcAdderCircuit {
    assert!((1..=128).contains(&n));
    let mut nl = Netlist::new();
    let a = nl.inputs(n);
    let b = nl.inputs(n);
    build_prefix_sum(&mut nl, &a, &b, false, None, PrefixShape::BrentKung);
    TcAdderCircuit { netlist: nl, n }
}

/// Builds an `n`-bit carry-select adder from ripple blocks of `block` bits:
/// O(block + n/block) depth, the classic area/delay midpoint.
///
/// # Panics
///
/// Panics unless `1 <= n <= 128` and `1 <= block <= n`.
pub fn carry_select(n: usize, block: usize) -> TcAdderCircuit {
    assert!((1..=128).contains(&n));
    assert!((1..=n).contains(&block));
    let mut nl = Netlist::new();
    let a = nl.inputs(n);
    let b = nl.inputs(n);

    let mut carry_in: NodeId = nl.constant(false);
    let mut i = 0;
    while i < n {
        let hi = (i + block).min(n);
        // Two speculative ripple chains for this block.
        let mut chains = Vec::new();
        for cin_val in [false, true] {
            let mut carry = nl.constant(cin_val);
            let mut sums = Vec::new();
            for j in i..hi {
                let p = nl.xor(a[j], b[j]);
                let s = nl.xor(p, carry);
                let g = nl.and(a[j], b[j]);
                let pc = nl.and(p, carry);
                carry = nl.or(g, pc);
                sums.push(s);
            }
            chains.push((sums, carry));
        }
        let (sums0, cout0) = chains[0].clone();
        let (sums1, cout1) = chains[1].clone();
        for (k, j) in (i..hi).enumerate() {
            let s = nl.mux(carry_in, sums1[k], sums0[k]);
            nl.output(format!("s{j}"), s);
        }
        carry_in = nl.mux(carry_in, cout1, cout0);
        i = hi;
    }
    nl.output("cout", carry_in);
    TcAdderCircuit { netlist: nl, n }
}

/// The parallel-prefix tree topology used by a prefix adder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PrefixShape {
    /// Dense minimum-depth tree: log₂ n combine levels, heavy wiring.
    /// Used for the dedicated RB→TC converter datapath, where the design
    /// goal is the fastest possible carry-propagate subtract.
    KoggeStone,
    /// Sparse tree (up-sweep + down-sweep): ~2 log₂ n combine levels with
    /// bounded wiring — the shape a general-purpose 2002-era CLA layout
    /// actually resembles once decomposed into 2-input gates.
    BrentKung,
}

/// Combines prefix pair `i` with pair `i - d` in place:
/// `(g, p)ᵢ ← (gᵢ | pᵢ·gᵢ₋d, pᵢ·pᵢ₋d)`.
fn prefix_combine(nl: &mut Netlist, gp: &mut [(NodeId, NodeId)], i: usize, d: usize) {
    let (gi, pi) = gp[i];
    let (gl, pl) = gp[i - d];
    let t = nl.and(pi, gl);
    gp[i] = (nl.or(gi, t), nl.and(pi, pl));
}

/// Computes the inclusive prefix `(G, P)` over per-bit `(g, p)` pairs
/// with the requested tree topology. Shared by every prefix adder in the
/// crate (the CLA, the converter, and the staggered adder's stages).
pub(crate) fn prefix_tree(
    nl: &mut Netlist,
    g: &[NodeId],
    p: &[NodeId],
    shape: PrefixShape,
) -> Vec<(NodeId, NodeId)> {
    let n = g.len();
    let mut gp: Vec<(NodeId, NodeId)> = g.iter().copied().zip(p.iter().copied()).collect();
    match shape {
        PrefixShape::KoggeStone => {
            let mut d = 1;
            while d < n {
                let prev = gp.clone();
                for i in d..n {
                    let (gi, pi) = prev[i];
                    let (gl, pl) = prev[i - d];
                    let t = nl.and(pi, gl);
                    gp[i] = (nl.or(gi, t), nl.and(pi, pl));
                }
                d *= 2;
            }
        }
        PrefixShape::BrentKung => {
            // Up-sweep: build power-of-two spans.
            let mut d = 1;
            while 2 * d <= n {
                let mut i = 2 * d - 1;
                while i < n {
                    prefix_combine(nl, &mut gp, i, d);
                    i += 2 * d;
                }
                d *= 2;
            }
            // Down-sweep: fill in the remaining prefixes.
            d /= 2;
            while d >= 1 {
                let mut i = 3 * d - 1;
                while i < n {
                    prefix_combine(nl, &mut gp, i, d);
                    i += 2 * d;
                }
                if d == 1 {
                    break;
                }
                d /= 2;
            }
        }
    }
    gp
}

/// Shared prefix-adder construction. If `invert_b` is set, `b` is
/// complemented (building a subtractor); `cin` forces the carry-in.
/// When `extra_cin` is `Some(true)`, carry-in is constant 1.
fn build_prefix_sum(
    nl: &mut Netlist,
    a: &[NodeId],
    b: &[NodeId],
    invert_b: bool,
    extra_cin: Option<bool>,
    shape: PrefixShape,
) {
    let n = a.len();
    let cin = extra_cin.unwrap_or(false);
    // Generate/propagate per bit.
    let mut g = Vec::with_capacity(n);
    let mut p = Vec::with_capacity(n);
    for i in 0..n {
        let bi = if invert_b { nl.not(b[i]) } else { b[i] };
        p.push(nl.xor(a[i], bi));
        g.push(nl.and(a[i], bi));
    }
    let gp = prefix_tree(nl, &g, &p, shape);
    // Carries: c_i = G_i | (P_i & cin).
    let cin_node = nl.constant(cin);
    let mut carries = Vec::with_capacity(n);
    for &(gg, pp) in &gp {
        let t = nl.and(pp, cin_node);
        carries.push(nl.or(gg, t));
    }
    // Sums.
    for i in 0..n {
        let c_in = if i == 0 { cin_node } else { carries[i - 1] };
        let s = nl.xor(p[i], c_in);
        nl.output(format!("s{i}"), s);
    }
    nl.output("cout", carries[n - 1]);
}

/// A built redundant binary adder over `n`-digit operands.
///
/// Inputs are ordered `x⁺[0..n]`, `x⁻[0..n]`, `y⁺[0..n]`, `y⁻[0..n]`;
/// outputs are `sp{i}` / `sm{i}` digit planes plus the transfer out of the
/// top digit (`cout_p` / `cout_m`).
#[derive(Debug, Clone)]
pub struct RbAdderCircuit {
    netlist: Netlist,
    n: usize,
}

impl RbAdderCircuit {
    /// The operand width in digits.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Access to the underlying netlist (for timing analysis).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Functionally adds two 64-digit redundant numbers through the gate
    /// network, returning the raw (pre-normalization) digit planes and the
    /// transfer out of the top digit as `(plus, minus, cout_p, cout_m)`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit is not 64 digits wide.
    pub fn add(&self, x: RbNumber, y: RbNumber) -> (u64, u64, bool, bool) {
        assert_eq!(self.n, 64, "eval helper requires a 64-digit circuit");
        let mut inputs = Vec::with_capacity(4 * self.n);
        for plane in [x.plus(), x.minus(), y.plus(), y.minus()] {
            for i in 0..self.n {
                inputs.push((plane >> i) & 1 == 1);
            }
        }
        let out = self.netlist.eval(&inputs);
        let mut sp = 0u64;
        let mut sm = 0u64;
        for i in 0..self.n {
            if out[&format!("sp{i}")] {
                sp |= 1 << i;
            }
            if out[&format!("sm{i}")] {
                sm |= 1 << i;
            }
        }
        (sp, sm, out["cout_p"], out["cout_m"])
    }
}

/// Builds an `n`-digit redundant binary adder: one constant-depth slice per
/// digit, carry propagation limited to two positions (§3.3).
///
/// Each slice consumes the digit encodings at its position, the sign
/// information of the position below (for transfer selection), and the
/// transfer from the slice below; no signal crosses more than two slices,
/// so the critical path does not grow with `n`.
///
/// # Panics
///
/// Panics unless `1 <= n <= 128`.
pub fn rb_adder(n: usize) -> RbAdderCircuit {
    assert!((1..=128).contains(&n));
    let mut nl = Netlist::new();
    let xp = nl.inputs(n);
    let xm = nl.inputs(n);
    let yp = nl.inputs(n);
    let ym = nl.inputs(n);

    let f = nl.constant(false);
    let t = nl.constant(true);
    let mut tin_p = f; // transfer entering the current slice…
    let mut tin_m = f;
    let mut n_tin_p = t; // …and its complement, produced NOR-form by the
    let mut n_tin_m = t; // slice below so no inverter sits on the sum path
    let mut tout_p = f;
    let mut tout_m = f;
    for i in 0..n {
        // Digit-sum classification p = x_i + y_i.
        let p_two = nl.and(xp[i], yp[i]);
        let p_neg_two = nl.and(xm[i], ym[i]);
        let one_pos = nl.xor(xp[i], yp[i]);
        let any_neg = nl.or(xm[i], ym[i]);
        let no_neg = nl.not(any_neg);
        let p_one = nl.and(one_pos, no_neg);
        let one_neg = nl.xor(xm[i], ym[i]);
        let any_pos = nl.or(xp[i], yp[i]);
        let no_pos = nl.not(any_pos);
        let p_neg_one = nl.and(one_neg, no_pos);

        // Sign info from the slice below.
        let (neg_below, pos_below) = if i == 0 {
            (f, f)
        } else {
            (nl.or(xm[i - 1], ym[i - 1]), nl.or(xp[i - 1], yp[i - 1]))
        };
        let no_neg_below = nl.not(neg_below);
        let no_pos_below = nl.not(pos_below);

        // Interim digit w and transfer t. The complemented forms come
        // from NOR gates over the product terms (De Morgan), not from an
        // inverter after the OR — that keeps the sum path at the paper's
        // seven levels instead of eight.
        let w_p_a = nl.and(p_one, neg_below);
        let w_p_b = nl.and(p_neg_one, no_pos_below);
        let w_plus = nl.or(w_p_a, w_p_b);
        let n_w_p = nl.nor(w_p_a, w_p_b);
        let w_m_a = nl.and(p_one, no_neg_below);
        let w_m_b = nl.and(p_neg_one, pos_below);
        let w_minus = nl.or(w_m_a, w_m_b);
        let n_w_m = nl.nor(w_m_a, w_m_b);
        let t_p_b = nl.and(p_one, no_neg_below);
        let t_plus = nl.or(p_two, t_p_b);
        let n_t_plus = nl.nor(p_two, t_p_b);
        let t_m_b = nl.and(p_neg_one, no_pos_below);
        let t_minus = nl.or(p_neg_two, t_m_b);
        let n_t_minus = nl.nor(p_neg_two, t_m_b);

        // Sum digit s = w + t_in (never conflicting by construction).
        let sp_a = nl.and(w_plus, n_tin_m);
        let sp_b = nl.and(tin_p, n_w_m);
        let s_plus = nl.or(sp_a, sp_b);
        let sm_a = nl.and(w_minus, n_tin_p);
        let sm_b = nl.and(tin_m, n_w_p);
        let s_minus = nl.or(sm_a, sm_b);

        nl.output(format!("sp{i}"), s_plus);
        nl.output(format!("sm{i}"), s_minus);
        tin_p = t_plus;
        tin_m = t_minus;
        n_tin_p = n_t_plus;
        n_tin_m = n_t_minus;
        if i == n - 1 {
            tout_p = t_plus;
            tout_m = t_minus;
        }
    }
    nl.output("cout_p", tout_p);
    nl.output("cout_m", tout_m);
    RbAdderCircuit { netlist: nl, n }
}

/// Builds the redundant→2's-complement format converter: a full-width
/// subtraction `X⁺ − X⁻` implemented with the fast prefix adder (this is
/// the CV1/CV2 pipeline circuit, and the reason conversions are expensive).
///
/// Inputs are ordered `x⁺[0..n]` then `x⁻[0..n]`; outputs `s0..s{n-1}` and
/// `cout`.
///
/// # Panics
///
/// Panics unless `1 <= n <= 128`.
pub fn rb_to_tc_converter(n: usize) -> TcAdderCircuit {
    assert!((1..=128).contains(&n));
    let mut nl = Netlist::new();
    let plus = nl.inputs(n);
    let minus = nl.inputs(n);
    // plus − minus = plus + ¬minus + 1. The converter is a dedicated
    // pipeline circuit, so it gets the fastest (dense) prefix shape.
    build_prefix_sum(
        &mut nl,
        &plus,
        &minus,
        true,
        Some(true),
        PrefixShape::KoggeStone,
    );
    TcAdderCircuit { netlist: nl, n }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::DelayModel;
    use redbin_arith::adder::raw_add_serial;

    fn check_tc_adder(circ: &TcAdderCircuit) {
        let n = circ.width();
        let mask = if n == 64 { !0u64 } else { (1u64 << n) - 1 };
        let mut x = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..100 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(0xb7e1);
            let a = x & mask;
            let b = (x >> 17) & mask;
            let (s, cout) = circ.add(a, b);
            let wide = a as u128 + b as u128;
            assert_eq!(s, (wide as u64) & mask, "{a:#x} + {b:#x} at {n} bits");
            assert_eq!(cout, wide >> n != 0);
        }
    }

    #[test]
    fn ripple_is_correct() {
        for n in [1, 2, 8, 16, 64] {
            check_tc_adder(&ripple_carry(n));
        }
    }

    #[test]
    fn cla_is_correct() {
        for n in [1, 2, 8, 16, 33, 64] {
            check_tc_adder(&carry_lookahead(n));
        }
    }

    #[test]
    fn carry_select_is_correct() {
        for (n, b) in [(8, 2), (16, 4), (64, 8), (64, 11)] {
            check_tc_adder(&carry_select(n, b));
        }
    }

    #[test]
    fn rb_adder_matches_software_slices() {
        let circ = rb_adder(64);
        let mut x = 0x0123_4567_89ab_cdefu64;
        for _ in 0..60 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7);
            let a = RbNumber::from_i64(x as i64);
            let b = RbNumber::from_i64((x >> 13) as i64);
            // Use redundant-shaped operands too: chain once in software.
            let a = redbin_arith::RbAdder::new().add(a, b).sum;
            let (sp, sm, cp, cm) = circ.add(a, b);
            let (expect, carry) = raw_add_serial(a, b);
            assert_eq!(sp, expect.plus());
            assert_eq!(sm, expect.minus());
            assert_eq!(cp, carry.pos_bit());
            assert_eq!(cm, carry.neg_bit());
        }
    }

    #[test]
    fn converter_is_correct() {
        let circ = rb_to_tc_converter(64);
        let adder = redbin_arith::RbAdder::new();
        let mut x = 0xdead_beef_1234_5678u64;
        for _ in 0..60 {
            x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(3);
            let n = adder
                .add(
                    RbNumber::from_i64(x as i64),
                    RbNumber::from_i64((x >> 7) as i64),
                )
                .sum;
            let (s, _cout) = circ.add(n.plus(), n.minus());
            assert_eq!(s, n.to_u64());
        }
    }

    #[test]
    fn rb_depth_is_constant_in_width() {
        let d8 = rb_adder(8).netlist().critical_path(DelayModel::UnitGate);
        let d64 = rb_adder(64).netlist().critical_path(DelayModel::UnitGate);
        assert_eq!(d8, d64, "redundant adder depth must not grow with width");
    }

    #[test]
    fn cla_depth_grows_logarithmically() {
        let d8 = carry_lookahead(8)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        let d64 = carry_lookahead(64)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        assert!(d64 > d8);
        let d16 = carry_lookahead(16)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        let d32 = carry_lookahead(32)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        // Roughly constant increment per doubling.
        let inc1 = d16 - d8;
        let inc2 = d32 - d16;
        let inc3 = d64 - d32;
        assert!((inc1 - inc2).abs() <= 2.0 && (inc2 - inc3).abs() <= 2.0);
    }

    #[test]
    fn rb_is_much_faster_than_cla_at_64_bits() {
        let rb = rb_adder(64).netlist().critical_path(DelayModel::UnitGate);
        let cla = carry_lookahead(64)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        assert!(
            cla / rb >= 2.0,
            "expected ≥2× ratio (paper: ≈3×), got cla={cla} rb={rb}"
        );
    }

    #[test]
    fn converter_is_much_slower_than_rb_adder() {
        let rb = rb_adder(64).netlist().critical_path(DelayModel::UnitGate);
        let cv = rb_to_tc_converter(64)
            .netlist()
            .critical_path(DelayModel::UnitGate);
        assert!(cv / rb >= 2.0, "paper reports ≈2.7×; got {}", cv / rb);
    }
}
