//! A minimal structural netlist with simulation and timing analysis.

use std::collections::HashMap;
use std::fmt;

/// Identifies a node (input, constant, or gate output) within a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The node's position in the netlist's topological creation order
    /// (inputs, constants and gates share one index space).
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// The kind of a netlist node, without its fan-in wiring — the public
/// face of `Node` used by external analyses (`redbin-analyze` rebuilds
/// the graph through [`Netlist::node_kind`] / [`Netlist::fanins`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input.
    Input,
    /// A constant 0 or 1.
    Const(bool),
    /// An inverter.
    Not,
    /// A 2-input AND gate.
    And,
    /// A 2-input OR gate.
    Or,
    /// A 2-input XOR gate.
    Xor,
    /// A 2-input NOR gate.
    Nor,
    /// A 2:1 multiplexer.
    Mux,
}

impl NodeKind {
    /// Short lowercase name, for reports.
    pub fn name(&self) -> &'static str {
        match self {
            NodeKind::Input => "input",
            NodeKind::Const(_) => "const",
            NodeKind::Not => "not",
            NodeKind::And => "and",
            NodeKind::Or => "or",
            NodeKind::Xor => "xor",
            NodeKind::Nor => "nor",
            NodeKind::Mux => "mux",
        }
    }

    /// The intrinsic (unloaded) delay of this node kind: simple gates and
    /// inverters cost 1, compound XOR/MUX cost 2, inputs and constants
    /// cost 0. This is the base delay both [`DelayModel`]s scale.
    pub fn base_delay(&self) -> f64 {
        match self {
            NodeKind::Input | NodeKind::Const(_) => 0.0,
            NodeKind::Not | NodeKind::And | NodeKind::Or | NodeKind::Nor => 1.0,
            NodeKind::Xor | NodeKind::Mux => 2.0,
        }
    }
}

/// The kind of a netlist node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Node {
    /// A primary input.
    Input,
    /// A constant 0 or 1.
    Const(bool),
    /// An inverter.
    Not(NodeId),
    /// Two-input gates.
    And(NodeId, NodeId),
    Or(NodeId, NodeId),
    Xor(NodeId, NodeId),
    Nor(NodeId, NodeId),
    /// A 2:1 multiplexer: `sel ? a : b`.
    Mux {
        sel: NodeId,
        a: NodeId,
        b: NodeId,
    },
}

/// The delay model used for critical-path analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every simple gate costs 1 unit; XOR and MUX cost 2 (they are
    /// compound gates in CMOS); inverters and constants cost 0 wire-wise
    /// but inverters still cost 1 (a real stage).
    UnitGate,
    /// Like `UnitGate`, but each gate's delay is additionally scaled by
    /// `1 + load_factor × max(fanout − 1, 0)` to punish high-fan-out nets —
    /// the effect that makes real lookahead trees slower than unit-delay
    /// counting suggests. A `load_factor` of 0.15–0.3 is typical for the
    /// era's CMOS.
    FanoutAware {
        /// Additional delay per extra fanout, as a fraction of the gate's
        /// base delay.
        load_factor: f64,
    },
}

impl DelayModel {
    /// The delay this model assigns a node of `kind` driving `fanout`
    /// gate inputs. External analyses use this to recompute arrival
    /// times over their own graph representation and cross-check
    /// [`Netlist::critical_path`].
    pub fn gate_delay(&self, kind: NodeKind, fanout: u32) -> f64 {
        let scale = match self {
            DelayModel::UnitGate => 1.0,
            DelayModel::FanoutAware { load_factor } => {
                1.0 + load_factor * fanout.saturating_sub(1) as f64
            }
        };
        kind.base_delay() * scale
    }
}

/// A combinational gate netlist built in topological order.
///
/// Nodes can only reference previously created nodes, so the netlist is a
/// DAG by construction; evaluation and timing are single forward passes.
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    nodes: Vec<Node>,
    outputs: Vec<(String, NodeId)>,
    input_count: usize,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, n: Node) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(n);
        id
    }

    fn check(&self, id: NodeId) {
        assert!(
            (id.0 as usize) < self.nodes.len(),
            "node {id:?} does not exist in this netlist"
        );
    }

    /// Adds a primary input and returns its node.
    pub fn input(&mut self) -> NodeId {
        self.input_count += 1;
        self.push(Node::Input)
    }

    /// Adds `n` primary inputs.
    pub fn inputs(&mut self, n: usize) -> Vec<NodeId> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Adds a constant node.
    pub fn constant(&mut self, v: bool) -> NodeId {
        self.push(Node::Const(v))
    }

    /// Adds an inverter.
    pub fn not(&mut self, a: NodeId) -> NodeId {
        self.check(a);
        self.push(Node::Not(a))
    }

    /// Adds a 2-input AND gate.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(Node::And(a, b))
    }

    /// Adds a 2-input OR gate.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(Node::Or(a, b))
    }

    /// Adds a 2-input XOR gate.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(Node::Xor(a, b))
    }

    /// Adds a 2-input NOR gate.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.check(a);
        self.check(b);
        self.push(Node::Nor(a, b))
    }

    /// Adds a 2:1 mux computing `sel ? a : b`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        self.check(sel);
        self.check(a);
        self.check(b);
        self.push(Node::Mux { sel, a, b })
    }

    /// Builds a balanced AND tree over any number of operands.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn and_tree(&mut self, ops: &[NodeId]) -> NodeId {
        self.tree(ops, Netlist::and)
    }

    /// Builds a balanced OR tree over any number of operands.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn or_tree(&mut self, ops: &[NodeId]) -> NodeId {
        self.tree(ops, Netlist::or)
    }

    fn tree(&mut self, ops: &[NodeId], f: fn(&mut Self, NodeId, NodeId) -> NodeId) -> NodeId {
        assert!(!ops.is_empty(), "tree over zero operands");
        let mut level: Vec<NodeId> = ops.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(if pair.len() == 2 {
                    f(self, pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            level = next;
        }
        level[0]
    }

    /// Registers a named output.
    pub fn output(&mut self, name: impl Into<String>, id: NodeId) {
        self.check(id);
        self.outputs.push((name.into(), id));
    }

    /// The number of primary inputs.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// The number of gates (excluding inputs and constants).
    pub fn gate_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !matches!(n, Node::Input | Node::Const(_)))
            .count()
    }

    /// The total number of nodes (inputs + constants + gates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Every node id, in topological creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// The kind of node `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    pub fn node_kind(&self, id: NodeId) -> NodeKind {
        self.check(id);
        match self.nodes[id.0 as usize] {
            Node::Input => NodeKind::Input,
            Node::Const(v) => NodeKind::Const(v),
            Node::Not(_) => NodeKind::Not,
            Node::And(..) => NodeKind::And,
            Node::Or(..) => NodeKind::Or,
            Node::Xor(..) => NodeKind::Xor,
            Node::Nor(..) => NodeKind::Nor,
            Node::Mux { .. } => NodeKind::Mux,
        }
    }

    /// The fan-in nodes of `id`, in gate-input order (empty for inputs
    /// and constants; `[sel, a, b]` for a mux).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this netlist.
    pub fn fanins(&self, id: NodeId) -> Vec<NodeId> {
        self.check(id);
        match self.nodes[id.0 as usize] {
            Node::Input | Node::Const(_) => Vec::new(),
            Node::Not(a) => vec![a],
            Node::And(a, b) | Node::Or(a, b) | Node::Xor(a, b) | Node::Nor(a, b) => vec![a, b],
            Node::Mux { sel, a, b } => vec![sel, a, b],
        }
    }

    /// The named outputs with their driving nodes, in registration order.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, NodeId)> {
        self.outputs.iter().map(|(n, id)| (n.as_str(), *id))
    }

    /// Each node's fanout (number of gate inputs it drives), indexed by
    /// [`NodeId::index`].
    pub fn fanout_counts(&self) -> Vec<u32> {
        self.fanouts()
    }

    /// Simulates the netlist for the given input assignment (in input
    /// creation order) and returns the named output values.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from [`input_count`](Self::input_count).
    pub fn eval(&self, inputs: &[bool]) -> HashMap<String, bool> {
        assert_eq!(
            inputs.len(),
            self.input_count,
            "expected {} inputs, got {}",
            self.input_count,
            inputs.len()
        );
        let mut vals = vec![false; self.nodes.len()];
        let mut next_input = 0;
        for (i, node) in self.nodes.iter().enumerate() {
            vals[i] = match *node {
                Node::Input => {
                    let v = inputs[next_input];
                    next_input += 1;
                    v
                }
                Node::Const(v) => v,
                Node::Not(a) => !vals[a.0 as usize],
                Node::And(a, b) => vals[a.0 as usize] & vals[b.0 as usize],
                Node::Or(a, b) => vals[a.0 as usize] | vals[b.0 as usize],
                Node::Xor(a, b) => vals[a.0 as usize] ^ vals[b.0 as usize],
                Node::Nor(a, b) => !(vals[a.0 as usize] | vals[b.0 as usize]),
                Node::Mux { sel, a, b } => {
                    if vals[sel.0 as usize] {
                        vals[a.0 as usize]
                    } else {
                        vals[b.0 as usize]
                    }
                }
            };
        }
        self.outputs
            .iter()
            .map(|(name, id)| (name.clone(), vals[id.0 as usize]))
            .collect()
    }

    /// Computes each node's fanout (number of gate inputs it drives).
    fn fanouts(&self) -> Vec<u32> {
        let mut f = vec![0u32; self.nodes.len()];
        let bump = |id: NodeId, f: &mut Vec<u32>| f[id.0 as usize] += 1;
        for node in &self.nodes {
            match *node {
                Node::Input | Node::Const(_) => {}
                Node::Not(a) => bump(a, &mut f),
                Node::And(a, b) | Node::Or(a, b) | Node::Xor(a, b) | Node::Nor(a, b) => {
                    bump(a, &mut f);
                    bump(b, &mut f);
                }
                Node::Mux { sel, a, b } => {
                    bump(sel, &mut f);
                    bump(a, &mut f);
                    bump(b, &mut f);
                }
            }
        }
        f
    }

    /// Arrival time of every node under the delay model.
    fn arrival_times(&self, model: DelayModel) -> Vec<f64> {
        let fanout = self.fanouts();
        let mut t = vec![0.0f64; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            let delay = model.gate_delay(self.node_kind(NodeId(i as u32)), fanout[i]);
            let max_in = match *node {
                Node::Input | Node::Const(_) => 0.0,
                Node::Not(a) => t[a.0 as usize],
                Node::And(a, b) | Node::Or(a, b) | Node::Xor(a, b) | Node::Nor(a, b) => {
                    t[a.0 as usize].max(t[b.0 as usize])
                }
                Node::Mux { sel, a, b } => {
                    t[sel.0 as usize].max(t[a.0 as usize]).max(t[b.0 as usize])
                }
            };
            t[i] = max_in + delay;
        }
        t
    }

    /// The critical-path delay to the slowest registered output.
    pub fn critical_path(&self, model: DelayModel) -> f64 {
        let t = self.arrival_times(model);
        self.outputs
            .iter()
            .map(|(_, id)| t[id.0 as usize])
            .fold(0.0, f64::max)
    }

    /// The largest fanout of any node — the paper emphasises the redundant
    /// adder's critical path has fan-outs ≤ 4.
    pub fn max_fanout(&self) -> u32 {
        self.fanouts().into_iter().max().unwrap_or(0)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist: {} inputs, {} gates, {} outputs",
            self.input_count,
            self.gate_count(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_adder_truth_table() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let cin = nl.input();
        let ab = nl.xor(a, b);
        let s = nl.xor(ab, cin);
        let g = nl.and(a, b);
        let p = nl.and(ab, cin);
        let cout = nl.or(g, p);
        nl.output("s", s);
        nl.output("cout", cout);

        for bits in 0..8u8 {
            let a = bits & 1 == 1;
            let b = bits & 2 == 2;
            let c = bits & 4 == 4;
            let out = nl.eval(&[a, b, c]);
            let total = a as u8 + b as u8 + c as u8;
            assert_eq!(out["s"], total & 1 == 1);
            assert_eq!(out["cout"], total >= 2);
        }
    }

    #[test]
    fn critical_path_counts_levels() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.and(a, b);
        let y = nl.or(x, a);
        let z = nl.not(y);
        nl.output("z", z);
        assert_eq!(nl.critical_path(DelayModel::UnitGate), 3.0);
    }

    #[test]
    fn xor_costs_two() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.xor(a, b);
        nl.output("x", x);
        assert_eq!(nl.critical_path(DelayModel::UnitGate), 2.0);
    }

    #[test]
    fn fanout_aware_penalises_shared_nets() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let hub = nl.and(a, b);
        // Drive 5 gates from `hub`.
        let mut last = hub;
        for _ in 0..5 {
            last = nl.or(hub, last);
        }
        nl.output("o", last);
        let unit = nl.critical_path(DelayModel::UnitGate);
        let loaded = nl.critical_path(DelayModel::FanoutAware { load_factor: 0.2 });
        assert!(loaded > unit);
    }

    #[test]
    fn trees() {
        let mut nl = Netlist::new();
        let ins = nl.inputs(7);
        let all = nl.and_tree(&ins);
        let any = nl.or_tree(&ins);
        nl.output("all", all);
        nl.output("any", any);
        let out = nl.eval(&[true; 7]);
        assert!(out["all"] && out["any"]);
        let mut v = [true; 7];
        v[3] = false;
        let out = nl.eval(&v);
        assert!(!out["all"] && out["any"]);
        // Depth of a 7-wide tree is ⌈log2 7⌉ = 3 levels.
        assert_eq!(nl.critical_path(DelayModel::UnitGate), 3.0);
    }

    #[test]
    fn mux_selects() {
        let mut nl = Netlist::new();
        let s = nl.input();
        let a = nl.input();
        let b = nl.input();
        let m = nl.mux(s, a, b);
        nl.output("m", m);
        assert!(nl.eval(&[true, true, false])["m"]);
        assert!(!nl.eval(&[false, true, false])["m"]);
    }

    #[test]
    #[should_panic(expected = "expected 2 inputs")]
    fn eval_checks_input_arity() {
        let mut nl = Netlist::new();
        let a = nl.input();
        let b = nl.input();
        let x = nl.and(a, b);
        nl.output("x", x);
        let _ = nl.eval(&[true]);
    }
}
