//! Pass 1: structural verification of gate netlists.
//!
//! [`redbin_gates::netlist::Netlist`](redbin::gates::netlist) builds DAGs by
//! construction (a gate can only reference already-created nodes), so a
//! combinational cycle *should* be impossible. This pass does not take that
//! on faith: it re-extracts the graph through the introspection API
//! ([`CircuitGraph::from_netlist`]), proves acyclicity with an independent
//! traversal, recomputes every per-output depth under both delay models
//! with its own longest-path algorithm, and cross-checks the results
//! against [`Netlist::critical_path`]. Any disagreement between the two
//! implementations is a finding.
//!
//! On top of the per-circuit checks the pass statically proves the paper's
//! §3.4 claim (referred to throughout the workspace as **claim 1**): the
//! redundant binary adder's critical path is *independent of operand
//! width*, and at 64 bits the carry-lookahead adder is at least 3× deeper —
//! under both the unit-gate and the fan-out-aware delay model.

use redbin::gates::report::DelayReport;
use redbin::gates::{adders, DelayModel, Netlist, NodeKind};
use redbin::json::Json;

/// Widths the claim-1 proof samples. 64 is the paper's headline width; the
/// others establish width-independence.
pub const CLAIM1_WIDTHS: [usize; 5] = [8, 16, 32, 64, 128];

/// The fan-out-aware model used throughout the pass (matches the §3.4
/// report's sensitivity configuration).
pub const FANOUT_MODEL: DelayModel = DelayModel::FanoutAware { load_factor: 0.2 };

/// A combinational cycle found in a circuit graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinationalCycle {
    /// The node indices on the cycle, in traversal order (first == the node
    /// the back edge returns to).
    pub nodes: Vec<usize>,
}

impl std::fmt::Display for CombinationalCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "combinational cycle through nodes {:?}", self.nodes)
    }
}

impl std::error::Error for CombinationalCycle {}

/// A gate-level circuit as a plain adjacency structure — either extracted
/// from a [`Netlist`] or hand-built (the test suites seed deliberately
/// cyclic graphs this way, something the netlist builder cannot express).
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    kinds: Vec<NodeKind>,
    fanins: Vec<Vec<usize>>,
    outputs: Vec<(String, usize)>,
}

impl CircuitGraph {
    /// Extracts the graph behind a netlist through its introspection API.
    pub fn from_netlist(nl: &Netlist) -> Self {
        let n = nl.node_count();
        let mut kinds = Vec::with_capacity(n);
        let mut fanins = Vec::with_capacity(n);
        for id in nl.node_ids() {
            kinds.push(nl.node_kind(id));
            fanins.push(nl.fanins(id).iter().map(|f| f.index()).collect());
        }
        let outputs = nl
            .outputs()
            .map(|(name, id)| (name.to_string(), id.index()))
            .collect();
        CircuitGraph {
            kinds,
            fanins,
            outputs,
        }
    }

    /// Builds a graph from raw parts. Unlike the netlist builder this can
    /// express arbitrary edge sets — including cycles — which is exactly
    /// what the negative tests need.
    ///
    /// # Panics
    ///
    /// Panics if an edge or output references a node out of range, or if
    /// the part lengths disagree.
    pub fn from_parts(
        kinds: Vec<NodeKind>,
        fanins: Vec<Vec<usize>>,
        outputs: Vec<(String, usize)>,
    ) -> Self {
        assert_eq!(kinds.len(), fanins.len(), "one fanin list per node");
        let n = kinds.len();
        for ins in &fanins {
            for &f in ins {
                assert!(f < n, "fanin {f} out of range (n = {n})");
            }
        }
        for (name, id) in &outputs {
            assert!(*id < n, "output `{name}` references node {id} (n = {n})");
        }
        CircuitGraph {
            kinds,
            fanins,
            outputs,
        }
    }

    /// Number of nodes (inputs, constants and gates).
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of nodes that are actual gates (neither inputs nor
    /// constants).
    pub fn gate_count(&self) -> usize {
        self.kinds
            .iter()
            .filter(|k| !matches!(k, NodeKind::Input | NodeKind::Const(_)))
            .count()
    }

    /// Per-node fan-out counts, recomputed from the edge list.
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.kinds.len()];
        for ins in &self.fanins {
            for &f in ins {
                counts[f] += 1;
            }
        }
        counts
    }

    /// A histogram of fan-out counts: `(fanout, number of nodes)`, sorted
    /// by fan-out.
    pub fn fanout_histogram(&self) -> Vec<(u32, usize)> {
        let counts = self.fanout_counts();
        let mut hist: Vec<(u32, usize)> = Vec::new();
        for &c in &counts {
            match hist.iter_mut().find(|(f, _)| *f == c) {
                Some((_, n)) => *n += 1,
                None => hist.push((c, 1)),
            }
        }
        hist.sort_unstable();
        hist
    }

    /// Finds a combinational cycle, or `None` if the graph is a DAG.
    ///
    /// Iterative three-color depth-first search (no recursion, so graphs
    /// with tens of thousands of gates cannot overflow the stack). The
    /// returned cycle lists the nodes from the back edge's target around to
    /// its source.
    pub fn find_cycle(&self) -> Option<CombinationalCycle> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.kinds.len();
        let mut color = vec![WHITE; n];
        // DFS over *fanin* edges: direction does not matter for cycles.
        for start in 0..n {
            if color[start] != WHITE {
                continue;
            }
            // Stack of (node, next fanin index to explore).
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = GRAY;
            while let Some(&mut (node, ref mut next)) = stack.last_mut() {
                if *next < self.fanins[node].len() {
                    let child = self.fanins[node][*next];
                    *next += 1;
                    match color[child] {
                        WHITE => {
                            color[child] = GRAY;
                            stack.push((child, 0));
                        }
                        GRAY => {
                            // Back edge: the cycle is the stack suffix from
                            // `child` to `node`.
                            let pos = stack.iter().position(|&(n, _)| n == child).unwrap_or(0);
                            let nodes = stack[pos..].iter().map(|&(n, _)| n).collect();
                            return Some(CombinationalCycle { nodes });
                        }
                        _ => {}
                    }
                } else {
                    color[node] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Longest-path arrival time of every node under `model`, computed by
    /// Kahn's algorithm (independent of the netlist's own topological-order
    /// evaluation).
    ///
    /// # Errors
    ///
    /// Returns the combinational cycle if the graph has one.
    pub fn depths(&self, model: DelayModel) -> Result<Vec<f64>, CombinationalCycle> {
        let n = self.kinds.len();
        let fanout = self.fanout_counts();
        // In-degree over fanin edges; process sources first.
        let mut indegree: Vec<usize> = self.fanins.iter().map(Vec::len).collect();
        let mut fanout_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (node, ins) in self.fanins.iter().enumerate() {
            for &f in ins {
                fanout_edges[f].push(node);
            }
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut depth = vec![0.0f64; n];
        let mut processed = 0usize;
        while let Some(node) = queue.pop() {
            processed += 1;
            let arrive = self.fanins[node]
                .iter()
                .map(|&f| depth[f])
                .fold(0.0f64, f64::max);
            depth[node] = arrive + model.gate_delay(self.kinds[node], fanout[node]);
            for &consumer in &fanout_edges[node] {
                indegree[consumer] -= 1;
                if indegree[consumer] == 0 {
                    queue.push(consumer);
                }
            }
        }
        if processed < n {
            // Some nodes never reached in-degree 0: a cycle. Locate it with
            // the DFS so the report can name the nodes.
            return Err(self
                .find_cycle()
                .unwrap_or(CombinationalCycle { nodes: vec![] }));
        }
        Ok(depth)
    }

    /// The critical path: the deepest *output* under `model`.
    ///
    /// # Errors
    ///
    /// Returns the combinational cycle if the graph has one.
    pub fn critical_path(&self, model: DelayModel) -> Result<f64, CombinationalCycle> {
        let depth = self.depths(model)?;
        Ok(self
            .outputs
            .iter()
            .map(|(_, id)| depth[*id])
            .fold(0.0f64, f64::max))
    }
}

/// The analysis of one circuit: structure facts plus recomputed depths.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitReport {
    /// Circuit name (`"rb64"`, `"cla64"`, …).
    pub name: String,
    /// Gate count (inputs and constants excluded).
    pub gates: usize,
    /// The combinational cycle, if one was found (always `None` for
    /// netlist-built circuits — anything else is a hard failure).
    pub cycle: Option<CombinationalCycle>,
    /// Critical path under the unit-gate model (recomputed).
    pub unit_depth: f64,
    /// Critical path under [`FANOUT_MODEL`] (recomputed).
    pub fanout_depth: f64,
    /// Largest fan-out in the circuit.
    pub max_fanout: u32,
    /// `(fanout, node count)` histogram.
    pub fanout_histogram: Vec<(u32, usize)>,
    /// `true` if the recomputed depths agree with
    /// [`Netlist::critical_path`] under both models.
    pub cross_check_ok: bool,
}

/// Analyzes a bare graph: cycle check, depths under both models, and the
/// fan-out histogram. Without a netlist there is nothing to cross-check,
/// so `cross_check_ok` is true whenever the depths are computable. This
/// is the seam tests use to feed seeded (e.g. cyclic) graphs through the
/// same reporting path the shipped circuits take.
pub fn analyze_graph(name: &str, g: &CircuitGraph) -> CircuitReport {
    let cycle = g.find_cycle();
    let (unit_depth, fanout_depth, cross_check_ok) = match (
        g.critical_path(DelayModel::UnitGate),
        g.critical_path(FANOUT_MODEL),
    ) {
        (Ok(u), Ok(f)) => (u, f, true),
        _ => (f64::NAN, f64::NAN, false),
    };
    let hist = g.fanout_histogram();
    let max_fanout = hist.last().map_or(0, |(f, _)| *f);
    CircuitReport {
        name: name.to_string(),
        gates: g.gate_count(),
        cycle,
        unit_depth,
        fanout_depth,
        max_fanout,
        fanout_histogram: hist,
        cross_check_ok,
    }
}

/// Analyzes one named netlist: cycle check, depths under both models, the
/// fan-out histogram, and the cross-check against the netlist's own
/// critical-path computation.
pub fn analyze_circuit(name: &str, nl: &Netlist) -> CircuitReport {
    let g = CircuitGraph::from_netlist(nl);
    let mut report = analyze_graph(name, &g);
    if report.cross_check_ok {
        report.cross_check_ok = (report.unit_depth - nl.critical_path(DelayModel::UnitGate)).abs()
            < 1e-9
            && (report.fanout_depth - nl.critical_path(FANOUT_MODEL)).abs() < 1e-9;
    }
    report
}

/// The statically-proved §3.4 claim under one delay model.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim1Proof {
    /// Model label (`"unit-gate"` / `"fanout-aware-0.2"`).
    pub model: String,
    /// `(width, recomputed RB critical path)` at every sampled width.
    pub rb_depths: Vec<(usize, f64)>,
    /// Recomputed 64-bit CLA critical path.
    pub cla64: f64,
    /// The RB depth is identical at every sampled width.
    pub rb_width_independent: bool,
    /// `cla64 / rb64`.
    pub cla_over_rb: f64,
    /// Both conditions hold: width independence and a ≥ 3× CLA ratio.
    pub holds: bool,
}

fn model_label(model: DelayModel) -> String {
    match model {
        DelayModel::UnitGate => "unit-gate".to_string(),
        DelayModel::FanoutAware { load_factor } => format!("fanout-aware-{load_factor}"),
    }
}

/// Statically proves claim 1 under `model`: the redundant binary adder's
/// critical path is the same at every width in [`CLAIM1_WIDTHS`], and the
/// 64-bit CLA is at least 3× deeper.
///
/// All depths are recomputed by [`CircuitGraph`] — the proof does not trust
/// the netlist's own arrival-time code (that agreement is checked
/// separately by [`analyze_circuit`]).
pub fn prove_claim1(model: DelayModel) -> Claim1Proof {
    let rb_depths: Vec<(usize, f64)> = CLAIM1_WIDTHS
        .iter()
        .map(|&w| {
            let nl = adders::rb_adder(w);
            let g = CircuitGraph::from_netlist(nl.netlist());
            (w, g.critical_path(model).unwrap_or(f64::NAN))
        })
        .collect();
    let cla = adders::carry_lookahead(64);
    let cla64 = CircuitGraph::from_netlist(cla.netlist())
        .critical_path(model)
        .unwrap_or(f64::NAN);
    let rb64 = rb_depths
        .iter()
        .find(|(w, _)| *w == 64)
        .map_or(f64::NAN, |(_, d)| *d);
    let rb_width_independent = rb_depths
        .iter()
        .all(|(_, d)| d.is_finite() && (*d - rb64).abs() < 1e-9);
    let cla_over_rb = cla64 / rb64;
    Claim1Proof {
        model: model_label(model),
        rb_depths,
        cla64,
        rb_width_independent,
        cla_over_rb,
        holds: rb_width_independent && cla_over_rb.is_finite() && cla_over_rb >= 3.0,
    }
}

/// The full netlist pass: every §3.4 circuit analyzed, the claim-1 proof
/// under both delay models, and a cross-check against
/// [`DelayReport::standard`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetlistAnalysis {
    /// One report per analyzed circuit.
    pub circuits: Vec<CircuitReport>,
    /// Claim-1 proofs (unit-gate first, then fan-out-aware).
    pub claims: Vec<Claim1Proof>,
    /// Human-readable problems; empty iff the pass is clean.
    pub problems: Vec<String>,
}

impl NetlistAnalysis {
    /// `true` if the pass found nothing wrong.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
    }
}

/// Assembles an analysis from circuit reports and claim proofs, deriving
/// the problem list: any cycle, any failed cross-check, any failed claim
/// makes the pass dirty. Public so tests can feed a seeded-cycle report
/// through the exact predicate the CLI turns into its exit code.
pub fn assess(circuits: Vec<CircuitReport>, claims: Vec<Claim1Proof>) -> NetlistAnalysis {
    let mut problems = Vec::new();
    for c in &circuits {
        if let Some(cycle) = &c.cycle {
            problems.push(format!("{}: {cycle}", c.name));
        }
        if !c.cross_check_ok {
            problems.push(format!(
                "{}: recomputed depths disagree with Netlist::critical_path",
                c.name
            ));
        }
    }
    for claim in &claims {
        if !claim.holds {
            problems.push(format!(
                "claim 1 fails under {}: width-independent={} cla/rb={:.2}",
                claim.model, claim.rb_width_independent, claim.cla_over_rb
            ));
        }
    }
    NetlistAnalysis {
        circuits,
        claims,
        problems,
    }
}

/// Runs the netlist pass over the standard circuit set: the redundant
/// binary adder and the carry-lookahead adder at [`CLAIM1_WIDTHS`], plus
/// the 64-bit RB→TC converter.
pub fn run() -> NetlistAnalysis {
    let mut circuits = Vec::new();
    for &w in &CLAIM1_WIDTHS {
        circuits.push(analyze_circuit(
            &format!("rb{w}"),
            adders::rb_adder(w).netlist(),
        ));
        circuits.push(analyze_circuit(
            &format!("cla{w}"),
            adders::carry_lookahead(w).netlist(),
        ));
    }
    circuits.push(analyze_circuit(
        "cv64",
        adders::rb_to_tc_converter(64).netlist(),
    ));

    let claims = vec![
        prove_claim1(DelayModel::UnitGate),
        prove_claim1(FANOUT_MODEL),
    ];
    let mut analysis = assess(circuits, claims);

    // Second cross-check: the §3.4 report must tell the same story the
    // graph recomputation does.
    let report = DelayReport::standard();
    let mut extra = Vec::new();
    for claim in &analysis.claims[..1] {
        for &(w, d) in &claim.rb_depths {
            if let Some(row) = report.row(w) {
                if (row.rb - d).abs() > 1e-9 {
                    extra.push(format!(
                        "rb{w}: gates::report says {} but the analyzer computed {d}",
                        row.rb
                    ));
                }
            }
        }
        if let Some(row) = report.row(64) {
            if (row.cla - claim.cla64).abs() > 1e-9 {
                extra.push(format!(
                    "cla64: gates::report says {} but the analyzer computed {}",
                    row.cla, claim.cla64
                ));
            }
        }
    }
    analysis.problems.extend(extra);

    analysis
}

/// Renders the analysis as a machine-readable JSON document.
pub fn to_json(a: &NetlistAnalysis) -> Json {
    let mut o = Json::object();
    o.set("pass", Json::Str("netlist".into()));
    o.set("clean", Json::Bool(a.clean()));
    let circuits = a
        .circuits
        .iter()
        .map(|c| {
            let mut co = Json::object();
            co.set("name", Json::Str(c.name.clone()));
            co.set("gates", Json::UInt(c.gates as u64));
            co.set("acyclic", Json::Bool(c.cycle.is_none()));
            co.set("unit-depth", Json::Num(c.unit_depth));
            co.set("fanout-depth", Json::Num(c.fanout_depth));
            co.set("max-fanout", Json::UInt(u64::from(c.max_fanout)));
            co.set("cross-check", Json::Bool(c.cross_check_ok));
            co.set(
                "fanout-histogram",
                Json::Arr(
                    c.fanout_histogram
                        .iter()
                        .map(|&(f, n)| {
                            Json::Arr(vec![Json::UInt(u64::from(f)), Json::UInt(n as u64)])
                        })
                        .collect(),
                ),
            );
            co
        })
        .collect();
    o.set("circuits", Json::Arr(circuits));
    let claims = a
        .claims
        .iter()
        .map(|p| {
            let mut po = Json::object();
            po.set("model", Json::Str(p.model.clone()));
            po.set(
                "rb-depths",
                Json::Arr(
                    p.rb_depths
                        .iter()
                        .map(|&(w, d)| Json::Arr(vec![Json::UInt(w as u64), Json::Num(d)]))
                        .collect(),
                ),
            );
            po.set("cla64", Json::Num(p.cla64));
            po.set("rb-width-independent", Json::Bool(p.rb_width_independent));
            po.set("cla-over-rb", Json::Num(p.cla_over_rb));
            po.set("holds", Json::Bool(p.holds));
            po
        })
        .collect();
    o.set("claim1", Json::Arr(claims));
    o.set(
        "problems",
        Json::Arr(a.problems.iter().map(|p| Json::Str(p.clone())).collect()),
    );
    o
}

/// The depth report the golden test pins: RB depths at every sampled width
/// and the 64-bit CLA, under both delay models.
pub fn depth_report_json() -> Json {
    let mut o = Json::object();
    for model in [DelayModel::UnitGate, FANOUT_MODEL] {
        let p = prove_claim1(model);
        let mut mo = Json::object();
        mo.set(
            "rb",
            Json::Arr(
                p.rb_depths
                    .iter()
                    .map(|&(w, d)| Json::Arr(vec![Json::UInt(w as u64), Json::Num(d)]))
                    .collect(),
            ),
        );
        mo.set("cla64", Json::Num(p.cla64));
        mo.set("cla-over-rb", Json::Num(p.cla_over_rb));
        o.set(&p.model, mo);
    }
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netlist_circuits_are_acyclic_and_cross_check() {
        let a = run();
        assert!(a.clean(), "problems: {:?}", a.problems);
        assert!(a.circuits.iter().all(|c| c.cycle.is_none()));
        assert!(a.circuits.iter().all(|c| c.cross_check_ok));
    }

    #[test]
    fn claim1_holds_under_both_models() {
        for model in [DelayModel::UnitGate, FANOUT_MODEL] {
            let p = prove_claim1(model);
            assert!(
                p.rb_width_independent,
                "{}: rb depths {:?}",
                p.model, p.rb_depths
            );
            assert!(
                p.cla_over_rb >= 3.0,
                "{}: cla/rb = {:.2}",
                p.model,
                p.cla_over_rb
            );
            assert!(p.holds);
        }
    }

    #[test]
    fn seeded_back_edge_is_reported() {
        // a NOT-gate ring: 0 <- 1 <- 2 <- 0.
        let g = CircuitGraph::from_parts(
            vec![NodeKind::Not; 3],
            vec![vec![1], vec![2], vec![0]],
            vec![("out".into(), 0)],
        );
        let cycle = g.find_cycle().expect("cycle found");
        assert_eq!(cycle.nodes.len(), 3);
        assert!(g.depths(DelayModel::UnitGate).is_err());
        assert!(g.critical_path(DelayModel::UnitGate).is_err());
    }

    #[test]
    fn hand_built_dag_depth_matches_by_hand() {
        // in0 -> not(1) -> and(2, with in0) -> out; xor(3) of 1 and 2.
        let g = CircuitGraph::from_parts(
            vec![NodeKind::Input, NodeKind::Not, NodeKind::And, NodeKind::Xor],
            vec![vec![], vec![0], vec![0, 1], vec![1, 2]],
            vec![("a".into(), 2), ("b".into(), 3)],
        );
        assert!(g.find_cycle().is_none());
        let d = g.depths(DelayModel::UnitGate).expect("acyclic");
        assert_eq!(d, vec![0.0, 1.0, 2.0, 4.0]);
        assert_eq!(g.critical_path(DelayModel::UnitGate).expect("acyclic"), 4.0);
    }

    #[test]
    fn fanout_histogram_counts_every_node() {
        let nl = adders::rb_adder(8);
        let g = CircuitGraph::from_netlist(nl.netlist());
        let total: usize = g.fanout_histogram().iter().map(|(_, n)| n).sum();
        assert_eq!(total, g.node_count());
    }
}
