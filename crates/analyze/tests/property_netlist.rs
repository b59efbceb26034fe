//! Property tests for the netlist pass (satellite c): random DAGs are
//! never reported cyclic, seeded back-edges always are, and the Kahn
//! longest-path depth matches a brute-force recursion.

use redbin::gates::{DelayModel, NodeKind};
use redbin_analyze::netlist::{CircuitGraph, FANOUT_MODEL};
use redbin_testkit::{cases, Rng};

/// Builds a random graph in creation order: every edge points from a
/// lower index to a higher one, a DAG by construction. Returns the parts
/// so callers can corrupt them.
fn random_parts(rng: &mut Rng) -> (Vec<NodeKind>, Vec<Vec<usize>>) {
    let n = rng.range_usize(3, 40);
    let inputs = rng.range_usize(1, 3).min(n - 1);
    let mut kinds = Vec::with_capacity(n);
    let mut fanins = Vec::with_capacity(n);
    for i in 0..n {
        if i < inputs {
            kinds.push(NodeKind::Input);
            fanins.push(Vec::new());
        } else {
            let two_input = rng.next_bool();
            kinds.push(if two_input {
                NodeKind::And
            } else {
                NodeKind::Not
            });
            let arity = if two_input { 2 } else { 1 };
            let mut f = Vec::with_capacity(arity);
            for _ in 0..arity {
                // Forward-only edges come from strictly earlier nodes.
                f.push(rng.range_usize(0, i));
            }
            fanins.push(f);
        }
    }
    (kinds, fanins)
}

fn outputs_for(n: usize) -> Vec<(String, usize)> {
    vec![("out".to_string(), n - 1)]
}

/// Longest path to `node` by direct recursion — the oracle for the Kahn
/// computation. Exponential, so only run on the small graphs above.
fn brute_depth(
    fanouts: &[u32],
    kinds: &[NodeKind],
    fanins: &[Vec<usize>],
    model: DelayModel,
    node: usize,
) -> f64 {
    let gate = model.gate_delay(kinds[node], fanouts[node]);
    let below = fanins[node]
        .iter()
        .map(|&f| brute_depth(fanouts, kinds, fanins, model, f))
        .fold(0.0_f64, f64::max);
    below + gate
}

#[test]
fn random_dags_never_report_a_cycle() {
    cases(200, 0xA11CE, |rng| {
        let (kinds, fanins) = random_parts(rng);
        let n = kinds.len();
        let g = CircuitGraph::from_parts(kinds, fanins, outputs_for(n));
        assert!(g.find_cycle().is_none());
        assert!(g.depths(DelayModel::UnitGate).is_ok());
    });
}

#[test]
fn seeded_back_edges_always_cycle() {
    cases(200, 0xBAD5EED, |rng| {
        let (kinds, mut fanins) = random_parts(rng);
        let n = kinds.len();
        // Corrupt the graph with a guaranteed cycle: either a self-loop,
        // or a mutual dependence between two gate nodes v < w (every node
        // at an index >= the input count has fanins to redirect).
        let victims: Vec<usize> = (0..n).filter(|&i| !fanins[i].is_empty()).collect();
        let v = *rng.pick(&victims);
        let slot = rng.range_usize(0, fanins[v].len());
        let w = rng.range_usize(v, n);
        if w == v {
            fanins[v][slot] = v;
        } else {
            fanins[v][slot] = w;
            let slot_w = rng.range_usize(0, fanins[w].len());
            fanins[w][slot_w] = v;
        }
        let g = CircuitGraph::from_parts(kinds, fanins, outputs_for(n));
        let cycle = g.find_cycle().expect("back edge must be detected");
        assert!(!cycle.nodes.is_empty());
        assert!(
            g.depths(DelayModel::UnitGate).is_err(),
            "depths must refuse a cyclic graph"
        );
    });
}

#[test]
fn kahn_depth_matches_brute_force_longest_path() {
    for model in [DelayModel::UnitGate, FANOUT_MODEL] {
        cases(60, 0xD0E, |rng| {
            let (kinds, fanins) = random_parts(rng);
            let n = kinds.len();
            let g = CircuitGraph::from_parts(kinds.clone(), fanins.clone(), outputs_for(n));
            let depths = g.depths(model).expect("DAG");
            let fanouts = g.fanout_counts();
            for (node, &depth) in depths.iter().enumerate() {
                let expect = brute_depth(&fanouts, &kinds, &fanins, model, node);
                assert!(
                    (depth - expect).abs() < 1e-9,
                    "node {node}: kahn {depth} vs brute {expect} under {model:?}",
                );
            }
        });
    }
}
