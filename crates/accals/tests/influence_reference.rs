//! Differential test of `build_influence_graph` against its definition:
//! the pairwise `influence_index` over full `shortest_forward_distances`
//! vectors, thresholded at `t_b`. The production builder never
//! materialises the distance vectors (reachability is the TFO bit and
//! only distances up to the threshold's hop bound are collected), so it
//! must reproduce the reference edge list exactly on real circuits and
//! at thresholds that make the hop bound 0, 1, 4 and unbounded.

use accals::indep::{build_influence_graph, influence_index};
use aig::cone::{shortest_forward_distances, tfo_mask};
use aig::{Aig, Fanouts, NodeId};

/// The influence graph's edges `(i, j)`, `i < j`, as the definition
/// gives them.
fn reference_edges(aig: &Aig, tns: &[NodeId], t_b: f64) -> Vec<(usize, usize)> {
    let fanouts = Fanouts::build(aig);
    let order = aig.topo_order().unwrap();
    let mut pos = vec![0u32; aig.n_nodes()];
    for (i, id) in order.iter().enumerate() {
        pos[id.index()] = i as u32;
    }
    let tfos: Vec<_> = tns.iter().map(|&n| tfo_mask(aig, &fanouts, n)).collect();
    let dists: Vec<_> = tns
        .iter()
        .map(|&n| shortest_forward_distances(aig, &fanouts, n))
        .collect();
    let mut edges = Vec::new();
    for i in 0..tns.len() {
        for j in i + 1..tns.len() {
            let (e, l) = if pos[tns[i].index()] <= pos[tns[j].index()] {
                (i, j)
            } else {
                (j, i)
            };
            if influence_index(&dists[e], &tfos[e], &tfos[l], tns[l]) > t_b {
                edges.push((i, j));
            }
        }
    }
    edges
}

fn assert_matches_reference(aig: &Aig, tns: &[NodeId]) {
    for t_b in [0.0, 0.2, 0.5, 1.0] {
        let g = build_influence_graph(aig, tns, t_b);
        let got: Vec<(usize, usize)> = (0..tns.len())
            .flat_map(|i| g.neighbors(i).filter(move |&j| j > i).map(move |j| (i, j)))
            .collect();
        let want = reference_edges(aig, tns, t_b);
        assert_eq!(got.len(), g.n_edges());
        assert_eq!(got, want, "{} at t_b {t_b}", aig.name());
    }
}

fn live_ands(aig: &Aig) -> Vec<NodeId> {
    let live = aig.live_mask();
    aig.and_ids().filter(|n| live[n.index()]).collect()
}

#[test]
fn influence_graph_matches_reference_on_suite_circuits() {
    for name in ["rca32", "mtp8", "alu4"] {
        let g = benchgen::suite::by_name(name).unwrap();
        let ands = live_ands(&g);
        // Every live AND node, and a shuffled-order sample so that pairs
        // reach the builder in both topological orientations.
        assert_matches_reference(&g, &ands);
        let mixed: Vec<NodeId> = ands.iter().rev().step_by(3).copied().collect();
        assert_matches_reference(&g, &mixed);
    }
}

#[test]
fn influence_graph_matches_reference_on_a_mult64_window() {
    let g = benchgen::epfl::by_name("mult64").unwrap();
    let ands = live_ands(&g);
    // A window-shaped target set: a run of consecutive live AND ids (ids
    // are topologically sorted, so the run is structurally local).
    let mid = ands.len() / 2;
    assert_matches_reference(&g, &ands[mid..mid + 160]);
}

#[test]
fn duplicate_targets_are_dependent_below_one() {
    let g = benchgen::suite::by_name("rca32").unwrap();
    let n = live_ands(&g)[5];
    assert!(build_influence_graph(&g, &[n, n], 0.5).has_edge(0, 1));
    assert!(!build_influence_graph(&g, &[n, n], 1.0).has_edge(0, 1));
}
