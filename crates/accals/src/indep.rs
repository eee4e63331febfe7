//! `SelectIndpLACs`: the mutual-influence index, the independence graph
//! `G_sol`, and the MIS-based selection of a likely-independent LAC set
//! (Section II-D).

use aig::cone::BitMask;
use aig::{Aig, Fanouts, NodeId};
use lac::ScoredLac;
use misolver::{solve, Graph, MisStrategy};

/// Pairwise mutual-influence index `p_ji` between two target nodes, with
/// `earlier` preceding `later` in topological order:
///
/// - if a forward path `earlier → later` exists, `p = 1 / d` for the
///   shortest such path length `d` (closer pairs influence each other
///   more);
/// - otherwise `p = |F(earlier) ∩ F(later)| / |F(later)|` over transitive
///   fanouts (larger overlap, more influence).
pub fn influence_index(
    dist_from_earlier: &[Option<u32>],
    tfo_earlier: &BitMask,
    tfo_later: &BitMask,
    later: NodeId,
) -> f64 {
    match dist_from_earlier[later.index()] {
        Some(d) if d > 0 => 1.0 / d as f64,
        Some(_) => 1.0, // same node (should not happen between distinct TNs)
        None => {
            let inter = tfo_earlier.intersection_count(tfo_later);
            inter as f64 / tfo_later.count().max(1) as f64
        }
    }
}

/// Builds the independence graph `G_sol` over the target nodes `tns`:
/// vertices are TNs, and an edge connects two TNs whose influence index
/// exceeds `t_b` (meaning their LACs are *likely dependent*).
///
/// The graph equals the one [`influence_index`] defines over full
/// shortest-distance vectors, without materialising them:
///
/// - whether `later` is reachable from `earlier` is the TFO bit;
/// - a reachable pair at distance `d` is an edge iff `1/d > t_b`, which
///   holds exactly for `d <= max_hops`, the largest such `d`; so only the
///   nodes within `max_hops` forward hops of each TN are collected, and
///   none when every possible distance qualifies;
/// - `|F(l)|` is counted once per TN rather than once per pair;
/// - every TN's transitive fanout comes from one shared sweep
///   (`tfo_masks`) instead of one BFS per TN.
///
/// Memory is two node bitsets per TN instead of one `Option<u32>` per
/// node per TN.
///
/// # Panics
///
/// Panics if the graph is cyclic.
pub fn build_influence_graph(aig: &Aig, tns: &[NodeId], t_b: f64) -> Graph {
    let k = tns.len();
    let mut g = Graph::new(k);
    if k < 2 {
        return g;
    }
    let pool = parkit::global();
    let order = aig.topo_order().expect("acyclic");
    let mut pos = vec![0u32; aig.n_nodes()];
    for (i, id) in order.iter().enumerate() {
        pos[id.index()] = i as u32;
    }
    let tfos = tfo_masks(aig, &order, tns);
    let tfo_sizes: Vec<usize> = tfos.iter().map(|m| m.count().max(1)).collect();
    let hops = max_hops(t_b, aig.n_nodes());
    let near: Vec<BitMask> = match hops {
        Some(h) => {
            let fanouts = Fanouts::build(aig);
            pool.par_map_collect(tns, |_, &n| within_hops(aig, &fanouts, n, h))
        }
        None => Vec::new(),
    };

    // The O(k²) pairwise scan, chunked by row.
    let chunk = k.div_ceil((pool.threads() * 4).max(1)).max(1);
    let edge_chunks = pool.par_chunk_results(k, chunk, |_, rows| {
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for i in rows {
            for j in i + 1..k {
                let (e, l) = if pos[tns[i].index()] <= pos[tns[j].index()] {
                    (i, j)
                } else {
                    (j, i)
                };
                let later = tns[l].index();
                let dependent = if tns[e] == tns[l] {
                    1.0 > t_b
                } else if tfos[e].get(later) {
                    hops.is_none_or(|_| near[e].get(later))
                } else {
                    let inter = tfos[e].intersection_count(&tfos[l]);
                    inter as f64 / tfo_sizes[l] as f64 > t_b
                };
                if dependent {
                    edges.push((i, j));
                }
            }
        }
        edges
    });
    for (i, j) in edge_chunks.into_iter().flatten() {
        g.add_edge(i, j);
    }
    g
}

/// The transitive fanout of every TN (each including the TN itself), the
/// same node sets one fanout BFS per TN would find. One ascending sweep
/// over the topological `order` carries a `tns.len()`-bit reach set per
/// node — an AND node reaches what its fanins reach — and the sets are
/// then transposed into one node bitset per TN, in parallel over blocks
/// of 64 TNs.
fn tfo_masks(aig: &Aig, order: &[NodeId], tns: &[NodeId]) -> Vec<BitMask> {
    let n = aig.n_nodes();
    let kw = tns.len().div_ceil(64);
    let mut reach = vec![0u64; n * kw];
    for (i, t) in tns.iter().enumerate() {
        reach[t.index() * kw + i / 64] |= 1 << (i % 64);
    }
    for &id in order {
        if let Some((a, b)) = aig.fanins(id) {
            let (v, a, b) = (
                id.index() * kw,
                a.node().index() * kw,
                b.node().index() * kw,
            );
            for j in 0..kw {
                reach[v + j] |= reach[a + j] | reach[b + j];
            }
        }
    }
    let blocks: Vec<usize> = (0..kw).collect();
    parkit::global()
        .par_map_collect(&blocks, |_, &blk| {
            let mut masks = vec![BitMask::zeros(n); (tns.len() - blk * 64).min(64)];
            for v in 0..n {
                let mut bits = reach[v * kw + blk];
                while bits != 0 {
                    masks[bits.trailing_zeros() as usize].set(v);
                    bits &= bits - 1;
                }
            }
            masks
        })
        .concat()
}

/// The largest forward distance `d >= 1` whose influence `1/d` exceeds
/// `t_b`, or `None` when every distance possible in a graph of `n_nodes`
/// nodes does. Since `1/d` falls as `d` grows, the distances that make a
/// reachable pair dependent are exactly `1..=max_hops`.
fn max_hops(t_b: f64, n_nodes: usize) -> Option<u32> {
    let dependent = |d: u64| 1.0 / d as f64 > t_b;
    if dependent(n_nodes.max(1) as u64) {
        return None;
    }
    // Binary search for the last dependent distance in [0, n_nodes).
    let (mut lo, mut hi) = (0u64, n_nodes.max(1) as u64);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if dependent(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo as u32)
}

/// The nodes at most `hops` fanout edges away from `n` (including `n`),
/// by a depth-bounded BFS.
fn within_hops(aig: &Aig, fanouts: &Fanouts, n: NodeId, hops: u32) -> BitMask {
    let mut seen = BitMask::zeros(aig.n_nodes());
    seen.set(n.index());
    let mut frontier = vec![n];
    let mut next = Vec::new();
    for _ in 0..hops {
        for &m in &frontier {
            for &f in fanouts.of(m) {
                if !seen.get(f.index()) {
                    seen.set(f.index());
                    next.push(f);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }
    seen
}

/// Selects the independent LAC set `L_indp` from the conflict-free set
/// `l_sol` (Section II-D2/3):
///
/// 1. solve a MIS on the influence graph to get the TN set `N_indp`;
/// 2. keep the LACs whose TNs are in `N_indp` (the potential set
///    `L_pote`, still sorted by ascending `ΔE`);
/// 3. size the final set: all non-positive-`ΔE` LACs if there are at
///    least `r_sel` of them; otherwise the longest prefix of the first
///    `r_sel` whose estimated error `e + Σ ΔE` stays within
///    `lambda * error_bound` (at least one LAC is always selected).
///
/// `l_sol` must be sorted by ascending `ΔE`.
#[allow(clippy::too_many_arguments)]
pub fn select_indep_lacs(
    aig: &Aig,
    l_sol: &[ScoredLac],
    error: f64,
    error_bound: f64,
    r_sel: usize,
    t_b: f64,
    lambda: f64,
    mis: MisStrategy,
) -> Vec<ScoredLac> {
    if l_sol.is_empty() {
        return Vec::new();
    }
    let tns: Vec<NodeId> = l_sol.iter().map(|s| s.lac.tn).collect();
    let graph = build_influence_graph(aig, &tns, t_b);
    let chosen = solve(&graph, mis);
    let in_mis: Vec<bool> = {
        let mut v = vec![false; tns.len()];
        for i in chosen {
            v[i] = true;
        }
        v
    };
    let l_pote: Vec<&ScoredLac> = l_sol
        .iter()
        .enumerate()
        .filter(|(i, _)| in_mis[*i])
        .map(|(_, s)| s)
        .collect();
    if l_pote.is_empty() {
        return Vec::new();
    }

    let r_neg = l_pote.iter().take_while(|s| s.delta_e <= 0.0).count();
    if r_neg >= r_sel {
        return l_pote[..r_neg].iter().map(|s| (*s).clone()).collect();
    }

    let budget = lambda * error_bound;
    let mut selected = Vec::new();
    let mut est = error;
    for s in l_pote.iter().take(r_sel) {
        est += s.delta_e;
        if est > budget && !selected.is_empty() {
            break;
        }
        if est > budget && selected.is_empty() {
            // Even the best LAC exceeds the budget: take it alone.
            selected.push((*s).clone());
            break;
        }
        selected.push((*s).clone());
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::{Aig, Lit};
    use lac::{Lac, LacKind};

    /// Two independent chains feeding separate outputs, plus one chain
    /// where nodes sit close together.
    fn two_chains() -> (Aig, Vec<NodeId>) {
        let mut g = Aig::new("t", 8);
        // Chain A over inputs 0..4.
        let mut a = g.pi(0);
        let mut a_nodes = Vec::new();
        for i in 1..4 {
            a = g.and(a, g.pi(i));
            a_nodes.push(a.node());
        }
        // Chain B over inputs 4..8.
        let mut b = g.pi(4);
        let mut b_nodes = Vec::new();
        for i in 5..8 {
            b = g.and(b, g.pi(i));
            b_nodes.push(b.node());
        }
        g.add_output(a, "ya");
        g.add_output(b, "yb");
        let nodes = vec![a_nodes[0], a_nodes[1], b_nodes[0]];
        (g, nodes)
    }

    #[test]
    fn adjacent_nodes_are_dependent_distant_disjoint_are_not() {
        let (g, nodes) = two_chains();
        // nodes[0] and nodes[1] are adjacent on chain A (d = 1 -> p = 1).
        // nodes[2] is on chain B: disjoint fanout, p = 0.
        let graph = build_influence_graph(&g, &nodes, 0.5);
        assert!(graph.has_edge(0, 1));
        assert!(!graph.has_edge(0, 2));
        assert!(!graph.has_edge(1, 2));
    }

    #[test]
    fn swept_tfos_match_per_target_bfs() {
        // Targets on both chains, a repeated target, and enough of them
        // to span more than one 64-target block.
        let g = benchgen::adders::rca(24);
        let ands: Vec<NodeId> = g.and_ids().collect();
        let mut tns: Vec<NodeId> = ands.iter().copied().step_by(3).collect();
        tns.push(ands[0]);
        tns.extend((0..4).map(|i| g.pi(i).node()));
        assert!(tns.len() > 64);
        let fanouts = Fanouts::build(&g);
        let order = g.topo_order().unwrap();
        let swept = tfo_masks(&g, &order, &tns);
        assert_eq!(swept.len(), tns.len());
        for (t, m) in tns.iter().zip(&swept) {
            let bfs = aig::cone::tfo_mask(&g, &fanouts, *t);
            assert!(
                (0..g.n_nodes()).all(|v| m.get(v) == bfs.get(v)),
                "TFO of {t:?} differs"
            );
            assert_eq!(m.count(), bfs.count());
        }
    }

    #[test]
    fn max_hops_is_the_last_dependent_distance() {
        assert_eq!(max_hops(0.5, 1000), Some(1));
        assert_eq!(max_hops(0.2, 1000), Some(4)); // 1/5 = 0.2 is not > 0.2
        assert_eq!(max_hops(0.21, 1000), Some(4));
        assert_eq!(max_hops(0.8, 1000), Some(1));
        assert_eq!(max_hops(1.0, 1000), Some(0));
        // Every distance a 1000-node graph can hold qualifies.
        assert_eq!(max_hops(0.0, 1000), None);
        assert_eq!(max_hops(1e-4, 1000), None);
        assert_eq!(max_hops(1e-4, 20_000), Some(9999));
    }

    #[test]
    fn distance_weakens_influence() {
        // A long chain: the first and last gates are far apart.
        let mut g = Aig::new("t", 10);
        let mut acc = g.pi(0);
        let mut gates = Vec::new();
        for i in 1..10 {
            acc = g.and(acc, g.pi(i));
            gates.push(acc.node());
        }
        g.add_output(acc, "y");
        let ends = vec![gates[0], gates[8]];
        // d = 8, p = 1/8 <= 0.5: no edge.
        let graph = build_influence_graph(&g, &ends, 0.5);
        assert!(!graph.has_edge(0, 1));
        // With a tiny threshold the edge appears.
        let graph = build_influence_graph(&g, &ends, 0.1);
        assert!(graph.has_edge(0, 1));
    }

    fn scored_const(tn: NodeId, delta_e: f64) -> ScoredLac {
        ScoredLac {
            lac: Lac::new(tn, LacKind::Constant(false)),
            delta_e,
            gain: 1,
        }
    }

    #[test]
    fn selection_respects_lambda_budget() {
        let (g, nodes) = two_chains();
        // Three LACs on mutually independent nodes (use chain ends).
        let far = [nodes[0], nodes[2]];
        let l_sol = vec![scored_const(far[0], 0.01), scored_const(far[1], 0.02)];
        // Budget allows only the first: lambda * e_b = 0.018.
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 0.02, 20, 0.5, 0.9, MisStrategy::Exact);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel[0].lac.tn, far[0]);
        // A looser budget takes both.
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 0.05, 20, 0.5, 0.9, MisStrategy::Exact);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn non_positive_delta_lacs_all_selected_when_plentiful() {
        let (g, nodes) = two_chains();
        let far = [nodes[0], nodes[2]];
        let l_sol = vec![scored_const(far[0], -0.001), scored_const(far[1], 0.0)];
        // r_sel = 2 <= r_neg = 2: take all non-positive.
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 0.01, 2, 0.5, 0.9, MisStrategy::Exact);
        assert_eq!(sel.len(), 2);
    }

    #[test]
    fn dependent_lacs_are_not_co_selected() {
        let (g, nodes) = two_chains();
        // nodes[0] and nodes[1] are adjacent (dependent); nodes[2] is
        // independent of both.
        let l_sol = vec![
            scored_const(nodes[0], 0.001),
            scored_const(nodes[1], 0.002),
            scored_const(nodes[2], 0.003),
        ];
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 1.0, 20, 0.5, 0.9, MisStrategy::Exact);
        let tns: Vec<NodeId> = sel.iter().map(|s| s.lac.tn).collect();
        assert!(
            !(tns.contains(&nodes[0]) && tns.contains(&nodes[1])),
            "dependent pair must not be co-selected: {tns:?}"
        );
        assert!(tns.contains(&nodes[2]));
    }

    #[test]
    fn even_over_budget_takes_one() {
        let (g, nodes) = two_chains();
        let l_sol = vec![scored_const(nodes[0], 0.5)];
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 0.01, 20, 0.5, 0.9, MisStrategy::Exact);
        assert_eq!(sel.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let mut g = Aig::new("t", 1);
        let y = g.and(g.pi(0), Lit::TRUE);
        g.add_output(y, "y");
        assert!(select_indep_lacs(&g, &[], 0.0, 0.1, 20, 0.5, 0.9, MisStrategy::Exact).is_empty());
    }
}
