//! `FindSolveLACConf`: the LAC conflict graph and the greedy
//! ascending-weight extraction of a conflict-free subset (Section II-C).
//!
//! Two LACs are *in conflict* when
//!
//! - **Type 1**: they share the same target node (each node may receive
//!   at most one LAC per round), or
//! - **Type 2**: a substitute node of one is the target node of the
//!   other (applying the latter removes the substitute).

use aig::NodeId;
use lac::ScoredLac;
use misolver::Graph;
use std::collections::HashSet;

/// Builds the LAC conflict graph: one vertex per LAC in `l_top` (in
/// order), an edge for every Type-1 or Type-2 conflict. Vertex weights
/// are the LACs' `ΔE` values (carried separately by the caller).
pub fn conflict_graph(l_top: &[ScoredLac]) -> Graph {
    let mut g = Graph::new(l_top.len());
    for (i, a) in l_top.iter().enumerate() {
        for (j, b) in l_top.iter().enumerate().skip(i + 1) {
            let type1 = a.lac.tn == b.lac.tn;
            let type2 =
                a.lac.sns().any(|sn| sn == b.lac.tn) || b.lac.sns().any(|sn| sn == a.lac.tn);
            if type1 || type2 {
                g.add_edge(i, j);
            }
        }
    }
    g
}

/// Extracts the conflict-free set `L_sol` from `l_top` with the paper's
/// heuristic: visit vertices in ascending weight (`ΔE`) order and keep
/// each vertex that does not conflict with anything already kept.
///
/// `l_top` must already be sorted by ascending `ΔE` (as produced by
/// [`crate::topset::obtain_top_set`]); the traversal preserves that
/// order, so the result is also sorted.
///
/// The result is the greedy over [`conflict_graph`], found without
/// building it: a LAC conflicts with a kept one exactly when its target
/// is a kept target (Type 1) or a kept substitute, or one of its
/// substitutes is a kept target (Type 2). One pass over `l_top` against
/// the kept-target and kept-substitute sets is O(r_top) instead of
/// O(r_top²).
pub fn find_solve_conflicts(l_top: &[ScoredLac]) -> Vec<ScoredLac> {
    let mut kept_tns: HashSet<NodeId> = HashSet::new();
    let mut kept_sns: HashSet<NodeId> = HashSet::new();
    let mut selected = Vec::new();
    for s in l_top {
        let tn = s.lac.tn;
        if kept_tns.contains(&tn)
            || kept_sns.contains(&tn)
            || s.lac.sns().any(|sn| kept_tns.contains(&sn))
        {
            continue;
        }
        kept_tns.insert(tn);
        kept_sns.extend(s.lac.sns());
        selected.push(s.clone());
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac::{Lac, LacKind};

    fn wire(sn: usize, tn: usize, delta_e: f64) -> ScoredLac {
        ScoredLac {
            lac: Lac::new(
                NodeId::new(tn),
                LacKind::Wire {
                    sn: NodeId::new(sn),
                    neg: false,
                },
            ),
            delta_e,
            gain: 1,
        }
    }

    fn binary(sn0: usize, sn1: usize, tn: usize, delta_e: f64) -> ScoredLac {
        ScoredLac {
            lac: Lac::new(
                NodeId::new(tn),
                LacKind::Binary {
                    sns: [NodeId::new(sn0), NodeId::new(sn1)],
                    tt: 0b1110,
                },
            ),
            delta_e,
            gain: 1,
        }
    }

    /// The running example of the paper (Fig. 2 / Fig. 3 / Example 4):
    /// T1 = L({1},3), T2 = L({1,3},4), T3 = L({2},4), T4 = L({3,4},5),
    /// T5 = L({5},6), T6 = L({8,9},7), with ascending weights.
    fn paper_example() -> Vec<ScoredLac> {
        vec![
            wire(1, 3, 0.01),      // T1
            binary(1, 3, 4, 0.02), // T2
            wire(2, 4, 0.03),      // T3
            binary(3, 4, 5, 0.04), // T4
            wire(5, 6, 0.05),      // T5
            binary(8, 9, 7, 0.06), // T6
        ]
    }

    #[test]
    fn paper_conflict_graph_edges() {
        let g = conflict_graph(&paper_example());
        // T1-T2: node 3 is T1's target and T2's substitute (Type 2).
        assert!(g.has_edge(0, 1));
        // T2-T3: same target node 4 (Type 1).
        assert!(g.has_edge(1, 2));
        // T2-T4: node 4 is T2's target and T4's substitute; node 3 is
        // T4's substitute? T4 = L({3,4},5): substitute 3 is T1's target
        // too.
        assert!(g.has_edge(1, 3));
        // T1-T4 via node 3.
        assert!(g.has_edge(0, 3));
        // T3-T4 via node 4.
        assert!(g.has_edge(2, 3));
        // T4-T5: node 5 is T4's target and T5's substitute.
        assert!(g.has_edge(3, 4));
        // T6 is isolated.
        assert_eq!(g.degree(5), 0);
        // No other edges.
        assert!(!g.has_edge(0, 2));
        assert!(!g.has_edge(0, 4));
        assert!(!g.has_edge(1, 4));
        assert!(!g.has_edge(2, 4));
    }

    #[test]
    fn paper_example_selection_matches_example_4() {
        let sol = find_solve_conflicts(&paper_example());
        let targets: Vec<usize> = sol.iter().map(|s| s.lac.tn.index()).collect();
        // Example 4: S_sel = {T1, T3, T5, T6} -> targets 3, 4, 6, 7.
        assert_eq!(targets, vec![3, 4, 6, 7]);
    }

    #[test]
    fn solution_is_conflict_free_and_unique_targets() {
        let sol = find_solve_conflicts(&paper_example());
        let g = conflict_graph(&sol);
        assert_eq!(g.n_edges(), 0);
        let mut tns: Vec<_> = sol.iter().map(|s| s.lac.tn).collect();
        tns.sort();
        tns.dedup();
        assert_eq!(tns.len(), sol.len());
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(find_solve_conflicts(&[]).is_empty());
    }
}
