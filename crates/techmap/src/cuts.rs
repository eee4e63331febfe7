use aig::{Aig, Node, NodeId};

/// Maximum cut size (number of leaves).
pub const MAX_CUT: usize = 4;
/// Maximum cuts stored per node.
pub const CUTS_PER_NODE: usize = 10;

/// A k-feasible cut: a set of leaf nodes (sorted, at most [`MAX_CUT`])
/// whose cone covers the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Sorted leaf node ids.
    pub leaves: Vec<NodeId>,
    /// Truth table of the root as a function of the leaves (low
    /// `2^leaves.len()` bits).
    pub tt: u16,
}

/// Enumerates up to [`CUTS_PER_NODE`] k-feasible cuts per node (plus the
/// trivial cut), with truth tables, in one topological pass.
///
/// Returns, for every node, its cut list; inputs and the constant node
/// get only their trivial cut.
pub fn enumerate_cuts(aig: &Aig) -> Vec<Vec<Cut>> {
    let order = aig.topo_order().expect("acyclic");
    let mut cuts: Vec<Vec<Cut>> = vec![Vec::new(); aig.n_nodes()];
    for id in order {
        match *aig.node(id) {
            Node::Const0 => {
                cuts[id.index()] = vec![Cut {
                    leaves: vec![id],
                    tt: 0b0,
                }];
            }
            Node::Input(_) => {
                cuts[id.index()] = vec![Cut {
                    leaves: vec![id],
                    tt: 0b10,
                }];
            }
            Node::And(a, b) => {
                let mut list: Vec<Cut> = Vec::new();
                let (ca, cb) = (&cuts[a.node().index()], &cuts[b.node().index()]);
                for cut_a in ca {
                    for cut_b in cb {
                        if let Some(cut) = merge(cut_a, a.is_neg(), cut_b, b.is_neg()) {
                            if !list
                                .iter()
                                .any(|c| c.leaves == cut.leaves && c.tt == cut.tt)
                            {
                                list.push(cut);
                            }
                        }
                    }
                }
                // Prefer small cuts; keep the list bounded.
                list.sort_by_key(|c| c.leaves.len());
                list.truncate(CUTS_PER_NODE - 1);
                // The trivial cut is always available (it makes the node
                // usable as a leaf upstream).
                list.push(Cut {
                    leaves: vec![id],
                    tt: 0b10,
                });
                cuts[id.index()] = list;
            }
        }
    }
    cuts
}

/// Merges two fanin cuts into a root cut, expanding both truth tables
/// onto the union leaf set and ANDing them (with edge polarities).
/// Returns `None` when the union exceeds [`MAX_CUT`] leaves.
fn merge(a: &Cut, a_neg: bool, b: &Cut, b_neg: bool) -> Option<Cut> {
    let mut leaves: Vec<NodeId> = a.leaves.clone();
    for &l in &b.leaves {
        if !leaves.contains(&l) {
            leaves.push(l);
        }
    }
    if leaves.len() > MAX_CUT {
        return None;
    }
    leaves.sort_unstable();
    let ta = expand(a, &leaves) ^ if a_neg { mask(leaves.len()) } else { 0 };
    let tb = expand(b, &leaves) ^ if b_neg { mask(leaves.len()) } else { 0 };
    Some(Cut {
        tt: ta & tb & mask(leaves.len()),
        leaves,
    })
}

fn mask(k: usize) -> u16 {
    if k >= 4 {
        0xFFFF
    } else {
        (1u16 << (1 << k)) - 1
    }
}

/// Re-expresses `cut.tt` over the superset leaf list `leaves`.
fn expand(cut: &Cut, leaves: &[NodeId]) -> u16 {
    // Position of each original leaf in the new leaf list.
    let pos: Vec<usize> = cut
        .leaves
        .iter()
        .map(|l| leaves.iter().position(|x| x == l).expect("superset"))
        .collect();
    let mut out = 0u16;
    for assign in 0..1u16 << leaves.len() {
        let mut orig = 0u16;
        for (i, &p) in pos.iter().enumerate() {
            if assign >> p & 1 == 1 {
                orig |= 1 << i;
            }
        }
        if cut.tt >> orig & 1 == 1 {
            out |= 1 << assign;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cut_truth_tables_match_semantics() {
        // y = (a & b) & !c: the 3-leaf cut's tt must be a & b & !c.
        let mut g = Aig::new("t", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let y = g.and(ab, !c);
        g.add_output(y, "y");
        let cuts = enumerate_cuts(&g);
        let y_cuts = &cuts[y.node().index()];
        let three_leaf = y_cuts
            .iter()
            .find(|cut| cut.leaves.len() == 3)
            .expect("3-leaf cut exists");
        for m in 0..8u16 {
            let (va, vb, vc) = (m & 1 != 0, m & 2 != 0, m & 4 != 0);
            let want = va && vb && !vc;
            assert_eq!(three_leaf.tt >> m & 1 == 1, want, "minterm {m}");
        }
    }

    #[test]
    fn every_and_node_has_a_two_leaf_cut_or_smaller() {
        let g = benchgen::adders::rca(4);
        let cuts = enumerate_cuts(&g);
        for id in g.and_ids() {
            let list = &cuts[id.index()];
            assert!(!list.is_empty());
            assert!(
                list.iter()
                    .any(|c| c.leaves.len() <= 2 && c.leaves != vec![id]),
                "node {id} lacks a non-trivial small cut"
            );
            // Trivial cut present.
            assert!(list.iter().any(|c| c.leaves == vec![id] && c.tt == 0b10));
        }
    }

    #[test]
    fn cut_count_is_bounded() {
        let g = benchgen::multipliers::wallace_multiplier(4);
        let cuts = enumerate_cuts(&g);
        for list in &cuts {
            assert!(list.len() <= CUTS_PER_NODE);
            for c in list {
                assert!(c.leaves.len() <= MAX_CUT);
                assert!(c.leaves.windows(2).all(|w| w[0] < w[1]));
            }
        }
    }
}
