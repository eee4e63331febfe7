//! MFFC sizing through a reused [`MffcScratch`] equals the reference
//! definition (a full reference-count table per node) on every AND of
//! the suite circuits and on a sample of the EPFL-scale multiplier and
//! divider. One scratch serves every call of a circuit, in ascending
//! and then descending node order, so an entry left unrestored by any
//! call would skew a later one.

use aig::cone::{mffc_size, MffcScratch};
use aig::{Aig, Fanouts, Node, NodeId};

/// The reference definition: fill the reference counts of the whole
/// circuit, then peel nodes whose count drops to zero.
fn reference_mffc(aig: &Aig, fanouts: &Fanouts, n: NodeId) -> usize {
    if !aig.node(n).is_and() {
        return 0;
    }
    let mut refs: Vec<u32> = (0..aig.n_nodes())
        .map(|i| fanouts.n_refs(NodeId::new(i)))
        .collect();
    let mut count = 0;
    let mut stack = vec![n];
    while let Some(m) = stack.pop() {
        count += 1;
        if let Node::And(a, b) = aig.node(m) {
            let mut fanin_nodes = vec![a.node()];
            if b.node() != a.node() {
                fanin_nodes.push(b.node());
            }
            for f in fanin_nodes {
                if aig.node(f).is_and() {
                    refs[f.index()] -= 1;
                    if refs[f.index()] == 0 {
                        stack.push(f);
                    }
                }
            }
        }
    }
    count
}

fn assert_matches(g: &Aig, nodes: &[NodeId]) {
    let fanouts = Fanouts::build(g);
    let want: Vec<usize> = nodes
        .iter()
        .map(|&n| reference_mffc(g, &fanouts, n))
        .collect();
    let mut scratch = MffcScratch::default();
    for (&n, &w) in nodes.iter().zip(&want) {
        assert_eq!(
            scratch.size(g, &fanouts, n),
            w,
            "{}: node {n} (ascending)",
            g.name()
        );
    }
    for (&n, &w) in nodes.iter().zip(&want).rev() {
        assert_eq!(
            scratch.size(g, &fanouts, n),
            w,
            "{}: node {n} (descending)",
            g.name()
        );
    }
    for (&n, &w) in nodes.iter().zip(&want).step_by(7) {
        assert_eq!(
            mffc_size(g, &fanouts, n),
            w,
            "{}: node {n} (wrapper)",
            g.name()
        );
    }
    // Inputs and the constant have no MFFC, and sizing them leaves the
    // scratch usable.
    assert_eq!(scratch.size(g, &fanouts, NodeId::new(0)), 0);
    if let Some(&n) = nodes.first() {
        assert_eq!(scratch.size(g, &fanouts, n), want[0]);
    }
}

#[test]
fn scratch_mffc_matches_reference_on_every_suite_and() {
    let names = benchgen::suite::SMALL_ISCAS_ARITH
        .iter()
        .chain(&benchgen::suite::EPFL_LIKE)
        .chain(&benchgen::suite::LGSYNT_LIKE);
    for name in names {
        let g = benchgen::suite::by_name(name).expect("suite circuit");
        let ands: Vec<NodeId> = g.and_ids().collect();
        assert_matches(&g, &ands);
    }
}

#[test]
fn scratch_mffc_matches_reference_on_epfl_samples() {
    for name in ["mult64", "div64"] {
        let g = benchgen::epfl::by_name(name).expect("EPFL instance");
        let ands: Vec<NodeId> = g.and_ids().collect();
        // Every 97th AND plus the output drivers, whose MFFCs are the
        // largest the circuit has.
        let mut sample: Vec<NodeId> = ands.iter().copied().step_by(97).collect();
        sample.extend(
            g.outputs()
                .iter()
                .map(|o| o.lit.node())
                .filter(|&n| g.node(n).is_and()),
        );
        assert_matches(&g, &sample);
    }
}
