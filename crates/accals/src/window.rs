//! Locality-bounded round windows over the AIG.
//!
//! A window is a bounded set of live AND nodes that the round treats as
//! its candidate *targets*: candidate generation, mask building, and
//! scoring run only for nodes inside the window, so the heavy per-round
//! phases cost `O(window)` instead of `O(|circuit|)`. Everything at the
//! window boundary is frozen — non-window nodes are never rewritten
//! this round, and their simulated signatures serve as the window's
//! primary inputs (for substitute signals reaching in) and primary
//! outputs (candidate deviations are composed through the full fanout
//! cone to the real circuit outputs by the estimator and
//! [`crate::TrialEval`]). Because scoring and trial measurement always
//! replay deviations over the *whole* circuit and sample, windowing
//! changes which candidates exist, never how any candidate's error is
//! accounted: global exactness is inherited, not re-proven.
//!
//! Selection is deterministic and bound-independent (so windowed
//! configurations still form sweep families): the live AND nodes are
//! split in id order — ids are topologically sorted, so consecutive ids
//! are structurally local — into segments of at most
//! [`crate::WindowSpec::max_targets`] nodes, each segment is scored by
//! its *error-budget headroom* (regions feeding outputs that still
//! match the golden signatures closely have the most budget left to
//! spend), and the best unvisited segment wins. Visited flags rotate:
//! once every segment has hosted a round the epoch resets, so
//! successive rounds cover the whole circuit.

use crate::WindowSpec;
use aig::{Aig, Node, NodeId};
use bitsim::{word_mask, Sim};

/// Cross-round rotation state: which segments of the current epoch have
/// already hosted a window. Lives in [`crate::FlowCaches`] so sweep
/// forks inherit the branch's rotation point.
#[derive(Debug, Default, Clone)]
pub(crate) struct WindowState {
    visited: Vec<bool>,
}

/// One selected round window.
pub(crate) struct Window {
    /// Number of target nodes inside the window.
    pub targets: usize,
    /// Per-node membership mask, indexed by `NodeId::index`.
    pub mask: Vec<bool>,
}

/// Number of segments the circuit's live AND nodes split into under
/// `spec` — also the upper bound on distinct windows per rotation
/// epoch.
pub(crate) fn segment_count(aig: &Aig, spec: &WindowSpec) -> usize {
    let live = aig.live_mask();
    let n_live = aig.and_ids().filter(|id| live[id.index()]).count();
    n_live.div_ceil(spec.max_targets).max(1)
}

/// Per-node error-budget headroom weight in `(0, 1]`: `1 / (1 + d)`
/// where `d` is the smallest per-output deviation popcount (current vs
/// golden signature) over the outputs in the node's transitive fanout.
/// Nodes feeding only heavily-deviated outputs weigh the least — their
/// region has already spent its budget — while nodes under still-exact
/// outputs weigh 1.
fn headroom(aig: &Aig, sim: &Sim, golden_sigs: &[Vec<u64>], n_patterns: usize) -> Vec<f64> {
    let n = aig.n_nodes();
    let stride = sim.stride();
    let mut min_dev = vec![u64::MAX; n];
    for (o, out) in aig.outputs().iter().enumerate() {
        let sig = sim.sig(out.lit.node());
        let gold = &golden_sigs[o];
        let mut d = 0u64;
        for w in 0..stride {
            let s = if out.lit.is_neg() { !sig[w] } else { sig[w] };
            d += ((s ^ gold[w]) & word_mask(n_patterns, w)).count_ones() as u64;
        }
        let slot = &mut min_dev[out.lit.node().index()];
        *slot = (*slot).min(d);
    }
    // Fanins precede their node in id order, so one descending pass
    // propagates the per-output minimum through every TFI.
    for i in (0..n).rev() {
        let d = min_dev[i];
        if d == u64::MAX {
            continue;
        }
        if let Node::And(a, b) = aig.node(NodeId::new(i)) {
            for l in [a, b] {
                let f = &mut min_dev[l.node().index()];
                *f = (*f).min(d);
            }
        }
    }
    min_dev
        .into_iter()
        .map(|d| {
            if d == u64::MAX {
                0.0
            } else {
                1.0 / (1.0 + d as f64)
            }
        })
        .collect()
}

/// Selects the next round window, or `None` when the circuit fits in
/// one window — the caller then runs the dense round, which makes a
/// whole-graph window bit-identical to `window: None` by construction.
pub(crate) fn select_window(
    aig: &Aig,
    sim: &Sim,
    golden_sigs: &[Vec<u64>],
    n_patterns: usize,
    spec: &WindowSpec,
    state: &mut WindowState,
) -> Option<Window> {
    let live = aig.live_mask();
    let order: Vec<NodeId> = aig.and_ids().filter(|id| live[id.index()]).collect();
    let n_live = order.len();
    if n_live <= spec.max_targets {
        return None;
    }
    let n_seg = n_live.div_ceil(spec.max_targets);
    if state.visited.len() != n_seg {
        // The segment grid changed (commits shrank the circuit): start
        // a fresh epoch rather than carry stale flags.
        state.visited = vec![false; n_seg];
    } else if state.visited.iter().all(|&v| v) {
        state.visited.iter_mut().for_each(|v| *v = false);
    }
    let head = headroom(aig, sim, golden_sigs, n_patterns);
    let mut best: Option<(usize, f64)> = None;
    for s in 0..n_seg {
        if state.visited[s] {
            continue;
        }
        let lo = s * spec.max_targets;
        let hi = ((s + 1) * spec.max_targets).min(n_live);
        let mut score = 0.0;
        for &id in &order[lo..hi] {
            score += head[id.index()];
        }
        score /= (hi - lo) as f64;
        if best.is_none_or(|(_, b)| score > b) {
            best = Some((s, score));
        }
    }
    let (s, _) = best.expect("an unvisited segment always exists after the epoch reset");
    state.visited[s] = true;
    let lo = s * spec.max_targets;
    let hi = ((s + 1) * spec.max_targets).min(n_live);
    let mut mask = vec![false; aig.n_nodes()];
    for &id in &order[lo..hi] {
        mask[id.index()] = true;
    }
    Some(Window {
        targets: hi - lo,
        mask,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::{simulate, Patterns};

    fn setup() -> (Aig, bitsim::Sim, Vec<Vec<u64>>, usize) {
        let g = benchgen::multipliers::array_multiplier(4);
        let pats = Patterns::exhaustive(g.n_pis());
        let n = pats.n_patterns();
        let sim = simulate(&g, &pats);
        let gold = sim.output_sigs(&g);
        (g, sim, gold, n)
    }

    #[test]
    fn whole_circuit_window_is_none() {
        let (g, sim, gold, n) = setup();
        let spec = WindowSpec {
            max_targets: g.n_ands(),
        };
        let mut st = WindowState::default();
        assert!(select_window(&g, &sim, &gold, n, &spec, &mut st).is_none());
        assert_eq!(segment_count(&g, &spec), 1);
    }

    #[test]
    fn rotation_covers_every_live_node_each_epoch() {
        let (g, sim, gold, n) = setup();
        let spec = WindowSpec { max_targets: 13 };
        let n_seg = segment_count(&g, &spec);
        assert!(n_seg > 1);
        let mut st = WindowState::default();
        let mut covered = vec![false; g.n_nodes()];
        let mut total = 0usize;
        for _ in 0..n_seg {
            let w = select_window(&g, &sim, &gold, n, &spec, &mut st).expect("multi-segment");
            assert!(w.targets <= spec.max_targets);
            total += w.targets;
            for (i, &m) in w.mask.iter().enumerate() {
                if m {
                    assert!(!covered[i], "segments must not overlap within an epoch");
                    covered[i] = true;
                }
            }
        }
        let live = g.live_mask();
        for id in g.and_ids() {
            if live[id.index()] {
                assert!(covered[id.index()], "epoch must cover node {}", id.index());
            }
        }
        assert_eq!(total, g.and_ids().filter(|id| live[id.index()]).count());
        // The next selection starts a fresh epoch.
        assert!(select_window(&g, &sim, &gold, n, &spec, &mut st).is_some());
    }

    #[test]
    fn selection_is_deterministic() {
        let (g, sim, gold, n) = setup();
        let spec = WindowSpec { max_targets: 17 };
        let (mut s1, mut s2) = (WindowState::default(), WindowState::default());
        for _ in 0..5 {
            let a = select_window(&g, &sim, &gold, n, &spec, &mut s1).unwrap();
            let b = select_window(&g, &sim, &gold, n, &spec, &mut s2).unwrap();
            assert_eq!(a.mask, b.mask);
            assert_eq!(a.targets, b.targets);
        }
    }
}
