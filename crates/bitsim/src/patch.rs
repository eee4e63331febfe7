//! Demand-driven re-simulation of a patched graph against a base [`Sim`].
//!
//! [`ConeSimulator`](crate::ConeSimulator) answers "what if this one
//! node's signature changed" against the *unchanged* graph. The trial
//! evaluator needs the complementary question: the graph itself has been
//! edited in place (a journaled LAC batch), and only the signatures in
//! the union of the edited nodes' fanout cones can differ from the base
//! simulation. [`PatchSimulator`] resolves exactly the nodes reachable
//! from the requested output drivers, lazily: clean regions are answered
//! straight from the base simulation, and a recomputed node whose value
//! matches the base is re-classified clean so difference masks die out at
//! masking gates just like in the cone simulator.

use crate::sim::Sim;
use aig::{Aig, Node, NodeId};

/// Per-node resolution state: an unresolved node, a clean node (its base
/// signature is valid), or — any other value — the slab slot holding a
/// changed node's signature.
const UNRESOLVED: u32 = u32::MAX;
const CLEAN: u32 = u32::MAX - 1;

/// Reusable scratch state for re-simulating an edited graph against a
/// base simulation. One instance serves many trials, also across circuit
/// revisions: call [`PatchSimulator::begin`] per trial, then
/// [`PatchSimulator::ensure`] per output driver, then read signatures
/// back with [`PatchSimulator::sig`]. Changed signatures live in a slab
/// holding only the nodes the trial changed, so the scratch follows the
/// largest edit seen rather than `n_nodes × stride`.
#[derive(Debug)]
pub struct PatchSimulator {
    stride: usize,
    /// Per-node resolution state ([`UNRESOLVED`], [`CLEAN`], or a slab
    /// slot).
    state: Vec<u32>,
    /// Nodes whose state must be reset at the next [`PatchSimulator::begin`].
    visited: Vec<u32>,
    /// Signature storage for changed nodes, `stride` words per slot.
    slab: Vec<u64>,
    stack: Vec<u32>,
    tmp: Vec<u64>,
}

impl PatchSimulator {
    /// A patch simulator for signatures of `stride` words.
    pub fn new(stride: usize) -> Self {
        PatchSimulator {
            stride,
            state: Vec::new(),
            visited: Vec::new(),
            slab: Vec::new(),
            stack: Vec::new(),
            tmp: vec![0u64; stride],
        }
    }

    /// Starts a new trial over a graph of `n_nodes` nodes (the edited
    /// working graph, including appended replacement logic), clearing
    /// the state left by the previous trial.
    pub fn begin(&mut self, n_nodes: usize) {
        for n in self.visited.drain(..) {
            self.state[n as usize] = UNRESOLVED;
        }
        self.slab.clear();
        // Every entry is unresolved now, so resizing either way keeps
        // the whole table reset.
        self.state.resize(n_nodes, UNRESOLVED);
    }

    /// Resolves `root` and everything it transitively needs.
    ///
    /// `dirty` and `rewired` are indexed by *base* node id (`work` may
    /// have appended nodes past `dirty.len()`; those are always
    /// re-evaluated): `rewired[n]` marks nodes whose fanin literals were
    /// edited, `dirty[n]` marks the rewired nodes plus their base-graph
    /// transitive fanout. Nodes outside the dirty region keep their base
    /// signatures by construction and are never re-evaluated.
    pub fn ensure(
        &mut self,
        work: &Aig,
        base: &Sim,
        dirty: &[bool],
        rewired: &[bool],
        root: NodeId,
    ) {
        let stride = self.stride;
        debug_assert_eq!(stride, base.stride());
        if self.state[root.index()] != UNRESOLVED {
            return;
        }
        self.stack.push(root.index() as u32);
        while let Some(&top) = self.stack.last() {
            let ni = top as usize;
            if self.state[ni] != UNRESOLVED {
                self.stack.pop();
                continue;
            }
            let is_old = ni < dirty.len();
            if is_old && !dirty[ni] {
                self.state[ni] = CLEAN;
                self.visited.push(top);
                self.stack.pop();
                continue;
            }
            let (a, b) = match *work.node(NodeId::new(ni)) {
                Node::And(a, b) => (a, b),
                // Constants and inputs are never rewired; their base
                // signatures stay valid.
                _ => {
                    self.state[ni] = CLEAN;
                    self.visited.push(top);
                    self.stack.pop();
                    continue;
                }
            };
            let (an, bn) = (a.node().index(), b.node().index());
            let mut pending = false;
            if self.state[an] == UNRESOLVED {
                self.stack.push(an as u32);
                pending = true;
            }
            if bn != an && self.state[bn] == UNRESOLVED {
                self.stack.push(bn as u32);
                pending = true;
            }
            if pending {
                continue;
            }
            self.stack.pop();
            if is_old && !rewired[ni] && self.state[an] == CLEAN && self.state[bn] == CLEAN {
                // Same structure as the base graph, same fanin values:
                // the difference mask died out before reaching this node.
                self.state[ni] = CLEAN;
                self.visited.push(top);
                continue;
            }
            let mut tmp = std::mem::take(&mut self.tmp);
            {
                let asl = self.sig(base, a.node());
                let bsl = self.sig(base, b.node());
                let na = if a.is_neg() { u64::MAX } else { 0 };
                let nb = if b.is_neg() { u64::MAX } else { 0 };
                for w in 0..stride {
                    tmp[w] = (asl[w] ^ na) & (bsl[w] ^ nb);
                }
            }
            let changed = if is_old {
                let old = &base.sig(NodeId::new(ni))[..stride];
                tmp.iter().zip(old).any(|(n, o)| n != o)
            } else {
                // Appended replacement logic has no base signature.
                true
            };
            self.state[ni] = if changed {
                let s = (self.slab.len() / stride) as u32;
                self.slab.extend_from_slice(&tmp);
                s
            } else {
                CLEAN
            };
            self.visited.push(top);
            self.tmp = tmp;
        }
    }

    /// Whether `n`'s signature differs from the base simulation.
    ///
    /// Only meaningful after [`PatchSimulator::ensure`] resolved `n`.
    pub fn is_changed(&self, n: NodeId) -> bool {
        debug_assert_ne!(self.state[n.index()], UNRESOLVED, "node was never ensured");
        self.state[n.index()] < CLEAN
    }

    /// The signature of `n` in the patched graph: the scratch value if
    /// it changed, the base signature otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `n` was never resolved by [`PatchSimulator::ensure`]
    /// this trial.
    pub fn sig<'s>(&'s self, base: &'s Sim, n: NodeId) -> &'s [u64] {
        match self.state[n.index()] {
            CLEAN => &base.sig(n)[..self.stride],
            UNRESOLVED => panic!("node {n} was never ensured"),
            s => &self.slab[s as usize * self.stride..][..self.stride],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Patterns;
    use crate::sim::simulate;
    use aig::{Fanouts, PatchLog};

    #[test]
    fn patched_signatures_match_full_resimulation() {
        // Reconvergent circuit with a dead-end branch and a clean output.
        let mut g = Aig::new("t", 4);
        let (a, b, c, d) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3));
        let ab = g.and(a, b);
        let cd = g.xor(c, d);
        let m = g.mux(ab, cd, c);
        let top = g.or(m, ab);
        g.add_output(top, "y0");
        g.add_output(!cd, "y1");
        g.add_output(d, "y2");
        let pats = Patterns::random(4, 200, 11);
        let base = simulate(&g, &pats);
        let fanouts = Fanouts::build(&g);

        // Patch: replace ab with fresh logic a & !d (appends a node).
        let mut work = g.trial_copy();
        let mut log = PatchLog::begin(&work);
        let fresh = {
            let (a, d) = (work.pi(0), work.pi(3));
            work.and(a, !d)
        };
        work.replace_via(ab.node(), fresh, fanouts.of(ab.node()), &mut log)
            .unwrap();

        // Dirty region: rewired nodes plus their base-graph fanout.
        let mut rewired = vec![false; g.n_nodes()];
        let mut dirty = vec![false; g.n_nodes()];
        let mut queue: Vec<NodeId> = Vec::new();
        for n in log.rewired_nodes() {
            if !dirty[n.index()] {
                rewired[n.index()] = true;
                dirty[n.index()] = true;
                queue.push(n);
            }
        }
        while let Some(n) = queue.pop() {
            for &f in fanouts.of(n) {
                if !dirty[f.index()] {
                    dirty[f.index()] = true;
                    queue.push(f);
                }
            }
        }

        let full = simulate(&work, &pats);
        let mut ps = PatchSimulator::new(pats.stride());
        ps.begin(work.n_nodes());
        for out in work.outputs() {
            ps.ensure(&work, &base, &dirty, &rewired, out.lit.node());
            assert_eq!(
                ps.sig(&base, out.lit.node()),
                full.sig(out.lit.node()),
                "driver {}",
                out.lit.node()
            );
        }
        // The cd/y1 cone is untouched and must resolve clean.
        assert!(!ps.is_changed(cd.node()));

        // A second trial on the same scratch: no edit at all.
        work.rollback(&mut log);
        ps.begin(work.n_nodes());
        let none = vec![false; g.n_nodes()];
        for out in work.outputs() {
            ps.ensure(&work, &base, &none, &none, out.lit.node());
            assert!(!ps.is_changed(out.lit.node()));
            assert_eq!(ps.sig(&base, out.lit.node()), base.sig(out.lit.node()));
        }
    }
}
