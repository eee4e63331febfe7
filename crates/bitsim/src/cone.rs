use crate::sim::Sim;
use aig::{Aig, Fanouts, Node, NodeId};
use std::sync::Arc;

/// The immutable topology snapshot a [`ConeSimulator`] works against:
/// the topological order, its inverse (each node's position in it), and
/// the fanout index. Build it once per circuit revision and share it (it
/// is cheaply cloneable via [`Arc`]) between the per-thread simulators of
/// a parallel mask-building pass.
#[derive(Debug)]
pub struct ConeTopology {
    n_nodes: usize,
    /// The nodes in topological order: the inverse of `topo_pos`.
    order: Vec<NodeId>,
    topo_pos: Vec<u32>,
    fanouts: Fanouts,
}

impl ConeTopology {
    /// Snapshots `aig`'s topology.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn build(aig: &Aig) -> Arc<Self> {
        let order = aig
            .topo_order()
            .expect("cone simulation requires an acyclic graph");
        let mut topo_pos = vec![0u32; aig.n_nodes()];
        for (i, id) in order.iter().enumerate() {
            topo_pos[id.index()] = i as u32;
        }
        Arc::new(ConeTopology {
            n_nodes: aig.n_nodes(),
            order,
            topo_pos,
            fanouts: Fanouts::build(aig),
        })
    }

    /// The fanout index of the snapshot.
    pub fn fanouts(&self) -> &Fanouts {
        &self.fanouts
    }

    /// The number of nodes in the snapshotted graph.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Topological position of each node, indexed by node id.
    pub fn topo_pos(&self) -> &[u32] {
        &self.topo_pos
    }
}

/// Marks a node whose signature equals the base simulation's.
const UNTOUCHED: u32 = u32::MAX;

/// Incremental re-simulation of the transitive-fanout cone of a single
/// node.
///
/// Given a base simulation, [`ConeSimulator::output_flips`] computes, for
/// every primary output, the mask of patterns whose output value changes
/// when one node's signature is forced to a new value. Propagation is
/// event driven: only the fanouts of nodes whose value actually changed
/// are re-evaluated, so the work follows the difference front rather than
/// the (usually much larger) structural fanout cone. That is what makes
/// batch evaluation of thousands of candidate local changes tractable.
///
/// The simulator works against a topology snapshot: build a new one
/// ([`ConeTopology::build`]) after editing the graph and
/// [`ConeSimulator::rebind`] to it. When several simulators run over the
/// same circuit in parallel, share one [`ConeTopology`] and hand each
/// thread its own simulator via [`ConeSimulator::with_topology`] — the
/// scratch state is per-simulator, the topology is shared. Changed
/// signatures live in a slab holding only the nodes a call touched, so a
/// simulator's memory follows the largest difference front it has seen
/// rather than `n_nodes × stride`, and a simulator kept across circuit
/// revisions reuses it.
#[derive(Debug)]
pub struct ConeSimulator {
    topo: Arc<ConeTopology>,
    /// Per node: the slab slot of its changed signature, or
    /// [`UNTOUCHED`]. All-untouched between calls.
    slot: Vec<u32>,
    /// The changed signatures of this call, `stride` words per slot, in
    /// `touched_list` order.
    slab: Vec<u64>,
    touched_list: Vec<NodeId>,
    /// Nodes awaiting re-evaluation, as a bitset over topological
    /// positions. All-zero between calls.
    pending: Vec<u64>,
    /// Per-call re-evaluation buffer of `stride` words.
    tmp: Vec<u64>,
}

impl ConeSimulator {
    /// Prepares a cone simulator for `aig`.
    ///
    /// # Panics
    ///
    /// Panics if the graph is cyclic.
    pub fn new(aig: &Aig) -> Self {
        Self::with_topology(ConeTopology::build(aig))
    }

    /// Prepares a cone simulator over an existing topology snapshot,
    /// allocating only the per-simulator scratch state.
    pub fn with_topology(topo: Arc<ConeTopology>) -> Self {
        let mut cs = ConeSimulator {
            topo: Arc::clone(&topo),
            slot: Vec::new(),
            slab: Vec::new(),
            touched_list: Vec::new(),
            pending: Vec::new(),
            tmp: Vec::new(),
        };
        cs.rebind(topo);
        cs
    }

    /// Points the simulator at another topology snapshot (typically the
    /// next circuit revision), keeping its scratch allocations. Costs
    /// `O(|Δ n_nodes|)`: between calls every per-node entry holds its
    /// reset value, so only the length changes.
    pub fn rebind(&mut self, topo: Arc<ConeTopology>) {
        let n = topo.n_nodes;
        self.slot.resize(n, UNTOUCHED);
        self.pending.resize(n.div_ceil(64), 0);
        self.topo = topo;
    }

    /// The fanout index snapshot held by this simulator.
    pub fn fanouts(&self) -> &Fanouts {
        &self.topo.fanouts
    }

    /// The shared topology snapshot.
    pub fn topology(&self) -> &Arc<ConeTopology> {
        &self.topo
    }

    /// Forces node `n`'s signature to `forced` and re-simulates its
    /// fanout cone, returning for each primary output the XOR between the
    /// new and the base output signature (the "flip mask").
    ///
    /// Output polarities cancel in the XOR, so flip masks are polarity
    /// independent.
    ///
    /// # Panics
    ///
    /// Panics if the simulator was built for a different graph shape or
    /// if `forced.len() != sim.stride()`.
    pub fn output_flips(
        &mut self,
        aig: &Aig,
        sim: &Sim,
        n: NodeId,
        forced: &[u64],
    ) -> Vec<Vec<u64>> {
        let stride = sim.stride();
        assert_eq!(self.topo.n_nodes, aig.n_nodes(), "simulator is stale");
        assert_eq!(forced.len(), stride);
        debug_assert!(self.touched_list.is_empty() && self.slab.is_empty());

        self.touch(n, forced);
        self.schedule_fanouts(n);

        // Pop pending nodes in ascending topological position. Every
        // fanout sits above its fanin, so nodes scheduled while a word is
        // being drained land in that word or a later one, and one upward
        // sweep visits each pending node exactly once, after all of its
        // changed fanins. A node is recorded as changed (touched), and
        // its fanouts scheduled, only if its recomputed signature differs
        // from the base: difference masks die out at masking gates, so
        // work follows the difference front — with results identical to
        // a full re-simulation.
        let mut tmp = std::mem::take(&mut self.tmp);
        tmp.resize(stride, 0);
        let mut w = self.topo.topo_pos[n.index()] as usize / 64;
        while w < self.pending.len() {
            let word = self.pending[w];
            if word == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = word & (word - 1);
            let m = self.topo.order[w * 64 + word.trailing_zeros() as usize];
            let Node::And(a, b) = *aig.node(m) else {
                continue;
            };
            let asl = self.sig(sim, a.node());
            let bsl = self.sig(sim, b.node());
            let na = if a.is_neg() { u64::MAX } else { 0 };
            let nb = if b.is_neg() { u64::MAX } else { 0 };
            let base = &sim.sig(m)[..stride];
            let mut diff = 0u64;
            for k in 0..stride {
                let v = (asl[k] ^ na) & (bsl[k] ^ nb);
                tmp[k] = v;
                diff |= v ^ base[k];
            }
            if diff != 0 {
                self.touch(m, &tmp);
                self.schedule_fanouts(m);
            }
        }
        self.tmp = tmp;

        // Collect per-output flip masks.
        let mut flips = Vec::with_capacity(aig.n_pos());
        for out in aig.outputs() {
            let d = out.lit.node();
            if self.slot[d.index()] != UNTOUCHED {
                let base = sim.sig(d);
                let new = self.sig(sim, d);
                flips.push(base.iter().zip(new).map(|(b, s)| b ^ s).collect());
            } else {
                flips.push(vec![0u64; stride]);
            }
        }

        // Reset for the next call (`pending` drained itself).
        for m in self.touched_list.drain(..) {
            self.slot[m.index()] = UNTOUCHED;
        }
        self.slab.clear();
        flips
    }

    /// The current signature of `m`: its slab row if this call changed
    /// it, the base signature otherwise.
    fn sig<'s>(&'s self, sim: &'s Sim, m: NodeId) -> &'s [u64] {
        let stride = sim.stride();
        match self.slot[m.index()] {
            UNTOUCHED => &sim.sig(m)[..stride],
            s => &self.slab[s as usize * stride..][..stride],
        }
    }

    /// Records `value` as `m`'s changed signature.
    fn touch(&mut self, m: NodeId, value: &[u64]) {
        self.slot[m.index()] = self.touched_list.len() as u32;
        self.touched_list.push(m);
        self.slab.extend_from_slice(value);
    }

    fn schedule_fanouts(&mut self, m: NodeId) {
        for &f in self.topo.fanouts.of(m) {
            let p = self.topo.topo_pos[f.index()] as usize;
            self.pending[p / 64] |= 1 << (p % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::Patterns;
    use crate::sim::simulate;

    /// Reference: clone the graph conceptually by simulating with a pinned
    /// node value, full-circuit.
    fn full_resim_flips(aig: &Aig, pats: &Patterns, n: NodeId, forced: &[u64]) -> Vec<Vec<u64>> {
        let base = simulate(aig, pats);
        let order = aig.topo_order().unwrap();
        let stride = pats.stride();
        let mut words = vec![0u64; aig.n_nodes() * stride];
        for id in order {
            let i = id.index();
            match *aig.node(id) {
                Node::Const0 => {}
                Node::Input(k) => {
                    words[i * stride..(i + 1) * stride].copy_from_slice(pats.pi_sig(k as usize));
                }
                Node::And(a, b) => {
                    let (an, bn) = (a.node().index(), b.node().index());
                    for w in 0..stride {
                        let wa = words[an * stride + w] ^ if a.is_neg() { u64::MAX } else { 0 };
                        let wb = words[bn * stride + w] ^ if b.is_neg() { u64::MAX } else { 0 };
                        words[i * stride + w] = wa & wb;
                    }
                }
            }
            if i == n.index() {
                words[i * stride..(i + 1) * stride].copy_from_slice(forced);
            }
        }
        aig.outputs()
            .iter()
            .map(|o| {
                let d = o.lit.node().index();
                base.sig(o.lit.node())
                    .iter()
                    .zip(&words[d * stride..(d + 1) * stride])
                    .map(|(b, s)| b ^ s)
                    .collect()
            })
            .collect()
    }

    /// Checks every AND node of `g`, forced both to its complement and
    /// to a sparse deviation (which masking gates can absorb), against
    /// full re-simulation — through `cs` rebound to `g`, whatever circuit
    /// it served before, and through a fresh simulator.
    fn assert_cone_flips_match(g: &Aig, pats: &Patterns, cs: &mut ConeSimulator) {
        let sim = simulate(g, pats);
        cs.rebind(ConeTopology::build(g));
        let mut fresh = ConeSimulator::new(g);
        for id in g.and_ids() {
            let complement: Vec<u64> = sim.sig(id).iter().map(|w| !w).collect();
            let sparse: Vec<u64> = sim
                .sig(id)
                .iter()
                .enumerate()
                .map(|(w, s)| s ^ (0x0101_0101_0101_0101u64 << (w % 8)))
                .collect();
            for forced in [complement, sparse] {
                let want = full_resim_flips(g, pats, id, &forced);
                let got = fresh.output_flips(g, &sim, id, &forced);
                assert_eq!(got, want, "{}: node {id}", g.name());
                let got = cs.output_flips(g, &sim, id, &forced);
                assert_eq!(got, want, "{}: node {id} (rebound)", g.name());
            }
        }
    }

    #[test]
    fn cone_flips_match_full_resimulation() {
        // A small reconvergent circuit.
        let mut g = Aig::new("t", 4);
        let (a, b, c, d) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3));
        let ab = g.and(a, b);
        let cd = g.xor(c, d);
        let m = g.mux(ab, cd, c);
        let top = g.or(m, ab);
        g.add_output(top, "y0");
        g.add_output(!cd, "y1");
        let small_pats = Patterns::exhaustive(4);
        // One simulator serves every circuit in turn (growing, shrinking,
        // and changing stride), the way a flow's pooled simulators are
        // rebound to each new revision.
        let mut cs = ConeSimulator::new(&g);
        assert_cone_flips_match(&g, &small_pats, &mut cs);

        // Every AND node of three arithmetic suite circuits.
        for name in ["rca32", "mtp8", "cla32"] {
            let big = benchgen::suite::by_name(name).expect("suite circuit");
            assert_cone_flips_match(&big, &Patterns::random(big.n_pis(), 256, 7), &mut cs);
        }
        assert_cone_flips_match(&g, &small_pats, &mut cs);
    }

    #[test]
    fn forcing_same_value_flips_nothing() {
        let mut g = Aig::new("t", 2);
        let y = g.and(g.pi(0), g.pi(1));
        g.add_output(y, "y");
        let pats = Patterns::exhaustive(2);
        let sim = simulate(&g, &pats);
        let mut cs = ConeSimulator::new(&g);
        let same = sim.sig(y.node()).to_vec();
        let flips = cs.output_flips(&g, &sim, y.node(), &same);
        assert!(flips[0].iter().all(|&w| w == 0));
    }

    #[test]
    fn flip_mask_is_polarity_independent() {
        let mut g = Aig::new("t", 2);
        let y = g.and(g.pi(0), g.pi(1));
        g.add_output(!y, "ny");
        let pats = Patterns::exhaustive(2);
        let sim = simulate(&g, &pats);
        let mut cs = ConeSimulator::new(&g);
        let forced: Vec<u64> = sim.sig(y.node()).iter().map(|w| !w).collect();
        let flips = cs.output_flips(&g, &sim, y.node(), &forced);
        // Every pattern flips: the node is the output driver.
        assert_eq!(flips[0][0] & 0b1111, 0b1111);
    }
}
