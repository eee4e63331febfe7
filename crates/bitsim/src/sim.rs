use crate::patterns::Patterns;
use crate::word_mask;
use aig::{Aig, Node, NodeId};
use std::sync::Arc;

/// The result of a bit-parallel simulation: one signature per node.
///
/// Signatures are immutable once simulated and shared on clone: a
/// clone is a handle to the same storage, so cross-round caches can
/// keep the revision they last saw without copying it. The storage is
/// an `Arc<Vec<u64>>` rather than an `Arc<[u64]>` because converting a
/// `Vec` into the latter copies every word; the extra indirection lets
/// [`Sim::into_buffer`] hand the allocation back for
/// [`simulate_into`] to reuse.
#[derive(Debug, Clone)]
pub struct Sim {
    stride: usize,
    n_patterns: usize,
    words: Arc<Vec<u64>>,
}

impl Sim {
    /// The signature (64-way packed values) of node `n`.
    pub fn sig(&self, n: NodeId) -> &[u64] {
        &self.words[n.index() * self.stride..(n.index() + 1) * self.stride]
    }

    /// Number of `u64` words per signature.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of valid patterns.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }

    /// Number of nodes covered.
    pub fn n_nodes(&self) -> usize {
        self.words.len() / self.stride.max(1)
    }

    /// The signature storage, if this is its last handle: a buffer for
    /// [`simulate_into`] to overwrite. `None` while other clones live.
    pub fn into_buffer(self) -> Option<Vec<u64>> {
        Arc::try_unwrap(self.words).ok()
    }

    /// The signature of output `o` of `aig`, with the output polarity
    /// applied (an owned copy).
    ///
    /// # Panics
    ///
    /// Panics if `o` is out of range.
    pub fn output_sig(&self, aig: &Aig, o: usize) -> Vec<u64> {
        let out = &aig.outputs()[o];
        let base = self.sig(out.lit.node());
        if out.lit.is_neg() {
            base.iter().map(|w| !w).collect()
        } else {
            base.to_vec()
        }
    }

    /// The signatures of all outputs of `aig`, polarities applied.
    pub fn output_sigs(&self, aig: &Aig) -> Vec<Vec<u64>> {
        (0..aig.n_pos()).map(|o| self.output_sig(aig, o)).collect()
    }

    /// The value of node `n` under pattern `p`.
    pub fn bit(&self, n: NodeId, p: usize) -> bool {
        assert!(p < self.n_patterns);
        self.sig(n)[p / 64] >> (p % 64) & 1 == 1
    }

    /// Verifies that this simulation is a fixpoint of `aig`: the node
    /// count matches, the constant node reads all-zero, and every AND
    /// node's signature equals the AND of its (possibly complemented)
    /// fanin signatures on all valid pattern bits.
    ///
    /// Returns the first inconsistency as a human-readable message.
    /// Used by fuzz harnesses to cross-check incremental resimulation;
    /// `O(nodes × stride)`, not a production path.
    pub fn check_consistent(&self, aig: &Aig) -> Result<(), String> {
        if self.n_nodes() != aig.n_nodes() {
            return Err(format!(
                "simulation covers {} nodes, circuit has {}",
                self.n_nodes(),
                aig.n_nodes()
            ));
        }
        for id in aig.node_ids() {
            match *aig.node(id) {
                Node::Input(_) => {}
                Node::Const0 => {
                    for (w, &v) in self.sig(id).iter().enumerate() {
                        if v & word_mask(self.n_patterns, w) != 0 {
                            return Err(format!("Const0 signature nonzero in word {w}"));
                        }
                    }
                }
                Node::And(a, b) => {
                    let (sa, sb) = (self.sig(a.node()), self.sig(b.node()));
                    let s = self.sig(id);
                    for w in 0..self.stride {
                        let wa = sa[w] ^ if a.is_neg() { u64::MAX } else { 0 };
                        let wb = sb[w] ^ if b.is_neg() { u64::MAX } else { 0 };
                        if (s[w] ^ (wa & wb)) & word_mask(self.n_patterns, w) != 0 {
                            return Err(format!(
                                "node {id:?} signature disagrees with {a} & {b} in word {w}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Simulates `aig` on the whole pattern set, producing a signature for
/// every node.
///
/// # Panics
///
/// Panics if `pats.n_pis() != aig.n_pis()` or if the graph is cyclic.
pub fn simulate(aig: &Aig, pats: &Patterns) -> Sim {
    simulate_into(aig, pats, Vec::new())
}

/// [`simulate`], writing into `buf` instead of a fresh allocation.
///
/// `buf`'s contents are ignored (every word is overwritten), so it can
/// be the storage of an earlier, now unused simulation — see
/// [`Sim::into_buffer`]. Flows recycle it so that large circuits do not
/// map and first-touch a new `n_nodes × stride` buffer every round. A
/// `buf` too small for `aig` is replaced by a fresh allocation.
///
/// # Panics
///
/// Panics if `pats.n_pis() != aig.n_pis()` or if the graph is cyclic.
pub fn simulate_into(aig: &Aig, pats: &Patterns, mut buf: Vec<u64>) -> Sim {
    assert_eq!(
        pats.n_pis(),
        aig.n_pis(),
        "pattern set covers {} inputs but circuit has {}",
        pats.n_pis(),
        aig.n_pis()
    );
    let stride = pats.stride();
    let order = aig
        .topo_order()
        .expect("simulation requires an acyclic graph");
    let len = aig.n_nodes() * stride;
    // Every row is written below (the order covers every node), so the
    // stale contents of a recycled buffer never survive. A buffer too
    // small is not grown, which would copy its stale words: a fresh
    // zeroed one is mapped lazily instead.
    let mut words = if buf.capacity() >= len {
        buf.resize(len, 0);
        buf
    } else {
        vec![0u64; len]
    };
    for id in order {
        let i = id.index();
        match *aig.node(id) {
            Node::Const0 => words[i * stride..(i + 1) * stride].fill(0),
            Node::Input(k) => {
                words[i * stride..(i + 1) * stride].copy_from_slice(pats.pi_sig(k as usize));
            }
            Node::And(a, b) => {
                let (an, bn) = (a.node().index(), b.node().index());
                let (a_neg, b_neg) = (a.is_neg(), b.is_neg());
                for w in 0..stride {
                    let wa = words[an * stride + w] ^ if a_neg { u64::MAX } else { 0 };
                    let wb = words[bn * stride + w] ^ if b_neg { u64::MAX } else { 0 };
                    words[i * stride + w] = wa & wb;
                }
            }
        }
    }
    Sim {
        stride,
        n_patterns: pats.n_patterns(),
        words: Arc::new(words),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Lit;

    fn adder2() -> Aig {
        let mut g = Aig::new("add2", 4);
        let (a0, a1, b0, b1) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3));
        let s0 = g.xor(a0, b0);
        let c0 = g.and(a0, b0);
        let t = g.xor(a1, b1);
        let s1 = g.xor(t, c0);
        let c1a = g.and(a1, b1);
        let c1b = g.and(t, c0);
        let c1 = g.or(c1a, c1b);
        g.add_output(s0, "s0");
        g.add_output(s1, "s1");
        g.add_output(c1, "s2");
        g
    }

    #[test]
    fn simulation_matches_reference_eval() {
        let g = adder2();
        let pats = Patterns::exhaustive(4);
        let sim = simulate(&g, &pats);
        for p in 0..16 {
            let ins: Vec<bool> = (0..4).map(|i| pats.bit(i, p)).collect();
            let want = g.eval(&ins);
            for (o, w) in want.iter().enumerate() {
                let sig = sim.output_sig(&g, o);
                assert_eq!(
                    sig[p / 64] >> (p % 64) & 1 == 1,
                    *w,
                    "output {o} pattern {p}"
                );
            }
        }
    }

    #[test]
    fn constant_and_complemented_outputs() {
        let mut g = Aig::new("t", 1);
        g.add_output(Lit::TRUE, "one");
        g.add_output(!g.pi(0), "na");
        let pats = Patterns::exhaustive(1);
        let sim = simulate(&g, &pats);
        assert_eq!(sim.output_sig(&g, 0)[0] & 0b11, 0b11);
        assert_eq!(sim.output_sig(&g, 1)[0] & 0b11, 0b01);
    }

    #[test]
    fn simulating_into_a_recycled_buffer_matches_fresh() {
        let circuits = [
            adder2(),
            benchgen::suite::by_name("mtp8").expect("suite circuit"),
            benchgen::suite::by_name("alu4").expect("suite circuit"),
        ];
        for g in &circuits {
            let pats = Patterns::random(g.n_pis(), 1000, 3);
            let fresh = simulate(g, &pats);
            let len = g.n_nodes() * pats.stride();
            // Garbage-filled buffers: larger than needed, exactly sized,
            // and too small (replaced by a fresh allocation).
            for cap in [len + 777, len, len / 2] {
                let garbage: Vec<u64> = (0..cap as u64)
                    .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
                    .collect();
                let sim = simulate_into(g, &pats, garbage);
                assert_eq!(
                    sim.words,
                    fresh.words,
                    "{}: buffer of {cap} words",
                    g.name()
                );
                assert_eq!(sim.n_nodes(), g.n_nodes());
                sim.check_consistent(g).unwrap();
            }
        }
    }

    #[test]
    fn storage_is_shared_until_the_last_handle() {
        let g = adder2();
        let pats = Patterns::exhaustive(4);
        let sim = simulate(&g, &pats);
        let handle = sim.clone();
        assert!(
            sim.into_buffer().is_none(),
            "a clone still holds the storage"
        );
        let words = handle.into_buffer().expect("last handle");
        assert_eq!(words.len(), g.n_nodes() * pats.stride());
    }

    #[test]
    fn random_simulation_has_expected_shape() {
        let g = adder2();
        let pats = Patterns::random(4, 1000, 7);
        let sim = simulate(&g, &pats);
        assert_eq!(sim.n_patterns(), 1000);
        assert_eq!(sim.stride(), 16);
        assert_eq!(sim.n_nodes(), g.n_nodes());
    }
}
