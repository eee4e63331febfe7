use crate::error::AigError;
use crate::graph::Aig;
use crate::lit::Lit;
use crate::node::{Node, NodeId};

impl Aig {
    /// Redirects every reference to node `n` (gate fanins and primary
    /// outputs) to the literal `with`, honoring edge polarities: a
    /// complemented reference to `n` becomes a complemented `with`.
    ///
    /// The node `n` itself is left in place as a dangling node; call
    /// [`Aig::compact`] to garbage-collect. Structural hashing is
    /// invalidated until the next compaction.
    ///
    /// This is the primitive behind applying a local approximate change.
    ///
    /// # Errors
    ///
    /// - [`AigError::NotAnAnd`] if `n` is the constant node or an input.
    /// - [`AigError::WouldCreateCycle`] if `n` lies in the transitive
    ///   fanin of `with` (the check walks the fanin cone of `with`).
    pub fn replace(&mut self, n: NodeId, with: Lit) -> Result<(), AigError> {
        if n.index() >= self.n_nodes() {
            return Err(AigError::NodeOutOfRange(n));
        }
        if !self.node(n).is_and() {
            return Err(AigError::NotAnAnd(n));
        }
        if with.node() != n && self.tfi_contains(with.node(), n) {
            return Err(AigError::WouldCreateCycle {
                target: n,
                via: with.node(),
            });
        }
        if with.node() == n {
            // Replacing a node with itself (possibly complemented) is either
            // a no-op or nonsensical; treat the complemented case as a cycle.
            if with.is_neg() {
                return Err(AigError::WouldCreateCycle { target: n, via: n });
            }
            return Ok(());
        }
        for node in self.nodes_mut() {
            if let Node::And(a, b) = node {
                if a.node() == n {
                    *a = with.xor_neg(a.is_neg());
                }
                if b.node() == n {
                    *b = with.xor_neg(b.is_neg());
                }
            }
        }
        for out in self.outputs_mut() {
            if out.lit.node() == n {
                out.lit = with.xor_neg(out.lit.is_neg());
            }
        }
        self.invalidate_strash();
        Ok(())
    }

    /// Whether node `query` appears in the transitive fanin cone of
    /// `root` (including `root` itself).
    pub fn tfi_contains(&self, root: NodeId, query: NodeId) -> bool {
        if root == query {
            return true;
        }
        let mut seen = vec![false; self.n_nodes()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        while let Some(m) = stack.pop() {
            if let Node::And(a, b) = self.node(m) {
                for f in [a.node(), b.node()] {
                    if f == query {
                        return true;
                    }
                    if !seen[f.index()] {
                        seen[f.index()] = true;
                        stack.push(f);
                    }
                }
            }
        }
        false
    }

    /// Marks the nodes reachable backwards from the primary outputs.
    pub fn live_mask(&self) -> Vec<bool> {
        let mut live = vec![false; self.n_nodes()];
        live[0] = true;
        for i in 0..self.n_pis() {
            live[1 + i] = true;
        }
        let mut stack: Vec<NodeId> = Vec::new();
        for out in self.outputs() {
            let n = out.lit.node();
            if !live[n.index()] {
                live[n.index()] = true;
                stack.push(n);
            }
        }
        while let Some(m) = stack.pop() {
            if let Node::And(a, b) = self.node(m) {
                for f in [a.node(), b.node()] {
                    if !live[f.index()] {
                        live[f.index()] = true;
                        stack.push(f);
                    }
                }
            }
        }
        live
    }

    /// Garbage-collects dangling nodes and rebuilds the graph with full
    /// constant folding and structural hashing.
    ///
    /// Returns the compacted graph together with a mapping from old node
    /// ids to the literal each live node became (dead nodes map to
    /// `None`). A live node may fold into a constant, an input, or a
    /// complemented literal of another node.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::Cyclic`] if the graph contains a cycle.
    pub fn compact(&self) -> Result<(Aig, Vec<Option<Lit>>), AigError> {
        let order = self.topo_order()?;
        let live = self.live_mask();
        let mut out = Aig::new(self.name().to_string(), self.n_pis());
        for i in 0..self.n_pis() {
            out.set_pi_name(i, self.pi_name(i).to_string());
        }
        let mut map: Vec<Option<Lit>> = vec![None; self.n_nodes()];
        map[0] = Some(Lit::FALSE);
        for id in order {
            if !live[id.index()] {
                continue;
            }
            match *self.node(id) {
                Node::Const0 => {}
                Node::Input(i) => map[id.index()] = Some(out.pi(i as usize)),
                Node::And(a, b) => {
                    let fa = map[a.node().index()]
                        .expect("topological order maps fanins first")
                        .xor_neg(a.is_neg());
                    let fb = map[b.node().index()]
                        .expect("topological order maps fanins first")
                        .xor_neg(b.is_neg());
                    map[id.index()] = Some(out.and(fa, fb));
                }
            }
        }
        for o in self.outputs() {
            let lit = map[o.lit.node().index()]
                .expect("output drivers are live")
                .xor_neg(o.lit.is_neg());
            out.add_output(lit, o.name.clone());
        }
        Ok((out, map))
    }

    /// In-place [`Aig::compact`]: replaces `self` with the compacted graph
    /// and returns the old-node → new-literal mapping.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::Cyclic`] if the graph contains a cycle.
    pub fn cleanup(&mut self) -> Result<Vec<Option<Lit>>, AigError> {
        let (compacted, map) = self.compact()?;
        *self = compacted;
        Ok(map)
    }
}

/// The image of an old-revision literal under a cleanup remapping (as
/// returned by [`Aig::cleanup`]), with its polarity carried through;
/// `None` when the node did not survive or lies past the remap.
pub fn image(remap: &[Option<Lit>], l: Lit) -> Option<Lit> {
    remap
        .get(l.node().index())
        .copied()
        .flatten()
        .map(|r| r.xor_neg(l.is_neg()))
}

/// The identity remapping over `n` nodes: every node keeps its id and
/// polarity. Rolls a cache forward across a revision that moved nothing.
pub fn identity(n: usize) -> Vec<Option<Lit>> {
    (0..n)
        .map(|i| Some(Lit::new(NodeId::new(i), false)))
        .collect()
}

/// Structural equality of a new node against its old preimage, with the
/// old fanins carried through the remapping (unordered, since strash may
/// normalize fanin order).
pub fn struct_eq(new: &Node, old: &Node, remap: &[Option<Lit>]) -> bool {
    match (new, old) {
        (Node::Const0, Node::Const0) => true,
        (Node::Input(a), Node::Input(b)) => a == b,
        (Node::And(a, b), Node::And(oa, ob)) => {
            let (Some(ia), Some(ib)) = (image(remap, *oa), image(remap, *ob)) else {
                return false;
            };
            (ia == *a && ib == *b) || (ia == *b && ib == *a)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_redirects_fanouts_and_outputs() {
        let mut g = Aig::new("t", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let y = g.and(ab, c);
        g.add_output(y, "y");
        g.add_output(!ab, "z");
        // Replace ab by just a.
        g.replace(ab.node(), a).unwrap();
        assert_eq!(g.eval(&[true, false, true]), vec![true, false]);
        assert_eq!(g.outputs()[1].lit, !a, "polarity preserved on outputs");
    }

    #[test]
    fn replace_with_complement() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let ab = g.and(a, b);
        g.add_output(ab, "y");
        g.replace(ab.node(), !a).unwrap();
        assert_eq!(g.eval(&[true, true]), vec![false]);
        assert_eq!(g.eval(&[false, false]), vec![true]);
    }

    #[test]
    fn replace_rejects_inputs_and_cycles() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let ab = g.and(a, b);
        let top = g.and(ab, !b);
        g.add_output(top, "y");
        assert_eq!(g.replace(a.node(), b), Err(AigError::NotAnAnd(a.node())));
        // top is in the fanout of ab; replacing ab with top would cycle.
        assert!(matches!(
            g.replace(ab.node(), top),
            Err(AigError::WouldCreateCycle { .. })
        ));
    }

    #[test]
    fn replace_with_self_is_noop_or_error() {
        let mut g = Aig::new("t", 2);
        let ab = g.and(g.pi(0), g.pi(1));
        g.add_output(ab, "y");
        assert!(g.replace(ab.node(), ab).is_ok());
        assert!(g.replace(ab.node(), !ab).is_err());
    }

    #[test]
    fn compact_drops_dead_nodes_and_preserves_function() {
        let mut g = Aig::new("t", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let dead = g.and(b, c);
        let _dead2 = g.and(dead, a);
        let y = g.or(ab, c);
        g.add_output(y, "y");
        let before = g.n_ands();
        let (h, map) = g.compact().unwrap();
        assert!(h.n_ands() < before);
        assert_eq!(h.n_ands(), 2); // ab and the or-gate
        assert_eq!(map[dead.node().index()], None);
        for pattern in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(g.eval(&ins), h.eval(&ins));
        }
    }

    #[test]
    fn compact_after_replace_folds_constants() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let ab = g.and(a, b);
        let y = g.and(ab, b);
        g.add_output(y, "y");
        g.replace(ab.node(), Lit::TRUE).unwrap();
        let (h, _) = g.compact().unwrap();
        // y = 1 & b = b, so no AND gates remain.
        assert_eq!(h.n_ands(), 0);
        assert_eq!(h.outputs()[0].lit, h.pi(1));
    }

    #[test]
    fn cleanup_is_in_place_compact() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let _dead = g.and(a, !b);
        let y = g.and(a, b);
        g.add_output(y, "y");
        g.cleanup().unwrap();
        assert_eq!(g.n_ands(), 1);
    }

    #[test]
    fn tfi_contains_basics() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let ab = g.and(a, b);
        let top = g.and(ab, !a);
        g.add_output(top, "y");
        assert!(g.tfi_contains(top.node(), ab.node()));
        assert!(g.tfi_contains(top.node(), a.node()));
        assert!(!g.tfi_contains(ab.node(), top.node()));
        assert!(g.tfi_contains(ab.node(), ab.node()));
    }
}
