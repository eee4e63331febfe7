use crate::error::AigError;
use crate::graph::Aig;
use crate::node::{Node, NodeId};

impl Aig {
    /// Returns all nodes in a topological order (fanins before fanouts).
    ///
    /// The order covers every node, including dangling ones, and starts
    /// with the constant node and the primary inputs.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::Cyclic`] if the graph contains a combinational
    /// cycle (which can only arise from misuse of the editing API).
    pub fn topo_order(&self) -> Result<Vec<NodeId>, AigError> {
        let n = self.n_nodes();
        let mut order = Vec::with_capacity(n);
        // 0 = unvisited, 1 = on stack, 2 = done.
        let mut state = vec![0u8; n];
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for root in 0..n {
            if state[root] != 0 {
                continue;
            }
            stack.push((NodeId::new(root), false));
            while let Some((id, expanded)) = stack.pop() {
                let i = id.index();
                if expanded {
                    state[i] = 2;
                    order.push(id);
                    continue;
                }
                match state[i] {
                    2 => continue,
                    1 => return Err(AigError::Cyclic),
                    _ => {}
                }
                state[i] = 1;
                stack.push((id, true));
                if let Node::And(a, b) = self.node(id) {
                    for f in [a.node(), b.node()] {
                        match state[f.index()] {
                            0 => stack.push((f, false)),
                            1 => return Err(AigError::Cyclic),
                            _ => {}
                        }
                    }
                }
            }
        }
        Ok(order)
    }

    /// Computes the logic level of every node: constant and inputs are
    /// level 0, an AND is one more than the maximum of its fanin levels.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::Cyclic`] if the graph contains a cycle.
    pub fn levels(&self) -> Result<Vec<u32>, AigError> {
        let order = self.topo_order()?;
        let mut levels = vec![0u32; self.n_nodes()];
        for id in order {
            if let Node::And(a, b) = self.node(id) {
                levels[id.index()] = 1 + levels[a.node().index()].max(levels[b.node().index()]);
            }
        }
        Ok(levels)
    }

    /// The depth of the circuit: the maximum level over all output drivers.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::Cyclic`] if the graph contains a cycle.
    pub fn depth(&self) -> Result<u32, AigError> {
        let levels = self.levels()?;
        Ok(self
            .outputs()
            .iter()
            .map(|o| levels[o.lit.node().index()])
            .max()
            .unwrap_or(0))
    }
}

/// A fanout index for an [`Aig`]: for each node, the list of AND nodes that
/// use it as a fanin, plus the number of primary outputs it drives.
///
/// The index is a snapshot; rebuild it after editing the graph.
#[derive(Debug, Clone)]
pub struct Fanouts {
    lists: Vec<Vec<NodeId>>,
    output_refs: Vec<u32>,
}

impl Fanouts {
    /// Builds the fanout index for `aig`.
    ///
    /// ```
    /// use aig::{Aig, Fanouts};
    /// let mut g = Aig::new("t", 2);
    /// let ab = g.and(g.pi(0), g.pi(1));
    /// g.add_output(ab, "y");
    /// let f = Fanouts::build(&g);
    /// assert_eq!(f.of(g.pi(0).node()), &[ab.node()]);
    /// assert_eq!(f.n_refs(ab.node()), 1); // one primary output
    /// ```
    pub fn build(aig: &Aig) -> Self {
        let n = aig.n_nodes();
        let mut lists = vec![Vec::new(); n];
        let mut output_refs = vec![0u32; n];
        for id in aig.and_ids() {
            if let Some((a, b)) = aig.fanins(id) {
                lists[a.node().index()].push(id);
                if b.node() != a.node() {
                    lists[b.node().index()].push(id);
                }
            }
        }
        for out in aig.outputs() {
            output_refs[out.lit.node().index()] += 1;
        }
        Fanouts { lists, output_refs }
    }

    /// The AND nodes that use `n` as a fanin.
    pub fn of(&self, n: NodeId) -> &[NodeId] {
        &self.lists[n.index()]
    }

    /// The number of primary outputs driven directly by `n`.
    pub fn output_refs(&self, n: NodeId) -> u32 {
        self.output_refs[n.index()]
    }

    /// Total reference count of `n`: fanout gates plus outputs.
    pub fn n_refs(&self, n: NodeId) -> u32 {
        self.lists[n.index()].len() as u32 + self.output_refs[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Lit;

    fn chain(n: usize) -> Aig {
        let mut g = Aig::new("chain", n);
        let mut acc = Lit::TRUE;
        for i in 0..n {
            acc = g.and(acc, g.pi(i));
        }
        g.add_output(acc, "y");
        g
    }

    #[test]
    fn topo_order_is_valid() {
        let g = chain(8);
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), g.n_nodes());
        let mut pos = vec![0usize; g.n_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in g.and_ids() {
            let (a, b) = g.fanins(id).unwrap();
            assert!(pos[a.node().index()] < pos[id.index()]);
            assert!(pos[b.node().index()] < pos[id.index()]);
        }
    }

    #[test]
    fn levels_and_depth_of_chain() {
        let g = chain(5);
        let levels = g.levels().unwrap();
        assert_eq!(*levels.iter().max().unwrap(), 4);
        assert_eq!(g.depth().unwrap(), 4);
    }

    #[test]
    fn depth_of_balanced_tree_is_logarithmic() {
        let mut g = Aig::new("tree", 8);
        let lits: Vec<Lit> = (0..8).map(|i| g.pi(i)).collect();
        let y = g.and_many(&lits);
        g.add_output(y, "y");
        assert_eq!(g.depth().unwrap(), 3);
    }

    #[test]
    fn fanout_counts() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let ab = g.and(a, b);
        let anb = g.and(a, !b);
        g.add_output(ab, "y0");
        g.add_output(ab, "y1");
        let f = Fanouts::build(&g);
        assert_eq!(f.of(a.node()).len(), 2);
        assert_eq!(f.output_refs(ab.node()), 2);
        assert_eq!(f.n_refs(ab.node()), 2);
        assert_eq!(f.n_refs(anb.node()), 0, "dangling node has no refs");
    }
}
