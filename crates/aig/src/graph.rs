use crate::error::AigError;
use crate::lit::Lit;
use crate::node::{Node, NodeId};
use std::collections::HashMap;

/// A primary output: a literal plus a human-readable name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// The literal driving this output.
    pub lit: Lit,
    /// The output's name (used by writers and reports).
    pub name: String,
}

/// An AND-inverter graph.
///
/// Node 0 is the constant-zero node, nodes `1..=n_pis` are the primary
/// inputs, and all further nodes are two-input ANDs over possibly
/// complemented literals. Construction through [`Aig::and`] performs
/// constant folding and structural hashing, so semantically trivial or
/// duplicate gates are never materialized.
///
/// Editing operations such as [`Aig::replace`] may leave dangling
/// (unreferenced) nodes behind; [`Aig::compact`] garbage-collects them and
/// restores maximal structural sharing.
#[derive(Debug, Clone)]
pub struct Aig {
    name: String,
    nodes: Vec<Node>,
    n_pis: usize,
    pi_names: Vec<String>,
    outputs: Vec<Output>,
    strash: HashMap<(u32, u32), NodeId>,
    pub(crate) strash_enabled: bool,
}

impl Aig {
    /// Creates an empty AIG with `n_pis` primary inputs.
    ///
    /// ```
    /// use aig::Aig;
    /// let g = Aig::new("empty", 4);
    /// assert_eq!(g.n_pis(), 4);
    /// assert_eq!(g.n_ands(), 0);
    /// ```
    pub fn new(name: impl Into<String>, n_pis: usize) -> Self {
        let mut nodes = Vec::with_capacity(n_pis + 1);
        nodes.push(Node::Const0);
        for i in 0..n_pis {
            nodes.push(Node::Input(i as u32));
        }
        Aig {
            name: name.into(),
            nodes,
            n_pis,
            pi_names: (0..n_pis).map(|i| format!("x{i}")).collect(),
            outputs: Vec::new(),
            strash: HashMap::new(),
            strash_enabled: true,
        }
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Number of primary inputs.
    pub fn n_pis(&self) -> usize {
        self.n_pis
    }

    /// Number of primary outputs.
    pub fn n_pos(&self) -> usize {
        self.outputs.len()
    }

    /// Total number of nodes, including the constant node and the inputs.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn n_ands(&self) -> usize {
        self.nodes.len() - 1 - self.n_pis
    }

    /// The literal for primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_pis`.
    pub fn pi(&self, i: usize) -> Lit {
        assert!(i < self.n_pis, "primary input {i} out of range");
        Lit::new(NodeId::new(1 + i), false)
    }

    /// The name of primary input `i`.
    pub fn pi_name(&self, i: usize) -> &str {
        &self.pi_names[i]
    }

    /// Renames primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n_pis`.
    pub fn set_pi_name(&mut self, i: usize, name: impl Into<String>) {
        self.pi_names[i] = name.into();
    }

    /// The node table entry for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The fanins of node `id` if it is an AND gate.
    pub fn fanins(&self, id: NodeId) -> Option<(Lit, Lit)> {
        self.nodes[id.index()].fanins()
    }

    /// Iterates over the ids of all AND nodes (including dangling ones).
    pub fn and_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1 + self.n_pis..self.nodes.len()).map(NodeId::new)
    }

    /// Iterates over the ids of all nodes, constant and inputs included.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::new)
    }

    /// The primary outputs.
    pub fn outputs(&self) -> &[Output] {
        &self.outputs
    }

    /// Appends a primary output.
    pub fn add_output(&mut self, lit: Lit, name: impl Into<String>) {
        self.outputs.push(Output {
            lit,
            name: name.into(),
        });
    }

    /// Redirects output `i` to a new literal.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::OutputOutOfRange`] if `i` is out of range.
    pub fn set_output(&mut self, i: usize, lit: Lit) -> Result<(), AigError> {
        let out = self
            .outputs
            .get_mut(i)
            .ok_or(AigError::OutputOutOfRange(i))?;
        out.lit = lit;
        Ok(())
    }

    /// Renames output `i`.
    ///
    /// # Errors
    ///
    /// Returns [`AigError::OutputOutOfRange`] if `i` is out of range.
    pub fn set_output_name(&mut self, i: usize, name: impl Into<String>) -> Result<(), AigError> {
        let out = self
            .outputs
            .get_mut(i)
            .ok_or(AigError::OutputOutOfRange(i))?;
        out.name = name.into();
        Ok(())
    }

    /// Builds the AND of two literals with constant folding and structural
    /// hashing.
    ///
    /// The returned literal may be a constant, one of the operands, or a
    /// reference to an existing structurally identical gate.
    ///
    /// ```
    /// use aig::{Aig, Lit};
    /// let mut g = Aig::new("t", 2);
    /// let (a, b) = (g.pi(0), g.pi(1));
    /// assert_eq!(g.and(a, Lit::FALSE), Lit::FALSE);
    /// assert_eq!(g.and(a, Lit::TRUE), a);
    /// assert_eq!(g.and(a, !a), Lit::FALSE);
    /// let ab = g.and(a, b);
    /// assert_eq!(g.and(b, a), ab); // structural hashing
    /// ```
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Constant folding and trivial cases.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE {
            return b;
        }
        if b == Lit::TRUE || a == b {
            return a;
        }
        // Canonical operand order for hashing.
        let (a, b) = if a.raw() <= b.raw() { (a, b) } else { (b, a) };
        if self.strash_enabled {
            if let Some(&id) = self.strash.get(&(a.raw(), b.raw())) {
                return id.lit();
            }
        }
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node::And(a, b));
        if self.strash_enabled {
            self.strash.insert((a.raw(), b.raw()), id);
        }
        id.lit()
    }

    /// Builds the OR of two literals.
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// Builds the NAND of two literals.
    pub fn nand(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, b)
    }

    /// Builds the NOR of two literals.
    pub fn nor(&mut self, a: Lit, b: Lit) -> Lit {
        self.and(!a, !b)
    }

    /// Builds the XOR of two literals (two AND gates).
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let n0 = self.and(a, !b);
        let n1 = self.and(!a, b);
        self.or(n0, n1)
    }

    /// Builds the XNOR of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Builds the multiplexer `if s { t } else { e }`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let st = self.and(s, t);
        let se = self.and(!s, e);
        self.or(st, se)
    }

    /// Builds `a implies b`, i.e. `!a | b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        self.or(!a, b)
    }

    /// Builds the conjunction of an arbitrary number of literals as a
    /// balanced tree (empty input yields [`Lit::TRUE`]).
    pub fn and_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::TRUE, Aig::and)
    }

    /// Builds the disjunction of an arbitrary number of literals as a
    /// balanced tree (empty input yields [`Lit::FALSE`]).
    pub fn or_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::or)
    }

    /// Builds the parity (XOR reduction) of the literals as a balanced tree.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        self.reduce_balanced(lits, Lit::FALSE, Aig::xor)
    }

    fn reduce_balanced(
        &mut self,
        lits: &[Lit],
        empty: Lit,
        op: fn(&mut Aig, Lit, Lit) -> Lit,
    ) -> Lit {
        match lits.len() {
            0 => empty,
            1 => lits[0],
            n => {
                let (lo, hi) = lits.split_at(n / 2);
                let a = self.reduce_balanced(lo, empty, op);
                let b = self.reduce_balanced(hi, empty, op);
                op(self, a, b)
            }
        }
    }

    /// A structural copy for trial edits: same nodes, outputs, and
    /// names, but with structural hashing disabled and an empty hash
    /// map. Replacement logic built on the copy therefore never aliases
    /// an existing gate — matching the fresh-rebuild fallback the
    /// committed apply path takes on a strash collision — and the copy
    /// is what [`Aig::replace_via`] requires.
    pub fn trial_copy(&self) -> Aig {
        Aig {
            name: self.name.clone(),
            nodes: self.nodes.clone(),
            n_pis: self.n_pis,
            pi_names: self.pi_names.clone(),
            outputs: self.outputs.clone(),
            strash: HashMap::new(),
            strash_enabled: false,
        }
    }

    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    pub(crate) fn truncate_nodes(&mut self, len: usize) {
        self.nodes.truncate(len);
    }

    pub(crate) fn outputs_mut(&mut self) -> &mut [Output] {
        &mut self.outputs
    }

    pub(crate) fn invalidate_strash(&mut self) {
        self.strash.clear();
        self.strash_enabled = false;
    }

    /// Disables structural hashing until the next [`Aig::compact`] /
    /// [`Aig::cleanup`]: subsequent [`Aig::and`] calls create fresh
    /// nodes even when an identical gate exists.
    ///
    /// Editing code uses this to build replacement logic that must not
    /// alias the node being replaced; compaction restores full sharing.
    pub fn disable_strash(&mut self) {
        self.invalidate_strash();
    }

    /// Validates the graph's internal consistency and returns the first
    /// violated invariant as a human-readable message.
    ///
    /// Checks the node-table shape (constant node, input block, AND
    /// region), fanin ranges, acyclicity, level monotonicity, agreement
    /// of the structural-hash table with the node table (when hashing
    /// is enabled), and agreement of [`crate::Fanouts`] with a direct
    /// fanin walk. Intended for debug assertions and fuzz harnesses —
    /// it is `O(nodes + edges)` plus a hash-map walk, not a production
    /// path.
    pub fn check_invariants(&self) -> Result<(), String> {
        // Node-table shape.
        if !matches!(self.nodes.first(), Some(Node::Const0)) {
            return Err("node 0 is not Const0".into());
        }
        if self.pi_names.len() != self.n_pis {
            return Err(format!(
                "{} pi names for {} inputs",
                self.pi_names.len(),
                self.n_pis
            ));
        }
        for i in 0..self.n_pis {
            match self.nodes.get(1 + i) {
                Some(Node::Input(k)) if *k as usize == i => {}
                other => return Err(format!("node {} should be Input({i}), is {other:?}", 1 + i)),
            }
        }
        let n = self.nodes.len();
        for (i, node) in self.nodes.iter().enumerate().skip(1 + self.n_pis) {
            let Node::And(a, b) = node else {
                return Err(format!("node {i} in the AND region is {node:?}"));
            };
            for l in [a, b] {
                if l.node().index() >= n {
                    return Err(format!("node {i} fanin {l} out of range ({n} nodes)"));
                }
            }
        }
        for (o, out) in self.outputs.iter().enumerate() {
            if out.lit.node().index() >= n {
                return Err(format!("output {o} ({}) out of range ({n} nodes)", out.lit));
            }
        }

        // Acyclicity, plus level monotonicity recomputed independently
        // of `levels()` over the topological order.
        let order = self.topo_order().map_err(|e| format!("not a DAG: {e}"))?;
        let levels = self.levels().map_err(|e| format!("levels failed: {e}"))?;
        let mut seen = vec![false; n];
        for id in order {
            if let Node::And(a, b) = self.node(id) {
                for l in [a, b] {
                    if !seen[l.node().index()] {
                        return Err(format!("topo order visits {id:?} before fanin {l}"));
                    }
                }
                let want = 1 + levels[a.node().index()].max(levels[b.node().index()]);
                if levels[id.index()] != want {
                    return Err(format!(
                        "level of {id:?} is {}, fanins imply {want}",
                        levels[id.index()]
                    ));
                }
            } else if levels[id.index()] != 0 {
                return Err(format!("leaf {id:?} has nonzero level"));
            }
            seen[id.index()] = true;
        }

        // Structural-hash agreement: while hashing is enabled, the map
        // and the AND region are in bijection and every gate is stored
        // in canonical operand order.
        if self.strash_enabled {
            if self.strash.len() != self.n_ands() {
                return Err(format!(
                    "strash holds {} entries for {} AND gates",
                    self.strash.len(),
                    self.n_ands()
                ));
            }
            for (&(ar, br), &id) in &self.strash {
                if ar > br {
                    return Err(format!("strash key ({ar}, {br}) not canonical"));
                }
                match self.nodes.get(id.index()) {
                    Some(Node::And(a, b)) if a.raw() == ar && b.raw() == br => {}
                    other => {
                        return Err(format!(
                            "strash entry ({ar}, {br}) -> {id:?} mismatches node {other:?}"
                        ))
                    }
                }
            }
            for id in self.and_ids() {
                let Node::And(a, b) = self.node(id) else {
                    unreachable!("AND region checked above");
                };
                if a.raw() > b.raw() {
                    return Err(format!("{id:?} operands not in canonical order"));
                }
                if self.strash.get(&(a.raw(), b.raw())) != Some(&id) {
                    return Err(format!("{id:?} missing from (or aliased in) strash"));
                }
            }
        }

        // Fanout-index agreement with a direct fanin walk: every listed
        // fanout is a real consumer, per-node list lengths and output
        // reference counts match an independent count.
        let fanouts = crate::topo::Fanouts::build(self);
        let mut fo_count = vec![0u32; n];
        for id in self.and_ids() {
            if let Node::And(a, b) = self.node(id) {
                fo_count[a.node().index()] += 1;
                if b.node() != a.node() {
                    fo_count[b.node().index()] += 1;
                }
            }
        }
        let mut out_count = vec![0u32; n];
        for out in &self.outputs {
            out_count[out.lit.node().index()] += 1;
        }
        for i in 0..n {
            let id = NodeId::new(i);
            let listed = fanouts.of(id);
            if listed.len() != fo_count[i] as usize {
                return Err(format!(
                    "node {i}: fanout list has {} entries, fanin walk counts {}",
                    listed.len(),
                    fo_count[i]
                ));
            }
            for &f in listed {
                let consumes = matches!(
                    self.nodes.get(f.index()),
                    Some(Node::And(a, b)) if a.node() == id || b.node() == id
                );
                if !consumes {
                    return Err(format!("node {i}: listed fanout {f:?} is not a consumer"));
                }
            }
            if fanouts.output_refs(id) != out_count[i] {
                return Err(format!(
                    "node {i}: {} output refs listed, {} outputs reference it",
                    fanouts.output_refs(id),
                    out_count[i]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folding_rules() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        assert_eq!(g.and(Lit::FALSE, a), Lit::FALSE);
        assert_eq!(g.and(Lit::TRUE, a), a);
        assert_eq!(g.and(a, a), a);
        assert_eq!(g.and(a, !a), Lit::FALSE);
        assert_eq!(g.n_ands(), 0);
        let ab = g.and(a, b);
        assert_eq!(g.n_ands(), 1);
        assert_eq!(g.and(b, a), ab);
        assert_eq!(g.n_ands(), 1, "structural hashing must deduplicate");
    }

    #[test]
    fn derived_gates_share_structure() {
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let x1 = g.xor(a, b);
        let x2 = g.xor(a, b);
        assert_eq!(x1, x2);
        assert_eq!(g.n_ands(), 3);
    }

    #[test]
    fn reduction_helpers() {
        let mut g = Aig::new("t", 4);
        let lits: Vec<Lit> = (0..4).map(|i| g.pi(i)).collect();
        assert_eq!(g.and_many(&[]), Lit::TRUE);
        assert_eq!(g.or_many(&[]), Lit::FALSE);
        assert_eq!(g.and_many(&lits[..1]), lits[0]);
        let all = g.and_many(&lits);
        g.add_output(all, "all");
        assert_eq!(g.eval(&[true, true, true, true]), vec![true]);
        assert_eq!(g.eval(&[true, true, false, true]), vec![false]);
    }

    #[test]
    fn output_management() {
        let mut g = Aig::new("t", 1);
        let a = g.pi(0);
        g.add_output(a, "y");
        assert_eq!(g.n_pos(), 1);
        g.set_output(0, !a).unwrap();
        assert_eq!(g.outputs()[0].lit, !a);
        assert!(g.set_output(3, a).is_err());
    }
}
