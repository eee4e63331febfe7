use aig::{Aig, Node as AigNode};
use std::collections::HashMap;
use std::fmt;

/// A handle to a BDD function inside a [`Manager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BddRef(u32);

impl BddRef {
    const ZERO: BddRef = BddRef(0);
    const ONE: BddRef = BddRef(1);
}

/// Errors from BDD construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BddError {
    /// The manager exceeded its node budget; the payload is the limit.
    NodeLimit(usize),
    /// A variable index was out of range.
    VarOutOfRange(usize),
}

impl fmt::Display for BddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BddError::NodeLimit(l) => write!(f, "BDD node limit of {l} exceeded"),
            BddError::VarOutOfRange(v) => write!(f, "variable {v} out of range"),
        }
    }
}

impl std::error::Error for BddError {}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    low: BddRef,
    high: BddRef,
}

const OP_AND: u8 = 0;
const OP_XOR: u8 = 1;

/// A reduced ordered BDD manager with hash-consing, an operation cache,
/// and a hard node budget. Variable order is the input index order.
#[derive(Debug)]
pub struct Manager {
    n_vars: usize,
    node_limit: usize,
    nodes: Vec<Node>,
    unique: HashMap<(u32, u32, u32), u32>,
    op_cache: HashMap<(u8, u32, u32), u32>,
    not_cache: HashMap<u32, u32>,
}

impl Manager {
    /// Creates a manager for `n_vars` variables with a `node_limit`
    /// budget.
    pub fn new(n_vars: usize, node_limit: usize) -> Self {
        let sentinel = Node {
            var: u32::MAX,
            low: BddRef::ZERO,
            high: BddRef::ZERO,
        };
        Manager {
            n_vars,
            node_limit,
            nodes: vec![sentinel, sentinel],
            unique: HashMap::new(),
            op_cache: HashMap::new(),
            not_cache: HashMap::new(),
        }
    }

    /// The constant-false function.
    pub fn zero() -> BddRef {
        BddRef::ZERO
    }

    /// The constant-true function.
    pub fn one() -> BddRef {
        BddRef::ONE
    }

    /// Number of variables.
    pub fn n_vars(&self) -> usize {
        self.n_vars
    }

    /// Total nodes allocated (including the two terminals).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The projection function of variable `i`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::VarOutOfRange`] if `i >= n_vars`.
    pub fn var(&mut self, i: usize) -> Result<BddRef, BddError> {
        if i >= self.n_vars {
            return Err(BddError::VarOutOfRange(i));
        }
        self.mk(i as u32, BddRef::ZERO, BddRef::ONE)
    }

    fn mk(&mut self, var: u32, low: BddRef, high: BddRef) -> Result<BddRef, BddError> {
        if low == high {
            return Ok(low);
        }
        if let Some(&id) = self.unique.get(&(var, low.0, high.0)) {
            return Ok(BddRef(id));
        }
        if self.nodes.len() >= self.node_limit {
            return Err(BddError::NodeLimit(self.node_limit));
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node { var, low, high });
        self.unique.insert((var, low.0, high.0), id);
        Ok(BddRef(id))
    }

    fn var_of(&self, f: BddRef) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// The complement of `f`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on budget exhaustion.
    pub fn not(&mut self, f: BddRef) -> Result<BddRef, BddError> {
        match f {
            BddRef::ZERO => return Ok(BddRef::ONE),
            BddRef::ONE => return Ok(BddRef::ZERO),
            _ => {}
        }
        if let Some(&r) = self.not_cache.get(&f.0) {
            return Ok(BddRef(r));
        }
        let n = self.nodes[f.0 as usize];
        let low = self.not(n.low)?;
        let high = self.not(n.high)?;
        let r = self.mk(n.var, low, high)?;
        self.not_cache.insert(f.0, r.0);
        Ok(r)
    }

    /// The conjunction of `f` and `g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on budget exhaustion.
    pub fn and(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        // Terminal rules.
        if f == BddRef::ZERO || g == BddRef::ZERO {
            return Ok(BddRef::ZERO);
        }
        if f == BddRef::ONE {
            return Ok(g);
        }
        if g == BddRef::ONE || f == g {
            return Ok(f);
        }
        let key = (OP_AND, f.0.min(g.0), f.0.max(g.0));
        if let Some(&r) = self.op_cache.get(&key) {
            return Ok(BddRef(r));
        }
        let r = self.apply_step(f, g, OP_AND)?;
        self.op_cache.insert(key, r.0);
        Ok(r)
    }

    /// The exclusive-or of `f` and `g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on budget exhaustion.
    pub fn xor(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        if f == g {
            return Ok(BddRef::ZERO);
        }
        if f == BddRef::ZERO {
            return Ok(g);
        }
        if g == BddRef::ZERO {
            return Ok(f);
        }
        if f == BddRef::ONE {
            return self.not(g);
        }
        if g == BddRef::ONE {
            return self.not(f);
        }
        let key = (OP_XOR, f.0.min(g.0), f.0.max(g.0));
        if let Some(&r) = self.op_cache.get(&key) {
            return Ok(BddRef(r));
        }
        let r = self.apply_step(f, g, OP_XOR)?;
        self.op_cache.insert(key, r.0);
        Ok(r)
    }

    /// The disjunction of `f` and `g`.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on budget exhaustion.
    pub fn or(&mut self, f: BddRef, g: BddRef) -> Result<BddRef, BddError> {
        let nf = self.not(f)?;
        let ng = self.not(g)?;
        let n = self.and(nf, ng)?;
        self.not(n)
    }

    fn apply_step(&mut self, f: BddRef, g: BddRef, op: u8) -> Result<BddRef, BddError> {
        let (vf, vg) = (self.var_of(f), self.var_of(g));
        let var = vf.min(vg);
        let (f_low, f_high) = if vf == var {
            let n = self.nodes[f.0 as usize];
            (n.low, n.high)
        } else {
            (f, f)
        };
        let (g_low, g_high) = if vg == var {
            let n = self.nodes[g.0 as usize];
            (n.low, n.high)
        } else {
            (g, g)
        };
        let (low, high) = match op {
            OP_AND => (self.and(f_low, g_low)?, self.and(f_high, g_high)?),
            _ => (self.xor(f_low, g_low)?, self.xor(f_high, g_high)?),
        };
        self.mk(var, low, high)
    }

    /// Builds BDDs for every primary output of `aig` (whose input count
    /// must match `n_vars`).
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] on budget exhaustion.
    ///
    /// # Panics
    ///
    /// Panics if the circuit's input count differs from the manager's or
    /// the graph is cyclic.
    pub fn build_outputs(&mut self, aig: &Aig) -> Result<Vec<BddRef>, BddError> {
        assert_eq!(aig.n_pis(), self.n_vars, "input count mismatch");
        let order = aig.topo_order().expect("acyclic");
        let live = aig.live_mask();
        let mut map: Vec<Option<BddRef>> = vec![None; aig.n_nodes()];
        map[0] = Some(BddRef::ZERO);
        for id in order {
            if !live[id.index()] {
                continue;
            }
            match *aig.node(id) {
                AigNode::Const0 => {}
                AigNode::Input(i) => map[id.index()] = Some(self.var(i as usize)?),
                AigNode::And(a, b) => {
                    let fa = self.edge(&map, a)?;
                    let fb = self.edge(&map, b)?;
                    map[id.index()] = Some(self.and(fa, fb)?);
                }
            }
        }
        let mut outs = Vec::with_capacity(aig.n_pos());
        for o in aig.outputs() {
            let base = map[o.lit.node().index()].expect("output drivers are live");
            outs.push(if o.lit.is_neg() {
                self.not(base)?
            } else {
                base
            });
        }
        Ok(outs)
    }

    fn edge(&mut self, map: &[Option<BddRef>], lit: aig::Lit) -> Result<BddRef, BddError> {
        let base = map[lit.node().index()].expect("fanins built first");
        if lit.is_neg() {
            self.not(base)
        } else {
            Ok(base)
        }
    }

    /// The density of `f`: the fraction of the `2^n_vars` assignments on
    /// which `f` is true (`satcount / 2^n`).
    pub fn density(&self, f: BddRef) -> f64 {
        let mut memo: HashMap<u32, f64> = HashMap::new();
        self.density_rec(f, &mut memo)
    }

    fn density_rec(&self, f: BddRef, memo: &mut HashMap<u32, f64>) -> f64 {
        match f {
            BddRef::ZERO => return 0.0,
            BddRef::ONE => return 1.0,
            _ => {}
        }
        if let Some(&d) = memo.get(&f.0) {
            return d;
        }
        let n = self.nodes[f.0 as usize];
        let d = 0.5 * (self.density_rec(n.low, memo) + self.density_rec(n.high, memo));
        memo.insert(f.0, d);
        d
    }

    /// Evaluates `f` under a complete variable assignment.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len() != n_vars`.
    pub fn eval(&self, f: BddRef, assignment: &[bool]) -> bool {
        assert_eq!(assignment.len(), self.n_vars);
        let mut cur = f;
        loop {
            match cur {
                BddRef::ZERO => return false,
                BddRef::ONE => return true,
                _ => {
                    let n = self.nodes[cur.0 as usize];
                    cur = if assignment[n.var as usize] {
                        n.high
                    } else {
                        n.low
                    };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminal_rules() {
        let mut m = Manager::new(2, 1000);
        let a = m.var(0).unwrap();
        assert_eq!(m.and(a, Manager::zero()).unwrap(), Manager::zero());
        assert_eq!(m.and(a, Manager::one()).unwrap(), a);
        assert_eq!(m.xor(a, a).unwrap(), Manager::zero());
        let na = m.not(a).unwrap();
        assert_eq!(m.and(a, na).unwrap(), Manager::zero());
        assert_eq!(m.or(a, na).unwrap(), Manager::one());
        assert!(m.var(5).is_err());
    }

    #[test]
    fn canonicity_of_equivalent_formulas() {
        // a & b == !( !a | !b ) must be the *same* node.
        let mut m = Manager::new(2, 1000);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let ab = m.and(a, b).unwrap();
        let na = m.not(a).unwrap();
        let nb = m.not(b).unwrap();
        let or = m.or(na, nb).unwrap();
        let demorgan = m.not(or).unwrap();
        assert_eq!(ab, demorgan);
    }

    #[test]
    fn density_counts_models() {
        let mut m = Manager::new(3, 1000);
        let a = m.var(0).unwrap();
        let b = m.var(1).unwrap();
        let c = m.var(2).unwrap();
        let ab = m.and(a, b).unwrap();
        assert_eq!(m.density(ab), 0.25);
        let abc = m.and(ab, c).unwrap();
        assert_eq!(m.density(abc), 0.125);
        let x = m.xor(a, b).unwrap();
        assert_eq!(m.density(x), 0.5);
        assert_eq!(m.density(Manager::one()), 1.0);
    }

    #[test]
    fn build_matches_circuit_eval() {
        let g = benchgen::adders::rca(3);
        let mut m = Manager::new(6, 1 << 16);
        let outs = m.build_outputs(&g).unwrap();
        for p in 0..64usize {
            let ins: Vec<bool> = (0..6).map(|i| p >> i & 1 == 1).collect();
            let want = g.eval(&ins);
            for (o, &f) in outs.iter().enumerate() {
                assert_eq!(m.eval(f, &ins), want[o], "output {o} pattern {p}");
            }
        }
    }

    #[test]
    fn node_budget_stops_construction() {
        let g = benchgen::multipliers::wallace_multiplier(6);
        let mut m = Manager::new(12, 64);
        assert!(matches!(m.build_outputs(&g), Err(BddError::NodeLimit(64))));
    }
}
