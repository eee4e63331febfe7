use aig::NodeId;
use bitsim::Sim;
use std::fmt;

/// The function a LAC substitutes for its target node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LacKind {
    /// Replace the target by a constant.
    Constant(bool),
    /// SASIMI-style wire: replace the target by an existing signal `sn`,
    /// negated when `neg` is set.
    Wire {
        /// The substitute node.
        sn: NodeId,
        /// Whether the substitute is complemented.
        neg: bool,
    },
    /// ALSRAC-style two-input resubstitution: replace the target by the
    /// function `tt` over two existing signals. Bit `2*vb + va` of `tt`
    /// is the output for substitute values `(va, vb)`.
    Binary {
        /// The two substitute nodes.
        sns: [NodeId; 2],
        /// The 4-bit truth table over the substitutes.
        tt: u8,
    },
    /// Three-input resubstitution (ALSRAC with a larger substitute set):
    /// bit `4*vc + 2*vb + va` of `tt` is the output for substitute
    /// values `(va, vb, vc)`.
    Ternary {
        /// The three substitute nodes.
        sns: [NodeId; 3],
        /// The 8-bit truth table over the substitutes.
        tt: u8,
    },
}

/// A local approximate change `L(S_n, n)`: replace target node `tn` by
/// [`LacKind`]'s function over the substitute nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Lac {
    /// The target node (TN) whose function is replaced.
    pub tn: NodeId,
    /// The substituted function and its substitute nodes (SNs).
    pub kind: LacKind,
}

impl Lac {
    /// Creates a LAC.
    pub fn new(tn: NodeId, kind: LacKind) -> Self {
        Lac { tn, kind }
    }

    /// The substitute nodes of this LAC (empty for constants).
    pub fn sns(&self) -> impl Iterator<Item = NodeId> {
        let (a, b, c) = match self.kind {
            LacKind::Constant(_) => (None, None, None),
            LacKind::Wire { sn, .. } => (Some(sn), None, None),
            LacKind::Binary { sns, .. } => (Some(sns[0]), Some(sns[1]), None),
            LacKind::Ternary { sns, .. } => (Some(sns[0]), Some(sns[1]), Some(sns[2])),
        };
        a.into_iter().chain(b).chain(c)
    }

    /// The number of AIG nodes the substituted function costs (0 for
    /// constants and wires, up to 3 for binary and roughly `3m - 1` for
    /// ternary resubstitutions with `m` minterms in the sparser phase).
    pub fn new_node_cost(&self) -> usize {
        match self.kind {
            LacKind::Constant(_) | LacKind::Wire { .. } => 0,
            LacKind::Binary { tt, .. } => match tt.count_ones() {
                0 | 4 => 0, // constant
                1 | 3 => 1, // single (possibly inverted) minterm
                _ => match tt {
                    0b1010 | 0b0101 | 0b1100 | 0b0011 => 0, // wire
                    0b0110 | 0b1001 => 3,                   // xor / xnor
                    _ => 1,                                 // and/or family
                },
            },
            LacKind::Ternary { tt, .. } => {
                // Sum-of-minterms in the sparser output phase: each
                // 3-literal minterm costs 2 ANDs, the OR join m - 1.
                let m = (tt.count_ones() as usize).min(8 - tt.count_ones() as usize);
                if m == 0 {
                    0
                } else {
                    3 * m - 1
                }
            }
        }
    }

    /// Computes the signature (bit-parallel values) the substituted
    /// function takes under the base simulation, writing into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != sim.stride()`.
    pub fn signature_into(&self, sim: &Sim, out: &mut [u64]) {
        assert_eq!(out.len(), sim.stride());
        match self.kind {
            LacKind::Constant(v) => {
                let fill = if v { u64::MAX } else { 0 };
                out.fill(fill);
            }
            LacKind::Wire { sn, neg } => {
                let sig = sim.sig(sn);
                if neg {
                    for (o, s) in out.iter_mut().zip(sig) {
                        *o = !s;
                    }
                } else {
                    out.copy_from_slice(sig);
                }
            }
            LacKind::Binary { sns, tt } => {
                let sa = sim.sig(sns[0]);
                let sb = sim.sig(sns[1]);
                for (w, o) in out.iter_mut().enumerate() {
                    let (a, b) = (sa[w], sb[w]);
                    let mut v = 0u64;
                    if tt & 1 != 0 {
                        v |= !a & !b;
                    }
                    if tt & 2 != 0 {
                        v |= a & !b;
                    }
                    if tt & 4 != 0 {
                        v |= !a & b;
                    }
                    if tt & 8 != 0 {
                        v |= a & b;
                    }
                    *o = v;
                }
            }
            LacKind::Ternary { sns, tt } => {
                let sa = sim.sig(sns[0]);
                let sb = sim.sig(sns[1]);
                let sc = sim.sig(sns[2]);
                for (w, o) in out.iter_mut().enumerate() {
                    let (a, b, c) = (sa[w], sb[w], sc[w]);
                    let mut v = 0u64;
                    for m in 0..8u8 {
                        if tt >> m & 1 != 0 {
                            let ta = if m & 1 != 0 { a } else { !a };
                            let tb = if m & 2 != 0 { b } else { !b };
                            let tc = if m & 4 != 0 { c } else { !c };
                            v |= ta & tb & tc;
                        }
                    }
                    *o = v;
                }
            }
        }
    }

    /// Computes the substituted function's signature as an owned vector.
    pub fn signature(&self, sim: &Sim) -> Vec<u64> {
        let mut out = vec![0u64; sim.stride()];
        self.signature_into(sim, &mut out);
        out
    }
}

impl fmt::Display for Lac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LacKind::Constant(v) => write!(f, "L({{}}, {}) := {}", self.tn, v as u8),
            LacKind::Wire { sn, neg } => {
                write!(
                    f,
                    "L({{{sn}}}, {}) := {}{sn}",
                    self.tn,
                    if neg { "!" } else { "" }
                )
            }
            LacKind::Binary { sns, tt } => write!(
                f,
                "L({{{}, {}}}, {}) := tt {:04b}",
                sns[0], sns[1], self.tn, tt
            ),
            LacKind::Ternary { sns, tt } => write!(
                f,
                "L({{{}, {}, {}}}, {}) := tt {:08b}",
                sns[0], sns[1], sns[2], self.tn, tt
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Aig;
    use bitsim::{simulate, Patterns};

    #[test]
    fn sns_iteration() {
        let n = NodeId::new(5);
        assert_eq!(Lac::new(n, LacKind::Constant(true)).sns().count(), 0);
        assert_eq!(
            Lac::new(
                n,
                LacKind::Wire {
                    sn: NodeId::new(2),
                    neg: false
                }
            )
            .sns()
            .collect::<Vec<_>>(),
            vec![NodeId::new(2)]
        );
        assert_eq!(
            Lac::new(
                n,
                LacKind::Binary {
                    sns: [NodeId::new(1), NodeId::new(3)],
                    tt: 8
                }
            )
            .sns()
            .count(),
            2
        );
    }

    #[test]
    fn signatures_match_function() {
        let mut g = Aig::new("t", 2);
        let y = g.and(g.pi(0), g.pi(1));
        g.add_output(y, "y");
        let pats = Patterns::exhaustive(2);
        let sim = simulate(&g, &pats);
        let (pa, pb) = (g.pi(0).node(), g.pi(1).node());

        let or_lac = Lac::new(
            y.node(),
            LacKind::Binary {
                sns: [pa, pb],
                tt: 0b1110,
            },
        );
        assert_eq!(or_lac.signature(&sim)[0] & 0b1111, 0b1110);

        let wire = Lac::new(y.node(), LacKind::Wire { sn: pa, neg: true });
        assert_eq!(wire.signature(&sim)[0] & 0b1111, 0b0101);

        let one = Lac::new(y.node(), LacKind::Constant(true));
        assert_eq!(one.signature(&sim)[0] & 0b1111, 0b1111);
    }

    #[test]
    fn new_node_costs() {
        let n = NodeId::new(9);
        let s = [NodeId::new(1), NodeId::new(2)];
        assert_eq!(Lac::new(n, LacKind::Constant(false)).new_node_cost(), 0);
        assert_eq!(
            Lac::new(n, LacKind::Binary { sns: s, tt: 0b1000 }).new_node_cost(),
            1
        );
        assert_eq!(
            Lac::new(n, LacKind::Binary { sns: s, tt: 0b0110 }).new_node_cost(),
            3
        );
        assert_eq!(
            Lac::new(n, LacKind::Binary { sns: s, tt: 0b1010 }).new_node_cost(),
            0
        );
    }

    #[test]
    fn display_is_informative() {
        let l = Lac::new(
            NodeId::new(4),
            LacKind::Wire {
                sn: NodeId::new(2),
                neg: true,
            },
        );
        assert_eq!(l.to_string(), "L({n2}, n4) := !n2");
    }
}
