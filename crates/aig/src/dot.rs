use crate::graph::Aig;
use crate::node::Node;
use std::fmt::Write;

impl Aig {
    /// Renders the graph in Graphviz DOT format.
    ///
    /// Dashed edges are complemented. Useful for debugging small circuits:
    /// pipe the result through `dot -Tpng`.
    pub fn to_dot(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "digraph \"{}\" {{", self.name());
        let _ = writeln!(s, "  rankdir=BT;");
        let live = self.live_mask();
        for id in self.node_ids() {
            if !live[id.index()] {
                continue;
            }
            match *self.node(id) {
                Node::Const0 => {
                    let _ = writeln!(s, "  n0 [label=\"0\", shape=box];");
                }
                Node::Input(i) => {
                    let _ = writeln!(
                        s,
                        "  n{} [label=\"{}\", shape=triangle];",
                        id.index(),
                        self.pi_name(i as usize)
                    );
                }
                Node::And(a, b) => {
                    let _ = writeln!(s, "  n{} [label=\"&\", shape=circle];", id.index());
                    for f in [a, b] {
                        let style = if f.is_neg() { " [style=dashed]" } else { "" };
                        let _ = writeln!(s, "  n{} -> n{}{};", f.node().index(), id.index(), style);
                    }
                }
            }
        }
        for (i, o) in self.outputs().iter().enumerate() {
            let _ = writeln!(s, "  o{i} [label=\"{}\", shape=invtriangle];", o.name);
            let style = if o.lit.is_neg() {
                " [style=dashed]"
            } else {
                ""
            };
            let _ = writeln!(s, "  n{} -> o{i}{};", o.lit.node().index(), style);
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_mentions_all_live_parts() {
        let mut g = Aig::new("t", 2);
        let y = g.and(g.pi(0), !g.pi(1));
        g.add_output(y, "out");
        let dot = g.to_dot();
        assert!(dot.contains("digraph"));
        assert!(dot.contains("out"));
        assert!(dot.contains("style=dashed"));
    }
}
