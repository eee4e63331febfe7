//! Property-based tests for the AIG substrate: random circuits must keep
//! their semantics through compaction and rewriting, and structural
//! invariants must hold for every construction sequence.

use aig::{Aig, Lit};
use proptest::prelude::*;

/// A recipe for building a random AIG: each step picks two earlier
/// literals (by index, with polarity) and ANDs them.
#[derive(Debug, Clone)]
struct Recipe {
    n_pis: usize,
    steps: Vec<(usize, bool, usize, bool)>,
    outputs: Vec<(usize, bool)>,
}

fn build(recipe: &Recipe) -> Aig {
    let mut g = Aig::new("random", recipe.n_pis);
    let mut lits: Vec<Lit> = (0..recipe.n_pis).map(|i| g.pi(i)).collect();
    lits.push(Lit::FALSE);
    for &(ai, an, bi, bn) in &recipe.steps {
        let a = lits[ai % lits.len()].xor_neg(an);
        let b = lits[bi % lits.len()].xor_neg(bn);
        let l = g.and(a, b);
        lits.push(l);
    }
    for &(oi, on) in &recipe.outputs {
        let l = lits[oi % lits.len()].xor_neg(on);
        g.add_output(l, format!("y{}", g.n_pos()));
    }
    g
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..6, 1usize..40, 1usize..5).prop_flat_map(|(n_pis, n_steps, n_outs)| {
        (
            proptest::collection::vec(
                (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>()),
                n_steps,
            ),
            proptest::collection::vec((any::<usize>(), any::<bool>()), n_outs),
        )
            .prop_map(move |(steps, outputs)| Recipe {
                n_pis,
                steps,
                outputs,
            })
    })
}

fn all_patterns(n: usize) -> impl Iterator<Item = Vec<bool>> {
    (0..1usize << n).map(move |p| (0..n).map(|i| p >> i & 1 == 1).collect())
}

proptest! {
    #[test]
    fn compact_preserves_semantics(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let (h, _) = g.compact().unwrap();
        prop_assert!(h.n_ands() <= g.n_ands());
        for ins in all_patterns(recipe.n_pis) {
            prop_assert_eq!(g.eval(&ins), h.eval(&ins));
        }
    }

    #[test]
    fn rewrite_preserves_semantics_and_never_grows(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let (live, _) = g.compact().unwrap();
        let (h, _) = g.rewrite_local().unwrap();
        prop_assert!(h.n_ands() <= live.n_ands());
        for ins in all_patterns(recipe.n_pis) {
            prop_assert_eq!(g.eval(&ins), h.eval(&ins));
        }
    }

    #[test]
    fn topo_order_always_valid(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let order = g.topo_order().unwrap();
        prop_assert_eq!(order.len(), g.n_nodes());
        let mut pos = vec![usize::MAX; g.n_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i;
        }
        for id in g.and_ids() {
            let (a, b) = g.fanins(id).unwrap();
            prop_assert!(pos[a.node().index()] < pos[id.index()]);
            prop_assert!(pos[b.node().index()] < pos[id.index()]);
        }
    }

    #[test]
    fn strash_never_duplicates(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let mut seen = std::collections::HashSet::new();
        for id in g.and_ids() {
            let (a, b) = g.fanins(id).unwrap();
            prop_assert!(seen.insert((a, b)), "duplicate gate ({a}, {b})");
        }
    }

    #[test]
    fn replace_with_constant_matches_forced_eval(recipe in recipe_strategy()) {
        let g = build(&recipe);
        // Pick the last AND node, force it to constant true on a copy, and
        // check against an eval that overrides the node value.
        let Some(target) = g.and_ids().last() else { return Ok(()); };
        let mut forced = g.clone();
        forced.replace(target, Lit::TRUE).unwrap();
        for ins in all_patterns(recipe.n_pis) {
            let got = forced.eval(&ins);
            let want = eval_with_override(&g, &ins, target.index(), true);
            prop_assert_eq!(got, want);
        }
    }
}

/// Evaluates `g` while pinning the value of node `pin` to `value`.
fn eval_with_override(g: &Aig, inputs: &[bool], pin: usize, value: bool) -> Vec<bool> {
    let order = g.topo_order().unwrap();
    let mut values = vec![false; g.n_nodes()];
    for id in order {
        let i = id.index();
        values[i] = match *g.node(id) {
            aig::Node::Const0 => false,
            aig::Node::Input(k) => inputs[k as usize],
            aig::Node::And(a, b) => {
                (values[a.node().index()] ^ a.is_neg()) && (values[b.node().index()] ^ b.is_neg())
            }
        };
        if i == pin {
            values[i] = value;
        }
    }
    g.outputs()
        .iter()
        .map(|o| values[o.lit.node().index()] ^ o.lit.is_neg())
        .collect()
}
