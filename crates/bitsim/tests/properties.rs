//! Property test: bit-parallel simulation agrees with the reference
//! single-pattern evaluator on random circuits and random pattern sets.

use aig::{Aig, Lit};
use bitsim::{simulate, ConeSimulator, Patterns};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Recipe {
    n_pis: usize,
    steps: Vec<(usize, bool, usize, bool)>,
    outputs: Vec<(usize, bool)>,
}

fn build(recipe: &Recipe) -> Aig {
    let mut g = Aig::new("random", recipe.n_pis);
    let mut lits: Vec<Lit> = (0..recipe.n_pis).map(|i| g.pi(i)).collect();
    lits.push(Lit::TRUE);
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
    (2usize..7, 1usize..50, 1usize..6).prop_flat_map(|(n_pis, n_steps, n_outs)| {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulation_matches_eval(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let pats = Patterns::exhaustive(recipe.n_pis);
        let sim = simulate(&g, &pats);
        for p in 0..pats.n_patterns() {
            let ins: Vec<bool> = (0..recipe.n_pis).map(|i| pats.bit(i, p)).collect();
            let want = g.eval(&ins);
            for (o, &bit) in want.iter().enumerate() {
                let sig = sim.output_sig(&g, o);
                prop_assert_eq!(sig[p / 64] >> (p % 64) & 1 == 1, bit);
            }
        }
    }

    #[test]
    fn cone_resim_is_exact(recipe in recipe_strategy(), flip_seed in any::<u64>()) {
        let g = build(&recipe);
        if g.n_ands() == 0 {
            return Ok(());
        }
        let pats = Patterns::exhaustive(recipe.n_pis);
        let sim = simulate(&g, &pats);
        let mut cs = ConeSimulator::new(&g);
        // Deterministically pick an AND node and a deviation mask.
        let ands: Vec<_> = g.and_ids().collect();
        let n = ands[(flip_seed as usize) % ands.len()];
        let dev: Vec<u64> = (0..pats.stride() as u64)
            .map(|w| flip_seed.rotate_left((w % 63) as u32))
            .collect();
        let forced: Vec<u64> = sim.sig(n).iter().zip(&dev).map(|(s, d)| s ^ d).collect();
        let flips = cs.output_flips(&g, &sim, n, &forced);
        // Reference: evaluate pattern by pattern with the node overridden.
        for p in 0..pats.n_patterns() {
            let ins: Vec<bool> = (0..recipe.n_pis).map(|i| pats.bit(i, p)).collect();
            let forced_bit = forced[p / 64] >> (p % 64) & 1 == 1;
            let want = eval_with_override(&g, &ins, n.index(), forced_bit);
            for o in 0..g.n_pos() {
                let base = sim.output_sig(&g, o)[p / 64] >> (p % 64) & 1 == 1;
                let flipped = flips[o][p / 64] >> (p % 64) & 1 == 1;
                prop_assert_eq!(base ^ flipped, want[o], "output {} pattern {}", o, p);
            }
        }
    }
}

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
