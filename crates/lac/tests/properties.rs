//! Property tests for LAC generation and application on random circuits.

use aig::{Aig, Lit};
use bitsim::{simulate, Patterns};
use lac::{apply, generate_candidates, CandidateConfig, Lac, LacKind};
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
    (3usize..7, 5usize..60, 1usize..5).prop_flat_map(|(n_pis, n_steps, n_outs)| {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_generated_candidate_applies_and_stays_acyclic(recipe in recipe_strategy()) {
        let g = build(&recipe);
        if g.n_ands() == 0 {
            return Ok(());
        }
        let pats = Patterns::exhaustive(recipe.n_pis);
        let sim = simulate(&g, &pats);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        for lac in &cands {
            let mut copy = g.clone();
            apply(&mut copy, lac).unwrap_or_else(|e| panic!("{lac}: {e}"));
            prop_assert!(copy.topo_order().is_ok(), "{} created a cycle", lac);
            // Interface preserved.
            prop_assert_eq!(copy.n_pis(), g.n_pis());
            prop_assert_eq!(copy.n_pos(), g.n_pos());
        }
    }

    #[test]
    fn candidate_signature_predicts_applied_behavior(recipe in recipe_strategy()) {
        // Applying a LAC must make the target's fanouts behave as if the
        // node had the candidate's signature: verified through outputs
        // by comparing against an eval with the node value overridden.
        let g = build(&recipe);
        if g.n_ands() == 0 {
            return Ok(());
        }
        let pats = Patterns::exhaustive(recipe.n_pis);
        let sim = simulate(&g, &pats);
        let cands = generate_candidates(&g, &sim, &CandidateConfig {
            max_wire_probes: 8,
            k_wire: 2,
            k_binary: 1,
            ..CandidateConfig::default()
        });
        for lac in cands.iter().take(12) {
            let mut approx = g.clone();
            apply(&mut approx, lac).unwrap();
            let cand_sig = lac.signature(&sim);
            for p in 0..pats.n_patterns() {
                let ins: Vec<bool> = (0..recipe.n_pis).map(|i| pats.bit(i, p)).collect();
                let forced = cand_sig[p / 64] >> (p % 64) & 1 == 1;
                let want = eval_with_override(&g, &ins, lac.tn.index(), forced);
                prop_assert_eq!(approx.eval(&ins), want, "{} pattern {}", lac, p);
            }
        }
    }

    #[test]
    fn zero_deviation_wire_candidates_preserve_function(recipe in recipe_strategy()) {
        let g = build(&recipe);
        if g.n_ands() == 0 {
            return Ok(());
        }
        let pats = Patterns::exhaustive(recipe.n_pis);
        let sim = simulate(&g, &pats);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        for lac in &cands {
            if let LacKind::Wire { .. } = lac.kind {
                let sig = lac.signature(&sim);
                let node_sig = sim.sig(lac.tn);
                let identical = sig
                    .iter()
                    .zip(node_sig)
                    .all(|(a, b)| a == b);
                if identical {
                    let mut approx = g.clone();
                    apply(&mut approx, lac).unwrap();
                    for p in 0..pats.n_patterns() {
                        let ins: Vec<bool> =
                            (0..recipe.n_pis).map(|i| pats.bit(i, p)).collect();
                        prop_assert_eq!(approx.eval(&ins), g.eval(&ins));
                    }
                }
            }
        }
    }

    #[test]
    fn constants_lacs_pin_the_node(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let Some(target) = g.and_ids().last() else { return Ok(()); };
        for value in [false, true] {
            let mut approx = g.clone();
            apply(&mut approx, &Lac::new(target, LacKind::Constant(value))).unwrap();
            for p in 0..1usize << recipe.n_pis {
                let ins: Vec<bool> = (0..recipe.n_pis).map(|i| p >> i & 1 == 1).collect();
                let want = eval_with_override(&g, &ins, target.index(), value);
                prop_assert_eq!(approx.eval(&ins), want);
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
