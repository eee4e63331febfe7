//! Property tests: technology mapping must preserve the function of
//! arbitrary random circuits in both libraries and both modes, and the
//! reported area must equal the sum of instantiated cell areas.

use aig::{Aig, Lit};
use proptest::prelude::*;
use techmap::{map, Library, MapMode};

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
        lits.push(g.and(a, b));
    }
    for &(oi, on) in &recipe.outputs {
        let l = lits[oi % lits.len()].xor_neg(on);
        g.add_output(l, format!("y{}", g.n_pos()));
    }
    g
}

fn recipe_strategy() -> impl Strategy<Value = Recipe> {
    (2usize..7, 1usize..60, 1usize..5).prop_flat_map(|(n_pis, n_steps, n_outs)| {
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
    fn mapping_preserves_function(recipe in recipe_strategy()) {
        let g = build(&recipe);
        for lib in [Library::mcnc_mini(), Library::nangate45_mini()] {
            for mode in [MapMode::Area, MapMode::Delay] {
                let m = map(&g, &lib, mode);
                for p in 0..1usize << recipe.n_pis {
                    let ins: Vec<bool> = (0..recipe.n_pis).map(|i| p >> i & 1 == 1).collect();
                    prop_assert_eq!(
                        m.simulate(&ins),
                        g.eval(&ins),
                        "lib {} mode {:?} pattern {}",
                        lib.name(), mode, p
                    );
                }
            }
        }
    }

    #[test]
    fn area_is_sum_of_instances_and_delay_nonnegative(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let lib = Library::mcnc_mini();
        let m = map(&g, &lib, MapMode::Area);
        let sum: f64 = m.gates().iter().map(|gate| m.cell_of(gate).area).sum();
        prop_assert!((sum - m.area).abs() < 1e-9);
        prop_assert!(m.delay >= 0.0);
        // Delay mode never ends up slower than area mode.
        let d = map(&g, &lib, MapMode::Delay);
        prop_assert!(d.delay <= m.delay + 1e-9);
    }

    #[test]
    fn gates_are_topologically_ordered(recipe in recipe_strategy()) {
        let g = build(&recipe);
        let m = map(&g, &Library::mcnc_mini(), MapMode::Area);
        let mut defined = vec![false; m.n_inputs() + m.gates().len() + 8];
        defined[..m.n_inputs()].fill(true);
        for gate in m.gates() {
            for &input in &gate.inputs {
                prop_assert!(
                    defined.get(input).copied().unwrap_or(false),
                    "gate reads undriven net {}",
                    input
                );
            }
            if gate.output >= defined.len() {
                defined.resize(gate.output + 1, false);
            }
            defined[gate.output] = true;
        }
        for &o in m.outputs() {
            prop_assert!(defined.get(o).copied().unwrap_or(false));
        }
    }
}
