//! Property tests for the AccALS selection components on randomly
//! generated LAC sets and circuits.

use accals::conflict::{conflict_graph, find_solve_conflicts};
use accals::indep::{build_influence_graph, select_indep_lacs};
use accals::topset::{obtain_top_set, r_top};
use aig::{Aig, Lit, NodeId};
use lac::{Lac, LacKind, ScoredLac};
use misolver::MisStrategy;
use proptest::prelude::*;

fn scored_strategy(max_node: usize) -> impl Strategy<Value = ScoredLac> {
    (
        1..max_node,
        proptest::option::of((1..max_node, any::<bool>())),
        0.0f64..0.1,
        1i64..10,
    )
        .prop_map(|(tn, wire, delta_e, gain)| {
            let kind = match wire {
                Some((sn, neg)) => LacKind::Wire {
                    sn: NodeId::new(sn),
                    neg,
                },
                None => LacKind::Constant(false),
            };
            ScoredLac {
                lac: Lac::new(NodeId::new(tn), kind),
                delta_e,
                gain,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn conflict_solution_is_conflict_free_and_sorted(
        mut lacs in proptest::collection::vec(scored_strategy(30), 1..60)
    ) {
        lacs.sort_by(|a, b| a.delta_e.partial_cmp(&b.delta_e).unwrap());
        let sol = find_solve_conflicts(&lacs);
        // Exactly the paper's greedy over the explicit conflict graph.
        let graph = conflict_graph(&lacs);
        let mut greedy: Vec<usize> = Vec::new();
        for i in 0..lacs.len() {
            if greedy.iter().all(|&j| !graph.has_edge(i, j)) {
                greedy.push(i);
            }
        }
        prop_assert_eq!(sol.len(), greedy.len());
        for (s, &i) in sol.iter().zip(&greedy) {
            prop_assert!(s.lac == lacs[i].lac && s.delta_e == lacs[i].delta_e);
        }
        // No residual conflicts.
        let g = conflict_graph(&sol);
        prop_assert_eq!(g.n_edges(), 0);
        // Unique targets.
        let mut tns: Vec<NodeId> = sol.iter().map(|s| s.lac.tn).collect();
        tns.sort();
        let before = tns.len();
        tns.dedup();
        prop_assert_eq!(tns.len(), before);
        // No substitute equals another member's target.
        for a in &sol {
            for b in &sol {
                prop_assert!(a.lac.sns().all(|sn| sn != b.lac.tn || a.lac.tn == b.lac.tn));
            }
        }
        // Ascending weights preserved.
        prop_assert!(sol.windows(2).all(|w| w[0].delta_e <= w[1].delta_e));
        // Maximality: every rejected LAC conflicts with a kept one.
        let full = conflict_graph(&lacs);
        let kept: Vec<usize> = lacs
            .iter()
            .enumerate()
            .filter(|(_, l)| {
                sol.iter().any(|s| s.lac == l.lac && s.delta_e == l.delta_e)
            })
            .map(|(i, _)| i)
            .collect();
        for i in 0..lacs.len() {
            if !kept.contains(&i) {
                prop_assert!(
                    kept.iter().any(|&j| full.has_edge(i, j)),
                    "LAC {} rejected without a conflict",
                    i
                );
            }
        }
    }

    #[test]
    fn r_top_is_clamped_and_monotone(
        e_frac in 0.0f64..1.0,
        r_ref in 1usize..500,
        r_min in 1usize..500,
        n in 1usize..2000,
    ) {
        let e_b = 0.05;
        let e = e_frac * e_b;
        let k = r_top(e, e_b, r_ref, r_min, n);
        prop_assert!(k >= 1 && k <= n);
        // Monotone: smaller error never gives a smaller top set.
        let k0 = r_top(0.0, e_b, r_ref, r_min, n);
        prop_assert!(k0 >= k);
    }

    #[test]
    fn top_set_is_the_k_smallest(
        mut lacs in proptest::collection::vec(scored_strategy(50), 1..80)
    ) {
        // Give every LAC a distinct target so sizes are easy to reason
        // about.
        for (i, l) in lacs.iter_mut().enumerate() {
            l.lac.tn = NodeId::new(i + 1);
        }
        let top = obtain_top_set(lacs.clone(), 0.0, 0.05, 40);
        let mut sorted: Vec<f64> = lacs.iter().map(|l| l.delta_e).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let max_kept = top.iter().map(|l| l.delta_e).fold(0.0f64, f64::max);
        // Everything kept is within the k smallest deltas.
        prop_assert!(max_kept <= sorted[top.len() - 1] + 1e-15);
        prop_assert!(top.windows(2).all(|w| w[0].delta_e <= w[1].delta_e));
    }
}

/// Random multi-output circuits for influence-graph properties.
fn random_circuit(n_pis: usize, steps: &[(usize, bool, usize, bool)]) -> Aig {
    let mut g = Aig::new("rand", n_pis);
    let mut lits: Vec<Lit> = (0..n_pis).map(|i| g.pi(i)).collect();
    for &(ai, an, bi, bn) in steps {
        let a = lits[ai % lits.len()].xor_neg(an);
        let b = lits[bi % lits.len()].xor_neg(bn);
        lits.push(g.and(a, b));
    }
    let y = *lits.last().expect("nonempty");
    g.add_output(y, "y");
    if lits.len() > n_pis + 2 {
        g.add_output(lits[n_pis + 1], "z");
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn independence_selection_returns_valid_subset(
        steps in proptest::collection::vec(
            (any::<usize>(), any::<bool>(), any::<usize>(), any::<bool>()), 6..40),
    ) {
        let g = random_circuit(4, &steps);
        let live = g.live_mask();
        let ands: Vec<NodeId> = g.and_ids().filter(|n| live[n.index()]).collect();
        if ands.len() < 2 {
            return Ok(());
        }
        let l_sol: Vec<ScoredLac> = ands
            .iter()
            .enumerate()
            .map(|(i, &tn)| ScoredLac {
                lac: Lac::new(tn, LacKind::Constant(false)),
                delta_e: i as f64 * 1e-3,
                gain: 1,
            })
            .collect();
        let sel = select_indep_lacs(&g, &l_sol, 0.0, 1.0, 8, 0.5, 0.9, MisStrategy::Auto);
        prop_assert!(!sel.is_empty());
        prop_assert!(sel.len() <= l_sol.len());
        // Selected TNs form an independent set in the influence graph.
        let tns: Vec<NodeId> = l_sol.iter().map(|s| s.lac.tn).collect();
        let influence = build_influence_graph(&g, &tns, 0.5);
        let idx_of = |tn: NodeId| tns.iter().position(|&t| t == tn).unwrap();
        for a in &sel {
            for b in &sel {
                if a.lac.tn != b.lac.tn {
                    prop_assert!(
                        !influence.has_edge(idx_of(a.lac.tn), idx_of(b.lac.tn)),
                        "selected dependent pair {} {}", a.lac.tn, b.lac.tn
                    );
                }
            }
        }
        // Budget respected (all deltas positive here, r_neg = 0 path).
        let est: f64 = sel.iter().map(|s| s.delta_e).sum();
        prop_assert!(est <= 0.9 + 1e-9 || sel.len() == 1);
    }
}
