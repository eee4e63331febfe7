//! Property tests for the MIS solvers: solutions are always independent
//! and maximal, the exact solver matches brute force on small random
//! graphs, and heuristics never beat the exact optimum.

use misolver::{exact, greedy_min_degree, local_search, solve, Graph, MisStrategy};
use proptest::prelude::*;

fn random_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(any::<(usize, usize)>(), 0..n * 2).prop_map(move |edges| {
            Graph::from_edges(n, edges.into_iter().map(|(u, v)| (u % n, v % n)))
        })
    })
}

fn brute_force(graph: &Graph) -> usize {
    let n = graph.n_vertices();
    let mut best = 0;
    'subsets: for mask in 0u32..1 << n {
        let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if graph.has_edge(u, v) {
                    continue 'subsets;
                }
            }
        }
        best = best.max(set.len());
    }
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn exact_matches_brute_force(g in random_graph(12)) {
        let set = exact(&g);
        prop_assert!(g.is_independent(&set));
        prop_assert_eq!(set.len(), brute_force(&g));
    }

    #[test]
    fn heuristics_are_valid_and_bounded_by_exact(g in random_graph(14)) {
        let opt = exact(&g).len();
        let greedy = greedy_min_degree(&g);
        prop_assert!(g.is_independent(&greedy));
        prop_assert!(g.is_maximal(&greedy));
        prop_assert!(greedy.len() <= opt);

        let ls = local_search(&g, greedy.clone(), 30, 5);
        prop_assert!(g.is_independent(&ls));
        prop_assert!(g.is_maximal(&ls));
        prop_assert!(ls.len() >= greedy.len());
        prop_assert!(ls.len() <= opt);
    }

    #[test]
    fn auto_strategy_is_optimal_for_small_graphs(g in random_graph(12)) {
        let set = solve(&g, MisStrategy::Auto);
        prop_assert_eq!(set.len(), brute_force(&g));
        // Result is sorted.
        prop_assert!(set.windows(2).all(|w| w[0] < w[1]));
    }
}

proptest! {
    // The wide soak: 1000 seeded cases on graphs up to 18 vertices.
    // Brute force is too slow here, so `exact` (verified against brute
    // force above on <=12 vertices) serves as the optimum reference.
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn heuristics_are_valid_on_wider_graphs(g in random_graph(18)) {
        let opt = exact(&g);
        prop_assert!(g.is_independent(&opt));
        prop_assert!(g.is_maximal(&opt));

        let greedy = greedy_min_degree(&g);
        prop_assert!(g.is_independent(&greedy));
        prop_assert!(g.is_maximal(&greedy));
        prop_assert!(greedy.len() <= opt.len());

        let ls = local_search(&g, greedy.clone(), 30, 7);
        prop_assert!(g.is_independent(&ls));
        prop_assert!(g.is_maximal(&ls));
        prop_assert!(ls.len() >= greedy.len());
        prop_assert!(ls.len() <= opt.len());
    }
}
