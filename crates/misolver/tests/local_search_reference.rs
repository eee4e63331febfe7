//! Differential test of the bitset `local_search` against the original
//! adjacency-list implementation, kept here as the reference: on random
//! graphs whose edges are inserted in lexicographic order (so the
//! reference's neighbor lists ascend, as AccALS's graph builders produce
//! them) both must return the same independent set for the same seed.

use misolver::{greedy_min_degree, local_search, Graph};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};

/// The original adjacency-list graph: neighbors in insertion order.
struct RefGraph {
    adj: Vec<Vec<u32>>,
}

impl RefGraph {
    fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[v].iter().map(|&u| u as usize)
    }

    fn has_edge(&self, u: usize, v: usize) -> bool {
        self.adj[u].contains(&(v as u32))
    }
}

/// The original `local_search`, verbatim apart from the graph type.
fn reference_local_search(
    graph: &RefGraph,
    init: Vec<usize>,
    iterations: usize,
    seed: u64,
) -> Vec<usize> {
    let n = graph.adj.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = RefState::new(graph, &init);
    state.make_maximal(graph);
    state.improve(graph);
    let mut best = state.solution();
    for _ in 0..iterations {
        if n == 0 {
            break;
        }
        let v = rng.gen_range(0..n);
        state.force_insert(graph, v);
        state.make_maximal(graph);
        state.improve(graph);
        if state.size > best.len() {
            best = state.solution();
        } else {
            state = RefState::new(graph, &best);
        }
    }
    best
}

struct RefState {
    in_set: Vec<bool>,
    conflicts: Vec<u32>,
    size: usize,
}

impl RefState {
    fn new(graph: &RefGraph, set: &[usize]) -> Self {
        let n = graph.adj.len();
        let mut s = RefState {
            in_set: vec![false; n],
            conflicts: vec![0; n],
            size: 0,
        };
        for &v in set {
            if !s.in_set[v] && s.conflicts[v] == 0 {
                s.insert(graph, v);
            }
        }
        s
    }

    fn insert(&mut self, graph: &RefGraph, v: usize) {
        self.in_set[v] = true;
        self.size += 1;
        for u in graph.neighbors(v) {
            self.conflicts[u] += 1;
        }
    }

    fn remove(&mut self, graph: &RefGraph, v: usize) {
        self.in_set[v] = false;
        self.size -= 1;
        for u in graph.neighbors(v) {
            self.conflicts[u] -= 1;
        }
    }

    fn force_insert(&mut self, graph: &RefGraph, v: usize) {
        if self.in_set[v] {
            return;
        }
        let evict: Vec<usize> = graph.neighbors(v).filter(|&u| self.in_set[u]).collect();
        for u in evict {
            self.remove(graph, u);
        }
        self.insert(graph, v);
    }

    fn make_maximal(&mut self, graph: &RefGraph) {
        for v in 0..graph.adj.len() {
            if !self.in_set[v] && self.conflicts[v] == 0 {
                self.insert(graph, v);
            }
        }
    }

    fn improve(&mut self, graph: &RefGraph) {
        let mut changed = true;
        while changed {
            changed = false;
            for x in 0..graph.adj.len() {
                if !self.in_set[x] {
                    continue;
                }
                let tight: Vec<usize> = graph
                    .neighbors(x)
                    .filter(|&u| !self.in_set[u] && self.conflicts[u] == 1)
                    .collect();
                if tight.len() < 2 {
                    continue;
                }
                'pairs: for (i, &a) in tight.iter().enumerate() {
                    for &b in &tight[i + 1..] {
                        if !graph.has_edge(a, b) {
                            self.remove(graph, x);
                            self.insert(graph, a);
                            self.insert(graph, b);
                            self.make_maximal(graph);
                            changed = true;
                            break 'pairs;
                        }
                    }
                }
            }
        }
    }

    fn solution(&self) -> Vec<usize> {
        (0..self.in_set.len()).filter(|&v| self.in_set[v]).collect()
    }
}

/// A G(n, p) graph with edges inserted in lexicographic order into both
/// representations.
fn random_pair(n: usize, density: f64, seed: u64) -> (Graph, RefGraph) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Graph::new(n);
    let mut r = RefGraph {
        adj: vec![Vec::new(); n],
    };
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_range(0.0..1.0) < density {
                g.add_edge(u, v);
                r.adj[u].push(v as u32);
                r.adj[v].push(u as u32);
            }
        }
    }
    (g, r)
}

#[test]
fn bitset_local_search_matches_adjacency_list_reference() {
    for n in [1, 41, 64, 65, 200, 600] {
        for density in [0.05, 0.2, 0.5, 0.9] {
            for seed in [1u64, 2, 3] {
                let (g, r) = random_pair(n, density, seed ^ (n as u64) << 8);
                for (i, v) in r.adj.iter().enumerate() {
                    assert!(g.neighbors(i).eq(v.iter().map(|&u| u as usize)));
                }
                let init = greedy_min_degree(&g);
                // The iteration count the flow's `Auto` strategy uses.
                let iters = 20 * n;
                let got = local_search(&g, init.clone(), iters, 0xACCA15 ^ seed);
                let want = reference_local_search(&r, init, iters, 0xACCA15 ^ seed);
                assert_eq!(got, want, "n {n} density {density} seed {seed}");
                assert!(g.is_independent(&got) && g.is_maximal(&got));
            }
        }
    }
}

#[test]
fn bitset_local_search_matches_reference_from_poor_starts() {
    // Unsorted, partly conflicting starts exercise `State::new`'s
    // skip-on-conflict path and early 2-improvements.
    for (n, density) in [(90, 0.1), (300, 0.03)] {
        let (g, r) = random_pair(n, density, 77);
        let init: Vec<usize> = (0..n).rev().step_by(3).collect();
        let got = local_search(&g, init.clone(), 500, 9);
        let want = reference_local_search(&r, init, 500, 9);
        assert_eq!(got, want, "n {n}");
    }
}
