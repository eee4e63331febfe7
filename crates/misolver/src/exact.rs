use crate::graph::Graph;

/// Exact maximum independent set via branch and bound.
///
/// Branches on a maximum-residual-degree vertex (include it / exclude it)
/// and prunes with the trivial `|current| + |alive|` bound. Exponential
/// in the worst case; intended for graphs up to roughly 60 vertices, as
/// produced by the AccALS independence-selection step on small circuits.
pub fn exact(graph: &Graph) -> Vec<usize> {
    let n = graph.n_vertices();
    let mut ctx = Ctx {
        graph,
        best: Vec::new(),
        current: Vec::new(),
    };
    let alive = vec![true; n];
    ctx.branch(alive, n);
    ctx.best
}

struct Ctx<'a> {
    graph: &'a Graph,
    best: Vec<usize>,
    current: Vec<usize>,
}

impl Ctx<'_> {
    fn branch(&mut self, mut alive: Vec<bool>, mut n_alive: usize) {
        // Everything this frame pushes onto `current` (simplification
        // takes and the include-branch vertex) is unwound before return.
        let base = self.current.len();

        // Simplification: repeatedly take vertices of residual degree 0
        // or 1 (always safe for MIS).
        loop {
            if self.current.len() + n_alive <= self.best.len() {
                self.current.truncate(base);
                return; // bound
            }
            let mut simplified = false;
            for v in 0..alive.len() {
                if !alive[v] {
                    continue;
                }
                let deg = self.graph.neighbors(v).filter(|&u| alive[u]).count();
                if deg <= 1 {
                    self.take(v, &mut alive, &mut n_alive);
                    simplified = true;
                    break;
                }
            }
            if !simplified {
                break;
            }
        }
        if n_alive == 0 {
            if self.current.len() > self.best.len() {
                self.best = self.current.clone();
            }
            self.current.truncate(base);
            return;
        }
        // Branch on a maximum-degree vertex.
        let v = (0..alive.len())
            .filter(|&v| alive[v])
            .max_by_key(|&v| self.graph.neighbors(v).filter(|&u| alive[u]).count())
            .expect("n_alive > 0");

        // Branch 1: include v.
        {
            let mut a = alive.clone();
            let mut n = n_alive;
            self.take(v, &mut a, &mut n);
            self.branch(a, n);
            self.current.pop();
        }
        // Branch 2: exclude v.
        {
            alive[v] = false;
            self.branch(alive, n_alive - 1);
        }
        self.current.truncate(base);
    }

    fn take(&mut self, v: usize, alive: &mut [bool], n_alive: &mut usize) {
        self.current.push(v);
        alive[v] = false;
        *n_alive -= 1;
        for u in self.graph.neighbors(v) {
            if alive[u] {
                alive[u] = false;
                *n_alive -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute force over all subsets (graphs with <= 20 vertices).
    fn brute_force(graph: &Graph) -> usize {
        let n = graph.n_vertices();
        assert!(n <= 20);
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

    #[test]
    fn exact_matches_brute_force_on_petersen() {
        // The Petersen graph: MIS size 4.
        let outer_cycle = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)];
        let inner_star = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)];
        let spokes = [(0, 5), (1, 6), (2, 7), (3, 8), (4, 9)];
        let edges = [outer_cycle, inner_star, spokes].concat();
        let g = Graph::from_edges(10, edges);
        let set = exact(&g);
        assert!(g.is_independent(&set));
        assert_eq!(set.len(), 4);
        assert_eq!(set.len(), brute_force(&g));
    }

    #[test]
    fn exact_handles_disconnected_graphs() {
        let g = Graph::from_edges(7, [(0, 1), (2, 3), (4, 5)]);
        assert_eq!(exact(&g).len(), 4); // one per edge plus the isolated 6
    }
}
