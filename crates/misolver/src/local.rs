use crate::graph::{ones, Graph};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};

/// Iterated (1,2)-swap local search, in the spirit of the
/// Andrade–Resende–Werneck heuristic that underlies KaMIS.
///
/// Starting from `init` (made maximal first), the search repeatedly
/// applies 2-improvements — remove one solution vertex and insert two of
/// its "tight" neighbors — and, when stuck, perturbs the solution by
/// force-inserting a random vertex. The best solution seen across
/// `iterations` perturbation rounds is returned; it is always maximal
/// and never worse than `init`.
///
/// The solution is a bitset and every vertex's count of solution
/// neighbors is kept bit-sliced (one bitset per binary digit), so an
/// insertion or removal costs `O(⌈n/64⌉ · log₂ Δ)` word operations and
/// the tight vertices of `x` are `row(x) & (count == 1)` a word at a
/// time. Moves are visited in ascending vertex order.
pub fn local_search(graph: &Graph, init: Vec<usize>, iterations: usize, seed: u64) -> Vec<usize> {
    let n = graph.n_vertices();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut state = State::new(graph, &init);
    state.make_maximal(graph);
    state.improve(graph);
    let mut best = state.clone();
    for _ in 0..iterations {
        if n == 0 {
            break;
        }
        let v = rng.gen_range(0..n);
        state.force_insert(graph, v);
        state.make_maximal(graph);
        state.improve(graph);
        if state.size > best.size {
            best.clone_from(&state);
        } else {
            // Restart from the best-known solution to keep the walk near
            // good regions.
            state.clone_from(&best);
        }
    }
    ones(&best.in_set).collect()
}

#[derive(Clone)]
struct State {
    n: usize,
    words: usize,
    /// The solution as a bitset over vertices.
    in_set: Vec<u64>,
    /// The number of solution neighbors of every vertex, bit-sliced:
    /// bit `p` of vertex `v`'s count is bit `v % 64` of
    /// `planes[(v / 64) * n_planes + p]`.
    planes: Vec<u64>,
    n_planes: usize,
    size: usize,
}

impl State {
    fn new(graph: &Graph, set: &[usize]) -> Self {
        let (n, words) = (graph.n_vertices(), graph.words());
        // A count never exceeds the maximum degree.
        let max_degree = (0..n).map(|v| graph.degree(v)).max().unwrap_or(0);
        let n_planes = (usize::BITS - max_degree.leading_zeros()).max(1) as usize;
        let mut s = State {
            n,
            words,
            in_set: vec![0; words],
            planes: vec![0; words * n_planes],
            n_planes,
            size: 0,
        };
        for &v in set {
            if !s.contains(v) && s.free0(v / 64) >> (v % 64) & 1 == 1 {
                s.insert(graph, v);
            }
        }
        s
    }

    fn contains(&self, v: usize) -> bool {
        self.in_set[v / 64] >> (v % 64) & 1 == 1
    }

    /// Word `w` of the set of non-solution vertices with no solution
    /// neighbor.
    fn free0(&self, w: usize) -> u64 {
        let any = self.planes[w * self.n_planes..][..self.n_planes]
            .iter()
            .fold(0, |acc, p| acc | p);
        let valid = if (w + 1) * 64 <= self.n {
            u64::MAX
        } else {
            (1u64 << (self.n % 64)) - 1
        };
        !any & !self.in_set[w] & valid
    }

    /// Word `w` of the set of non-solution vertices with exactly one
    /// solution neighbor.
    fn free1(&self, w: usize) -> u64 {
        let planes = &self.planes[w * self.n_planes..][..self.n_planes];
        let high = planes[1..].iter().fold(0, |acc, p| acc | p);
        planes[0] & !high & !self.in_set[w]
    }

    fn insert(&mut self, graph: &Graph, v: usize) {
        debug_assert!(!self.contains(v));
        self.in_set[v / 64] |= 1 << (v % 64);
        self.size += 1;
        // Ripple-carry increment of every neighbor's count.
        for (w, &row) in graph.row(v).iter().enumerate() {
            let mut carry = row;
            for p in &mut self.planes[w * self.n_planes..][..self.n_planes] {
                if carry == 0 {
                    break;
                }
                let x = *p;
                *p = x ^ carry;
                carry &= x;
            }
            debug_assert_eq!(carry, 0, "count overflow");
        }
    }

    fn remove(&mut self, graph: &Graph, v: usize) {
        debug_assert!(self.contains(v));
        self.in_set[v / 64] &= !(1 << (v % 64));
        self.size -= 1;
        // Ripple-borrow decrement of every neighbor's count.
        for (w, &row) in graph.row(v).iter().enumerate() {
            let mut borrow = row;
            for p in &mut self.planes[w * self.n_planes..][..self.n_planes] {
                if borrow == 0 {
                    break;
                }
                let x = *p;
                *p = x ^ borrow;
                borrow &= !x;
            }
            debug_assert_eq!(borrow, 0, "count underflow");
        }
    }

    /// Inserts `v` by evicting its solution neighbors first.
    fn force_insert(&mut self, graph: &Graph, v: usize) {
        if self.contains(v) {
            return;
        }
        for w in 0..self.words {
            let mut evict = graph.row(v)[w] & self.in_set[w];
            while evict != 0 {
                self.remove(graph, w * 64 + evict.trailing_zeros() as usize);
                evict &= evict - 1;
            }
        }
        self.insert(graph, v);
    }

    /// Inserts every free vertex in ascending order. An insertion only
    /// raises counts, so taking the lowest free vertex of the current
    /// word repeatedly visits the same vertices a one-by-one scan would.
    fn make_maximal(&mut self, graph: &Graph) {
        for w in 0..self.words {
            loop {
                let free = self.free0(w);
                if free == 0 {
                    break;
                }
                self.insert(graph, w * 64 + free.trailing_zeros() as usize);
            }
        }
    }

    /// The lowest solution vertex at or above `from`.
    fn next_in_set(&self, from: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = *self.in_set.get(w)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros() as usize);
            }
            w += 1;
            word = *self.in_set.get(w)?;
        }
    }

    /// Applies 2-improvements until a fixpoint: for each solution vertex
    /// `x`, look for two non-adjacent vertices whose only solution
    /// neighbor is `x`; swapping them in gains one vertex. The first
    /// such pair `(a, b)` in ascending order is taken.
    fn improve(&mut self, graph: &Graph) {
        let mut tight = vec![0u64; self.words];
        let mut changed = true;
        while changed {
            changed = false;
            let mut x = 0;
            while let Some(cur) = self.next_in_set(x) {
                x = cur + 1;
                let mut n_tight = 0;
                for (w, (t, &row)) in tight.iter_mut().zip(graph.row(cur)).enumerate() {
                    *t = if row == 0 { 0 } else { row & self.free1(w) };
                    n_tight += t.count_ones();
                }
                if n_tight < 2 {
                    continue;
                }
                if let Some((a, b)) = first_non_adjacent_pair(graph, &tight) {
                    self.remove(graph, cur);
                    self.insert(graph, a);
                    self.insert(graph, b);
                    self.make_maximal(graph);
                    changed = true;
                }
            }
        }
    }
}

/// The lexicographically first pair `a < b` of `set` members that are not
/// adjacent.
fn first_non_adjacent_pair(graph: &Graph, set: &[u64]) -> Option<(usize, usize)> {
    for a in ones(set) {
        let row = graph.row(a);
        let (wa, ba) = (a / 64, a % 64);
        // Members above `a`: the rest of `a`'s word, then later words.
        let above = set[wa] & !row[wa] & (u64::MAX << ba) & !(1 << ba);
        if above != 0 {
            return Some((a, wa * 64 + above.trailing_zeros() as usize));
        }
        for w in wa + 1..set.len() {
            let cand = set[w] & !row[w];
            if cand != 0 {
                return Some((a, w * 64 + cand.trailing_zeros() as usize));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_min_degree;

    #[test]
    fn local_search_improves_a_bad_start() {
        // Path 0-1-2-3-4: optimum is {0,2,4} (size 3); start from {1}.
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)]);
        let set = local_search(&g, vec![1], 50, 7);
        assert_eq!(set.len(), 3);
        assert!(g.is_independent(&set));
    }

    #[test]
    fn local_search_never_worse_than_greedy() {
        let g = Graph::from_edges(
            8,
            [
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
            ],
        );
        let greedy = greedy_min_degree(&g);
        let improved = local_search(&g, greedy.clone(), 100, 11);
        assert!(improved.len() >= greedy.len());
        assert!(g.is_independent(&improved));
        assert!(g.is_maximal(&improved));
    }
}
