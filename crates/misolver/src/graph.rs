/// A simple undirected graph on vertices `0..n`, stored as one adjacency
/// bitset per vertex. Parallel edges and self-loops are ignored.
///
/// Bitset rows make `add_edge` and `has_edge` O(1), yield neighbors in
/// ascending order whatever the insertion order, and let the solvers
/// combine adjacency with vertex sets a word (64 vertices) at a time.
/// Memory is `n² / 8` bytes, which suits the few-thousand-vertex graphs
/// AccALS builds.
#[derive(Debug, Clone, Default)]
pub struct Graph {
    n: usize,
    /// Words per row: `⌈n / 64⌉`.
    words: usize,
    /// Row `v` is `rows[v * words..(v + 1) * words]`.
    rows: Vec<u64>,
    n_edges: usize,
}

impl Graph {
    /// Creates a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        let words = n.div_ceil(64);
        Graph {
            n,
            words,
            rows: vec![0; n * words],
            n_edges: 0,
        }
    }

    /// Creates a graph from an edge list.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u, v);
        }
        g
    }

    /// Adds the undirected edge `{u, v}`. Self-loops and duplicates are
    /// silently ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        if u == v || self.has_edge(u, v) {
            return;
        }
        self.rows[u * self.words + v / 64] |= 1 << (v % 64);
        self.rows[v * self.words + u / 64] |= 1 << (u % 64);
        self.n_edges += 1;
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// The degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The neighbors of vertex `v`, in ascending order.
    pub fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
        ones(self.row(v))
    }

    /// Whether `u` and `v` are adjacent.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.rows[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Whether `set` is an independent set (no two members adjacent).
    pub fn is_independent(&self, set: &[usize]) -> bool {
        let in_set = self.bitset(set);
        set.iter()
            .all(|&v| self.row(v).iter().zip(&in_set).all(|(r, s)| r & s == 0))
    }

    /// Whether `set` is maximal: no vertex outside it can be added while
    /// keeping independence.
    pub fn is_maximal(&self, set: &[usize]) -> bool {
        let in_set = self.bitset(set);
        (0..self.n).all(|v| {
            in_set[v / 64] >> (v % 64) & 1 == 1
                || self.row(v).iter().zip(&in_set).any(|(r, s)| r & s != 0)
        })
    }

    /// Words per adjacency row.
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// The adjacency bitset of vertex `v`.
    pub(crate) fn row(&self, v: usize) -> &[u64] {
        &self.rows[v * self.words..][..self.words]
    }

    fn bitset(&self, set: &[usize]) -> Vec<u64> {
        let mut bits = vec![0u64; self.words];
        for &v in set {
            bits[v / 64] |= 1 << (v % 64);
        }
        bits
    }
}

/// The indices of the set bits of `bits`, ascending.
pub(crate) fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(wi, &w)| {
        let mut w = w;
        std::iter::from_fn(move || {
            if w == 0 {
                None
            } else {
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_dedupe_and_ignore_self_loops() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(2, 2);
        assert_eq!(g.n_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn neighbors_ascend_whatever_the_insertion_order() {
        let mut g = Graph::new(200);
        for v in [150, 3, 64, 199, 63, 1] {
            g.add_edge(70, v);
        }
        let got: Vec<usize> = g.neighbors(70).collect();
        assert_eq!(got, vec![1, 3, 63, 64, 150, 199]);
        assert_eq!(g.degree(70), 6);
        assert!(g.has_edge(199, 70));
    }

    #[test]
    fn independence_and_maximality_checks() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        assert!(g.is_independent(&[0, 2]));
        assert!(!g.is_independent(&[0, 1]));
        assert!(g.is_maximal(&[0, 2]));
        assert!(!g.is_maximal(&[1])); // vertex 3 could be added
    }
}
