use crate::graph::Aig;
use crate::node::{Node, NodeId};
use crate::topo::Fanouts;
use std::collections::VecDeque;

/// A fixed-size bitset over node indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitMask {
    words: Vec<u64>,
    len: usize,
}

impl BitMask {
    /// Creates an all-zero mask covering `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitMask {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The number of bits the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// The number of set bits.
    pub fn count(&self) -> usize {
        count_ones(&self.words)
    }

    /// The number of bits set in both `self` and `other`.
    ///
    /// # Panics
    ///
    /// Panics if the masks have different lengths.
    pub fn intersection_count(&self, other: &BitMask) -> usize {
        assert_eq!(self.len, other.len, "mask lengths must match");
        and_count_ones(&self.words, &other.words)
    }

    /// Iterates over the indices of set bits.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
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
}

dispatched! {
    /// Set bits across `words`.
    fn count_ones = count_ones_scalar(words: &[u64]) -> usize;
}

/// Scalar body of [`count_ones`].
#[inline(always)]
fn count_ones_scalar(words: &[u64]) -> usize {
    words.iter().map(|w| w.count_ones() as usize).sum()
}

dispatched! {
    /// Set bits of `a & b`, word by word. The influence graph's pair
    /// scan calls this once per pair of targets.
    fn and_count_ones = and_count_ones_scalar(a: &[u64], b: &[u64]) -> usize;
}

/// Scalar body of [`and_count_ones`].
#[inline(always)]
fn and_count_ones_scalar(a: &[u64], b: &[u64]) -> usize {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x & y).count_ones() as usize)
        .sum()
}

/// Computes the transitive fanout of `n` (including `n` itself) as a
/// bitmask over node indices.
pub fn tfo_mask(aig: &Aig, fanouts: &Fanouts, n: NodeId) -> BitMask {
    let mut mask = BitMask::zeros(aig.n_nodes());
    let mut queue = VecDeque::from([n]);
    mask.set(n.index());
    while let Some(m) = queue.pop_front() {
        for &f in fanouts.of(m) {
            if !mask.get(f.index()) {
                mask.set(f.index());
                queue.push_back(f);
            }
        }
    }
    mask
}

/// Computes the transitive fanin of `n` (including `n` itself) as a
/// bitmask over node indices.
pub fn tfi_mask(aig: &Aig, n: NodeId) -> BitMask {
    let mut mask = BitMask::zeros(aig.n_nodes());
    let mut stack = vec![n];
    mask.set(n.index());
    while let Some(m) = stack.pop() {
        if let Node::And(a, b) = aig.node(m) {
            for f in [a.node(), b.node()] {
                if !mask.get(f.index()) {
                    mask.set(f.index());
                    stack.push(f);
                }
            }
        }
    }
    mask
}

/// Computes, via BFS over fanout edges, the shortest forward path length
/// from `src` to every node. `None` means unreachable; `src` itself maps
/// to `Some(0)`.
pub fn shortest_forward_distances(aig: &Aig, fanouts: &Fanouts, src: NodeId) -> Vec<Option<u32>> {
    let mut dist = vec![None; aig.n_nodes()];
    dist[src.index()] = Some(0);
    let mut queue = VecDeque::from([src]);
    while let Some(m) = queue.pop_front() {
        let d = dist[m.index()].expect("queued nodes have distances");
        for &f in fanouts.of(m) {
            if dist[f.index()].is_none() {
                dist[f.index()] = Some(d + 1);
                queue.push_back(f);
            }
        }
    }
    dist
}

/// Size of the maximum fanout-free cone (MFFC) of `n`: the number of AND
/// nodes, including `n`, that would become dangling if `n` were removed.
///
/// This is the standard area-saving estimate for deleting a node. It
/// allocates an `n_nodes` scratch per call; size many nodes through one
/// [`MffcScratch`] instead.
pub fn mffc_size(aig: &Aig, fanouts: &Fanouts, n: NodeId) -> usize {
    MffcScratch::default().size(aig, fanouts, n)
}

/// Reusable scratch for MFFC sizing: per-node reference decrements,
/// all zero between calls. A call restores only the entries it
/// decremented, so sizing a node costs its MFFC and the fanins at its
/// boundary, not a fill of the whole circuit.
#[derive(Debug, Default)]
pub struct MffcScratch {
    /// References to each node removed by the current call so far.
    dec: Vec<u32>,
    /// Nodes with a nonzero `dec` entry.
    touched: Vec<NodeId>,
    stack: Vec<NodeId>,
}

impl MffcScratch {
    /// The MFFC size of `n` (see [`mffc_size`]). `fanouts` must be built
    /// for `aig`.
    pub fn size(&mut self, aig: &Aig, fanouts: &Fanouts, n: NodeId) -> usize {
        if !aig.node(n).is_and() {
            return 0;
        }
        if self.dec.len() < aig.n_nodes() {
            self.dec.resize(aig.n_nodes(), 0);
        }
        let mut count = 0;
        self.stack.push(n);
        while let Some(m) = self.stack.pop() {
            count += 1;
            if let Node::And(a, b) = aig.node(m) {
                let (a, b) = (a.node(), b.node());
                let fanins = if b != a {
                    [Some(a), Some(b)]
                } else {
                    [Some(a), None]
                };
                for f in fanins.into_iter().flatten() {
                    if aig.node(f).is_and() {
                        let d = &mut self.dec[f.index()];
                        if *d == 0 {
                            self.touched.push(f);
                        }
                        *d += 1;
                        if *d == fanouts.n_refs(f) {
                            self.stack.push(f);
                        }
                    }
                }
            }
        }
        for f in self.touched.drain(..) {
            self.dec[f.index()] = 0;
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lit;

    fn diamond() -> (Aig, [Lit; 4]) {
        // y = (a&b) | (a&c); shared input a, two branches, one join.
        let mut g = Aig::new("diamond", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let ac = g.and(a, c);
        let y = g.or(ab, ac);
        g.add_output(y, "y");
        (g, [a, ab, ac, y])
    }

    #[test]
    fn bitmask_basics() {
        let mut m = BitMask::zeros(130);
        assert_eq!(m.count(), 0);
        m.set(0);
        m.set(64);
        m.set(129);
        assert_eq!(m.count(), 3);
        assert!(m.get(64));
        assert!(!m.get(65));
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 64, 129]);
    }

    #[test]
    fn dispatched_counts_match_scalar() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random_mask = |len: usize| {
            let mut m = BitMask::zeros(len);
            for i in 0..len {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if state >> 61 & 1 == 1 {
                    m.set(i);
                }
            }
            m
        };
        for len in [1usize, 63, 64, 65, 1000] {
            let (a, b) = (random_mask(len), random_mask(len));
            assert_eq!(
                a.intersection_count(&b),
                and_count_ones_scalar(&a.words, &b.words),
                "len={len}"
            );
            assert_eq!(a.count(), count_ones_scalar(&a.words), "len={len}");
            let naive = (0..len).filter(|&i| a.get(i) && b.get(i)).count();
            assert_eq!(a.intersection_count(&b), naive, "len={len}");
        }
    }

    #[test]
    fn tfo_includes_all_downstream() {
        let (g, [a, ab, ac, y]) = diamond();
        let f = Fanouts::build(&g);
        let tfo = tfo_mask(&g, &f, a.node());
        for l in [a, ab, ac, y] {
            assert!(tfo.get(l.node().index()));
        }
        assert!(!tfo.get(g.pi(1).node().index()), "b is not in TFO(a)");
    }

    #[test]
    fn tfi_includes_all_upstream() {
        let (g, [a, ab, _ac, y]) = diamond();
        let tfi = tfi_mask(&g, y.node());
        assert!(tfi.get(a.node().index()));
        assert!(tfi.get(ab.node().index()));
        assert!(tfi.get(g.pi(2).node().index()));
    }

    #[test]
    fn forward_distances() {
        let (g, [a, ab, _ac, y]) = diamond();
        let f = Fanouts::build(&g);
        let d = shortest_forward_distances(&g, &f, a.node());
        assert_eq!(d[a.node().index()], Some(0));
        assert_eq!(d[ab.node().index()], Some(1));
        assert_eq!(d[y.node().index()], Some(2));
        assert_eq!(d[g.pi(1).node().index()], None);
    }

    #[test]
    fn mffc_counts_exclusive_cone() {
        let (g, [_a, ab, _ac, y]) = diamond();
        let f = Fanouts::build(&g);
        // Removing the output node frees the whole 3-AND cone.
        assert_eq!(mffc_size(&g, &f, y.node()), 3);
        // ab is referenced only by y, so its MFFC is itself.
        assert_eq!(mffc_size(&g, &f, ab.node()), 1);
        // PIs have no MFFC.
        assert_eq!(mffc_size(&g, &f, g.pi(0).node()), 0);
    }

    #[test]
    fn mffc_scratch_is_restored_after_each_call() {
        let (g, [_a, ab, ac, y]) = diamond();
        let f = Fanouts::build(&g);
        let mut s = MffcScratch::default();
        for (n, want) in [(y, 3), (ab, 1), (ac, 1), (y, 3)] {
            assert_eq!(s.size(&g, &f, n.node()), want);
            assert!(s.dec.iter().all(|&d| d == 0), "scratch left dirty");
            assert!(s.touched.is_empty() && s.stack.is_empty());
        }
    }
}
