//! Cross-round caching of flip-transfer masks.
//!
//! A node's transfer masks `M(n, o)` are per-pattern Boolean differences
//! of the fanout-cone function with respect to `n`: bit `p` of `M(n, o)`
//! is `F_o(0, sides_p) ^ F_o(1, sides_p)`. That makes them invariant to
//! `n`'s *own* simulated value — they change only when
//!
//! 1. the cone's structure changes (a node in `TFO(n)` gained, lost, or
//!    rewired a fanin, or a fanout edge inside the cone disappeared), or
//! 2. a *side input* of the cone (a fanin of a cone member outside the
//!    cone) changed its simulated value, or
//! 3. the output-driver mapping changed.
//!
//! [`MaskCache::roll`] diffs the new circuit revision against a snapshot
//! of the previous one (through the node remapping that
//! [`aig::Aig::cleanup`] returns), marks the dirty frontier — nodes with
//! structural changes, sources of removed fanout edges, and fanouts of
//! value-changed nodes — and invalidates exactly the transitive fanin
//! cone of that frontier: a node's masks survive iff its TFO provably
//! contains no change. Condition 3 triggers a full flush (output drivers
//! rarely move). Carried masks are bit-identical to recomputation, so
//! cached and from-scratch estimation agree exactly; polarity flips in
//! the remapping are harmless because Boolean-difference masks are
//! polarity independent.
//!
//! Windowed flows roll with no remap every round (a flush). Each round
//! scores a different region's targets, so carried masks went unread
//! (DESIGN.md §14), and the flush keeps mask memory at one window's
//! worth.

use aig::remap::{image, struct_eq};
use aig::{Aig, Fanouts, Lit, Node, NodeId};
use bitsim::{word_mask, ConeSimulator, ConeTopology, Sim};
use parkit::ScratchPool;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Cached transfer masks for one node.
#[derive(Debug, Clone)]
pub struct MaskEntry {
    /// Ascending indices of the outputs this node can influence.
    pub outs: Box<[u32]>,
    /// One `stride`-word flip mask per entry of `outs`, concatenated.
    pub masks: Box<[u64]>,
}

/// Reusable per-chunk scratch for candidate scoring. One worker chunk
/// checks a buffer out of the [`DevPool`], uses it for one candidate
/// after another, and returns it — so steady-state scoring performs
/// zero per-candidate heap allocations.
#[derive(Debug, Default)]
pub struct DevBuf {
    /// Ascending nonzero word indices of a freshly computed deviation
    /// mask ([`lac::deviation_into`]).
    pub words: Vec<u32>,
    /// The deviation bits at each entry of `words`.
    pub bits: Vec<u64>,
    /// `stride`-word signature scratch for [`lac::deviation_into`].
    pub scratch: Vec<u64>,
    /// Suffix-bound scratch for
    /// [`errmetrics::ErrorEval::masked_rows_bounded`].
    pub suffix: Vec<f64>,
}

/// A free-list of [`DevBuf`] scratch buffers shared by the scoring
/// workers. Checkout order is schedule-dependent but buffer contents
/// never influence results (the sparse arrays come back cleared, the
/// signature scratch is fully overwritten by each deviation and the
/// suffix scratch by each bounded call), so pooling preserves
/// bit-identity at any thread count.
#[derive(Debug, Default)]
pub struct DevPool {
    bufs: ScratchPool<DevBuf>,
    allocs: AtomicUsize,
}

impl DevPool {
    /// Takes a buffer from the pool, allocating a fresh one (and
    /// counting it) only when the pool is dry.
    pub fn checkout(&self) -> DevBuf {
        self.bufs.take().unwrap_or_else(|| {
            self.allocs.fetch_add(1, Ordering::Relaxed);
            DevBuf::default()
        })
    }

    /// Returns a buffer, clearing the sparse arrays (capacity is kept).
    pub fn restore(&self, mut buf: DevBuf) {
        buf.words.clear();
        buf.bits.clear();
        self.bufs.put(buf);
    }

    /// Total `DevBuf` allocations since construction. At most one per
    /// pool participant, so flat across warm repeat calls once every
    /// participant has scored (`warm_scoring_draws_every_buffer_from_the_dev_pool`
    /// asserts the bound).
    pub fn allocations(&self) -> usize {
        self.allocs.load(Ordering::Relaxed)
    }
}

/// Counters describing cache behaviour, for benches and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Calls to [`MaskCache::roll`].
    pub rounds: usize,
    /// Rolls that discarded every entry (no remap, shape change, or
    /// output-driver change).
    pub flushes: usize,
    /// Entries carried across a roll.
    pub carried: usize,
    /// Mask lookups served from the cache.
    pub hits: usize,
    /// Mask lookups that required a cone resimulation.
    pub misses: usize,
}

/// Cross-round store of [`MaskEntry`] values, keyed by node id of the
/// circuit revision it was last [`MaskCache::roll`]ed to.
#[derive(Debug, Default)]
pub struct MaskCache {
    entries: Vec<Option<MaskEntry>>,
    // Snapshot of the revision `entries` belongs to. The simulation is
    // a shared handle, not a copy.
    snap_nodes: Vec<Node>,
    snap_out_lits: Vec<Lit>,
    snap_sim: Option<Sim>,
    stats: CacheStats,
    pool: DevPool,
    /// One cone simulator per mask-building worker, kept across rolls.
    cones: ScratchPool<ConeSimulator>,
}

impl MaskCache {
    /// An empty cache; the first [`MaskCache::roll`] sizes it.
    pub fn new() -> Self {
        MaskCache::default()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// The scoring scratch pool. Survives [`MaskCache::roll`], so warm
    /// rounds reuse the buffers the previous round allocated.
    pub fn dev_pool(&self) -> &DevPool {
        &self.pool
    }

    /// A cone simulator bound to `topo`: a pooled one rebound (it keeps
    /// the scratch it grew on earlier revisions), or a fresh one when
    /// every pooled simulator is checked out. Hand it back with
    /// [`MaskCache::restore_cone`].
    pub(crate) fn checkout_cone(&self, topo: &Arc<ConeTopology>) -> ConeSimulator {
        match self.cones.take() {
            Some(mut cs) => {
                cs.rebind(Arc::clone(topo));
                cs
            }
            None => ConeSimulator::with_topology(Arc::clone(topo)),
        }
    }

    /// Returns a simulator taken with [`MaskCache::checkout_cone`].
    pub(crate) fn restore_cone(&self, cs: ConeSimulator) {
        self.cones.put(cs);
    }

    /// Forks the cache at its current revision: the fork carries the
    /// same entries and snapshot, so rolling it forward along a
    /// *different* branch of edits yields exactly what a cache that had
    /// followed that branch alone would hold. The scratch pools are not
    /// shared — their contents never influence results, so the fork
    /// starts with empty ones.
    pub fn fork(&self) -> MaskCache {
        MaskCache {
            entries: self.entries.clone(),
            snap_nodes: self.snap_nodes.clone(),
            snap_out_lits: self.snap_out_lits.clone(),
            snap_sim: self.snap_sim.clone(),
            stats: self.stats,
            pool: DevPool::default(),
            cones: ScratchPool::default(),
        }
    }

    /// Rolls the cache forward to the circuit revision `(aig, sim)`.
    ///
    /// `remap` maps node ids of the previous revision — including nodes
    /// appended by LAC application before `cleanup()` — to literals of
    /// `aig`, exactly as returned by [`aig::Aig::cleanup`]; `None` means
    /// the node was deleted. Passing `remap = None` (first round, or an
    /// unknown edit) flushes every entry. `fanouts` must be built for
    /// `aig`.
    pub fn roll(&mut self, aig: &Aig, sim: &Sim, fanouts: &Fanouts, remap: Option<&[Option<Lit>]>) {
        self.stats.rounds += 1;
        let n_new = aig.n_nodes();
        let same_shape = self
            .snap_sim
            .as_ref()
            .is_some_and(|s| s.stride() == sim.stride() && s.n_patterns() == sim.n_patterns());
        let carried = if same_shape {
            remap.and_then(|r| self.carry_entries(aig, sim, fanouts, r))
        } else {
            None
        };
        self.entries = match carried {
            Some(entries) => entries,
            None => {
                if self.entries.iter().any(Option::is_some) {
                    self.stats.flushes += 1;
                }
                vec![None; n_new]
            }
        };

        // Snapshot this revision for the next roll.
        self.snap_nodes = (0..n_new).map(|i| *aig.node(NodeId::new(i))).collect();
        self.snap_out_lits = aig.outputs().iter().map(|o| o.lit).collect();
        self.snap_sim = Some(sim.clone());
    }

    /// Computes the surviving entry table, or `None` to flush.
    fn carry_entries(
        &mut self,
        aig: &Aig,
        sim: &Sim,
        fanouts: &Fanouts,
        remap: &[Option<Lit>],
    ) -> Option<Vec<Option<MaskEntry>>> {
        let n_new = aig.n_nodes();
        // Condition 3: any change to the output-driver mapping flushes.
        if aig.n_pos() != self.snap_out_lits.len() {
            return None;
        }
        for (out, &old) in aig.outputs().iter().zip(&self.snap_out_lits) {
            if image(remap, old) != Some(out.lit) {
                return None;
            }
        }

        // Preimages of each new node; strash collisions drop both.
        let mut pre: Vec<Option<(u32, bool)>> = vec![None; n_new];
        let mut collide = vec![false; n_new];
        for (p, r) in remap.iter().enumerate() {
            if let Some(l) = r {
                let m = l.node().index();
                if pre[m].is_some() {
                    collide[m] = true;
                } else {
                    pre[m] = Some((p as u32, l.is_neg()));
                }
            }
        }

        let mut marked = vec![false; n_new];
        // A dead, collided, or rewired old node removes fanout edges;
        // the surviving sources of those edges lose part of their cone.
        let mut lost_sources: Vec<NodeId> = Vec::new();
        let mark_old_fanins = |p: usize, lost: &mut Vec<NodeId>| {
            if let Some(Node::And(a, b)) = self.snap_nodes.get(p) {
                for l in [*a, *b] {
                    if let Some(img) = image(remap, l) {
                        lost.push(img.node());
                    }
                }
            }
        };
        for (p, r) in remap.iter().enumerate() {
            match r {
                None => mark_old_fanins(p, &mut lost_sources),
                Some(l) if collide[l.node().index()] => mark_old_fanins(p, &mut lost_sources),
                Some(_) => {}
            }
        }

        for m in 0..n_new {
            let id = NodeId::new(m);
            let clean_struct = match pre[m] {
                Some((p, _)) if !collide[m] => self
                    .snap_nodes
                    .get(p as usize)
                    .is_some_and(|old| struct_eq(aig.node(id), old, remap)),
                _ => false,
            };
            if !clean_struct {
                // Condition 1: new or rewired node; its old fanout edges
                // (if any) are gone too.
                marked[m] = true;
                if let Some((p, _)) = pre[m] {
                    mark_old_fanins(p as usize, &mut lost_sources);
                }
                // A rewired node also feeds its readers a value, and a
                // reader's masks embedded the value its *old* fanin had
                // at that position. If the new value differs anywhere —
                // or there is nothing to compare against — the readers'
                // cones are contaminated exactly as in condition 2. The
                // readers themselves can be structurally clean (replace
                // rewires consumers in place), and their own values can
                // stay unchanged when the deviation is masked at their
                // other fanin, so nothing else marks them.
                let value_preserved = !collide[m]
                    && pre[m].is_some_and(|(p, neg)| {
                        (p as usize) < self.snap_nodes.len()
                            && self.sig_matches(sim, id, p as usize, neg)
                    });
                if !value_preserved {
                    for &f in fanouts.of(id) {
                        marked[f.index()] = true;
                    }
                }
                continue;
            }
            let (p, neg) = pre[m].expect("clean nodes have a preimage");
            if !self.sig_matches(sim, id, p as usize, neg) {
                // Condition 2: a value change contaminates every cone
                // that reads this node — i.e. its fanouts' cones. The
                // node's own masks are value independent and survive.
                for &f in fanouts.of(id) {
                    marked[f.index()] = true;
                }
            }
        }
        for id in lost_sources {
            marked[id.index()] = true;
        }

        // Invalid = transitive fanin (inclusive) of the marked frontier:
        // exactly the nodes whose TFO intersects a change.
        let mut invalid = marked;
        let mut stack: Vec<NodeId> = invalid
            .iter()
            .enumerate()
            .filter(|(_, &v)| v)
            .map(|(i, _)| NodeId::new(i))
            .collect();
        while let Some(m) = stack.pop() {
            if let Node::And(a, b) = aig.node(m) {
                for l in [*a, *b] {
                    let f = l.node();
                    if !invalid[f.index()] {
                        invalid[f.index()] = true;
                        stack.push(f);
                    }
                }
            }
        }

        let mut old_entries = std::mem::take(&mut self.entries);
        let mut out: Vec<Option<MaskEntry>> = vec![None; n_new];
        let mut carried = 0usize;
        for (m, slot) in out.iter_mut().enumerate() {
            if invalid[m] {
                continue;
            }
            if let Some((p, _)) = pre[m] {
                if let Some(e) = old_entries.get_mut(p as usize).and_then(Option::take) {
                    *slot = Some(e);
                    carried += 1;
                }
            }
        }
        self.stats.carried += carried;
        Some(out)
    }

    fn sig_matches(&self, sim: &Sim, m: NodeId, p: usize, neg: bool) -> bool {
        let new = sim.sig(m);
        let old = self
            .snap_sim
            .as_ref()
            .expect("carrying requires a snapshot")
            .sig(NodeId::new(p));
        for w in 0..sim.stride() {
            let ow = if neg { !old[w] } else { old[w] };
            if (new[w] ^ ow) & word_mask(sim.n_patterns(), w) != 0 {
                return false;
            }
        }
        true
    }

    /// Ensures the entry table covers `aig`, without diffing (used by
    /// cache-less estimators for scratch storage within a single round).
    pub(crate) fn reset_for(&mut self, aig: &Aig) {
        self.entries.clear();
        self.entries.resize(aig.n_nodes(), None);
    }

    pub(crate) fn get(&self, n: NodeId) -> Option<&MaskEntry> {
        self.entries.get(n.index()).and_then(Option::as_ref)
    }

    pub(crate) fn insert(&mut self, n: NodeId, e: MaskEntry) {
        self.entries[n.index()] = Some(e);
    }

    pub(crate) fn note_lookups(&mut self, hits: usize, misses: usize) {
        self.stats.hits += hits;
        self.stats.misses += misses;
    }
}
