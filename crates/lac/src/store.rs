//! Cross-round caching of per-node candidate lists and deviation masks.
//!
//! Regenerating every candidate from scratch each synthesis round is
//! wasteful: a committed round edits a small dirty region of the AIG,
//! and a node's candidates depend only on a bounded neighborhood. The
//! [`CandidateStore`] keeps each live AND node's candidate list (plus
//! the deviation mask of every candidate) across rounds, rolled forward
//! through the cleanup remap under the same exact-invalidation
//! discipline as `estimate::MaskCache`: an entry survives only if every
//! input its generation read is provably unchanged, so the store's
//! output is bit-identical to fresh [`crate::generate_candidates`].
//!
//! Only unwindowed calls carry. A windowed call (a target membership
//! mask, one per windowed round) starts from an empty table and
//! regenerates exactly its in-window nodes: successive windows visit
//! different regions, so entries carried for one window would only be
//! filtered out of the next, and the store holds one window's entries
//! at a time.
//!
//! Storage is a typed arena ([`CandArena`]) rather than per-node heap
//! structures: candidate records, dep/fanout lists, and the sparse
//! deviation payloads all live in contiguous vectors, and each node's
//! entry is a handful of `(start, len)` regions ([`EntryMeta`]) keyed
//! by the arena's generation epoch. Carrying an entry across a roll is
//! then a region copy into the next epoch's arena (with node ids
//! rewritten through the remap) instead of moving a fistful of `Vec`s,
//! and the double-buffered arenas reuse their allocations round over
//! round. Every region read asserts (in debug builds) that the entry's
//! epoch matches the arena's, so a stale handle cannot silently read
//! another generation's data.
//!
//! A node's generation reads:
//!
//! 1. its own structure, level, liveness, and signature;
//! 2. the structure/signature/level/liveness of its *deps* — fanins,
//!    grand-fanins, fanouts and their siblings, and every pool probe it
//!    drew ([`crate::gen::NodeGen::deps`]);
//! 3. the identity of its fanout *set* (a new consumer adds a sibling);
//! 4. the outcome of its rendezvous probe draws over the visible
//!    substitute pool.
//!
//! Conditions 1–2 mirror the mask cache's per-node cleanliness, with
//! three strengthenings: signatures are compared on full words
//! (candidate deviation masks are not pattern-masked); a *negated*
//! remap image marks the node dirty, because candidate truth tables —
//! unlike transfer masks — are phase sensitive; and fanins must match
//! *positionally* (generation walks them in stored order, and
//! [`aig::Aig::and`] canonicalizes operand order by literal value,
//! which a cleanup's renumbering can flip). Condition 3 requires the
//! old fanout list, remapped, to equal the new fanout list exactly and
//! positionally — a plain cleanliness check is not enough, because a
//! substitute node inherits its replaced target's consumers *through*
//! the remap without any fanout becoming dirty. Condition 4 exploits
//! that probes are drawn by highest rendezvous weight, not by pool
//! position (see [`crate::gen::probe_tweaks`]): a draw changes only if
//! a drawn node left the universe (a dep, caught by condition 2) or a
//! node entered it — or re-entered with a changed signature — with a
//! weight at or above the entry's stored selection floor, which the
//! roll checks explicitly against every non-stable pool node in level
//! range. Two residual order dependences get their own guards: the
//! wire/divisor rankings break equal-deviation ties by node id, so a
//! carried entry additionally requires the remap to be strictly
//! order-preserving on its deps; and rendezvous *weight* ties (possible
//! only between signature-identical pool nodes) break toward the
//! earlier pool position, so stable pool nodes sharing a signature key
//! whose relative order changed are demoted to dirty.
//!
//! Because [`crate::gen::gen_node`] draws from a per-node RNG stream
//! keyed by the node's signature — which survival requires unchanged —
//! a carried entry is exactly what fresh generation would produce, and
//! dirty nodes can be regenerated in parallel in any order.

use crate::gen::{build_pool, sig_key, CandidateConfig, GenCounters, GenCtx, GenScratch, NodeGen};
use crate::kinds::{Lac, LacKind};
use aig::remap::{image, struct_eq};
use aig::{Aig, Fanouts, Lit, Node, NodeId};
use bitsim::Sim;
use parkit::ThreadPool;

/// A candidate's sparse deviation mask: `words[k]` is a word index where
/// the substituted function differs from the target's signature, and
/// `bits[k]` the differing bits of that word. Computed once at
/// generation; valid exactly as long as the entry survives (deviation
/// reads only the target's and the substitutes' signatures, all of
/// which the invalidation contract pins).
#[derive(Debug, Clone)]
pub struct DevMask {
    /// Ascending word indices with nonzero deviation.
    pub words: Box<[u32]>,
    /// The deviation bits at each entry of `words`.
    pub bits: Box<[u64]>,
}

impl DevMask {
    /// Computes the deviation of `lac` against the target's signature,
    /// using `scratch` (of `sim.stride()` words) as workspace.
    pub fn of(sim: &Sim, lac: &Lac, scratch: &mut [u64]) -> Self {
        let (mut words, mut bits) = (Vec::new(), Vec::new());
        deviation_into(sim, lac, scratch, &mut words, &mut bits);
        DevMask {
            words: words.into_boxed_slice(),
            bits: bits.into_boxed_slice(),
        }
    }

    /// A borrowed view of this mask.
    pub fn view(&self) -> DevView<'_> {
        DevView {
            words: &self.words,
            bits: &self.bits,
        }
    }
}

/// Appends `lac`'s deviation against its target's signature to
/// `words`/`bits` — the [`DevMask`] shape: each word index where the
/// substituted function differs from the target, ascending, and the
/// differing bits there. `scratch` (of `sim.stride()` words) receives
/// the substituted function's signature.
pub fn deviation_into(
    sim: &Sim,
    lac: &Lac,
    scratch: &mut [u64],
    words: &mut Vec<u32>,
    bits: &mut Vec<u64>,
) {
    lac.signature_into(sim, scratch);
    let base = sim.sig(lac.tn);
    for (w, (&c, &b)) in scratch.iter().zip(base).enumerate() {
        let d = c ^ b;
        if d != 0 {
            words.push(w as u32);
            bits.push(d);
        }
    }
}

/// A borrowed sparse deviation mask — the same shape as [`DevMask`],
/// but backed by someone else's storage (the store's arena, or an owned
/// `DevMask` via [`DevMask::view`]), so handing masks to the estimator
/// costs no per-candidate allocation.
#[derive(Debug, Clone, Copy)]
pub struct DevView<'a> {
    /// Ascending word indices with nonzero deviation.
    pub words: &'a [u32],
    /// The deviation bits at each entry of `words`.
    pub bits: &'a [u64],
}

/// Counters describing store behaviour, for benches and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Calls to [`CandidateStore::generate`].
    pub rounds: usize,
    /// Generations that discarded every entry (no remap, shape or
    /// config change, or a window).
    pub flushes: usize,
    /// Entries carried across a roll (candidate-list cache hits).
    pub carried: usize,
    /// Nodes whose candidates had to be regenerated (cache misses).
    pub regenerated: usize,
}

/// A `(start, len)` slice handle into one of the arena's vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Region {
    start: u32,
    len: u32,
}

impl Region {
    fn new(start: usize, len: usize) -> Self {
        Region {
            start: u32::try_from(start).expect("arena region fits u32"),
            len: len as u32,
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.start as usize + self.len as usize
    }
}

/// One node's surviving state: regions into the owning [`CandArena`]
/// plus the scalar invalidation inputs. `cands` indexes both
/// `CandArena::cands` and the aligned `CandArena::dev_index`.
#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    cands: Region,
    deps: Region,
    fo_deps: Region,
    /// Rendezvous selection floors of the wire and extras draws (see
    /// [`crate::gen::NodeGen`]): a pool node entering this target's
    /// visible range invalidates the entry iff its weight reaches a
    /// floor.
    wire_floor: u64,
    extra_floor: u64,
    /// Store generation this entry was (re)built in, for tests and
    /// diagnostics.
    born: u64,
    /// Arena epoch the regions point into; must equal the live arena's
    /// epoch at every read.
    epoch: u64,
}

/// The typed arena backing every entry of one generation epoch:
/// candidate records, per-candidate sparse deviation payloads, and
/// dep/fanout lists, each in one contiguous vector. `cands` and
/// `dev_index` are index-aligned (one deviation region per candidate).
#[derive(Debug, Default, Clone)]
struct CandArena {
    epoch: u64,
    cands: Vec<Lac>,
    dev_index: Vec<Region>,
    dev_words: Vec<u32>,
    dev_bits: Vec<u64>,
    deps: Vec<NodeId>,
    fo_deps: Vec<NodeId>,
}

impl CandArena {
    /// Empties the arena (keeping capacity) and stamps it with `epoch`.
    fn reset(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.cands.clear();
        self.dev_index.clear();
        self.dev_words.clear();
        self.dev_bits.clear();
        self.deps.clear();
        self.fo_deps.clear();
    }

    /// Grows each buffer to at least `like`'s occupancy — the next
    /// epoch holds roughly what the last one did, so sizing from it up
    /// front turns the carry/regen appends into straight `memcpy`s
    /// instead of repeated doubling growth (which otherwise dominates
    /// the first roll, before the double-buffered arenas reach their
    /// steady-state capacity).
    fn reserve_like(&mut self, like: &CandArena) {
        self.cands.reserve(like.cands.len());
        self.dev_index.reserve(like.dev_index.len());
        self.dev_words.reserve(like.dev_words.len());
        self.dev_bits.reserve(like.dev_bits.len());
        self.deps.reserve(like.deps.len());
        self.fo_deps.reserve(like.fo_deps.len());
    }

    /// Appends one freshly generated node, computing each candidate's
    /// deviation payload straight into the arena (no intermediate
    /// `DevMask` allocation). `scratch` is a `sim.stride()`-word
    /// workspace.
    fn push_node(&mut self, g: &NodeGen, sim: &Sim, scratch: &mut [u64], born: u64) -> EntryMeta {
        let cand_start = self.cands.len();
        for c in &g.cands {
            let dstart = self.dev_words.len();
            deviation_into(sim, c, scratch, &mut self.dev_words, &mut self.dev_bits);
            self.dev_index
                .push(Region::new(dstart, self.dev_words.len() - dstart));
        }
        self.cands.extend_from_slice(&g.cands);
        debug_assert_eq!(self.cands.len(), self.dev_index.len());
        let deps_start = self.deps.len();
        self.deps.extend_from_slice(&g.deps);
        let fo_start = self.fo_deps.len();
        self.fo_deps.extend_from_slice(&g.fo_deps);
        EntryMeta {
            cands: Region::new(cand_start, g.cands.len()),
            deps: Region::new(deps_start, g.deps.len()),
            fo_deps: Region::new(fo_start, g.fo_deps.len()),
            wire_floor: g.wire_floor,
            extra_floor: g.extra_floor,
            born,
            epoch: self.epoch,
        }
    }
}

/// Copies a surviving entry's regions from `old` into `next`, rewriting
/// node ids through the cleanup remap. Deviation payloads are copied
/// verbatim — they depend only on signatures, which survival pins.
/// `skip_remap` is the [`CandidateStore::inject_stale_arena_carry`]
/// fault: the regions are copied and re-stamped with the new epoch, but
/// the candidate payload keeps its old-revision node ids.
fn carry_entry(
    old: &CandArena,
    meta: &EntryMeta,
    next: &mut CandArena,
    new_tn: NodeId,
    remap: &[Option<Lit>],
    skip_remap: bool,
) -> EntryMeta {
    debug_assert_eq!(meta.epoch, old.epoch, "carrying from a stale arena");
    let img = |n: NodeId| node_image(remap, n).expect("surviving entries reference clean nodes");
    let cand_start = next.cands.len();
    let cr = meta.cands.range();
    next.cands.extend_from_slice(&old.cands[cr.clone()]);
    if !cr.is_empty() {
        // One entry's per-candidate dev payloads are contiguous in the
        // arena by construction (`push_node` and this function both
        // append them candidate by candidate), so the whole entry moves
        // as one block copy per buffer; only the region starts rebase.
        let base = old.dev_index[cr.start].start as usize;
        let last = old.dev_index[cr.end - 1];
        let end = last.start as usize + last.len as usize;
        let dstart = next.dev_words.len();
        next.dev_words.extend_from_slice(&old.dev_words[base..end]);
        next.dev_bits.extend_from_slice(&old.dev_bits[base..end]);
        let mut expected = base;
        for ci in cr {
            let r = old.dev_index[ci];
            debug_assert_eq!(
                r.start as usize, expected,
                "entry dev payload not contiguous"
            );
            expected = r.start as usize + r.len as usize;
            next.dev_index.push(Region::new(
                dstart + r.start as usize - base,
                r.len as usize,
            ));
        }
    }
    debug_assert_eq!(next.cands.len(), next.dev_index.len());
    if !skip_remap {
        for c in &mut next.cands[cand_start..] {
            c.tn = new_tn;
            match &mut c.kind {
                LacKind::Constant(_) => {}
                LacKind::Wire { sn, .. } => *sn = img(*sn),
                LacKind::Binary { sns, .. } => {
                    for s in sns.iter_mut() {
                        *s = img(*s);
                    }
                }
                LacKind::Ternary { sns, .. } => {
                    for s in sns.iter_mut() {
                        *s = img(*s);
                    }
                }
            }
        }
    }
    let deps_start = next.deps.len();
    next.deps.extend_from_slice(&old.deps[meta.deps.range()]);
    for d in &mut next.deps[deps_start..] {
        *d = img(*d);
    }
    let fo_start = next.fo_deps.len();
    next.fo_deps
        .extend_from_slice(&old.fo_deps[meta.fo_deps.range()]);
    for d in &mut next.fo_deps[fo_start..] {
        *d = img(*d);
    }
    EntryMeta {
        cands: Region::new(cand_start, meta.cands.len as usize),
        deps: Region::new(deps_start, meta.deps.len as usize),
        fo_deps: Region::new(fo_start, meta.fo_deps.len as usize),
        wire_floor: meta.wire_floor,
        extra_floor: meta.extra_floor,
        born: meta.born,
        epoch: next.epoch,
    }
}

/// One parallel regeneration chunk: entries built into a private
/// mini-arena (regions local to it), appended into the epoch arena
/// sequentially afterwards so the final layout is thread-count
/// independent.
struct ChunkBuild {
    metas: Vec<EntryMeta>,
    arena: CandArena,
    ctrs: GenCounters,
}

/// Persistent cross-round candidate generator. See the module docs for
/// the invalidation contract; the headline guarantee is that
/// [`CandidateStore::generate`] returns exactly what
/// [`crate::generate_candidates`] would, at any thread count.
#[derive(Debug, Default)]
pub struct CandidateStore {
    stride: usize,
    n_patterns: usize,
    generation: u64,
    cfg_key: Option<CandidateConfig>,
    entries: Vec<Option<EntryMeta>>,
    /// The live epoch's arena, and the previous epoch's (kept to reuse
    /// its allocations as the next epoch's target).
    arena: CandArena,
    spare: CandArena,
    // Snapshot of the revision `entries` belongs to. The simulation is
    // a shared handle, not a copy.
    snap_nodes: Vec<Node>,
    snap_levels: Vec<u32>,
    snap_live: Vec<bool>,
    snap_sim: Option<Sim>,
    snap_pool: Vec<NodeId>,
    stats: StoreStats,
    last_counters: GenCounters,
    /// Test-support fault injection: skip survival condition 3 (exact
    /// fanout-list preservation) during carry. See
    /// [`CandidateStore::inject_skip_fanout_invalidation`].
    skip_fanout_invalidation: bool,
    /// Test-support fault injection: carry region copies without the
    /// remap rewrite. See [`CandidateStore::inject_stale_arena_carry`].
    stale_arena_carry: bool,
}

/// Positive (non-negated) node image, or `None`.
fn node_image(remap: &[Option<Lit>], n: NodeId) -> Option<NodeId> {
    match image(remap, Lit::new(n, false)) {
        Some(l) if !l.is_neg() => Some(l.node()),
        _ => None,
    }
}

impl CandidateStore {
    /// An empty store; the first [`CandidateStore::generate`] fills it.
    pub fn new() -> Self {
        CandidateStore::default()
    }

    /// Behaviour counters since construction.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The candgen sub-phase counters of the last
    /// [`CandidateStore::generate`] call: probe draws and strip
    /// comparisons of the regenerated nodes, plus the carry (pool
    /// hit/miss) split.
    pub fn last_gen_counters(&self) -> GenCounters {
        self.last_counters
    }

    /// Rolls the store forward to the circuit revision `(aig, sim)` and
    /// returns the full candidate list, bit-identical to
    /// [`crate::generate_candidates`] on the same inputs.
    ///
    /// `remap` maps node ids of the previous revision to literals of
    /// `aig`, exactly as returned by [`aig::Aig::cleanup`] after the
    /// round's edit; `None` (first round, or an unknown edit) flushes
    /// every entry. Dirty nodes are regenerated on `pool`; results are
    /// independent of the thread count.
    ///
    /// `window` restricts the round to a target region: a windowed call
    /// never carries (it ignores `remap`), so the store then holds
    /// entries for exactly the in-window nodes, every one regenerated,
    /// and the list equals
    /// [`crate::generate_candidates_windowed_counted`] on the same
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if `sim` does not match `aig`.
    pub fn generate(
        &mut self,
        aig: &Aig,
        sim: &Sim,
        cfg: &CandidateConfig,
        remap: Option<&[Option<Lit>]>,
        pool: &'static ThreadPool,
        window: Option<&[bool]>,
    ) -> Vec<Lac> {
        assert_eq!(sim.n_nodes(), aig.n_nodes(), "simulation is stale");
        if let Some(w) = window {
            assert!(w.len() >= aig.n_nodes(), "window mask is stale");
        }
        self.generation += 1;
        self.stats.rounds += 1;
        self.last_counters = GenCounters::default();
        let n_new = aig.n_nodes();
        let stride = sim.stride();
        let levels = aig.levels().expect("acyclic");
        let live = aig.live_mask();
        let fanouts = Fanouts::build(aig);
        let (pool_nodes, pool_levels) = build_pool(aig, &levels, &live);
        let pool_keys = crate::gen::pool_sig_keys(sim, &pool_nodes);

        // The previous epoch's arena becomes the next epoch's target;
        // its buffers are already sized for a full circuit worth of
        // entries, so carry and regen both append without reallocating
        // in the steady state.
        let mut next = std::mem::take(&mut self.spare);
        next.reset(self.generation);
        next.reserve_like(&self.arena);

        let carried = if self.snap_nodes.is_empty()
            || stride != self.stride
            || sim.n_patterns() != self.n_patterns
            || self.cfg_key.as_ref() != Some(cfg)
            || window.is_some()
        {
            None
        } else {
            remap.and_then(|r| {
                self.carry(
                    aig,
                    sim,
                    cfg,
                    &levels,
                    &live,
                    &fanouts,
                    &pool_nodes,
                    &pool_keys,
                    r,
                    &mut next,
                )
            })
        };
        let mut entries = match carried {
            Some(entries) => entries,
            None => {
                if self.entries.iter().any(Option::is_some) {
                    self.stats.flushes += 1;
                }
                vec![None; n_new]
            }
        };

        // Regenerate every live AND node without a surviving entry, in
        // parallel. gen_node depends only on (ctx, id), so chunking is
        // unobservable in the results: each chunk builds a private
        // mini-arena, and the chunks are appended in dirty order. A
        // windowed call starts from an empty table and fills exactly
        // its in-window nodes.
        let in_window = |id: &NodeId| window.is_none_or(|w| w[id.index()]);
        let dirty: Vec<NodeId> = aig
            .and_ids()
            .filter(|id| live[id.index()] && in_window(id) && entries[id.index()].is_none())
            .collect();
        self.stats.regenerated += dirty.len();
        if !dirty.is_empty() {
            let ctx = GenCtx {
                aig,
                sim,
                cfg,
                levels: &levels,
                live: &live,
                fanouts: &fanouts,
                pool: &pool_nodes,
                pool_levels: &pool_levels,
                pool_keys: &pool_keys,
            };
            let born = self.generation;
            let build_range = |range: std::ops::Range<usize>| {
                let mut scratch = GenScratch::new(n_new);
                let mut node = NodeGen::default();
                let mut sig = vec![0u64; stride];
                let mut cb = ChunkBuild {
                    metas: Vec::with_capacity(range.len()),
                    arena: CandArena::default(),
                    ctrs: GenCounters::default(),
                };
                for k in range {
                    crate::gen::gen_node(&ctx, dirty[k], &mut scratch, &mut node, &mut cb.ctrs);
                    cb.metas
                        .push(cb.arena.push_node(&node, sim, &mut sig, born));
                }
                cb
            };
            // Chunk layout is append-in-dirty-order either way, so the
            // output is independent of how the ranges are scheduled;
            // small dirty sets (the steady state after a local commit)
            // skip the pool dispatch entirely.
            let chunk = dirty.len().div_ceil(pool.threads() * 2).max(1);
            let built: Vec<ChunkBuild> = if dirty.len() <= 64 || pool.threads() == 1 {
                vec![build_range(0..dirty.len())]
            } else {
                pool.par_chunk_results(dirty.len(), chunk, |_, range| build_range(range))
            };
            let mut ids = dirty.iter();
            for cb in built {
                self.last_counters.merge(&cb.ctrs);
                let base_c = next.cands.len();
                let base_d = next.deps.len();
                let base_f = next.fo_deps.len();
                let base_w = next.dev_words.len();
                next.cands.extend_from_slice(&cb.arena.cands);
                next.deps.extend_from_slice(&cb.arena.deps);
                next.fo_deps.extend_from_slice(&cb.arena.fo_deps);
                next.dev_words.extend_from_slice(&cb.arena.dev_words);
                next.dev_bits.extend_from_slice(&cb.arena.dev_bits);
                next.dev_index.extend(
                    cb.arena
                        .dev_index
                        .iter()
                        .map(|r| Region::new(base_w + r.start as usize, r.len as usize)),
                );
                for meta in cb.metas {
                    let id = ids.next().expect("one entry per dirty node");
                    entries[id.index()] = Some(EntryMeta {
                        cands: Region::new(
                            base_c + meta.cands.start as usize,
                            meta.cands.len as usize,
                        ),
                        deps: Region::new(
                            base_d + meta.deps.start as usize,
                            meta.deps.len as usize,
                        ),
                        fo_deps: Region::new(
                            base_f + meta.fo_deps.start as usize,
                            meta.fo_deps.len as usize,
                        ),
                        epoch: next.epoch,
                        ..meta
                    });
                }
            }
            debug_assert_eq!(next.cands.len(), next.dev_index.len());
        }

        // Install the new epoch; the old arena becomes the spare.
        self.spare = std::mem::replace(&mut self.arena, next);
        self.entries = entries;

        // Snapshot this revision for the next roll.
        self.stride = stride;
        self.n_patterns = sim.n_patterns();
        self.cfg_key = Some(cfg.clone());
        self.snap_nodes = (0..n_new).map(|i| *aig.node(NodeId::new(i))).collect();
        self.snap_sim = Some(sim.clone());
        self.snap_levels = levels;
        self.snap_live = live;
        self.snap_pool = pool_nodes;

        let mut out = Vec::with_capacity(self.arena.cands.len());
        for m in self.entries.iter().flatten() {
            debug_assert_eq!(m.epoch, self.arena.epoch, "stale entry epoch");
            out.extend_from_slice(&self.arena.cands[m.cands.range()]);
        }
        out
    }

    /// Deviation masks aligned one-to-one with the flat candidate list
    /// returned by the last [`CandidateStore::generate`] call, borrowed
    /// from the arena (no payload is copied or allocated).
    pub fn devs(&self) -> Vec<DevView<'_>> {
        let mut out = Vec::with_capacity(self.arena.cands.len());
        for m in self.entries.iter().flatten() {
            debug_assert_eq!(m.epoch, self.arena.epoch, "stale entry epoch");
            for ci in m.cands.range() {
                let r = self.arena.dev_index[ci];
                out.push(DevView {
                    words: &self.arena.dev_words[r.range()],
                    bits: &self.arena.dev_bits[r.range()],
                });
            }
        }
        out
    }

    /// Computes the surviving entry table (copying survivors into
    /// `next`), or `None` to flush.
    #[allow(clippy::too_many_arguments)]
    fn carry(
        &mut self,
        aig: &Aig,
        sim: &Sim,
        cfg: &CandidateConfig,
        levels: &[u32],
        live: &[bool],
        fanouts: &Fanouts,
        pool_nodes: &[NodeId],
        pool_keys: &[u64],
        remap: &[Option<Lit>],
        next: &mut CandArena,
    ) -> Option<Vec<Option<EntryMeta>>> {
        let n_new = aig.n_nodes();
        let snap = self.snap_sim.clone().expect("carrying requires a snapshot");

        // Positive, collision-free preimages. A negated image (strash
        // folding during cleanup) marks the node dirty rather than
        // phase-correcting its truth tables — such images are rare.
        let mut pre: Vec<Option<u32>> = vec![None; n_new];
        let mut collide = vec![false; n_new];
        for (p, img) in remap.iter().enumerate() {
            if let Some(l) = img {
                let m = l.node().index();
                if pre[m].is_some() || l.is_neg() {
                    collide[m] = true;
                } else {
                    pre[m] = Some(p as u32);
                }
            }
        }

        // Per-node cleanliness at two bars. `struct_clean`: identical
        // structure and liveness through the remap — all a *fanout*
        // contributes to generation (its fanins become siblings; its
        // signature is never read), so unordered fanin comparison
        // suffices. `clean` additionally requires equal level,
        // full-word signature, and *ordered* fanin equality — the bar
        // for the target itself, its local divisors, and its drawn
        // probes: generation walks fanins and grand-fanins in stored
        // order, and `Aig::and` canonicalizes operand order by literal
        // value, which a compaction can legitimately flip. Full-word
        // signatures (not pattern-masked) because deviation masks are
        // stored verbatim. (Relaxing the dep bar to level-*membership*
        // — same side of the `level <= target level` eligibility test —
        // was prototyped and measured: on the alu4/ER flow it reclaims
        // 5 of 7475 regenerations, because dep invalidations are
        // overwhelmingly dead nodes and genuine signature changes in
        // the committed LAC's fanout cone, not depth-only shifts. The
        // equal-level bar keeps the simpler soundness argument.)
        let mut struct_clean = vec![false; n_new];
        let mut clean = vec![false; n_new];
        for m in 0..n_new {
            let Some(p) = pre[m] else { continue };
            if collide[m] {
                continue;
            }
            let p = p as usize;
            let id = NodeId::new(m);
            struct_clean[m] = self
                .snap_nodes
                .get(p)
                .is_some_and(|old| struct_eq(aig.node(id), old, remap))
                && live[m] == self.snap_live[p];
            clean[m] = struct_clean[m]
                && self
                    .snap_nodes
                    .get(p)
                    .is_some_and(|old| struct_eq_ordered(aig.node(id), old, remap))
                && levels[m] == self.snap_levels[p]
                && sim.sig(id) == snap.sig(NodeId::new(p));
        }

        // Pool-dirty nodes: members of the new pool that are *not* the
        // positive image of an old pool node with identical level and
        // signature — nodes that entered some target's probe universe,
        // or changed the weight they present to it. An entry is
        // invalidated when such a node, within the entry's visible
        // level range, reaches one of its selection floors (it would
        // now be drawn). Nodes that *left* a universe need no check
        // here: if they were drawn they are deps (caught below), and
        // an undrawn node sat below the floor, where its removal
        // cannot alter the selection.
        let mut stable = vec![false; n_new];
        let mut stable_old_pos = vec![0u32; n_new];
        for (op, &old) in self.snap_pool.iter().enumerate() {
            if let Some(m) = node_image(remap, old) {
                let p = old.index();
                if levels[m.index()] == self.snap_levels[p] && sim.sig(m) == snap.sig(old) {
                    stable[m.index()] = true;
                    stable_old_pos[m.index()] = op as u32;
                }
            }
        }
        // Rendezvous ties: nodes with identical signatures share a key,
        // hence present identical weights to every target, and the draw
        // breaks such ties toward the earlier pool position. A tie
        // between two *stable* nodes is therefore decided purely by
        // their relative pool order — which a compaction can flip by
        // renumbering. Demote every signature-key group of stable nodes
        // whose relative order changed; demoted nodes join the dirty
        // pool and are checked against the selection floors like any
        // other entrant. (Ties between a stable node and a genuinely
        // dirty one need no demotion: the dirty twin's equal weight
        // already trips the `>=` floor check wherever the stable twin
        // was drawn.)
        let mut by_key: std::collections::HashMap<u64, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, v) in pool_nodes.iter().enumerate() {
            if stable[v.index()] {
                by_key.entry(pool_keys[i]).or_default().push(v.index());
            }
        }
        for members in by_key.values() {
            if members.len() > 1
                && !members
                    .windows(2)
                    .all(|w| stable_old_pos[w[0]] < stable_old_pos[w[1]])
            {
                for &m in members {
                    stable[m] = false;
                }
            }
        }
        let dirty_pool: Vec<(u32, u64)> = pool_nodes
            .iter()
            .enumerate()
            .filter(|(_, v)| !stable[v.index()])
            .map(|(i, v)| (levels[v.index()], pool_keys[i]))
            .collect();

        let mut out: Vec<Option<EntryMeta>> = vec![None; n_new];
        let mut carried = 0usize;
        for m in 0..n_new {
            let Some(p) = pre[m].map(|p| p as usize) else {
                continue;
            };
            if collide[m] {
                continue;
            }
            let Some(meta) = self.entries.get(p).copied().flatten() else {
                continue;
            };
            if !clean[m] {
                continue;
            }
            let id = NodeId::new(m);
            // Exact positional fanout-list preservation: the fanout
            // list is a generation input (each fanout contributes its
            // other fanin as a sibling divisor, discovered in list
            // order), and a substitute node silently inherits its
            // replaced target's consumers *through* the remap — so the
            // old fanouts, remapped, must be exactly the new list.
            // `struct_clean` then pins each fanout's sibling edges.
            let fos = fanouts.of(id);
            let fo_deps = &self.arena.fo_deps[meta.fo_deps.range()];
            let fo_ok = fos.len() == fo_deps.len()
                && fo_deps
                    .iter()
                    .zip(fos)
                    .all(|(&d, &f)| node_image(remap, d) == Some(f) && struct_clean[f.index()]);
            if !fo_ok && !self.skip_fanout_invalidation {
                continue;
            }
            let deps = &self.arena.deps[meta.deps.range()];
            if !deps
                .iter()
                .all(|&d| node_image(remap, d).is_some_and(|i| clean[i.index()]))
            {
                continue;
            }
            // Wire ranking and binary/ternary divisor keys break
            // equal-deviation ties by node id, so the remap must
            // preserve the relative id order of everything those
            // rankings compared — all deps (stored ascending; images
            // must stay strictly ascending).
            let dep_order_ok = {
                let mut last = -1i64;
                deps.iter().all(|&d| match node_image(remap, d) {
                    Some(i) => {
                        let ix = i.index() as i64;
                        let ok = ix > last;
                        last = ix;
                        ok
                    }
                    None => false,
                })
            };
            if !dep_order_ok {
                continue;
            }
            let pool_ok = {
                let lvl = levels[m];
                dirty_pool.is_empty() || {
                    let (wt, et) = crate::gen::probe_tweaks(cfg.seed, sig_key(sim.sig(id)));
                    !dirty_pool.iter().any(|&(dl, dk)| {
                        dl <= lvl
                            && (crate::gen::pair_weight(wt, dk) >= meta.wire_floor
                                || crate::gen::pair_weight(et, dk) >= meta.extra_floor)
                    })
                }
            };
            if !pool_ok {
                continue;
            }
            out[m] = Some(carry_entry(
                &self.arena,
                &meta,
                next,
                id,
                remap,
                self.stale_arena_carry,
            ));
            carried += 1;
        }
        self.stats.carried += carried;
        self.last_counters.pool_hits = carried as u64;
        Some(out)
    }

    /// Forks the store at its current revision: the fork holds the same
    /// entries, arena, and snapshot, so rolling it forward along a
    /// *different* branch of edits yields exactly what a store that had
    /// followed that branch alone would hold. The spare arena is not
    /// copied — it is reset before every use, so the fork starts with a
    /// fresh one. Fault-injection flags are carried so a faulted sweep
    /// stays faulted across forks.
    pub fn fork(&self) -> CandidateStore {
        CandidateStore {
            stride: self.stride,
            n_patterns: self.n_patterns,
            generation: self.generation,
            cfg_key: self.cfg_key.clone(),
            entries: self.entries.clone(),
            arena: self.arena.clone(),
            spare: CandArena::default(),
            snap_nodes: self.snap_nodes.clone(),
            snap_levels: self.snap_levels.clone(),
            snap_live: self.snap_live.clone(),
            snap_sim: self.snap_sim.clone(),
            snap_pool: self.snap_pool.clone(),
            stats: self.stats,
            last_counters: self.last_counters,
            skip_fanout_invalidation: self.skip_fanout_invalidation,
            stale_arena_carry: self.stale_arena_carry,
        }
    }

    /// The generation the entry of `n` was last rebuilt in, if any
    /// (diagnostics / tests).
    #[doc(hidden)]
    pub fn entry_born(&self, n: NodeId) -> Option<u64> {
        self.entries
            .get(n.index())
            .and_then(Option::as_ref)
            .map(|e| e.born)
    }

    /// Test-support fault injection: when enabled, carry skips survival
    /// condition 3 (exact positional fanout-list preservation), so an
    /// entry whose target silently inherited new consumers through the
    /// remap is carried stale. The `fuzzkit` harness uses this to prove
    /// its differential oracles catch a deliberately broken invalidation
    /// contract. Never enable outside tests.
    #[doc(hidden)]
    pub fn inject_skip_fanout_invalidation(&mut self, on: bool) {
        self.skip_fanout_invalidation = on;
    }

    /// Test-support fault injection: when enabled, carry copies a
    /// surviving entry's arena regions into the new epoch *without*
    /// rewriting the candidate payload through the cleanup remap — the
    /// exact hazard the arena epoch discipline exists to prevent
    /// (treating an old epoch's payload as current). Whenever a carried
    /// node's id actually shifted, the store's output diverges from
    /// fresh generation, which the differential oracles must catch.
    /// Never enable outside tests.
    #[doc(hidden)]
    pub fn inject_stale_arena_carry(&mut self, on: bool) {
        self.stale_arena_carry = on;
    }
}

/// Like [`struct_eq`], but the fanins must match *positionally*.
/// Generation walks fanins and grand-fanins in stored order, and
/// [`Aig::and`] canonicalizes operand order by literal value — which a
/// cleanup's renumbering can legitimately flip — so nodes whose fanin
/// *order* changed must not be treated as clean generation inputs.
fn struct_eq_ordered(new: &Node, old: &Node, remap: &[Option<Lit>]) -> bool {
    match (new, old) {
        (Node::And(a, b), Node::And(oa, ob)) => {
            image(remap, *oa) == Some(*a) && image(remap, *ob) == Some(*b)
        }
        _ => struct_eq(new, old, remap),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate_candidates;
    use bitsim::{simulate, Patterns};

    fn leaked_pool(threads: usize) -> &'static ThreadPool {
        Box::leak(Box::new(ThreadPool::new(threads)))
    }

    #[test]
    fn first_generation_matches_fresh() {
        let g = benchgen::adders::rca(8);
        let pats = Patterns::exhaustive(16);
        let sim = simulate(&g, &pats);
        let cfg = CandidateConfig::default();
        let fresh = generate_candidates(&g, &sim, &cfg);
        for threads in [1, 4] {
            let mut store = CandidateStore::new();
            let got = store.generate(&g, &sim, &cfg, None, leaked_pool(threads), None);
            assert_eq!(got, fresh, "threads={threads}");
            assert_eq!(store.devs().len(), got.len());
        }
    }

    #[test]
    fn rolled_generation_matches_fresh_and_carries() {
        let g0 = benchgen::adders::rca(8);
        let pats = Patterns::random(16, 256, 7);
        let sim0 = simulate(&g0, &pats);
        let cfg = CandidateConfig::default();
        let mut store = CandidateStore::new();
        let cands0 = store.generate(&g0, &sim0, &cfg, None, leaked_pool(2), None);
        assert!(!cands0.is_empty());

        // Apply a wire LAC at the latest target (smallest transitive
        // fanout — in a ripple-carry adder an early-bit edit would
        // legitimately dirty the whole carry chain) and clean up.
        let pick = cands0
            .iter()
            .rev()
            .find(|l| matches!(l.kind, LacKind::Wire { .. }))
            .expect("some wire candidate");
        let mut g1 = g0.clone();
        crate::apply(&mut g1, pick).unwrap();
        let remap = g1.cleanup().unwrap();
        let sim1 = simulate(&g1, &pats);

        let rolled = store.generate(&g1, &sim1, &cfg, Some(&remap), leaked_pool(2), None);
        let fresh = generate_candidates(&g1, &sim1, &cfg);
        assert_eq!(rolled, fresh);
        let stats = store.stats();
        assert!(stats.carried > 0, "roll carried nothing: {stats:?}");
        let ctrs = store.last_gen_counters();
        assert_eq!(ctrs.pool_hits, stats.carried as u64);
        assert!(ctrs.pool_misses > 0, "the edit must dirty something");
        assert!(ctrs.probe_draws > 0 && ctrs.strip_cmps > 0, "{ctrs:?}");

        // Dev masks match a direct recomputation.
        let devs = store.devs();
        assert_eq!(devs.len(), rolled.len());
        let mut scratch = vec![0u64; sim1.stride()];
        for (lac, dev) in rolled.iter().zip(&devs) {
            let direct = DevMask::of(&sim1, lac, &mut scratch);
            assert_eq!(dev.words, &*direct.words, "{lac}: dev words drifted");
            assert_eq!(dev.bits, &*direct.bits, "{lac}: dev bits drifted");
        }
    }

    #[test]
    fn touched_fanout_sibling_forces_regeneration() {
        // X = a & b and S = T & e share the fanout F = X & S, making S
        // (well, S's cone) part of X's generation inputs via the
        // fanout-sibling divisors. Replacing S by the wire T must
        // regenerate X — even though X's own fanins, level, and
        // signature are untouched — while the unrelated same-level
        // control node W = e & f survives the roll.
        let mut g = Aig::new("sib", 6);
        let (a, b, c, d, e, f) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3), g.pi(4), g.pi(5));
        let x = g.and(a, b);
        let t = g.and(c, d);
        let s = g.and(t, e);
        let fo = g.and(x, s);
        let w = g.and(e, f);
        g.add_output(fo, "fo");
        g.add_output(w, "w");
        g.add_output(t, "t"); // keep T live after S is bypassed

        let pats = Patterns::exhaustive(6);
        let sim = simulate(&g, &pats);
        let cfg = CandidateConfig::default();
        let mut store = CandidateStore::new();
        store.generate(&g, &sim, &cfg, None, leaked_pool(1), None);
        assert_eq!(store.entry_born(x.node()), Some(1));
        assert_eq!(store.entry_born(w.node()), Some(1));

        let mut g1 = g.clone();
        crate::apply(
            &mut g1,
            &Lac::new(
                s.node(),
                LacKind::Wire {
                    sn: t.node(),
                    neg: false,
                },
            ),
        )
        .unwrap();
        let remap = g1.cleanup().unwrap();
        let sim1 = simulate(&g1, &pats);
        let rolled = store.generate(&g1, &sim1, &cfg, Some(&remap), leaked_pool(1), None);
        assert_eq!(rolled, generate_candidates(&g1, &sim1, &cfg));

        let x1 = remap[x.node().index()].unwrap().node();
        let w1 = remap[w.node().index()].unwrap().node();
        assert_eq!(
            store.entry_born(x1),
            Some(2),
            "sibling edit must dirty X: {:?}",
            store.stats()
        );
        assert_eq!(
            store.entry_born(w1),
            Some(1),
            "unrelated node must survive: {:?}",
            store.stats()
        );
    }

    #[test]
    fn stale_arena_carry_fault_is_observable() {
        // Same two-subcircuit shape as above: bypassing S frees a node,
        // so cleanup shifts the ids of everything behind it — including
        // the carried control node W. With the stale-arena fault on,
        // W's carried candidates keep their old-epoch node ids, so the
        // store's output must diverge from fresh generation (this is
        // the divergence the differential oracles exist to catch).
        let build = || {
            let mut g = Aig::new("sib", 6);
            let (a, b, c, d, e, f) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3), g.pi(4), g.pi(5));
            let x = g.and(a, b);
            let t = g.and(c, d);
            let s = g.and(t, e);
            let fo = g.and(x, s);
            let w = g.and(e, f);
            g.add_output(fo, "fo");
            g.add_output(w, "w");
            g.add_output(t, "t");
            (g, s, t, w)
        };
        let run = |fault: bool| {
            let (g, s, t, w) = build();
            let pats = Patterns::exhaustive(6);
            let sim = simulate(&g, &pats);
            let cfg = CandidateConfig::default();
            let mut store = CandidateStore::new();
            store.inject_stale_arena_carry(fault);
            store.generate(&g, &sim, &cfg, None, leaked_pool(1), None);
            let mut g1 = g.clone();
            crate::apply(
                &mut g1,
                &Lac::new(
                    s.node(),
                    LacKind::Wire {
                        sn: t.node(),
                        neg: false,
                    },
                ),
            )
            .unwrap();
            let remap = g1.cleanup().unwrap();
            // The carried node's id must actually shift, or the fault
            // would be unobservable by construction.
            assert_ne!(remap[w.node().index()].unwrap().node(), w.node());
            let sim1 = simulate(&g1, &pats);
            let rolled = store.generate(&g1, &sim1, &cfg, Some(&remap), leaked_pool(1), None);
            let fresh = generate_candidates(&g1, &sim1, &cfg);
            assert!(
                store.stats().carried > 0,
                "fault path not exercised: {:?}",
                store.stats()
            );
            (rolled, fresh)
        };
        let (clean_rolled, clean_fresh) = run(false);
        assert_eq!(clean_rolled, clean_fresh, "control: no fault, no drift");
        let (rolled, fresh) = run(true);
        assert_ne!(
            rolled, fresh,
            "stale-arena carry must be observable in the candidate list"
        );
    }

    #[test]
    fn config_change_flushes() {
        let g = benchgen::adders::rca(4);
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let mut store = CandidateStore::new();
        store.generate(
            &g,
            &sim,
            &CandidateConfig::default(),
            None,
            leaked_pool(1),
            None,
        );
        let altered = CandidateConfig {
            k_wire: 5,
            ..CandidateConfig::default()
        };
        let identity = aig::remap::identity(g.n_nodes());
        let got = store.generate(&g, &sim, &altered, Some(&identity), leaked_pool(1), None);
        assert_eq!(got, generate_candidates(&g, &sim, &altered));
        assert_eq!(store.stats().flushes, 1);
    }
}
