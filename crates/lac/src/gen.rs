use crate::kinds::{Lac, LacKind};
use crate::strips::{and_counts, tt2_from_pops, tt3_counts, xor_distance};
use aig::{Aig, Fanouts, Node, NodeId};
use bitsim::Sim;
use prng::RngCore;

/// Tuning knobs for [`generate_candidates`].
///
/// The defaults correspond to the setup used by the experiment harness:
/// a handful of candidates per node across the three LAC families, with
/// signature-distance pre-ranking so the batch estimator sees promising
/// candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateConfig {
    /// Generate constant-0/1 LACs.
    pub constants: bool,
    /// Generate SASIMI-style wire LACs.
    pub wires: bool,
    /// Generate ALSRAC-style binary resubstitution LACs.
    pub binaries: bool,
    /// Random wire-substitute probes per target node.
    pub max_wire_probes: usize,
    /// Wire candidates kept per target node.
    pub k_wire: usize,
    /// Divisors considered for binary resubstitution per target node.
    pub max_divisors: usize,
    /// Binary candidates kept per target node.
    pub k_binary: usize,
    /// Generate three-input resubstitution LACs (an ALSRAC extension;
    /// off by default to match the paper's two-input setup).
    pub ternaries: bool,
    /// Ternary candidates kept per target node.
    pub k_ternary: usize,
    /// Seed for the probe sampler (generation is fully deterministic for
    /// a given seed).
    pub seed: u64,
}

impl Default for CandidateConfig {
    fn default() -> Self {
        CandidateConfig {
            constants: true,
            wires: true,
            binaries: true,
            max_wire_probes: 48,
            k_wire: 3,
            max_divisors: 8,
            k_binary: 3,
            ternaries: false,
            k_ternary: 2,
            seed: 0x1ac5eed,
        }
    }
}

/// Divisor slots reserved for the random "diversify" probes, so they
/// survive even when the local divisors alone would fill
/// `max_divisors` (see [`assemble_divisors`]).
pub(crate) const DIVISOR_PROBE_RESERVE: usize = 2;

/// Shared read-only inputs for per-node candidate generation, built
/// once per circuit revision and usable from any thread.
pub(crate) struct GenCtx<'a> {
    pub aig: &'a Aig,
    pub sim: &'a Sim,
    pub cfg: &'a CandidateConfig,
    pub levels: &'a [u32],
    pub live: &'a [bool],
    pub fanouts: &'a Fanouts,
    /// Substitute pool sorted by level (see [`build_pool`]).
    pub pool: &'a [NodeId],
    /// Level of each pool entry, for `partition_point` prefix lookups.
    pub pool_levels: &'a [u32],
    /// Signature key of each pool entry (see [`pool_sig_keys`]).
    pub pool_keys: &'a [u64],
}

/// One node's generated candidates plus the inputs the generation read,
/// which [`crate::CandidateStore`] tracks for exact invalidation.
#[derive(Debug, Clone, Default)]
pub(crate) struct NodeGen {
    /// Candidates in emission order (constants, wires, binaries,
    /// ternaries).
    pub cands: Vec<Lac>,
    /// Every node whose signature, level, or liveness the generation
    /// read: fanins, grand-fanins, fanout siblings, and all drawn pool
    /// probes. Sorted and deduplicated.
    pub deps: Vec<NodeId>,
    /// The target's fanouts. Only their *structure* (and liveness) was
    /// read — they contribute siblings, never signatures — so the store
    /// holds them to a weaker invalidation bar than `deps`.
    pub fo_deps: Vec<NodeId>,
    /// Rendezvous-weight floor of the wire-probe draw: a pool node that
    /// enters this target's visible range (or changes its signature)
    /// alters the draw iff its weight reaches the floor. `u64::MAX`
    /// when the family is off (nothing can enter), `0` when the range
    /// could not fill the draw (anything entering would be selected).
    pub wire_floor: u64,
    /// Same, for the binary-divisor "diversify" extras.
    pub extra_floor: u64,
}

/// Sub-phase counters for one candidate-generation pass, surfaced
/// through the flow's `RoundTrace` so candgen regressions are
/// attributable without a profiler. Deterministic for a given circuit
/// revision and config — independent of thread count and carry/fresh
/// path for everything except the pool hit/miss split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GenCounters {
    /// Rendezvous weight evaluations across all probe draws.
    pub probe_draws: u64,
    /// Strip-kernel invocations: wire signature distances plus
    /// binary/ternary truth-table scans.
    pub strip_cmps: u64,
    /// Store entries carried across a roll (always 0 on the fresh
    /// path).
    pub pool_hits: u64,
    /// Nodes whose candidates were (re)generated.
    pub pool_misses: u64,
}

impl GenCounters {
    /// Accumulates `other` into `self` (merging per-worker counters).
    pub fn merge(&mut self, other: &GenCounters) {
        self.probe_draws += other.probe_draws;
        self.strip_cmps += other.strip_cmps;
        self.pool_hits += other.pool_hits;
        self.pool_misses += other.pool_misses;
    }
}

/// A stamped membership set over node ids: `O(1)` insert with no
/// clearing between nodes (bumping the stamp invalidates every mark),
/// replacing the `Vec::contains` scans in the candgen hot loop.
pub(crate) struct SeenSet {
    stamp: u64,
    marks: Vec<u64>,
}

impl SeenSet {
    pub(crate) fn new(n_nodes: usize) -> Self {
        SeenSet {
            stamp: 0,
            marks: vec![0; n_nodes],
        }
    }

    fn begin(&mut self) {
        self.stamp += 1;
    }

    /// Returns `true` the first time `n` is inserted after `begin`.
    fn insert(&mut self, n: NodeId) -> bool {
        let m = &mut self.marks[n.index()];
        if *m == self.stamp {
            false
        } else {
            *m = self.stamp;
            true
        }
    }
}

/// Reusable per-worker buffers for [`gen_node`]: one instance serves
/// every node a worker generates, so steady-state generation allocates
/// nothing per node. Purely workspace — cleared before use, never read
/// across nodes — so reuse cannot perturb the generated candidates.
pub(crate) struct GenScratch {
    seen: SeenSet,
    locals: Vec<NodeId>,
    probes: Vec<NodeId>,
    drawn: Vec<NodeId>,
    extras: Vec<NodeId>,
    divisors: Vec<NodeId>,
    /// `(pop(d), pop(t & d))` per divisor `d` of the current node.
    div_pops: Vec<(usize, usize)>,
    sel: Vec<(u64, u32)>,
    wire_scored: Vec<(usize, NodeId, bool)>,
    bin_scored: Vec<(usize, Lac)>,
    tern_scored: Vec<(usize, Lac)>,
}

impl GenScratch {
    pub(crate) fn new(n_nodes: usize) -> Self {
        GenScratch {
            seen: SeenSet::new(n_nodes),
            locals: Vec::new(),
            probes: Vec::new(),
            drawn: Vec::new(),
            extras: Vec::new(),
            divisors: Vec::new(),
            div_pops: Vec::new(),
            sel: Vec::new(),
            wire_scored: Vec::new(),
            bin_scored: Vec::new(),
            tern_scored: Vec::new(),
        }
    }
}

/// The substitute pool: live non-constant nodes sorted by level (stable,
/// so ties keep ascending id order), with their levels alongside so
/// "level <= L" prefixes can be sampled by `partition_point`.
pub(crate) fn build_pool(aig: &Aig, levels: &[u32], live: &[bool]) -> (Vec<NodeId>, Vec<u32>) {
    let mut pool: Vec<NodeId> = aig
        .node_ids()
        .skip(1) // constant node is covered by Constant LACs
        .filter(|&id| live[id.index()])
        .collect();
    pool.sort_by_key(|id| levels[id.index()]);
    let pool_levels = pool.iter().map(|id| levels[id.index()]).collect();
    (pool, pool_levels)
}

/// Stable per-node RNG key: a hash of the node's full simulation
/// signature. Node ids shift across cleanup, but a node whose
/// candidates survive a [`crate::CandidateStore`] roll has — by the
/// invalidation contract — an unchanged signature, so the key (and
/// hence the probe stream) is identical whether the node is carried or
/// regenerated, and fresh generation computes the same key from the
/// current circuit alone. A hash collision merely makes two nodes share
/// a stream, which is deterministic and harmless.
pub(crate) fn sig_key(sig: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15u64 ^ (sig.len() as u64);
    for &w in sig {
        h ^= w;
        h = h.wrapping_mul(0x2545_F491_4F6C_DD1D);
        h ^= h >> 29;
    }
    h
}

/// Signature keys of the pool entries, index-aligned with the pool.
pub(crate) fn pool_sig_keys(sim: &Sim, pool: &[NodeId]) -> Vec<u64> {
    pool.iter().map(|&v| sig_key(sim.sig(v))).collect()
}

/// Stream salts separating the wire-probe draw from the binary-extras
/// draw (two independent per-node streams off the same seed).
const WIRE_SALT: u64 = 0x5A51_3157_112E_5EED;
const EXTRA_SALT: u64 = 0xD157_B1A2_E87A_5EED;

/// The per-node RNG streams backing probe selection: one 64-bit tweak
/// per draw family, drawn from `prng::stream(cfg.seed + salt, node key)`.
/// Pool probes are then chosen by *rendezvous* (highest-weight) sampling
/// with the pairwise weight [`pair_weight`]`(tweak, probe key)` rather
/// than by pool-index arithmetic: a draw depends only on which nodes are
/// visible and on their signatures — never on their positions in the
/// pool — so a distant commit that merely shifts the pool cannot change
/// an untouched node's candidates, and [`crate::CandidateStore`] can
/// detect the draws that *would* change by comparing entering nodes'
/// weights against the stored selection floors.
pub(crate) fn probe_tweaks(seed: u64, node_key: u64) -> (u64, u64) {
    (
        prng::stream(seed ^ WIRE_SALT, node_key).next_u64(),
        prng::stream(seed ^ EXTRA_SALT, node_key).next_u64(),
    )
}

/// Rendezvous weight of a (target stream, probe) pair: a SplitMix64-style
/// finalizer over the tweak and the probe's signature key.
pub(crate) fn pair_weight(tweak: u64, probe_key: u64) -> u64 {
    let mut x = tweak ^ probe_key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// Selects the `k` highest-weight probes for `id` among the visible
/// pool prefix (excluding the target itself), appended to `out` in
/// descending-weight order with ties broken toward earlier pool
/// position. Returns the selection floor (see [`NodeGen::wire_floor`]).
#[allow(clippy::too_many_arguments)]
fn draw_probes(
    ctx: &GenCtx<'_>,
    id: NodeId,
    visible: usize,
    tweak: u64,
    k: usize,
    sel: &mut Vec<(u64, u32)>,
    out: &mut Vec<NodeId>,
    ctrs: &mut GenCounters,
) -> u64 {
    if k == 0 {
        return u64::MAX;
    }
    // (weight, pool position), best first. Scan order is ascending
    // position, so an equal-weight incumbent always has the earlier
    // position and wins the tie.
    sel.clear();
    let mut draws = 0u64;
    for (pos, &v) in ctx.pool[..visible].iter().enumerate() {
        if v == id {
            continue;
        }
        let w = pair_weight(tweak, ctx.pool_keys[pos]);
        draws += 1;
        if sel.len() == k {
            if w <= sel.last().unwrap().0 {
                continue;
            }
            sel.pop();
        }
        let at = sel.partition_point(|&(sw, _)| sw >= w);
        sel.insert(at, (w, pos as u32));
    }
    ctrs.probe_draws += draws;
    out.extend(sel.iter().map(|&(_, p)| ctx.pool[p as usize]));
    if sel.len() < k {
        0
    } else {
        sel.last().unwrap().0
    }
}

/// Builds the binary-resubstitution divisor list: up to
/// `max - DIVISOR_PROBE_RESERVE` locals, then the random extras, then
/// backfill from the remaining locals. Reserving slots guarantees the
/// random probes are never silently truncated away on well-connected
/// nodes (they used to be appended *after* the locals and then
/// truncated off whenever the locals alone filled `max`).
#[cfg(test)]
pub(crate) fn assemble_divisors(locals: &[NodeId], extras: &[NodeId], max: usize) -> Vec<NodeId> {
    let mut divisors = Vec::new();
    assemble_divisors_into(locals, extras, max, &mut divisors);
    divisors
}

/// [`assemble_divisors`] into a caller-owned (reusable) buffer.
fn assemble_divisors_into(
    locals: &[NodeId],
    extras: &[NodeId],
    max: usize,
    divisors: &mut Vec<NodeId>,
) {
    divisors.clear();
    let reserve = DIVISOR_PROBE_RESERVE.min(max);
    divisors.extend(locals.iter().copied().take(max - reserve));
    for &v in extras {
        if divisors.len() >= max {
            break;
        }
        if !divisors.contains(&v) {
            divisors.push(v);
        }
    }
    for &v in locals.iter().skip(max - reserve) {
        if divisors.len() >= max {
            break;
        }
        if !divisors.contains(&v) {
            divisors.push(v);
        }
    }
}

/// Generates the candidates of a single target node, with private RNG
/// streams keyed by the node's signature. Both [`generate_candidates`]
/// and [`crate::CandidateStore`] call this, which is what makes the
/// incremental store bit-identical to fresh generation: a node's output
/// depends only on `ctx` and the node itself, never on which other
/// nodes are (re)generated around it or on the thread that runs it.
pub(crate) fn gen_node(
    ctx: &GenCtx<'_>,
    id: NodeId,
    scratch: &mut GenScratch,
    out: &mut NodeGen,
    ctrs: &mut GenCounters,
) {
    let cfg = ctx.cfg;
    let n_patterns = ctx.sim.n_patterns();
    let lvl = ctx.levels[id.index()];
    let sig_n = ctx.sim.sig(id);
    out.cands.clear();
    out.deps.clear();
    out.fo_deps.clear();
    out.wire_floor = if cfg.wires { 0 } else { u64::MAX };
    out.extra_floor = if cfg.binaries { 0 } else { u64::MAX };
    ctrs.pool_misses += 1;

    if cfg.constants {
        out.cands.push(Lac::new(id, LacKind::Constant(false)));
        out.cands.push(Lac::new(id, LacKind::Constant(true)));
    }

    // Candidate substitutes visible to this node.
    let visible = ctx.pool_levels.partition_point(|&l| l <= lvl);
    if visible == 0 {
        return;
    }
    let (wire_tweak, extra_tweak) = probe_tweaks(cfg.seed, sig_key(sig_n));

    // Local divisors: fanins, grand-fanins, and fanout siblings.
    let seen = &mut scratch.seen;
    seen.begin();
    let locals = &mut scratch.locals;
    locals.clear();
    if let Node::And(a, b) = ctx.aig.node(id) {
        for f in [a.node(), b.node()] {
            if seen.insert(f) {
                locals.push(f);
            }
            if let Node::And(x, y) = ctx.aig.node(f) {
                for gf in [x.node(), y.node()] {
                    if seen.insert(gf) {
                        locals.push(gf);
                    }
                }
            }
        }
    }
    for &fo in ctx.fanouts.of(id) {
        out.fo_deps.push(fo);
        if let Node::And(x, y) = ctx.aig.node(fo) {
            for s in [x.node(), y.node()] {
                if s != id && seen.insert(s) {
                    locals.push(s);
                }
            }
        }
    }
    out.deps.extend_from_slice(locals);
    locals.retain(|&v| {
        v != id && v != NodeId::CONST0 && ctx.live[v.index()] && ctx.levels[v.index()] <= lvl
    });

    if cfg.wires {
        // Locals plus drawn pool probes, ranked by signature distance.
        // The visible pool prefix is live, level-bounded, and excludes
        // the constant, so a drawn probe can never equal a local that
        // `retain` dropped — the stamp set therefore dedups exactly as
        // scanning `probes` would.
        let probes = &mut scratch.probes;
        probes.clear();
        probes.extend_from_slice(locals);
        let drawn = &mut scratch.drawn;
        drawn.clear();
        out.wire_floor = draw_probes(
            ctx,
            id,
            visible,
            wire_tweak,
            cfg.max_wire_probes,
            &mut scratch.sel,
            drawn,
            ctrs,
        );
        for &v in drawn.iter() {
            out.deps.push(v);
            if seen.insert(v) {
                probes.push(v);
            }
        }
        let scored = &mut scratch.wire_scored;
        scored.clear();
        for &v in probes.iter() {
            let sig_v = ctx.sim.sig(v);
            let d_pos = xor_distance(sig_n, sig_v, n_patterns);
            ctrs.strip_cmps += 1;
            let d_neg = n_patterns - d_pos;
            scored.push((d_pos, v, false));
            scored.push((d_neg, v, true));
        }
        scored.sort_by_key(|&(d, v, neg)| (d, v, neg));
        for &(_, sn, neg) in scored.iter().take(cfg.k_wire) {
            out.cands.push(Lac::new(id, LacKind::Wire { sn, neg }));
        }
    }

    if cfg.binaries {
        // A couple of drawn extras diversify the divisor pool; the
        // slot assembly guarantees they survive the size cap.
        let extras = &mut scratch.extras;
        extras.clear();
        out.extra_floor = draw_probes(
            ctx,
            id,
            visible,
            extra_tweak,
            DIVISOR_PROBE_RESERVE,
            &mut scratch.sel,
            extras,
            ctrs,
        );
        out.deps.extend_from_slice(extras);
        assemble_divisors_into(locals, extras, cfg.max_divisors, &mut scratch.divisors);
        let divisors = &scratch.divisors;
        // The pair made of the target's own fanins with zero
        // deviation reconstructs the identical gate — a no-op.
        let fanin_pair: Option<[NodeId; 2]> = ctx.aig.fanins(id).map(|(a, b)| {
            let (mut x, mut y) = (a.node(), b.node());
            if x > y {
                std::mem::swap(&mut x, &mut y);
            }
            [x, y]
        });
        // Factored region counts: pop(t) once, pop(d) and pop(t & d)
        // once per divisor, so each pair scans only pop(a & b) and
        // pop(t & a & b).
        let t_ones = and_counts(sig_n, sig_n, sig_n, n_patterns).0;
        let div_pops = &mut scratch.div_pops;
        div_pops.clear();
        div_pops.extend(divisors.iter().map(|&v| {
            let s = ctx.sim.sig(v);
            and_counts(sig_n, s, s, n_patterns)
        }));
        let scored = &mut scratch.bin_scored;
        scored.clear();
        for (i, &v1) in divisors.iter().enumerate() {
            let s1 = ctx.sim.sig(v1);
            for (j, &v2) in divisors.iter().enumerate().skip(i + 1) {
                ctrs.strip_cmps += 1;
                let ab = and_counts(sig_n, s1, ctx.sim.sig(v2), n_patterns);
                let (ones, totals) =
                    tt2_from_pops(n_patterns, t_ones, div_pops[i], div_pops[j], ab);
                if let Some((tt, dev)) = fit_tt2(ones, totals) {
                    let (mut x, mut y) = (v1, v2);
                    if x > y {
                        std::mem::swap(&mut x, &mut y);
                    }
                    if dev == 0 && fanin_pair == Some([x, y]) {
                        continue;
                    }
                    scored.push((dev, Lac::new(id, LacKind::Binary { sns: [v1, v2], tt })));
                }
            }
        }
        scored.sort_by_key(|&(d, l)| (d, l.tn, sns_key(&l)));
        let keep_binary = cfg.k_binary.min(scored.len());
        for (_, l) in scored.iter().take(keep_binary) {
            out.cands.push(*l);
        }

        if cfg.ternaries && divisors.len() >= 3 {
            let tern = &mut scratch.tern_scored;
            tern.clear();
            // Bound the triple count: the first six divisors give
            // C(6,3) = 20 triples.
            let ds = &divisors[..divisors.len().min(6)];
            for i in 0..ds.len() {
                for j in i + 1..ds.len() {
                    for k in j + 1..ds.len() {
                        ctrs.strip_cmps += 1;
                        if let Some((tt, dev)) =
                            best_tt3(ctx.sim, id, ds[i], ds[j], ds[k], n_patterns)
                        {
                            tern.push((
                                dev,
                                Lac::new(
                                    id,
                                    LacKind::Ternary {
                                        sns: [ds[i], ds[j], ds[k]],
                                        tt,
                                    },
                                ),
                            ));
                        }
                    }
                }
            }
            tern.sort_by_key(|&(d, l)| (d, l.tn, sns_key(&l)));
            for &(_, l) in tern.iter().take(cfg.k_ternary) {
                out.cands.push(l);
            }
        }
    }

    out.deps.sort_unstable();
    out.deps.dedup();
}

/// Generates candidate LACs for every live AND node of `aig`.
///
/// Substitute nodes are restricted to levels at or below the target's
/// level, which guarantees cycle-free application (a node's transitive
/// fanout lies strictly above its level). Wire and binary candidates
/// are pre-ranked by signature deviation on the simulated sample; the
/// batch estimator refines the ranking into true error increases.
///
/// Each node draws its probes from private RNG streams keyed by
/// `cfg.seed` and the node's signature, via rendezvous weights over the
/// visible pool (see `probe_tweaks`), so its candidates do not depend
/// on which other nodes exist or in which order nodes are processed —
/// the property [`crate::CandidateStore`] exploits to regenerate only
/// dirty nodes across rounds.
///
/// # Panics
///
/// Panics if `sim` does not match `aig`.
pub fn generate_candidates(aig: &Aig, sim: &Sim, cfg: &CandidateConfig) -> Vec<Lac> {
    generate_candidates_windowed_counted(aig, sim, cfg, None).0
}

/// [`generate_candidates`] restricted to a target window, plus the
/// [`GenCounters`] the pass accumulated (every node is a pool miss on
/// this fresh path). Only nodes with `window[id.index()]` set generate
/// candidates; `None` means every node. Because each node's candidates
/// are a pure function of `(circuit, sample, cfg, node)` — see
/// [`generate_candidates`] — the windowed list is
/// exactly the full list filtered to window targets, in the same
/// order. Substitute signals may still come from anywhere in the
/// divisor pool: the window bounds what is *rewritten*, not what is
/// *read*.
///
/// # Panics
///
/// Panics if `sim` does not match `aig`, or a window mask shorter than
/// the node table is supplied.
pub fn generate_candidates_windowed_counted(
    aig: &Aig,
    sim: &Sim,
    cfg: &CandidateConfig,
    window: Option<&[bool]>,
) -> (Vec<Lac>, GenCounters) {
    assert_eq!(sim.n_nodes(), aig.n_nodes(), "simulation is stale");
    if let Some(w) = window {
        assert!(w.len() >= aig.n_nodes(), "window mask is stale");
    }
    let levels = aig.levels().expect("acyclic");
    let live = aig.live_mask();
    let fanouts = Fanouts::build(aig);
    let (pool, pool_levels) = build_pool(aig, &levels, &live);
    let pool_keys = pool_sig_keys(sim, &pool);
    let ctx = GenCtx {
        aig,
        sim,
        cfg,
        levels: &levels,
        live: &live,
        fanouts: &fanouts,
        pool: &pool,
        pool_levels: &pool_levels,
        pool_keys: &pool_keys,
    };
    let mut scratch = GenScratch::new(aig.n_nodes());
    let mut node = NodeGen::default();
    let mut ctrs = GenCounters::default();
    let mut out = Vec::new();
    for id in aig.and_ids() {
        if !live[id.index()] {
            continue;
        }
        if let Some(w) = window {
            if !w[id.index()] {
                continue;
            }
        }
        gen_node(&ctx, id, &mut scratch, &mut node, &mut ctrs);
        out.extend_from_slice(&node.cands);
    }
    (out, ctrs)
}

fn sns_key(l: &Lac) -> (u32, u32, u32) {
    let mut it = l.sns();
    let a = it.next().map_or(0, |n| n.index() as u32);
    let b = it.next().map_or(0, |n| n.index() as u32);
    let c = it.next().map_or(0, |n| n.index() as u32);
    (a, b, c)
}

/// Picks the two-input truth table that best matches the target over
/// per-region `(ones, totals)` counts of a divisor pair, returning
/// `(tt, deviation_count)`. Returns `None` when the optimum is a
/// trivial table (constant or single-wire), since those are covered by
/// the other LAC families.
fn fit_tt2(ones: [usize; 4], totals: [usize; 4]) -> Option<(u8, usize)> {
    // The optimal tt picks the majority target value per region.
    let mut tt = 0u8;
    let mut dev = 0usize;
    for r in 0..4 {
        let zeros = totals[r] - ones[r];
        if ones[r] > zeros {
            tt |= 1 << r;
            dev += zeros;
        } else {
            dev += ones[r];
        }
    }
    match tt {
        // Constants and wires are produced by the other families.
        0b0000 | 0b1111 | 0b1010 | 0b0101 | 0b1100 | 0b0011 => None,
        _ => Some((tt, dev)),
    }
}

/// Finds the three-input truth table over `(v1, v2, v3)` that best
/// matches the target's signature, returning `(tt, deviation_count)`.
/// Returns `None` when the optimum does not depend on all three
/// substitutes (smaller functions are covered by the other families).
fn best_tt3(
    sim: &Sim,
    target: NodeId,
    v1: NodeId,
    v2: NodeId,
    v3: NodeId,
    n_patterns: usize,
) -> Option<(u8, usize)> {
    let (ones, totals) = tt3_counts(
        sim.sig(target),
        sim.sig(v1),
        sim.sig(v2),
        sim.sig(v3),
        n_patterns,
    );
    let mut tt = 0u8;
    let mut dev = 0usize;
    for m in 0..8 {
        let zeros = totals[m] - ones[m];
        if ones[m] > zeros {
            tt |= 1 << m;
            dev += zeros;
        } else {
            dev += ones[m];
        }
    }
    // Require dependence on all three variables.
    let dep = |bit: u8| (0..8u8).any(|m| (tt >> m & 1) != (tt >> (m ^ bit) & 1));
    if dep(1) && dep(2) && dep(4) {
        Some((tt, dev))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitsim::{simulate, Patterns};

    fn adder() -> Aig {
        benchgen::adders::rca(4)
    }

    #[test]
    fn candidates_are_structurally_valid() {
        let g = adder();
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        assert!(!cands.is_empty());
        let levels = g.levels().unwrap();
        let live = g.live_mask();
        for lac in &cands {
            assert!(g.node(lac.tn).is_and(), "{lac}: target must be a gate");
            assert!(live[lac.tn.index()], "{lac}: target must be live");
            for sn in lac.sns() {
                assert!(live[sn.index()], "{lac}: substitute must be live");
                assert!(
                    levels[sn.index()] <= levels[lac.tn.index()],
                    "{lac}: level rule violated"
                );
                assert_ne!(sn, lac.tn, "{lac}: substitute equals target");
            }
        }
    }

    #[test]
    fn every_candidate_applies_without_cycles() {
        let g = adder();
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        for lac in &cands {
            let mut copy = g.clone();
            crate::apply(&mut copy, lac).unwrap_or_else(|e| panic!("{lac}: {e}"));
            assert!(copy.topo_order().is_ok(), "{lac}: created a cycle");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g = adder();
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let cfg = CandidateConfig::default();
        let a = generate_candidates(&g, &sim, &cfg);
        let b = generate_candidates(&g, &sim, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn family_toggles_work() {
        let g = adder();
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let only_const = CandidateConfig {
            wires: false,
            binaries: false,
            ..CandidateConfig::default()
        };
        let cands = generate_candidates(&g, &sim, &only_const);
        assert!(cands.iter().all(|l| matches!(l.kind, LacKind::Constant(_))));
        assert_eq!(
            cands.len(),
            2 * g
                .live_mask()
                .iter()
                .skip(1 + g.n_pis())
                .filter(|&&x| x)
                .count()
        );
    }

    #[test]
    fn best_tt2_recovers_exact_function() {
        // Target = a XOR b: the optimal 2-input resub over (a, b) is XOR
        // with zero deviation.
        let mut g = Aig::new("t", 2);
        let (a, b) = (g.pi(0), g.pi(1));
        let x = g.xor(a, b);
        g.add_output(x, "y");
        let pats = Patterns::exhaustive(2);
        let sim = simulate(&g, &pats);
        // The XOR literal is complemented, so the *node* computes XNOR.
        let t = sim.sig(x.node());
        let (sa, sb) = (sim.sig(a.node()), sim.sig(b.node()));
        let (ones, totals) = tt2_from_pops(
            4,
            and_counts(t, t, t, 4).0,
            and_counts(t, sa, sa, 4),
            and_counts(t, sb, sb, 4),
            and_counts(t, sa, sb, 4),
        );
        let (tt, dev) = fit_tt2(ones, totals).unwrap();
        assert_eq!(tt, if x.is_neg() { 0b1001 } else { 0b0110 });
        assert_eq!(dev, 0);
    }

    #[test]
    fn divisor_probes_survive_truncation() {
        // Ten locals would fill max_divisors = 8 on their own; the
        // reserved slots must still admit both random extras, with the
        // displaced locals backfilling only leftover space.
        let n = |i: usize| NodeId::new(i);
        let locals: Vec<NodeId> = (1..=10).map(n).collect();
        let extras = [n(20), n(21)];
        let divisors = assemble_divisors(&locals, &extras, 8);
        assert_eq!(divisors.len(), 8);
        assert!(
            divisors.contains(&n(20)),
            "first extra truncated: {divisors:?}"
        );
        assert!(
            divisors.contains(&n(21)),
            "second extra truncated: {divisors:?}"
        );
        assert_eq!(&divisors[..6], &locals[..6], "locals must keep priority");

        // A duplicate or colliding extra frees its slot for backfill.
        let dup = assemble_divisors(&locals, &[n(3), n(3)], 8);
        assert_eq!(dup.len(), 8);
        assert_eq!(dup.iter().filter(|&&v| v == n(3)).count(), 1);
        assert!(dup.contains(&n(7)), "freed slot must backfill: {dup:?}");

        // Fewer locals than the cap: everything fits, no duplicates.
        let small = assemble_divisors(&locals[..3], &extras, 8);
        assert_eq!(small.len(), 5);

        // Degenerate caps never panic and never exceed the cap.
        assert!(assemble_divisors(&locals, &extras, 1).len() <= 1);
        assert!(assemble_divisors(&locals, &extras, 0).is_empty());
    }

    #[test]
    fn generation_is_insensitive_to_foreign_nodes() {
        // Per-node RNG streams: a node's candidates must not change when
        // an unrelated part of the circuit changes, as long as its own
        // generation inputs (neighborhood, sigs, visible pool prefix)
        // are intact. Appending a *higher-level* dangling gate keeps
        // every existing node's visible prefix and neighborhood, so all
        // original candidates must be reproduced verbatim.
        let g = adder();
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let cfg = CandidateConfig::default();
        let base = generate_candidates(&g, &sim, &cfg);

        let mut h = g.clone();
        let top = h
            .and_ids()
            .max_by_key(|&id| h.levels().unwrap()[id.index()])
            .unwrap();
        let lit = aig::Lit::new(top, false);
        let extra = h.and(lit, h.pi(0));
        h.add_output(extra, "extra");
        let sim_h = simulate(&h, &pats);
        let grown = generate_candidates(&h, &sim_h, &cfg);
        // Every original candidate reappears, in order, within the
        // grown circuit's list (the new node adds its own candidates
        // and becomes a fanout of `top`, dirtying only `top`'s list).
        let dirty: Vec<NodeId> = vec![top];
        let kept: Vec<&Lac> = base.iter().filter(|l| !dirty.contains(&l.tn)).collect();
        let grown_kept: Vec<&Lac> = grown
            .iter()
            .filter(|l| !dirty.contains(&l.tn) && l.tn != extra.node())
            .collect();
        assert_eq!(kept, grown_kept);
    }
}
