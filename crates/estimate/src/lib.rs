//! Batch error-increase estimation for LAC candidates.
//!
//! The expensive step of an iterative ALS flow is scoring every candidate
//! LAC: how much would the circuit error grow if this change were
//! applied? This crate implements the change-propagation scheme used by
//! SEALS/VECBEE-class estimators:
//!
//! 1. per target node `n`, one fanout-cone re-simulation with `n`
//!    complemented yields the *transfer masks* `M(n, o)` — the patterns
//!    where flipping `n` flips output `o`;
//! 2. a candidate at `n` with deviation mask `D` (patterns where the
//!    substituted function differs from `n`) then flips output `o`
//!    exactly on `D & M(n, o)`, because a single-node change propagates
//!    deterministically per pattern;
//! 3. the incremental [`errmetrics::ErrorEval`] turns the sparse
//!    deviation and the transfer masks into the candidate's error in time
//!    proportional to the flipped patterns.
//!
//! Step 2 is *exact on the sample* for a single LAC — the estimation gap
//! the AccALS paper reasons about appears only when summing the `ΔE` of
//! several LACs applied together (its Eq. (1)). The property tests check
//! this exactness against [`exact_on_sample`], the slow
//! clone-apply-resimulate reference.
//!
//! Both phases run on a [`parkit::ThreadPool`]: mask construction is
//! parallel over target nodes (each worker chunk checks a private
//! [`bitsim::ConeSimulator`] out of the cache's pool and binds it to a
//! shared [`ConeTopology`]), and scoring is parallel over candidates.
//! Per-candidate work touches only the words where the deviation mask is
//! nonzero: every deviation is the sparse `(words, bits)` shape of
//! [`lac::DevMask`], computed by [`lac::deviation_into`] or read from the
//! candidate store. [`BatchEstimator::score_all`] scores each one exactly
//! ([`errmetrics::ErrorEval::with_masked_rows`], or ER's
//! [`errmetrics::ErrorEval::er_with_deviation`]), and
//! [`BatchEstimator::score_topk`] runs one loop that hands each one to
//! the same ER scorer or, for every other metric, to
//! [`errmetrics::ErrorEval::masked_rows_bounded`], which picks the
//! scoring kernel itself. Every per-candidate value is computed
//! independently and written to its input slot, so results are
//! bit-identical at any thread count. Transfer masks can be reused across
//! synthesis rounds through a [`MaskCache`] — see
//! [`BatchEstimator::with_cache`].

#![deny(unsafe_code)]

mod cache;

pub use cache::{CacheStats, DevBuf, DevPool, MaskCache, MaskEntry};

use aig::cone::MffcScratch;
use aig::{Aig, Lit, NodeId};
use bitsim::{simulate, ConeTopology, Patterns, Sim};
use errmetrics::{error, BoundedScore, ErrorEval, MetricKind};
use lac::{DevView, Lac, ScoredLac};
use parkit::ThreadPool;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall-clock breakdown of one estimator's work, for round traces.
#[derive(Debug, Clone, Copy, Default)]
pub struct EstimatePhases {
    /// Time spent building missing transfer masks (cone resimulation).
    pub mask_ms: f64,
    /// Time spent scoring candidates against the masks.
    pub score_ms: f64,
}

/// Accounting of one [`BatchEstimator::score_topk`] call.
///
/// The exact/pruned split depends on how the worker threads interleave
/// (a chunk scored before the threshold tightens stays exact), so these
/// counters are diagnostics, not part of the bit-identity contract —
/// only the returned top set is schedule-independent.
#[derive(Debug, Clone, Copy, Default)]
pub struct TopkStats {
    /// Candidates that passed the `gain > 0` filter (the population the
    /// dense path would have scored and retained).
    pub n_candidates: usize,
    /// Candidates scored to an exact `ΔE`.
    pub n_exact: usize,
    /// Candidates abandoned by the lower bound (`n_candidates - n_exact`).
    pub n_pruned: usize,
}

/// `f64` ordered by `total_cmp` for the threshold heap. `ΔE` values are
/// finite (never NaN), so this is the usual numeric order.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The shared top-k pruning threshold: the k-th smallest exact `ΔE`
/// seen so far, published through a relaxed atomic so scoring workers
/// read it wait-free.
///
/// Soundness under races: stores happen only inside the heap lock, so
/// the published value is the k-th smallest of some subset of the exact
/// scores — always `>=` the final k-th smallest. A stale or not-yet-
/// tightened read can only make the bound test *harder* to pass, i.e.
/// prune less; it can never prune a candidate that belongs in the top
/// set. Candidates tied at the k-th value are safe too: pruning
/// requires a bound strictly above the threshold.
struct TopkThreshold {
    k: usize,
    /// `f64::to_bits` of the threshold; `+inf` until `k` exact scores
    /// exist. Monotone non-increasing.
    cached: AtomicU64,
    /// Max-heap of the k smallest `ΔE` values seen.
    heap: Mutex<BinaryHeap<OrdF64>>,
    /// Fault injection (tests only): publish a threshold *below* the
    /// smallest `ΔE` seen, which unsoundly prunes genuine top-set
    /// members — the fuzz oracle must catch this.
    unsound: bool,
}

impl TopkThreshold {
    fn new(k: usize, unsound: bool) -> Self {
        TopkThreshold {
            k,
            cached: AtomicU64::new(f64::INFINITY.to_bits()),
            heap: Mutex::new(BinaryHeap::new()),
            unsound,
        }
    }

    /// The current threshold: candidates whose `ΔE` lower bound is
    /// strictly above this cannot enter the top k.
    fn get(&self) -> f64 {
        f64::from_bits(self.cached.load(Ordering::Relaxed))
    }

    /// Feeds one exact `ΔE` into the running top-k.
    fn offer(&self, delta: f64) {
        if delta >= self.get() {
            // Cannot displace anything: the k-th smallest is already at
            // or below this value (or the fault already floored it).
            return;
        }
        let mut heap = self.heap.lock().expect("threshold heap poisoned");
        heap.push(OrdF64(delta));
        if heap.len() > self.k {
            heap.pop();
        }
        if self.unsound {
            let min = heap.iter().map(|v| v.0).fold(f64::INFINITY, f64::min);
            let broken = min - (min.abs() + 1e-9);
            self.cached.store(broken.to_bits(), Ordering::Relaxed);
        } else if heap.len() == self.k {
            let kth = heap.peek().expect("heap holds k values").0;
            self.cached.store(kth.to_bits(), Ordering::Relaxed);
        }
    }
}

/// Mask storage: either private per-round scratch or a caller-owned
/// cross-round cache.
#[derive(Debug)]
enum CacheSlot<'a> {
    Owned(Box<MaskCache>),
    External(&'a mut MaskCache),
}

impl CacheSlot<'_> {
    fn get(&self) -> &MaskCache {
        match self {
            CacheSlot::Owned(c) => c,
            CacheSlot::External(c) => c,
        }
    }

    fn get_mut(&mut self) -> &mut MaskCache {
        match self {
            CacheSlot::Owned(c) => c,
            CacheSlot::External(c) => c,
        }
    }
}

/// Batch scorer for candidate LACs against one circuit snapshot.
///
/// Construct once per round (after re-simulating the current circuit),
/// then call [`BatchEstimator::score_all`].
#[derive(Debug)]
pub struct BatchEstimator<'a> {
    aig: &'a Aig,
    sim: &'a Sim,
    eval: &'a ErrorEval,
    topo: Arc<ConeTopology>,
    pool: &'static ThreadPool,
    cache: CacheSlot<'a>,
    current_error: f64,
    phases: EstimatePhases,
    unsound_bound: bool,
}

impl<'a> BatchEstimator<'a> {
    /// Creates an estimator for the circuit snapshot `(aig, sim, eval)`.
    ///
    /// `eval` must be anchored at the golden signatures and rebased at
    /// `aig`'s current output signatures under `sim`. Transfer masks are
    /// discarded when the estimator is dropped; use
    /// [`BatchEstimator::with_cache`] to keep them across rounds.
    ///
    /// # Panics
    ///
    /// Panics if `sim` does not match `aig`.
    pub fn new(aig: &'a Aig, sim: &'a Sim, eval: &'a ErrorEval) -> Self {
        let mut scratch = MaskCache::new();
        scratch.reset_for(aig);
        Self::build(aig, sim, eval, CacheSlot::Owned(Box::new(scratch)))
    }

    /// Creates an estimator whose transfer masks live in `cache`,
    /// surviving across rounds.
    ///
    /// The cache is first rolled forward to this circuit revision:
    /// `remap` is the node remapping from the revision the cache last
    /// saw to `aig` (as returned by [`Aig::cleanup`] after applying the
    /// round's LACs), or `None` to start from scratch. Only masks whose
    /// fanout cone provably saw no change survive the roll, so cached
    /// scoring is bit-identical to [`BatchEstimator::new`].
    pub fn with_cache(
        aig: &'a Aig,
        sim: &'a Sim,
        eval: &'a ErrorEval,
        cache: &'a mut MaskCache,
        remap: Option<&[Option<Lit>]>,
    ) -> Self {
        let mut est = Self::build(aig, sim, eval, CacheSlot::External(cache));
        let topo = Arc::clone(&est.topo);
        est.cache.get_mut().roll(aig, sim, topo.fanouts(), remap);
        est
    }

    fn build(aig: &'a Aig, sim: &'a Sim, eval: &'a ErrorEval, cache: CacheSlot<'a>) -> Self {
        assert_eq!(sim.n_nodes(), aig.n_nodes(), "simulation is stale");
        BatchEstimator {
            aig,
            sim,
            eval,
            topo: ConeTopology::build(aig),
            pool: parkit::global(),
            cache,
            current_error: eval.current(),
            phases: EstimatePhases::default(),
            unsound_bound: false,
        }
    }

    /// Replaces the thread pool (default: [`parkit::global`]). Used by
    /// determinism tests to pin an exact thread count.
    pub fn use_pool(mut self, pool: &'static ThreadPool) -> Self {
        self.pool = pool;
        self
    }

    /// The topology snapshot of the estimator's circuit, built once per
    /// estimator; later consumers of the same revision (trial
    /// evaluation) share it instead of rebuilding it.
    pub fn topology(&self) -> &Arc<ConeTopology> {
        &self.topo
    }

    /// The error of the current circuit (the baseline for `ΔE`).
    pub fn current_error(&self) -> f64 {
        self.current_error
    }

    /// The wall-clock breakdown of the scoring calls so far.
    pub fn phases(&self) -> EstimatePhases {
        self.phases
    }

    /// Shared phase-1 prep: distinct targets (ascending) with their
    /// candidate slot map and MFFC sizes, plus any transfer masks
    /// missing from the cache built in parallel over target nodes. Each
    /// worker chunk holds a private MFFC scratch and a cone simulator
    /// checked out of the cache (so warm rounds reuse the scratch that
    /// earlier rounds grew); the per-node result is independent of
    /// chunking.
    fn prepare_targets(&mut self, cands: &[Lac]) -> (Vec<NodeId>, HashMap<NodeId, u32>, Vec<i64>) {
        let stride = self.sim.stride();
        let pool = self.pool;
        let (aig, sim) = (self.aig, self.sim);

        let mut targets: Vec<NodeId> = cands.iter().map(|l| l.tn).collect();
        targets.sort_unstable();
        targets.dedup();
        let slot_of: HashMap<NodeId, u32> = targets
            .iter()
            .enumerate()
            .map(|(i, &tn)| (tn, i as u32))
            .collect();

        let topo = &self.topo;
        let chunk = targets.len().div_ceil(pool.threads() * 2).max(1);
        let mffcs: Vec<i64> = pool
            .par_chunk_results(targets.len(), chunk, |_, range| {
                let mut scratch = MffcScratch::default();
                range
                    .map(|k| scratch.size(aig, topo.fanouts(), targets[k]) as i64)
                    .collect::<Vec<_>>()
            })
            .concat();

        let missing: Vec<NodeId> = targets
            .iter()
            .copied()
            .filter(|&tn| self.cache.get().get(tn).is_none())
            .collect();
        self.cache
            .get_mut()
            .note_lookups(targets.len() - missing.len(), missing.len());
        let t_mask = Instant::now();
        if !missing.is_empty() {
            let chunk = missing.len().div_ceil(pool.threads() * 2).max(1);
            let cache = self.cache.get();
            let computed: Vec<Vec<MaskEntry>> =
                pool.par_chunk_results(missing.len(), chunk, |_, range| {
                    let mut cs = cache.checkout_cone(topo);
                    let entries = range
                        .map(|k| {
                            let tn = missing[k];
                            let forced: Vec<u64> = sim.sig(tn).iter().map(|w| !w).collect();
                            build_entry(&cs.output_flips(aig, sim, tn, &forced), stride)
                        })
                        .collect();
                    cache.restore_cone(cs);
                    entries
                });
            let store = self.cache.get_mut();
            let mut tns = missing.iter();
            for batch in computed {
                for e in batch {
                    store.insert(*tns.next().expect("one entry per missing target"), e);
                }
            }
        }
        self.phases.mask_ms += t_mask.elapsed().as_secs_f64() * 1e3;

        (targets, slot_of, mffcs)
    }

    /// ER's per-target union diffs under an all-deviating candidate
    /// ([`ErrorEval::er_conditional_union`]), in `targets` order.
    fn er_unions(&self, targets: &[NodeId]) -> Vec<Vec<u64>> {
        let (store, eval) = (self.cache.get(), self.eval);
        self.pool.par_map_collect(targets, |_, &tn| {
            let entry = store.get(tn).expect("mask entry was just built");
            let mut e1 = Vec::new();
            eval.er_conditional_union(&entry.outs, &entry.masks, &mut e1);
            e1
        })
    }

    /// Scores every candidate: estimated error increase `ΔE` plus the
    /// area gain (MFFC size minus new-function cost). Results are in
    /// input order and bit-identical at any thread count. Each
    /// deviation mask is recomputed from the base simulation, so this
    /// dense path is the reference [`BatchEstimator::score_topk`] is
    /// held to.
    pub fn score_all(&mut self, cands: &[Lac]) -> Vec<ScoredLac> {
        if cands.is_empty() {
            return Vec::new();
        }
        let (targets, slot_of, mffcs) = self.prepare_targets(cands);
        let stride = self.sim.stride();
        let pool = self.pool;
        let (sim, eval) = (self.sim, self.eval);
        let current = self.current_error;

        let store = self.cache.get();
        let dev_pool = self.cache.get().dev_pool();
        let chunk = cands.len().div_ceil(pool.threads() * 4).max(1);
        let t_score = Instant::now();

        // ER factors further: per target, precompute the union diff the
        // circuit would have if every pattern deviated (the transfer
        // masks folded into the current diffs once). Scoring a candidate
        // is then a two-way select per deviating word — no per-output
        // loop and no flip materialization at all. The other metrics
        // decode `dev & row` inline per output while folding.
        let er = eval.kind() == MetricKind::Er;
        let e1s = if er {
            self.er_unions(&targets)
        } else {
            Vec::new()
        };
        let scored: Vec<Vec<ScoredLac>> = pool.par_chunk_results(cands.len(), chunk, |_, range| {
            let mut buf = dev_pool.checkout();
            buf.scratch.resize(stride, 0);
            let mut out = Vec::with_capacity(range.len());
            for ci in range {
                let lac = &cands[ci];
                let slot = slot_of[&lac.tn] as usize;
                buf.words.clear();
                buf.bits.clear();
                lac::deviation_into(sim, lac, &mut buf.scratch, &mut buf.words, &mut buf.bits);
                let e_new = if er {
                    eval.er_with_deviation(&buf.words, &buf.bits, &e1s[slot])
                } else {
                    let entry = store.get(lac.tn).expect("mask entry was just built");
                    eval.with_masked_rows(&buf.words, &buf.bits, &entry.outs, &entry.masks)
                };
                out.push(ScoredLac {
                    lac: *lac,
                    delta_e: e_new - current,
                    gain: mffcs[slot] - lac.new_node_cost() as i64,
                });
            }
            dev_pool.restore(buf);
            out
        });
        self.phases.score_ms += t_score.elapsed().as_secs_f64() * 1e3;
        scored.into_iter().flatten().collect()
    }

    /// Test-only: make [`BatchEstimator::score_topk`] publish an
    /// unsound (too low) pruning threshold, so the differential fuzz
    /// oracle can prove it detects a broken bound. Never enable outside
    /// fault-injection tests.
    #[doc(hidden)]
    pub fn inject_unsound_bound(&mut self, on: bool) {
        self.unsound_bound = on;
    }

    /// Scores only the candidates that can enter the top `k` by `ΔE`.
    ///
    /// Returns every candidate whose `ΔE` is at or below the k-th
    /// smallest, sorted by [`ScoredLac::flow_order`] — the same order the
    /// flow's top-set selection uses — plus scoring statistics.
    /// Candidates with `gain <= 0` are filtered out first (gain needs no
    /// error work), so the result compares against the dense
    /// [`BatchEstimator::score_all`] output after its own `gain > 0`
    /// retain.
    ///
    /// Contract: for any `k' <= k`, the first `t` entries are
    /// bit-identical (members, `ΔE` bits, order) to the dense sorted
    /// list, where `t` covers every candidate whose `ΔE` is `<=` the
    /// `k'`-th smallest — in particular all ties at the k-th value are
    /// returned, so downstream `r_min` tie-counting sees them. The
    /// result holds at any thread count; only the exact/pruned
    /// *counters* are schedule-dependent.
    ///
    /// `devs` holds one deviation mask per candidate, e.g. from
    /// [`lac::CandidateStore::devs`] or [`lac::DevMask::view`].
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `devs.len() != cands.len()`.
    pub fn score_topk(
        &mut self,
        cands: &[Lac],
        devs: &[DevView<'_>],
        k: usize,
    ) -> (Vec<ScoredLac>, TopkStats) {
        assert_eq!(devs.len(), cands.len(), "one deviation mask per candidate");
        assert!(k >= 1, "top-k needs k >= 1");
        if cands.is_empty() {
            return (Vec::new(), TopkStats::default());
        }
        let (targets, slot_of, mffcs) = self.prepare_targets(cands);
        let pool = self.pool;
        let eval = self.eval;
        let current = self.current_error;
        let store = self.cache.get();
        let dev_pool = self.cache.get().dev_pool();
        let t_score = Instant::now();
        let gain = |lac: &Lac| mffcs[slot_of[&lac.tn] as usize] - lac.new_node_cost() as i64;

        // Gain is pure MFFC bookkeeping — filter `gain <= 0` before any
        // error work so the threshold only ever competes over candidates
        // the flow could select.
        let mut order: Vec<u32> = (0..cands.len() as u32)
            .filter(|&ci| gain(&cands[ci as usize]) > 0)
            .collect();
        let n_candidates = order.len();

        // ER scores exactly from per-target union diffs and never
        // prunes, so its scoring order buys nothing. For the other
        // metrics, fewer deviating patterns usually means a smaller
        // error increase: scoring those first seeds the shared threshold
        // near its final value and later candidates prune early. The
        // stable sort keeps the schedule deterministic; correctness
        // never depends on this order.
        let er = eval.kind() == MetricKind::Er;
        let e1s = if er {
            self.er_unions(&targets)
        } else {
            order.sort_by_cached_key(|&ci| {
                let bits = devs[ci as usize].bits;
                bitsim::popcount(bits, bits.len() * 64)
            });
            Vec::new()
        };

        // The evaluator picks the bounded kernel (integer word kernel,
        // per-pattern fold, or WCE's exact fold, which never prunes).
        let thr = TopkThreshold::new(k, self.unsound_bound);
        let chunk = order.len().div_ceil(pool.threads() * 8).max(1);
        let exact: Vec<Vec<(u32, ScoredLac)>> =
            pool.par_chunk_results(order.len(), chunk, |_, range| {
                let mut buf = dev_pool.checkout();
                let mut out = Vec::new();
                for oi in range {
                    let ci = order[oi] as usize;
                    let (lac, d) = (&cands[ci], devs[ci]);
                    let res = if er {
                        let e1 = &e1s[slot_of[&lac.tn] as usize];
                        BoundedScore::Exact(eval.er_with_deviation(d.words, d.bits, e1))
                    } else {
                        let entry = store.get(lac.tn).expect("mask entry was just built");
                        eval.masked_rows_bounded(
                            d.words,
                            d.bits,
                            &entry.outs,
                            &entry.masks,
                            &mut buf.suffix,
                            current,
                            |lb| lb > thr.get(),
                        )
                    };
                    if let BoundedScore::Exact(e_new) = res {
                        let delta_e = e_new - current;
                        thr.offer(delta_e);
                        let scored = ScoredLac {
                            lac: *lac,
                            delta_e,
                            gain: gain(lac),
                        };
                        out.push((ci as u32, scored));
                    }
                }
                dev_pool.restore(buf);
                out
            });

        let mut picked: Vec<(u32, ScoredLac)> = exact.into_iter().flatten().collect();
        let n_exact = picked.len();
        // The k-th smallest `ΔE` in O(n); keeping everything `<=` it
        // preserves every tie at the k-th value, so the sorted head
        // matches the dense list for any k' <= k. Every candidate at or
        // below the final threshold was scored exactly, so the exact
        // set's k-th value is the population's.
        if picked.len() > k {
            let (_, kth, _) =
                picked.select_nth_unstable_by(k - 1, |a, b| a.1.delta_e.total_cmp(&b.1.delta_e));
            let kth = kth.1.delta_e;
            picked.retain(|p| p.1.delta_e <= kth);
        }
        // The input index is the last key, so the order is total even
        // between identical LACs (and undoes `select_nth`'s shuffle).
        picked.sort_by(|(ia, a), (ib, b)| a.flow_order(b).then(ia.cmp(ib)));
        let scored: Vec<ScoredLac> = picked.into_iter().map(|(_, s)| s).collect();
        self.phases.score_ms += t_score.elapsed().as_secs_f64() * 1e3;
        let stats = TopkStats {
            n_candidates,
            n_exact,
            n_pruned: n_candidates - n_exact,
        };
        (scored, stats)
    }
}

/// Packs per-output flip rows into a [`MaskEntry`], keeping only the
/// outputs the node can actually influence.
fn build_entry(rows: &[Vec<u64>], stride: usize) -> MaskEntry {
    let outs: Vec<u32> = rows
        .iter()
        .enumerate()
        .filter(|(_, row)| row.iter().any(|&w| w != 0))
        .map(|(o, _)| o as u32)
        .collect();
    let mut masks = Vec::with_capacity(outs.len() * stride);
    for &o in &outs {
        masks.extend_from_slice(&rows[o as usize]);
    }
    MaskEntry {
        outs: outs.into_boxed_slice(),
        masks: masks.into_boxed_slice(),
    }
}

/// Reference estimator: clone the circuit, apply the LAC, re-simulate
/// everything, and measure the error against the golden signatures.
///
/// Slow (`O(circuit)` per candidate); used by tests and the estimator
/// ablation bench.
///
/// # Panics
///
/// Panics if the LAC does not apply cleanly.
pub fn exact_on_sample(
    aig: &Aig,
    golden: &[Vec<u64>],
    kind: MetricKind,
    pats: &Patterns,
    the_lac: &Lac,
) -> f64 {
    let mut copy = aig.clone();
    lac::apply(&mut copy, the_lac).expect("candidate must apply cleanly");
    let sim = simulate(&copy, pats);
    let sigs = sim.output_sigs(&copy);
    error(kind, golden, &sigs, pats.n_patterns())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lac::{generate_candidates, CandidateConfig, DevMask};

    #[test]
    fn batch_estimates_are_exact_on_sample() {
        let g = benchgen::adders::rca(4);
        let pats = Patterns::exhaustive(8);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        for kind in [MetricKind::Er, MetricKind::Nmed, MetricKind::Mred] {
            let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
            eval.rebase(&golden);
            let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
            let mut est = BatchEstimator::new(&g, &sim, &eval);
            let scored = est.score_all(&cands);
            for s in &scored {
                let exact = exact_on_sample(&g, &golden, kind, &pats, &s.lac);
                let predicted = est.current_error() + s.delta_e;
                assert!(
                    (predicted - exact).abs() < 1e-12,
                    "{kind} {}: predicted {predicted}, exact {exact}",
                    s.lac
                );
            }
        }
    }

    #[test]
    fn estimates_on_an_already_approximate_circuit() {
        // Apply one LAC, then verify estimation is still exact relative
        // to the golden circuit.
        let golden_aig = benchgen::multipliers::array_multiplier(3);
        let pats = Patterns::exhaustive(6);
        let golden = simulate(&golden_aig, &pats).output_sigs(&golden_aig);

        let mut approx = golden_aig.clone();
        let sim0 = simulate(&approx, &pats);
        let cands0 = generate_candidates(&approx, &sim0, &CandidateConfig::default());
        lac::apply(&mut approx, &cands0[1]).unwrap();
        approx.cleanup().unwrap();

        let sim = simulate(&approx, &pats);
        let mut eval = ErrorEval::new(MetricKind::Nmed, &golden, pats.n_patterns());
        eval.rebase(&sim.output_sigs(&approx));
        let cands = generate_candidates(&approx, &sim, &CandidateConfig::default());
        let mut est = BatchEstimator::new(&approx, &sim, &eval);
        let scored = est.score_all(&cands);
        for s in scored.iter().take(40) {
            let exact = exact_on_sample(&approx, &golden, MetricKind::Nmed, &pats, &s.lac);
            let predicted = est.current_error() + s.delta_e;
            assert!(
                (predicted - exact).abs() < 1e-12,
                "{}: predicted {predicted}, exact {exact}",
                s.lac
            );
        }
    }

    #[test]
    fn cached_deviations_match_fresh_scoring() {
        // Scoring from precomputed sparse deviation masks with `k`
        // covering every candidate (nothing can be pruned) must be
        // bit-identical to score_all recomputing them, on both the ER
        // fast path and the general metric path.
        let g = benchgen::adders::rca(6);
        let pats = Patterns::random(12, 320, 11);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        let mut scratch = vec![0u64; sim.stride()];
        let devs: Vec<DevMask> = cands
            .iter()
            .map(|l| DevMask::of(&sim, l, &mut scratch))
            .collect();
        let dev_views: Vec<DevView> = devs.iter().map(|d| d.view()).collect();
        for kind in [MetricKind::Er, MetricKind::Nmed] {
            let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
            eval.rebase(&golden);
            let fresh = dense_sorted(BatchEstimator::new(&g, &sim, &eval).score_all(&cands));
            let (cached, st) =
                BatchEstimator::new(&g, &sim, &eval).score_topk(&cands, &dev_views, cands.len());
            assert_eq!(st.n_pruned, 0);
            assert_eq!(fresh.len(), cached.len());
            for (f, c) in fresh.iter().zip(&cached) {
                assert_eq!(f.lac, c.lac);
                assert_eq!(f.gain, c.gain);
                assert_eq!(
                    f.delta_e.to_bits(),
                    c.delta_e.to_bits(),
                    "{kind} {}: ΔE drifted",
                    f.lac
                );
            }
        }
    }

    #[test]
    fn gain_reflects_mffc() {
        let mut g = aig::Aig::new("t", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let y = g.and(ab, c);
        g.add_output(y, "y");
        let pats = Patterns::exhaustive(3);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval.rebase(&golden);
        let mut est = BatchEstimator::new(&g, &sim, &eval);
        let scored = est.score_all(&[
            Lac::new(y.node(), lac::LacKind::Constant(false)),
            Lac::new(ab.node(), lac::LacKind::Constant(false)),
        ]);
        // Removing the top gate frees both gates; removing ab frees one.
        assert_eq!(scored[0].gain, 2);
        assert_eq!(scored[1].gain, 1);
    }

    #[test]
    fn er_and_general_paths_agree_on_gain() {
        // The ER fast path and the general metric path compute gain
        // from the same hoisted slot lookup; for an identical candidate
        // list they must report identical gains per index.
        let g = benchgen::adders::rca(5);
        let pats = Patterns::random(10, 192, 3);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        let mut er_eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        er_eval.rebase(&golden);
        let mut nmed_eval = ErrorEval::new(MetricKind::Nmed, &golden, pats.n_patterns());
        nmed_eval.rebase(&golden);
        let er = BatchEstimator::new(&g, &sim, &er_eval).score_all(&cands);
        let general = BatchEstimator::new(&g, &sim, &nmed_eval).score_all(&cands);
        assert_eq!(er.len(), general.len());
        for (a, b) in er.iter().zip(&general) {
            assert_eq!(a.lac, b.lac);
            assert_eq!(
                a.gain, b.gain,
                "{}: gain differs between metric paths",
                a.lac
            );
        }
    }

    /// Dense reference for the top-k contract: `score_all`, keep
    /// `gain > 0`, stable-sort by the flow's `(ΔE, gain, tn)` key.
    fn dense_sorted(mut scored: Vec<ScoredLac>) -> Vec<ScoredLac> {
        scored.retain(|s| s.gain > 0);
        scored.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .unwrap()
                .then(b.gain.cmp(&a.gain))
                .then(a.lac.tn.cmp(&b.lac.tn))
        });
        scored
    }

    /// Everything at or below the k-th smallest `ΔE` must come back
    /// exactly, bit-identical and in dense order, as the head of the
    /// top-k result.
    fn assert_topk_prefix(dense: &[ScoredLac], topk: &[ScoredLac], k: usize) {
        assert!(topk.len() <= dense.len());
        if dense.is_empty() {
            assert!(topk.is_empty());
            return;
        }
        let kth = dense[k.min(dense.len()) - 1].delta_e;
        let t = dense.iter().take_while(|s| s.delta_e <= kth).count();
        assert!(topk.len() >= t, "returned {} of {t} required", topk.len());
        for (d, p) in dense[..t].iter().zip(&topk[..t]) {
            assert_eq!(d.lac, p.lac);
            assert_eq!(d.gain, p.gain);
            assert_eq!(
                d.delta_e.to_bits(),
                p.delta_e.to_bits(),
                "{}: ΔE drifted",
                d.lac
            );
        }
    }

    #[test]
    fn topk_matches_dense_topset() {
        // rca6 has 7 outputs and rca32 has 33: MED and NMED score on the
        // integer word kernel at both widths, MRED on the per-pattern
        // fold, ER and WCE exactly.
        let pools: Vec<&'static ThreadPool> = [1, 2, 8]
            .iter()
            .map(|&t| &*Box::leak(Box::new(ThreadPool::new(t))))
            .collect();
        for (g, n_pis) in [
            (benchgen::adders::rca(6), 12),
            (benchgen::adders::rca(32), 64),
        ] {
            let pats = Patterns::random(n_pis, 320, 11);
            let sim = simulate(&g, &pats);
            let golden = sim.output_sigs(&g);
            let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
            let mut scratch = vec![0u64; sim.stride()];
            let devs: Vec<DevMask> = cands
                .iter()
                .map(|l| DevMask::of(&sim, l, &mut scratch))
                .collect();
            let dev_views: Vec<DevView> = devs.iter().map(|d| d.view()).collect();
            for kind in [
                MetricKind::Er,
                MetricKind::Med,
                MetricKind::Nmed,
                MetricKind::Mred,
                MetricKind::Wce,
            ] {
                let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
                eval.rebase(&golden);
                let at = format!("{kind} at {} outputs", golden.len());
                assert_eq!(
                    eval.word_kernel_eligible(),
                    matches!(kind, MetricKind::Med | MetricKind::Nmed),
                    "{at}"
                );
                let dense = dense_sorted(BatchEstimator::new(&g, &sim, &eval).score_all(&cands));
                assert!(!dense.is_empty());
                for &k in &[1usize, 3, 8, 64, dense.len() + 100] {
                    let kth = dense[k.min(dense.len()) - 1].delta_e;
                    for &pool in &pools {
                        let (topk, st) = BatchEstimator::new(&g, &sim, &eval)
                            .use_pool(pool)
                            .score_topk(&cands, &dev_views, k);
                        assert_eq!(st.n_candidates, dense.len(), "{at}: population differs");
                        assert_eq!(st.n_exact + st.n_pruned, st.n_candidates);
                        if matches!(kind, MetricKind::Er | MetricKind::Wce) {
                            // Their scorers are exact and never prune.
                            assert_eq!(st.n_exact, st.n_candidates, "{at}, k={k}");
                            assert_eq!(st.n_pruned, 0, "{at}, k={k}");
                        }
                        assert!(
                            topk.iter().all(|s| s.delta_e <= kth),
                            "{at}, k={k}: a returned ΔE exceeds the dense k-th value {kth}"
                        );
                        assert_topk_prefix(&dense, &topk, k);
                    }
                }
            }
        }
    }

    #[test]
    fn cached_scores_match_fresh_after_a_round() {
        // Score, apply the best safe LAC, clean up, then score the new
        // circuit twice: once through the rolled cache and once from
        // scratch. The lists must be bit-identical and the cache must
        // actually carry entries forward.
        let g0 = benchgen::adders::rca(8);
        let pats = Patterns::random(16, 256, 7);
        let sim0 = simulate(&g0, &pats);
        let golden = sim0.output_sigs(&g0);
        let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval.rebase(&golden);

        let mut cache = MaskCache::new();
        let cands0 = generate_candidates(&g0, &sim0, &CandidateConfig::default());
        let mut est = BatchEstimator::with_cache(&g0, &sim0, &eval, &mut cache, None);
        let scored0 = est.score_all(&cands0);

        // Avoid targets that drive an output: replacing an output
        // driver changes the output literal, which (by design) flushes
        // the mask cache instead of rolling it.
        let driven: std::collections::HashSet<_> =
            g0.outputs().iter().map(|o| o.lit.node()).collect();
        let pick = scored0
            .iter()
            .filter(|s| s.delta_e <= 0.02 && !driven.contains(&s.lac.tn))
            .max_by_key(|s| s.gain)
            .expect("some candidate fits the bound");
        let mut g1 = g0.clone();
        lac::apply(&mut g1, &pick.lac).unwrap();
        let remap = g1.cleanup().unwrap();

        let sim1 = simulate(&g1, &pats);
        let mut eval1 = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval1.rebase(&sim1.output_sigs(&g1));
        let cands1 = generate_candidates(&g1, &sim1, &CandidateConfig::default());

        let mut cached_est =
            BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, Some(&remap));
        let cached = cached_est.score_all(&cands1);
        drop(cached_est);
        let stats = cache.stats();
        assert!(stats.carried > 0, "roll carried no masks: {stats:?}");
        assert!(stats.hits > 0, "no cache hits: {stats:?}");

        let mut fresh_est = BatchEstimator::new(&g1, &sim1, &eval1);
        let fresh = fresh_est.score_all(&cands1);
        assert_eq!(cached.len(), fresh.len());
        for (c, f) in cached.iter().zip(&fresh) {
            assert_eq!(c.lac, f.lac);
            assert_eq!(c.gain, f.gain);
            assert_eq!(
                c.delta_e.to_bits(),
                f.delta_e.to_bits(),
                "{}: cached {} vs fresh {}",
                c.lac,
                c.delta_e,
                f.delta_e
            );
        }
    }

    #[test]
    fn warm_scoring_draws_every_buffer_from_the_dev_pool() {
        // After one round's commit, repeated passes of the same warm
        // `score_topk` + `score_all` calls must be served from the
        // deviation pool. Each participant of a pool holds at most one
        // `DevBuf` at a time, so the pool never allocates more buffers
        // than the pool has threads; on a serial pool the count is flat
        // from the first pass on. (How many workers of a wider pool
        // overlap in a pass depends on the schedule, so only the bound
        // holds there.)
        for threads in [1, 4] {
            let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(threads)));
            for name in ["rca32", "mtp8"] {
                let g = benchgen::suite::by_name(name).expect("known circuit");
                let pats = Patterns::random(g.n_pis(), 512, 0xE57);
                let sim = simulate(&g, &pats);
                let golden = sim.output_sigs(&g);
                let ccfg = CandidateConfig::default();
                let mut store = lac::CandidateStore::new();
                let cands = store.generate(&g, &sim, &ccfg, None, pool, None);
                let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
                eval.rebase(&golden);
                let scored = BatchEstimator::new(&g, &sim, &eval)
                    .use_pool(pool)
                    .score_all(&cands);
                let best = scored
                    .iter()
                    .filter(|s| s.gain > 0)
                    .min_by(|a, b| a.delta_e.partial_cmp(&b.delta_e).unwrap())
                    .expect("a safe candidate");
                let mut g1 = g.clone();
                lac::apply_all(&mut g1, &[best.lac]);
                let remap = g1.cleanup().expect("apply keeps the graph acyclic");
                let sim1 = simulate(&g1, &pats);
                let rolled = store.generate(&g1, &sim1, &ccfg, Some(&remap), pool, None);
                let mut eval1 = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
                eval1.rebase(&sim1.output_sigs(&g1));
                let identity: Vec<Option<Lit>> = (0..g1.n_nodes())
                    .map(|i| Some(Lit::new(NodeId::new(i), false)))
                    .collect();
                let devs = store.devs();

                let mut cache = MaskCache::new();
                let mut allocs = Vec::new();
                for pass in 0..4 {
                    let remap = (pass > 0).then_some(&identity[..]);
                    let mut est = BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, remap)
                        .use_pool(pool);
                    est.score_topk(&rolled, &devs, 64);
                    est.score_all(&rolled);
                    drop(est);
                    allocs.push(cache.dev_pool().allocations());
                }
                let what = format!("{name} at {threads} threads");
                assert!(
                    allocs[0] > 0,
                    "{what}: scoring drew no buffer from the pool"
                );
                assert!(
                    allocs[3] <= threads,
                    "{what}: {} buffers allocated over four warm passes",
                    allocs[3]
                );
                if threads == 1 {
                    assert!(
                        allocs.iter().all(|&a| a == allocs[0]),
                        "{what}: repeated warm scoring allocated fresh scratch: {allocs:?}"
                    );
                }
            }
        }
    }
}
