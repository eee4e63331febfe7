//! Micro-benchmark for batch LAC estimation: seed-style dense serial
//! scoring vs the current sparse path (serial / parallel), and a warm
//! mask cache vs from-scratch recomputation across a synthesis round.
//!
//! Std-only timing (`std::time::Instant`, median of repeats); results go
//! to `BENCH_estimate.json` in the working directory. The dense baseline
//! reimplements the original estimator loop faithfully — per-target cone
//! resimulation with full-stride per-candidate mask ANDs and a dense
//! metric pass — so speedups are measured against the seed algorithm,
//! not a strawman.
//!
//! Usage: `bench_estimate [circuit ...]` (default: rca32 mtp8 alu4);
//! `bench_estimate --smoke` runs a fast topset-identity assertion
//! instead of the timed scenarios (for CI).

use accals::topset::{obtain_top_set, obtain_top_set_from};
use aig::{cone, Aig, Fanouts, Lit, Node, NodeId};
use bitsim::{simulate, Patterns};
use errmetrics::{ErrorEval, MetricKind};
use estimate::{BatchEstimator, EstimatePhases, MaskCache};
use lac::{
    generate_candidates, generate_candidates_counted, CandidateConfig, CandidateStore, DevMask,
    DevView, GenCounters, Lac, ScoredLac,
};
use parkit::ThreadPool;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

const N_PATTERNS: usize = 2048;
const SEED: u64 = 0xE57;
const REPEATS: usize = 7;
const PAR_THREADS: usize = 4;

/// Top-set parameters for the `topk` scenario, mirroring the flow: the
/// estimator is asked for `K_TOPK = max(r_ref, 64)` exact scores.
const TOPK_R_REF: usize = 40;
const K_TOPK: usize = 64;

/// The cone resimulation as shipped in the seed: the *entire* structural
/// fanout cone is re-evaluated with a per-word touched check, whether or
/// not the value change actually reaches a node. Kept verbatim here so
/// the baseline stays pinned to the seed algorithm — the library's
/// [`bitsim::ConeSimulator`] has since learned to stop where the change
/// masks die out, and letting the baseline inherit that would understate
/// the speedup.
struct SeedConeSim {
    topo_pos: Vec<u32>,
    fanouts: Fanouts,
    scratch: Vec<u64>,
    touched: Vec<bool>,
    touched_list: Vec<NodeId>,
}

impl SeedConeSim {
    fn new(aig: &Aig, stride: usize) -> Self {
        let order = aig.topo_order().expect("acyclic");
        let mut topo_pos = vec![0u32; aig.n_nodes()];
        for (i, id) in order.iter().enumerate() {
            topo_pos[id.index()] = i as u32;
        }
        SeedConeSim {
            topo_pos,
            fanouts: Fanouts::build(aig),
            scratch: vec![0u64; aig.n_nodes() * stride],
            touched: vec![false; aig.n_nodes()],
            touched_list: Vec::new(),
        }
    }

    fn output_flips(
        &mut self,
        aig: &Aig,
        sim: &bitsim::Sim,
        n: NodeId,
        forced: &[u64],
    ) -> Vec<Vec<u64>> {
        let stride = sim.stride();
        let mut cone: Vec<NodeId> = Vec::new();
        self.touched[n.index()] = true;
        self.touched_list.push(n);
        self.scratch[n.index() * stride..(n.index() + 1) * stride].copy_from_slice(forced);
        cone.push(n);
        let mut head = 0;
        while head < cone.len() {
            let m = cone[head];
            head += 1;
            for &f in self.fanouts.of(m) {
                if !self.touched[f.index()] {
                    self.touched[f.index()] = true;
                    self.touched_list.push(f);
                    cone.push(f);
                }
            }
        }
        let topo_pos = &self.topo_pos;
        cone[1..].sort_unstable_by_key(|m| topo_pos[m.index()]);
        for &m in &cone[1..] {
            if let Node::And(a, b) = aig.node(m) {
                let (an, bn) = (a.node(), b.node());
                for w in 0..stride {
                    let wa = self.value_word(sim, an, w) ^ if a.is_neg() { u64::MAX } else { 0 };
                    let wb = self.value_word(sim, bn, w) ^ if b.is_neg() { u64::MAX } else { 0 };
                    self.scratch[m.index() * stride + w] = wa & wb;
                }
            }
        }
        let mut flips = Vec::with_capacity(aig.n_pos());
        for out in aig.outputs() {
            let d = out.lit.node();
            if self.touched[d.index()] {
                let base = sim.sig(d);
                let new = &self.scratch[d.index() * stride..(d.index() + 1) * stride];
                flips.push(base.iter().zip(new).map(|(b, s)| b ^ s).collect());
            } else {
                flips.push(vec![0u64; stride]);
            }
        }
        for m in self.touched_list.drain(..) {
            self.touched[m.index()] = false;
        }
        flips
    }

    #[inline]
    fn value_word(&self, sim: &bitsim::Sim, n: NodeId, w: usize) -> u64 {
        if self.touched[n.index()] {
            self.scratch[n.index() * sim.stride() + w]
        } else {
            sim.sig(n)[w]
        }
    }
}

/// The estimator loop as shipped in the seed: group candidates by target
/// node, resimulate each target's cone once, then AND every candidate's
/// full-stride deviation mask into per-output flip rows and run the
/// dense metric evaluation.
fn seed_dense_score_all(
    aig: &Aig,
    sim: &bitsim::Sim,
    eval: &ErrorEval,
    cands: &[Lac],
) -> Vec<ScoredLac> {
    let stride = sim.stride();
    let n_outputs = aig.n_pos();
    let current_error = eval.current();
    let mut by_tn: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, l) in cands.iter().enumerate() {
        by_tn.entry(l.tn).or_default().push(i);
    }
    let mut order: Vec<NodeId> = by_tn.keys().copied().collect();
    order.sort_unstable();

    let fanouts = Fanouts::build(aig);
    let mut cone_sim = SeedConeSim::new(aig, stride);
    let mut results: Vec<Option<ScoredLac>> = vec![None; cands.len()];
    let mut dev = vec![0u64; stride];
    let mut cand_sig = vec![0u64; stride];
    let mut flips = vec![vec![0u64; stride]; n_outputs];

    for tn in order {
        let forced: Vec<u64> = sim.sig(tn).iter().map(|w| !w).collect();
        let masks = cone_sim.output_flips(aig, sim, tn, &forced);
        let mffc = cone::mffc_size(aig, &fanouts, tn) as i64;
        for &ci in &by_tn[&tn] {
            let lac = &cands[ci];
            lac.signature_into(sim, &mut cand_sig);
            let base = sim.sig(tn);
            for w in 0..stride {
                dev[w] = base[w] ^ cand_sig[w];
            }
            for (o, flip) in flips.iter_mut().enumerate() {
                for w in 0..stride {
                    flip[w] = dev[w] & masks[o][w];
                }
            }
            let e_new = eval.with_flips(&flips);
            results[ci] = Some(ScoredLac {
                lac: *lac,
                delta_e: e_new - current_error,
                gain: mffc - lac.new_node_cost() as i64,
            });
        }
    }
    results.into_iter().map(|r| r.unwrap()).collect()
}

/// Median wall time of `f` over [`REPEATS`] runs, in milliseconds.
fn time_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (times[times.len() / 2], last.unwrap())
}

/// One metric's dense-vs-pruned scoring-phase comparison on the round-0
/// state (the `topk` scenario), measured both fresh (deviations built
/// inside the scorer) and cached (deviations handed in as views).
struct TopkReport {
    metric: &'static str,
    n_retained: usize,
    dense_score_ms: f64,
    topk_score_ms: f64,
    dense_cached_ms: f64,
    topk_cached_ms: f64,
    n_exact: usize,
    n_pruned: usize,
}

impl TopkReport {
    fn prune_rate(&self) -> f64 {
        self.n_pruned as f64 / (self.n_exact + self.n_pruned).max(1) as f64
    }

    fn speedup(&self) -> f64 {
        self.dense_score_ms / self.topk_score_ms.max(1e-9)
    }

    fn speedup_cached(&self) -> f64 {
        self.dense_cached_ms / self.topk_cached_ms.max(1e-9)
    }
}

/// Times the dense and bound-pruned scoring phases for one metric on a
/// fixed circuit state, asserting the resulting top sets are
/// bit-identical before any timing is trusted. Counters come from the
/// last repeat (they are schedule-dependent diagnostics).
#[allow(clippy::too_many_arguments)]
fn bench_topk(
    name: &str,
    metric: &'static str,
    kind: MetricKind,
    g: &Aig,
    sim: &bitsim::Sim,
    golden: &[Vec<u64>],
    cands: &[Lac],
    devs: &[DevView<'_>],
    par: &'static ThreadPool,
) -> TopkReport {
    let mut eval = ErrorEval::new(kind, golden, N_PATTERNS);
    eval.rebase(&sim.output_sigs(g));
    let e = eval.current();
    let e_b = 1.0;

    let mut dense_ms: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut dense_scored = Vec::new();
    for _ in 0..REPEATS {
        let mut est = BatchEstimator::new(g, sim, &eval).use_pool(par);
        dense_scored = est.score_all(cands);
        dense_ms.push(est.phases().score_ms);
    }
    dense_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    dense_scored.retain(|s| s.gain > 0);
    let n_retained = dense_scored.len();
    let dense_top = obtain_top_set(dense_scored.clone(), e, e_b, TOPK_R_REF);

    // The fresh top-k arm builds each candidate's deviation mask inside
    // the timed region, as a round without a candidate store would.
    let mut topk_ms: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        let masks = direct_masks(sim, cands);
        let views: Vec<DevView<'_>> = masks.iter().map(DevMask::view).collect();
        let build_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut est = BatchEstimator::new(g, sim, &eval).use_pool(par);
        let (scored, stats) = est.score_topk(cands, &views, K_TOPK);
        topk_ms.push(build_ms + est.phases().score_ms);
        last = Some((scored, stats));
    }
    topk_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (scored, stats) = last.unwrap();
    assert_eq!(stats.n_candidates, n_retained, "{name}/{metric}: population");
    let pruned_top = obtain_top_set_from(scored, e, e_b, TOPK_R_REF, stats.n_candidates);
    check_agreement(name, &dense_top, &pruned_top);

    // Cached arms: the candidate store's deviation views stand in for
    // the fresh per-candidate mask builds, as on every warm round. The
    // dense cached arm scores every candidate exactly from the views.
    let mut dense_cached_ms: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut cached_scored = Vec::new();
    for _ in 0..REPEATS {
        let mut est = BatchEstimator::new(g, sim, &eval).use_pool(par);
        cached_scored = score_every(&mut est, cands, devs);
        dense_cached_ms.push(est.phases().score_ms);
    }
    dense_cached_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    check_agreement(name, &flow_sorted(dense_scored.clone()), &cached_scored);

    let mut topk_cached_ms: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut last = None;
    for _ in 0..REPEATS {
        let mut est = BatchEstimator::new(g, sim, &eval).use_pool(par);
        let (scored, stats) = est.score_topk(cands, devs, K_TOPK);
        topk_cached_ms.push(est.phases().score_ms);
        last = Some((scored, stats));
    }
    topk_cached_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (scored_c, stats_c) = last.unwrap();
    assert_eq!(stats_c.n_candidates, n_retained, "{name}/{metric}: cached population");
    let cached_top = obtain_top_set_from(scored_c, e, e_b, TOPK_R_REF, stats_c.n_candidates);
    check_agreement(name, &dense_top, &cached_top);

    TopkReport {
        metric,
        n_retained,
        dense_score_ms: dense_ms[dense_ms.len() / 2],
        topk_score_ms: topk_ms[topk_ms.len() / 2],
        dense_cached_ms: dense_cached_ms[dense_cached_ms.len() / 2],
        topk_cached_ms: topk_cached_ms[topk_cached_ms.len() / 2],
        n_exact: stats.n_exact,
        n_pruned: stats.n_pruned,
    }
}

struct CircuitReport {
    name: String,
    n_ands: usize,
    n_cands_r0: usize,
    n_cands_r1: usize,
    /// Candidate count of the scenario-B (local-commit) round-1 state
    /// the pipeline measurements run on.
    n_cands_pipe: usize,
    seed_dense_r0_ms: f64,
    sparse_serial_r0_ms: f64,
    sparse_par_r0_ms: f64,
    seed_dense_r1_ms: f64,
    sparse_par_fresh_r1_ms: f64,
    sparse_par_cached_r1_ms: f64,
    cache_hits: usize,
    cache_misses: usize,
    cache_carried: usize,
    candgen_fresh_r1_ms: f64,
    candgen_warm_r1_ms: f64,
    /// Sub-phase counters from one fresh generation pass on the
    /// round-1-local state (schedule-independent totals).
    candgen_fresh_ctrs: GenCounters,
    /// Sub-phase counters from the last warm (rolled-store) generation.
    candgen_warm_ctrs: GenCounters,
    pipe_fresh_r1_ms: f64,
    pipe_warm_r1_ms: f64,
    pipe_warm_phases: EstimatePhases,
    store_carried: usize,
    store_regenerated: usize,
    topk: Vec<TopkReport>,
}

impl CircuitReport {
    fn speedup_r1(&self) -> f64 {
        self.seed_dense_r1_ms / self.sparse_par_cached_r1_ms.max(1e-9)
    }

    /// Round-1 candgen + scoring, warm candidate store + mask cache vs
    /// everything from scratch.
    fn pipe_speedup(&self) -> f64 {
        self.pipe_fresh_r1_ms / self.pipe_warm_r1_ms.max(1e-9)
    }

    /// Candidate generation alone, warm (rolled store) vs fresh.
    fn candgen_speedup(&self) -> f64 {
        self.candgen_fresh_r1_ms / self.candgen_warm_r1_ms.max(1e-9)
    }

    fn to_json(&self) -> String {
        let mut s = String::from("    {\n");
        let _ = writeln!(s, "      \"circuit\": \"{}\",", self.name);
        let _ = writeln!(s, "      \"n_ands\": {},", self.n_ands);
        let _ = writeln!(s, "      \"n_patterns\": {N_PATTERNS},");
        let _ = writeln!(s, "      \"par_threads\": {PAR_THREADS},");
        let _ = writeln!(s, "      \"round0\": {{");
        let _ = writeln!(s, "        \"n_candidates\": {},", self.n_cands_r0);
        let _ = writeln!(s, "        \"seed_dense_ms\": {:.3},", self.seed_dense_r0_ms);
        let _ = writeln!(
            s,
            "        \"sparse_serial_ms\": {:.3},",
            self.sparse_serial_r0_ms
        );
        let _ = writeln!(s, "        \"sparse_par_ms\": {:.3}", self.sparse_par_r0_ms);
        let _ = writeln!(s, "      }},");
        let _ = writeln!(s, "      \"round1\": {{");
        let _ = writeln!(s, "        \"n_candidates\": {},", self.n_cands_r1);
        let _ = writeln!(s, "        \"seed_dense_ms\": {:.3},", self.seed_dense_r1_ms);
        let _ = writeln!(
            s,
            "        \"sparse_par_fresh_ms\": {:.3},",
            self.sparse_par_fresh_r1_ms
        );
        let _ = writeln!(
            s,
            "        \"sparse_par_cached_ms\": {:.3},",
            self.sparse_par_cached_r1_ms
        );
        let _ = writeln!(s, "        \"cache_hits\": {},", self.cache_hits);
        let _ = writeln!(s, "        \"cache_misses\": {},", self.cache_misses);
        let _ = writeln!(s, "        \"cache_carried\": {},", self.cache_carried);
        let _ = writeln!(
            s,
            "        \"speedup_vs_seed_dense\": {:.2}",
            self.speedup_r1()
        );
        let _ = writeln!(s, "      }},");
        // Scenario B: a local (near-output, small-fanout-cone) commit,
        // the regime the cross-round candidate store targets.
        let _ = writeln!(s, "      \"round1_local\": {{");
        let _ = writeln!(s, "        \"n_candidates\": {},", self.n_cands_pipe);
        let _ = writeln!(
            s,
            "        \"candgen_fresh_ms\": {:.3},",
            self.candgen_fresh_r1_ms
        );
        let _ = writeln!(
            s,
            "        \"candgen_warm_ms\": {:.3},",
            self.candgen_warm_r1_ms
        );
        let _ = writeln!(s, "        \"pipe_fresh_ms\": {:.3},", self.pipe_fresh_r1_ms);
        let _ = writeln!(s, "        \"pipe_warm_ms\": {:.3},", self.pipe_warm_r1_ms);
        let _ = writeln!(
            s,
            "        \"pipe_warm_mask_ms\": {:.3},",
            self.pipe_warm_phases.mask_ms
        );
        let _ = writeln!(
            s,
            "        \"pipe_warm_score_ms\": {:.3},",
            self.pipe_warm_phases.score_ms
        );
        let _ = writeln!(s, "        \"store_carried\": {},", self.store_carried);
        let _ = writeln!(
            s,
            "        \"store_regenerated\": {},",
            self.store_regenerated
        );
        let _ = writeln!(s, "        \"pipe_speedup\": {:.2}", self.pipe_speedup());
        let _ = writeln!(s, "      }},");
        // Scenario: candidate generation alone on the round-1-local
        // state, fresh vs warm, with the strip/probe/pool sub-phase
        // counters the flow traces also report.
        let _ = writeln!(s, "      \"candgen\": {{");
        let _ = writeln!(s, "        \"fresh_ms\": {:.3},", self.candgen_fresh_r1_ms);
        let _ = writeln!(s, "        \"warm_ms\": {:.3},", self.candgen_warm_r1_ms);
        let _ = writeln!(
            s,
            "        \"fresh_probe_draws\": {},",
            self.candgen_fresh_ctrs.probe_draws
        );
        let _ = writeln!(
            s,
            "        \"fresh_strip_cmps\": {},",
            self.candgen_fresh_ctrs.strip_cmps
        );
        let _ = writeln!(
            s,
            "        \"warm_probe_draws\": {},",
            self.candgen_warm_ctrs.probe_draws
        );
        let _ = writeln!(
            s,
            "        \"warm_strip_cmps\": {},",
            self.candgen_warm_ctrs.strip_cmps
        );
        let _ = writeln!(
            s,
            "        \"warm_pool_hits\": {},",
            self.candgen_warm_ctrs.pool_hits
        );
        let _ = writeln!(
            s,
            "        \"warm_pool_misses\": {},",
            self.candgen_warm_ctrs.pool_misses
        );
        let _ = writeln!(s, "        \"speedup\": {:.2}", self.candgen_speedup());
        let _ = writeln!(s, "      }},");
        // Scenario: bound-driven top-k pruning vs the dense scoring
        // phase on the round-0 state.
        let _ = writeln!(s, "      \"topk\": {{");
        let _ = writeln!(s, "        \"k\": {K_TOPK},");
        let _ = writeln!(s, "        \"r_ref\": {TOPK_R_REF},");
        let _ = writeln!(s, "        \"metrics\": [");
        for (i, t) in self.topk.iter().enumerate() {
            let _ = writeln!(s, "          {{");
            let _ = writeln!(s, "            \"metric\": \"{}\",", t.metric);
            let _ = writeln!(s, "            \"n_retained\": {},", t.n_retained);
            let _ = writeln!(s, "            \"dense_score_ms\": {:.3},", t.dense_score_ms);
            let _ = writeln!(s, "            \"topk_score_ms\": {:.3},", t.topk_score_ms);
            let _ = writeln!(
                s,
                "            \"dense_cached_ms\": {:.3},",
                t.dense_cached_ms
            );
            let _ = writeln!(s, "            \"topk_cached_ms\": {:.3},", t.topk_cached_ms);
            let _ = writeln!(s, "            \"scored_exact\": {},", t.n_exact);
            let _ = writeln!(s, "            \"scored_pruned\": {},", t.n_pruned);
            let _ = writeln!(s, "            \"prune_rate\": {:.3},", t.prune_rate());
            let _ = writeln!(s, "            \"speedup\": {:.2},", t.speedup());
            let _ = writeln!(
                s,
                "            \"speedup_cached\": {:.2}",
                t.speedup_cached()
            );
            let _ = writeln!(
                s,
                "          }}{}",
                if i + 1 < self.topk.len() { "," } else { "" }
            );
        }
        let _ = writeln!(s, "        ]");
        let _ = writeln!(s, "      }}");
        s.push_str("    }");
        s
    }
}

fn bench_circuit(name: &str, serial: &'static ThreadPool, par: &'static ThreadPool) -> CircuitReport {
    let g0 = benchgen::suite::by_name(name).expect("known circuit");
    let pats = Patterns::random(g0.n_pis(), N_PATTERNS, SEED);
    let sim0 = simulate(&g0, &pats);
    let golden = sim0.output_sigs(&g0);
    let kind = MetricKind::Er;
    let mut eval0 = ErrorEval::new(kind, &golden, pats.n_patterns());
    eval0.rebase(&golden);
    let cands0 = generate_candidates(&g0, &sim0, &CandidateConfig::default());

    // Round 0: a cold estimation pass, three ways.
    let (seed_dense_r0_ms, dense0) =
        time_median(|| seed_dense_score_all(&g0, &sim0, &eval0, &cands0));
    let (sparse_serial_r0_ms, sparse0) = time_median(|| {
        BatchEstimator::new(&g0, &sim0, &eval0)
            .use_pool(serial)
            .score_all(&cands0)
    });
    let (sparse_par_r0_ms, _) = time_median(|| {
        BatchEstimator::new(&g0, &sim0, &eval0)
            .use_pool(par)
            .score_all(&cands0)
    });
    check_agreement(name, &dense0, &sparse0);

    // Scenario A — a *global* commit: three lowest-ΔE picks at
    // distinct targets, wherever they land. Transfer masks read
    // downstream state (the logic between a node and the outputs), so
    // this is the regime that exercises the mask cache; candidate
    // generation reads upstream state and mostly regenerates here.
    let mut ranked: Vec<&ScoredLac> = sparse0.iter().filter(|s| s.gain > 0).collect();
    ranked.sort_by(|a, b| a.delta_e.partial_cmp(&b.delta_e).unwrap());
    let mut picked: Vec<Lac> = Vec::new();
    for s in ranked {
        if picked.iter().all(|l| l.tn != s.lac.tn) {
            picked.push(s.lac);
        }
        if picked.len() == 3 {
            break;
        }
    }
    let mut g1 = g0.clone();
    lac::apply_all(&mut g1, &picked);
    let remap = g1.cleanup().expect("apply keeps the graph acyclic");

    let sim1 = simulate(&g1, &pats);
    let mut eval1 = ErrorEval::new(kind, &golden, pats.n_patterns());
    eval1.rebase(&sim1.output_sigs(&g1));
    let cands1 = generate_candidates(&g1, &sim1, &CandidateConfig::default());

    // Round 1: the seed has no cache, so it always pays the full dense
    // pass; the current path is measured fresh and with a warm cache
    // rolled through the round's remap.
    let (seed_dense_r1_ms, dense1) =
        time_median(|| seed_dense_score_all(&g1, &sim1, &eval1, &cands1));
    let (sparse_par_fresh_r1_ms, fresh1) = time_median(|| {
        BatchEstimator::new(&g1, &sim1, &eval1)
            .use_pool(par)
            .score_all(&cands1)
    });
    check_agreement(name, &dense1, &fresh1);

    // Cached path: rebuild the cache state each repeat (round-0 scoring
    // plus the roll through the round's remap) but time only the
    // round-1 scoring itself.
    let mut cache_stats = None;
    let mut inner: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut cached_scored = Vec::new();
    for _ in 0..REPEATS {
        let mut cache = MaskCache::new();
        BatchEstimator::with_cache(&g0, &sim0, &eval0, &mut cache, None)
            .use_pool(par)
            .score_all(&cands0);
        let t0 = Instant::now();
        cached_scored = BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, Some(&remap))
            .use_pool(par)
            .score_all(&cands1);
        inner.push(t0.elapsed().as_secs_f64() * 1e3);
        cache_stats = Some(cache.stats());
    }
    inner.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let sparse_par_cached_r1_ms = inner[inner.len() / 2];
    check_agreement(name, &dense1, &cached_scored);

    // Scenario B — a *local* commit: three picks from the best error
    // quartile preferring the highest target ids, i.e. near-output
    // nodes with small fanout cones. This mirrors the bounded
    // dirty-region rounds that dominate a flow and is the regime the
    // candidate store is built for: generation reads upstream state
    // (deps, plus signatures in the edit's fanout cone), so a local
    // commit leaves most per-node candidate lists provably intact —
    // while the same commit, sitting near the outputs, legitimately
    // dirties most transfer masks. Identity against fresh generation
    // is asserted before any timing is trusted.
    let mut ranked: Vec<&ScoredLac> = sparse0.iter().filter(|s| s.gain > 0).collect();
    ranked.sort_by(|a, b| a.delta_e.partial_cmp(&b.delta_e).unwrap());
    ranked.truncate((ranked.len() / 4).max(3));
    ranked.sort_by_key(|s| std::cmp::Reverse(s.lac.tn));
    let mut picked_local: Vec<Lac> = Vec::new();
    for s in ranked {
        if picked_local.iter().all(|l| l.tn != s.lac.tn) {
            picked_local.push(s.lac);
        }
        if picked_local.len() == 3 {
            break;
        }
    }
    let mut g2 = g0.clone();
    lac::apply_all(&mut g2, &picked_local);
    let remap2 = g2.cleanup().expect("apply keeps the graph acyclic");
    let sim2 = simulate(&g2, &pats);
    let mut eval2 = ErrorEval::new(kind, &golden, pats.n_patterns());
    eval2.rebase(&sim2.output_sigs(&g2));

    // Round-1 pipeline (candgen + scoring), fresh vs warm. Fresh pays
    // full candidate generation and a cold estimator; warm rolls the
    // candidate store and the mask cache through the round's remap
    // (rebuilt untimed each repeat) and scores through the cached
    // deviation masks.
    let ccfg = CandidateConfig::default();
    let cands2 = generate_candidates(&g2, &sim2, &ccfg);
    let fresh2 = BatchEstimator::new(&g2, &sim2, &eval2)
        .use_pool(par)
        .score_all(&cands2);
    let (candgen_fresh_r1_ms, _) = time_median(|| generate_candidates(&g2, &sim2, &ccfg));
    let (_, candgen_fresh_ctrs) = generate_candidates_counted(&g2, &sim2, &ccfg);
    let (pipe_fresh_r1_ms, _) = time_median(|| {
        let c = generate_candidates(&g2, &sim2, &ccfg);
        BatchEstimator::new(&g2, &sim2, &eval2)
            .use_pool(par)
            .score_all(&c)
    });
    let mut candgen_warm: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut pipe_warm: Vec<f64> = Vec::with_capacity(REPEATS);
    let mut pipe_warm_phases = EstimatePhases::default();
    let mut store_stats = None;
    let mut candgen_warm_ctrs = GenCounters::default();
    for _ in 0..REPEATS {
        let mut store = CandidateStore::new();
        store.generate(&g0, &sim0, &ccfg, None, par, None);
        let mut cache = MaskCache::new();
        BatchEstimator::with_cache(&g0, &sim0, &eval0, &mut cache, None)
            .use_pool(par)
            .score_all(&cands0);
        let t0 = Instant::now();
        let warm_cands = store.generate(&g2, &sim2, &ccfg, Some(&remap2), par, None);
        candgen_warm.push(t0.elapsed().as_secs_f64() * 1e3);
        candgen_warm_ctrs = store.last_gen_counters();
        let mut est = BatchEstimator::with_cache(&g2, &sim2, &eval2, &mut cache, Some(&remap2))
            .use_pool(par);
        let warm_scored = score_every(&mut est, &warm_cands, &store.devs());
        pipe_warm.push(t0.elapsed().as_secs_f64() * 1e3);
        pipe_warm_phases = est.phases();
        assert_eq!(warm_cands, cands2, "{name}: warm candidate list diverged");
        check_agreement(name, &flow_sorted(fresh2.clone()), &warm_scored);
        store_stats = Some(store.stats());
    }
    candgen_warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    pipe_warm.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let candgen_warm_r1_ms = candgen_warm[candgen_warm.len() / 2];
    let pipe_warm_r1_ms = pipe_warm[pipe_warm.len() / 2];
    let sstats = store_stats.unwrap();

    // Topk scenario: dense vs bound-pruned scoring phase, per metric,
    // fresh and through precomputed deviation views (the warm-round
    // currency the candidate store hands the estimator).
    let dev_masks = direct_masks(&sim0, &cands0);
    let dev_views: Vec<DevView<'_>> = dev_masks.iter().map(|d| d.view()).collect();
    let topk = [("er", MetricKind::Er), ("nmed", MetricKind::Nmed), ("mred", MetricKind::Mred)]
        .into_iter()
        .map(|(m, kind)| bench_topk(name, m, kind, &g0, &sim0, &golden, &cands0, &dev_views, par))
        .collect();

    let stats = cache_stats.unwrap();
    CircuitReport {
        name: name.to_string(),
        n_ands: g0.n_ands(),
        n_cands_r0: cands0.len(),
        n_cands_r1: cands1.len(),
        n_cands_pipe: cands2.len(),
        seed_dense_r0_ms,
        sparse_serial_r0_ms,
        sparse_par_r0_ms,
        seed_dense_r1_ms,
        sparse_par_fresh_r1_ms,
        sparse_par_cached_r1_ms,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_carried: stats.carried,
        candgen_fresh_r1_ms,
        candgen_warm_r1_ms,
        candgen_fresh_ctrs,
        candgen_warm_ctrs,
        pipe_fresh_r1_ms,
        pipe_warm_r1_ms,
        pipe_warm_phases,
        store_carried: sstats.carried,
        store_regenerated: sstats.regenerated,
        topk,
    }
}

/// Each candidate's deviation mask, computed directly from `sim`.
fn direct_masks(sim: &bitsim::Sim, cands: &[Lac]) -> Vec<DevMask> {
    let mut scratch = vec![0u64; sim.stride()];
    cands
        .iter()
        .map(|l| DevMask::of(sim, l, &mut scratch))
        .collect()
}

/// Every `gain > 0` candidate scored exactly from precomputed deviation
/// masks: with `k` covering the whole list the top-k scorer prunes
/// nothing, so this is dense scoring, returned in flow order.
fn score_every(
    est: &mut BatchEstimator<'_>,
    cands: &[Lac],
    devs: &[DevView<'_>],
) -> Vec<ScoredLac> {
    est.score_topk(cands, devs, cands.len().max(1)).0
}

/// Dense `score_all` output reduced to what [`score_every`] returns:
/// the `gain > 0` candidates in flow order (`ΔE`, gain desc, target;
/// the stable sort keeps input order among ties).
fn flow_sorted(mut scored: Vec<ScoredLac>) -> Vec<ScoredLac> {
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

/// The sparse/parallel/cached paths all promise bit-identical scores;
/// a benchmark that compares disagreeing implementations is meaningless.
fn check_agreement(name: &str, a: &[ScoredLac], b: &[ScoredLac]) {
    assert_eq!(a.len(), b.len(), "{name}: score count diverged");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            x.delta_e.to_bits(),
            y.delta_e.to_bits(),
            "{name}: ΔE diverged for {}",
            x.lac
        );
        assert_eq!(x.gain, y.gain, "{name}: gain diverged for {}", x.lac);
    }
}

/// CI smoke: no timing, just the soundness contracts — `score_topk`'s
/// exactly-scored subset fed into the top-set selection reproduces the
/// dense `score_all` + `obtain_top_set` bit-for-bit; warm candidate
/// generation reproduces fresh generation (lists and deviation
/// payloads); and repeated warm scoring draws every scratch buffer from
/// the deviation pool instead of allocating.
fn smoke(par: &'static ThreadPool) {
    for name in ["rca32", "mtp8"] {
        let g = benchgen::suite::by_name(name).expect("known circuit");
        let pats = Patterns::random(g.n_pis(), 512, SEED);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        let cands = generate_candidates(&g, &sim, &CandidateConfig::default());
        for (m, kind) in [("er", MetricKind::Er), ("nmed", MetricKind::Nmed)] {
            let mut eval = ErrorEval::new(kind, &golden, pats.n_patterns());
            eval.rebase(&sim.output_sigs(&g));
            let mut dense = BatchEstimator::new(&g, &sim, &eval)
                .use_pool(par)
                .score_all(&cands);
            dense.retain(|s| s.gain > 0);
            let n = dense.len();
            let dense_top = obtain_top_set(dense, 0.0, 1.0, TOPK_R_REF);
            let masks = direct_masks(&sim, &cands);
            let views: Vec<DevView<'_>> = masks.iter().map(DevMask::view).collect();
            let (scored, stats) = BatchEstimator::new(&g, &sim, &eval)
                .use_pool(par)
                .score_topk(&cands, &views, K_TOPK);
            assert_eq!(stats.n_candidates, n, "{name}/{m}: population");
            let pruned_top = obtain_top_set_from(scored, 0.0, 1.0, TOPK_R_REF, stats.n_candidates);
            check_agreement(name, &dense_top, &pruned_top);
            println!(
                "smoke {name}/{m}: top set identical ({} members, {} pruned of {})",
                dense_top.len(),
                stats.n_pruned,
                stats.n_candidates
            );
        }

        // Candgen identity across a commit: the rolled store must hand
        // back the exact fresh list, and every arena-held deviation
        // payload must match a direct recomputation.
        let ccfg = CandidateConfig::default();
        let mut store = CandidateStore::new();
        let c0 = store.generate(&g, &sim, &ccfg, None, par, None);
        assert_eq!(c0, cands, "{name}: store round-0 list diverged");
        let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval.rebase(&sim.output_sigs(&g));
        let scored = BatchEstimator::new(&g, &sim, &eval)
            .use_pool(par)
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
        let rolled = store.generate(&g1, &sim1, &ccfg, Some(&remap), par, None);
        let fresh1 = generate_candidates(&g1, &sim1, &ccfg);
        assert_eq!(rolled, fresh1, "{name}: warm candidate list diverged");
        let mut scratch = vec![0u64; sim1.stride()];
        for (l, dv) in fresh1.iter().zip(store.devs()) {
            let direct = DevMask::of(&sim1, l, &mut scratch);
            assert!(
                dv.words == &*direct.words && dv.bits == &*direct.bits,
                "{name}: stored deviation of {l} diverged"
            );
        }
        println!(
            "smoke {name}: warm candgen identical ({} candidates, {} carried)",
            fresh1.len(),
            store.stats().carried
        );

        // Pooled scoring scratch: a second pass of the same warm calls
        // must be served entirely from the pool — zero new allocations.
        let mut eval1 = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval1.rebase(&sim1.output_sigs(&g1));
        let identity: Vec<Option<Lit>> = (0..g1.n_nodes())
            .map(|i| Some(Lit::new(NodeId::new(i), false)))
            .collect();
        let devs = store.devs();
        let mut cache = MaskCache::new();
        {
            let mut est = BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, None)
                .use_pool(par);
            est.score_topk(&rolled, &devs, K_TOPK);
            est.score_all(&rolled);
        }
        let allocs = cache.dev_pool().allocations();
        {
            let mut est =
                BatchEstimator::with_cache(&g1, &sim1, &eval1, &mut cache, Some(&identity))
                    .use_pool(par);
            est.score_topk(&rolled, &devs, K_TOPK);
            est.score_all(&rolled);
        }
        assert_eq!(
            cache.dev_pool().allocations(),
            allocs,
            "{name}: repeated warm scoring allocated fresh scratch"
        );
        println!("smoke {name}: dev pool steady at {allocs} buffers across repeated warm scoring");
    }
    println!("bench_estimate --smoke: topset + candgen identity OK, dev pool allocation-free when warm");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        let par: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(PAR_THREADS)));
        smoke(par);
        return;
    }
    let circuits: Vec<&str> = if args.is_empty() {
        vec!["rca32", "mtp8", "alu4"]
    } else {
        args.iter().map(String::as_str).collect()
    };
    let serial: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(1)));
    let par: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(PAR_THREADS)));

    println!(
        "bench_estimate: {N_PATTERNS} patterns, {REPEATS} repeats, {PAR_THREADS} threads (1 core visible: {} )",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut reports = Vec::new();
    for name in &circuits {
        let r = bench_circuit(name, serial, par);
        println!(
            "{:>6}: round0 dense {:.2}ms | sparse serial {:.2}ms | sparse par{} {:.2}ms",
            r.name, r.seed_dense_r0_ms, r.sparse_serial_r0_ms, PAR_THREADS, r.sparse_par_r0_ms
        );
        println!(
            "        round1 dense {:.2}ms | fresh {:.2}ms | cached {:.2}ms ({} hits / {} misses) -> {:.2}x vs seed",
            r.seed_dense_r1_ms,
            r.sparse_par_fresh_r1_ms,
            r.sparse_par_cached_r1_ms,
            r.cache_hits,
            r.cache_misses,
            r.speedup_r1()
        );
        println!(
            "        round1 candgen fresh {:.2}ms -> warm {:.2}ms ({:.2}x) | pipeline fresh {:.2}ms -> warm {:.2}ms ({} carried / {} regen) -> {:.2}x",
            r.candgen_fresh_r1_ms,
            r.candgen_warm_r1_ms,
            r.candgen_speedup(),
            r.pipe_fresh_r1_ms,
            r.pipe_warm_r1_ms,
            r.store_carried,
            r.store_regenerated,
            r.pipe_speedup()
        );
        println!(
            "        candgen counters: fresh {} probes / {} strip cmps | warm {} probes / {} strip cmps / {} pool hits / {} misses",
            r.candgen_fresh_ctrs.probe_draws,
            r.candgen_fresh_ctrs.strip_cmps,
            r.candgen_warm_ctrs.probe_draws,
            r.candgen_warm_ctrs.strip_cmps,
            r.candgen_warm_ctrs.pool_hits,
            r.candgen_warm_ctrs.pool_misses
        );
        for t in &r.topk {
            println!(
                "        topk {:>4}: dense score {:.2}ms -> pruned {:.2}ms ({} pruned of {}, {:.0}% prune) -> {:.2}x fresh | cached {:.2}ms -> {:.2}ms -> {:.2}x",
                t.metric,
                t.dense_score_ms,
                t.topk_score_ms,
                t.n_pruned,
                t.n_exact + t.n_pruned,
                100.0 * t.prune_rate(),
                t.speedup(),
                t.dense_cached_ms,
                t.topk_cached_ms,
                t.speedup_cached()
            );
        }
        reports.push(r);
    }

    let mut json = String::from("{\n  \"bench\": \"estimate\",\n  \"circuits\": [\n");
    for (i, r) in reports.iter().enumerate() {
        json.push_str(&r.to_json());
        json.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_estimate.json", &json).expect("write BENCH_estimate.json");
    println!("wrote BENCH_estimate.json");
}
