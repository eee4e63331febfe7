//! Resumable flow instances over externally-owned caches.
//!
//! [`crate::Accals::synthesize`] used to own its whole round loop: the
//! cross-round [`MaskCache`]/[`lac::CandidateStore`] state, the error
//! evaluator, and the per-round phases all lived in one function body,
//! so a flow could only run start-to-finish. Design-space exploration
//! wants more: a sweep over `(metric, error_bound, seed)` points runs
//! many flows whose round work is largely *identical* — everything up
//! to and including candidate scoring depends only on the current
//! circuit, the sample, the metric, and the candidate configuration,
//! not on the error bound — so nested-bound instances can share one
//! pass of the expensive phases for as long as their trajectories
//! agree.
//!
//! This module factors Algorithm 1 accordingly:
//!
//! - [`FlowCaches`] owns the bound-independent warm state (mask cache,
//!   candidate store, error evaluator, last commit remap) and can
//!   [`FlowCaches::fork`] when trajectories diverge. Dense rounds roll
//!   the two caches through the last commit remap; windowed rounds
//!   start both empty, since each window scores a different region;
//! - [`step_cohort`] is the one round driver. It advances a *cohort* —
//!   instances of one family (equal configuration except the bound)
//!   whose trajectories are still identical — paying the shared phases
//!   (simulation, rebase, candidate generation through the store, mask
//!   building, top-k scoring) once and only the bound-dependent
//!   selection, trials, and commits per member, with trial and commit
//!   results memoized across members. Its return value tells the
//!   caller how the cohort partitions after the round: members that
//!   committed the same edit stay together, everyone else gets forked
//!   caches;
//! - [`FlowInstance`] is a resumable flow value, and
//!   [`FlowInstance::step`] runs one round as a cohort of one.
//!
//! The determinism contract is inherited, not re-proven per scheduler:
//! every per-member decision consumes only that member's own state
//! (configuration, error, RNG) plus round data that is a pure function
//! of the shared circuit — so a member's trajectory through any cohort
//! schedule is bit-identical to a standalone run. The standalone run is
//! in turn pinned, round for round, to `fuzzkit::reference`: the dense
//! flow that regenerates, rescores and re-simulates everything.

use crate::conflict::find_solve_conflicts;
use crate::indep::select_indep_lacs;
use crate::topset::obtain_top_set_from;
use crate::trace::RoundTrace;
use crate::trial::{TrialEval, TrialMeasure};
use crate::window::WindowState;
use crate::{AccalsConfig, SynthesisResult};
use aig::{Aig, Lit};
use bitsim::{simulate, simulate_into, ConeTopology, PatchSimulator, Patterns, Sim};
use errmetrics::{error, ErrorEval, MetricKind};
use estimate::{BatchEstimator, MaskCache};
use lac::{apply_all, ApplyReport, CandidateStore, Lac, ScoredLac};
use parkit::{ScratchPool, ThreadPool};
use prng::rngs::StdRng;
use prng::seq::SliceRandom;
use prng::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Milliseconds of a duration, for the per-phase round timings.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The bound-independent warm state of a flow: the cross-round transfer
/// mask cache, the candidate store, the error evaluator, and the node
/// remapping of the last committed edit. Owned by the caller so sweep
/// engines can share it between instances traversing identical circuit
/// prefixes and [`FlowCaches::fork`] it at the divergence round.
///
/// It also owns the flow's signature-sized scratch, so that rounds over
/// large circuits reuse memory instead of mapping fresh buffers: the
/// simulation storage released by the revision before last (each round
/// simulates into it), the mask cache's cone simulators, and the trial
/// patch simulators.
#[derive(Debug)]
pub struct FlowCaches {
    pub(crate) mask: MaskCache,
    pub(crate) store: CandidateStore,
    pub(crate) eval: ErrorEval,
    pub(crate) last_remap: Option<Vec<Option<Lit>>>,
    /// Window-rotation state of windowed flows (which segments the
    /// current epoch has covered); default/empty for dense flows.
    pub(crate) window: WindowState,
    /// A handle to the simulation of the revision the caches last
    /// rolled to, and free signature buffers (the storage released by
    /// the revision before it).
    last_sim: Option<Sim>,
    sig_bufs: ScratchPool<Vec<u64>>,
    /// One trial re-simulation scratch per concurrent trial evaluator.
    patches: ScratchPool<PatchSimulator>,
}

impl FlowCaches {
    /// Fresh caches for a flow measuring `metric` against
    /// `golden_sigs` over `n_patterns` samples.
    pub fn new(metric: MetricKind, golden_sigs: &[Vec<u64>], n_patterns: usize) -> Self {
        FlowCaches {
            mask: MaskCache::new(),
            store: CandidateStore::new(),
            eval: ErrorEval::new(metric, golden_sigs, n_patterns),
            last_remap: None,
            window: WindowState::default(),
            last_sim: None,
            sig_bufs: ScratchPool::default(),
            patches: ScratchPool::default(),
        }
    }

    /// Records `sim` as the revision the caches now hold and, once the
    /// caches have let go of the previous revision, keeps its storage
    /// for the next round's simulation. A buffer still referenced
    /// elsewhere (a fork's snapshot) is simply not reused.
    fn retire(&mut self, sim: &Sim) {
        if let Some(words) = self
            .last_sim
            .replace(sim.clone())
            .and_then(Sim::into_buffer)
        {
            self.sig_bufs.put(words);
        }
    }

    /// Forks the caches at the current trajectory point. The fork is
    /// exactly what a flow that had followed the shared trajectory
    /// alone would hold, so branches diverging from here stay
    /// bit-identical to standalone runs. The caller is responsible for
    /// setting the fork's pending remap to its own branch's committed
    /// edit ([`step_cohort`] does this). Scratch is not shared: the
    /// fork starts with none.
    pub fn fork(&self) -> FlowCaches {
        FlowCaches {
            mask: self.mask.fork(),
            store: self.store.fork(),
            eval: self.eval.clone(),
            last_remap: self.last_remap.clone(),
            window: self.window.clone(),
            last_sim: None,
            sig_bufs: ScratchPool::default(),
            patches: ScratchPool::default(),
        }
    }
}

/// The bound-independent round work, computed once per circuit
/// revision: the simulation, the estimator's topology snapshot (which
/// trial evaluation reuses), the candidate scores in flow order, and
/// the shared part of every member's [`RoundTrace`].
pub(crate) struct RoundShared {
    sim: Sim,
    topo: Arc<ConeTopology>,
    scored: Vec<ScoredLac>,
    /// Candidate count, scoring counters, shared phase timings,
    /// generation counters and window size; every member's trace starts
    /// from it.
    trace: RoundTrace,
}

/// Runs the shared phases of one round — simulate, rebase the
/// evaluator, select the round window (when configured), generate
/// candidates through the store, build masks, and score — mutating
/// `caches` exactly as the monolithic loop did. Returns `None` when the
/// round would break (no candidates, or nothing scored with positive
/// gain, in any window of a full rotation): the flow has converged.
pub(crate) fn prepare_round(
    cfg: &AccalsConfig,
    pool: &'static ThreadPool,
    current: &Aig,
    pats: &Patterns,
    golden_sigs: &[Vec<u64>],
    caches: &mut FlowCaches,
    r_ref: usize,
) -> Option<RoundShared> {
    let sim = simulate_into(current, pats, caches.sig_bufs.take().unwrap_or_default());
    caches.eval.rebase(&sim.output_sigs(current));
    // A dense attempt (no window, or the circuit fits in one) rolls
    // both caches through the pending commit remap and is the round's
    // only attempt. Windowed attempts pass no remap, so both caches
    // start empty: carried entries would belong to regions the window
    // leaves out (DESIGN.md §14).
    let pending = caches.last_remap.take();
    // Two full rotations bound the empty-window retries: one pass over
    // the segments untouched this epoch, and — after the epoch resets —
    // one over the rest. Every segment has then proven empty. A
    // circuit that fits in one window gets its one dense attempt.
    let n_attempts = match cfg.window.as_ref() {
        Some(spec) => match crate::window::segment_count(current, spec) {
            1 => 1,
            n => 2 * n,
        },
        None => 1,
    };
    for _ in 0..n_attempts {
        let win = cfg.window.as_ref().and_then(|spec| {
            crate::window::select_window(
                current,
                &sim,
                golden_sigs,
                pats.n_patterns(),
                spec,
                &mut caches.window,
            )
        });
        let win_mask = win.as_ref().map(|w| w.mask.as_slice());
        let window_targets = win.as_ref().map_or(0, |w| w.targets);
        let remap = if win.is_some() {
            None
        } else {
            pending.as_deref()
        };
        let t_candgen = Instant::now();
        let cands = caches
            .store
            .generate(current, &sim, &cfg.candidates, remap, pool, win_mask);
        let gen_ctrs = caches.store.last_gen_counters();
        let candgen_ms = ms(t_candgen.elapsed());
        if cands.is_empty() {
            continue;
        }
        let mut estimator =
            BatchEstimator::with_cache(current, &sim, &caches.eval, &mut caches.mask, remap)
                .use_pool(pool);
        // Only candidates that can enter the round's top set need exact
        // scores: `r_top` never exceeds `max(r_ref, r_min)` (ties at the
        // minimum are always scored exactly), and the single-mode ladder
        // looks at the first 64 — so `max(r_ref, 64)` covers every
        // consumer. Candidates whose gain is not positive (changes that
        // cost more nodes than their MFFC frees are not LACs at all) are
        // filtered before scoring.
        let (scored, topk) = estimator.score_topk(&cands, &caches.store.devs(), r_ref.max(64));
        let phases = estimator.phases();
        let topo = Arc::clone(estimator.topology());
        drop(estimator);
        if scored.is_empty() {
            continue;
        }
        caches.retire(&sim);
        let trace = RoundTrace {
            n_candidates: topk.n_candidates,
            scored_exact: topk.n_exact,
            scored_pruned: topk.n_pruned,
            candgen_ms,
            mask_ms: phases.mask_ms,
            score_ms: phases.score_ms,
            candgen_probe_draws: gen_ctrs.probe_draws,
            candgen_strip_cmps: gen_ctrs.strip_cmps,
            candgen_pool_hits: gen_ctrs.pool_hits,
            candgen_pool_misses: gen_ctrs.pool_misses,
            window_targets,
            ..RoundTrace::default()
        };
        return Some(RoundShared {
            sim,
            topo,
            scored,
            trace,
        });
    }
    caches.retire(&sim);
    None
}

/// How a round concluded for one member: adopt the committed edit,
/// discard it and retry the unchanged revision with the next window,
/// or converge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RoundOutcome {
    Adopt,
    Retry,
    Finish,
}

/// A committed round edit: the new circuit, its measured error, the
/// apply report, and the cleanup remap from the round's base circuit.
/// Cohort members committing the same set share one `Arc<Committed>` —
/// pointer identity is how [`step_cohort`] partitions the cohort.
#[derive(Debug)]
pub(crate) struct Committed {
    aig: Aig,
    e_after: f64,
    report: ApplyReport,
    remap: Vec<Option<Lit>>,
}

/// The per-member view of one round: everything the bound-dependent
/// selection/trial/commit path reads. The round state borrowed from the
/// shared phases and the caches (`current` through `sig_bufs`) carries
/// the long `'a` lifetime shared with the memo scratch; the
/// member-specific fields are free to be shorter-lived.
pub(crate) struct RoundCtx<'s, 'a> {
    pub cfg: &'s AccalsConfig,
    pub pool: &'static ThreadPool,
    pub golden_sigs: &'s [Vec<u64>],
    pub pats: &'s Patterns,
    pub current: &'a Aig,
    pub sim: &'a Sim,
    pub topo: &'a Arc<ConeTopology>,
    pub eval: &'a ErrorEval,
    pub patches: &'a ScratchPool<PatchSimulator>,
    pub sig_bufs: &'a ScratchPool<Vec<u64>>,
    pub e: f64,
    pub r_ref: usize,
    pub r_sel: usize,
}

impl<'a> RoundCtx<'_, 'a> {
    /// A trial evaluator over the round's base circuit, on patch
    /// scratch from the flow's pool.
    fn trial_eval(&self) -> TrialEval<'a> {
        let patch = self
            .patches
            .take()
            .unwrap_or_else(|| PatchSimulator::new(self.sim.stride()));
        TrialEval::new(
            self.current,
            self.sim,
            self.eval,
            Arc::clone(self.topo),
            patch,
        )
    }

    /// The measured error of a committed circuit, by full simulation
    /// into one of the flow's free signature buffers. Debug builds hold
    /// every fresh commit's trial error to it.
    fn measure_committed(&self, aig: &Aig) -> f64 {
        let sim = simulate_into(aig, self.pats, self.sig_bufs.take().unwrap_or_default());
        let e = error(
            self.cfg.metric,
            self.golden_sigs,
            &sim.output_sigs(aig),
            self.pats.n_patterns(),
        );
        if let Some(words) = sim.into_buffer() {
            self.sig_bufs.put(words);
        }
        e
    }
}

/// Cross-member memoization for one cohort round. Trial measurements
/// and commits are pure functions of `(base circuit, LAC set)`, so
/// members that select the same set pay for it once.
#[derive(Default)]
pub(crate) struct RoundScratch<'a> {
    /// The round's trial evaluators, one per concurrent measurement.
    evals: ScratchPool<TrialEval<'a>>,
    trials: HashMap<(Vec<Lac>, bool), TrialMeasure>,
    commits: HashMap<Vec<Lac>, Arc<Committed>>,
}

impl<'a> RoundScratch<'a> {
    /// Ends the round, returning every evaluator's scratch to the
    /// flow's pool.
    fn finish(self, patches: &ScratchPool<PatchSimulator>) {
        while let Some(te) = self.evals.take() {
            patches.put(te.into_patch());
        }
    }

    /// Memoized incremental trial measurement of each of `sets` against
    /// the round's base circuit, in order. Sets the memo lacks are
    /// measured in parallel on the round's pool (inline on a serial
    /// one), each on an evaluator drawn from the round's. Measurements
    /// are pure (the [`TrialEval`] contract), so neither the memo nor
    /// the schedule is observable in the results.
    fn measure(
        &mut self,
        ctx: &RoundCtx<'_, 'a>,
        sets: &[&[ScoredLac]],
        want_n_ands: bool,
    ) -> Vec<TrialMeasure> {
        let keys: Vec<(Vec<Lac>, bool)> = sets
            .iter()
            .map(|set| (set.iter().map(|s| s.lac).collect(), want_n_ands))
            .collect();
        let mut misses: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if !self.trials.contains_key(key) && !misses.iter().any(|&j| keys[j] == *key) {
                misses.push(i);
            }
        }
        let evals = &self.evals;
        let measured = ctx.pool.par_map_collect(&misses, |_, &i| {
            let mut te = evals.take().unwrap_or_else(|| ctx.trial_eval());
            let m = te.measure(sets[i], want_n_ands);
            evals.put(te);
            m
        });
        for (i, m) in misses.into_iter().zip(measured) {
            self.trials.insert(keys[i].clone(), m);
        }
        keys.iter().map(|key| self.trials[key]).collect()
    }

    /// Memoized commit of `lacs`: clone, apply, cleanup. The
    /// trial-measured error `e_trial` stands in for a full re-measure
    /// (bit-identical by the [`TrialEval`] contract — debug builds
    /// verify it on every fresh commit).
    fn commit(
        &mut self,
        ctx: &RoundCtx<'_, 'a>,
        lacs: &[ScoredLac],
        e_trial: f64,
    ) -> Arc<Committed> {
        let key: Vec<Lac> = lacs.iter().map(|s| s.lac).collect();
        if let Some(c) = self.commits.get(&key) {
            return c.clone();
        }
        let mut copy = ctx.current.clone();
        let report = apply_all(&mut copy, &key);
        let remap = copy.cleanup().expect("editing keeps the graph acyclic");
        debug_assert_eq!(
            ctx.measure_committed(&copy).to_bits(),
            e_trial.to_bits(),
            "trial measurement diverged from the committed circuit"
        );
        let c = Arc::new(Committed {
            aig: copy,
            e_after: e_trial,
            report,
            remap,
        });
        self.commits.insert(key, c.clone());
        c
    }
}

/// One member's bound-dependent round: mode pick, selection, trials,
/// commit — mirroring the monolithic loop body (multi round with the
/// single-selection retry on no-progress). `scored` is never empty
/// (the caller's [`prepare_round`] guarantees it), so a committed edit
/// always comes back.
pub(crate) fn decide_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    shared: &RoundShared,
    rng: &mut StdRng,
    scratch: &mut RoundScratch<'a>,
) -> (Arc<Committed>, RoundTrace) {
    let single_mode = ctx.e > ctx.cfg.l_e * ctx.cfg.error_bound;
    if single_mode {
        return single_round(ctx, scratch, shared);
    }
    let (c1, t1) = multi_round(ctx, scratch, rng, shared);
    let progress = t1.applied > 0
        && c1.aig.n_ands() <= ctx.current.n_ands()
        && (c1.aig.n_ands() < ctx.current.n_ands() || t1.e_after != ctx.e);
    if progress {
        (c1, t1)
    } else {
        // The multi-LAC set churned without moving the circuit. Retry
        // with single selection from the SAME scored list: the
        // expensive simulate + estimate work is already paid for, so
        // this stays one round rather than burning a fresh estimation
        // pass on the retry.
        single_round(ctx, scratch, shared)
    }
}

fn single_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    shared: &RoundShared,
) -> (Arc<Committed>, RoundTrace) {
    // The scored list is already in flow order; the ladder walks its
    // head.
    let top = &shared.scored[..shared.scored.len().min(64)];
    // Try candidates in order until one makes progress (area shrinks,
    // or the error moves at equal area — never area growth, which
    // would let the flow cycle). A candidate that overshoots the
    // bound is terminal: Algorithm 1 stops there.
    let t_trial = Instant::now();
    let (i, m) = pick_single_trial(ctx, scratch, top).expect("scored list is non-empty");
    let trial_ms = ms(t_trial.elapsed());
    let best = &top[i];
    let t_commit = Instant::now();
    let committed = scratch.commit(ctx, std::slice::from_ref(best), m.e_after);
    let commit_ms = ms(t_commit.elapsed());
    let trace = RoundTrace {
        single_mode: true,
        r_top: 1,
        n_sol: 1,
        n_indp: 1,
        applied: committed.report.applied,
        dropped_cycle: committed.report.dropped_cycle,
        e_before: ctx.e,
        e_after: committed.e_after,
        e_est: ctx.e + best.delta_e,
        n_ands_after: committed.aig.n_ands(),
        trial_ms,
        commit_ms,
        ..shared.trace.clone()
    };
    (committed, trace)
}

/// The single-mode trial ladder over the incremental engine: finds the
/// index (and trial measurement) of the first candidate in `top` that
/// makes progress or overshoots the bound — the candidate the
/// sequential apply-and-measure ladder would stop at — without
/// committing any of them. Falls back to the last index when none is
/// decisive.
///
/// Candidates are measured in waves through the round's memo. With
/// more than one pool thread the waves speculate past the current
/// candidate and run in parallel; every measurement is bit-identical to
/// its sequential counterpart and the wave results are scanned in
/// candidate order, so the pick is deterministic at any thread count.
fn pick_single_trial<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    top: &[ScoredLac],
) -> Option<(usize, TrialMeasure)> {
    let n_ands = ctx.current.n_ands();
    let done = |m: &TrialMeasure| {
        let na = m.n_ands_after.expect("single trials measure area");
        let progress = na <= n_ands && (na < n_ands || m.e_after != ctx.e);
        progress || m.e_after > ctx.cfg.error_bound
    };
    // Ladders are shallow in practice (the first candidate is usually
    // decisive), so ramp the speculative wave geometrically: the first
    // wave costs the same as the sequential ladder, and full-width
    // speculation only engages on the rare deep ladder where the
    // parallel race actually pays. A serial pool has nothing to
    // speculate with and walks the ladder one candidate at a time.
    let threads = ctx.pool.threads();
    let wave_cap = if threads > 1 {
        (threads * 2).min(16)
    } else {
        1
    };
    let mut wave = 1;
    let mut start = 0;
    let mut last = None;
    while start < top.len() {
        let end = (start + wave).min(top.len());
        let sets: Vec<&[ScoredLac]> = top[start..end].iter().map(std::slice::from_ref).collect();
        for (i, m) in (start..).zip(scratch.measure(ctx, &sets, true)) {
            if done(&m) {
                return Some((i, m));
            }
            last = Some((i, m));
        }
        start = end;
        wave = (wave * 2).min(wave_cap);
    }
    last
}

fn multi_round<'a>(
    ctx: &RoundCtx<'_, 'a>,
    scratch: &mut RoundScratch<'a>,
    rng: &mut StdRng,
    shared: &RoundShared,
) -> (Arc<Committed>, RoundTrace) {
    let cfg = ctx.cfg;
    let t_select = Instant::now();
    // Eq. (2) clamps against the full retained population, which a
    // pruned `scored` subset no longer reflects — pass it through.
    let l_top = obtain_top_set_from(
        shared.scored.clone(),
        ctx.e,
        cfg.error_bound,
        ctx.r_ref,
        shared.trace.n_candidates,
    );
    let l_sol = find_solve_conflicts(&l_top);
    let l_indp = select_indep_lacs(
        ctx.current,
        &l_sol,
        ctx.e,
        cfg.error_bound,
        ctx.r_sel,
        cfg.t_b,
        cfg.lambda,
        cfg.mis,
    );
    // SelectRandomLACs: an equally sized uniform sample from L_sol.
    let l_rand: Vec<ScoredLac> = if cfg.race_random {
        l_sol.choose_multiple(rng, l_indp.len()).cloned().collect()
    } else {
        Vec::new()
    };
    let select_ms = ms(t_select.elapsed());

    // Trial-measure the independent and the random set (concurrently
    // when the pool has threads to spare), pick the winner, run the
    // `l_d` negative-set check on the trial measurements, and only then
    // commit the chosen set through the round's one real apply.
    let t_trial = Instant::now();
    let race = [l_indp.as_slice(), l_rand.as_slice()];
    let n_racers = if cfg.race_random { 2 } else { 1 };
    let es = scratch.measure(ctx, &race[..n_racers], false);
    let e1 = es[0].e_after;
    let e2 = es.get(1).map_or(f64::INFINITY, |m| m.e_after);

    let chose_indp = !cfg.race_random || e1 < e2 || (e1 == e2 && l_indp.len() >= l_rand.len());
    let (mut e_after, mut chosen) = if chose_indp {
        (e1, l_indp.as_slice())
    } else {
        (e2, l_rand.as_slice())
    };
    let mut e_est = ctx.e + chosen.iter().map(|s| s.delta_e).sum::<f64>();

    // Improvement technique 2: detect a negative LAC set and revert
    // to applying only the single best LAC.
    let mut reverted = false;
    if e_after > 0.0 && (e_after - e_est) / e_after > cfg.l_d {
        chosen = &l_top[..1];
        e_after = scratch.measure(ctx, &[chosen], false)[0].e_after;
        e_est = ctx.e + chosen[0].delta_e;
        reverted = true;
    }
    let trial_ms = ms(t_trial.elapsed());

    let t_commit = Instant::now();
    let committed = scratch.commit(ctx, chosen, e_after);
    let commit_ms = ms(t_commit.elapsed());
    let trace = RoundTrace {
        r_top: l_top.len(),
        n_sol: l_sol.len(),
        n_indp: l_indp.len(),
        n_rand: l_rand.len(),
        chose_indp,
        applied: committed.report.applied,
        dropped_cycle: committed.report.dropped_cycle,
        reverted,
        e_before: ctx.e,
        e_after,
        e_est,
        n_ands_after: committed.aig.n_ands(),
        select_ms,
        trial_ms,
        commit_ms,
        ..shared.trace.clone()
    };
    (committed, trace)
}

/// A resumable Algorithm 1 flow: one [`FlowInstance::step`] runs one
/// round against externally-owned [`FlowCaches`], leaving the instance
/// ready for the next round (or finished). Driving `step` to
/// completion with the caches it was created with is exactly
/// [`crate::Accals::synthesize`].
#[derive(Debug)]
pub struct FlowInstance {
    cfg: AccalsConfig,
    pool: &'static ThreadPool,
    pats: Arc<Patterns>,
    golden_sigs: Arc<Vec<Vec<u64>>>,
    rng: StdRng,
    current: Aig,
    e: f64,
    round: usize,
    rounds_since_shrink: usize,
    /// Consecutive strict-sub-window rounds discarded because their
    /// window overshot the bound or stalled (reset on every adopted
    /// round).
    window_fails: usize,
    finished: bool,
    traces: Vec<RoundTrace>,
    initial_ands: usize,
    r_ref: usize,
    r_sel: usize,
    start: Instant,
    elapsed: Duration,
}

impl FlowInstance {
    /// Creates a flow over `golden` plus its matching fresh caches.
    ///
    /// # Panics
    ///
    /// Panics if a configuration parameter is out of range, if `pats`
    /// does not cover `golden.n_pis()` inputs, if `golden` has no
    /// outputs, or if an arithmetic metric is asked for over more than
    /// 128 outputs.
    pub fn new(
        cfg: AccalsConfig,
        pool: &'static ThreadPool,
        golden: &Aig,
        pats: Arc<Patterns>,
    ) -> (FlowInstance, FlowCaches) {
        let golden_sim = simulate(golden, &pats);
        let golden_sigs = Arc::new(golden_sim.output_sigs(golden));
        let flow = FlowInstance::with_shared(cfg, pool, golden, pats, golden_sigs);
        let caches = flow.caches();
        // The first round simulates into the golden simulation's storage.
        if let Some(words) = golden_sim.into_buffer() {
            caches.sig_bufs.put(words);
        }
        (flow, caches)
    }

    /// Like [`FlowInstance::new`], but with precomputed golden output
    /// signatures — sweep engines share one simulation of the golden
    /// circuit across every instance over the same pattern set.
    ///
    /// # Panics
    ///
    /// Panics if a configuration parameter is out of range. The
    /// outputs are not checked here: [`FlowInstance::caches`] panics
    /// when `golden` has none or when an arithmetic metric is asked for
    /// over more than 128.
    pub fn with_shared(
        cfg: AccalsConfig,
        pool: &'static ThreadPool,
        golden: &Aig,
        pats: Arc<Patterns>,
        golden_sigs: Arc<Vec<Vec<u64>>>,
    ) -> FlowInstance {
        crate::validate_config(&cfg);
        let start = Instant::now();
        let rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_cafe);
        let initial_ands = golden.n_ands();
        let r_ref = cfg.r_ref.resolve(initial_ands, 0);
        let r_sel = cfg.r_sel.resolve(initial_ands, 1);
        FlowInstance {
            cfg,
            pool,
            pats,
            golden_sigs,
            rng,
            current: golden.clone(),
            e: 0.0,
            round: 0,
            rounds_since_shrink: 0,
            window_fails: 0,
            finished: false,
            traces: Vec::new(),
            initial_ands,
            r_ref,
            r_sel,
            start,
            elapsed: Duration::ZERO,
        }
    }

    /// Fresh caches matching this instance's metric and sample shape.
    ///
    /// # Panics
    ///
    /// Panics if the golden circuit has no outputs, or if the metric is
    /// arithmetic and the circuit has more than 128 outputs.
    pub fn caches(&self) -> FlowCaches {
        FlowCaches::new(self.cfg.metric, &self.golden_sigs, self.pats.n_patterns())
    }

    /// The instance's configuration.
    pub fn config(&self) -> &AccalsConfig {
        &self.cfg
    }

    /// Whether the flow has converged (no further `step` will run).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Rounds completed so far.
    pub fn round(&self) -> usize {
        self.round
    }

    /// Per-round diagnostics so far.
    pub fn rounds(&self) -> &[RoundTrace] {
        &self.traces
    }

    /// The current (last accepted) circuit.
    pub fn current(&self) -> &Aig {
        &self.current
    }

    /// The measured error of the current circuit.
    pub fn error(&self) -> f64 {
        self.e
    }

    fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            self.elapsed = self.start.elapsed();
        }
    }

    /// The loop tail of Algorithm 1: push the trace, stop on bound
    /// overshoot / shrink stagnation / no progress (keeping the
    /// previous circuit), otherwise adopt the committed edit. A strict
    /// sub-window round that overshoots or stalls exhausts only its
    /// *window*, not the circuit: the edit is discarded and the flow
    /// retries from the unchanged revision, letting the rotation move
    /// to the next region — until a full rotation of consecutive
    /// failures proves no window can make progress. On `Adopt` the
    /// caller leaves the commit remap pending for the caches; on
    /// `Retry` it leaves none, since the next windowed round starts
    /// them empty.
    fn conclude(&mut self, committed: &Committed, t: RoundTrace) -> RoundOutcome {
        let e_after = t.e_after;
        let applied = t.applied;
        let windowed = t.window_targets > 0;
        let cur_ands = self.current.n_ands();
        let next_ands = committed.aig.n_ands();
        let shrunk = next_ands < cur_ands;
        let progress = applied > 0 && next_ands <= cur_ands && (shrunk || e_after != self.e);
        self.traces.push(t);
        self.round += 1;
        if windowed && (e_after > self.cfg.error_bound || !progress) {
            // Two full rotations of consecutive failed windows bound
            // the retries, mirroring `prepare_round`'s empty-window
            // budget: every region has then proven unable to move the
            // flow at this revision.
            self.window_fails += 1;
            let budget = match &self.cfg.window {
                Some(spec) => 2 * crate::window::segment_count(&self.current, spec),
                None => 0,
            };
            if self.window_fails >= budget {
                self.finish();
                return RoundOutcome::Finish;
            }
            self.elapsed = self.start.elapsed();
            return RoundOutcome::Retry;
        }
        if e_after > self.cfg.error_bound {
            // The new circuit violates the bound: Algorithm 1 stops
            // and returns the previous circuit.
            self.finish();
            return RoundOutcome::Finish;
        }
        // The flow exists to reduce area: error-only movement is
        // tolerated briefly (positive sets can lower the error), but
        // a long stretch without any shrink means the candidate pool
        // is just churning masked nodes.
        if shrunk {
            self.rounds_since_shrink = 0;
        } else {
            self.rounds_since_shrink += 1;
            if self.rounds_since_shrink >= 30 {
                self.finish();
                return RoundOutcome::Finish;
            }
        }
        if !progress {
            // Neither the multi set nor the single-LAC retry moved
            // the circuit forward. Accepting an area-increasing edit
            // is never progress — gain estimates can be off by a
            // node after strashing, and taking such an edit lets the
            // flow oscillate between two circuits forever (grow with
            // lower error, re-shrink, repeat). The flow has
            // converged.
            self.finish();
            return RoundOutcome::Finish;
        }
        self.window_fails = 0;
        self.current = committed.aig.clone();
        self.e = e_after;
        self.elapsed = self.start.elapsed();
        RoundOutcome::Adopt
    }

    /// Runs one round: [`step_cohort`] over a cohort of one. Returns
    /// `false` once the flow has converged — the instance then holds
    /// the final circuit and error.
    pub fn step(&mut self, caches: &mut FlowCaches) -> bool {
        !self.finished && !step_cohort(std::slice::from_mut(self), caches).is_empty()
    }

    /// Consumes the instance into the standard synthesis result.
    pub fn into_result(self) -> SynthesisResult {
        let runtime = if self.finished {
            self.elapsed
        } else {
            self.start.elapsed()
        };
        SynthesisResult {
            aig: self.current,
            error: self.e,
            rounds: self.traces,
            runtime,
            initial_ands: self.initial_ands,
            n_patterns: self.pats.n_patterns(),
        }
    }
}

/// How a cohort partitions after one shared round: the members (by
/// index into the cohort slice, in order) that continue on one common
/// branch, and the caches that branch runs on — `None` for the first
/// group, which keeps the cohort's shared caches.
#[derive(Debug)]
pub struct CohortSplit {
    /// Continuing members of this branch, as indices into the slice
    /// passed to [`step_cohort`].
    pub members: Vec<usize>,
    /// Forked caches for the branch; `None` means "keep the caches the
    /// cohort was stepped with" (first group only).
    pub caches: Option<FlowCaches>,
}

/// Advances every member of a cohort by one round, sharing the
/// bound-independent phases. Preconditions (debug-asserted): all
/// members are unfinished, share one family (equal configuration
/// except the bound), the same pattern set, and identical current
/// circuits — i.e. their trajectories so far are identical, which is
/// exactly the state `caches` encodes.
///
/// Members whose flow converges this round are finalized in place;
/// the rest come back grouped by committed edit. Each member's round
/// is bit-identical to its standalone run.
pub fn step_cohort(members: &mut [FlowInstance], caches: &mut FlowCaches) -> Vec<CohortSplit> {
    step_cohort_impl(members, caches, false)
}

/// Fault-injected [`step_cohort`] for the fuzz harness: when
/// `late_fork` is set and a round's commits diverge, the fork happens
/// one round too late — every continuing member is kept on the *first*
/// group's branch (circuit and shared caches) for one extra round
/// before any split. Displaced members continue from a circuit their
/// own trajectory never produced, so their next round diverges from a
/// standalone run, which the sweep differential oracle exists to
/// catch. Never enable outside tests.
#[doc(hidden)]
pub fn step_cohort_faulted(
    members: &mut [FlowInstance],
    caches: &mut FlowCaches,
    late_fork: bool,
) -> Vec<CohortSplit> {
    step_cohort_impl(members, caches, late_fork)
}

fn step_cohort_impl(
    members: &mut [FlowInstance],
    caches: &mut FlowCaches,
    late_fork: bool,
) -> Vec<CohortSplit> {
    assert!(!members.is_empty(), "a cohort has at least one member");
    debug_assert!(
        members.iter().all(|m| !m.finished),
        "cohorts hold only unfinished members"
    );
    debug_assert!(
        members
            .iter()
            .all(|m| m.cfg.family_eq(&members[0].cfg) && m.round == members[0].round),
        "cohort members share one family and round"
    );
    if members[0].round >= members[0].cfg.max_rounds {
        for m in members.iter_mut() {
            m.finish();
        }
        return Vec::new();
    }
    // The shared base circuit, moved out of the first member (no copy)
    // so member state can be borrowed mutably during the per-member
    // decisions; it is moved back before any member concludes.
    let base = std::mem::replace(&mut members[0].current, Aig::new("", 0));
    debug_assert!(
        members[1..]
            .iter()
            .all(|m| m.current.n_nodes() == base.n_nodes()),
        "cohort members share one circuit"
    );
    let decisions = decide_cohort(members, &base, caches);
    members[0].current = base;
    let Some(decisions) = decisions else {
        for m in members.iter_mut() {
            m.finish();
        }
        return Vec::new();
    };
    // Outer option: still continuing. Inner option: adopted an edit
    // (`None` = windowed retry from the unchanged revision).
    let outcomes: Vec<Option<Option<Arc<Committed>>>> = members
        .iter_mut()
        .zip(decisions)
        .map(|(m, (committed, t))| match m.conclude(&committed, t) {
            RoundOutcome::Adopt => Some(Some(committed)),
            RoundOutcome::Retry => Some(None),
            RoundOutcome::Finish => None,
        })
        .collect();

    // Partition continuing members by committed-edit identity (memo
    // Arc pointer): members that committed the same set share the same
    // downstream cache state. Distinct sets reaching the same circuit
    // are (conservatively, safely) treated as separate branches.
    // Windowed retries form one extra branch staying on the base
    // circuit, with no remap pending (windowed rounds roll none).
    let mut groups: Vec<(Vec<usize>, Option<Arc<Committed>>)> = Vec::new();
    for (i, oc) in outcomes.iter().enumerate() {
        if let Some(c) = oc {
            let same = |g: &Option<Arc<Committed>>| match (g, c) {
                (Some(g), Some(c)) => Arc::ptr_eq(g, c),
                (None, None) => true,
                _ => false,
            };
            match groups.iter_mut().find(|(_, g)| same(g)) {
                Some((v, _)) => v.push(i),
                None => groups.push((vec![i], c.clone())),
            }
        }
    }
    if late_fork && groups.len() > 1 && groups[0].1.is_some() {
        // Deliberate fault: defer the fork by one round. Every
        // continuing member stays on the FIRST group's branch — its
        // circuit and the shared caches — for one more round, as if the
        // commit divergence had gone unnoticed. The caches alone cannot
        // carry the fault (their carry logic re-validates every entry
        // against the circuit it is asked to serve), but the displaced
        // members now continue from a circuit their own trajectory
        // never produced, so their next round must diverge from a
        // standalone run — which the sweep differential oracle exists
        // to catch.
        let (g0, c0) = &groups[0];
        let c0 = c0.as_ref().expect("guarded: group 0 adopted an edit");
        caches.last_remap = Some(c0.remap.clone());
        let mut all: Vec<usize> = groups.iter().flat_map(|(v, _)| v.iter().copied()).collect();
        all.sort_unstable();
        for &i in &all {
            if !g0.contains(&i) {
                members[i].current = c0.aig.clone();
            }
        }
        return vec![CohortSplit {
            members: all,
            caches: None,
        }];
    }
    let mut out = Vec::with_capacity(groups.len());
    for (gi, (idxs, c)) in groups.into_iter().enumerate() {
        let remap = c.map(|c| c.remap.clone());
        if gi == 0 {
            // The first group keeps the shared caches; its remap is
            // what the next prepare rolls them through.
            caches.last_remap = remap;
            out.push(CohortSplit {
                members: idxs,
                caches: None,
            });
        } else {
            let mut f = caches.fork();
            f.last_remap = remap;
            out.push(CohortSplit {
                members: idxs,
                caches: Some(f),
            });
        }
    }
    out
}

/// The shared phases of one cohort round over `base`, then every
/// member's bound-dependent decision, in member order. `None` when the
/// flow has converged (the round would break for every member).
fn decide_cohort(
    members: &mut [FlowInstance],
    base: &Aig,
    caches: &mut FlowCaches,
) -> Option<Vec<(Arc<Committed>, RoundTrace)>> {
    let rep = &members[0];
    let (pats, golden_sigs) = (rep.pats.clone(), rep.golden_sigs.clone());
    let shared = prepare_round(
        &rep.cfg,
        rep.pool,
        base,
        &pats,
        &golden_sigs,
        caches,
        rep.r_ref,
    )?;
    let mut scratch = RoundScratch::default();
    let decisions = members
        .iter_mut()
        .map(|m| {
            let ctx = RoundCtx {
                cfg: &m.cfg,
                pool: m.pool,
                golden_sigs: &golden_sigs,
                pats: &pats,
                current: base,
                sim: &shared.sim,
                topo: &shared.topo,
                eval: &caches.eval,
                patches: &caches.patches,
                sig_bufs: &caches.sig_bufs,
                e: m.e,
                r_ref: m.r_ref,
                r_sel: m.r_sel,
            };
            let (committed, mut t) = decide_round(&ctx, &shared, &mut m.rng, &mut scratch);
            t.round = m.round;
            (committed, t)
        })
        .collect();
    scratch.finish(&caches.patches);
    Some(decisions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SizeParam, WindowSpec};
    use aig::NodeId;

    #[test]
    fn windowed_steps_start_both_caches_empty() {
        let golden = benchgen::suite::by_name("rca32").expect("suite circuit");
        let mut cfg = AccalsConfig::new(MetricKind::Nmed, 0.02);
        cfg.r_ref = SizeParam::Fixed(40);
        cfg.r_sel = SizeParam::Fixed(8);
        cfg.max_exhaustive = 1 << 10;
        cfg.n_random_patterns = 1 << 10;
        cfg.window = Some(WindowSpec { max_targets: 64 });
        let pats = Arc::new(Patterns::for_circuit(
            golden.n_pis(),
            cfg.max_exhaustive,
            cfg.n_random_patterns,
            cfg.seed,
        ));
        let pool: &'static ThreadPool = Box::leak(Box::new(ThreadPool::new(2)));
        let (mut flow, mut caches) = FlowInstance::new(cfg, pool, &golden, pats);
        let mut windowed = 0;
        loop {
            let base_nodes = flow.current().n_nodes();
            let n_rounds = flow.rounds().len();
            let (store0, mask0) = (caches.store.stats(), caches.mask.stats());
            let going = flow.step(&mut caches);
            let t = match flow.rounds().get(n_rounds) {
                Some(t) if t.window_targets > 0 => t,
                _ if going => continue,
                _ => break,
            };
            windowed += 1;
            let at = format!("round {}", t.round);
            assert_eq!(
                caches.store.stats().carried,
                store0.carried,
                "{at}: store carried"
            );
            assert_eq!(
                caches.mask.stats().carried,
                mask0.carried,
                "{at}: masks carried"
            );
            // The store holds an entry for every in-window target and
            // for nothing else; the scored population is its list less
            // the candidates without positive gain.
            let held = (0..base_nodes)
                .filter(|&i| caches.store.entry_born(NodeId::new(i)).is_some())
                .count();
            assert_eq!(held, t.window_targets, "{at}: store entries");
            let n_devs = caches.store.devs().len();
            assert!(
                n_devs >= t.n_candidates && n_devs > 0,
                "{at}: {n_devs} devs"
            );
            if !going {
                break;
            }
        }
        assert!(windowed >= 2, "only {windowed} windowed rounds ran");
    }
}
