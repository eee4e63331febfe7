//! The random operation-sequence driver and its differential oracles.
//!
//! [`run_case`] replays a [`FuzzCase`] as a sequence of operations over
//! one circuit — synthesis rounds (candidate generation, batch
//! estimation, trial evaluation, optional commit), raw rewiring edits,
//! and cleanup/compaction passes — while holding every incremental path
//! to its contract:
//!
//! | incremental path            | oracle                                            |
//! |-----------------------------|---------------------------------------------------|
//! | `aig` editing/compaction    | [`Aig::check_invariants`] after every operation   |
//! | incremental resimulation    | [`Sim::check_consistent`] fixpoint check, simulating into the previous round's recycled buffer |
//! | `lac::CandidateStore`       | fresh [`generate_candidates`] lists + `DevMask` recomputation |
//! | `estimate::MaskCache`       | fresh [`BatchEstimator::new`] ΔE bits at 1/2/8 threads; the cache's cone simulators last served an earlier revision |
//! | `estimate` top-k pruning    | dense `obtain_top_set` bit-identity at 1/2/8 threads, direct + stored masks; unpruned top-k from stored masks vs dense scores |
//! | `accals::TrialEval`         | clone → `apply_all` → `cleanup` → resimulate → re-measure, on patch scratch kept from earlier rounds |
//! | `sweep` cohort sharing      | batched bound ladder vs standalone flows: bit-identical trajectories |
//! | windowed candidate paths    | windowed generation (fresh + store-carried) vs full generation filtered to the window; full-span windowed flow vs dense flow bit-identity |
//! | `errmetrics` end to end     | BDD exact error vs exhaustive simulation (≤14 inputs) |
//! | the whole round pipeline    | [`crate::reference`] dense flow, ER + a mean metric at 1/2 threads: identical trajectory and final circuit |
//!
//! All floating-point comparisons on the incremental paths are
//! *bit-identical* (`f64::to_bits`); only the BDD oracle uses an
//! epsilon, since it computes through a different summation order.

use std::sync::{Arc, OnceLock};

use accals::conflict::find_solve_conflicts;
use accals::topset::{obtain_top_set, obtain_top_set_from};
use accals::{Accals, AccalsConfig, SizeParam, TrialEval, WindowSpec};
use aig::{remap, Aig, Lit, NodeId};
use bitsim::{simulate, simulate_into, ConeTopology, PatchSimulator, Patterns, Sim};
use errmetrics::{full_strips_consecutive, ErrorEval, MetricKind};
use estimate::{BatchEstimator, MaskCache};
use lac::{
    apply_all, generate_candidates, generate_candidates_windowed_counted, CandidateConfig,
    CandidateStore, DevMask, DevView, Lac, ScoredLac,
};
use parkit::ThreadPool;
use prng::{rngs::StdRng, Rng, SeedableRng};
use sweep::{SweepJob, SweepOptions};

use crate::{gen, Fault, FuzzCase, Source};

/// A differential-oracle violation (or a driver-level contract miss),
/// tied to the case and operation that produced it.
#[derive(Debug, Clone)]
pub struct Failure {
    /// The case that failed; `case.to_string()` is the one-line repro.
    pub case: FuzzCase,
    /// Index of the failing operation (`n_ops` for the final BDD and
    /// flow passes).
    pub op: usize,
    /// Which oracle tripped, e.g. `candidate-store/list`.
    pub oracle: String,
    /// Human-readable mismatch description.
    pub detail: String,
}

impl Failure {
    /// The single-line seed repro for this failure.
    pub fn repro_line(&self) -> String {
        self.case.to_string()
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "oracle `{}` failed at op {}: {}\n  repro: {}",
            self.oracle, self.op, self.detail, self.case
        )
    }
}

/// What a passing case exercised, for soak-run visibility.
#[derive(Debug, Clone, Copy, Default)]
pub struct CaseStats {
    /// Synthesis rounds executed.
    pub rounds: usize,
    /// Candidates cross-checked between store and fresh generation.
    pub candidates: usize,
    /// Trial sets measured against the committed path.
    pub trials: usize,
    /// LAC sets committed.
    pub commits: usize,
    /// Raw rewiring edits applied.
    pub raw_edits: usize,
    /// BDD exact-error comparisons performed.
    pub bdd_checks: usize,
    /// Batched-vs-standalone sweep comparisons performed.
    pub sweeps: usize,
    /// Windowed-vs-filtered candidate comparisons performed.
    pub windows: usize,
    /// Flow configurations compared between production and reference.
    pub flows: usize,
    /// Top-k scoring checks whose bounded replay ran on the integer
    /// word kernel (MED/NMED within the `2^53` limit).
    pub topk_word_kernel: usize,
    /// Of those, the checks where some candidate's deviating words hold
    /// a full strip of consecutive words (see
    /// [`errmetrics::full_strips_consecutive`]).
    pub topk_word_consecutive_strips: usize,
    /// Of those, the checks where some candidate's deviating words hold
    /// a full strip with a gap.
    pub topk_word_gapped_strips: usize,
    /// Top-k scoring checks whose bounded replay ran on the per-pattern
    /// fold (MRED, MSE, and MED/NMED beyond the limit).
    pub topk_pattern_kernel: usize,
    /// Top-k scoring checks on the exact scorers that never prune (ER's
    /// union fold, WCE's fused fold).
    pub topk_exact: usize,
}

/// The thread counts every scoring comparison runs at.
const THREADS: [usize; 3] = [1, 2, 8];

fn pools() -> &'static [&'static ThreadPool; 3] {
    static POOLS: OnceLock<[&'static ThreadPool; 3]> = OnceLock::new();
    POOLS.get_or_init(|| THREADS.map(|t| &*Box::leak(Box::new(ThreadPool::new(t)))))
}

/// Composes two cleanup remaps: `old` (revision A → B) followed by
/// `new` (B → C) gives A → C. Nodes appended after revision A need no
/// preimage, so the composed map covers exactly A's table.
fn compose_remaps(old: &[Option<Lit>], new: &[Option<Lit>]) -> Vec<Option<Lit>> {
    old.iter()
        .map(|l| l.and_then(|l| remap::image(new, l)))
        .collect()
}

struct Driver<'c> {
    case: &'c FuzzCase,
    op: usize,
    rng: StdRng,
    kind: MetricKind,
    pats: Patterns,
    golden: Aig,
    golden_sigs: Vec<Vec<u64>>,
    current: Aig,
    store: CandidateStore,
    mask_cache: MaskCache,
    /// Scratch that outlives a round, as a flow's does: the trial patch
    /// simulator, the previous round's simulation, and the storage of
    /// the one before it, which the next round simulates into.
    patch: PatchSimulator,
    last_sim: Option<Sim>,
    spare_sigs: Vec<u64>,
    /// Remap from the revision the caches last snapshotted to
    /// `current`; `None` flushes (first round, or an edit declared
    /// unknown on purpose).
    last_remap: Option<Vec<Option<Lit>>>,
    ccfg: CandidateConfig,
    stats: CaseStats,
}

impl<'c> Driver<'c> {
    fn fail(&self, oracle: &str, detail: String) -> Failure {
        Failure {
            case: *self.case,
            op: self.op,
            oracle: oracle.to_string(),
            detail,
        }
    }

    fn check_graph(&self, what: &str, g: &Aig) -> Result<(), Failure> {
        g.check_invariants()
            .map_err(|e| self.fail("aig/invariants", format!("{what}: {e}")))
    }

    /// One synthesis round: simulate, cross-check candidate generation
    /// and scoring at every thread count, trial-measure a few sets, and
    /// maybe commit one.
    fn round(&mut self) -> Result<(), Failure> {
        self.stats.rounds += 1;
        let sim = simulate_into(
            &self.current,
            &self.pats,
            std::mem::take(&mut self.spare_sigs),
        );
        sim.check_consistent(&self.current)
            .map_err(|e| self.fail("bitsim/fixpoint", e))?;
        self.check_graph("round start", &self.current)?;

        let mut eval = ErrorEval::new(self.kind, &self.golden_sigs, self.pats.n_patterns());
        eval.rebase(&sim.output_sigs(&self.current));

        // Candidate store vs fresh generation: same lists, same masks.
        let fresh = generate_candidates(&self.current, &sim, &self.ccfg);
        let stored = self.store.generate(
            &self.current,
            &sim,
            &self.ccfg,
            self.last_remap.as_deref(),
            pools()[2],
            None,
        );
        if stored != fresh {
            let detail = describe_list_diff(&stored, &fresh);
            return Err(self.fail("candidate-store/list", detail));
        }
        let devs = self.store.devs();
        if devs.len() != fresh.len() {
            return Err(self.fail(
                "candidate-store/devmask",
                format!("{} masks for {} candidates", devs.len(), fresh.len()),
            ));
        }
        let mut scratch = vec![0u64; sim.stride()];
        let direct: Vec<DevMask> = fresh
            .iter()
            .map(|lac| DevMask::of(&sim, lac, &mut scratch))
            .collect();
        for ((lac, dev), direct) in fresh.iter().zip(&devs).zip(&direct) {
            if dev.words != &*direct.words || dev.bits != &*direct.bits {
                return Err(self.fail(
                    "candidate-store/devmask",
                    format!("deviation of `{lac}` drifted from direct recomputation"),
                ));
            }
        }
        let direct_devs: Vec<DevView<'_>> = direct.iter().map(DevMask::view).collect();
        self.stats.candidates += fresh.len();

        // Scoring: fresh estimators at 1/2/8 threads set the reference;
        // the cached estimator (rolled once with the real remap, then
        // with identity remaps) and the devmask-reusing path must all
        // be bit-identical to it.
        let reference = BatchEstimator::new(&self.current, &sim, &eval)
            .use_pool(pools()[0])
            .score_all(&fresh);
        for (t, pool) in THREADS.iter().zip(pools()).skip(1) {
            let scores = BatchEstimator::new(&self.current, &sim, &eval)
                .use_pool(pool)
                .score_all(&fresh);
            if let Some(d) = score_diff(&reference, &scores) {
                return Err(self.fail("estimate/threads", format!("fresh at {t} threads: {d}")));
            }
        }
        let identity = remap::identity(self.current.n_nodes());
        for (i, (t, pool)) in THREADS.iter().zip(pools()).enumerate() {
            let remap = if i == 0 {
                self.last_remap.as_deref()
            } else {
                Some(identity.as_slice())
            };
            let scores =
                BatchEstimator::with_cache(&self.current, &sim, &eval, &mut self.mask_cache, remap)
                    .use_pool(pool)
                    .score_all(&fresh);
            if let Some(d) = score_diff(&reference, &scores) {
                return Err(self.fail("mask-cache/score", format!("cached at {t} threads: {d}")));
            }
        }
        // Top-k scoring from stored deviation masks vs the dense
        // reference. With `k` covering every candidate nothing can be
        // pruned, so the result must be exactly the retained (`gain > 0`)
        // dense scores in flow order.
        let retained: Vec<ScoredLac> = reference.iter().filter(|s| s.gain > 0).cloned().collect();
        let mut dense_order = retained.clone();
        dense_order.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .expect("ΔE is never NaN")
                .then(b.gain.cmp(&a.gain))
                .then(a.lac.tn.cmp(&b.lac.tn))
        });
        let (all, _) = BatchEstimator::with_cache(
            &self.current,
            &sim,
            &eval,
            &mut self.mask_cache,
            Some(identity.as_slice()),
        )
        .use_pool(pools()[1])
        .score_topk(&fresh, &devs, fresh.len().max(1));
        if let Some(d) = score_diff(&dense_order, &all) {
            return Err(self.fail("mask-cache/devs", d));
        }

        // Top-k pruned scoring vs the dense reference: feeding the
        // pruned subset (with the full population count) into the
        // top-set selection must reproduce `obtain_top_set` over all
        // retained candidates bit-for-bit — members, ΔE bits, order —
        // at every thread count, from directly computed and from stored
        // deviation masks.
        if !retained.is_empty() {
            let e = eval.current();
            // Decorrelated stream: the top-set knobs must not perturb
            // the main op-sequence RNG, or every case downstream of this
            // oracle would reshuffle.
            let mut krng =
                StdRng::seed_from_u64(crate::stream_u64(self.case.seed, 0x70b0 ^ self.op as u64));
            let e_b = [0.05, 0.25, 1.0][krng.gen_range(0..3usize)];
            let r_ref = krng.gen_range(1..=6usize);
            let k = r_ref.max(8);
            let dense_top = obtain_top_set(retained.clone(), e, e_b, r_ref);
            let fault = self.case.fault == Fault::TopkLooseBound;
            let (fcase, fop, n_retained) = (*self.case, self.op, retained.len());
            let check = move |what: String,
                              topk: Vec<ScoredLac>,
                              st: estimate::TopkStats|
                  -> Result<(), Failure> {
                let fail = |oracle: &str, detail: String| Failure {
                    case: fcase,
                    op: fop,
                    oracle: oracle.to_string(),
                    detail,
                };
                if st.n_candidates != n_retained {
                    return Err(fail(
                        "topk/population",
                        format!(
                            "{what}: {n_retained} gain>0 candidates, top-k saw {}",
                            st.n_candidates
                        ),
                    ));
                }
                if topk.is_empty() {
                    return Err(fail("topk/topset", format!("{what}: empty top-k result")));
                }
                let pruned_top = obtain_top_set_from(topk, e, e_b, r_ref, st.n_candidates);
                if let Some(d) = score_diff(&dense_top, &pruned_top) {
                    return Err(fail("topk/topset", format!("{what}: {d}")));
                }
                Ok(())
            };
            for (t, pool) in THREADS.iter().zip(pools()) {
                let mut est = BatchEstimator::new(&self.current, &sim, &eval).use_pool(pool);
                est.inject_unsound_bound(fault);
                let (topk, st) = est.score_topk(&fresh, &direct_devs, k);
                check(format!("direct masks at {t} threads"), topk, st)?;
            }
            let mut est = BatchEstimator::with_cache(
                &self.current,
                &sim,
                &eval,
                &mut self.mask_cache,
                Some(identity.as_slice()),
            )
            .use_pool(pools()[1]);
            est.inject_unsound_bound(fault);
            let (topk, st) = est.score_topk(&fresh, &devs, k);
            check("stored masks at 2 threads".to_string(), topk, st)?;
            let checks = THREADS.len() + 1;
            if matches!(self.kind, MetricKind::Er | MetricKind::Wce) {
                self.stats.topk_exact += checks;
            } else if eval.word_kernel_eligible() {
                self.stats.topk_word_kernel += checks;
                let holds = |shape: bool| {
                    devs.iter()
                        .any(|d| full_strips_consecutive(d.words).any(|c| c == shape))
                };
                if holds(true) {
                    self.stats.topk_word_consecutive_strips += checks;
                }
                if holds(false) {
                    self.stats.topk_word_gapped_strips += checks;
                }
            } else {
                self.stats.topk_pattern_kernel += checks;
            }
        }

        // Trial evaluation vs the committed path, then maybe commit.
        let mut committed = false;
        if !reference.is_empty() && self.rng.gen_bool(0.9) {
            let topo = ConeTopology::build(&self.current);
            let patch = std::mem::replace(&mut self.patch, PatchSimulator::new(0));
            let mut trial = TrialEval::new(&self.current, &sim, &eval, Arc::clone(&topo), patch);
            let n_sets = self.rng.gen_range(1..=2);
            let mut last_set: Vec<ScoredLac> = Vec::new();
            for _ in 0..n_sets {
                let set = pick_set(&mut self.rng, &reference);
                if set.is_empty() {
                    continue;
                }
                let m = trial.measure(&set, true);
                self.stats.trials += 1;

                let mut ref_aig = self.current.clone();
                let lacs: Vec<Lac> = set.iter().map(|s| s.lac).collect();
                let ref_report = apply_all(&mut ref_aig, &lacs);
                ref_aig
                    .cleanup()
                    .map_err(|e| self.fail("aig/cleanup", format!("reference commit: {e}")))?;
                self.check_graph("reference commit", &ref_aig)?;
                let ref_sim = simulate(&ref_aig, &self.pats);
                let mut ref_eval =
                    ErrorEval::new(self.kind, &self.golden_sigs, self.pats.n_patterns());
                ref_eval.rebase(&ref_sim.output_sigs(&ref_aig));
                let e_ref = ref_eval.current();

                if m.report != ref_report {
                    return Err(self.fail(
                        "trial-eval/report",
                        format!("trial {:?} vs committed {:?}", m.report, ref_report),
                    ));
                }
                if m.e_after.to_bits() != e_ref.to_bits() {
                    return Err(self.fail(
                        "trial-eval/error",
                        format!(
                            "set of {}: trial {:.17e} vs committed {:.17e}",
                            set.len(),
                            m.e_after,
                            e_ref
                        ),
                    ));
                }
                if m.n_ands_after != Some(ref_aig.n_ands()) {
                    return Err(self.fail(
                        "trial-eval/area",
                        format!(
                            "trial previews {:?} gates, committed has {}",
                            m.n_ands_after,
                            ref_aig.n_ands()
                        ),
                    ));
                }
                last_set = set;
            }
            self.patch = trial.into_patch();

            if !last_set.is_empty() && self.rng.gen_bool(0.8) {
                let lacs: Vec<Lac> = last_set.iter().map(|s| s.lac).collect();
                apply_all(&mut self.current, &lacs);
                let remap = self
                    .current
                    .cleanup()
                    .map_err(|e| self.fail("aig/cleanup", format!("commit: {e}")))?;
                self.check_graph("after commit", &self.current)?;
                self.last_remap = Some(remap);
                self.stats.commits += 1;
                committed = true;
            }
        }
        if !committed {
            self.last_remap = Some(identity);
        }
        // Keep the storage of the revision the caches just let go of
        // (they now hold this round's simulation) for the next round.
        if let Some(words) = self.last_sim.replace(sim).and_then(Sim::into_buffer) {
            self.spare_sigs = words;
        }
        Ok(())
    }

    /// A raw (non-LAC) rewiring edit followed by cleanup. Usually the
    /// caches receive the composed remap — proving they survive edits
    /// the flow never makes — but sometimes the edit is declared
    /// unknown to exercise the flush path.
    fn raw_edit(&mut self) -> Result<(), Failure> {
        let n_nodes = self.current.n_nodes();
        if self.current.n_ands() == 0 {
            return Ok(());
        }
        for _ in 0..8 {
            let tn = NodeId::new(self.rng.gen_range(1 + self.current.n_pis()..n_nodes));
            let with = NodeId::new(self.rng.gen_range(0..n_nodes));
            if with == tn {
                continue;
            }
            let lit = Lit::new(with, self.rng.gen_bool(0.5));
            if self.current.replace(tn, lit).is_ok() {
                let remap = self
                    .current
                    .cleanup()
                    .map_err(|e| self.fail("aig/cleanup", format!("raw edit: {e}")))?;
                self.check_graph("after raw edit", &self.current)?;
                self.last_remap = if self.rng.gen_bool(0.25) {
                    None // exercise the flush path
                } else {
                    self.last_remap
                        .as_ref()
                        .map(|prev| compose_remaps(prev, &remap))
                };
                self.stats.raw_edits += 1;
                return Ok(());
            }
        }
        Ok(())
    }

    /// A cleanup/compaction pass with no preceding edit; the remap (a
    /// renumbering at most) composes into the pending roll.
    fn cleanup_only(&mut self) -> Result<(), Failure> {
        let remap = self
            .current
            .cleanup()
            .map_err(|e| self.fail("aig/cleanup", format!("cleanup op: {e}")))?;
        self.check_graph("after cleanup", &self.current)?;
        self.last_remap = self
            .last_remap
            .as_ref()
            .map(|prev| compose_remaps(prev, &remap));
        Ok(())
    }

    /// The BDD exact-error oracle: on exhaustive samples the measured
    /// error *is* the true error, so it must agree with exact BDD model
    /// counting over the same pair of circuits.
    fn bdd_oracle(&mut self) -> Result<(), Failure> {
        if self.case.n_patterns != 0 || self.golden.n_pis() > 14 {
            return Ok(());
        }
        let limit = 1 << 20;
        if let Ok(exact) = bdd::exact::error_rate(&self.golden, &self.current, limit) {
            let sampled =
                errmetrics::measure(MetricKind::Er, &self.golden, &self.current, &self.pats);
            if (exact - sampled).abs() > 1e-9 {
                return Err(self.fail(
                    "bdd/error-rate",
                    format!("exact {exact:.17e} vs exhaustive-sim {sampled:.17e}"),
                ));
            }
            self.stats.bdd_checks += 1;
        }
        if self.golden.n_pos() <= 20 {
            if let Ok(exact) = bdd::exact::mean_error_distance(&self.golden, &self.current, limit) {
                let sampled =
                    errmetrics::measure(MetricKind::Med, &self.golden, &self.current, &self.pats);
                if (exact - sampled).abs() > 1e-9 * exact.abs().max(1.0) {
                    return Err(self.fail(
                        "bdd/med",
                        format!("exact {exact:.17e} vs exhaustive-sim {sampled:.17e}"),
                    ));
                }
                self.stats.bdd_checks += 1;
            }
        }
        Ok(())
    }

    /// The end-to-end oracle: short flows over the case's circuit, for
    /// ER and one mean metric, through the production engine at 1 and 2
    /// threads and through the dense [`crate::reference`] flow. The
    /// trajectories must be identical round for round, down to the
    /// final circuit.
    fn flow_op(&mut self) -> Result<(), Failure> {
        if self.golden.n_ands() == 0 {
            return Ok(());
        }
        // Decorrelated stream, like the other flow-level oracles.
        let mut krng = StdRng::seed_from_u64(crate::stream_u64(self.case.seed, 0xf10e));
        let mean = [MetricKind::Nmed, MetricKind::Mred][krng.gen_range(0..2usize)];
        for metric in [MetricKind::Er, mean] {
            let bound = 0.004 * (1u32 << krng.gen_range(0..5u32)) as f64;
            let mut cfg = AccalsConfig::new(metric, bound);
            cfg.r_ref = SizeParam::Fixed(12);
            cfg.r_sel = SizeParam::Fixed(3);
            cfg.max_rounds = 6;
            cfg.max_exhaustive = 1 << 10;
            cfg.n_random_patterns = 128;
            cfg.seed = krng.gen();
            cfg.candidates = self.ccfg.clone();
            crate::reference::compare(&cfg, &self.golden, &pools()[..2]).map_err(|d| {
                self.fail("flow/reference", format!("{metric} bound {bound} at {d}"))
            })?;
            self.stats.flows += 1;
        }
        Ok(())
    }

    /// The sweep differential oracle: run a small bound ladder over the
    /// current circuit as one batched job (cache sharing on) and as
    /// standalone flows, and require every instance's trajectory, final
    /// error, and final area to be bit-identical. This is the sweep
    /// engine's determinism contract, and the oracle that catches
    /// [`Fault::SweepStaleFork`] — caches forked one round after the
    /// cohort's trajectories already diverged.
    fn sweep_op(&mut self) -> Result<(), Failure> {
        if self.current.n_ands() == 0 {
            return Ok(());
        }
        // Decorrelated stream for the sweep knobs, like the top-set
        // knobs: they must not perturb the main op-sequence RNG.
        let mut krng =
            StdRng::seed_from_u64(crate::stream_u64(self.case.seed, 0x5e11 ^ self.op as u64));
        // Distance metrics accumulate error gradually on tiny circuits,
        // so a bound ladder splits the cohort mid-flight (the case the
        // late-fork fault corrupts); ER tends to jump straight past
        // every bound in one round and split only at termination.
        let metric = [MetricKind::Nmed, MetricKind::Mred][krng.gen_range(0..2usize)];
        let mut base = AccalsConfig::new(metric, 1.0);
        base.r_ref = SizeParam::Fixed(12);
        base.r_sel = SizeParam::Fixed(3);
        base.max_rounds = 8;
        base.max_exhaustive = 1 << 10;
        base.n_random_patterns = 128;
        base.seed = crate::stream_u64(self.case.seed, 0x5e12 ^ self.op as u64);
        base.candidates = self.ccfg.clone();
        let b0 = 0.004 * (1u32 << krng.gen_range(0..4u32)) as f64;
        let bounds: Vec<f64> = (0..krng.gen_range(2..=3usize))
            .map(|i| b0 * [1.0, 3.0, 8.0][i])
            .collect();

        let mut job = SweepJob::new();
        let c = job.add_circuit(self.current.clone());
        job.add_grid(c, &base, &bounds);
        let opts = SweepOptions {
            threads: 1,
            share: true,
            stale_fork: self.case.fault == Fault::SweepStaleFork,
            ..SweepOptions::default()
        };
        let batched = sweep::run(&job, &opts);

        for (i, &b) in bounds.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.error_bound = b;
            let alone = Accals::new(cfg).synthesize(&self.current);
            let bi = &batched.instances[i];
            if let Some(r) = sweep::divergence_round(&bi.result.rounds, &alone.rounds) {
                return Err(self.fail(
                    "sweep/trajectory",
                    format!(
                        "bound {b}: batched diverged from standalone at round {r} \
                         (batched {} rounds, standalone {})",
                        bi.result.rounds.len(),
                        alone.rounds.len()
                    ),
                ));
            }
            if bi.result.error.to_bits() != alone.error.to_bits() {
                return Err(self.fail(
                    "sweep/error",
                    format!(
                        "bound {b}: batched {:.17e} vs standalone {:.17e}",
                        bi.result.error, alone.error
                    ),
                ));
            }
            if bi.result.aig.n_ands() != alone.aig.n_ands() {
                return Err(self.fail(
                    "sweep/area",
                    format!(
                        "bound {b}: batched {} gates vs standalone {}",
                        bi.result.aig.n_ands(),
                        alone.aig.n_ands()
                    ),
                ));
            }
        }
        self.stats.sweeps += 1;
        Ok(())
    }

    /// The windowed-round differential oracle: a window is a pure
    /// filter, so windowed candidate generation — fresh, or through a
    /// warm store, which must drop its entries and regenerate the
    /// window — must equal full generation restricted to in-window
    /// targets, and a window spanning the whole circuit must leave the
    /// synthesis flow bit-identical to the dense flow.
    fn window_op(&mut self) -> Result<(), Failure> {
        if self.current.n_ands() == 0 {
            return Ok(());
        }
        let sim = simulate(&self.current, &self.pats);
        sim.check_consistent(&self.current)
            .map_err(|e| self.fail("bitsim/fixpoint", e))?;
        self.check_graph("window op start", &self.current)?;

        // A random half-density window over the live AND targets
        // (falling back to the full span when the coin leaves it empty).
        let live = self.current.live_mask();
        let n_nodes = self.current.n_nodes();
        let mut mask = vec![false; n_nodes];
        let mut any = false;
        for id in self.current.and_ids() {
            if live[id.index()] && self.rng.gen_bool(0.5) {
                mask[id.index()] = true;
                any = true;
            }
        }
        if !any {
            for id in self.current.and_ids() {
                mask[id.index()] = live[id.index()];
            }
        }

        // Fresh windowed generation == fresh full generation filtered
        // to in-window targets.
        let full = generate_candidates(&self.current, &sim, &self.ccfg);
        let expected: Vec<Lac> = full
            .iter()
            .filter(|l| mask[l.tn.index()])
            .cloned()
            .collect();
        let (windowed, _) =
            generate_candidates_windowed_counted(&self.current, &sim, &self.ccfg, Some(&mask));
        if windowed != expected {
            let detail = describe_list_diff(&windowed, &expected);
            return Err(self.fail("window/fresh", detail));
        }

        // Warm the store at the full span, then ask for the windowed
        // list again with nothing changed: a windowed call carries
        // nothing, even through the identity remap, so the store must
        // regenerate exactly the in-window targets.
        let warm = self.store.generate(
            &self.current,
            &sim,
            &self.ccfg,
            self.last_remap.as_deref(),
            pools()[2],
            None,
        );
        if warm != full {
            let detail = describe_list_diff(&warm, &full);
            return Err(self.fail("window/store-full", detail));
        }
        let identity = remap::identity(n_nodes);
        let stored = self.store.generate(
            &self.current,
            &sim,
            &self.ccfg,
            Some(identity.as_slice()),
            pools()[1],
            Some(&mask),
        );
        if stored != expected {
            let detail = describe_list_diff(&stored, &expected);
            return Err(self.fail("window/store", detail));
        }
        let devs = self.store.devs();
        if devs.len() != stored.len() {
            return Err(self.fail(
                "window/devmask",
                format!("{} masks for {} candidates", devs.len(), stored.len()),
            ));
        }
        let mut scratch = vec![0u64; sim.stride()];
        for (lac, dev) in stored.iter().zip(&devs) {
            let direct = DevMask::of(&sim, lac, &mut scratch);
            if dev.words != &*direct.words || dev.bits != &*direct.bits {
                return Err(self.fail(
                    "window/devmask",
                    format!("deviation of `{lac}` drifted from direct recomputation"),
                ));
            }
        }
        self.stats.windows += 1;

        // On small circuits, run a short dense flow and the same flow
        // with a full-span window: the engine must take the dense path
        // (no window selection fires) and stay bit-identical — same
        // trajectory, same final error bits, same area.
        if self.current.n_ands() <= 64 {
            let mut krng =
                StdRng::seed_from_u64(crate::stream_u64(self.case.seed, 0x317d ^ self.op as u64));
            let metric = [MetricKind::Er, MetricKind::Nmed][krng.gen_range(0..2usize)];
            let mut cfg =
                AccalsConfig::new(metric, 0.004 * (1u32 << krng.gen_range(0..4u32)) as f64);
            cfg.r_ref = SizeParam::Fixed(12);
            cfg.r_sel = SizeParam::Fixed(3);
            cfg.max_rounds = 8;
            cfg.max_exhaustive = 1 << 10;
            cfg.n_random_patterns = 128;
            cfg.seed = crate::stream_u64(self.case.seed, 0x317e ^ self.op as u64);
            cfg.candidates = self.ccfg.clone();
            let dense = Accals::new(cfg.clone()).synthesize(&self.current);
            cfg.window = Some(WindowSpec {
                max_targets: usize::MAX,
            });
            let full_win = Accals::new(cfg).synthesize(&self.current);
            if let Some(r) = sweep::divergence_round(&dense.rounds, &full_win.rounds) {
                return Err(self.fail(
                    "window/flow-trajectory",
                    format!(
                        "full-span window diverged from dense at round {r} \
                         (dense {} rounds, windowed {})",
                        dense.rounds.len(),
                        full_win.rounds.len()
                    ),
                ));
            }
            if dense.error.to_bits() != full_win.error.to_bits() {
                return Err(self.fail(
                    "window/flow-error",
                    format!(
                        "dense {:.17e} vs full-span window {:.17e}",
                        dense.error, full_win.error
                    ),
                ));
            }
            if dense.aig.n_ands() != full_win.aig.n_ands() {
                return Err(self.fail(
                    "window/flow-area",
                    format!(
                        "dense {} gates vs full-span window {}",
                        dense.aig.n_ands(),
                        full_win.aig.n_ands()
                    ),
                ));
            }
        }

        self.last_remap = Some(identity);
        Ok(())
    }
}

/// A small conflict-free candidate set sampled from the scored list.
fn pick_set(rng: &mut StdRng, scored: &[ScoredLac]) -> Vec<ScoredLac> {
    let m = rng.gen_range(1..=4usize.min(scored.len()));
    let mut idx: Vec<usize> = (0..scored.len()).collect();
    for k in 0..m {
        let j = rng.gen_range(k..idx.len());
        idx.swap(k, j);
    }
    let sample: Vec<ScoredLac> = idx[..m].iter().map(|&i| scored[i].clone()).collect();
    find_solve_conflicts(&sample)
}

/// Where the candidate lists first diverged, for failure reports.
fn describe_list_diff(stored: &[Lac], fresh: &[Lac]) -> String {
    if stored.len() != fresh.len() {
        return format!(
            "store returned {} candidates, fresh {}",
            stored.len(),
            fresh.len()
        );
    }
    for (i, (s, f)) in stored.iter().zip(fresh).enumerate() {
        if s != f {
            return format!("candidate {i}: store `{s}` vs fresh `{f}`");
        }
    }
    "lists differ".to_string()
}

/// First bit-level divergence between two scored lists, if any.
fn score_diff(a: &[ScoredLac], b: &[ScoredLac]) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("{} vs {} scores", a.len(), b.len()));
    }
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.lac != y.lac {
            return Some(format!("candidate {i}: `{}` vs `{}`", x.lac, y.lac));
        }
        if x.delta_e.to_bits() != y.delta_e.to_bits() {
            return Some(format!(
                "candidate {i} (`{}`): ΔE {:.17e} vs {:.17e}",
                x.lac, x.delta_e, y.delta_e
            ));
        }
        if x.gain != y.gain {
            return Some(format!(
                "candidate {i} (`{}`): gain {} vs {}",
                x.lac, x.gain, y.gain
            ));
        }
    }
    None
}

/// Replays `case` from scratch and reports the first oracle violation.
///
/// Deterministic: the same case always produces the same result, at any
/// host thread count (all parallel paths are compared at pinned 1/2/8
/// thread pools and must agree bit-for-bit anyway). A panic anywhere in
/// the driven stack — an internal `expect`, a debug assertion, an
/// out-of-bounds index — is caught and reported as a failure under the
/// `panic` oracle, so contract violations that trip a crate's own
/// integrity checks still shrink to a one-line repro.
pub fn run_case(case: &FuzzCase) -> Result<CaseStats, Failure> {
    let op_at = std::cell::Cell::new(0usize);
    match quiet_catch(|| run_case_inner(case, &op_at)) {
        Ok(result) => result,
        Err(msg) => Err(Failure {
            case: *case,
            op: op_at.get(),
            oracle: "panic".to_string(),
            detail: msg,
        }),
    }
}

/// Runs `f` with panics caught and — for panics raised on this thread —
/// not printed, so an expected failure replayed hundreds of times by the
/// shrinker does not flood stderr. The hook is installed once and
/// forwards to the previous hook whenever the panicking thread is not
/// inside a `quiet_catch`.
fn quiet_catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    use std::panic;
    thread_local! {
        static QUIET: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }
    static INSTALL: OnceLock<()> = OnceLock::new();
    INSTALL.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(|q| q.get()) {
                prev(info);
            }
        }));
    });
    let was = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(panic::AssertUnwindSafe(f));
    QUIET.with(|q| q.set(was));
    result.map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// The golden circuit a case starts from — the reference every error
/// measurement inside [`run_case`] is taken against. Public so tests can
/// assert size bounds on shrunk repros.
pub fn golden_circuit(case: &FuzzCase) -> Aig {
    match case.source {
        Source::Random => gen::random_aig(
            crate::stream_u64(case.seed, 1),
            case.n_pis.max(2),
            case.n_ands.max(1),
            3,
        ),
        Source::Bench(k) => gen::mutated_bench(crate::stream_u64(case.seed, 1), k, case.n_ands),
    }
}

fn run_case_inner(case: &FuzzCase, op_at: &std::cell::Cell<usize>) -> Result<CaseStats, Failure> {
    let golden = golden_circuit(case);
    let mut rng = StdRng::seed_from_u64(crate::stream_u64(case.seed, 2));
    let kind = MetricKind::ALL[rng.gen_range(0..MetricKind::ALL.len())];
    let pats = if case.n_patterns == 0 {
        Patterns::exhaustive(golden.n_pis())
    } else {
        Patterns::random(
            golden.n_pis(),
            case.n_patterns,
            crate::stream_u64(case.seed, 3),
        )
    };
    let golden_sim = simulate(&golden, &pats);
    let golden_sigs = golden_sim.output_sigs(&golden);
    let stride = pats.stride();

    let mut store = CandidateStore::new();
    if case.fault == Fault::StoreSkipFanout {
        store.inject_skip_fanout_invalidation(true);
    }
    if case.fault == Fault::StoreStaleArena {
        store.inject_stale_arena_carry(true);
    }
    let mut drv = Driver {
        case,
        op: 0,
        rng,
        kind,
        pats,
        current: golden.clone(),
        golden,
        golden_sigs,
        store,
        mask_cache: MaskCache::new(),
        patch: PatchSimulator::new(stride),
        last_sim: None,
        spare_sigs: Vec::new(),
        last_remap: None,
        // Smaller probe budgets than the synthesis default keep soak
        // throughput high without narrowing the candidate families.
        ccfg: CandidateConfig {
            max_wire_probes: 16,
            max_divisors: 6,
            ternaries: true,
            seed: crate::stream_u64(case.seed, 4),
            ..CandidateConfig::default()
        },
        stats: CaseStats::default(),
    };
    drv.check_graph("initial circuit", &drv.current)?;

    let trace = std::env::var_os("FUZZKIT_TRACE").is_some();
    for op in 0..case.n_ops {
        drv.op = op;
        op_at.set(op);
        let kind = drv.rng.gen_range(0..10u32);
        if trace {
            eprintln!(
                "[fuzzkit] op {op}: {} (nodes={}, ands={}, remap={})",
                match kind {
                    0 => "cleanup",
                    1 => "raw-edit",
                    2 => "sweep",
                    3 => "window",
                    _ => "round",
                },
                drv.current.n_nodes(),
                drv.current.n_ands(),
                match &drv.last_remap {
                    None => "none".to_string(),
                    Some(r) => format!("{}", r.len()),
                },
            );
        }
        match kind {
            0 => drv.cleanup_only()?,
            1 => drv.raw_edit()?,
            2 => drv.sweep_op()?,
            3 => drv.window_op()?,
            _ => drv.round()?,
        }
    }
    drv.op = case.n_ops;
    op_at.set(case.n_ops);
    drv.bdd_oracle()?;
    drv.flow_op()?;
    Ok(drv.stats)
}
