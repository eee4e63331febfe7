//! The obviously correct AccALS flow, kept as a test oracle.
//!
//! [`synthesize`] runs Algorithm 1 with dense rounds, written only
//! against public APIs and none of the engine's caches:
//!
//! - every round regenerates candidates from scratch
//!   ([`lac::generate_candidates`]);
//! - every candidate is scored with fresh deviation masks
//!   ([`BatchEstimator::score_all`]) and those with `gain > 0` are kept;
//! - every trial clones the circuit, applies the set, cleans up,
//!   re-simulates the whole circuit, and measures its error.
//!
//! Set selection makes the same `obtain_top_set_from` /
//! `find_solve_conflicts` / `select_indep_lacs` calls as the engine,
//! draws the random set from the same RNG stream, and stops on the same
//! rules. The production engine — candidate store, top-k pruned
//! scoring, incremental trials, the cohort driver — must walk the
//! identical trajectory: [`trajectory_diff`] is the comparison.

use std::time::Instant;

use accals::conflict::find_solve_conflicts;
use accals::indep::select_indep_lacs;
use accals::topset::obtain_top_set_from;
use accals::{Accals, AccalsConfig, RoundTrace, SynthesisResult};
use aig::{Aig, NodeId};
use bitsim::{simulate, Patterns};
use errmetrics::{error, ErrorEval};
use estimate::BatchEstimator;
use lac::{apply_all, generate_candidates, ApplyReport, Lac, ScoredLac};
use parkit::ThreadPool;
use prng::rngs::StdRng;
use prng::seq::SliceRandom;
use prng::SeedableRng;

/// Rounds without an area reduction after which the flow stops.
const MAX_ROUNDS_WITHOUT_SHRINK: usize = 30;

/// A trial applied for real: the edited circuit and its measured error.
struct Trial {
    aig: Aig,
    e: f64,
    report: ApplyReport,
}

/// One round's fixed inputs.
struct Round<'a> {
    cfg: &'a AccalsConfig,
    current: &'a Aig,
    e: f64,
    pats: &'a Patterns,
    golden_sigs: &'a [Vec<u64>],
}

impl Round<'_> {
    /// Clone, apply, cleanup, re-simulate, measure.
    fn trial(&self, set: &[ScoredLac]) -> Trial {
        let mut aig = self.current.clone();
        let lacs: Vec<Lac> = set.iter().map(|s| s.lac).collect();
        let report = apply_all(&mut aig, &lacs);
        aig.cleanup().expect("editing keeps the graph acyclic");
        let sim = simulate(&aig, self.pats);
        let e = error(
            self.cfg.metric,
            self.golden_sigs,
            &sim.output_sigs(&aig),
            self.pats.n_patterns(),
        );
        Trial { aig, e, report }
    }

    /// Whether `t` moves the flow: area shrinks, or the error moves at
    /// equal area.
    fn progress(&self, t: &Trial) -> bool {
        let (now, next) = (self.current.n_ands(), t.aig.n_ands());
        next <= now && (next < now || t.e != self.e)
    }

    /// Single-LAC selection: the 64 best candidates by
    /// `(ΔE, gain desc, target)`, tried in order until one makes
    /// progress or overshoots the bound.
    fn single(&self, scored: &[ScoredLac]) -> (Trial, RoundTrace) {
        let mut top = scored.to_vec();
        top.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .expect("ΔE is never NaN")
                .then(b.gain.cmp(&a.gain))
                .then(a.lac.tn.cmp(&b.lac.tn))
        });
        top.truncate(64);
        let mut last = None;
        for best in &top {
            let t = self.trial(std::slice::from_ref(best));
            let done = self.progress(&t) || t.e > self.cfg.error_bound;
            last = Some((best, t));
            if done {
                break;
            }
        }
        let (best, t) = last.expect("scored list is non-empty");
        let trace = RoundTrace {
            single_mode: true,
            r_top: 1,
            n_sol: 1,
            n_indp: 1,
            e_est: self.e + best.delta_e,
            ..self.trace(&t)
        };
        (t, trace)
    }

    /// Multi-LAC selection: top set, conflict solving, independent set,
    /// the race against an equally sized random set, and the `l_d`
    /// negative-set revert.
    fn multi(
        &self,
        scored: &[ScoredLac],
        rng: &mut StdRng,
        r_ref: usize,
        r_sel: usize,
    ) -> (Trial, RoundTrace) {
        let cfg = self.cfg;
        let l_top = obtain_top_set_from(
            scored.to_vec(),
            self.e,
            cfg.error_bound,
            r_ref,
            scored.len(),
        );
        let l_sol = find_solve_conflicts(&l_top);
        let l_indp = select_indep_lacs(
            self.current,
            &l_sol,
            self.e,
            cfg.error_bound,
            r_sel,
            cfg.t_b,
            cfg.lambda,
            cfg.mis,
        );
        let l_rand: Vec<ScoredLac> = if cfg.race_random {
            l_sol.choose_multiple(rng, l_indp.len()).cloned().collect()
        } else {
            Vec::new()
        };
        let mut t = self.trial(&l_indp);
        let mut chosen = l_indp.as_slice();
        let mut chose_indp = true;
        if cfg.race_random {
            let t2 = self.trial(&l_rand);
            chose_indp = t.e < t2.e || (t.e == t2.e && l_indp.len() >= l_rand.len());
            if !chose_indp {
                t = t2;
                chosen = &l_rand;
            }
        }
        let mut e_est = self.e + chosen.iter().map(|s| s.delta_e).sum::<f64>();
        let mut reverted = false;
        if t.e > 0.0 && (t.e - e_est) / t.e > cfg.l_d {
            t = self.trial(&l_top[..1]);
            e_est = self.e + l_top[0].delta_e;
            reverted = true;
        }
        let trace = RoundTrace {
            r_top: l_top.len(),
            n_sol: l_sol.len(),
            n_indp: l_indp.len(),
            n_rand: l_rand.len(),
            chose_indp,
            reverted,
            e_est,
            ..self.trace(&t)
        };
        (t, trace)
    }

    /// The trace fields every round fills from its applied trial.
    fn trace(&self, t: &Trial) -> RoundTrace {
        RoundTrace {
            applied: t.report.applied,
            dropped_cycle: t.report.dropped_cycle,
            e_before: self.e,
            e_after: t.e,
            n_ands_after: t.aig.n_ands(),
            ..RoundTrace::default()
        }
    }
}

/// Runs Algorithm 1 on `golden` with dense rounds (see the module
/// docs), on the pattern set [`accals::Accals::synthesize`] would draw.
///
/// # Panics
///
/// Panics if `cfg` asks for windowed rounds: the reference covers the
/// dense flow only.
pub fn synthesize(cfg: &AccalsConfig, golden: &Aig) -> SynthesisResult {
    assert!(cfg.window.is_none(), "the reference runs dense rounds only");
    let start = Instant::now();
    let pats = Patterns::for_circuit(
        golden.n_pis(),
        cfg.max_exhaustive,
        cfg.n_random_patterns,
        cfg.seed,
    );
    let golden_sigs = simulate(golden, &pats).output_sigs(golden);
    let r_ref = cfg.r_ref.resolve(golden.n_ands(), 0);
    let r_sel = cfg.r_sel.resolve(golden.n_ands(), 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_cafe);
    let mut current = golden.clone();
    let mut e = 0.0;
    let mut rounds: Vec<RoundTrace> = Vec::new();
    let mut since_shrink = 0;
    while rounds.len() < cfg.max_rounds {
        let sim = simulate(&current, &pats);
        let cands = generate_candidates(&current, &sim, &cfg.candidates);
        let mut eval = ErrorEval::new(cfg.metric, &golden_sigs, pats.n_patterns());
        eval.rebase(&sim.output_sigs(&current));
        let mut scored = BatchEstimator::new(&current, &sim, &eval).score_all(&cands);
        scored.retain(|s| s.gain > 0);
        if scored.is_empty() {
            break;
        }
        let round = Round {
            cfg,
            current: &current,
            e,
            pats: &pats,
            golden_sigs: &golden_sigs,
        };
        let (next, mut trace) = if e > cfg.l_e * cfg.error_bound {
            round.single(&scored)
        } else {
            let (t, trace) = round.multi(&scored, &mut rng, r_ref, r_sel);
            if trace.applied > 0 && round.progress(&t) {
                (t, trace)
            } else {
                round.single(&scored)
            }
        };
        trace.round = rounds.len();
        trace.n_candidates = scored.len();
        trace.scored_exact = scored.len();
        let progress = trace.applied > 0 && round.progress(&next);
        let shrunk = next.aig.n_ands() < current.n_ands();
        rounds.push(trace);
        if next.e > cfg.error_bound {
            break;
        }
        since_shrink = if shrunk { 0 } else { since_shrink + 1 };
        if since_shrink >= MAX_ROUNDS_WITHOUT_SHRINK || !progress {
            break;
        }
        current = next.aig;
        e = next.e;
    }
    SynthesisResult {
        aig: current,
        error: e,
        rounds,
        runtime: start.elapsed(),
        initial_ands: golden.n_ands(),
        n_patterns: pats.n_patterns(),
    }
}

/// Runs `cfg` on `golden` through the reference and through the
/// production engine on each of `pools`. Returns the reference run, or
/// the first divergence of a production run from it.
pub fn compare(
    cfg: &AccalsConfig,
    golden: &Aig,
    pools: &[&'static ThreadPool],
) -> Result<SynthesisResult, String> {
    let reference = synthesize(cfg, golden);
    for pool in pools {
        let production = Accals::new(cfg.clone()).with_pool(pool).synthesize(golden);
        if let Some(d) = trajectory_diff(&production, &reference) {
            return Err(format!("{} threads: {d}", pool.threads()));
        }
    }
    Ok(reference)
}

/// Where `production` first departs from `reference`, or `None` when
/// the two runs are identical: the same final circuit (node for node)
/// and error bits, the same round count, and per round the same
/// selection sizes, mode, race winner, revert, applied count, error
/// bits (measured and estimated), and area. The top-k scorer's
/// exact/pruned split must also cover exactly the reference's dense
/// population.
pub fn trajectory_diff(
    production: &SynthesisResult,
    reference: &SynthesisResult,
) -> Option<String> {
    if production.rounds.len() != reference.rounds.len() {
        let at = production
            .rounds
            .iter()
            .zip(&reference.rounds)
            .position(|(p, r)| round_key(p) != round_key(r))
            .unwrap_or(production.rounds.len().min(reference.rounds.len()));
        return Some(format!(
            "{} rounds vs reference {} (first differing round {at})",
            production.rounds.len(),
            reference.rounds.len()
        ));
    }
    for (p, r) in production.rounds.iter().zip(&reference.rounds) {
        if round_key(p) != round_key(r) {
            return Some(format!(
                "round {}: production {:?} vs reference {:?}",
                r.round,
                round_key(p),
                round_key(r)
            ));
        }
        if p.scored_exact + p.scored_pruned != r.scored_exact {
            return Some(format!(
                "round {}: {} exact + {} pruned scores vs reference population {}",
                r.round, p.scored_exact, p.scored_pruned, r.scored_exact
            ));
        }
    }
    if production.error.to_bits() != reference.error.to_bits() {
        return Some(format!(
            "final error {:.17e} vs reference {:.17e}",
            production.error, reference.error
        ));
    }
    if !same_circuit(&production.aig, &reference.aig) {
        return Some(format!(
            "final circuit differs ({} vs reference {} ANDs)",
            production.aig.n_ands(),
            reference.aig.n_ands()
        ));
    }
    None
}

/// The per-round decision record two identical trajectories share;
/// errors are compared by their bits.
#[derive(Debug, PartialEq)]
struct RoundKey {
    n_candidates: usize,
    r_top: usize,
    n_sol: usize,
    n_indp: usize,
    n_rand: usize,
    single_mode: bool,
    chose_indp: bool,
    reverted: bool,
    applied: usize,
    dropped_cycle: usize,
    e_after: u64,
    e_est: u64,
    n_ands_after: usize,
}

fn round_key(t: &RoundTrace) -> RoundKey {
    RoundKey {
        n_candidates: t.n_candidates,
        r_top: t.r_top,
        n_sol: t.n_sol,
        n_indp: t.n_indp,
        n_rand: t.n_rand,
        single_mode: t.single_mode,
        chose_indp: t.chose_indp,
        reverted: t.reverted,
        applied: t.applied,
        dropped_cycle: t.dropped_cycle,
        e_after: t.e_after.to_bits(),
        e_est: t.e_est.to_bits(),
        n_ands_after: t.n_ands_after,
    }
}

/// Node-for-node equality of two circuits: inputs, node table, outputs.
fn same_circuit(a: &Aig, b: &Aig) -> bool {
    a.n_pis() == b.n_pis()
        && a.n_nodes() == b.n_nodes()
        && a.outputs() == b.outputs()
        && (0..a.n_nodes()).all(|i| a.node(NodeId::new(i)) == b.node(NodeId::new(i)))
}
