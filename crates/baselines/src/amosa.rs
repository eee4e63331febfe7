//! AMOSA-style archived multi-objective simulated annealing over subsets
//! of a fixed candidate-LAC pool.
//!
//! The comparator of Fig. 7 / Table III of the AccALS paper selects
//! multiple approximate changes with the archived multi-objective
//! simulated annealing heuristic. This reimplementation keeps its
//! architecture — a fixed catalog of local changes, an annealed walk over
//! subsets, an archive of non-dominated `(error, area)` designs — while
//! using the same LAC families as the rest of this workspace (the
//! original's exact-synthesis cut catalog is out of scope; see
//! DESIGN.md §2.9).

use accals::conflict::find_solve_conflicts;
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::{error, ErrorEval, MetricKind};
use estimate::BatchEstimator;
use lac::{apply_all, Lac};
use prng::rngs::StdRng;
use prng::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Configuration for an AMOSA-style run.
#[derive(Debug, Clone)]
pub struct AmosaConfig {
    /// The error metric of the first objective.
    pub metric: MetricKind,
    /// Designs with error above this are discarded from the archive.
    pub max_error: f64,
    /// Size of the candidate-LAC catalog (top candidates by `ΔE` after
    /// conflict resolution).
    pub pool_size: usize,
    /// Annealing iterations.
    pub iterations: usize,
    /// Initial temperature (in units of domination amount).
    pub t0: f64,
    /// Geometric cooling factor per iteration.
    pub cooling: f64,
    /// Archive size cap (non-dominated designs are pruned beyond this).
    pub archive_cap: usize,
    /// Use exhaustive patterns when `2^n_pis` is at most this.
    pub max_exhaustive: usize,
    /// Number of random patterns otherwise.
    pub n_random_patterns: usize,
    /// RNG / pattern seed.
    pub seed: u64,
}

impl AmosaConfig {
    /// Creates a configuration with defaults scaled for the LGSynt91-like
    /// circuits.
    ///
    /// # Panics
    ///
    /// Panics if `max_error <= 0`.
    pub fn new(metric: MetricKind, max_error: f64) -> Self {
        assert!(max_error > 0.0, "max error must be positive");
        AmosaConfig {
            metric,
            max_error,
            pool_size: 64,
            iterations: 2000,
            t0: 1.0,
            cooling: 0.998,
            archive_cap: 64,
            max_exhaustive: 1 << 13,
            n_random_patterns: 1 << 13,
            seed: 0xA305A,
        }
    }
}

/// One archived non-dominated design.
#[derive(Debug, Clone)]
pub struct ArchivedDesign {
    /// Measured error of the design.
    pub error: f64,
    /// AIG gate count of the design.
    pub n_ands: usize,
    /// Indices into the candidate pool of the applied LACs.
    pub lacs: Vec<usize>,
}

/// The outcome of an AMOSA-style run.
#[derive(Debug, Clone)]
pub struct AmosaResult {
    /// Non-dominated designs, sorted by ascending error.
    pub archive: Vec<ArchivedDesign>,
    /// The candidate-LAC catalog the archive indexes into.
    pub pool: Vec<Lac>,
    /// Wall-clock time.
    pub runtime: Duration,
    /// Gate count of the input circuit.
    pub initial_ands: usize,
    /// Total design evaluations performed.
    pub evaluations: usize,
}

impl AmosaResult {
    /// Rebuilds an archived design's circuit by re-applying its LAC
    /// subset to the golden circuit.
    ///
    /// # Panics
    ///
    /// Panics if the design does not belong to this result.
    pub fn rebuild(&self, golden: &Aig, design: &ArchivedDesign) -> Aig {
        let selected: Vec<Lac> = design.lacs.iter().map(|&i| self.pool[i]).collect();
        let mut copy = golden.clone();
        apply_all(&mut copy, &selected);
        copy.cleanup().expect("editing keeps the graph acyclic");
        copy
    }
}

impl AmosaResult {
    /// The smallest-area archived design with error at most `bound`,
    /// if any.
    pub fn best_within(&self, bound: f64) -> Option<&ArchivedDesign> {
        self.archive
            .iter()
            .filter(|d| d.error <= bound)
            .min_by_key(|d| d.n_ands)
    }
}

/// The AMOSA-style engine.
#[derive(Debug, Clone)]
pub struct Amosa {
    cfg: AmosaConfig,
}

impl Amosa {
    /// Creates the engine.
    pub fn new(cfg: AmosaConfig) -> Self {
        Amosa { cfg }
    }

    /// Runs the annealing flow on `golden` and returns the archive of
    /// non-dominated `(error, area)` designs.
    ///
    /// # Panics
    ///
    /// Panics if `golden` has no outputs or is cyclic.
    pub fn synthesize(&self, golden: &Aig) -> AmosaResult {
        let cfg = &self.cfg;
        let start = Instant::now();
        let pats = Patterns::for_circuit(
            golden.n_pis(),
            cfg.max_exhaustive,
            cfg.n_random_patterns,
            cfg.seed,
        );
        let golden_sigs = simulate(golden, &pats).output_sigs(golden);
        let initial_ands = golden.n_ands();
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // Build the candidate catalog on the original circuit.
        let sim = simulate(golden, &pats);
        let mut eval = ErrorEval::new(cfg.metric, &golden_sigs, pats.n_patterns());
        eval.rebase(&golden_sigs);
        let cands = lac::generate_candidates(golden, &sim, &lac::CandidateConfig::default());
        let mut estimator = BatchEstimator::new(golden, &sim, &eval);
        let mut scored = estimator.score_all(&cands);
        scored.retain(|s| s.gain > 0 && s.delta_e <= cfg.max_error);
        scored.sort_by(|a, b| {
            a.delta_e
                .partial_cmp(&b.delta_e)
                .expect("ΔE is never NaN")
                .then(b.gain.cmp(&a.gain))
        });
        let pool: Vec<Lac> = find_solve_conflicts(&scored)
            .into_iter()
            .take(cfg.pool_size)
            .map(|s| s.lac)
            .collect();

        let mut evaluations = 0usize;
        let mut evaluate = |subset: &[bool]| -> (f64, usize) {
            evaluations += 1;
            let selected: Vec<Lac> = pool
                .iter()
                .zip(subset)
                .filter(|(_, &on)| on)
                .map(|(l, _)| *l)
                .collect();
            let mut copy = golden.clone();
            apply_all(&mut copy, &selected);
            copy.cleanup().expect("editing keeps the graph acyclic");
            let s = simulate(&copy, &pats);
            let e = error(
                cfg.metric,
                &golden_sigs,
                &s.output_sigs(&copy),
                pats.n_patterns(),
            );
            (e, copy.n_ands())
        };

        let mut archive: Vec<ArchivedDesign> = Vec::new();
        let mut current = vec![false; pool.len()];
        let mut cur_obj = evaluate(&current);
        push_archive(&mut archive, &current, cur_obj, cfg);

        let mut temp = cfg.t0;
        for _ in 0..cfg.iterations {
            if pool.is_empty() {
                break;
            }
            let mut next = current.clone();
            let flip = rng.gen_range(0..pool.len());
            next[flip] = !next[flip];
            let next_obj = evaluate(&next);
            let accept = if next_obj.0 > cfg.max_error {
                false
            } else if dominates(next_obj, cur_obj, initial_ands, cfg.max_error) {
                true
            } else if dominates(cur_obj, next_obj, initial_ands, cfg.max_error) {
                let delta = domination_amount(cur_obj, next_obj, initial_ands, cfg.max_error);
                rng.gen_bool((-delta / temp.max(1e-9)).exp().clamp(0.0, 1.0))
            } else {
                // Mutually non-dominated: accept and archive.
                true
            };
            if accept {
                current = next;
                cur_obj = next_obj;
                push_archive(&mut archive, &current, cur_obj, cfg);
            }
            temp *= cfg.cooling;
        }

        archive.sort_by(|a, b| {
            a.error
                .partial_cmp(&b.error)
                .expect("errors are never NaN")
                .then(a.n_ands.cmp(&b.n_ands))
        });
        AmosaResult {
            archive,
            pool,
            runtime: start.elapsed(),
            initial_ands,
            evaluations,
        }
    }
}

/// Whether objective pair `a` dominates `b` (both minimized).
fn dominates(a: (f64, usize), b: (f64, usize), _scale_area: usize, _scale_err: f64) -> bool {
    (a.0 <= b.0 && a.1 <= b.1) && (a.0 < b.0 || a.1 < b.1)
}

/// AMOSA's domination amount: the normalized objective-space area between
/// two comparable solutions.
fn domination_amount(
    winner: (f64, usize),
    loser: (f64, usize),
    scale_area: usize,
    scale_err: f64,
) -> f64 {
    let de = (loser.0 - winner.0).abs() / scale_err.max(1e-12);
    let da = (loser.1 as f64 - winner.1 as f64).abs() / scale_area.max(1) as f64;
    (de.max(1e-6)) * (da.max(1e-6))
}

fn push_archive(
    archive: &mut Vec<ArchivedDesign>,
    subset: &[bool],
    obj: (f64, usize),
    cfg: &AmosaConfig,
) {
    if obj.0 > cfg.max_error {
        return;
    }
    // Drop if dominated by an archived design; remove designs it
    // dominates.
    if archive.iter().any(|d| {
        dominates((d.error, d.n_ands), obj, 1, 1.0) || (d.error == obj.0 && d.n_ands == obj.1)
    }) {
        return;
    }
    archive.retain(|d| !dominates(obj, (d.error, d.n_ands), 1, 1.0));
    archive.push(ArchivedDesign {
        error: obj.0,
        n_ands: obj.1,
        lacs: subset
            .iter()
            .enumerate()
            .filter(|(_, &on)| on)
            .map(|(i, _)| i)
            .collect(),
    });
    if archive.len() > cfg.archive_cap {
        // Prune the most crowded entry (closest pair), keeping extremes.
        let mut worst = 1;
        let mut best_gap = f64::INFINITY;
        for i in 1..archive.len() - 1 {
            let gap = (archive[i].error - archive[i - 1].error).abs();
            if gap < best_gap {
                best_gap = gap;
                worst = i;
            }
        }
        archive.remove(worst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> AmosaConfig {
        let mut cfg = AmosaConfig::new(MetricKind::Er, 0.3);
        cfg.iterations = 150;
        cfg.pool_size = 24;
        cfg
    }

    #[test]
    fn archive_is_a_pareto_front() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let result = Amosa::new(quick_cfg()).synthesize(&golden);
        assert!(!result.archive.is_empty());
        for (i, a) in result.archive.iter().enumerate() {
            assert!(a.error <= 0.3);
            for (j, b) in result.archive.iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates((a.error, a.n_ands), (b.error, b.n_ands), 1, 1.0),
                        "archive contains dominated designs"
                    );
                }
            }
        }
        // Sorted by error.
        for w in result.archive.windows(2) {
            assert!(w[0].error <= w[1].error);
        }
    }

    #[test]
    fn best_within_finds_feasible_minimum_area() {
        let golden = benchgen::multipliers::array_multiplier(4);
        let result = Amosa::new(quick_cfg()).synthesize(&golden);
        if let Some(best) = result.best_within(0.1) {
            assert!(best.error <= 0.1);
        }
        // The zero-LAC design (error 0, full area) is always archived, so
        // some design within any non-negative bound exists.
        assert!(result.best_within(0.0).is_some());
    }

    #[test]
    fn amosa_is_deterministic() {
        let golden = benchgen::multipliers::wallace_multiplier(3);
        let a = Amosa::new(quick_cfg()).synthesize(&golden);
        let b = Amosa::new(quick_cfg()).synthesize(&golden);
        assert_eq!(a.archive.len(), b.archive.len());
        assert_eq!(a.evaluations, b.evaluations);
    }
}
