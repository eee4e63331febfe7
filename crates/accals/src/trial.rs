//! Incremental trial evaluation of candidate LAC sets.
//!
//! Scoring decisions in Algorithm 1 — the single-mode trial ladder, the
//! independent-vs-random race, the negative-set revert check — only need
//! each candidate set's *measured error* (and, in single mode, the
//! post-cleanup gate count). The committed path
//! (clone → apply → cleanup → full simulate → rebase) pays for a full
//! graph copy and a whole-circuit re-simulation per trial;
//! [`TrialEval`] instead keeps one reusable working copy of the round's
//! base circuit and, per trial:
//!
//! 1. applies the set through [`lac::apply_all_trial`] (journaled,
//!    consumer-targeted rewiring — no clone),
//! 2. re-simulates only the union of the edited nodes' fanout cones
//!    against the base [`Sim`] ([`PatchSimulator`] — no full sweep),
//! 3. recomputes the error only over affected outputs and deviating
//!    words ([`ErrorEval::measured_with_flips_words`] — no full
//!    rescore), and
//! 4. rolls the journal back, leaving the copy ready for the next trial.
//!
//! The measured error is **bit-identical** to what the committed path
//! reports for the same set: compaction preserves the circuit function
//! bit-for-bit, so the work graph's output signatures equal the
//! committed circuit's, and the errmetrics replay reproduces the
//! canonical chunked fold exactly. The gate count comes from
//! [`Aig::compacted_n_ands`], which replays compaction's constant
//! folding and structural hashing without building the graph. The full
//! clone+cleanup therefore runs exactly once per round — for the winner
//! that is actually committed — keeping the remap contract with the
//! estimator's `MaskCache` untouched.

use aig::{Aig, NodeId, PatchLog};
use bitsim::{ConeTopology, PatchSimulator, Sim};
use errmetrics::ErrorEval;
use lac::{apply_all_trial, ApplyReport, Lac, ScoredLac};
use std::sync::Arc;

/// What a trial application of a LAC set would measure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialMeasure {
    /// Measured error of the edited circuit — bit-identical to the
    /// committed apply-and-measure path.
    pub e_after: f64,
    /// Post-cleanup gate count (requested via `want_n_ands`); equals the
    /// committed circuit's `n_ands()`.
    pub n_ands_after: Option<usize>,
    /// Applied/dropped accounting, identical to the committed
    /// [`lac::apply_all`] on the same set.
    pub report: ApplyReport,
}

/// Reusable incremental evaluator for candidate LAC sets against one
/// round's base circuit. See the module docs for the contract.
///
/// Cheap to construct per thread: the working graph copy is the one
/// allocation proportional to circuit size; the topology snapshot is
/// shared, and the [`PatchSimulator`] scratch is passed in so that it can
/// outlive the round ([`TrialEval::into_patch`] hands it back). Not
/// `Sync` — give each racing thread its own instance.
#[derive(Debug)]
pub struct TrialEval<'a> {
    base: &'a Aig,
    sim: &'a Sim,
    eval: &'a ErrorEval,
    topo: Arc<ConeTopology>,
    work: Aig,
    log: PatchLog,
    patch: PatchSimulator,
    dirty: Vec<bool>,
    dirty_list: Vec<u32>,
    rewired: Vec<bool>,
    affected: Vec<usize>,
    flips: Vec<Vec<u64>>,
    words: Vec<u32>,
    lac_buf: Vec<Lac>,
}

impl<'a> TrialEval<'a> {
    /// Prepares an evaluator over the round's base circuit, its
    /// simulation, and the error evaluator rebased to it. `topo` must be
    /// [`ConeTopology::build`] of the same circuit. `patch` is scratch
    /// for signatures of `sim.stride()` words; what it held before
    /// (e.g. a trial of an earlier revision) never affects a
    /// measurement.
    pub fn new(
        base: &'a Aig,
        sim: &'a Sim,
        eval: &'a ErrorEval,
        topo: Arc<ConeTopology>,
        patch: PatchSimulator,
    ) -> Self {
        debug_assert_eq!(topo.n_nodes(), base.n_nodes(), "stale topology");
        let stride = sim.stride();
        TrialEval {
            work: base.trial_copy(),
            log: PatchLog::default(),
            patch,
            dirty: vec![false; base.n_nodes()],
            dirty_list: Vec::new(),
            rewired: vec![false; base.n_nodes()],
            affected: Vec::new(),
            flips: vec![vec![0u64; stride]; base.n_pos()],
            words: Vec::new(),
            lac_buf: Vec::new(),
            base,
            sim,
            eval,
            topo,
        }
    }

    /// The re-simulation scratch, for a later round's evaluator.
    pub fn into_patch(self) -> PatchSimulator {
        self.patch
    }

    /// Applies `lacs` to the working copy, measures error (and area when
    /// `want_n_ands`), and rolls the edit back.
    pub fn measure(&mut self, lacs: &[ScoredLac], want_n_ands: bool) -> TrialMeasure {
        debug_assert!(self.log.is_empty() && self.dirty_list.is_empty());
        self.log = PatchLog::begin(&self.work);
        let mut lac_buf = std::mem::take(&mut self.lac_buf);
        lac_buf.clear();
        lac_buf.extend(lacs.iter().map(|s| s.lac));
        let report = apply_all_trial(
            &mut self.work,
            &lac_buf,
            self.topo.topo_pos(),
            self.topo.fanouts(),
            &mut self.log,
        );
        self.lac_buf = lac_buf;

        // Dirty region: rewired nodes plus their base-graph transitive
        // fanout (the only old nodes whose values can change). The
        // journal lists the rewired consumers and `dirty_list` doubles
        // as the BFS worklist.
        let fanouts = self.topo.fanouts();
        for n in self.log.rewired_nodes() {
            let i = n.index();
            if !self.dirty[i] {
                self.rewired[i] = true;
                self.dirty[i] = true;
                self.dirty_list.push(i as u32);
            } else {
                self.rewired[i] = true;
            }
        }
        let mut head = 0;
        while head < self.dirty_list.len() {
            let n = NodeId::new(self.dirty_list[head] as usize);
            head += 1;
            for &f in fanouts.of(n) {
                if !self.dirty[f.index()] {
                    self.dirty[f.index()] = true;
                    self.dirty_list.push(f.index() as u32);
                }
            }
        }

        // Re-simulate affected output cones and collect flip rows
        // (XOR against the base output signatures, polarities applied).
        let stride = self.sim.stride();
        let base_len = self.log.base_len();
        let tail_mask = bitsim::word_mask(self.sim.n_patterns(), stride - 1);
        self.patch.begin(self.work.n_nodes());
        for o in 0..self.work.n_pos() {
            let wl = self.work.outputs()[o].lit;
            let bl = self.base.outputs()[o].lit;
            let wn = wl.node();
            let maybe_changed = wl != bl || wn.index() >= base_len || self.dirty[wn.index()];
            if !maybe_changed {
                continue;
            }
            self.patch
                .ensure(&self.work, self.sim, &self.dirty, &self.rewired, wn);
            if wl == bl && !self.patch.is_changed(wn) {
                continue;
            }
            let new_sig = self.patch.sig(self.sim, wn);
            let old_sig = self.sim.sig(bl.node());
            let xn = if wl.is_neg() { u64::MAX } else { 0 };
            let xo = if bl.is_neg() { u64::MAX } else { 0 };
            let row = &mut self.flips[o];
            let mut any = 0u64;
            for w in 0..stride {
                let mut v = (new_sig[w] ^ xn) ^ (old_sig[w] ^ xo);
                if w == stride - 1 {
                    v &= tail_mask;
                }
                row[w] = v;
                any |= v;
            }
            if any != 0 {
                self.affected.push(o);
            }
        }
        self.words.clear();
        for w in 0..stride {
            if self.affected.iter().any(|&o| self.flips[o][w] != 0) {
                self.words.push(w as u32);
            }
        }

        let e_after = self
            .eval
            .measured_with_flips_words(&self.words, &self.flips);
        let n_ands_after = want_n_ands.then(|| {
            self.work
                .compacted_n_ands()
                .expect("trial edits keep the graph acyclic")
        });

        // Roll everything back for the next trial.
        self.work.rollback(&mut self.log);
        for i in self.dirty_list.drain(..) {
            self.dirty[i as usize] = false;
            self.rewired[i as usize] = false;
        }
        for o in self.affected.drain(..) {
            self.flips[o].iter_mut().for_each(|w| *w = 0);
        }

        TrialMeasure {
            e_after,
            n_ands_after,
            report,
        }
    }
}
