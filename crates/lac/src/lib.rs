//! Local approximate changes (LACs).
//!
//! A LAC `L(S_n, n)` replaces the *target node* (TN) `n` by a new
//! function over a set of existing *substitute nodes* (SNs) `S_n`,
//! trading a small functional deviation for area savings. This crate
//! provides:
//!
//! - the [`Lac`] representation covering the LAC families used in the
//!   paper: constants, SASIMI-style wires (an existing signal or its
//!   negation, [`LacKind::Wire`]), and ALSRAC-style two-input
//!   resubstitutions ([`LacKind::Binary`]),
//! - candidate generation over a simulated circuit
//!   ([`generate_candidates`]), with cycle-safe substitute selection and
//!   optimal truth-table fitting for binary resubstitutions,
//! - application of single LACs and conflict-free batches
//!   ([`apply`], [`apply_all`]).
//!
//! # Example
//!
//! ```
//! use aig::{Aig, Lit};
//! use lac::{apply, Lac, LacKind};
//!
//! // y = a & b, approximated by y = a (correct 3 out of 4 patterns).
//! let mut g = Aig::new("t", 2);
//! let y = g.and(g.pi(0), g.pi(1));
//! g.add_output(y, "y");
//! let lac = Lac::new(y.node(), LacKind::Wire { sn: g.pi(0).node(), neg: false });
//! lac::apply(&mut g, &lac)?;
//! assert_eq!(g.eval(&[true, false]), vec![true]);
//! # Ok::<(), lac::ApplyError>(())
//! ```

#![deny(unsafe_code)]

mod gen;
mod kinds;
mod store;
mod strips;

pub use gen::{
    generate_candidates, generate_candidates_windowed_counted, CandidateConfig, GenCounters,
};
pub use kinds::{Lac, LacKind};
pub use store::{deviation_into, CandidateStore, DevMask, DevView, StoreStats};

use aig::{Aig, AigError, Fanouts, Lit, NodeId, PatchLog};
use std::fmt;

/// A LAC annotated with its estimated error increase and area gain, as
/// produced by the batch estimator.
#[derive(Debug, Clone)]
pub struct ScoredLac {
    /// The change itself.
    pub lac: Lac,
    /// Estimated error increase `ΔE` of applying this LAC alone.
    pub delta_e: f64,
    /// Estimated AIG node savings (MFFC size minus new-function cost).
    pub gain: i64,
}

impl ScoredLac {
    /// The flow's candidate order: ascending `ΔE`, then descending
    /// gain, then target node. The top-k scorer returns its list in this
    /// order and the top-set selection sorts by it.
    ///
    /// # Panics
    ///
    /// Panics if either `ΔE` is NaN.
    pub fn flow_order(&self, other: &ScoredLac) -> std::cmp::Ordering {
        self.delta_e
            .partial_cmp(&other.delta_e)
            .expect("ΔE is never NaN")
            .then(other.gain.cmp(&self.gain))
            .then(self.lac.tn.cmp(&other.lac.tn))
    }
}

/// Errors from applying a LAC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// The target node is not an editable AND gate.
    BadTarget(NodeId),
    /// Applying the LAC would create a combinational cycle (a substitute
    /// node lies in the target's transitive fanout).
    Cycle(NodeId),
    /// A node id was out of range.
    OutOfRange(NodeId),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::BadTarget(n) => write!(f, "target node {n} is not an AND gate"),
            ApplyError::Cycle(n) => {
                write!(f, "applying the LAC at {n} would create a cycle")
            }
            ApplyError::OutOfRange(n) => write!(f, "node {n} is out of range"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<AigError> for ApplyError {
    fn from(e: AigError) -> Self {
        match e {
            AigError::NotAnAnd(n) => ApplyError::BadTarget(n),
            AigError::WouldCreateCycle { target, .. } => ApplyError::Cycle(target),
            AigError::NodeOutOfRange(n) => ApplyError::OutOfRange(n),
            _ => ApplyError::OutOfRange(NodeId::CONST0),
        }
    }
}

/// Builds the replacement literal for `lac` in `aig` (creating function
/// nodes for binary resubstitutions) without performing the replacement.
pub fn replacement_lit(aig: &mut Aig, lac: &Lac) -> Lit {
    match lac.kind {
        LacKind::Constant(false) => Lit::FALSE,
        LacKind::Constant(true) => Lit::TRUE,
        LacKind::Wire { sn, neg } => Lit::new(sn, neg),
        LacKind::Binary { sns, tt } => {
            let a = sns[0].lit();
            let b = sns[1].lit();
            build_tt2(aig, a, b, tt)
        }
        LacKind::Ternary { sns, tt } => {
            let lits = [sns[0].lit(), sns[1].lit(), sns[2].lit()];
            build_tt3(aig, &lits, tt)
        }
    }
}

/// Builds the two-input function with truth table `tt` (bit `2*vb + va`
/// gives the value for `(a, b) = (va, vb)`).
fn build_tt2(g: &mut Aig, a: Lit, b: Lit, tt: u8) -> Lit {
    debug_assert!(tt < 16);
    let minterm = |g: &mut Aig, m: u8| {
        let la = a.xor_neg(m & 1 == 0);
        let lb = b.xor_neg(m & 2 == 0);
        g.and(la, lb)
    };
    if tt.count_ones() <= 2 {
        let terms: Vec<Lit> = (0..4)
            .filter(|m| tt >> m & 1 == 1)
            .map(|m| minterm(g, m))
            .collect();
        g.or_many(&terms)
    } else {
        let terms: Vec<Lit> = (0..4)
            .filter(|m| tt >> m & 1 == 0)
            .map(|m| minterm(g, m))
            .collect();
        let f = g.or_many(&terms);
        !f
    }
}

/// Builds the three-input function with truth table `tt` (bit
/// `4*vc + 2*vb + va` gives the value for `(a, b, c) = (va, vb, vc)`),
/// as a sum of minterms in the sparser output phase.
fn build_tt3(g: &mut Aig, lits: &[Lit; 3], tt: u8) -> Lit {
    let minterm = |g: &mut Aig, m: u8| {
        let la = lits[0].xor_neg(m & 1 == 0);
        let lb = lits[1].xor_neg(m & 2 == 0);
        let lc = lits[2].xor_neg(m & 4 == 0);
        let ab = g.and(la, lb);
        g.and(ab, lc)
    };
    if tt.count_ones() <= 4 {
        let terms: Vec<Lit> = (0..8)
            .filter(|m| tt >> m & 1 == 1)
            .map(|m| minterm(g, m))
            .collect();
        g.or_many(&terms)
    } else {
        let terms: Vec<Lit> = (0..8)
            .filter(|m| tt >> m & 1 == 0)
            .map(|m| minterm(g, m))
            .collect();
        let f = g.or_many(&terms);
        !f
    }
}

/// Applies a single LAC, replacing the target node's function.
///
/// Dead nodes are left in place; call [`aig::Aig::cleanup`] (typically
/// once per round) to sweep them.
///
/// # Errors
///
/// Returns [`ApplyError::Cycle`] if a substitute lies in the target's
/// transitive fanout of the *current* graph, and
/// [`ApplyError::BadTarget`] if the target is not an AND gate.
pub fn apply(aig: &mut Aig, lac: &Lac) -> Result<(), ApplyError> {
    if lac.tn.index() >= aig.n_nodes() {
        return Err(ApplyError::OutOfRange(lac.tn));
    }
    for sn in lac.sns() {
        if sn.index() >= aig.n_nodes() {
            return Err(ApplyError::OutOfRange(sn));
        }
    }
    let lit = replacement_lit(aig, lac);
    match aig.replace(lac.tn, lit) {
        Ok(()) => Ok(()),
        Err(AigError::WouldCreateCycle { .. }) => {
            // The replacement cone may have strash-collided with the
            // target itself or its fanout (e.g. a minterm of a
            // resubstitution equals the target gate, possibly
            // complemented). Rebuild with fresh nodes; a genuine cycle
            // (substitute inside the target's fanout) is still rejected
            // below.
            aig.disable_strash();
            let fresh = replacement_lit(aig, lac);
            aig.replace(lac.tn, fresh)?;
            Ok(())
        }
        Err(e) => Err(e.into()),
    }
}

/// [`apply`] against a journaled working copy (see [`aig::Aig::trial_copy`]
/// and [`aig::Aig::replace_via`]): only the target's known consumers are
/// rewired and every overwritten entry lands in `log`, so the edit can
/// be rolled back without re-cloning the graph.
///
/// `fanouts` must be the fanout index of the graph the working copy was
/// taken from; for any conflict-free batch it remains the exact consumer
/// set of every target throughout the batch (no edit ever rewires an
/// edge onto a target). The replacement cone is always built from fresh
/// nodes (the copy has structural hashing off), which matches the
/// rebuild fallback of the committed path — same applied/dropped
/// verdicts, same values, same post-compaction gate count.
///
/// # Errors
///
/// Same contract as [`apply`].
pub fn apply_trial(
    aig: &mut Aig,
    lac: &Lac,
    fanouts: &Fanouts,
    log: &mut PatchLog,
) -> Result<(), ApplyError> {
    if lac.tn.index() >= aig.n_nodes() {
        return Err(ApplyError::OutOfRange(lac.tn));
    }
    for sn in lac.sns() {
        if sn.index() >= aig.n_nodes() {
            return Err(ApplyError::OutOfRange(sn));
        }
    }
    let lit = replacement_lit(aig, lac);
    aig.replace_via(lac.tn, lit, fanouts.of(lac.tn), log)
        .map_err(ApplyError::from)
}

/// Statistics from [`apply_all`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ApplyReport {
    /// LACs applied successfully.
    pub applied: usize,
    /// LACs skipped because applying them after earlier batch members
    /// would have created a combinational cycle.
    pub dropped_cycle: usize,
}

/// Applies a batch of conflict-free LACs sequentially in ascending
/// topological order of their target nodes, skipping (and counting) any
/// LAC whose application would create a cycle in the evolving graph.
///
/// The batch must be conflict-free in the paper's sense: distinct target
/// nodes, and no substitute node equal to another LAC's target.
///
/// # Panics
///
/// Panics if the graph is cyclic on entry or a LAC is structurally
/// invalid (bad target or out-of-range node).
pub fn apply_all(aig: &mut Aig, lacs: &[Lac]) -> ApplyReport {
    // Replacement cones must be built from fresh nodes: with structural
    // hashing live, the first LAC's cone could merge onto an existing
    // gate that a *later* batch member then replaces, silently rewiring
    // the earlier cone to an approximated version of its inputs — a
    // different function than the one scored and trial-measured. With
    // fresh cones, conflict-freedom (no substitute equals another
    // target) guarantees no new cone references a later target, so the
    // batch is order-independent and matches [`apply_all_trial`].
    aig.disable_strash();
    // Order by topological position of the target for determinism.
    let order = aig.topo_order().expect("graph must be acyclic");
    let mut pos = vec![0u32; aig.n_nodes()];
    for (i, id) in order.iter().enumerate() {
        pos[id.index()] = i as u32;
    }
    let mut sorted: Vec<&Lac> = lacs.iter().collect();
    sorted.sort_by_key(|l| pos[l.tn.index()]);

    let mut report = ApplyReport::default();
    for lac in sorted {
        match apply(aig, lac) {
            Ok(()) => report.applied += 1,
            Err(ApplyError::Cycle(_)) => report.dropped_cycle += 1,
            Err(e) => panic!("invalid LAC in conflict-free batch: {e}"),
        }
    }
    report
}

/// [`apply_all`] against a journaled working copy: applies the batch in
/// ascending base topological order of the targets, skipping (and
/// counting) cycle rejections, journaling everything into `log`.
///
/// `topo_pos` and `fanouts` describe the graph the working copy was
/// taken from; batch members are ordered exactly as [`apply_all`] orders
/// them, so both paths drop the same LACs.
///
/// # Panics
///
/// Panics if a LAC is structurally invalid (bad target or out-of-range
/// node).
pub fn apply_all_trial(
    aig: &mut Aig,
    lacs: &[Lac],
    topo_pos: &[u32],
    fanouts: &Fanouts,
    log: &mut PatchLog,
) -> ApplyReport {
    let mut sorted: Vec<&Lac> = lacs.iter().collect();
    sorted.sort_by_key(|l| topo_pos[l.tn.index()]);

    let mut report = ApplyReport::default();
    for lac in sorted {
        match apply_trial(aig, lac, fanouts, log) {
            Ok(()) => report.applied += 1,
            Err(ApplyError::Cycle(_)) => report.dropped_cycle += 1,
            Err(e) => panic!("invalid LAC in conflict-free batch: {e}"),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use aig::Aig;

    fn sample() -> (Aig, NodeId, NodeId) {
        let mut g = Aig::new("t", 3);
        let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
        let ab = g.and(a, b);
        let y = g.and(ab, c);
        g.add_output(y, "y");
        (g, ab.node(), y.node())
    }

    #[test]
    fn apply_constant() {
        let (mut g, ab, _) = sample();
        apply(&mut g, &Lac::new(ab, LacKind::Constant(true))).unwrap();
        // y = 1 & c = c.
        assert_eq!(g.eval(&[false, false, true]), vec![true]);
        assert_eq!(g.eval(&[true, true, false]), vec![false]);
    }

    #[test]
    fn apply_wire_with_negation() {
        let (mut g, ab, _) = sample();
        let a = g.pi(0).node();
        apply(&mut g, &Lac::new(ab, LacKind::Wire { sn: a, neg: true })).unwrap();
        // y = !a & c.
        assert_eq!(g.eval(&[false, false, true]), vec![true]);
        assert_eq!(g.eval(&[true, true, true]), vec![false]);
    }

    #[test]
    fn apply_binary_or() {
        let (mut g, ab, _) = sample();
        let (pa, pb) = (g.pi(0).node(), g.pi(1).node());
        // tt 0b1110 = OR.
        apply(
            &mut g,
            &Lac::new(
                ab,
                LacKind::Binary {
                    sns: [pa, pb],
                    tt: 0b1110,
                },
            ),
        )
        .unwrap();
        // y = (a | b) & c.
        assert_eq!(g.eval(&[true, false, true]), vec![true]);
        assert_eq!(g.eval(&[false, false, true]), vec![false]);
    }

    #[test]
    fn all_sixteen_truth_tables_build_correctly() {
        for tt in 0u8..16 {
            let mut g = Aig::new("tt", 2);
            let (a, b) = (g.pi(0), g.pi(1));
            let f = build_tt2(&mut g, a, b, tt);
            g.add_output(f, "f");
            for m in 0..4u8 {
                let ins = [m & 1 == 1, m & 2 == 2];
                assert_eq!(g.eval(&ins)[0], tt >> m & 1 == 1, "tt {tt:04b} minterm {m}");
            }
        }
    }

    #[test]
    fn all_ternary_truth_tables_build_correctly() {
        for tt in [0u8, 0x96, 0xE8, 0xFF, 0x80, 0x7F, 0x3C, 0b1101_0110] {
            let mut g = Aig::new("tt3", 3);
            let lits = [g.pi(0), g.pi(1), g.pi(2)];
            let f = build_tt3(&mut g, &lits, tt);
            g.add_output(f, "f");
            for m in 0..8u8 {
                let ins = [m & 1 == 1, m & 2 == 2, m & 4 == 4];
                assert_eq!(g.eval(&ins)[0], tt >> m & 1 == 1, "tt {tt:08b} minterm {m}");
            }
        }
    }

    #[test]
    fn apply_ternary_majority() {
        let mut g = Aig::new("t", 4);
        let (a, b, c, d) = (g.pi(0), g.pi(1), g.pi(2), g.pi(3));
        let ab = g.and(a, b);
        let y = g.and(ab, d);
        g.add_output(y, "y");
        // Replace ab with MAJ(a, b, c) (tt 0b1110_1000).
        apply(
            &mut g,
            &Lac::new(
                ab.node(),
                LacKind::Ternary {
                    sns: [a.node(), b.node(), c.node()],
                    tt: 0b1110_1000,
                },
            ),
        )
        .unwrap();
        // y = maj(a,b,c) & d.
        assert_eq!(g.eval(&[true, false, true, true]), vec![true]);
        assert_eq!(g.eval(&[true, false, false, true]), vec![false]);
        assert_eq!(g.eval(&[true, true, false, false]), vec![false]);
    }

    #[test]
    fn cycle_is_rejected() {
        let (mut g, ab, y) = sample();
        // Replacing ab with y (its own fanout) must fail.
        let err = apply(&mut g, &Lac::new(ab, LacKind::Wire { sn: y, neg: false }));
        assert_eq!(err, Err(ApplyError::Cycle(ab)));
    }

    #[test]
    fn apply_all_reports_drops() {
        let (mut g, ab, y) = sample();
        let a = g.pi(0).node();
        let lacs = vec![
            Lac::new(ab, LacKind::Wire { sn: a, neg: false }),
            Lac::new(y, LacKind::Wire { sn: ab, neg: false }),
        ];
        // Second LAC uses ab as SN; ab is replaced but not removed, so
        // both should apply (no cycle here).
        let report = apply_all(&mut g, &lacs);
        assert_eq!(report.applied, 2);
        assert_eq!(report.dropped_cycle, 0);
    }

    #[test]
    fn trial_apply_matches_committed_apply_and_rolls_back() {
        let (g, ab, y) = sample();
        let a = g.pi(0).node();
        let lacs = vec![
            Lac::new(
                ab,
                LacKind::Binary {
                    sns: [a, g.pi(2).node()],
                    tt: 0b0110, // xor
                },
            ),
            Lac::new(y, LacKind::Wire { sn: a, neg: true }),
        ];

        let mut committed = g.clone();
        let want = apply_all(&mut committed, &lacs);

        let fanouts = Fanouts::build(&g);
        let order = g.topo_order().unwrap();
        let mut pos = vec![0u32; g.n_nodes()];
        for (i, id) in order.iter().enumerate() {
            pos[id.index()] = i as u32;
        }
        let mut work = g.trial_copy();
        let mut log = PatchLog::begin(&work);
        let got = apply_all_trial(&mut work, &lacs, &pos, &fanouts, &mut log);
        assert_eq!(got, want);
        for pattern in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(work.eval(&ins), committed.eval(&ins), "pattern {pattern}");
        }
        assert_eq!(
            work.compacted_n_ands().unwrap(),
            committed.compact().unwrap().0.n_ands()
        );

        work.rollback(&mut log);
        for pattern in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| pattern >> i & 1 == 1).collect();
            assert_eq!(work.eval(&ins), g.eval(&ins), "pattern {pattern}");
        }
    }

    #[test]
    fn trial_apply_rejects_cycles_like_apply() {
        let (g, ab, y) = sample();
        let fanouts = Fanouts::build(&g);
        let mut work = g.trial_copy();
        let mut log = PatchLog::begin(&work);
        let err = apply_trial(
            &mut work,
            &Lac::new(ab, LacKind::Wire { sn: y, neg: false }),
            &fanouts,
            &mut log,
        );
        assert_eq!(err, Err(ApplyError::Cycle(ab)));
    }

    #[test]
    fn complemented_self_alias_rebuilds_fresh() {
        // A NAND resubstitution over the target's own fanins builds, in
        // the strash phase, exactly the complemented target literal;
        // that is not a genuine cycle and must apply.
        let (mut g, ab, _) = sample();
        let (pa, pb) = (g.pi(0).node(), g.pi(1).node());
        apply(
            &mut g,
            &Lac::new(
                ab,
                LacKind::Binary {
                    sns: [pa, pb],
                    tt: 0b0111, // nand
                },
            ),
        )
        .unwrap();
        // y = !(a & b) & c.
        assert_eq!(g.eval(&[true, true, true]), vec![false]);
        assert_eq!(g.eval(&[false, true, true]), vec![true]);
    }

    #[test]
    fn target_must_be_a_gate() {
        let (mut g, _, _) = sample();
        let pi = g.pi(0).node();
        let err = apply(&mut g, &Lac::new(pi, LacKind::Constant(false)));
        assert_eq!(err, Err(ApplyError::BadTarget(pi)));
    }
}
