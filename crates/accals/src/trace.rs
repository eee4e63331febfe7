/// Per-round diagnostics of an AccALS run, used by the statistical
/// analysis experiments (Fig. 4 of the paper) and for debugging.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RoundTrace {
    /// Round number, starting at 0.
    pub round: usize,
    /// Whether this round fell back to single-LAC selection (either
    /// because the error crossed `l_e * e_b` or after a negative-set
    /// revert).
    pub single_mode: bool,
    /// Number of candidate LACs generated.
    pub n_candidates: usize,
    /// Size of the top set `L_top` (Eq. (2)).
    pub r_top: usize,
    /// Size of the conflict-free set `L_sol`.
    pub n_sol: usize,
    /// Size of the independent set `L_indp`.
    pub n_indp: usize,
    /// Size of the random set `L_rand`.
    pub n_rand: usize,
    /// Whether the independent set won the race (Lines 10-12 of
    /// Algorithm 1). Meaningless in single mode.
    pub chose_indp: bool,
    /// LACs actually applied this round.
    pub applied: usize,
    /// LACs dropped because sequential application would have created a
    /// combinational cycle.
    pub dropped_cycle: usize,
    /// Whether the `l_d` guard classified the chosen set as negative and
    /// reverted to a single-LAC application.
    pub reverted: bool,
    /// Circuit error before the round.
    pub e_before: f64,
    /// Circuit error after the round.
    pub e_after: f64,
    /// Estimated error `e + Σ ΔE` of the applied set (Eq. (1)).
    pub e_est: f64,
    /// AIG gate count after the round (post-cleanup).
    pub n_ands_after: usize,
    /// Candidates scored to an exact `ΔE` this round. The exact/pruned
    /// split is schedule-dependent (see `estimate::TopkStats`) —
    /// diagnostics only, never part of the determinism contract.
    pub scored_exact: usize,
    /// Candidates abandoned early by the top-k lower bound this round.
    pub scored_pruned: usize,
    /// Wall-clock spent generating candidates through the
    /// [`lac::CandidateStore`], in milliseconds.
    pub candgen_ms: f64,
    /// Wall-clock spent computing missing transfer masks, in
    /// milliseconds.
    pub mask_ms: f64,
    /// Wall-clock spent scoring candidates against the masks, in
    /// milliseconds.
    pub score_ms: f64,
    /// Wall-clock spent in set selection (top set, conflict solving,
    /// independence, random sampling), in milliseconds. Zero in single
    /// mode, whose ladder walks the head of the already ordered scores.
    pub select_ms: f64,
    /// Wall-clock spent trial-measuring candidate sets, in milliseconds.
    pub trial_ms: f64,
    /// Wall-clock spent committing the chosen edit (apply + cleanup +
    /// any verification measurement), in milliseconds.
    pub commit_ms: f64,
    /// Rendezvous-hash weight evaluations during candidate generation
    /// (wire/divisor probe draws).
    pub candgen_probe_draws: u64,
    /// Strip-kernel invocations during candidate generation (wire
    /// distances plus binary/ternary truth-table scans).
    pub candgen_strip_cmps: u64,
    /// Store entries carried across the generation roll (0 on the
    /// first round or a flush).
    pub candgen_pool_hits: u64,
    /// Nodes whose candidates were (re)generated this round.
    pub candgen_pool_misses: u64,
    /// Target-node count of the round's window (0 on dense rounds —
    /// no window configured, or the circuit fit in a single window).
    pub window_targets: usize,
}

impl RoundTrace {
    /// The relative error difference `β = (e_new - e_est) / e_new` used
    /// by the negative-set guard; `None` when `e_after` is zero.
    pub fn beta(&self) -> Option<f64> {
        if self.e_after > 0.0 {
            Some((self.e_after - self.e_est) / self.e_after)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(e_after: f64, e_est: f64) -> RoundTrace {
        RoundTrace {
            e_after,
            e_est,
            ..RoundTrace::default()
        }
    }

    #[test]
    fn beta_definition() {
        assert_eq!(trace(0.0, 0.1).beta(), None);
        let b = trace(0.2, 0.1).beta().unwrap();
        assert!((b - 0.5).abs() < 1e-12);
        // Positive sets (actual < estimated) give negative beta.
        assert!(trace(0.05, 0.1).beta().unwrap() < 0.0);
    }
}
