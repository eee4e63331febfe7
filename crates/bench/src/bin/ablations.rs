//! Ablation studies for the design choices called out in DESIGN.md:
//!
//! 1. estimator: change-propagation masks vs exact-on-sample re-simulation,
//! 2. MIS solver strategy (greedy / local search / exact),
//! 3. mutual-influence threshold `t_b`,
//! 4. racing the random set on/off,
//! 5. the improvement techniques (`l_e`, `l_d`) on/off.
//!
//! Run: `cargo run -p accals-bench --release --bin ablations
//!       [--circuits mtp8,wal8]`

use accals::{AccalsConfig, SizeParam};
use accals_bench::exp::{filtered, run_accals_with};
use accals_bench::report::{secs, Table};
use benchgen::suite;
use bitsim::{simulate, Patterns};
use errmetrics::{ErrorEval, MetricKind};
use estimate::{exact_on_sample, BatchEstimator};
use misolver::MisStrategy;
use std::time::Instant;
use techmap::Library;

fn base_cfg(bound: f64) -> AccalsConfig {
    let mut cfg = AccalsConfig::new(MetricKind::Er, bound);
    cfg.r_ref = SizeParam::Auto;
    cfg.r_sel = SizeParam::Auto;
    cfg
}

fn main() {
    let lib = Library::mcnc_mini();
    let circuits = filtered(&["mtp8", "wal8", "c880"]);
    let bound = 0.03;

    estimator_ablation(&circuits);

    // --- Flow-level ablations share one table. ---
    let mut table = Table::new(
        "Flow ablations (ER 3%)",
        &["ckt", "variant", "adp_ratio", "time_s", "rounds", "applied"],
    );
    for name in &circuits {
        let g = suite::by_name(name).expect("known circuit");
        let variants: Vec<(&str, AccalsConfig)> = vec![
            ("baseline", base_cfg(bound)),
            ("mis=greedy", {
                let mut c = base_cfg(bound);
                c.mis = MisStrategy::Greedy;
                c
            }),
            ("mis=localsearch", {
                let mut c = base_cfg(bound);
                c.mis = MisStrategy::LocalSearch {
                    iterations: 200,
                    seed: 7,
                };
                c
            }),
            ("t_b=0.2", {
                let mut c = base_cfg(bound);
                c.t_b = 0.2;
                c
            }),
            ("t_b=0.8", {
                let mut c = base_cfg(bound);
                c.t_b = 0.8;
                c
            }),
            ("no-race", {
                let mut c = base_cfg(bound);
                c.race_random = false;
                c
            }),
            ("no-guards", {
                let mut c = base_cfg(bound);
                c.l_e = 1.0;
                c.l_d = 1.0;
                c
            }),
            ("with-ternary", {
                let mut c = base_cfg(bound);
                c.candidates.ternaries = true;
                c
            }),
        ];
        for (label, cfg) in variants {
            let out = run_accals_with(&g, cfg, &lib);
            table.row(vec![
                name.clone(),
                label.to_string(),
                format!("{:.4}", out.adp_ratio),
                secs(out.runtime),
                out.rounds.to_string(),
                out.total_applied.to_string(),
            ]);
        }
    }
    table.emit("ablations_flow");
}

/// Compares the batch change-propagation estimator against per-candidate
/// exact re-simulation, in both accuracy (must agree exactly) and time.
fn estimator_ablation(circuits: &[String]) {
    let mut table = Table::new(
        "Estimator ablation: change-propagation vs exact-on-sample",
        &[
            "ckt",
            "candidates",
            "batch_s",
            "exact_s",
            "speedup",
            "max_abs_diff",
        ],
    );
    for name in circuits {
        let g = suite::by_name(name).expect("known circuit");
        let pats = Patterns::for_circuit(g.n_pis(), 1 << 13, 1 << 13, 1);
        let sim = simulate(&g, &pats);
        let golden = sim.output_sigs(&g);
        let mut eval = ErrorEval::new(MetricKind::Er, &golden, pats.n_patterns());
        eval.rebase(&golden);
        let cands = lac::generate_candidates(&g, &sim, &lac::CandidateConfig::default());

        let t0 = Instant::now();
        let mut est = BatchEstimator::new(&g, &sim, &eval);
        let scored = est.score_all(&cands);
        let batch_time = t0.elapsed();

        let t1 = Instant::now();
        let mut max_diff = 0.0f64;
        // Exact evaluation is slow; sample a deterministic subset.
        let step = (cands.len() / 200).max(1);
        for s in scored.iter().step_by(step) {
            let exact = exact_on_sample(&g, &golden, MetricKind::Er, &pats, &s.lac);
            max_diff = max_diff.max((est.current_error() + s.delta_e - exact).abs());
        }
        let exact_time = t1.elapsed().mul_f64(step as f64); // extrapolated
        table.row(vec![
            name.clone(),
            cands.len().to_string(),
            secs(batch_time),
            format!("{:.1} (extrapolated)", exact_time.as_secs_f64()),
            format!(
                "{:.0}x",
                exact_time.as_secs_f64() / batch_time.as_secs_f64().max(1e-9)
            ),
            format!("{max_diff:.2e}"),
        ]);
    }
    table.emit("ablations_estimator");
}
