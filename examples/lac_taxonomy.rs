//! The paper's LAC-set taxonomy (Section II-A), demonstrated on real
//! circuits: a *positive* set masks its own errors, an *independent* set
//! matches the additive estimate, and a *negative* set amplifies errors.
//!
//! AccALS's whole selection machinery exists to find independent (or
//! positive) sets and avoid negative ones; this example makes the three
//! behaviors tangible.
//!
//! Run: `cargo run --release --example lac_taxonomy`

use accals::classify::{classify_lac_set, LacSetClass};
use aig::Aig;
use bitsim::{simulate, Patterns};
use errmetrics::MetricKind;
use lac::{Lac, LacKind};

fn report(name: &str, g: &Aig, set: &[Lac], sigma: f64) {
    let pats = Patterns::exhaustive(g.n_pis());
    let golden = simulate(g, &pats).output_sigs(g);
    let c = classify_lac_set(g, &golden, &pats, MetricKind::Er, set, sigma);
    println!(
        "{name:<32} e_est = {:.4}  e_new = {:.4}  ->  {}",
        c.e_est, c.e_new, c.class
    );
    match c.class {
        LacSetClass::Positive => println!("  (the LACs mask each other's errors)"),
        LacSetClass::Independent => println!("  (Eq. (1) additivity holds)"),
        LacSetClass::Negative => {
            println!("  (the LACs amplify each other: the l_d guard reverts such sets)")
        }
    }
}

fn main() {
    // --- A negative set: two masked constants jointly unmask. ---
    // out = (a & c) & (b & c). Each pin-to-1 alone is usually masked by
    // the other side; together the output becomes constant 1.
    let mut g = Aig::new("negative", 3);
    let (a, b, c) = (g.pi(0), g.pi(1), g.pi(2));
    let u = g.and(a, c);
    let v = g.and(b, c);
    let out = g.and(u, v);
    g.add_output(out, "y");
    let set = vec![
        Lac::new(u.node(), LacKind::Constant(true)),
        Lac::new(v.node(), LacKind::Constant(true)),
    ];
    report("two masked constants (AND cone)", &g, &set, 0.0);

    // --- A positive set: the second LAC repairs the first. ---
    let mut g = Aig::new("positive", 2);
    let (a, b) = (g.pi(0), g.pi(1));
    let ab = g.and(a, b);
    let top = g.and(ab, a); // redundant: equals a & b
    g.add_output(top, "y");
    let set = vec![
        Lac::new(ab.node(), LacKind::Constant(true)),
        Lac::new(
            top.node(),
            LacKind::Binary {
                sns: [a.node(), b.node()],
                tt: 0b1000, // rebuild a & b directly
            },
        ),
    ];
    report("\nconstant + repairing resub", &g, &set, 0.0);

    // --- An independent set: LACs in disjoint cones of a multiplier. ---
    let g = benchgen::multipliers::array_multiplier(3);
    let pats = Patterns::exhaustive(6);
    let sim = simulate(&g, &pats);
    let cands = lac::generate_candidates(&g, &sim, &lac::CandidateConfig::default());
    // Pick two candidates with distant targets (first and last gates).
    let first = cands
        .iter()
        .find(|l| matches!(l.kind, LacKind::Wire { .. }))
        .copied();
    let last = cands
        .iter()
        .rev()
        .find(|l| matches!(l.kind, LacKind::Wire { .. }) && Some(l.tn) != first.map(|f| f.tn))
        .copied();
    if let (Some(f), Some(l)) = (first, last) {
        report("\ndistant wire LACs (mtp3)", &g, &[f, l], 1.0 / 64.0);
    }

    println!(
        "\nAccALS selects sets that land in the first two classes: the\n\
         influence index + MIS step aims for independence, and the race\n\
         against a random set (plus the l_d revert) catches the rest."
    );
}
