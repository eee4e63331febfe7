//! Reduced ordered binary decision diagrams (ROBDDs) with model
//! counting, built for *exact* verification of approximate circuits.
//!
//! Simulation-based error metrics are exact only with respect to their
//! pattern sample. This crate provides the complementary exact path: an
//! AIG is converted to BDDs ([`Manager::build_outputs`]), a miter between
//! the golden and approximate circuits is formed, and the error rate is
//! computed by model counting ([`exact::error_rate`]) — no sampling
//! involved. Intended for small and medium circuits (the manager has a
//! configurable node budget and reports blow-ups as
//! [`BddError::NodeLimit`] instead of consuming unbounded memory).
//!
//! # Example
//!
//! ```
//! use bdd::exact;
//!
//! // Golden: 2-bit AND; approximate: first input passed through.
//! let mut golden = aig::Aig::new("g", 2);
//! let y = golden.and(golden.pi(0), golden.pi(1));
//! golden.add_output(y, "y");
//! let mut approx = aig::Aig::new("a", 2);
//! let ya = approx.pi(0);
//! approx.add_output(ya, "y");
//!
//! let er = exact::error_rate(&golden, &approx, 1 << 20)?;
//! assert_eq!(er, 0.25); // wrong only for a=1, b=0
//! # Ok::<(), bdd::BddError>(())
//! ```

mod manager;

pub use manager::{BddError, BddRef, Manager};

/// Exact error metrics between two circuits, via BDD model counting.
pub mod exact {
    use crate::manager::{BddError, BddRef, Manager};
    use aig::Aig;

    /// Builds both circuits in one manager and returns per-output
    /// XOR (difference) functions.
    fn difference_bdds(
        golden: &Aig,
        approx: &Aig,
        node_limit: usize,
    ) -> Result<(Manager, Vec<BddRef>), BddError> {
        assert_eq!(golden.n_pis(), approx.n_pis(), "input counts differ");
        assert_eq!(golden.n_pos(), approx.n_pos(), "output counts differ");
        let mut m = Manager::new(golden.n_pis(), node_limit);
        let g_outs = m.build_outputs(golden)?;
        let a_outs = m.build_outputs(approx)?;
        let mut diffs = Vec::with_capacity(g_outs.len());
        for (g, a) in g_outs.into_iter().zip(a_outs) {
            diffs.push(m.xor(g, a)?);
        }
        Ok((m, diffs))
    }

    /// The exact error rate: the fraction of the `2^n` input assignments
    /// on which any output differs.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the BDDs exceed `node_limit`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if the circuits' interfaces differ.
    pub fn error_rate(golden: &Aig, approx: &Aig, node_limit: usize) -> Result<f64, BddError> {
        let (mut m, diffs) = difference_bdds(golden, approx, node_limit)?;
        let mut any = Manager::zero();
        for d in diffs {
            any = m.or(any, d)?;
        }
        Ok(m.density(any))
    }

    /// The exact mean Hamming distance between the output vectors,
    /// averaged over all `2^n` input assignments.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the BDDs exceed `node_limit`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if the circuits' interfaces differ.
    pub fn mean_hamming(golden: &Aig, approx: &Aig, node_limit: usize) -> Result<f64, BddError> {
        let (m, diffs) = difference_bdds(golden, approx, node_limit)?;
        Ok(diffs.iter().map(|&d| m.density(d)).sum())
    }

    /// The exact mean error distance `E[|approx - golden|]` over all
    /// `2^n` assignments, with outputs read as unsigned binary numbers
    /// (output 0 = LSB).
    ///
    /// Built structurally: both circuits are merged over shared inputs,
    /// an absolute-difference network is stacked on their outputs, and
    /// each difference bit's probability is model-counted.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the BDDs exceed `node_limit`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if the circuits' interfaces differ.
    pub fn mean_error_distance(
        golden: &Aig,
        approx: &Aig,
        node_limit: usize,
    ) -> Result<f64, BddError> {
        assert_eq!(golden.n_pis(), approx.n_pis(), "input counts differ");
        assert_eq!(golden.n_pos(), approx.n_pos(), "output counts differ");
        let diff = difference_network(golden, approx);
        let mut m = Manager::new(golden.n_pis(), node_limit);
        let bits = m.build_outputs(&diff)?;
        let mut expected = 0.0;
        for (k, &b) in bits.iter().enumerate() {
            expected += (1u128 << k) as f64 * m.density(b);
        }
        Ok(expected)
    }

    /// Builds a circuit computing `|golden_out - approx_out|` over the
    /// shared inputs (one output bit per position, plus a top borrow
    /// bit's worth of width).
    fn difference_network(golden: &Aig, approx: &Aig) -> Aig {
        use aig::{Lit, Node};
        let n = golden.n_pis();
        let w = golden.n_pos();
        let mut m = Aig::new("diff", n);

        let copy = |src: &Aig, m: &mut Aig| -> Vec<Lit> {
            let order = src.topo_order().expect("acyclic");
            let mut map: Vec<Option<Lit>> = vec![None; src.n_nodes()];
            map[0] = Some(Lit::FALSE);
            for id in order {
                match *src.node(id) {
                    Node::Const0 => {}
                    Node::Input(i) => map[id.index()] = Some(m.pi(i as usize)),
                    Node::And(a, b) => {
                        let fa = map[a.node().index()]
                            .expect("fanins first")
                            .xor_neg(a.is_neg());
                        let fb = map[b.node().index()]
                            .expect("fanins first")
                            .xor_neg(b.is_neg());
                        map[id.index()] = Some(m.and(fa, fb));
                    }
                }
            }
            src.outputs()
                .iter()
                .map(|o| {
                    map[o.lit.node().index()]
                        .expect("live")
                        .xor_neg(o.lit.is_neg())
                })
                .collect()
        };
        let g_out = copy(golden, &mut m);
        let a_out = copy(approx, &mut m);

        // d = a - g (two's complement, w+1 bits); if negative, negate.
        let mut ax = a_out.clone();
        ax.push(Lit::FALSE);
        let mut gx = g_out.clone();
        gx.push(Lit::FALSE);
        // a + !g + 1
        let mut carry = Lit::TRUE;
        let mut d = Vec::with_capacity(w + 1);
        for i in 0..w + 1 {
            let ng = !gx[i];
            let axb = m.xor(ax[i], ng);
            let sum = m.xor(axb, carry);
            let and1 = m.and(ax[i], ng);
            let and2 = m.and(axb, carry);
            carry = m.or(and1, and2);
            d.push(sum);
        }
        let sign = d[w];
        // |d| = sign ? (~d + 1) : d  — conditional two's complement.
        let mut c2 = sign; // +1 only when negating
        let mut abs = Vec::with_capacity(w);
        for &bit in d.iter().take(w) {
            let flipped = m.xor(bit, sign);
            let sum = m.xor(flipped, c2);
            let cnew = m.and(flipped, c2);
            c2 = cnew;
            abs.push(sum);
        }
        for (k, &b) in abs.iter().enumerate() {
            m.add_output(b, format!("d{k}"));
        }
        m
    }

    /// The exact probability that output `o` of the two circuits
    /// disagrees.
    ///
    /// # Errors
    ///
    /// Returns [`BddError::NodeLimit`] if the BDDs exceed `node_limit`
    /// nodes.
    ///
    /// # Panics
    ///
    /// Panics if the circuits' interfaces differ or `o` is out of range.
    pub fn output_error_probability(
        golden: &Aig,
        approx: &Aig,
        o: usize,
        node_limit: usize,
    ) -> Result<f64, BddError> {
        let (m, diffs) = difference_bdds(golden, approx, node_limit)?;
        Ok(m.density(diffs[o]))
    }
}

#[cfg(test)]
mod tests {
    use super::exact;
    use aig::Aig;

    #[test]
    fn identical_circuits_have_zero_error() {
        let g = benchgen::adders::rca(4);
        assert_eq!(exact::error_rate(&g, &g.clone(), 1 << 20).unwrap(), 0.0);
        assert_eq!(exact::mean_hamming(&g, &g.clone(), 1 << 20).unwrap(), 0.0);
    }

    #[test]
    fn single_output_flip_probability() {
        // approx inverts the carry-out: differs on every assignment for
        // that output, ER = 1.
        let golden = benchgen::adders::rca(3);
        let mut approx = golden.clone();
        let out = approx.outputs().last().unwrap().lit;
        let idx = approx.n_pos() - 1;
        approx.set_output(idx, !out).unwrap();
        let p = exact::output_error_probability(&golden, &approx, idx, 1 << 20).unwrap();
        assert_eq!(p, 1.0);
        assert_eq!(exact::error_rate(&golden, &approx, 1 << 20).unwrap(), 1.0);
    }

    #[test]
    fn node_limit_is_enforced() {
        let g = benchgen::multipliers::wallace_multiplier(8);
        // A multiplier's BDDs are large; a tiny budget must error out
        // rather than churn.
        let r = exact::error_rate(&g, &g.clone(), 100);
        assert!(matches!(r, Err(crate::BddError::NodeLimit(_))));
    }

    #[test]
    fn matches_exhaustive_simulation() {
        use bitsim::{simulate, Patterns};
        let golden = benchgen::multipliers::array_multiplier(3);
        // Corrupt one internal node.
        let mut approx = golden.clone();
        let mid = approx.and_ids().nth(10).unwrap();
        approx.replace(mid, aig::Lit::TRUE).unwrap();
        approx.cleanup().unwrap();

        let pats = Patterns::exhaustive(6);
        let gs = simulate(&golden, &pats).output_sigs(&golden);
        let as_ = simulate(&approx, &pats).output_sigs(&approx);
        let sampled = errmetrics::error(errmetrics::MetricKind::Er, &gs, &as_, 64);
        let exact_er = exact::error_rate(&golden, &approx, 1 << 20).unwrap();
        assert!(
            (sampled - exact_er).abs() < 1e-12,
            "{sampled} vs {exact_er}"
        );
    }

    #[test]
    fn mean_hamming_counts_each_output() {
        // golden: (a, b); approx: (a, !b). Output 1 differs always.
        let mut golden = Aig::new("g", 2);
        let (a, b) = (golden.pi(0), golden.pi(1));
        golden.add_output(a, "y0");
        golden.add_output(b, "y1");
        let mut approx = Aig::new("a", 2);
        let (aa, ab) = (approx.pi(0), approx.pi(1));
        approx.add_output(aa, "y0");
        approx.add_output(!ab, "y1");
        assert_eq!(exact::mean_hamming(&golden, &approx, 1 << 16).unwrap(), 1.0);
    }
}

#[cfg(test)]
mod med_tests {
    use super::exact;

    /// Brute-force MED over all assignments.
    fn brute_med(golden: &aig::Aig, approx: &aig::Aig) -> f64 {
        let n = golden.n_pis();
        let total = 1usize << n;
        let mut sum = 0.0;
        for p in 0..total {
            let ins: Vec<bool> = (0..n).map(|i| p >> i & 1 == 1).collect();
            let gv = benchgen::decode(&golden.eval(&ins)) as f64;
            let av = benchgen::decode(&approx.eval(&ins)) as f64;
            sum += (gv - av).abs();
        }
        sum / total as f64
    }

    #[test]
    fn exact_med_matches_brute_force() {
        let golden = benchgen::adders::rca(3);
        let mut approx = golden.clone();
        // Corrupt an internal gate.
        let mid = approx.and_ids().nth(4).unwrap();
        approx.replace(mid, aig::Lit::FALSE).unwrap();
        approx.cleanup().unwrap();
        let med = exact::mean_error_distance(&golden, &approx, 1 << 20).unwrap();
        let brute = brute_med(&golden, &approx);
        assert!((med - brute).abs() < 1e-9, "{med} vs {brute}");
        assert!(med > 0.0);
    }

    #[test]
    fn exact_med_zero_for_identical() {
        let g = benchgen::multipliers::array_multiplier(2);
        assert_eq!(
            exact::mean_error_distance(&g, &g.clone(), 1 << 20).unwrap(),
            0.0
        );
    }

    #[test]
    fn exact_med_of_constant_output_flip() {
        // Flipping the LSB output inverts it: |diff| = 1 always.
        let golden = benchgen::adders::rca(2);
        let mut approx = golden.clone();
        let lsb = approx.outputs()[0].lit;
        approx.set_output(0, !lsb).unwrap();
        let med = exact::mean_error_distance(&golden, &approx, 1 << 20).unwrap();
        assert!((med - 1.0).abs() < 1e-12);
    }
}
