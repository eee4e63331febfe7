//! Word-level building blocks shared by the circuit generators.
//!
//! All words are least-significant-bit first.

use aig::{Aig, Lit};

/// Builds a full adder, returning `(sum, carry_out)`.
pub fn full_adder(g: &mut Aig, a: Lit, b: Lit, c: Lit) -> (Lit, Lit) {
    let axb = g.xor(a, b);
    let sum = g.xor(axb, c);
    let ab = g.and(a, b);
    let axb_c = g.and(axb, c);
    let carry = g.or(ab, axb_c);
    (sum, carry)
}

/// Builds a half adder, returning `(sum, carry_out)`.
pub fn half_adder(g: &mut Aig, a: Lit, b: Lit) -> (Lit, Lit) {
    (g.xor(a, b), g.and(a, b))
}

/// Ripple-carry addition of two equal-width words, returning
/// `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn ripple_add(g: &mut Aig, a: &[Lit], b: &[Lit], cin: Lit) -> (Vec<Lit>, Lit) {
    assert_eq!(a.len(), b.len(), "word widths must match");
    let mut carry = cin;
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(g, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b`, returning `(difference,
/// no_borrow)`; the second value is 1 when `a >= b`.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn ripple_sub(g: &mut Aig, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Lit) {
    let nb: Vec<Lit> = b.iter().map(|&l| !l).collect();
    ripple_add(g, a, &nb, Lit::TRUE)
}

/// Word-wide 2:1 multiplexer: `if s { t } else { e }`.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn mux_word(g: &mut Aig, s: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
    assert_eq!(t.len(), e.len(), "word widths must match");
    t.iter().zip(e).map(|(&x, &y)| g.mux(s, x, y)).collect()
}

/// Unsigned comparison `a < b`.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn less_than(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    // a < b  <=>  a - b borrows.
    let (_, no_borrow) = ripple_sub(g, a, b);
    !no_borrow
}

/// Word equality `a == b`.
///
/// # Panics
///
/// Panics if the words differ in width.
pub fn equals(g: &mut Aig, a: &[Lit], b: &[Lit]) -> Lit {
    assert_eq!(a.len(), b.len(), "word widths must match");
    let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| g.xnor(x, y)).collect();
    g.and_many(&bits)
}

/// Declares `width` fresh primary-input literals starting at input index
/// `base`, naming them `prefix0..`, and returns them LSB first.
///
/// # Panics
///
/// Panics if the range exceeds the circuit's input count.
pub fn input_word(g: &mut Aig, base: usize, width: usize, prefix: &str) -> Vec<Lit> {
    (0..width)
        .map(|i| {
            g.set_pi_name(base + i, format!("{prefix}{i}"));
            g.pi(base + i)
        })
        .collect()
}

/// Adds the word as primary outputs named `prefix0..`, LSB first.
pub fn output_word(g: &mut Aig, word: &[Lit], prefix: &str) {
    for (i, &l) in word.iter().enumerate() {
        g.add_output(l, format!("{prefix}{i}"));
    }
}

/// Builds the complete set of `2^k` minterms over `lits`, sharing AND
/// gates between minterms (the standard recursive decomposition).
/// Minterm `m` is true when input `i` equals bit `i` of `m`.
///
/// # Panics
///
/// Panics if `lits.len() > 16`.
pub fn minterms(g: &mut Aig, lits: &[Lit]) -> Vec<Lit> {
    assert!(
        lits.len() <= 16,
        "minterm expansion limited to 16 variables"
    );
    match lits {
        [] => vec![Lit::TRUE],
        [l] => vec![!*l, *l],
        _ => {
            let (lo, hi) = lits.split_at(lits.len() / 2);
            let mlo = minterms(g, lo);
            let mhi = minterms(g, hi);
            let mut out = Vec::with_capacity(mlo.len() * mhi.len());
            for &h in &mhi {
                for &l in &mlo {
                    out.push(g.and(l, h));
                }
            }
            out
        }
    }
}

/// Builds a `k`-input, `width`-output lookup table from `table`, where
/// `table[m]` is the output value for input pattern `m`. Gates are shared
/// across output bits through the minterm decomposition.
///
/// # Panics
///
/// Panics if `table.len() != 2^lits.len()`.
pub fn lut(g: &mut Aig, lits: &[Lit], table: &[u64], width: usize) -> Vec<Lit> {
    assert_eq!(table.len(), 1 << lits.len(), "table size mismatch");
    let terms = minterms(g, lits);
    (0..width)
        .map(|bit| {
            let ones: Vec<Lit> = terms
                .iter()
                .zip(table)
                .filter(|(_, &v)| v >> bit & 1 == 1)
                .map(|(&t, _)| t)
                .collect();
            g.or_many(&ones)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};

    #[test]
    fn ripple_add_matches_integers() {
        let mut g = Aig::new("t", 8);
        let a = input_word(&mut g, 0, 4, "a");
        let b = input_word(&mut g, 4, 4, "b");
        let (sum, cout) = ripple_add(&mut g, &a, &b, Lit::FALSE);
        output_word(&mut g, &sum, "s");
        g.add_output(cout, "cout");
        for x in 0..16u128 {
            for y in 0..16u128 {
                let mut ins = encode(x, 4);
                ins.extend(encode(y, 4));
                assert_eq!(decode(&g.eval(&ins)), x + y);
            }
        }
    }

    #[test]
    fn subtraction_and_comparison() {
        let mut g = Aig::new("t", 8);
        let a = input_word(&mut g, 0, 4, "a");
        let b = input_word(&mut g, 4, 4, "b");
        let lt = less_than(&mut g, &a, &b);
        let eq = equals(&mut g, &a, &b);
        g.add_output(lt, "lt");
        g.add_output(eq, "eq");
        for x in 0..16u128 {
            for y in 0..16u128 {
                let mut ins = encode(x, 4);
                ins.extend(encode(y, 4));
                let out = g.eval(&ins);
                assert_eq!(out[0], x < y, "{x} < {y}");
                assert_eq!(out[1], x == y, "{x} == {y}");
            }
        }
    }

    #[test]
    fn minterms_are_one_hot() {
        let mut g = Aig::new("t", 3);
        let lits: Vec<Lit> = (0..3).map(|i| g.pi(i)).collect();
        let terms = minterms(&mut g, &lits);
        for (m, &t) in terms.iter().enumerate() {
            g.add_output(t, format!("m{m}"));
        }
        for p in 0..8usize {
            let ins = encode(p as u128, 3);
            let out = g.eval(&ins);
            for (m, &v) in out.iter().enumerate() {
                assert_eq!(v, m == p, "minterm {m} pattern {p}");
            }
        }
    }

    #[test]
    fn lut_implements_table() {
        // 3-input table: value = (m * 3) % 8 over 3 output bits.
        let table: Vec<u64> = (0..8).map(|m| (m * 3) % 8).collect();
        let mut g = Aig::new("t", 3);
        let lits: Vec<Lit> = (0..3).map(|i| g.pi(i)).collect();
        let out = lut(&mut g, &lits, &table, 3);
        output_word(&mut g, &out, "y");
        for m in 0..8u128 {
            let ins = encode(m, 3);
            assert_eq!(decode(&g.eval(&ins)), (m * 3) % 8);
        }
    }
}
