//! Restoring divider, restoring square root, and squarer generators —
//! scaled-down functional equivalents of the EPFL `div`, `sqrt`, and
//! `square` arithmetic benchmarks.

use crate::primitives::{full_adder, half_adder, input_word, mux_word, output_word, ripple_sub};
use aig::{Aig, Lit};

/// Restoring array divider: `width`-bit dividend `a` and divisor `d`,
/// producing quotient `q` (outputs 0..width) and remainder `r`
/// (outputs width..2*width).
///
/// Division by zero follows the hardware convention: `q = 2^width - 1`
/// and `r = a`.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn divider(width: usize) -> Aig {
    assert!(width > 0, "width must be positive");
    let mut g = Aig::new(format!("div{width}"), 2 * width);
    let a = input_word(&mut g, 0, width, "a");
    let d = input_word(&mut g, width, width, "d");
    let mut d_ext = d.clone();
    d_ext.push(Lit::FALSE); // width + 1 bits
    let mut r: Vec<Lit> = vec![Lit::FALSE; width + 1];
    let mut q = vec![Lit::FALSE; width];
    for i in (0..width).rev() {
        // Shift the partial remainder left and bring in dividend bit i.
        let mut rs = Vec::with_capacity(width + 1);
        rs.push(a[i]);
        rs.extend_from_slice(&r[..width]);
        let (diff, no_borrow) = ripple_sub(&mut g, &rs, &d_ext);
        q[i] = no_borrow;
        r = mux_word(&mut g, no_borrow, &diff, &rs);
    }
    output_word(&mut g, &q, "q");
    output_word(&mut g, &r[..width], "r");
    g
}

/// Restoring square root: `2 * half_width`-bit radicand, producing the
/// `half_width`-bit integer root (outputs 0..half_width) followed by the
/// remainder (`half_width + 1` outputs).
///
/// # Panics
///
/// Panics if `half_width == 0`.
pub fn sqrt(half_width: usize) -> Aig {
    assert!(half_width > 0, "half_width must be positive");
    let n = half_width;
    let in_width = 2 * n;
    let mut g = Aig::new(format!("sqrt{in_width}"), in_width);
    let a = input_word(&mut g, 0, in_width, "a");
    let w = n + 2; // working width for the partial remainder
    let mut r: Vec<Lit> = vec![Lit::FALSE; w];
    let mut q: Vec<Lit> = Vec::new(); // grows MSB-first, kept LSB-first
    for i in (0..n).rev() {
        // r = (r << 2) | a[2i+1 .. 2i]
        let mut rs = Vec::with_capacity(w);
        rs.push(a[2 * i]);
        rs.push(a[2 * i + 1]);
        rs.extend_from_slice(&r[..w - 2]);
        // t = (q << 2) | 01
        let mut t = Vec::with_capacity(w);
        t.push(Lit::TRUE);
        t.push(Lit::FALSE);
        t.extend_from_slice(&q);
        t.resize(w, Lit::FALSE);
        let (diff, no_borrow) = ripple_sub(&mut g, &rs, &t);
        r = mux_word(&mut g, no_borrow, &diff, &rs);
        // q = (q << 1) | no_borrow, still LSB-first.
        q.insert(0, no_borrow);
    }
    output_word(&mut g, &q, "q");
    output_word(&mut g, &r[..n + 1], "r");
    g
}

/// Squarer: `width`-bit input, `2 * width`-bit output `x * x`, built as a
/// Wallace-style column compressor over the shared partial products.
///
/// # Panics
///
/// Panics if `width == 0`.
pub fn square(width: usize) -> Aig {
    assert!(width > 0, "width must be positive");
    let mut g = Aig::new(format!("square{width}"), width);
    let a = input_word(&mut g, 0, width, "x");
    let mut columns = vec![Vec::new(); 2 * width];
    for i in 0..width {
        // Diagonal terms: a_i & a_i = a_i with weight 2^(2i).
        columns[2 * i].push(a[i]);
        // Off-diagonal pairs appear twice: weight 2^(i+j+1).
        for j in i + 1..width {
            let pp = g.and(a[i], a[j]);
            columns[i + j + 1].push(pp);
        }
    }
    while columns.iter().any(|c| c.len() > 2) {
        let mut next = vec![Vec::new(); columns.len()];
        for (c, col) in columns.iter().enumerate() {
            let mut i = 0;
            while col.len() - i >= 3 {
                let (s, cy) = full_adder(&mut g, col[i], col[i + 1], col[i + 2]);
                next[c].push(s);
                if c + 1 < next.len() {
                    next[c + 1].push(cy);
                }
                i += 3;
            }
            if col.len() - i == 2 {
                let (s, cy) = half_adder(&mut g, col[i], col[i + 1]);
                next[c].push(s);
                if c + 1 < next.len() {
                    next[c + 1].push(cy);
                }
            } else if col.len() - i == 1 {
                next[c].push(col[i]);
            }
        }
        columns = next;
    }
    let mut product = Vec::with_capacity(2 * width);
    let mut carry = Lit::FALSE;
    for col in &columns {
        let (x, y) = match col.len() {
            0 => (Lit::FALSE, Lit::FALSE),
            1 => (col[0], Lit::FALSE),
            _ => (col[0], col[1]),
        };
        let (s, c) = full_adder(&mut g, x, y, carry);
        product.push(s);
        carry = c;
    }
    product.truncate(2 * width);
    output_word(&mut g, &product, "p");
    g
}

#[cfg(test)]
mod tests {
    use crate::{decode, encode};

    #[test]
    fn divider_matches_integer_division() {
        let w = 6;
        let g = super::divider(w);
        for a in [0u128, 1, 5, 17, 42, 63] {
            for d in [1u128, 2, 3, 7, 33, 63] {
                let mut ins = encode(a, w);
                ins.extend(encode(d, w));
                let out = g.eval(&ins);
                let q = decode(&out[..w]);
                let r = decode(&out[w..]);
                assert_eq!(q, a / d, "{a} / {d}");
                assert_eq!(r, a % d, "{a} % {d}");
            }
        }
    }

    #[test]
    fn divider_by_zero_convention() {
        let w = 4;
        let g = super::divider(w);
        let mut ins = encode(11, w);
        ins.extend(encode(0, w));
        let out = g.eval(&ins);
        assert_eq!(decode(&out[..w]), 15);
        assert_eq!(decode(&out[w..]), 11);
    }

    #[test]
    fn divider_exhaustive_small() {
        let w = 3;
        let g = super::divider(w);
        for a in 0..8u128 {
            for d in 1..8u128 {
                let mut ins = encode(a, w);
                ins.extend(encode(d, w));
                let out = g.eval(&ins);
                assert_eq!(decode(&out[..w]), a / d);
                assert_eq!(decode(&out[w..]), a % d);
            }
        }
    }

    #[test]
    fn sqrt_matches_integer_root() {
        let half = 4; // 8-bit radicand
        let g = super::sqrt(half);
        for a in 0..256u128 {
            let ins = encode(a, 2 * half);
            let out = g.eval(&ins);
            let q = decode(&out[..half]);
            let r = decode(&out[half..]);
            let root = (a as f64).sqrt() as u128;
            assert_eq!(q, root, "sqrt({a})");
            assert_eq!(r, a - root * root, "rem({a})");
        }
    }

    #[test]
    fn square_matches_multiplication() {
        let w = 6;
        let g = super::square(w);
        for x in 0..64u128 {
            let ins = encode(x, w);
            assert_eq!(decode(&g.eval(&ins)), x * x, "{x}^2");
        }
    }
}
