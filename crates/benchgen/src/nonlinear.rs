//! Nonlinear function generators: fixed-point `log2` and `sin`
//! approximation circuits — scaled-down functional equivalents of the
//! EPFL `log2` and `sin` benchmarks.
//!
//! Both circuits implement a *deterministic fixed-point specification*
//! (exposed as [`log2_model`] / [`sin_model`]), so tests can require
//! exact agreement between the circuit and the software model.

use crate::primitives::{input_word, lut, mux_word, output_word};
use aig::{Aig, Lit};

/// Fixed-point base-2 logarithm circuit.
///
/// Input: `width`-bit unsigned `x`. Output: `int_bits` integer bits of
/// `floor(log2 x)` followed by `frac_bits` fraction bits, where the
/// fraction is looked up from the top `lut_bits` mantissa bits after
/// normalization (see [`log2_model`]). For `x = 0` the output is zero.
///
/// # Panics
///
/// Panics if `width < 2` or `lut_bits > 10`.
pub fn log2(width: usize, lut_bits: usize, frac_bits: usize) -> Aig {
    assert!(width >= 2, "width must be at least 2");
    assert!(lut_bits <= 10, "lut_bits too large");
    let int_bits = usize::BITS as usize - (width - 1).leading_zeros() as usize;
    let mut g = Aig::new(format!("log2_{width}"), width);
    let x = input_word(&mut g, 0, width, "x");

    // Priority-encode the leading-one position and build the normalized
    // mantissa with a mux cascade: for each candidate position p (from
    // MSB down), select the bits just below it.
    let mut exp: Vec<Lit> = vec![Lit::FALSE; int_bits];
    let mut mant: Vec<Lit> = vec![Lit::FALSE; lut_bits];
    let mut found = Lit::FALSE;
    for p in (0..width).rev() {
        // Leading one at position p.
        let here = g.and(!found, x[p]);
        // Exponent value p.
        for (b, e) in exp.iter_mut().enumerate() {
            if p >> b & 1 == 1 {
                *e = g.or(*e, here);
            }
        }
        // Mantissa: bits p-1 .. p-lut_bits (zero-padded).
        let window: Vec<Lit> = (0..lut_bits)
            .map(|k| {
                let idx = p as isize - 1 - k as isize;
                if idx >= 0 {
                    x[idx as usize]
                } else {
                    Lit::FALSE
                }
            })
            .collect();
        // window is MSB-of-fraction first; store LSB-first for the mux.
        let window_lsb: Vec<Lit> = window.iter().rev().copied().collect();
        mant = mux_word(&mut g, here, &window_lsb, &mant);
        found = g.or(found, x[p]);
    }

    // Fraction lookup: t -> round(log2(1 + t / 2^lut_bits) * 2^frac_bits).
    let table: Vec<u64> = (0..1u64 << lut_bits)
        .map(|t| {
            let v = (1.0 + t as f64 / (1u64 << lut_bits) as f64).log2();
            ((v * (1u64 << frac_bits) as f64).round() as u64).min((1 << frac_bits) - 1)
        })
        .collect();
    let frac = lut(&mut g, &mant, &table, frac_bits);

    // Zero input produces zero output.
    let frac_gated: Vec<Lit> = frac.iter().map(|&f| g.and(f, found)).collect();
    output_word(&mut g, &frac_gated, "f");
    output_word(&mut g, &exp, "e");
    g
}

/// Software model of [`log2`]: returns the output value with the
/// fraction in the low `frac_bits` and the exponent above it.
pub fn log2_model(width: usize, lut_bits: usize, frac_bits: usize, x: u128) -> u128 {
    if x == 0 {
        return 0;
    }
    let p = 127 - x.leading_zeros() as usize;
    let mut t = 0u64;
    for k in 0..lut_bits {
        let idx = p as isize - 1 - k as isize;
        if idx >= 0 && x >> idx & 1 == 1 {
            t |= 1 << (lut_bits - 1 - k);
        }
    }
    let v = (1.0 + t as f64 / (1u64 << lut_bits) as f64).log2();
    let frac = ((v * (1u64 << frac_bits) as f64).round() as u128).min((1 << frac_bits) - 1);
    let _ = width;
    frac | (p as u128) << frac_bits
}

/// Fixed-point quarter-wave sine circuit.
///
/// Input: `width`-bit phase `x` in `[0, 1)` turns of a quarter wave.
/// Output: `out_bits` of `round(sin(pi/2 * x / 2^width) * (2^out_bits -
/// 1))`, looked up from the top `lut_bits` phase bits (lower bits are
/// truncated; see [`sin_model`]).
///
/// # Panics
///
/// Panics if `lut_bits > width` or `lut_bits > 10`.
pub fn sin(width: usize, lut_bits: usize, out_bits: usize) -> Aig {
    assert!(lut_bits <= width, "lut_bits must not exceed width");
    assert!(lut_bits <= 10, "lut_bits too large");
    let mut g = Aig::new(format!("sin{width}"), width);
    let x = input_word(&mut g, 0, width, "x");
    let top: Vec<Lit> = x[width - lut_bits..].to_vec();
    let table: Vec<u64> = (0..1u64 << lut_bits)
        .map(|t| {
            let phase = t as f64 / (1u64 << lut_bits) as f64;
            let v = (std::f64::consts::FRAC_PI_2 * phase).sin();
            (v * ((1u64 << out_bits) - 1) as f64).round() as u64
        })
        .collect();
    let y = lut(&mut g, &top, &table, out_bits);
    output_word(&mut g, &y, "y");
    g
}

/// Software model of [`sin`].
pub fn sin_model(width: usize, lut_bits: usize, out_bits: usize, x: u128) -> u128 {
    let t = (x >> (width - lut_bits)) as u64;
    let phase = t as f64 / (1u64 << lut_bits) as f64;
    let v = (std::f64::consts::FRAC_PI_2 * phase).sin();
    (v * ((1u64 << out_bits) - 1) as f64).round() as u128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};

    #[test]
    fn log2_matches_model_exhaustively() {
        let (w, lb, fb) = (8, 4, 4);
        let g = log2(w, lb, fb);
        for x in 0..256u128 {
            let got = decode(&g.eval(&encode(x, w)));
            assert_eq!(got, log2_model(w, lb, fb, x), "x = {x}");
        }
    }

    #[test]
    fn log2_of_powers_of_two_has_zero_fraction() {
        let (w, lb, fb) = (8, 4, 4);
        for k in 0..8u32 {
            let v = log2_model(w, lb, fb, 1 << k);
            assert_eq!(v & 0xF, 0);
            assert_eq!(v >> fb, k as u128);
        }
    }

    #[test]
    fn sin_matches_model_exhaustively() {
        let (w, lb, ob) = (8, 5, 6);
        let g = sin(w, lb, ob);
        for x in 0..256u128 {
            let got = decode(&g.eval(&encode(x, w)));
            assert_eq!(got, sin_model(w, lb, ob, x), "x = {x}");
        }
    }

    #[test]
    fn sin_is_monotone_on_quarter_wave() {
        let (w, lb, ob) = (8, 6, 8);
        let mut prev = 0;
        for x in 0..256u128 {
            let v = sin_model(w, lb, ob, x);
            assert!(v >= prev, "sine table must be non-decreasing");
            prev = v;
        }
    }
}
