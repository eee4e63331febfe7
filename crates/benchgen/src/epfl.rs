//! EPFL-scale arithmetic instances (full-width, tens of thousands of
//! AND nodes).
//!
//! The named suite in [`crate::suite`] substitutes *scaled-down*
//! functional stand-ins for the EPFL arithmetic benchmarks so the paper
//! tables stay tractable. These builders produce the full-size class —
//! 64/128-bit adders, multipliers, dividers, and square roots in the
//! 20k–100k AND range — as inputs for windowed synthesis and the
//! `perfbench` `window-epfl` workload, where a dense round over the
//! whole graph is exactly what is being avoided.
//!
//! Multi-bit ports are LSB-first, as everywhere in this crate; use
//! [`crate::encode`]/[`crate::decode`] for `u128` conversions. Builders
//! are pure functions of the name — no RNG — so repeated builds are
//! identical node for node.

use crate::{adders, divsqrt, multipliers};
use aig::Aig;

/// The full-scale instance names, roughly in ascending size order.
pub const EPFL_FULL: [&str; 9] = [
    "rca64", "cla64", "ksa64", "adder128", "square64", "mult64", "div64", "sqrt128", "mult128",
];

/// One light optimization pass, not the suite's three: these circuits
/// exist to exercise scale, and repeated global rewrite passes over a
/// 100k-node graph would dominate build time without changing what the
/// benchmarks measure.
fn finish(mut g: Aig, name: &str) -> Aig {
    g.optimize(1).expect("generated circuits are acyclic");
    g.set_name(name);
    g
}

/// Builds a full-scale EPFL-class instance by name. Returns `None` for
/// unknown names. Known names are listed in [`EPFL_FULL`].
pub fn by_name(name: &str) -> Option<Aig> {
    let g = match name {
        "rca64" => finish(adders::rca(64), "rca64"),
        "cla64" => finish(adders::cla(64, 4), "cla64"),
        "ksa64" => finish(adders::ksa(64), "ksa64"),
        // The EPFL `adder` is a 128-bit adder.
        "adder128" => finish(adders::rca(128), "adder128"),
        "square64" => finish(divsqrt::square(64), "square64"),
        "mult64" => finish(multipliers::wallace_multiplier(64), "mult64"),
        "div64" => finish(divsqrt::divider(64), "div64"),
        // 128-bit radicand, 64-bit root — the EPFL `sqrt` shape.
        "sqrt128" => finish(divsqrt::sqrt(64), "sqrt128"),
        "mult128" => finish(multipliers::wallace_multiplier(128), "mult128"),
        _ => return None,
    };
    Some(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};
    use prng::rngs::StdRng;
    use prng::{Rng, SeedableRng};

    fn eval2(g: &Aig, x: u128, y: u128, width: usize) -> Vec<bool> {
        let mut ins = encode(x, width);
        ins.extend(encode(y, width));
        g.eval(&ins)
    }

    #[test]
    fn port_shapes_and_size_bands() {
        for (name, pis, pos, min_ands) in [
            ("rca64", 128, 65, 250),
            ("cla64", 128, 65, 250),
            ("ksa64", 128, 65, 250),
            ("adder128", 256, 129, 500),
            ("square64", 64, 128, 10_000),
            ("mult64", 128, 128, 20_000),
            ("div64", 128, 128, 20_000),
            ("sqrt128", 128, 129, 20_000),
        ] {
            let g = by_name(name).unwrap();
            assert_eq!(g.n_pis(), pis, "{name} PI count");
            assert_eq!(g.n_pos(), pos, "{name} PO count");
            assert!(
                g.n_ands() >= min_ands,
                "{name}: {} ANDs below the expected band",
                g.n_ands()
            );
            assert_eq!(g.name(), name);
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn mult128_reaches_epfl_scale() {
        let g = by_name("mult128").unwrap();
        assert_eq!(g.n_pis(), 256);
        assert_eq!(g.n_pos(), 256);
        assert!(
            g.n_ands() >= 50_000,
            "mult128 must be a >=50k-AND instance, got {}",
            g.n_ands()
        );
    }

    #[test]
    fn adders_add() {
        let mut rng = StdRng::seed_from_u64(0xADD);
        for name in ["rca64", "cla64", "ksa64"] {
            let g = by_name(name).unwrap();
            for _ in 0..8 {
                let (x, y) = (rng.gen::<u64>() as u128, rng.gen::<u64>() as u128);
                assert_eq!(decode(&eval2(&g, x, y, 64)), x + y, "{name} {x}+{y}");
            }
        }
        let g = by_name("adder128").unwrap();
        for _ in 0..4 {
            // u64 operands keep the 129-bit sum inside the low 128 bits.
            let (x, y) = (rng.gen::<u64>() as u128, rng.gen::<u64>() as u128);
            let out = eval2(&g, x, y, 128);
            assert_eq!(decode(&out[..128]), x + y);
            assert!(!out[128], "carry-out must be clear for u64 operands");
        }
    }

    #[test]
    fn multipliers_and_squarer_multiply() {
        let mut rng = StdRng::seed_from_u64(0x3417);
        let g = by_name("mult64").unwrap();
        for _ in 0..6 {
            let (x, y) = (rng.gen::<u64>() as u128, rng.gen::<u64>() as u128);
            assert_eq!(decode(&eval2(&g, x, y, 64)), x * y, "mult64 {x}*{y}");
        }
        let g = by_name("square64").unwrap();
        for _ in 0..6 {
            let x = rng.gen::<u64>() as u128;
            assert_eq!(decode(&g.eval(&encode(x, 64))), x * x, "square64 {x}");
        }
        // mult128 checked with operands whose product fits the low half
        // of the 256-bit result.
        let g = by_name("mult128").unwrap();
        for _ in 0..2 {
            let (x, y) = (rng.gen::<u64>() as u128, rng.gen::<u64>() as u128);
            let out = eval2(&g, x, y, 128);
            assert_eq!(decode(&out[..128]), x * y, "mult128 {x}*{y}");
            assert!(out[128..].iter().all(|&b| !b), "high half must be clear");
        }
    }

    #[test]
    fn divider_divides_with_hardware_zero_convention() {
        let g = by_name("div64").unwrap();
        let mut rng = StdRng::seed_from_u64(0xD14);
        for _ in 0..6 {
            let a = rng.gen::<u64>() as u128;
            let d = (rng.gen::<u64>() >> rng.gen_range(0..32u32)).max(1) as u128;
            let out = eval2(&g, a, d, 64);
            assert_eq!(decode(&out[..64]), a / d, "div64 {a}/{d} quotient");
            assert_eq!(decode(&out[64..]), a % d, "div64 {a}%{d} remainder");
        }
        let out = eval2(&g, 12345, 0, 64);
        assert_eq!(decode(&out[..64]), (1u128 << 64) - 1, "q on /0");
        assert_eq!(decode(&out[64..]), 12345, "r on /0");
    }

    #[test]
    fn sqrt_takes_integer_roots() {
        let g = by_name("sqrt128").unwrap();
        let mut rng = StdRng::seed_from_u64(0x5917);
        for _ in 0..5 {
            let a = ((rng.gen::<u64>() as u128) << 32) | rng.gen::<u64>() as u128;
            let out = g.eval(&encode(a, 128));
            let root = decode(&out[..64]);
            assert!(root * root <= a && (root + 1) * (root + 1) > a, "isqrt {a}");
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = by_name("mult64").unwrap();
        let b = by_name("mult64").unwrap();
        assert_eq!(a.n_nodes(), b.n_nodes());
        let mut rng = StdRng::seed_from_u64(0xDE7);
        let (x, y) = (rng.gen::<u64>() as u128, rng.gen::<u64>() as u128);
        assert_eq!(eval2(&a, x, y, 64), eval2(&b, x, y, 64));
    }
}
