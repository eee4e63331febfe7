//! Hamming single-error-correcting codec generators — a functional
//! stand-in for the ISCAS `c1908` benchmark (a 16-bit error-detecting /
//! correcting circuit).

use crate::primitives::{input_word, minterms, output_word};
use aig::{Aig, Lit};

/// Number of parity bits needed for `data_bits` of payload.
fn n_parity(data_bits: usize) -> usize {
    let mut p = 0;
    while (1usize << p) < data_bits + p + 1 {
        p += 1;
    }
    p
}

/// Positions (1-based) of data bits inside the codeword: every position
/// that is not a power of two.
fn data_positions(data_bits: usize) -> Vec<usize> {
    let total = data_bits + n_parity(data_bits);
    (1..=total)
        .filter(|p| !p.is_power_of_two())
        .take(data_bits)
        .collect()
}

/// Hamming encoder: `data_bits` inputs, `data_bits + n_parity` codeword
/// outputs (codeword position order, LSB-first positions).
pub fn hamming_encoder(data_bits: usize) -> Aig {
    assert!(data_bits > 0, "data_bits must be positive");
    let p = n_parity(data_bits);
    let total = data_bits + p;
    let mut g = Aig::new(format!("henc{data_bits}"), data_bits);
    let d = input_word(&mut g, 0, data_bits, "d");
    // Place data bits.
    let dpos = data_positions(data_bits);
    let mut word: Vec<Option<Lit>> = vec![None; total + 1]; // 1-based
    for (i, &pos) in dpos.iter().enumerate() {
        word[pos] = Some(d[i]);
    }
    // Parity bit at position 2^k covers positions with that bit set.
    for k in 0..p {
        let mask = 1usize << k;
        let covered: Vec<Lit> = (1..=total)
            .filter(|&pos| pos & mask != 0 && !pos.is_power_of_two())
            .filter_map(|pos| word[pos])
            .collect();
        word[mask] = Some(g.xor_many(&covered));
    }
    let codeword: Vec<Lit> = (1..=total).map(|pos| word[pos].expect("filled")).collect();
    output_word(&mut g, &codeword, "c");
    g
}

/// Hamming decoder with single-error correction: `data_bits + n_parity`
/// codeword inputs, outputs the corrected data bits followed by an
/// `error` flag (syndrome non-zero).
pub fn hamming_decoder(data_bits: usize) -> Aig {
    assert!(data_bits > 0, "data_bits must be positive");
    let p = n_parity(data_bits);
    let total = data_bits + p;
    let mut g = Aig::new(format!("hdec{data_bits}"), total);
    let c = input_word(&mut g, 0, total, "c");
    // Syndrome bit k: parity over all positions with bit k set.
    let syndrome: Vec<Lit> = (0..p)
        .map(|k| {
            let mask = 1usize << k;
            let covered: Vec<Lit> = (1..=total)
                .filter(|&pos| pos & mask != 0)
                .map(|pos| c[pos - 1])
                .collect();
            g.xor_many(&covered)
        })
        .collect();
    // Decode the syndrome to a one-hot error position.
    let sel = minterms(&mut g, &syndrome);
    let dpos = data_positions(data_bits);
    let mut data = Vec::with_capacity(data_bits);
    for &pos in &dpos {
        // Flip the bit if the syndrome points at it.
        let flip = if pos < sel.len() {
            sel[pos]
        } else {
            Lit::FALSE
        };
        data.push(g.xor(c[pos - 1], flip));
    }
    output_word(&mut g, &data, "d");
    let any_err = g.or_many(&syndrome);
    g.add_output(any_err, "err");
    g
}

/// Hamming encode-corrupt-decode chain, the `c1908`-style stand-in:
/// inputs are `data_bits` payload bits followed by an error-mask bit per
/// codeword position; the circuit encodes the payload, XORs the error
/// mask onto the codeword, and decodes with single-error correction.
/// Outputs: corrected data followed by the `err` flag.
pub fn hamming_codec(data_bits: usize) -> Aig {
    assert!(data_bits > 0, "data_bits must be positive");
    let p = n_parity(data_bits);
    let total = data_bits + p;
    let mut g = Aig::new(format!("hcodec{data_bits}"), data_bits + total);
    let d = input_word(&mut g, 0, data_bits, "d");
    let e = input_word(&mut g, data_bits, total, "e");
    // Encode (same construction as `hamming_encoder`).
    let dpos = data_positions(data_bits);
    let mut word: Vec<Option<Lit>> = vec![None; total + 1];
    for (i, &pos) in dpos.iter().enumerate() {
        word[pos] = Some(d[i]);
    }
    for k in 0..p {
        let mask = 1usize << k;
        let covered: Vec<Lit> = (1..=total)
            .filter(|&pos| pos & mask != 0 && !pos.is_power_of_two())
            .filter_map(|pos| word[pos])
            .collect();
        word[mask] = Some(g.xor_many(&covered));
    }
    // Corrupt.
    let c: Vec<Lit> = (1..=total)
        .map(|pos| {
            let w = word[pos].expect("filled");
            g.xor(w, e[pos - 1])
        })
        .collect();
    // Decode (same construction as `hamming_decoder`).
    let syndrome: Vec<Lit> = (0..p)
        .map(|k| {
            let mask = 1usize << k;
            let covered: Vec<Lit> = (1..=total)
                .filter(|&pos| pos & mask != 0)
                .map(|pos| c[pos - 1])
                .collect();
            g.xor_many(&covered)
        })
        .collect();
    let sel = minterms(&mut g, &syndrome);
    let mut data = Vec::with_capacity(data_bits);
    for &pos in &dpos {
        let flip = if pos < sel.len() {
            sel[pos]
        } else {
            Lit::FALSE
        };
        data.push(g.xor(c[pos - 1], flip));
    }
    output_word(&mut g, &data, "d");
    let any_err = g.or_many(&syndrome);
    g.add_output(any_err, "err");
    g
}

/// Software Hamming encoder, for tests: returns the codeword as a bit
/// vector in position order.
pub fn encode_model(data_bits: usize, data: u128) -> Vec<bool> {
    let p = n_parity(data_bits);
    let total = data_bits + p;
    let dpos = data_positions(data_bits);
    let mut word = vec![false; total + 1];
    for (i, &pos) in dpos.iter().enumerate() {
        word[pos] = data >> i & 1 == 1;
    }
    for k in 0..p {
        let mask = 1usize << k;
        let parity = (1..=total)
            .filter(|&pos| pos & mask != 0 && !pos.is_power_of_two())
            .filter(|&pos| word[pos])
            .count()
            % 2
            == 1;
        word[mask] = parity;
    }
    word[1..].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decode, encode};

    #[test]
    fn parity_counts() {
        assert_eq!(n_parity(4), 3); // Hamming(7,4)
        assert_eq!(n_parity(11), 4); // Hamming(15,11)
        assert_eq!(n_parity(16), 5); // Hamming(21,16)
    }

    #[test]
    fn encoder_matches_model() {
        let g = hamming_encoder(8);
        for d in [0u128, 1, 0x5A, 0xFF, 0x93] {
            let out = g.eval(&encode(d, 8));
            assert_eq!(out, encode_model(8, d), "data {d:#x}");
        }
    }

    #[test]
    fn decoder_recovers_clean_codewords() {
        let dec = hamming_decoder(8);
        for d in [0u128, 7, 0xA5, 0xFF] {
            let cw = encode_model(8, d);
            let out = dec.eval(&cw);
            assert_eq!(decode(&out[..8]), d);
            assert!(!out[8], "no error flag for clean word");
        }
    }

    #[test]
    fn decoder_corrects_any_single_bit_flip() {
        let dec = hamming_decoder(8);
        let d = 0xC3u128;
        let cw = encode_model(8, d);
        for flip in 0..cw.len() {
            let mut corrupted = cw.clone();
            corrupted[flip] = !corrupted[flip];
            let out = dec.eval(&corrupted);
            assert_eq!(decode(&out[..8]), d, "flip at {flip}");
            assert!(out[8], "error flagged for flip at {flip}");
        }
    }

    #[test]
    fn codec_16_round_trip() {
        let enc = hamming_encoder(16);
        let dec = hamming_decoder(16);
        for d in [0u128, 0xBEEF, 0x1234, 0xFFFF] {
            let cw = enc.eval(&encode(d, 16));
            let out = dec.eval(&cw);
            assert_eq!(decode(&out[..16]), d);
        }
    }
}
