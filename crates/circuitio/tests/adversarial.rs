//! Adversarial-input tests: forged headers whose counts would, taken
//! at face value, pre-allocate gigabytes before a single payload line
//! is read. Every such input must come back as a [`ParseError`], not a
//! panic or an out-of-memory abort.

use circuitio::aiger;

#[test]
fn ascii_huge_m_is_rejected_not_allocated() {
    // M alone sizes the variable map; I and A stay tiny so the old
    // `m >= i + a` consistency check would happily pass.
    let text = "aag 99999999999999 1 0 1 1\n2\n4\n4 2 3\n";
    let err = aiger::read_ascii(text).unwrap_err();
    assert!(err.to_string().contains("exceeds"), "got: {err}");
}

#[test]
fn ascii_huge_inputs_are_rejected() {
    let text = "aag 99999999999999 99999999999998 0 1 1\n";
    assert!(aiger::read_ascii(text).is_err());
}

#[test]
fn ascii_huge_output_count_is_rejected() {
    let text = "aag 4 2 0 99999999999999 2\n";
    let err = aiger::read_ascii(text).unwrap_err();
    assert!(err.to_string().contains("exceeds"), "got: {err}");
}

#[test]
fn binary_huge_header_is_rejected_not_allocated() {
    for header in [
        "aig 99999999999999 99999999999998 0 1 1\n",
        "aig 99999999999999 1 0 1 99999999999998\n",
        "aig 4 2 0 99999999999999 2\n",
    ] {
        let err = aiger::read_binary(header.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("exceeds"),
            "header {header:?}: {err}"
        );
    }
}

#[test]
fn counts_past_usize_are_a_parse_error() {
    // Larger than u64: the number itself must fail to parse cleanly.
    let text = "aag 999999999999999999999999999999 1 0 0 0\n";
    assert!(aiger::read_ascii(text).is_err());
    assert!(aiger::read_binary(text.replace("aag", "aig").as_bytes()).is_err());
}

#[test]
fn reasonable_headers_still_parse() {
    // The cap must not bite legitimate circuits.
    let text = "aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n";
    let g = aiger::read_ascii(text).unwrap();
    assert_eq!(g.n_pis(), 2);
    assert_eq!(g.n_ands(), 1);
}
