//! Command-line tests: `accals-cli synth` driven as a subprocess, so
//! argument validation is checked where a user meets it — exit status
//! and message, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_accals-cli"))
        .args(args)
        .output()
        .expect("accals-cli starts")
}

/// Writes the `rca32` suite circuit to a test-private AIGER file.
fn rca32(tag: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{tag}_rca32.aag"));
    let out = cli(&[
        "gen",
        "--circuit",
        "rca32",
        "--output",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "gen failed: {out:?}");
    path
}

/// Writes an ASCII AIGER circuit to a test-private file.
fn aag(tag: &str, text: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("cli_{tag}.aag"));
    std::fs::write(&path, text).expect("test file written");
    path
}

/// 131 inputs and 130 outputs `y_i = x_i & x_(i+1)`: wider than the
/// 128-bit integer the arithmetic metrics read the outputs as.
fn wide_130() -> PathBuf {
    let mut text = String::from("aag 261 131 0 130 130\n");
    for v in 1..=131 {
        text += &format!("{}\n", 2 * v);
    }
    for i in 0..130 {
        text += &format!("{}\n", 2 * (132 + i));
    }
    for i in 0..130 {
        text += &format!("{} {} {}\n", 2 * (132 + i), 2 * (i + 2), 2 * (i + 1));
    }
    aag("wide130", &text)
}

/// Asserts that `synth` failed with an error message (not a panic)
/// containing `needle`.
fn assert_rejected(out: &Output, needle: &str, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} was accepted");
    assert_ne!(out.status.code(), Some(101), "{what} panicked: {stderr}");
    assert!(
        stderr.contains(needle),
        "{what}: message does not say `{needle}`: {stderr}"
    );
}

#[test]
fn synth_rejects_a_circuit_without_outputs() {
    let input = aag("no_outputs", "aag 2 2 0 0 0\n2\n4\n");
    for flow in ["accals", "seals"] {
        let out = cli(&[
            "synth",
            "--input",
            input.to_str().unwrap(),
            "--metric",
            "er",
            "--bound",
            "0.05",
            "--flow",
            flow,
        ]);
        assert_rejected(
            &out,
            "no outputs",
            &format!("--flow {flow} without outputs"),
        );
    }
}

#[test]
fn synth_rejects_arithmetic_metrics_beyond_128_outputs() {
    let input = wide_130();
    for metric in ["med", "nmed", "mred", "mse", "wce"] {
        let out = cli(&[
            "synth",
            "--input",
            input.to_str().unwrap(),
            "--metric",
            metric,
            "--bound",
            "0.05",
        ]);
        assert_rejected(
            &out,
            "130 outputs",
            &format!("--metric {metric} at 130 outputs"),
        );
    }
    // ER counts differing output vectors and has no width limit.
    let out = cli(&[
        "synth",
        "--input",
        input.to_str().unwrap(),
        "--metric",
        "er",
        "--bound",
        "0.05",
    ]);
    assert!(
        out.status.success(),
        "ER at 130 outputs failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn synth_rejects_a_bound_that_is_not_finite_and_positive() {
    let input = rca32("reject");
    for bound in ["0", "-0.5", "nan"] {
        let out = cli(&[
            "synth",
            "--input",
            input.to_str().unwrap(),
            "--metric",
            "er",
            "--bound",
            bound,
        ]);
        assert_rejected(&out, "--bound", &format!("--bound {bound}"));
    }
}

#[test]
fn synth_accepts_a_positive_bound() {
    let input = rca32("accept");
    let output = input.with_file_name("cli_accept_rca32_approx.aag");
    let out = cli(&[
        "synth",
        "--input",
        input.to_str().unwrap(),
        "--metric",
        "er",
        "--bound",
        "0.05",
        "--output",
        output.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "synth failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(output.exists(), "no approximate circuit written");
}
