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
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "--bound {bound} was accepted");
        assert_ne!(
            out.status.code(),
            Some(101),
            "--bound {bound} panicked: {stderr}"
        );
        assert!(
            stderr.contains("--bound"),
            "--bound {bound}: message does not name the option: {stderr}"
        );
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
