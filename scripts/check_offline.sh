#!/bin/bash
# Tier-1 verify with the network ruled out: the workspace must build and
# test from the committed sources alone (in-tree prng/proptest shims, no
# crates-io access). Used standalone and as the preflight of
# run_experiments.sh.
#
# Usage: scripts/check_offline.sh [--quick]
#   --quick   build only (skip the test suite); used where a full test
#             run already happened in the same CI job.
set -eu
cd "$(dirname "$0")/.."

QUICK=0
[ "${1:-}" = "--quick" ] && QUICK=1

echo "== tier-1 (offline): cargo build --release =="
cargo build --release --workspace --offline

# The benchmark is a workspace of its own over the public APIs; build it
# here so that an API change that breaks it fails this check rather than
# the benchmark run.
echo "== benchmark build (offline): perfbench =="
cargo build --release --offline --manifest-path perfbench/Cargo.toml

if [ "$QUICK" -eq 0 ]; then
    echo "== tier-1 (offline): cargo test -q =="
    cargo test -q --workspace --offline
fi

# Lint every crate and every target (tests, examples). Gated on clippy
# being installed so a bare-toolchain checkout still passes tier-1.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== lint (offline): cargo clippy -D warnings =="
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "== lint: cargo clippy not installed, skipping =="
fi

# Formatting of every workspace crate, gated on rustfmt the same way.
# `perfbench/` is a workspace of its own and is not checked here.
if cargo fmt --version >/dev/null 2>&1; then
    echo "== format: cargo fmt --check =="
    cargo fmt --all -- --check
else
    echo "== format: rustfmt not installed, skipping =="
fi

# API docs of every workspace crate, with rustdoc warnings (broken,
# private or ambiguous intra-doc links) as errors, so a renamed or
# deleted item cannot leave a dangling link behind.
echo "== docs (offline): cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Fixed-seed smoke fuzz: a short deterministic soak of the differential
# oracles (mask cache, candidate store, trial eval, BDD exact error, and
# whole flows against the reference flow) — any divergence prints a
# one-line repro and fails the check.
echo "== fuzz smoke (offline): fuzzkit --smoke =="
cargo run --release --offline -p fuzzkit --bin fuzzkit -- --smoke

echo "check_offline: OK"
