#!/usr/bin/env python3
"""Builds and runs the repository's benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-arith --seed 1 --seconds 40 --trace 0

It builds `perfbench` in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), writes the workload's input circuits with
`perfbench gen`, measures them in a separate `perfbench run` process,
and prints one JSON object as the last line of standard output:
`{"correct", "attempted", "failed", "metrics"}`. Host facts and the
full report go to `<target>/perfbench/<workload>-seed<n>-trace<t>/`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("flow-arith", "sweep-grid", "window-epfl")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def output(cmd, cwd):
    try:
        return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def revision(root):
    """The git revision, or a digest of the sources where there is no git."""
    if (root / ".git").exists():
        rev = output(["git", "rev-parse", "HEAD"], root)
        if rev:
            return rev
    h = hashlib.sha256()
    files = [root / "Cargo.toml", root / "Cargo.lock"]
    for top in ("crates", "src", "perfbench"):
        files += sorted(p for p in (root / top).rglob("*") if p.is_file() and "target" not in p.parts)
    for p in files:
        if p.is_file():
            h.update(str(p.relative_to(root)).encode())
            h.update(p.read_bytes())
    return "source-sha256:" + h.hexdigest()[:16]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def steal_seconds():
    """CPU time the hypervisor took from this host's cores so far."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return float("nan")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    bench = Path(__file__).resolve().parent
    root = bench.parent
    if not (root / "Cargo.toml").is_file() or not (root / "crates" / "accals").is_dir():
        die(f"{root} holds no repository sources to build (run from the root of a checkout)")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    # Pool widths are chosen by the benchmark, never inherited.
    for var in ("ACCALS_THREADS", "ACCALS_SWEEP_THREADS"):
        env.pop(var, None)
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", str(bench / "Cargo.toml")]
    try:
        build = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")
    if build.returncode != 0:
        die("build failed")
    exe = target / "release" / "perfbench"

    work = target / "perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    loadavg = Path("/proc/loadavg").read_text().split()[:3] if Path("/proc/loadavg").exists() else []
    started = time.monotonic()
    steal0 = steal_seconds()
    try:
        gen = subprocess.run(
            [exe, "gen", "--workload", args.workload, "--out", inputs],
            env=env, stdout=sys.stderr, timeout=RUN_TIMEOUT_S,
        )
        if gen.returncode != 0:
            die("input generation failed")
        run = subprocess.run(
            [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", inputs, "--out", work],
            env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, RUN_TIMEOUT_S - (time.monotonic() - started)),
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"measurement failed: {e}")
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        die(f"measurement exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        die(f"unreadable result line: {e}")

    detail = result.pop("detail")
    host = detail["host"]
    host.update(
        cpu_model=cpu_model(),
        rustc=output(["rustc", "--version"], root),
        revision=revision(root),
        loadavg_at_start=loadavg,
        steal_s_during_run=round(steal_seconds() - steal0, 2),
    )
    if host["oversubscribed"]:
        print("perfbench: WARNING pools use more threads than the host's visible cores", file=sys.stderr)
    report = dict(result, **detail)
    (work / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in lines[:-1]:
        print(line)
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
