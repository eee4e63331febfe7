#!/usr/bin/env python3
"""Measures the memory behaviour of one benchmark run.

Runs a built `perfbench` binary's `gen`, then its `run`, and prints the
minor page faults and the user and system CPU seconds of the `run`
process alone (input generation is excluded), plus the run's metrics.

    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    python3 scripts/rusage.py --exe perfbench/target/release/perfbench \
        --workload window-epfl --seed 1 --seconds 40

The last line of standard output is one JSON object:
`{"workload", "seed", "minflt", "majflt", "user_s", "sys_s", "maxrss_mb",
"failed", "passes", "metrics"}`, where `passes` counts the run's passes
over the workload (divide by it for per-pass figures) and `metrics` maps
each metric of the run's result line (`wall_s`, `setup_s`, ...) to its
value.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--exe", required=True, type=Path, help="built perfbench binary")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default=0, type=int, choices=(0, 1))
    ap.add_argument("--out", type=Path, help="report directory (default: a temporary one)")
    args = ap.parse_args()

    exe = args.exe.resolve()
    if not exe.is_file():
        sys.exit(f"rusage: no binary at {exe}")
    # Pool widths are chosen by the benchmark, never inherited.
    env = {k: v for k, v in os.environ.items() if k not in ("ACCALS_THREADS", "ACCALS_SWEEP_THREADS")}
    tmp = None
    if args.out is None:
        tmp = tempfile.mkdtemp(prefix="rusage-")
        out = Path(tmp)
    else:
        out = args.out
        out.mkdir(parents=True, exist_ok=True)
    inputs = out / "inputs"
    try:
        subprocess.run([exe, "gen", "--workload", args.workload, "--out", inputs],
                       env=env, stdout=sys.stderr, check=True)
        proc = subprocess.Popen(
            [exe, "run", "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", inputs, "--out", out],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        stdout = proc.stdout.read()
        proc.stdout.close()
        # wait4 reports the resource usage of this one child only.
        _, status, ru = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        else:
            shutil.rmtree(inputs, ignore_errors=True)
    if proc.returncode != 0:
        sys.exit(f"rusage: `perfbench run` exited with code {proc.returncode}")
    lines = stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    metrics = {k: v.get("value") for k, v in result.get("metrics", {}).items()}
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "minflt": ru.ru_minflt,
        "majflt": ru.ru_majflt,
        "user_s": round(ru.ru_utime, 2),
        "sys_s": round(ru.ru_stime, 2),
        "maxrss_mb": round(ru.ru_maxrss / 1024, 1),
        "failed": result.get("failed"),
        "passes": len(result.get("detail", {}).get("passes", [])),
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
