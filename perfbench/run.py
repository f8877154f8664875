"""Benchmark entry point: runs one workload in a fresh process with one BLAS thread.

    python3 perfbench/run.py --workload l1ls-desk --seed 7 --seconds 20 --trace 0

Run from the root of a checkout. The measuring process imports ``iapd``
from the checkout's ``src/`` and prints the result object as the last
line of standard output; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def main() -> int:
    parser = argparse.ArgumentParser(description="iapd benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "iapd" / "__init__.py").is_file():
        print(f"error: no iapd sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    env = dict(os.environ, **PINNED, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"error: measurement exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(out)
        print(f"error: measurement exited with code {proc.returncode}", file=sys.stderr)
        return 1

    lines = out.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(out)
        print("error: measurement printed no result object", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
