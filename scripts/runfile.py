"""Set-up and runs file shared by the ``scripts/bench_*.py`` timing scripts.

Importing this module defaults the BLAS thread variables to 1 and puts the
checkout's ``src/`` and ``perfbench/`` directories first on ``sys.path``. It
loads no numpy: ``bench_footprint`` sizes fresh children by ``ru_maxrss``,
which Linux starts at the peak RSS of their parent.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def blas_threads() -> dict:
    """The BLAS thread variables as this process sees them."""
    return {var: os.environ[var] for var in THREAD_VARS}


def revision() -> str | None:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def open_runs(doc: str, out: str, baseline: bool = True, argv=None):
    """Parse ``--label``, ``--out`` and, with ``baseline``, ``--baseline``; read the runs file.

    Returns (args, runs, base): ``runs`` is the content of ``--out`` ({} when
    it does not exist) and ``base`` the ``cases`` of the ``--baseline`` run,
    None without the flag. A ``--baseline`` the file does not hold is a usage
    error.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    if baseline:
        parser.add_argument("--baseline", help="label of an earlier run to compare against")
    parser.add_argument("--out", type=Path, default=Path(out))
    args = parser.parse_args(argv)
    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    base = None
    if getattr(args, "baseline", None):
        base = runs.get("runs", {}).get(args.baseline, {}).get("cases")
        if base is None:
            parser.error(f"{args.out} has no run {args.baseline!r}")
    return args, runs, base


def save_run(args, runs: dict, script: str, run: dict) -> None:
    """Store ``run`` under ``runs[args.label]``, next to the runs already there, and write ``--out``."""
    runs.setdefault("script", script)
    runs.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(runs, indent=2) + "\n")
