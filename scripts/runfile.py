"""Set-up and run record shared by the ``scripts/bench_*.py`` timing scripts.

Importing this module defaults the BLAS thread variables to 1 and puts the
checkout's ``src/`` directory first on ``sys.path``. It loads no numpy:
``bench_footprint`` sizes fresh children by ``ru_maxrss``, which Linux starts
at the peak RSS of their parent.

Every run is stored under ``runs[NAME]`` of its output file with its git
``revision``, a ``source_sha256`` of the code it ran, its ``baseline`` label,
the ``environment``, the script's own fields and its ``cases``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
ENVINFO = ROOT / "perfbench" / "envinfo.py"
sys.path.insert(0, str(ROOT / "src"))


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


def source_sha256(script: str) -> str:
    """SHA-256 over every ``src/**/*.py``, ``script`` and this module: path and bytes, sorted.

    Two uncommitted trees that both read ``<rev>-dirty`` differ here.
    """
    import hashlib  # here, not at the top: it loads OpenSSL, about 4 MB of peak RSS

    paths = {*(ROOT / "src").rglob("*.py"), ROOT / script, ROOT / "scripts" / "runfile.py"}
    sha = hashlib.sha256()
    for path in sorted(paths):
        data = path.read_bytes()
        sha.update(f"{path.relative_to(ROOT).as_posix()}\0{len(data)}\0".encode())
        sha.update(data)
    return sha.hexdigest()


def spread(name: str, samples) -> dict:
    """``<name>_median`` and ``<name>_iqr`` (interquartile range) of ``samples``."""
    q1, median, q3 = statistics.quantiles(samples, n=4)
    return {f"{name}_median": median, f"{name}_iqr": q3 - q1}


def open_runs(doc: str, out: str, argv=None):
    """Parse ``--label``, ``--baseline`` and ``--out``; read the runs file.

    Returns (args, runs, base): ``runs`` is the content of ``--out`` ({} when
    it does not exist) and ``base`` the ``cases`` of the ``--baseline`` run,
    None without the flag. A ``--baseline`` the file does not hold, or holds
    without ``cases``, is a usage error.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--baseline", help="label of an earlier run to compare against")
    parser.add_argument("--out", type=Path, default=Path(out))
    args = parser.parse_args(argv)
    runs = json.loads(args.out.read_text()) if args.out.exists() else {}
    base = None
    if args.baseline:
        run = runs.get("runs", {}).get(args.baseline)
        if run is None:
            parser.error(f"{args.out} has no run {args.baseline!r}")
        base = run.get("cases")
        if base is None:
            parser.error(f"{args.out} run {args.baseline!r} has no 'cases' key "
                         f"(its keys: {', '.join(run)})")
    return args, runs, base


def save_run(args, runs: dict, script: str, cases: dict, **fields) -> None:
    """Record a run of ``script`` under ``runs[args.label]``, next to the others; write ``--out``.

    ``script`` is the path from the checkout's root and ``fields`` are the
    script's own settings. Against ``--baseline``, each ``*_median`` key of a
    case that the baseline's case also has gets a ``<key>_ratio``.
    """
    # Loaded only now, and from its file rather than from sys.path: it loads
    # numpy, and Linux starts the ru_maxrss of a spawned child at the peak RSS
    # of the process that spawned it.
    spec = importlib.util.spec_from_file_location("envinfo", ENVINFO)
    envinfo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(envinfo)

    if args.baseline:
        base = runs["runs"][args.baseline]["cases"]
        for name, row in cases.items():
            old = base.get(name, {})
            for key in [k for k in row if k.endswith("_median") and k in old]:
                row[f"{key}_ratio"] = row[key] / old[key]
    runs.setdefault("script", script)
    runs.setdefault("runs", {})[args.label] = {
        "revision": revision(),
        "source_sha256": source_sha256(script),
        "baseline": args.baseline,
        "environment": envinfo.environment(blas_threads()),
        **fields,
        "cases": cases,
    }
    args.out.write_text(json.dumps(runs, indent=2) + "\n")
