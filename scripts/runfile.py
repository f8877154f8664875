"""Set-up, perfbench cases and run record shared by the ``scripts/bench_*.py`` timing scripts.

Importing this module defaults the BLAS thread variables to 1 and puts the
checkout's ``src/`` directory first on ``sys.path``. It loads no numpy:
``bench_footprint`` sizes fresh children by ``ru_maxrss``, which Linux starts
at the peak RSS of their parent.

``CASES`` holds perfbench's three workloads; ``instance`` builds one,
``reference`` solves its reference and ``CountedMap`` counts its products.
``run`` is a timer's whole ``main``, ``timed`` times a sequence of calls and
``sha256`` digests arrays.

Every run is stored under ``runs[NAME]`` of its output file with its git
``revision``, a ``source_sha256`` of the code it ran, its ``baseline`` label,
the ``environment``, the script's own fields and its ``cases``.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import time
from collections import namedtuple
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
ENVINFO = ROOT / "perfbench" / "envinfo.py"
sys.path.insert(0, str(ROOT / "src"))


# A workload of perfbench/measure.py: its family (a key of ``bench._FAMILIES``), shape, sweep
# reference effort, time-to-accuracy tolerance (times max(1, |f*|)) and iteration cap.
Case = namedtuple("Case", "family m n effort tol cap")
# tests/test_runfile.py pins these to perfbench's WORKLOADS.
CASES = {
    "l1ls-desk": Case("l1ls", 200, 400, 20000, 1e-4, 2000),
    "nnls-sparse": Case("nnls", 400, 200, 20000, 1e-6, 2000),
    "l1ls-large": Case("l1ls", 1000, 2000, 400, 1e-3, 1000),
}


def instance(case: str, seed: int = 101):
    """The instance of ``case`` at ``seed``, generated as ``iapd bench`` generates it."""
    from iapd import bench

    family, m, n = CASES[case][:3]
    # generate reads the shape, the seed and the default lam and density; iters is unused
    return bench._FAMILIES[family].generate(bench.ExperimentConfig(family, m, n, seed, iters=1))


def reference(case: str, inst, effort: int | None = None):
    """The reference of ``inst`` on its family's reference row, at ``effort`` or the case's."""
    from iapd import bench
    from iapd.problem import compute_reference

    params = bench.reference_params(CASES[case].family, inst.problem.K.norm())
    return compute_reference(inst.problem, effort or CASES[case].effort, params, inst.objective)


class CountedMap:
    """A stand-in for a ``LinearMap`` that counts its products with K and with K^T."""

    def __init__(self, K):
        self.K, self.apply_calls, self.adjoint_calls = K, 0, 0

    def apply(self, x):
        self.apply_calls += 1
        return self.K.apply(x)

    def apply_adjoint(self, y):
        self.adjoint_calls += 1
        return self.K.apply_adjoint(y)

    def norm(self) -> float:
        """``LinearMap.norm`` through the counted products; K's cached norm, if it has one."""
        from iapd.linalg import LinearMap

        return LinearMap.norm(self)

    def __getattr__(self, name):
        return getattr(self.K, name)


def blas_threads() -> dict:
    """The BLAS thread variables as this process sees them."""
    return {var: os.environ[var] for var in THREAD_VARS}


def sha256(*arrays) -> str:
    """SHA-256 of the bytes of ``arrays``, one after another."""
    import hashlib  # here, not at the top: it loads OpenSSL, about 4 MB of peak RSS

    return hashlib.sha256(b"".join(array.tobytes() for array in arrays)).hexdigest()


def timed(calls, collect: bool = False):
    """Time each zero-argument call of ``calls``: (wall samples, CPU samples, last result).

    A call is pulled from ``calls``, and with ``collect`` ``gc.collect()`` run,
    before the clocks start. CPU time is the process's.
    """
    walls, cpus, result = [], [], None
    for call in calls:
        if collect:
            gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        result = call()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu_start)
    return walls, cpus, result


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
    import hashlib  # see sha256

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


def _figure(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def run(doc: str, out: str, script: str, cases, against=None, show=(), **fields) -> int:
    """A timer's ``main``: parse the flags (``open_runs``), measure and save ``cases``; 0.

    ``cases`` yields (name, measure) pairs, measured in that order. A case the
    ``--baseline`` run also holds gets the keys of ``against(row, base_row)``.
    Each case prints a line of its ``<m>_median`` (IQR ``<m>_iqr``) spreads and
    the ``show`` keys its row holds. ``save_run`` stores the rows with ``fields``.
    """
    args, runs, base = open_runs(doc, out)
    rows = {}
    for name, measure in cases:
        rows[name] = row = measure()
        if against and base and name in base:
            row.update(against(row, base[name]))
        spreads = [key.removesuffix("_median") for key in row if key.endswith("_median")]
        shown = [f"{m} {row[m + '_median']:.4g} (IQR {row[m + '_iqr']:.2g})" for m in spreads]
        shown += [f"{key} {_figure(row[key])}" for key in show if key in row]
        print(f"{name}:", ", ".join(shown))
    save_run(args, runs, script, rows, **fields)
    return 0
