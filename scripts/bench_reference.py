"""Time ``compute_reference`` on the three perfbench workload shapes at two seeds each.

    python scripts/bench_reference.py --label NAME [--baseline LABEL] [--out BENCH_reference.json]

Run from anywhere; ``iapd`` is imported from the ``src/`` directory of the
checkout that holds this script. BLAS runs on one thread unless the thread
variables are already set. Each case is a perfbench shape with the preset
steps and the sweep's reference effort (20 000 on the desk shapes, 400 on
l1ls-large). For each case the run records the iapd iterations behind the
reference, the median and interquartile range of ``compute_reference``
over repeated calls, whether the reference is certified, its accuracy and
objective, and SHA-256 digests of x* and y*. With ``--baseline``, each case
also gets the objective's move against that earlier run of the file and
whether x* and y* are bit for bit the same. The result is stored under
``runs[NAME]`` of the output file, next to the runs already there, with an
environment block. A checkout whose ``ReferencePoint`` has no
``certified`` or ``iterations`` field is recorded as uncertified, after
the full effort.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

from bench_norm import revision  # noqa: E402
from envinfo import environment  # noqa: E402
from iapd import bench  # noqa: E402
from iapd.problem import compute_reference  # noqa: E402

# name: (family, instance generator of a seed, seeds, reference effort, timed calls)
CASES = {
    "l1ls-desk": ("l1ls", lambda s: bench.generate_l1ls(200, 400, 0.1, s), (101, 7), 20000, 7),
    "nnls-sparse": ("nnls", lambda s: bench.generate_nnls(400, 200, 0.1, s), (101, 11), 20000, 7),
    "l1ls-large": ("l1ls", lambda s: bench.generate_l1ls(1000, 2000, 0.1, s), (101, 7), 400, 5),
}


def digest(array) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


def measure(family: str, inst, effort: int, repeats: int) -> dict:
    problem = inst.problem
    params = bench.preset_params(family, problem.K.norm())
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ref = compute_reference(problem, effort, params=params, objective=inst.objective)
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {
        "shape": list(problem.K.shape),
        "effort": effort,
        "iterations": getattr(ref, "iterations", effort),
        "reference_calls": repeats,
        "reference_s_median": median,
        "reference_s_iqr": q3 - q1,
        "certified": getattr(ref, "certified", False),
        "accuracy": ref.accuracy,
        "objective": ref.objective_value,
        "x_star_sha256": digest(ref.x_star),
        "y_star_sha256": digest(ref.y_star),
    }


def against(row: dict, base: dict) -> dict:
    return {
        "objective_move": row["objective"] - base["objective"],
        "same_x_star_y_star": (row["x_star_sha256"], row["y_star_sha256"])
        == (base["x_star_sha256"], base["y_star_sha256"]),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--baseline", help="label of an earlier run to compare against")
    parser.add_argument("--out", type=Path, default=Path("BENCH_reference.json"))
    args = parser.parse_args()

    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    base = doc.get("runs", {}).get(args.baseline, {}).get("cases") if args.baseline else None
    if args.baseline and base is None:
        parser.error(f"{args.out} has no run {args.baseline!r}")

    cases = {}
    for name, (family, generate, seeds, effort, repeats) in CASES.items():
        for seed in seeds:
            key = f"{name}/seed{seed}"
            cases[key] = measure(family, generate(seed), effort, repeats)
            if base is not None:
                cases[key].update(against(cases[key], base[key]))
            row = cases[key]
            print(f"{key}: {row['iterations']} iterations, "
                  f"{row['reference_s_median']:.3f} s (IQR {row['reference_s_iqr']:.3f} s), "
                  f"{'certified' if row['certified'] else 'uncertified'} "
                  f"accuracy {row['accuracy']:.2e}")

    run = {
        "revision": revision(),
        "baseline": args.baseline,
        "environment": environment({var: os.environ[var] for var in THREAD_VARS}),
        "cases": cases,
    }
    doc.setdefault("script", "scripts/bench_reference.py")
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
