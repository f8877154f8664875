"""Time ``LinearMap.norm()`` on the three perfbench workload shapes at seed 101.

    python scripts/bench_norm.py --label NAME [--out BENCH_norm.json]

Run from anywhere; ``iapd`` is imported from the ``src/`` directory of the
checkout that holds this script. BLAS runs on one thread unless the thread
variables are already set. For each shape the run records the products
one ``norm()`` makes (its ``apply`` and ``apply_adjoint`` calls; one of each
is one product with K^T K or K K^T), the median and interquartile range of
``norm()`` over fresh maps, and the relative error of ``norm() /
NORM_SAFETY`` against the largest singular value from ``np.linalg.svd``.
The result is stored under ``runs[NAME]`` of the output file, next to the
runs already there, with an environment block.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")  # before numpy loads BLAS

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from envinfo import environment  # noqa: E402
from iapd import bench  # noqa: E402
from iapd.linalg import NORM_SAFETY, LinearMap  # noqa: E402

SEED = 101
# name: (instance generator, timed norm() calls)
SHAPES = {
    "l1ls-desk": (lambda: bench.generate_l1ls(200, 400, 0.1, SEED), 21),
    "nnls-sparse": (lambda: bench.generate_nnls(400, 200, 0.1, SEED), 21),
    "l1ls-large": (lambda: bench.generate_l1ls(1000, 2000, 0.1, SEED), 7),
}


def calls_in_norm(K: LinearMap) -> dict:
    """``apply`` and ``apply_adjoint`` calls in one ``norm()`` of a fresh map."""
    calls = {"apply_calls": 0, "adjoint_calls": 0}
    for name, key in (("apply", "apply_calls"), ("apply_adjoint", "adjoint_calls")):
        method = getattr(K, name)

        def counted(v, method=method, key=key):
            calls[key] += 1
            return method(v)

        setattr(K, name, counted)
    K.norm()
    return calls


def measure(generate, repeats: int) -> dict:
    K = generate().problem.K
    dense = K.to_dense()

    def fresh() -> LinearMap:
        return LinearMap(sp.csr_array(dense) if K.is_sparse else dense)

    times = []
    for _ in range(repeats):
        mapping = fresh()
        gc.collect()
        start = time.perf_counter()
        estimate = mapping.norm()
        times.append(time.perf_counter() - start)
    q1, median, q3 = statistics.quantiles(times, n=4)
    sigma = float(np.linalg.svd(dense, compute_uv=False)[0])
    return {
        "shape": list(K.shape),
        "sparse": K.is_sparse,
        **calls_in_norm(fresh()),
        "norm_calls": repeats,
        "norm_s_median": median,
        "norm_s_iqr": q3 - q1,
        "estimate": estimate,
        "sigma_svd": sigma,
        "rel_error_vs_svd": (estimate / NORM_SAFETY - sigma) / sigma,
    }


def revision() -> str | None:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             capture_output=True, text=True, check=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key of this run in the output file")
    parser.add_argument("--out", type=Path, default=Path("BENCH_norm.json"))
    args = parser.parse_args()

    run = {
        "revision": revision(),
        "seed": SEED,
        "environment": environment({var: os.environ[var] for var in THREAD_VARS}),
        "workloads": {name: measure(gen, repeats) for name, (gen, repeats) in SHAPES.items()},
    }
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc.setdefault("script", "scripts/bench_norm.py")
    doc.setdefault("runs", {})[args.label] = run
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    for name, row in run["workloads"].items():
        print(f"{name}: {row['apply_calls']} Gram products, "
              f"norm {row['norm_s_median'] * 1e3:.2f} ms (IQR {row['norm_s_iqr'] * 1e3:.2f} ms), "
              f"rel. error {row['rel_error_vs_svd']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
