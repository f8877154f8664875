"""Time ``LinearMap.norm()`` on the three perfbench workload shapes at seed 101.

    python scripts/bench_norm.py --label NAME [--baseline LABEL] [--out BENCH_norm.json]

Run from anywhere; ``runfile`` sets up the imports and the BLAS threads and
records the run. For each shape the run records the products one ``norm()``
makes (its ``apply`` and ``apply_adjoint`` calls; one of each is one
product with K^T K or K K^T), the median and interquartile range of
``norm()`` over fresh maps, and the relative error of ``norm() /
NORM_SAFETY`` against the largest singular value from ``np.linalg.svd``.
"""

from __future__ import annotations

import gc
import sys
import time

from runfile import open_runs, save_run, spread  # first: sets up the rest

import numpy as np
import scipy.sparse as sp

from iapd import bench
from iapd.linalg import NORM_SAFETY, LinearMap

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
    sigma = float(np.linalg.svd(dense, compute_uv=False)[0])
    return {
        "shape": list(K.shape),
        "sparse": K.is_sparse,
        **calls_in_norm(fresh()),
        "norm_calls": repeats,
        **spread("norm_s", times),
        "estimate": estimate,
        "sigma_svd": sigma,
        "rel_error_vs_svd": (estimate / NORM_SAFETY - sigma) / sigma,
    }


def main() -> int:
    args, runs, _ = open_runs(__doc__, "BENCH_norm.json")
    cases = {name: measure(gen, repeats) for name, (gen, repeats) in SHAPES.items()}
    save_run(args, runs, "scripts/bench_norm.py", cases, seed=SEED)
    for name, row in cases.items():
        print(f"{name}: {row['apply_calls']} Gram products, "
              f"norm {row['norm_s_median'] * 1e3:.2f} ms (IQR {row['norm_s_iqr'] * 1e3:.2f} ms), "
              f"rel. error {row['rel_error_vs_svd']:.1e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
