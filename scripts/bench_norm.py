"""Time ``LinearMap.norm()`` on the three perfbench workload shapes at seed 101.

    python scripts/bench_norm.py --label NAME [--baseline LABEL] [--out BENCH_norm.json]

Run from anywhere; importing ``runfile`` sets up the imports and the BLAS
threads, and ``runfile.run`` parses the flags, prints one line per case and
records the run. For each of ``runfile.CASES`` the run records the products
one ``norm()`` makes (its ``apply`` and ``apply_adjoint`` calls, counted
through ``runfile.CountedMap``; one of each is one product with K^T K or
K K^T), the median and interquartile range of ``norm()`` over fresh maps,
and the relative error of ``norm() / NORM_SAFETY`` against the largest
singular value from ``np.linalg.svd``.
"""

from __future__ import annotations

import sys
from functools import partial

from runfile import CountedMap, instance, run, spread, timed  # first: sets up the rest

import numpy as np
import scipy.sparse as sp

from iapd.linalg import NORM_SAFETY, LinearMap

SEED = 101
# case: timed norm() calls
REPEATS = {"l1ls-desk": 21, "nnls-sparse": 21, "l1ls-large": 7}


def measure(case: str, repeats: int) -> dict:
    K = instance(case, SEED).problem.K
    dense = K.to_dense()

    def fresh() -> LinearMap:
        return LinearMap(sp.csr_array(dense) if K.is_sparse else dense)

    times, _, estimate = timed((fresh().norm for _ in range(repeats)), collect=True)
    sigma = float(np.linalg.svd(dense, compute_uv=False)[0])
    counted = CountedMap(fresh())
    counted.norm()
    return {
        "shape": list(K.shape),
        "sparse": K.is_sparse,
        "apply_calls": counted.apply_calls,
        "adjoint_calls": counted.adjoint_calls,
        "norm_calls": repeats,
        **spread("norm_s", times),
        "estimate": estimate,
        "sigma_svd": sigma,
        "rel_error_vs_svd": (estimate / NORM_SAFETY - sigma) / sigma,
    }


def main() -> int:
    return run(__doc__, "BENCH_norm.json", "scripts/bench_norm.py",
               [(case, partial(measure, case, repeats)) for case, repeats in REPEATS.items()],
               show=("apply_calls", "rel_error_vs_svd"), seed=SEED)


if __name__ == "__main__":
    sys.exit(main())
