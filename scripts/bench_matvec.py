"""Time a ``K.apply`` plus ``K.apply_adjoint`` pair on the three perfbench workloads at seed 101.

    python scripts/bench_matvec.py --label NAME [--baseline LABEL] [--out BENCH_matvec.json]

Run from anywhere; importing ``runfile`` sets up the imports and the BLAS
threads, and ``runfile.run`` parses the flags, prints one line per case and
records the run. For each of ``runfile.CASES`` the run records the median
and interquartile range of one pair, in microseconds, on K as
``runfile.instance`` builds it (``pair_us``) and the address of K's data
mod 64 (of the CSR values, for a sparse K). For a dense K it also times
the pair on copies of the same K whose data start 0, 16 and 48 bytes past
a 64-byte boundary, with x and y at 0 or 8 bytes past one
(``pair_us_k<K offset>_v<vector offset>``). For a sparse K it also times
the pair with the adjoint of the earlier release, scipy's scatter kernel
``csc_matvec`` over K's own CSR arrays in place of the gather over K^T's
(``pair_us_scatter``), after checking that both adjoints give the same bytes.
"""

from __future__ import annotations

import copy
import sys
import time
from functools import partial

from runfile import CASES, instance, run, spread  # first: sets up the rest

import numpy as np
from iapd.linalg import _into_zeros

SEED = 101
REPEATS = 15  # timed batches per layout, interleaved across layouts
PAIRS = {"l1ls-desk": 300, "nnls-sparse": 300, "l1ls-large": 20}  # pairs per batch


def at_offset(values: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``values`` whose data start ``offset`` bytes past a 64-byte boundary."""
    buffer = np.empty(values.size + 16)
    start = (offset - buffer.ctypes.data) % 64 // 8
    out = buffer[start : start + values.size].reshape(values.shape)
    out[...] = values
    return out


def batch_us(K, x: np.ndarray, y: np.ndarray, pairs: int) -> float:
    """Mean time of one pair over a batch of ``pairs``, in microseconds."""
    start = time.perf_counter()
    for _ in range(pairs):
        K.apply(x)
        K.apply_adjoint(y)
    return (time.perf_counter() - start) / pairs * 1e6


def measure(case: str) -> dict:
    K = instance(case, SEED).problem.K
    rng = np.random.default_rng(SEED)
    x, y = rng.standard_normal(K.cols), rng.standard_normal(K.rows)
    data = K._mat.data if K.is_sparse else K._mat
    layouts = {"pair_us": (K, x, y)}
    if K.is_sparse:
        from scipy.sparse import _sparsetools

        scatter = copy.copy(K)
        scatter._backward = _into_zeros(K.cols, partial(_sparsetools.csc_matvec, K.cols, K.rows,
                                                        *K._mat[:3]))
        if scatter.apply_adjoint(y).tobytes() != K.apply_adjoint(y).tobytes():
            raise AssertionError(f"{case}: the scatter and gather adjoints differ")
        layouts["pair_us_scatter"] = (scatter, x, y)
    for k_offset in () if K.is_sparse else (0, 16, 48):
        # The copy replaces the map's array and its two products directly,
        # so that no checkout's hand-over rule copies it to another offset.
        moved = copy.copy(K)
        moved._mat = at_offset(K._mat, k_offset)
        moved._forward, moved._backward = moved._mat.__matmul__, moved._mat.T.__matmul__
        for v_offset in (0, 8):
            layouts[f"pair_us_k{k_offset}_v{v_offset}"] = (moved, at_offset(x, v_offset),
                                                           at_offset(y, v_offset))
    times = {name: [] for name in layouts}
    for _ in range(REPEATS):  # one batch per layout in turn, so host load drifts hit all alike
        for name, (mapping, xs, ys) in layouts.items():
            times[name].append(batch_us(mapping, xs, ys, PAIRS[case]))
    row = {"shape": list(K.shape), "sparse": K.is_sparse, "k_address_mod_64": data.ctypes.data % 64}
    for name, samples in times.items():
        row.update(spread(name, samples))
    return row


def main() -> int:
    return run(__doc__, "BENCH_matvec.json", "scripts/bench_matvec.py",
               [(case, partial(measure, case)) for case in CASES], show=("k_address_mod_64",),
               seed=SEED, repeats=REPEATS, pairs=PAIRS)


if __name__ == "__main__":
    sys.exit(main())
