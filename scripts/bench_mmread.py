"""Time ``read_matrix_market`` on the nnls-sparse input files and on two large files.

    python scripts/bench_mmread.py --label NAME [--baseline LABEL] [--out BENCH_mmread.json]

Run from anywhere; importing ``runfile`` sets up the imports and the BLAS
threads, and ``runfile.run`` parses the flags, prints one line per case and
records the run. The cases are K (coordinate) and b (array) of the
nnls-sparse case of ``runfile.CASES`` at seed 101, a 4000×2000 coordinate
file at density 0.1 (about 800 000 entries) and a 1000×1000 array file. The
files are written by ``write_matrix_market``, each into its own temporary
directory.
For each case the run records the entries read, the median and
interquartile range of the wall time and of the process's CPU time per read
(a busy shared machine disturbs CPU time less), entries per second at the
median wall time, and a SHA-256 digest of the map read (CSR indices as
int64, so the digest does not depend on the index type the map picks). With
``--baseline``, each case the baseline also holds gets whether the map is
bit for bit the baseline's.
"""

from __future__ import annotations

import sys
import tempfile
from functools import partial
from pathlib import Path

from runfile import instance, run, sha256, spread, timed  # first: sets up the rest

import numpy as np

from iapd import bench
from iapd.linalg import LinearMap, read_matrix_market, write_matrix_market

SEED = 101
# name: (map to write, timed reads)
CASES = {
    "nnls-sparse/K": (lambda: instance("nnls-sparse", SEED).problem.K, 41),
    "nnls-sparse/b": (lambda: LinearMap(instance("nnls-sparse", SEED).b[:, None]), 41),
    "coordinate-4000x2000": (lambda: bench.generate_nnls(4000, 2000, 0.1, SEED).problem.K, 5),
    "array-1000x1000": (lambda: LinearMap(np.random.default_rng(SEED).standard_normal(
        (1000, 1000))), 5),
}


def measure(build, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.mtx"
        write_matrix_market(build(), path)
        times, cpu_times, mapping = timed((partial(read_matrix_market, path)
                                           for _ in range(repeats)), collect=True)
        file_bytes = path.stat().st_size
    if mapping.is_sparse:
        rows, cols, vals = mapping.triples()
        stored = (rows.astype(np.int64), cols.astype(np.int64), vals)
    else:
        stored = (mapping.to_dense(),)
    entries = stored[-1].size
    wall = spread("read_s", times)
    return {
        "shape": list(mapping.shape),
        "format": "coordinate" if mapping.is_sparse else "array",
        "entries": entries,
        "file_bytes": file_bytes,
        "reads": repeats,
        **wall,
        **spread("read_cpu_s", cpu_times),
        "entries_per_s": entries / wall["read_s_median"],
        "map_sha256": sha256(*stored),
    }


def against(row: dict, base: dict) -> dict:
    return {"same_map": row["map_sha256"] == base["map_sha256"]}


def main() -> int:
    return run(__doc__, "BENCH_mmread.json", "scripts/bench_mmread.py",
               [(name, partial(measure, *spec)) for name, spec in CASES.items()],
               against, show=("entries", "entries_per_s", "same_map"), seed=SEED)


if __name__ == "__main__":
    sys.exit(main())
