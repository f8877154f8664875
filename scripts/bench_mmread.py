"""Time ``read_matrix_market`` on the nnls-sparse input files and on two large files.

    python scripts/bench_mmread.py --label NAME [--baseline LABEL] [--out BENCH_mmread.json]

Run from anywhere; ``runfile`` sets up the imports and the BLAS threads and
records the run. The cases are K (coordinate) and b (array) of the
nnls-sparse case of ``runfile.CASES`` at seed 101, a 4000×2000 coordinate
file at density 0.1 (about 800 000 entries) and a 1000×1000 array file. The
files are written by ``write_matrix_market`` into a temporary directory.
For each case the run records the entries read, the median and
interquartile range of the wall time and of the process's CPU time per read
(a busy shared machine disturbs CPU time less), entries per second at the
median wall time, and a SHA-256 digest of the map read (CSR indices as
int64, so the digest does not depend on the index type the map picks). With
``--baseline``, each case the baseline also holds gets whether the map is
bit for bit the baseline's.
"""

from __future__ import annotations

import gc
import hashlib
import sys
import tempfile
import time
from pathlib import Path

from runfile import instance, open_runs, save_run, spread  # first: sets up the rest

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


def digest(mapping: LinearMap) -> str:
    """SHA-256 of the map's entries, a CSR map's indices as int64 whatever type it stores."""
    if mapping.is_sparse:
        rows, cols, vals = mapping.triples()
        stored = (rows.astype(np.int64), cols.astype(np.int64), vals)
    else:
        stored = (mapping.to_dense(),)
    sha = hashlib.sha256()
    for array in stored:
        sha.update(array.tobytes())
    return sha.hexdigest()


def measure(path: Path, repeats: int) -> dict:
    times, cpu_times = [], []
    for _ in range(repeats):
        gc.collect()
        start, cpu_start = time.perf_counter(), time.process_time()
        mapping = read_matrix_market(path)
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
    entries = len(mapping.triples()[2]) if mapping.is_sparse else mapping.rows * mapping.cols
    wall = spread("read_s", times)
    return {
        "shape": list(mapping.shape),
        "format": "coordinate" if mapping.is_sparse else "array",
        "entries": entries,
        "file_bytes": path.stat().st_size,
        "reads": repeats,
        **wall,
        **spread("read_cpu_s", cpu_times),
        "entries_per_s": entries / wall["read_s_median"],
        "map_sha256": digest(mapping),
    }


def main() -> int:
    args, runs, base = open_runs(__doc__, "BENCH_mmread.json")
    cases = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (build, repeats) in CASES.items():
            path = Path(tmp) / (name.replace("/", "-") + ".mtx")
            write_matrix_market(build(), path)
            cases[name] = row = measure(path, repeats)
            if base is not None and name in base:
                row["same_map"] = row["map_sha256"] == base[name]["map_sha256"]
            print(f"{name}: {row['entries']} entries, "
                  f"{row['read_s_median'] * 1e3:.2f} ms (IQR {row['read_s_iqr'] * 1e3:.2f} ms), "
                  f"CPU {row['read_cpu_s_median'] * 1e3:.2f} ms "
                  f"(IQR {row['read_cpu_s_iqr'] * 1e3:.2f} ms), "
                  f"{row['entries_per_s']:.3g} entries/s")

    save_run(args, runs, "scripts/bench_mmread.py", cases, seed=SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
