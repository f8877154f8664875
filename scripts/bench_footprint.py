"""Time and size fresh processes: ``import iapd``, three benches and a large set-up.

    python scripts/bench_footprint.py --label NAME [--baseline LABEL] [--out BENCH_footprint.json]

Run from anywhere; every case is a new interpreter that imports ``iapd`` from
the ``src/`` directory of the checkout that holds this script, with this
process's ``blas_threads()`` (1 unless set). The cases are ``import iapd``,
``iapd bench l1ls --seed 7``, ``iapd bench nnls --seed 11``, the same l1ls
bench with ``--iters 20000`` (120 000 trace rows and 40 002 energy reports
held at once) and the l1ls-large set-up, ``generate_l1ls(1000, 2000, 0.1,
101)`` followed by ``K.norm()``. They run in turn, REPEATS rounds of all
five, so that a change in machine load falls on every case alike. For each
case the run records the median and interquartile range of the wall time
from spawn to exit, and the median, smallest and largest peak resident set
(``ru_maxrss`` of that child, from ``os.wait4``). Linux starts a spawned
child's ``ru_maxrss`` at the peak RSS of its parent, so this process loads
no numpy until the children are done; its own peak, about 14 MB, stays
below every case's. ``runfile`` records the run.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from runfile import ROOT, blas_threads, open_runs, save_run, spread

REPEATS = 7
# name: interpreter arguments; "{out}" becomes a fresh output directory
CASES = {
    "import iapd": ["-c", "import iapd"],
    "iapd bench l1ls --seed 7": ["-m", "iapd.cli", "bench", "l1ls", "--seed", "7",
                                 "--out", "{out}"],
    "iapd bench nnls --seed 11": ["-m", "iapd.cli", "bench", "nnls", "--seed", "11",
                                  "--out", "{out}"],
    "iapd bench l1ls --seed 7 --iters 20000": ["-m", "iapd.cli", "bench", "l1ls", "--seed", "7",
                                               "--iters", "20000", "--out", "{out}"],
    "l1ls-large set-up": ["-c", "from iapd import bench; "
                                "bench.generate_l1ls(1000, 2000, 0.1, 101).problem.K.norm()"],
}


def run_once(args: list[str], env: dict, stderr: Path) -> tuple[float, float]:
    """(wall seconds, peak RSS in MB) of one child; a nonzero exit raises RuntimeError."""
    quiet = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
             (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=quiet)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{args} exited {code}:\n{stderr.read_text()}")
    return wall, usage.ru_maxrss / 1024.0  # kB on Linux


def summarize(walls: list[float], peaks: list[float]) -> dict:
    return {
        "runs": len(walls),
        **spread("wall_s", walls),
        "peak_rss_mb_median": statistics.median(peaks),
        "peak_rss_mb_min": min(peaks),
        "peak_rss_mb_max": max(peaks),
    }


def main() -> int:
    args, runs, _ = open_runs(__doc__, "BENCH_footprint.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **blas_threads())
    samples = {name: ([], []) for name in CASES}
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for _ in range(REPEATS):
            for name, argv in CASES.items():
                out = tempfile.mkdtemp(dir=scratch)
                wall, peak = run_once([a.replace("{out}", out) for a in argv], env,
                                      scratch / "stderr.txt")
                samples[name][0].append(wall)
                samples[name][1].append(peak)

    cases = {}
    for name, (walls, peaks) in samples.items():
        row = cases[name] = {"argv": CASES[name], **summarize(walls, peaks)}
        print(f"{name}: {row['wall_s_median']:.3f} s (IQR {row['wall_s_iqr']:.3f} s), "
              f"peak RSS {row['peak_rss_mb_median']:.1f} MB "
              f"({row['peak_rss_mb_min']:.1f}-{row['peak_rss_mb_max']:.1f})")

    save_run(args, runs, "scripts/bench_footprint.py", cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
