"""Time ``compute_reference`` on the three perfbench workload shapes at two seeds each.

    python scripts/bench_reference.py --label NAME [--baseline LABEL] [--out BENCH_reference.json]

Run from anywhere; importing ``runfile`` sets up the imports and the BLAS
threads, and ``runfile.run`` parses the flags, prints one line per case and
records the run. Each case is one of ``runfile.CASES`` at a seed, solved
by ``runfile.reference``: the reference row's steps and the sweep's
reference effort. For each case the run records the iapd iterations behind
the reference, the median and interquartile range of ``compute_reference``
over repeated calls, by wall clock and by the process's CPU time (which a
busy shared machine disturbs less), whether the reference is certified,
its accuracy and objective, and SHA-256 digests of x* and y*. With
``--baseline``, each case the baseline also holds gets the objective's
move against that earlier run of the file and whether x* and y* are bit
for bit the same.
"""

from __future__ import annotations

import sys
from functools import partial

from runfile import (CASES, instance, reference, run, sha256,  # first: sets up the rest
                     spread, timed)

# case: (seeds, timed calls)
SEEDS = {"l1ls-desk": ((101, 7), 7), "nnls-sparse": ((101, 11), 7), "l1ls-large": ((101, 7), 5)}


def measure(case: str, seed: int, repeats: int) -> dict:
    inst = instance(case, seed)
    inst.problem.K.norm()  # cached before the clock starts, as the sweep's reference finds it
    times, cpu_times, ref = timed(partial(reference, case, inst) for _ in range(repeats))
    return {
        "shape": list(inst.problem.K.shape),
        "effort": CASES[case].effort,
        "iterations": ref.iterations,
        "reference_calls": repeats,
        **spread("reference_s", times),
        **spread("reference_cpu_s", cpu_times),
        "certified": ref.certified,
        "accuracy": ref.accuracy,
        "objective": ref.objective_value,
        "x_star_sha256": sha256(ref.x_star),
        "y_star_sha256": sha256(ref.y_star),
    }


def against(row: dict, base: dict) -> dict:
    return {
        "objective_move": row["objective"] - base["objective"],
        "same_x_star_y_star": (row["x_star_sha256"], row["y_star_sha256"])
        == (base["x_star_sha256"], base["y_star_sha256"]),
    }


def main() -> int:
    return run(__doc__, "BENCH_reference.json", "scripts/bench_reference.py",
               [(f"{name}/seed{seed}", partial(measure, name, seed, repeats))
                for name, (seeds, repeats) in SEEDS.items() for seed in seeds],
               against, show=("iterations", "certified", "accuracy", "objective_move",
                              "same_x_star_y_star"))


if __name__ == "__main__":
    sys.exit(main())
