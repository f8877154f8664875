"""Time ``compute_reference`` on the three perfbench workload shapes at two seeds each.

    python scripts/bench_reference.py --label NAME [--baseline LABEL] [--out BENCH_reference.json]

Run from anywhere; ``runfile`` sets up the imports and the BLAS threads and
records the run. Each case is a perfbench shape with the reference row's
steps (``bench.reference_params``) and the sweep's reference effort (20 000
on the desk shapes, 400 on l1ls-large). For each case the run
records the iapd iterations behind the reference, the median and
interquartile range of ``compute_reference`` over repeated calls, by wall
clock and by the process's CPU time (which a busy shared machine disturbs
less), whether the reference is certified, its accuracy and objective, and
SHA-256 digests of x* and y*. With ``--baseline``, each case also gets the
objective's move against that earlier run of the file and whether x* and y*
are bit for bit the same.
"""

from __future__ import annotations

import hashlib
import sys
import time

from runfile import open_runs, save_run, spread  # first: sets up the rest

from iapd import bench
from iapd.problem import compute_reference

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
    params = bench.reference_params(family, problem.K.norm())
    times, cpu_times = [], []
    for _ in range(repeats):
        start, cpu_start = time.perf_counter(), time.process_time()
        ref = compute_reference(problem, effort, params=params, objective=inst.objective)
        times.append(time.perf_counter() - start)
        cpu_times.append(time.process_time() - cpu_start)
    return {
        "shape": list(problem.K.shape),
        "effort": effort,
        "iterations": ref.iterations,
        "reference_calls": repeats,
        **spread("reference_s", times),
        **spread("reference_cpu_s", cpu_times),
        "certified": ref.certified,
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
    args, runs, base = open_runs(__doc__, "BENCH_reference.json")
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
                  f"CPU {row['reference_cpu_s_median']:.3f} s "
                  f"(IQR {row['reference_cpu_s_iqr']:.3f} s), "
                  f"{'certified' if row['certified'] else 'uncertified'} "
                  f"accuracy {row['accuracy']:.2e}")

    save_run(args, runs, "scripts/bench_reference.py", cases)
    return 0


if __name__ == "__main__":
    sys.exit(main())
