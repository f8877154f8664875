"""Count the products with K and time a gap-stopped ``solve_iapd`` on the three perfbench shapes.

    python scripts/bench_gapstop.py --label NAME [--out BENCH_gapstop.json]

Run from anywhere; ``runfile`` sets up the imports, the BLAS threads and
the output file. Each case is a perfbench shape at seed 101 with the preset
steps, perfbench's reference effort (20 000 on the desk shapes, 400 on
l1ls-large), its tolerance (1e-4, 1e-6 and 1e-3 times max(1, |f*|)) and its
iteration cap. For each case and option the run solves to that tolerance
with ``objective=inst.objective`` and records the iterations, the products
with K per iteration (counted on a separate solve, through a stand-in for K
that counts its calls, so the count costs the timed solves nothing), the
median and interquartile range of the solve's CPU time over repeated calls,
and the objective gap at the stop by a direct product. The run is stored
under ``runs[NAME]`` with an environment block.
"""

from __future__ import annotations

import statistics
import sys
import time
from dataclasses import replace

from runfile import blas_threads, open_runs, revision, save_run  # first: sets up the rest

from envinfo import environment
from iapd import bench
from iapd.problem import compute_reference
from iapd.solvers import SolverOptions, solve_iapd

# name: (family, instance at seed 101, reference effort, tolerance, cap, timed calls)
CASES = {
    "l1ls-desk": ("l1ls", lambda: bench.generate_l1ls(200, 400, 0.1, 101), 20000, 1e-4, 2000, 101),
    "nnls-sparse": ("nnls", lambda: bench.generate_nnls(400, 200, 0.1, 101), 20000, 1e-6, 2000,
                    101),
    "l1ls-large": ("l1ls", lambda: bench.generate_l1ls(1000, 2000, 0.1, 101), 400, 1e-3, 1000, 15),
}


class CountedMap:
    """A stand-in for a ``LinearMap`` that counts its products with K and with K^T."""

    def __init__(self, K):
        self.K, self.products = K, 0

    def apply(self, x):
        self.products += 1
        return self.K.apply(x)

    def apply_adjoint(self, y):
        self.products += 1
        return self.K.apply_adjoint(y)

    def __getattr__(self, name):
        return getattr(self.K, name)


def measure(inst, params, ref, opts, repeats: int) -> dict:
    problem = inst.problem
    counted = CountedMap(problem.K)
    counted_inst = replace(inst, problem=replace(problem, K=counted))
    state, _ = solve_iapd(counted_inst.problem, params, opts, objective=counted_inst.objective)
    iterations = state.k - 1
    cpu_times = []
    for _ in range(repeats):
        start = time.process_time()
        timed, _ = solve_iapd(problem, params, opts, objective=inst.objective)
        cpu_times.append(time.process_time() - start)
        if timed.k != state.k:
            raise RuntimeError(f"{inst.name}: a repeat stopped at k = {timed.k}, not {state.k}")
    q1, median, q3 = statistics.quantiles(cpu_times, n=4)
    return {
        "iterations": iterations,
        "products_per_iteration": counted.products / iterations,
        "solve_calls": repeats,
        "solve_cpu_s_median": median,
        "solve_cpu_s_iqr": q3 - q1,
        "gap_at_stop": inst.objective(state.x) - ref.objective_value,
        "tol": opts.gap_tol,
    }


def main() -> int:
    args, runs, _ = open_runs(__doc__, "BENCH_gapstop.json", baseline=False)
    cases = {}
    for name, (family, generate, effort, eps, cap, repeats) in CASES.items():
        inst = generate()
        params = bench.preset_params(family, inst.problem.K.norm())
        ref = compute_reference(inst.problem, effort, params=params, objective=inst.objective)
        tol = eps * max(1.0, abs(ref.objective_value))
        for option in bench._OPTIONS:
            opts = SolverOptions(max_iters=cap, option=option, gap_tol=tol, reference=ref)
            key = f"{name}/{option}"
            cases[key] = row = measure(inst, params, ref, opts, repeats)
            print(f"{key}: {row['iterations']} iterations, "
                  f"{row['products_per_iteration']:.3f} products per iteration, "
                  f"CPU {row['solve_cpu_s_median']:.4f} s (IQR {row['solve_cpu_s_iqr']:.4f} s), "
                  f"gap at stop {row['gap_at_stop']:.3g} (tol {tol:.3g})")
    run = {
        "revision": revision(),
        "environment": environment(blas_threads()),
        "cases": cases,
    }
    save_run(args, runs, "scripts/bench_gapstop.py", run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
