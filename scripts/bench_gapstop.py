"""Count the products with K and time gap-stopped solves on the three perfbench shapes.

    python scripts/bench_gapstop.py --label NAME [--baseline LABEL] [--out BENCH_gapstop.json]

Run from anywhere; importing ``runfile`` sets up the imports and the BLAS
threads, and ``runfile.run`` parses the flags, prints one line per case and
records the run. Each case is one of ``runfile.CASES`` at seed 101 with the
preset steps, its reference (``runfile.reference``), its tolerance (times
max(1, |f*|)) and its iteration cap. For each case and solver
(``solve_iapd`` with either option, and ``solve_fista`` and ``solve_tseng``
from x0 = 0 with alpha = 1/||K||^2 and f2 = ``LeastSquares(K, b)``, as
perfbench's FISTA solve) the run solves to that tolerance with
``objective=inst.objective`` and records the iterations, the products with
K per iteration (counted on a separate solve, through ``runfile.CountedMap``,
so the count costs the timed solves nothing), the median
and interquartile range of the solve's CPU time over repeated calls, and
the objective gap at the stop by a direct product. Each workload also
times its bare iteration (``<workload>/bare``), perfbench's throughput
call: ``solve_iapd`` with option 1 for ``BARE_ITERS`` iterations, no
objective and no observer, so that every iteration records a row.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from functools import partial

from runfile import (CASES, CountedMap, instance, reference, run,  # first: sets up the rest
                     spread, timed)

import numpy as np
from iapd import bench
from iapd.proxfuns import LeastSquares
from iapd.solvers import SolverOptions, solve_fista, solve_iapd, solve_tseng

# case: timed calls
REPEATS = {"l1ls-desk": 101, "nnls-sparse": 101, "l1ls-large": 15}

BARE_ITERS = 500  # iterations of one bare solve

# case key suffix: (solver, option); the option matters to iapd only
SOLVERS = {"option1": ("iapd", "option1"), "option2": ("iapd", "option2"),
           "fista": ("fista", "option1"), "tseng": ("tseng", "option1")}


def solve(inst, params, opts, solver: str):
    """Solve ``inst`` to the gap stop with ``solver`` ("iapd", "fista" or "tseng"): (x, iterations).

    iapd runs ``opts.option``; f2 is built on the instance's K, so a
    counting stand-in for K counts the baselines' products too.
    """
    problem = inst.problem
    if solver == "iapd":
        state, _ = solve_iapd(problem, params, opts, objective=inst.objective)
        return state.x, state.k - 1
    apg = solve_fista if solver == "fista" else solve_tseng
    x, rows = apg(problem.f1, LeastSquares(problem.K, inst.b), 1.0 / problem.K.norm() ** 2, opts,
                  x0=np.zeros(problem.primal_dim), objective=inst.objective)
    return x, rows[-1].k


def measure(inst, params, ref, opts, repeats: int, solver: str = "iapd") -> dict:
    counted = CountedMap(inst.problem.K)
    x, iterations = solve(replace(inst, problem=replace(inst.problem, K=counted)), params, opts,
                          solver)

    def repeat():
        if (k := solve(inst, params, opts, solver)[1]) != iterations:
            raise RuntimeError(f"{inst.name}: a repeat took {k} iterations, not {iterations}")

    _, cpu_times, _ = timed(repeat for _ in range(repeats))
    return {
        "iterations": iterations,
        "products_per_iteration": (counted.apply_calls + counted.adjoint_calls) / iterations,
        "solve_calls": repeats,
        **spread("solve_cpu_s", cpu_times),
        "gap_at_stop": inst.objective(x) - ref.objective_value,
        "tol": opts.gap_tol,
    }


def measure_bare(inst, params, repeats: int) -> dict:
    """CPU time of the bare ``solve_iapd``: option 1, ``BARE_ITERS`` iterations, no objective."""
    opts = SolverOptions(max_iters=BARE_ITERS)
    _, cpu_times, _ = timed(partial(solve_iapd, inst.problem, params, opts) for _ in range(repeats))
    return {"iterations": BARE_ITERS, "solve_calls": repeats, **spread("solve_cpu_s", cpu_times)}


def cases():
    """(name, measure) of each workload and solver; a workload's instance and reference are
    built when its first case is reached."""
    for name, repeats in REPEATS.items():
        case = CASES[name]
        inst = instance(name)
        params = bench.preset_params(case.family, inst.problem.K.norm())
        ref = reference(name, inst)
        tol = case.tol * max(1.0, abs(ref.objective_value))
        for label, (solver, option) in SOLVERS.items():
            opts = SolverOptions(max_iters=case.cap, option=option, gap_tol=tol, reference=ref)
            yield f"{name}/{label}", partial(measure, inst, params, ref, opts, repeats, solver)
        yield f"{name}/bare", partial(measure_bare, inst, params, repeats)


def main() -> int:
    return run(__doc__, "BENCH_gapstop.json", "scripts/bench_gapstop.py", cases(),
               show=("iterations", "products_per_iteration", "gap_at_stop", "tol"))


if __name__ == "__main__":
    sys.exit(main())
