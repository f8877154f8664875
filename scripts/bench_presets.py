"""Count iterations to accuracy over a grid of preset steps, per family and option.

    python scripts/bench_presets.py --label NAME [--baseline LABEL] [--out BENCH_presets.json]

Run from anywhere; ``runfile`` sets up the imports and the BLAS threads and
records the run. A grid row is a pair (t1, alpha ||K||); its steps come
from ``problem._coupled_steps``, the formula behind
``bench.preset_params``. For perfbench's two desk shapes (l1ls 200x400 and
nnls 400x200), each row and each option, the run counts the iterations
``solve_iapd`` needs to bring the objective within perfbench's tolerance of
a certified reference (1e-4 for l1ls and 1e-6 for nnls, times max(1,
|f*|)), capped at perfbench's 2000. A row that misses the tolerance on some
seed has no total.

The rows are chosen on the training seeds alone. These are not of the form
s + 1000 i for s in 7, 11 and 101, the seeds of perfbench's batches. The
held-out seeds are the 12 instances of perfbench's seed-101 batch; they are
counted for every row, to check a choice, but never chosen on. For each
family and option the run stores the row with the fewest training
iterations next to the row ``bench._PRESETS`` holds.
"""

from __future__ import annotations

import sys

from runfile import open_runs, save_run  # first: sets up the rest

from iapd import bench
from iapd.problem import _coupled_steps, compute_reference
from iapd.solvers import SolverOptions, solve_iapd

T1S = (1.0, 1.2, 2.0, 5.0, 10.0)
ALPHA_KNORMS = (0.25, 0.49, 0.98, 1.5, 3.0)
ROWS = tuple((t1, a) for t1 in T1S for a in ALPHA_KNORMS)
TRAINING_SEEDS = (1, 2, 3, 4, 5, 6)
HELD_OUT_SEEDS = tuple(101 + 1000 * i for i in range(12))
CAP = 2000
REFERENCE_EFFORT = 20000
# family: (perfbench's tolerance, instance generator of a seed)
FAMILIES = {
    "l1ls": (1e-4, lambda s: bench.generate_l1ls(200, 400, 0.1, s)),
    "nnls": (1e-6, lambda s: bench.generate_nnls(400, 200, 0.1, s)),
}


def row_key(row) -> str:
    return "({:g}, {:g})".format(*row)


def grid(family: str, eps: float, instances: dict, rows=ROWS, cap: int = CAP) -> dict:
    """Iterations to ``eps`` for each row and option on ``instances`` (seed: instance).

    Returns {option: {row key: {seed: iterations or None, "total": sum or None}}}.
    An instance whose reference does not certify raises RuntimeError.
    """
    counts = {option: {row_key(row): {} for row in rows} for option in bench._OPTIONS}
    for seed, inst in instances.items():
        problem = inst.problem
        knorm = problem.K.norm()
        ref = compute_reference(problem, REFERENCE_EFFORT, bench.preset_params(family, knorm),
                                inst.objective)
        if not ref.certified:
            raise RuntimeError(f"{inst.name}: the reference did not certify")
        tol = eps * max(1.0, abs(ref.objective_value))
        for row in rows:
            steps = _coupled_steps(knorm, *row)
            for option in bench._OPTIONS:
                opts = SolverOptions(max_iters=cap, option=option, gap_tol=tol, reference=ref)
                state, _ = solve_iapd(problem, steps, opts, objective=inst.objective)
                reached = inst.objective(state.x) - ref.objective_value <= tol
                counts[option][row_key(row)][str(seed)] = state.k - 1 if reached else None
    for per_row in counts.values():
        for per_seed in per_row.values():
            values = list(per_seed.values())
            per_seed["total"] = None if None in values else sum(values)
    return counts


def fewest(per_row: dict) -> str | None:
    """The key of the first row with the least total, None when no row has one."""
    totals = {key: c["total"] for key, c in per_row.items() if c["total"] is not None}
    return min(totals, key=totals.get) if totals else None


def main() -> int:
    args, runs, _ = open_runs(__doc__, "BENCH_presets.json")
    cases = {}
    for family, (eps, generate) in FAMILIES.items():
        training = grid(family, eps, {s: generate(s) for s in TRAINING_SEEDS})
        held_out = grid(family, eps, {s: generate(s) for s in HELD_OUT_SEEDS})
        for option in bench._OPTIONS:
            best, preset = fewest(training[option]), row_key(bench._PRESETS[family, option])
            cases[f"{family}/{option}"] = {
                "tol": eps,
                "best_on_training": best,
                "preset": preset,
                "training": training[option],
                "held_out": held_out[option],
            }
            print(f"{family}/{option}: best on training {best} "
                  f"({training[option][best]['total']} iterations, held out "
                  f"{held_out[option][best]['total']}); preset {preset} "
                  f"({training[option][preset]['total']}, held out "
                  f"{held_out[option][preset]['total']})")
    save_run(args, runs, "scripts/bench_presets.py", cases, rows=[row_key(row) for row in ROWS],
             training_seeds=list(TRAINING_SEEDS), held_out_seeds=list(HELD_OUT_SEEDS), cap=CAP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
