"""Count iterations to accuracy over a grid of preset steps, per family and option.

    python scripts/bench_presets.py --label NAME [--baseline LABEL] [--out BENCH_presets.json]

Run from anywhere; ``runfile`` sets up the imports and the BLAS threads and
records the run. A grid row is a pair (t1, alpha ||K||); its steps come
from ``problem._coupled_steps``, the formula behind
``bench.preset_params``. For perfbench's two desk cases in ``runfile.CASES``
(l1ls-desk and nnls-sparse), each row and each option, the run counts the
iterations ``solve_iapd`` needs to bring the objective within the case's
tolerance (times max(1, |f*|)) of a certified reference, capped at the
case's cap. A row that misses the tolerance on some seed has no total.
Every reference is ``runfile.reference`` at ``REFERENCE_EFFORT``: on the
family's reference row, as ``run_benchmark``'s is.

The rows are chosen on the training seeds alone. These are not of the form
s + 1000 i for s in 7, 11 and 101, the seeds of perfbench's batches. The
held-out seeds are the 12 instances of perfbench's seed-101 batch; they are
counted for every row, to check a choice, but never chosen on. For each
family and option the run stores the row with the fewest training
iterations next to the family's row in ``bench._FAMILIES``, which both
options run on: option 1's best row.

The run also stores a tolerance ladder for l1ls option 1: on each of
``LADDER_ROWS``, the iterations to 1e-3, 1e-4, 1e-5 and 1e-6 (times
max(1, |f*|)) on the held-out l1ls-desk seeds and on l1ls-large at seeds 7
and 101, capped at ``LADDER_CAP``. It shows what a row gains at perfbench's
tolerances and what it may lose at tighter ones.

``count`` gives every count, the grid's and the ladder's, from one
gap-stopped solve per option, row and instance, read off the trace's
objective column.
"""

from __future__ import annotations

import sys

from runfile import CASES, instance, open_runs, reference, save_run  # first: sets up the rest

from iapd import bench
from iapd.problem import _coupled_steps
from iapd.solvers import SolverOptions, solve_iapd

T1S = (1.0, 1.2, 2.0, 5.0, 10.0)
ALPHA_KNORMS = (0.25, 0.49, 0.98, 1.5, 3.0)
ROWS = tuple((t1, a) for t1 in T1S for a in ALPHA_KNORMS)
OPTIONS = ("option1", "option2")
TRAINING_SEEDS = (1, 2, 3, 4, 5, 6)
HELD_OUT_SEEDS = tuple(101 + 1000 * i for i in range(12))
GRID_CASES = ("l1ls-desk", "nnls-sparse")
REFERENCE_EFFORT = 20000  # l1ls-large's own effort, 400, leaves its references uncertified
# l1ls option 1's rows before and since it left the reference row, and the ladder's cases.
LADDER_ROWS = ((5.0, 0.49), (10.0, 1.5))
LADDER_TOLS = (1e-3, 1e-4, 1e-5, 1e-6)
LADDER_CAP = 20000
LADDER_SEEDS = {"l1ls-desk": HELD_OUT_SEEDS, "l1ls-large": (7, 101)}


def row_key(row) -> str:
    return "({:g}, {:g})".format(*row)


def certified_reference(case: str, inst):
    """The instance's reference at ``REFERENCE_EFFORT``; RuntimeError if uncertified."""
    ref = reference(case, inst, REFERENCE_EFFORT)
    if not ref.certified:
        raise RuntimeError(f"{inst.name}: the reference did not certify")
    return ref


def add_totals(per_seed: dict) -> None:
    """Set ``per_seed["total"]``: the sum of its counts, None if one is None."""
    values = list(per_seed.values())
    per_seed["total"] = None if None in values else sum(values)


def count(case: str, instances: dict, rows, tols, cap: int, options=OPTIONS) -> dict:
    """Iterations to each of ``tols`` (times max(1, |f*|)) for each option and row on
    ``instances`` (seed: instance), capped at ``cap``.

    Returns {option: {row key: {tol key: {seed: iterations or None, "total": sum or None}}}}.
    An instance whose reference does not certify raises RuntimeError. One
    solve per option, row and instance, stopped at the tightest tolerance,
    gives every count: its trace has a row at every iteration, whose
    objective is the value a gap stop tests, so the first row within a
    tolerance is where a solve stopped at that tolerance would stop.
    """
    counts = {option: {row_key(row): {f"{tol:g}": {} for tol in tols} for row in rows}
              for option in options}
    for seed, inst in instances.items():
        knorm = inst.problem.K.norm()
        ref = certified_reference(case, inst)
        scale = max(1.0, abs(ref.objective_value))
        for row in rows:
            steps = _coupled_steps(knorm, *row)
            for option in options:
                opts = SolverOptions(max_iters=cap, option=option, gap_tol=min(tols) * scale,
                                     reference=ref)
                _, trace = solve_iapd(inst.problem, steps, opts, objective=inst.objective)
                for tol in tols:
                    k = next((r.k for r in trace
                              if r.objective - ref.objective_value <= tol * scale), None)
                    counts[option][row_key(row)][f"{tol:g}"][str(seed)] = (
                        None if k is None else k - 1)
    for per_row in counts.values():
        for per_tol in per_row.values():
            for per_seed in per_tol.values():
                add_totals(per_seed)
    return counts


def grid(case: str, instances: dict, rows=ROWS, cap: int | None = None) -> dict:
    """``count`` at the case's tolerance and, by default, its cap, without the tolerance level:
    {option: {row key: {seed: iterations or None, "total": sum or None}}}."""
    tol = CASES[case].tol
    counts = count(case, instances, rows, (tol,), CASES[case].cap if cap is None else cap)
    return {option: {key: per_tol[f"{tol:g}"] for key, per_tol in per_row.items()}
            for option, per_row in counts.items()}


def fewest(per_row: dict) -> str | None:
    """The key of the first row with the least total, None when no row has one."""
    totals = {key: c["total"] for key, c in per_row.items() if c["total"] is not None}
    return min(totals, key=totals.get) if totals else None


def main() -> int:
    args, runs, _ = open_runs(__doc__, "BENCH_presets.json")
    cases = {}
    for case in GRID_CASES:
        family = CASES[case].family
        training = grid(case, {s: instance(case, s) for s in TRAINING_SEEDS})
        held_out = grid(case, {s: instance(case, s) for s in HELD_OUT_SEEDS})
        preset = row_key(bench._FAMILIES[family].steps)
        for option in OPTIONS:
            best = fewest(training[option])
            cases[f"{family}/{option}"] = {
                "tol": CASES[case].tol,
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
    for name, seeds in LADDER_SEEDS.items():
        counts = count(name, {s: instance(name, s) for s in seeds}, LADDER_ROWS, LADDER_TOLS,
                       LADDER_CAP, options=("option1",))["option1"]
        cases[f"l1ls/option1/ladder/{name}"] = counts
        for key, per_tol in counts.items():
            print(f"l1ls/option1 ladder {name} {key}: "
                  + ", ".join(f"{tol}: {c['total']}" for tol, c in per_tol.items()))
    save_run(args, runs, "scripts/bench_presets.py", cases, rows=[row_key(row) for row in ROWS],
             training_seeds=list(TRAINING_SEEDS), held_out_seeds=list(HELD_OUT_SEEDS),
             cap=CASES[GRID_CASES[0]].cap,
             ladder_rows=[row_key(row) for row in LADDER_ROWS], ladder_tols=list(LADDER_TOLS),
             ladder_cap=LADDER_CAP)
    return 0


if __name__ == "__main__":
    sys.exit(main())
