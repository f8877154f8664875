"""scripts/bench_presets.py: the grid of preset rows, run on one tiny instance."""

import json

import pytest

from helpers import SCRIPTS, import_script
from iapd import bench
from iapd.bench import generate_l1ls
from iapd.problem import _coupled_steps
from iapd.solvers import SolverOptions, solve_iapd

ROOT = SCRIPTS.parent


@pytest.fixture
def bench_presets(monkeypatch):
    return import_script("bench_presets", monkeypatch)


def test_the_grid_counts_iterations_to_accuracy_per_option(bench_presets):
    inst = generate_l1ls(20, 30, 0.1, seed=3)
    counts = bench_presets.grid("l1ls-desk", {3: inst}, rows=((10.0, 1.5),), cap=500)
    assert list(counts) == list(bench_presets.OPTIONS) == ["option1", "option2"]
    for per_row in counts.values():
        assert list(per_row) == ["(10, 1.5)"]
        iterations = per_row["(10, 1.5)"]
        assert 0 < iterations["3"] < 500 and iterations["total"] == iterations["3"]
        assert bench_presets.fewest(per_row) == "(10, 1.5)"

    missed = bench_presets.grid("l1ls-desk", {3: inst}, rows=((10.0, 1.5),), cap=1)
    for per_row in missed.values():
        assert per_row["(10, 1.5)"] == {"3": None, "total": None}
        assert bench_presets.fewest(per_row) is None


def test_the_training_seeds_avoid_perfbench_batches(bench_presets):
    def in_batch(seed, s):  # perfbench's batch instance i of seed s has seed s + 1000 i
        return seed >= s and (seed - s) % 1000 == 0

    assert not any(in_batch(seed, s) for seed in bench_presets.TRAINING_SEEDS
                   for s in (7, 11, 101))
    assert all(in_batch(seed, 101) for seed in bench_presets.HELD_OUT_SEEDS)


def test_the_ladder_counts_what_a_solve_stopped_at_each_tolerance_takes(bench_presets):
    inst = generate_l1ls(20, 30, 0.1, seed=3)
    tols = (1e-3, 1e-6)
    counts = bench_presets.count("l1ls-desk", {3: inst}, ((10.0, 1.5),), tols, 5000,
                                 options=("option1",))["option1"]
    ref = bench_presets.certified_reference("l1ls-desk", inst)
    steps = _coupled_steps(inst.problem.K.norm(), 10.0, 1.5)
    for tol in tols:
        gap_tol = tol * max(1.0, abs(ref.objective_value))
        opts = SolverOptions(max_iters=5000, gap_tol=gap_tol, reference=ref)
        state, _ = solve_iapd(inst.problem, steps, opts, objective=inst.objective)
        assert counts["(10, 1.5)"][f"{tol:g}"] == {"3": state.k - 1, "total": state.k - 1}
    assert counts["(10, 1.5)"]["0.001"]["3"] < counts["(10, 1.5)"]["1e-06"]["3"] < 5000


def test_every_preset_row_is_the_newest_grid_runs_choice():
    """A preset cannot drift from its measurement without a new run of bench_presets.py.

    A family's row is option 1's best on the training seeds; option 2 runs on it too.
    """
    runs = json.loads((ROOT / "BENCH_presets.json").read_text())["runs"]
    newest = runs[list(runs)[-1]]["cases"]
    for family in bench._FAMILIES:
        key = "({:g}, {:g})".format(*bench._FAMILIES[family].steps)
        assert newest[f"{family}/option1"]["best_on_training"] == key, family
        for option in ("option1", "option2"):
            assert newest[f"{family}/{option}"]["preset"] == key, (family, option)
