"""scripts/bench_gapstop.py: products and CPU time of gap-stopped solves, on one tiny instance."""

import pytest

from helpers import import_script
from iapd.bench import generate_l1ls, preset_params
from iapd.problem import compute_reference
from iapd.solvers import SolverOptions


@pytest.fixture
def bench_gapstop(monkeypatch):
    return import_script("bench_gapstop", monkeypatch)


@pytest.fixture(scope="module")
def tiny_case():
    """A tiny l1ls instance, its preset steps, its reference and perfbench's desk tolerance."""
    inst = generate_l1ls(20, 30, 0.1, seed=3)
    params = preset_params("l1ls", inst.problem.K.norm())
    ref = compute_reference(inst.problem, 3000, params=params, objective=inst.objective)
    return inst, params, ref, 1e-4 * max(1.0, abs(ref.objective_value))


@pytest.mark.parametrize("option", ["option1", "option2"])
def test_a_gap_stopped_iapd_iteration_takes_two_products(bench_gapstop, tiny_case, option):
    inst, params, ref, tol = tiny_case
    opts = SolverOptions(max_iters=500, option=option, gap_tol=tol, reference=ref)
    row = bench_gapstop.measure(inst, params, ref, opts, repeats=3)
    assert 0 < row["iterations"] < 500
    assert row["products_per_iteration"] == 2.0
    assert row["gap_at_stop"] <= tol
    assert row["solve_calls"] == 3 and row["solve_cpu_s_iqr"] >= 0.0


@pytest.mark.parametrize("solver", ["fista", "tseng"])
def test_a_gap_stopped_baseline_iteration_takes_two_products_and_one_at_the_stop(
        bench_gapstop, tiny_case, solver):
    """The gradient's two products, plus the look-ahead product of the iterate it stops at."""
    inst, params, ref, tol = tiny_case
    opts = SolverOptions(max_iters=2000, gap_tol=tol, reference=ref)
    row = bench_gapstop.measure(inst, params, ref, opts, repeats=3, solver=solver)
    k = row["iterations"]
    assert 0 < k < 2000
    assert row["products_per_iteration"] == (2 * k + 1) / k
    assert row["gap_at_stop"] <= tol
    assert row["solve_calls"] == 3 and row["solve_cpu_s_iqr"] >= 0.0
