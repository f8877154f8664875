"""scripts/bench_gapstop.py: products and CPU time of a gap-stopped solve, on one tiny instance."""

import sys
from pathlib import Path

import pytest

from iapd.bench import generate_l1ls, preset_params
from iapd.problem import compute_reference
from iapd.solvers import SolverOptions

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def bench_gapstop(monkeypatch):
    """The script as a module; sys.path and the thread variables are restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import bench_gapstop

    return bench_gapstop


@pytest.mark.parametrize("option", ["option1", "option2"])
def test_a_gap_stopped_iapd_iteration_takes_two_products(bench_gapstop, option):
    inst = generate_l1ls(20, 30, 0.1, seed=3)
    params = preset_params("l1ls", inst.problem.K.norm())
    ref = compute_reference(inst.problem, 3000, params=params, objective=inst.objective)
    tol = 1e-4 * max(1.0, abs(ref.objective_value))
    opts = SolverOptions(max_iters=500, option=option, gap_tol=tol, reference=ref)
    row = bench_gapstop.measure(inst, params, ref, opts, repeats=3)
    assert 0 < row["iterations"] < 500
    assert row["products_per_iteration"] == 2.0
    assert row["gap_at_stop"] <= tol
    assert row["solve_calls"] == 3 and row["solve_cpu_s_iqr"] >= 0.0
