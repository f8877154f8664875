"""Solver tests: scalar sequence, hand-worked steps, reductions, baselines."""

import math
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd.bench import generate_l1ls, generate_nnls, preset_params
from iapd.linalg import LinearMap
from iapd.problem import (ReferencePoint, SaddleProblem, StepParams, compute_reference,
                          default_step_params)
from iapd.proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ShiftedQuadratic,
    SmoothFunction,
    ZeroSmooth,
)
from iapd.solvers import (
    DivergenceError,
    SolverOptions,
    Trace,
    TraceRow,
    UnsupportedStructureError,
    iapd_step,
    init_iapd_state,
    next_t,
    solve_apda,
    solve_fista,
    solve_iapd,
    solve_pda,
    solve_tseng,
    _dist,
    _drive,
    _Iterate,
)

from helpers import ZeroProx, start_at


def scalar_bilinear(alpha=0.5, beta=0.5, t1=1.0, shift=0.0):
    problem = SaddleProblem(
        f1=ZeroProx(), f2=ZeroSmooth(), g1=ShiftedQuadratic([shift]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    return problem, StepParams(alpha=alpha, beta=beta, t1=t1)


# -- scalar sequence -------------------------------------------------------


def test_next_t_examples():
    assert next_t(1.0, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert next_t(1.0, 10.0) == pytest.approx(0.5 * (1.0 + math.sqrt(5.0)), rel=1e-15)
    assert next_t(1.0, 0.5) == pytest.approx(math.sqrt(1.5), rel=1e-15)
    # a = 0 freezes growth to the strongly convex branch value t itself
    assert next_t(3.0, 0.0) == 3.0


def test_tsequence_invariants():
    for t1 in (1.0, 1.2, 5.0):
        for a in (0.0, 0.1, 1.0, 10.0):
            prev = t1
            for _ in range(2000):
                t = next_t(prev, a)
                eps = 1e-12 * max(1.0, t * t)
                assert t * t - t <= prev * prev + eps
                assert t * t <= prev * prev + a * prev + eps
                prev = t


# -- accelerated primal-dual steps -----------------------------------------


def test_init_state_identities():
    problem, params = scalar_bilinear(t1=1.0)
    st = start_at(problem, params, [2.0], [3.0])
    assert st.k == 1 and st.t == 1.0
    for arr in (st.x, st.x_prev, st.u):
        assert arr[0] == 2.0
    for arr in (st.y, st.y_prev, st.v, st.v_prev):
        assert arr[0] == 3.0
    assert st.t_next == next_t(1.0, problem.mu_g * params.beta)


def test_scalar_step_hand_oracle():
    # One step of the bilinear toy min_x max_y x y - y^2/2 from (1, 0) with
    # alpha = beta = 0.5, t1 = 1; values frozen from an extended-precision
    # hand evaluation of the recursions.
    problem, params = scalar_bilinear()
    st = start_at(problem, params, [1.0], [0.0])
    st2 = iapd_step(problem, params, st, "option1")
    assert st2.t == pytest.approx(1.224744871391589, abs=1e-12)
    assert st2.x[0] == 1.0
    assert st2.u[0] == 1.0
    assert st2.v[0] == pytest.approx(0.28989794855663562, abs=1e-12)
    assert st2.y[0] == pytest.approx(0.23670068381445479, abs=1e-12)

    st3 = iapd_step(problem, params, st2, "option1")
    assert st3.t == pytest.approx(1.4534003012576386, abs=1e-12)
    assert st3.x[0] == pytest.approx(0.73290607177662872, abs=1e-12)
    assert st3.u[0] == pytest.approx(0.6118056042560661, abs=1e-12)
    assert st3.v[0] == pytest.approx(0.37229469424470064, abs=1e-12)
    assert st3.y[0] == pytest.approx(0.32999501594918416, abs=1e-12)


@pytest.mark.parametrize("option", ["option1", "option2"])
def test_iterate_averaging_relation(option):
    # Both options satisfy x_k = ((t_k - 1) x_{k-1} + u_k)/t_k and the
    # matching dual relation at every iteration.
    inst = generate_l1ls(20, 35, 0.1, seed=3)
    problem = inst.problem
    knorm = problem.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    st = init_iapd_state(problem, params)
    for _ in range(200):
        st = iapd_step(problem, params, st, option)
        x_rel = ((st.t - 1.0) * st.x_prev + st.u) / st.t
        y_rel = ((st.t - 1.0) * st.y_prev + st.v) / st.t
        assert np.linalg.norm(st.x - x_rel) <= 1e-10 * (1.0 + np.linalg.norm(st.x))
        assert np.linalg.norm(st.y - y_rel) <= 1e-10 * (1.0 + np.linalg.norm(st.y))


def test_iapd_step_rejects_unknown_option():
    problem, params = scalar_bilinear()
    st = init_iapd_state(problem, params)
    with pytest.raises(ValueError):
        iapd_step(problem, params, st, "option3")


def test_solve_iapd_rejects_infeasible_params():
    problem, _ = scalar_bilinear()
    bad = StepParams(alpha=10.0, beta=10.0)
    with pytest.raises(ValueError):
        solve_iapd(problem, bad, SolverOptions(max_iters=5))


def test_divergent_steps_go_non_finite():
    # Bypass validation and iterate with a wildly infeasible step: the step
    # does not check its result, so the iterates blow up to non-finite
    # values, which the driver flags.
    problem, _ = scalar_bilinear()
    params = StepParams(alpha=1e4, beta=1e4, t1=1.0)
    st = start_at(problem, params, [1.0], [1.0])

    def finite(state):
        return np.isfinite(state.x).all() and np.isfinite(state.y).all()

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(10_000):
            st = iapd_step(problem, params, st)
            if not finite(st):
                break
    assert not finite(st)


def test_solve_iapd_trace_shape_and_stride():
    inst = generate_l1ls(15, 25, 0.1, seed=1)
    knorm = inst.problem.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    _, rows = solve_iapd(
        inst.problem, params, SolverOptions(max_iters=10, observer_stride=4),
        objective=inst.objective,
    )
    # strides 4 and 8 plus the forced final row
    assert [r.k for r in rows] == [5, 9, 11]
    assert rows[0].algorithm == "iapd-op1"
    assert all(math.isfinite(r.objective) for r in rows)


def test_solve_iapd_gap_tol_stops_early():
    from iapd.problem import compute_reference

    inst = generate_l1ls(15, 25, 0.1, seed=1)
    knorm = inst.problem.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    ref = compute_reference(inst.problem, 5000, params=params, objective=inst.objective)
    opts = SolverOptions(max_iters=5000, gap_tol=1e-6, reference=ref)
    state, _ = solve_iapd(inst.problem, params, opts, objective=inst.objective)
    assert state.k - 1 < 5000
    assert inst.objective(state.x) - ref.objective_value <= 1e-6


# -- reductions at K = 0 ---------------------------------------------------


def decoupled_problem(n=30, seed=13, t1=1.0):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((2 * n, n)) / math.sqrt(2 * n)
    b = rng.standard_normal(2 * n)
    f2 = LeastSquares(LinearMap(A), b)
    alpha = 0.9 / f2.lipschitz
    beta = 3.0  # beta * mu_g > 1 + 1/t1 keeps the Nesterov branch active
    problem = SaddleProblem(
        f1=L1Norm(0.05), f2=f2, g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((1, n))),
    )
    return problem, StepParams(alpha=alpha, beta=beta, t1=t1), f2, alpha


@pytest.mark.parametrize(
    "option,solve_base", [("option1", solve_fista), ("option2", solve_tseng)]
)
def test_reduction_equivalence(option, solve_base):
    problem, params, f2, alpha = decoupled_problem()
    n = problem.primal_dim
    x0 = np.zeros(n)

    iapd_iters = []

    def iapd_obs(row, state):
        iapd_iters.append(state.x.copy())

    opts = SolverOptions(max_iters=500, option=option)
    solve_iapd(problem, params, opts, observer=iapd_obs)

    base_iters = []

    def base_obs(row, state):
        base_iters.append(state.x.copy())

    solve_base(problem.f1, f2, alpha, SolverOptions(max_iters=500),
               observer=base_obs, x0=x0, t1=params.t1)

    assert len(iapd_iters) == len(base_iters) == 500
    for xa, xb in zip(iapd_iters, base_iters):
        assert np.array_equal(xa, xb)


# -- baselines -------------------------------------------------------------


class Quad(SmoothFunction):
    lipschitz = 1.0

    def value(self, x):
        return 0.5 * float(x @ x)

    def grad(self, x):
        return np.asarray(x, dtype=np.float64)


def test_fista_exact_scalar_minimum_in_one_step():
    x, rows = solve_fista(ZeroProx(), Quad(), 1.0, SolverOptions(max_iters=1),
                          x0=np.array([1.0]))
    assert x[0] == 0.0
    assert len(rows) == 1


def test_tseng_scalar_convergence():
    x, _ = solve_tseng(ZeroProx(), Quad(), 1.0, SolverOptions(max_iters=200),
                       x0=np.array([5.0]))
    assert abs(x[0]) <= 1e-6


def test_fista_tseng_agree_on_lasso():
    inst = generate_l1ls(20, 30, 0.1, seed=2)
    f2 = LeastSquares(inst.problem.K, inst.b)
    alpha = 1.0 / f2.lipschitz
    opts = SolverOptions(max_iters=30000)
    xf, _ = solve_fista(inst.problem.f1, f2, alpha, opts, x0=np.zeros(30))
    xt, _ = solve_tseng(inst.problem.f1, f2, alpha, opts, x0=np.zeros(30))
    assert inst.objective(xf) == pytest.approx(inst.objective(xt), rel=1e-6)


def test_fista_rejects_bad_inputs():
    with pytest.raises(ValueError):
        solve_fista(ZeroProx(), Quad(), 2.0, SolverOptions(max_iters=1),
                    x0=np.zeros(1))
    with pytest.raises(TypeError):
        solve_fista(ZeroProx(), Quad(), 1.0, SolverOptions(max_iters=1))
    with pytest.raises(ValueError):
        solve_fista(ZeroProx(), ZeroSmooth(), 1.0, SolverOptions(max_iters=1),
                    x0=np.zeros(1))


def test_pda_requires_full_prox():
    problem = SaddleProblem(
        f1=L1Norm(0.1), f2=Quad(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((1, 1))),
    )
    with pytest.raises(UnsupportedStructureError):
        solve_pda(problem, 0.1, 0.1, SolverOptions(max_iters=1))
    with pytest.raises(UnsupportedStructureError):
        solve_apda(problem, 0.1, 0.1, SolverOptions(max_iters=1))


def test_pda_parameter_checks():
    problem, _ = scalar_bilinear()
    with pytest.raises(ValueError):
        solve_pda(problem, -0.1, 0.1, SolverOptions(max_iters=1))


def test_pda_converges_on_scalar_problem():
    # dual part 0.5 (y + 2)^2 has conjugate 0.5 z^2 - 2 z, so the primal
    # objective is 0.5 x^2 - 2 x: x* = 2, y* = x* - 2 = 0.
    problem = SaddleProblem(
        f1=ZeroProx(), f2=ZeroSmooth(), g1=ShiftedQuadratic([2.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    x, y, _ = solve_pda(problem, 0.4, 0.4, SolverOptions(max_iters=4000))
    assert x[0] == pytest.approx(2.0, abs=1e-6)
    assert y[0] == pytest.approx(0.0, abs=1e-6)


def test_apda_converges_and_validates():
    problem = SaddleProblem(
        f1=ZeroProx(), f2=ZeroSmooth(), g1=ShiftedQuadratic([2.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    knorm = problem.K.norm()
    tau0 = sigma0 = 1.0 / knorm
    x, y, _ = solve_apda(problem, tau0, sigma0, SolverOptions(max_iters=3000))
    assert x[0] == pytest.approx(2.0, abs=1e-8)
    assert y[0] == pytest.approx(0.0, abs=1e-8)

    with pytest.raises(ValueError):
        solve_apda(problem, 2.0 / knorm, 2.0 / knorm, SolverOptions(max_iters=1))
    for tau0, sigma0 in ((0.0, 0.5), (0.5, -1.0)):
        with pytest.raises(ValueError, match="tau0 and sigma0 must be positive"):
            solve_apda(problem, tau0, sigma0, SolverOptions(max_iters=1))


def test_pda_counts_a_non_finite_dual_iterate_as_divergence():
    # Steps of 5/||K|| each break the fixed-step condition, and y overflows
    # one iteration before x does.
    inst = generate_l1ls(20, 40, 0.1, seed=3)
    knorm = inst.problem.K.norm()
    ys = []
    with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
        solve_pda(inst.problem, 5.0 / knorm, 5.0 / knorm, SolverOptions(max_iters=100_000),
                  observer=lambda row, state: ys.append(state.y.copy()))
    assert err.value.iteration == 264
    assert str(err.value) == "non-finite iterate at iteration 264"
    assert [row.k for row in err.value.rows] == list(range(1, 264))
    assert len(ys) == 263 and all(np.isfinite(y).all() for y in ys)


@st.composite
def iterates_with_faults(draw):
    """States of a fake stepper, and whether each one is finite by an entry-wise test.

    Each x (and y, unless the method is primal-only) is ordinary, holds +-inf or NaN
    at random positions, or is finite with entries up to 1e308, so that its sum of
    squares overflows. x_prev and y_prev sit a standard normal step away, so that no
    recorded distance overflows.
    """
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    primal_only = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def vector(size):
        kind = draw(st.sampled_from(["ordinary", "ordinary", "non-finite", "overflowing"]))
        v = rng.standard_normal(size)
        if kind == "overflowing":
            v = rng.uniform(-1.0, 1.0, size) * 1e308
            v[rng.integers(size)] = draw(st.sampled_from([1e308, -1e308, 1.5e154]))
        elif kind == "non-finite":
            hit = rng.random(size) < draw(st.sampled_from([0.0, 0.3, 1.0]))
            hit[rng.integers(size)] = True
            v[hit] = rng.choice([np.inf, -np.inf, np.nan], size=int(hit.sum()))
        return v

    states = []
    for k in range(2, draw(st.integers(2, 10)) + 2):
        x = vector(n)
        y = None if primal_only else vector(m)
        states.append(_Iterate(k, x, x - rng.standard_normal(n), y,
                               None if y is None else y - rng.standard_normal(m), float(k)))
    finite = [bool(np.isfinite(s.x).all() and (s.y is None or np.isfinite(s.y).all()))
              for s in states]
    return states, finite


@settings(max_examples=150, deadline=None)
@given(iterates_with_faults(), st.integers(1, 3))
def test_the_divergence_test_flags_exactly_the_entrywise_non_finite_iterates(case, stride):
    """The driver's one-dot test against an entry-wise np.isfinite reference: the same
    first k and message, the trace of the iterates before it, no warning, and no
    divergence for finite vectors whose sum of squares overflows."""
    states, finite = case
    opts = SolverOptions(max_iters=len(states), observer_stride=stride)
    with warnings.catch_warnings(action="error"):
        if all(finite):
            state, _ = _drive("fake", opts, iter(states), None, None)
            assert state is states[-1]
            return
        with pytest.raises(DivergenceError) as err:
            _drive("fake", opts, iter(states), None, None)
        bad = finite.index(False)
        k = states[bad].k
        assert err.value.iteration == k and str(err.value) == f"non-finite iterate at iteration {k}"
        before = [] if bad == 0 else list(
            _drive("fake", replace(opts, max_iters=bad), iter(states[:bad]), None, None)[1])
    rows = list(err.value.rows)
    # the driver records every stride-th row; the prefix run also records its last one
    assert without_clock(rows) == without_clock([r for r in before if (r.k - 1) % stride == 0])


def test_a_distance_whose_squares_overflow_is_inf_without_a_warning():
    with warnings.catch_warnings(action="error"):
        assert _dist(np.array([1e200, 0.0]), np.zeros(2)) == math.inf


class NanDual(ShiftedQuadratic):
    """A dual prox that returns NaN."""

    def prox(self, step, z):
        return np.full_like(super().prox(step, z), math.nan)


@pytest.mark.parametrize("solve", [solve_pda, solve_apda])
def test_nan_dual_prox_diverges_though_x_stays_finite(solve):
    # K = 0 with no stored entries: K^T y is 0 even for a NaN y, so x never sees it.
    problem = SaddleProblem(f1=ZeroProx(), f2=ZeroSmooth(), g1=NanDual(np.ones(2)),
                            g2=ZeroSmooth(), K=LinearMap(sp.csr_array((2, 3))))
    with pytest.raises(DivergenceError) as err:
        solve(problem, 1.0, 1.0, SolverOptions(max_iters=5))
    assert err.value.iteration == 1 and list(err.value.rows) == []


def test_determinism_bitwise():
    inst = generate_l1ls(15, 25, 0.1, seed=4)
    knorm = inst.problem.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    s1, r1 = solve_iapd(inst.problem, params, SolverOptions(max_iters=100),
                        objective=inst.objective)
    s2, r2 = solve_iapd(inst.problem, params, SolverOptions(max_iters=100),
                        objective=inst.objective)
    assert np.array_equal(s1.x, s2.x) and np.array_equal(s1.y, s2.y)
    assert [r.objective for r in r1] == [r.objective for r in r2]


# -- gap stopping ------------------------------------------------------------

ALL_SOLVERS = ("iapd-op1", "iapd-op2", "fista", "tseng", "pda", "apda")
GAP_ITERS = 120


@pytest.fixture(scope="module")
def gap_instance():
    inst = generate_l1ls(20, 30, 0.1, seed=2)
    ref = compute_reference(inst.problem, 3000, params=preset_params("l1ls", inst.problem.K.norm()),
                            objective=inst.objective)
    return inst, ref


def solve_one(name, inst, opts, objective, observer=None):
    """Trace rows of one solve and what it returns as (x, y, k).

    y is None for fista and tseng, and k (the final state's) is None for
    every baseline.
    """
    problem = inst.problem
    knorm = problem.K.norm()
    if name.startswith("iapd"):
        option = "option1" if name == "iapd-op1" else "option2"
        state, rows = solve_iapd(problem, preset_params("l1ls", knorm), replace(opts, option=option),
                                 observer=observer, objective=objective)
        return rows, (state.x, state.y, state.k)
    if name in ("fista", "tseng"):
        solve = solve_fista if name == "fista" else solve_tseng
        x, rows = solve(problem.f1, LeastSquares(problem.K, inst.b), 1.0 / knorm**2, opts,
                        observer=observer, x0=np.zeros(problem.primal_dim), objective=objective)
        return rows, (x, None, None)
    if name == "pda":
        x, y, rows = solve_pda(problem, 1.0 / (20.0 * knorm), 20.0 / knorm, opts,
                               observer=observer, objective=objective)
    else:
        x, y, rows = solve_apda(problem, 1.0 / knorm, 1.0 / knorm, opts,
                                observer=observer, objective=objective)
    return rows, (x, y, None)


def run_solver(name, inst, opts, objective, observer=None):
    """Trace rows of one solve, and the final state's k for iapd (None for baselines)."""
    rows, (_, _, k) = solve_one(name, inst, opts, objective, observer)
    return rows, k


def full_gaps(name, inst, ref):
    """Objective gap after each of GAP_ITERS iterations of an unstopped solve."""
    rows, _ = run_solver(name, inst, SolverOptions(max_iters=GAP_ITERS), inst.objective)
    return [row.objective - ref.objective_value for row in rows]


def first_new_minimum(gaps, after, skip_stride=None):
    """First iteration i > after whose gap is below every earlier gap."""
    for i in range(after + 1, len(gaps) + 1):
        if skip_stride and i % skip_stride == 0:
            continue
        if gaps[i - 1] < min(gaps[: i - 1]):
            return i
    raise AssertionError("no new minimum in the trace")


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_gap_stop_evaluates_objective_once_per_iteration(name, gap_instance):
    inst, ref = gap_instance
    gaps = full_gaps(name, inst, ref)
    stop_at = first_new_minimum(gaps, after=30)
    calls = []

    def objective(x, kx=None):
        calls.append(None)
        return inst.objective(x, kx)

    opts = SolverOptions(max_iters=GAP_ITERS, gap_tol=gaps[stop_at - 1], reference=ref)
    rows, _ = run_solver(name, inst, opts, objective)
    assert len(calls) == stop_at
    assert [row.objective - ref.objective_value for row in rows] == gaps[:stop_at]


@pytest.mark.parametrize("name", ALL_SOLVERS)
@pytest.mark.parametrize("after", [1, 9])
def test_gap_stop_keeps_the_stopping_row(name, after, gap_instance):
    """With stride 4, a stop between multiples of 4 still records its iterate."""
    inst, ref = gap_instance
    gaps = full_gaps(name, inst, ref)
    stop_at = first_new_minimum(gaps, after=after, skip_stride=4)
    opts = SolverOptions(max_iters=GAP_ITERS, observer_stride=4, gap_tol=gaps[stop_at - 1], reference=ref)
    rows, state_k = run_solver(name, inst, opts, inst.objective)

    offset = 1 if name.startswith("iapd") else 0  # iapd numbers its initial state k = 1
    assert [row.k - offset for row in rows] == list(range(4, stop_at, 4)) + [stop_at]
    assert rows[-1].objective - ref.objective_value == gaps[stop_at - 1]
    if state_k is not None:
        assert rows[-1].k == state_k


NO_REF = ReferencePoint(None, None, 0.0, 0.0)


@pytest.mark.parametrize("fields, message", [
    (dict(max_iters=0), "max_iters must be >= 1"),
    (dict(observer_stride=0), "observer_stride must be >= 1"),
    (dict(option="option3"), "unknown option 'option3'"),
])
def test_solver_options_refuse_a_value_no_solve_can_run(fields, message):
    with pytest.raises(ValueError, match=message):
        SolverOptions(**{"max_iters": 10, **fields})


@pytest.mark.parametrize("fields, message", [
    (dict(gap_tol=1e-3), "needs both gap_tol and reference"),
    (dict(reference=NO_REF), "needs both gap_tol and reference"),
    (dict(gap_tol=math.nan, reference=NO_REF), "gap_tol must be finite"),
    (dict(gap_tol=math.inf, reference=NO_REF), "gap_tol must be finite"),
])
def test_gap_stop_options_come_together_and_finite(fields, message):
    # Either half alone, or a tolerance no gap can meet, would run to max_iters unstopped.
    with pytest.raises(ValueError, match=message):
        SolverOptions(max_iters=10, **fields)


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_gap_stop_without_objective_raises(name, gap_instance):
    inst, ref = gap_instance
    opts = SolverOptions(max_iters=GAP_ITERS, gap_tol=1e-3, reference=ref)
    with pytest.raises(ValueError, match="the gap stop needs an objective"):
        run_solver(name, inst, opts, None)


# -- the solver clock ------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_elapsed_is_solver_time_only(name, gap_instance):
    """The clock pauses while the objective and the observer run."""
    inst, _ = gap_instance

    def objective(x, kx=None):
        time.sleep(0.005)
        return inst.objective(x, kx)

    def observer(row, state):
        time.sleep(0.005)

    rows, _ = run_solver(name, inst, SolverOptions(max_iters=10), objective, observer)
    elapsed = [row.elapsed_s for row in rows]
    # 10 objective and 9 observer sleeps of 5 ms came before the 10th row's clock reading
    assert elapsed[9] < 0.03
    assert elapsed == sorted(elapsed)


@pytest.mark.parametrize("name", ALL_SOLVERS)
def test_throughput_loop_reads_the_clock_once_per_row(name, gap_instance, monkeypatch):
    """Without an objective or an observer, the clock is read at the start and per row."""
    inst, _ = gap_instance
    calls = []
    for clock in ("monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns"):
        original = getattr(time, clock)
        monkeypatch.setattr(time, clock, lambda f=original: calls.append(None) or f())
    rows, _ = run_solver(name, inst, SolverOptions(max_iters=60, observer_stride=7), None)
    monkeypatch.undo()
    assert len(rows) == 9  # k = 7, 14, ..., 56 and the last iteration
    assert len(calls) == 1 + len(rows)


# -- observer stop ------------------------------------------------------------


def without_clock(rows):
    return [replace(row, elapsed_s=0.0) for row in rows]


def same_bytes(a, b):
    return (a is None and b is None) or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", ALL_SOLVERS)
@pytest.mark.parametrize("j", [1, 4])
def test_observer_returning_true_ends_the_solve_at_its_row(name, j, gap_instance):
    inst, _ = gap_instance
    opts = SolverOptions(max_iters=40, observer_stride=3)
    seen = []

    def observer(row, state):
        seen.append((state.x.copy(), None if state.y is None else state.y.copy()))
        return len(seen) == j

    rows, (x, y, k) = solve_one(name, inst, opts, inst.objective, observer)
    full, _ = solve_one(name, inst, opts, inst.objective)
    assert len(seen) == j
    assert without_clock(rows) == without_clock(full[:j])
    assert same_bytes(x, seen[-1][0]) and same_bytes(y, seen[-1][1])
    if k is not None:
        assert k == rows[-1].k


@pytest.mark.parametrize("name", ALL_SOLVERS)
@pytest.mark.parametrize("answer", [None, False])
def test_observer_returning_none_or_false_changes_nothing(name, answer, gap_instance):
    inst, _ = gap_instance
    opts = SolverOptions(max_iters=40, observer_stride=3)
    rows, got = solve_one(name, inst, opts, inst.objective, lambda row, state: answer)
    full, want = solve_one(name, inst, opts, inst.objective)
    assert len(rows) == 14  # k = 3, 6, ..., 39 and the last iteration
    assert without_clock(rows) == without_clock(full)
    assert all(same_bytes(a, b) for a, b in zip(got[:2], want[:2])) and got[2] == want[2]


# -- the carried product K x ----------------------------------------------------

# ||kx - K x|| <= KX_RTOL * ||K|| * max_j ||x_j||: the carried product is an
# average of earlier products, so its rounding scales with the largest iterate
# so far. Measured at most 4e-15 over 600 such random 300-step solves, and
# ||kx - K x|| / ||K x|| at most 3e-14 over 3000 steps on the two perfbench desk
# shapes and 600 on l1ls-large, both options. FISTA's and Tseng's carried
# product is bounded the same way; it measured at most 5e-16 over 600 random
# 300-step solves like those of apg_cases.
KX_RTOL = 1e-12


@st.composite
def carried_cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    mat = rng.standard_normal((m, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)

    def smooth(dim):
        if not draw(st.booleans()):
            return ZeroSmooth()
        rows = draw(st.integers(1, 4))
        return LeastSquares(LinearMap(rng.standard_normal((rows, dim))), rng.standard_normal(rows))

    f1 = draw(st.sampled_from([L1Norm(0.3), NonnegIndicator(), ZeroProx()]))
    problem = SaddleProblem(f1=f1, f2=smooth(n), g1=ShiftedQuadratic(rng.standard_normal(m)),
                            g2=smooth(m), K=K)
    t1 = draw(st.floats(min_value=1.0, max_value=6.0))
    return problem, default_step_params(problem, t1=t1), draw(st.sampled_from(["option1", "option2"]))


@settings(max_examples=60, deadline=None)
@given(carried_cases())
def test_carried_kx_matches_the_direct_product(case):
    problem, params, option = case
    knorm, largest, seen = problem.K.norm(), 0.0, []

    def objective(x, kx):
        nonlocal largest
        largest = max(largest, float(np.linalg.norm(x)))
        seen.append(float(np.linalg.norm(kx - problem.K.apply(x))) / (knorm * largest or 1.0))
        return 0.0

    solve_iapd(problem, params, SolverOptions(max_iters=300, option=option), objective=objective)
    assert len(seen) == 300
    assert max(seen) <= KX_RTOL

    carried = []
    solve_iapd(problem, params, SolverOptions(max_iters=50, option=option),
               observer=lambda row, state: carried.append(state.kx))
    assert carried == [None] * 50


@pytest.mark.parametrize("family, seed", [("l1ls", 7), ("l1ls", 101), ("nnls", 11), ("nnls", 101)])
def test_carried_kx_changes_no_iterate_and_no_stop(family, seed):
    """At perfbench's tolerance, a stop on the carried K x is a stop on the direct one.

    iapd runs both options; FISTA and Tseng run as perfbench's FISTA solve.
    """
    if family == "l1ls":
        inst, eps = generate_l1ls(200, 400, 0.1, seed), 1e-4
    else:
        inst, eps = generate_nnls(400, 200, 0.1, seed), 1e-6
    problem = inst.problem
    params = preset_params(family, problem.K.norm())
    ref = compute_reference(problem, 20000, params=params, objective=inst.objective)
    tol = eps * max(1.0, abs(ref.objective_value))
    for option in ("option1", "option2"):
        opts = SolverOptions(max_iters=2000, option=option, gap_tol=tol, reference=ref)
        carried, _ = solve_iapd(problem, params, opts, objective=inst.objective)
        direct, _ = solve_iapd(problem, params, opts, objective=lambda x, kx: inst.objective(x))
        assert carried.k == direct.k < 2001
        assert carried.x.tobytes() == direct.x.tobytes()
        assert carried.y.tobytes() == direct.y.tobytes()
        assert inst.objective(carried.x) - ref.objective_value <= tol
    f2 = LeastSquares(problem.K, inst.b)
    opts = SolverOptions(max_iters=2000, gap_tol=tol, reference=ref)
    for solve in (solve_fista, solve_tseng):
        runs = [solve(problem.f1, f2, 1.0 / f2.lipschitz, opts, x0=np.zeros(problem.primal_dim),
                      objective=objective)
                for objective in (inst.objective, lambda x, kx: inst.objective(x))]
        (carried, carried_rows), (direct, direct_rows) = runs
        assert carried_rows[-1].k == direct_rows[-1].k < 2000
        assert carried.tobytes() == direct.tobytes()
        assert inst.objective(carried) - ref.objective_value <= tol


@st.composite
def apg_cases(draw):
    """A LeastSquares f2 on a random dense or CSR K, an f1, a nonzero x0, t1, FISTA or Tseng."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    mat = rng.standard_normal((m, n)) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)
    f1 = draw(st.sampled_from([L1Norm(0.3), NonnegIndicator(), ZeroProx()]))
    x0 = rng.standard_normal(n) * draw(st.sampled_from([0.1, 1.0, 10.0]))
    t1 = draw(st.floats(min_value=1.0, max_value=6.0))
    solve = draw(st.sampled_from([solve_fista, solve_tseng]))
    return f1, LeastSquares(K, rng.standard_normal(m)), x0, t1, solve


@settings(max_examples=60, deadline=None)
@given(apg_cases())
def test_apg_carried_kx_matches_the_direct_product_and_moves_no_iterate(case):
    f1, f2, x0, t1, solve = case
    K, opts = f2.mapping, SolverOptions(max_iters=300)
    knorm, largest, seen = K.norm(), float(np.linalg.norm(x0)), []

    def objective(x, kx):
        nonlocal largest
        largest = max(largest, float(np.linalg.norm(x)))
        seen.append(float(np.linalg.norm(kx - K.apply(x))) / (knorm * largest or 1.0))
        return 0.0

    def solve_watching(f2, objective):
        states = []
        solve(f1, f2, 1.0 / f2.lipschitz, opts, x0=x0, t1=t1, objective=objective,
              observer=lambda row, state: states.append((state.x.tobytes(), state.kx)))
        return states

    carried = solve_watching(f2, objective)
    assert len(seen) == 300
    assert max(seen) <= KX_RTOL
    plain = solve_watching(f2, None)
    assert [x for x, _ in carried] == [x for x, _ in plain]
    assert [kx for _, kx in plain] == [None] * 300
    quad = solve_watching(Quad(), lambda x, kx: 0.0)
    assert [kx for _, kx in quad] == [None] * 300


class NonFiniteFrom(L1Norm):
    """An l1 prox that returns ``value`` everywhere from its ``at``-th call on."""

    def __init__(self, weight, at, value):
        super().__init__(weight)
        self.at, self.value, self.calls = at, value, 0

    def prox(self, step, z):
        self.calls += 1
        out = super().prox(step, z)
        return out if self.calls < self.at else np.full_like(out, self.value)


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("solve", [solve_fista, solve_tseng])
def test_apg_non_finite_prox_diverges_at_its_call_with_the_carried_product(solve, value,
                                                                           gap_instance):
    """The look-ahead product of the non-finite iterate warns nothing before _drive flags it."""
    inst, _ = gap_instance
    f1, f2 = inst.problem.f1, LeastSquares(inst.problem.K, inst.b)
    x0, opts = np.zeros(inst.problem.primal_dim), SolverOptions(max_iters=40)
    _, clean = solve(f1, f2, 1.0 / f2.lipschitz, opts, x0=x0, objective=inst.objective)
    with warnings.catch_warnings(action="error"), pytest.raises(DivergenceError) as err:
        solve(NonFiniteFrom(f1.weight, 20, value), f2, 1.0 / f2.lipschitz, opts, x0=x0,
              objective=inst.objective)
    assert err.value.iteration == 20
    assert without_clock(err.value.rows) == without_clock(clean[:19])


# -- trace ----------------------------------------------------------------------


def test_a_trace_keeps_about_64_bytes_a_row():
    """A stride-1 trace of 2000 rows is float64 cells, not 2000 row objects of ~300 B."""
    inst = generate_l1ls(15, 25, 0.1, seed=1)
    params = preset_params("l1ls", inst.problem.K.norm())
    tracemalloc.start()
    try:
        state, trace = solve_iapd(inst.problem, params, SolverOptions(max_iters=2000),
                                  objective=inst.objective)
        held = tracemalloc.get_traced_memory()[0]
        del trace
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert state.k == 2001
    assert freed / 2000 <= 100


def test_a_trace_is_a_read_only_sequence_of_rebuilt_rows(gap_instance):
    inst, _ = gap_instance
    params = preset_params("l1ls", inst.problem.K.norm())
    _, trace = solve_iapd(inst.problem, params, SolverOptions(max_iters=12, observer_stride=3),
                          objective=inst.objective)
    rows = list(trace)
    assert isinstance(trace, Trace) and trace.algorithm == "iapd-op1"
    assert len(trace) == 4 and [r.k for r in rows] == [4, 7, 10, 13]
    assert all(type(r) is TraceRow and type(r.k) is int for r in rows)
    assert trace[-1] == rows[-1] and isinstance(trace[1:3], Trace)
    assert list(trace[1:3]) == rows[1:3]
    # NaN cells come back as the shared math.nan, so rebuilt rows compare equal
    assert rows[0].gap_ref is math.nan and list(trace) == rows
    assert list(Trace("iapd-op1", trace.cells.copy())) == rows
    assert trace.columns == ("k", "t_k", "objective", "gap_ref", "dx", "dy", "energy", "elapsed_s")
    objective = trace.column("objective")
    assert objective.tolist() == [r.objective for r in rows]
    assert np.shares_memory(objective, trace.cells)
    with pytest.raises(ValueError, match="read-only"):
        objective[0] = 0.0


def test_a_column_the_trace_lacks_is_named_with_the_columns_it_has():
    trace = Trace("fista", [[1.0, 2.0, 3.0, math.nan, 0.1, math.nan, math.nan, 0.0]])
    with pytest.raises(ValueError) as err:
        trace.column("v_dist_sq")
    assert str(err.value) == ("no column 'v_dist_sq'; the trace has k, t_k, objective, gap_ref, "
                              "dx, dy, energy, elapsed_s")


def test_a_row_is_recorded_as_it_stands_when_the_observer_returns(gap_instance):
    """Fills made in the observer are kept; a change to the row after it returns is not."""
    inst, _ = gap_instance
    params = preset_params("l1ls", inst.problem.K.norm())
    seen = []

    def observer(row, state):
        row.gap_ref = float(state.k)
        seen.append(row)

    _, trace = solve_iapd(inst.problem, params, SolverOptions(max_iters=5), observer)
    for row in seen:
        row.energy = -1.0
    assert trace.column("gap_ref").tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]
    assert np.isnan(trace.column("energy")).all()
