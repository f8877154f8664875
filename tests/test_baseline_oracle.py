"""Property tests of the solver driver against a reference copy of the two-loop solvers.

The functions below the "reference copy" banner are the earlier solvers
verbatim: ``solve_iapd`` with its own loop, and the four baselines keeping
their state in a mutable dict driven by ``_trace_loop``. Three lines moved
with the library: ``validate_params`` raises, ``_trace_loop`` counts a
non-finite dual iterate as divergence, as iapd, pda and apda do, and
``solve_iapd`` checks each step's x and y itself, since ``iapd_step`` no
longer does. The copy ignores a gap stop without an objective, which the
library refuses. The library runs all six through one driver and one
stepper per method; these tests hold it to the copy on random instances,
strides, gap stops and divergences.
Every field of every trace row except ``elapsed_s`` must match, and so
must the returned iterates and what the observer is shown.
"""

import math
import time
from dataclasses import astuple, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd import solvers
from iapd.bench import generate_l1ls
from iapd.linalg import LinearMap
from iapd.problem import ReferencePoint, SaddleProblem, StepParams, default_step_params, validate_params
from iapd.proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ProxFunction,
    ShiftedQuadratic,
    SmoothFunction,
    ZeroSmooth,
)
from iapd.solvers import (
    DivergenceError,
    IapdState,
    SolverOptions,
    TraceRow,
    UnsupportedStructureError,
    iapd_step,
    init_iapd_state,
)

from helpers import ZeroProx

# -- reference copy --------------------------------------------------------


def _gap_reference(opts: SolverOptions, objective) -> float | None:
    """The reference value a gap-stopped solve compares against; None if it never stops early."""
    if opts.gap_tol is None or opts.reference is None or objective is None:
        return None
    return opts.reference.objective_value


def _observe(i: int, opts: SolverOptions, objective, f_ref: float | None, x) -> tuple[bool, float, bool]:
    """(row due, objective value, stop) after iteration i with iterate x.

    The objective is evaluated at most once, and only when a row or the gap
    stop needs it. A row is due at every multiple of the stride, at the last
    iteration and at the iterate where the gap stop fires.
    """
    record = i % opts.observer_stride == 0 or i == opts.max_iters
    value = math.nan
    if objective is not None and (record or f_ref is not None):
        value = float(objective(x))
    stop = f_ref is not None and value - f_ref <= opts.gap_tol
    return record or stop, value, stop


def solve_iapd(
    problem: SaddleProblem,
    params: StepParams,
    opts: SolverOptions,
    observer=None,
    state: IapdState | None = None,
    objective=None,
    name: str | None = None,
) -> tuple[IapdState, list[TraceRow]]:
    """Iterate the accelerated primal-dual scheme under the given options.

    Raises ValueError for infeasible parameters. On divergence the partial
    trace is attached to the raised :class:`DivergenceError` as ``rows``.
    """
    validate_params(problem, params)
    if state is None:
        state = init_iapd_state(problem, params)
    name = name or ("iapd-op1" if opts.option == "option1" else "iapd-op2")

    f_ref = _gap_reference(opts, objective)
    rows: list[TraceRow] = []
    start = time.monotonic()
    for i in range(1, opts.max_iters + 1):
        state = iapd_step(problem, params, state, opts.option)
        if not (np.isfinite(state.x).all() and np.isfinite(state.y).all()):
            err = DivergenceError(f"non-finite iterate at iteration {state.k}")
            err.rows = rows
            raise err
        record, value, stop = _observe(i, opts, objective, f_ref, state.x)
        if record:
            row = TraceRow(
                algorithm=name,
                k=state.k,
                t_k=state.t,
                objective=value,
                dx=float(np.linalg.norm(state.x - state.x_prev)),
                dy=float(np.linalg.norm(state.y - state.y_prev)),
                elapsed_s=time.monotonic() - start,
            )
            if observer is not None:
                observer(row, state)
            rows.append(row)
        if stop:
            break
    return state, rows



def _require_full_prox(problem: SaddleProblem, algorithm: str) -> None:
    if not isinstance(problem.f2, ZeroSmooth) or not isinstance(problem.g2, ZeroSmooth):
        raise UnsupportedStructureError(
            f"{algorithm} needs prox-friendly f and g; composite smooth parts are not supported"
        )


def _trace_loop(name, opts, iterate, x_of, y_of, t_of, observer, objective):
    """Shared driver: run ``iterate(i)`` max_iters times, recording rows."""
    f_ref = _gap_reference(opts, objective)
    rows: list[TraceRow] = []
    start = time.monotonic()
    x_prev = x_of()
    y_prev = y_of() if y_of else None
    for i in range(1, opts.max_iters + 1):
        iterate(i)
        x = x_of()
        if not (np.isfinite(x).all() and (y_of is None or np.isfinite(y_of()).all())):
            err = DivergenceError(f"non-finite iterate at iteration {i}")
            err.rows = rows
            raise err
        record, value, stop = _observe(i, opts, objective, f_ref, x)
        if record:
            y = y_of() if y_of else None
            row = TraceRow(
                algorithm=name,
                k=i,
                t_k=t_of() if t_of else math.nan,
                objective=value,
                dx=float(np.linalg.norm(x - x_prev)),
                dy=float(np.linalg.norm(y - y_prev)) if y is not None else math.nan,
                elapsed_s=time.monotonic() - start,
            )
            if observer is not None:
                observer(row, {"x": x, "y": y})
            rows.append(row)
        x_prev = x
        if y_of:
            y_prev = y_of()
        if stop:
            break
    return rows


def solve_pda(
    problem: SaddleProblem,
    alpha: float,
    beta: float,
    theta: float,
    opts: SolverOptions,
    observer=None,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
    objective=None,
) -> tuple[np.ndarray, np.ndarray, list[TraceRow]]:
    """Fixed-step primal-dual iteration with extrapolation parameter theta.

    theta = 0 gives the plain alternating (Arrow-Hurwicz) ordering.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    if not 0 <= theta <= 1:
        raise ValueError("theta must lie in [0, 1]")
    _require_full_prox(problem, "pda")

    x = np.zeros(problem.primal_dim) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    y = np.zeros(problem.dual_dim) if y0 is None else np.asarray(y0, dtype=np.float64).copy()
    box = {"x": x, "y": y}

    def iterate(_i):
        x_new = problem.f1.prox(alpha, box["x"] - alpha * problem.K.apply_adjoint(box["y"]))
        xbar = x_new + theta * (x_new - box["x"])
        box["y"] = problem.g1.prox(beta, box["y"] + beta * problem.K.apply(xbar))
        box["x"] = x_new

    rows = _trace_loop("pda", opts, iterate, lambda: box["x"], lambda: box["y"], None, observer, objective)
    return box["x"], box["y"], rows


def solve_apda(
    problem: SaddleProblem,
    tau0: float,
    sigma0: float,
    gamma: float,
    opts: SolverOptions,
    observer=None,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
    objective=None,
) -> tuple[np.ndarray, np.ndarray, list[TraceRow]]:
    """Adaptive-step primal-dual baseline exploiting dual strong convexity.

    Steps follow theta_k = 1/sqrt(1 + 2 gamma sigma_k), sigma <- theta sigma,
    tau <- tau/theta; gamma = 0 freezes the scheme to fixed-step form.
    """
    _require_full_prox(problem, "apda")
    knorm = problem.K.norm()
    if tau0 <= 0 or sigma0 <= 0:
        raise ValueError("tau0 and sigma0 must be positive")
    if tau0 * sigma0 * knorm**2 > 1.0 + 1e-12:
        raise ValueError("need tau0 * sigma0 * ||K||^2 <= 1")
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")

    x = np.zeros(problem.primal_dim) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    y = np.zeros(problem.dual_dim) if y0 is None else np.asarray(y0, dtype=np.float64).copy()
    box = {"x": x, "y": y, "xbar": x.copy(), "tau": float(tau0), "sigma": float(sigma0)}

    def iterate(_i):
        box["y"] = problem.g1.prox(box["sigma"], box["y"] + box["sigma"] * problem.K.apply(box["xbar"]))
        x_new = problem.f1.prox(box["tau"], box["x"] - box["tau"] * problem.K.apply_adjoint(box["y"]))
        theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * box["sigma"])
        box["sigma"] *= theta
        box["tau"] /= theta
        box["xbar"] = x_new + theta * (x_new - box["x"])
        box["x"] = x_new

    rows = _trace_loop("apda", opts, iterate, lambda: box["x"], lambda: box["y"], None, observer, objective)
    return box["x"], box["y"], rows


def solve_fista(
    f1: ProxFunction,
    f2: SmoothFunction,
    alpha: float,
    opts: SolverOptions,
    observer=None,
    x0: np.ndarray | None = None,
    t1: float = 1.0,
    objective=None,
    name: str = "fista",
) -> tuple[np.ndarray, list[TraceRow]]:
    """Accelerated proximal gradient for min f1 + f2 (Beck-Teboulle scheme)."""
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    if alpha > 1.0 / f2.lipschitz:
        raise ValueError(f"alpha must be <= 1/L = {1.0 / f2.lipschitz:.6g}")
    if x0 is None:
        raise ValueError("x0 is required")

    box = {
        "x": np.asarray(x0, dtype=np.float64).copy(),
        "x_prev": np.asarray(x0, dtype=np.float64).copy(),
        "t": float(t1),
        "t_next": 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1)),
    }

    def iterate(_i):
        t, t_next = box["t"], box["t_next"]
        xbar = box["x"] + ((t - 1.0) / t_next) * (box["x"] - box["x_prev"])
        box["x_prev"] = box["x"]
        box["x"] = f1.prox(alpha, xbar - alpha * f2.grad(xbar))
        box["t"] = t_next
        box["t_next"] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_next * t_next))

    rows = _trace_loop(name, opts, iterate, lambda: box["x"], None, lambda: box["t"], observer, objective)
    return box["x"], rows


def solve_tseng(
    f1: ProxFunction,
    f2: SmoothFunction,
    alpha: float,
    opts: SolverOptions,
    observer=None,
    x0: np.ndarray | None = None,
    t1: float = 1.0,
    objective=None,
    name: str = "tseng",
) -> tuple[np.ndarray, list[TraceRow]]:
    """Accelerated proximal gradient with Tseng's auxiliary-sequence update."""
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    if alpha > 1.0 / f2.lipschitz:
        raise ValueError(f"alpha must be <= 1/L = {1.0 / f2.lipschitz:.6g}")
    if x0 is None:
        raise ValueError("x0 is required")

    x0 = np.asarray(x0, dtype=np.float64)
    box = {
        "x": x0.copy(),
        "x_prev": x0.copy(),
        "u": x0.copy(),
        "t": float(t1),
        "t_next": 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1)),
    }

    def iterate(_i):
        t, t_next = box["t"], box["t_next"]
        xbar = box["x"] + ((t - 1.0) / t_next) * (box["x"] - box["x_prev"])
        step = alpha * t_next
        u_next = f1.prox(step, box["u"] - step * f2.grad(xbar))
        box["x_prev"] = box["x"]
        box["x"] = ((t_next - 1.0) * box["x"] + u_next) / t_next
        box["u"] = u_next
        box["t"] = t_next
        box["t_next"] = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_next * t_next))

    rows = _trace_loop(name, opts, iterate, lambda: box["x"], None, lambda: box["t"], observer, objective)
    return box["x"], rows


# -- helpers -----------------------------------------------------------------


class PoisonedProx(ProxFunction):
    """Wraps a prox and returns NaN from its ``at``-th call on (None: never)."""

    def __init__(self, inner: ProxFunction, at):
        self.inner = inner
        self.strong_convexity = inner.strong_convexity
        self.at = at
        self.calls = 0

    def value(self, x):
        return self.inner.value(x)

    def prox(self, step, z):
        self.calls += 1
        out = self.inner.prox(step, z)
        return out if self.at is None or self.calls < self.at else np.full_like(out, math.nan)


def row_fields(rows):
    """Every field but elapsed_s, floats by repr so NaN equals NaN and -0.0 differs from 0.0."""
    return [tuple(repr(v) for v in astuple(replace(r, elapsed_s=0.0))) for r in rows]


class Recorder:
    """An observer that writes a value derived from the iterate into the row and keeps copies.

    The reference baselines show it a dict, the library a state with attributes.
    """

    def __init__(self):
        self.seen = []

    def __call__(self, row, state):
        x, y = (state["x"], state["y"]) if isinstance(state, dict) else (state.x, state.y)
        row.gap_ref = float(x @ x) + (float(y @ y) if y is not None else 0.0)
        self.seen.append((x.copy(), None if y is None else y.copy()))


def run(library: bool, name, problem, f2, opts, observer, objective, t1):
    """Returned arrays and rows of one solve, by the library or by the reference copy.

    The copies of pda and apda still take theta and gamma; the library fixes
    them at 1 and mu_g, so the copies are called with exactly those.
    """
    knorm = problem.K.norm()
    if name.startswith("iapd"):
        solve = solvers.solve_iapd if library else solve_iapd
        opts = replace(opts, option="option1" if name == "iapd-op1" else "option2")
        state, rows = solve(problem, default_step_params(problem, t1=t1), opts, observer=observer,
                            objective=objective)
        return (state.x, state.x_prev, state.y, state.y_prev, state.u, state.v, state.v_prev), rows
    if name == "pda":
        solve = solvers.solve_pda if library else solve_pda
        theta = () if library else (1.0,)
        x, y, rows = solve(problem, 1.0 / (20.0 * knorm), 20.0 / knorm, *theta, opts,
                           observer=observer, objective=objective)
        return (x, y), rows
    if name == "apda":
        solve = solvers.solve_apda if library else solve_apda
        gamma = () if library else (problem.mu_g,)
        x, y, rows = solve(problem, 1.0 / knorm, 1.0 / knorm, *gamma, opts,
                           observer=observer, objective=objective)
        return (x, y), rows
    if name == "fista":
        solve = solvers.solve_fista if library else solve_fista
    else:
        solve = solvers.solve_tseng if library else solve_tseng
    x, rows = solve(problem.f1, f2, 1.0 / f2.lipschitz, opts, observer=observer,
                    x0=np.zeros(problem.primal_dim), t1=t1, objective=objective)
    return (x,), rows


def outcome(library, name, problem, f2, opts, observer, objective, t1):
    try:
        return run(library, name, problem, f2, opts, observer, objective, t1), None
    except DivergenceError as err:
        return (None, err.rows), str(err)


# -- strategies ------------------------------------------------------------

NAMES = ("iapd-op1", "iapd-op2", "pda", "apda", "fista", "tseng")


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    mat = rng.standard_normal((m, n))
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)
    b = rng.standard_normal(m)
    f1 = draw(st.sampled_from([L1Norm(0.1), NonnegIndicator(), ZeroProx()]))
    max_iters = draw(st.integers(1, 40))
    # A NaN from the primal or the dual prox at a drawn call, or none.
    poison_at = draw(st.one_of(st.none(), st.integers(1, max_iters)))
    dual_poison = draw(st.booleans())
    problem = SaddleProblem(f1=PoisonedProx(f1, None if dual_poison else poison_at), f2=ZeroSmooth(),
                            g1=PoisonedProx(ShiftedQuadratic(b), poison_at if dual_poison else None),
                            g2=ZeroSmooth(), K=K)
    return dict(
        name=draw(st.sampled_from(NAMES)),
        problem=problem,
        b=b,
        max_iters=max_iters,
        stride=draw(st.integers(1, 7)),
        gap_stop=draw(st.one_of(st.none(), st.integers(1, max_iters))),
        with_objective=draw(st.booleans()),
        with_observer=draw(st.booleans()),
        t1=draw(st.sampled_from([1.0, 1.5, 5.0])),
    )


# -- properties ------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(cases())
def test_driver_matches_reference_copy(case):
    name, problem = case["name"], case["problem"]
    f2 = LeastSquares(problem.K, case["b"])

    def objective(x):
        r = problem.K.apply(x) - case["b"]
        return problem.f1.inner.value(x) + 0.5 * float(r @ r)

    opts = SolverOptions(max_iters=case["max_iters"], observer_stride=case["stride"])
    if case["gap_stop"] is not None:
        # Stop where an unstopped, unpoisoned run first reaches its gap_stop-th objective value.
        clean = replace(problem, f1=problem.f1.inner, g1=problem.g1.inner)
        _, full = run(True, name, clean, f2, replace(opts, observer_stride=1), None, objective,
                      case["t1"])
        opts = replace(opts, gap_tol=full[case["gap_stop"] - 1].objective,
                       reference=ReferencePoint(None, None, 0.0, 0.0))
        if not case["with_objective"]:
            # The copy ignores a gap stop it cannot evaluate; the library refuses it.
            with pytest.raises(ValueError, match="the gap stop needs an objective"):
                run(True, name, problem, f2, opts, None, None, case["t1"])
            return
    objective = objective if case["with_objective"] else None

    results = []
    for library in (False, True):
        problem.f1.calls = problem.g1.calls = 0
        observer = Recorder() if case["with_observer"] else None
        with np.errstate(all="ignore"):
            got, message = outcome(library, name, problem, f2, opts, observer, objective,
                                   case["t1"])
        results.append((got, message, observer))

    (want_arrays, want_rows), want_msg, want_obs = results[0]
    (got_arrays, got_rows), got_msg, got_obs = results[1]
    assert got_msg == want_msg
    assert row_fields(got_rows) == row_fields(want_rows)
    if want_arrays is not None:
        assert len(got_arrays) == len(want_arrays)
        for g, w in zip(got_arrays, want_arrays):
            assert g.tobytes() == w.tobytes()
    if want_obs is not None:
        assert len(got_obs.seen) == len(want_obs.seen)
        for (gx, gy), (wx, wy) in zip(got_obs.seen, want_obs.seen):
            assert gx.tobytes() == wx.tobytes()
            assert (gy is None and wy is None) or gy.tobytes() == wy.tobytes()


@pytest.mark.parametrize("name", NAMES)
def test_divergence_names_the_iteration_and_keeps_the_rows(name):
    """Each solver calls the primal prox once per iteration; a NaN from call 17 diverges there."""
    inst = generate_l1ls(20, 30, 0.1, seed=2)
    f2 = LeastSquares(inst.problem.K, inst.b)
    opts = SolverOptions(max_iters=40, observer_stride=3)
    _, clean = run(True, name, inst.problem, f2, opts, None, inst.objective, 5.0)
    poisoned = replace(inst.problem, f1=PoisonedProx(inst.problem.f1, 17))

    with pytest.raises(DivergenceError) as err, np.errstate(invalid="ignore"):
        run(True, name, poisoned, f2, opts, None, inst.objective, 5.0)

    offset = 1 if name.startswith("iapd") else 0  # iapd numbers its initial state k = 1
    assert str(err.value) == f"non-finite iterate at iteration {17 + offset}"
    so_far = [row for row in clean if row.k - offset < 17]
    assert [row.k - offset for row in so_far] == [3, 6, 9, 12, 15]
    assert row_fields(err.value.rows) == row_fields(so_far)
