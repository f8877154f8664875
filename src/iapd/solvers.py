"""Accelerated primal-dual solver (Options 1 and 2) plus baseline schemes.

Every solver is a stepper (a generator yielding one state per iteration
with ``k, x, x_prev, y, y_prev, t``) run by the one driver ``_drive``,
which owns the stride, the gap stop, the clock and the trace rows. The
optional observer is invoked as ``observer(row, state)`` and reads
``state.x`` and ``state.y`` (None for primal-only methods); it may fill
the ``gap_ref`` and ``energy`` fields in place before the row is stored.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from dataclasses import dataclass
from itertools import count

import numpy as np

from .problem import ReferencePoint, SaddleProblem, StepParams, validate_params
from .proxfuns import ProxFunction, SmoothFunction, ZeroSmooth

__all__ = [
    "DivergenceError",
    "UnsupportedStructureError",
    "next_t",
    "IapdState",
    "SolverOptions",
    "TraceRow",
    "init_iapd_state",
    "iapd_step",
    "solve_iapd",
    "solve_pda",
    "solve_apda",
    "solve_fista",
    "solve_tseng",
]


class DivergenceError(RuntimeError):
    """A solver produced a non-finite iterate, the one with index ``iteration``.

    ``_drive`` attaches the trace rows recorded before it as ``rows``.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class UnsupportedStructureError(ValueError):
    """A baseline needs full-prox f and g (no composite smooth parts)."""


# -- extrapolation scalar sequence ----------------------------------------


def next_t(t: float, a: float) -> float:
    """min of the Nesterov branch and the strongly-convex branch sqrt(t^2 + a t)."""
    return min(0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)), math.sqrt(t * t + a * t))


# -- accelerated primal-dual ----------------------------------------------


@dataclass
class IapdState:
    """Full iterate state at index k (k = 1 is the initial state)."""

    x: np.ndarray
    x_prev: np.ndarray
    y: np.ndarray
    y_prev: np.ndarray
    u: np.ndarray
    v: np.ndarray
    v_prev: np.ndarray
    t: float
    t_next: float
    k: int = 1


@dataclass
class SolverOptions:
    max_iters: int
    option: str = "option1"
    observer_stride: int = 1
    gap_tol: float | None = None
    reference: ReferencePoint | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")
        if self.option not in ("option1", "option2"):
            raise ValueError(f"unknown option {self.option!r}")


@dataclass
class TraceRow:
    algorithm: str
    k: int
    t_k: float
    objective: float
    gap_ref: float = math.nan
    dx: float = math.nan
    dy: float = math.nan
    energy: float = math.nan
    elapsed_s: float = 0.0


def init_iapd_state(
    problem: SaddleProblem,
    params: StepParams,
    x0: np.ndarray | None = None,
    y0: np.ndarray | None = None,
) -> IapdState:
    """Initial state: u_1 = x_1 = x_0 and v_1 = v_0 = y_1 = y_0."""
    x0 = np.zeros(problem.primal_dim) if x0 is None else np.asarray(x0, dtype=np.float64)
    y0 = np.zeros(problem.dual_dim) if y0 is None else np.asarray(y0, dtype=np.float64)
    a = problem.mu_g * params.beta
    return IapdState(
        x=x0.copy(),
        x_prev=x0.copy(),
        y=y0.copy(),
        y_prev=y0.copy(),
        u=x0.copy(),
        v=y0.copy(),
        v_prev=y0.copy(),
        t=float(params.t1),
        t_next=next_t(params.t1, a),
        k=1,
    )


def iapd_step(
    problem: SaddleProblem,
    params: StepParams,
    state: IapdState,
    option: str = "option1",
) -> IapdState:
    """One accelerated primal-dual iteration; returns the advanced state.

    The input state is never written to. Each temporary is built in a fresh
    buffer and updated in place, in the same order of operations as the
    textbook form, so the result is bit for bit that of the unfused update.
    A vanished (``ZeroSmooth``) f2 or g2 contributes no gradient evaluation.
    """
    alpha, beta = params.alpha, params.beta
    t, t_next = state.t, state.t_next
    ratio = (t - 1.0) / t_next
    K, f2, g2 = problem.K, problem.f2, problem.g2

    # xbar = x + ratio (x - x_prev)
    xbar = np.subtract(state.x, state.x_prev)
    xbar *= ratio
    xbar += state.x

    # w = grad f2(xbar) + K^T (v + (t / t_next) (v - v_prev))
    v_extra = np.subtract(state.v, state.v_prev)
    v_extra *= t / t_next
    v_extra += state.v
    w = K.apply_adjoint(v_extra)
    if isinstance(f2, ZeroSmooth):
        w += 0.0  # as zeros + w: turns -0.0 into +0.0
    else:
        w += f2.grad(xbar)

    if option == "option1":
        w *= alpha
        x_next = problem.f1.prox(alpha, np.subtract(xbar, w, out=w))
        # u_next = x_next + (t_next - 1) (x_next - x), reusing the xbar buffer
        u_next = np.subtract(x_next, state.x, out=xbar)
        u_next *= t_next - 1.0
        u_next += x_next
    elif option == "option2":
        w *= alpha * t_next
        u_next = problem.f1.prox(alpha * t_next, np.subtract(state.u, w, out=w))
        x_next = np.multiply(state.x, t_next - 1.0)
        x_next += u_next
        x_next /= t_next
    else:
        raise ValueError(f"unknown option {option!r}")

    # v_next = prox_g1(v - dual_step (grad g2(ybar) - K u_next))
    dual_step = beta / t_next
    r = K.apply(u_next)
    if isinstance(g2, ZeroSmooth):
        np.subtract(0.0, r, out=r)  # as zeros - r: keeps 0 - 0 = +0.0
    else:
        ybar = np.subtract(state.y, state.y_prev)
        ybar *= ratio
        ybar += state.y
        np.subtract(g2.grad(ybar), r, out=r)
    r *= dual_step
    v_next = problem.g1.prox(dual_step, np.subtract(state.v, r, out=r))
    y_next = np.multiply(state.y, t_next - 1.0)
    y_next += v_next
    y_next /= t_next

    # y_next = ((t_next - 1) y + v_next) / t_next is non-finite whenever v_next
    # is, so checking x and y flags exactly the iterates a check of v would.
    if not (np.isfinite(x_next).all() and np.isfinite(y_next).all()):
        raise DivergenceError(f"non-finite iterate at iteration {state.k + 1}", state.k + 1)

    a = problem.mu_g * beta
    return IapdState(
        x=x_next,
        x_prev=state.x,
        y=y_next,
        y_prev=state.y,
        u=u_next,
        v=v_next,
        v_prev=state.v,
        t=t_next,
        t_next=next_t(t_next, a),
        k=state.k + 1,
    )


def _dist(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_2 of 1-D vectors: np.linalg.norm's own sqrt(d.dot(d)), minus its overhead."""
    d = a - b
    return math.sqrt(d.dot(d))


def _drive(name: str, opts: SolverOptions, states, observer, objective):
    """Run a stepper for up to ``opts.max_iters`` iterations; return (last state, rows).

    The objective is evaluated at most once per iteration, and only when a
    row or the gap stop needs it. A row is due at every multiple of the
    stride, at the last iteration and at the iterate where the gap stop
    fires. On divergence the rows so far ride on the error as ``rows``.
    """
    f_ref = None
    if opts.gap_tol is not None and opts.reference is not None and objective is not None:
        f_ref = opts.reference.objective_value
    rows: list[TraceRow] = []
    start = time.monotonic()
    try:
        for i, state in zip(range(1, opts.max_iters + 1), states):
            record = i % opts.observer_stride == 0 or i == opts.max_iters
            value = math.nan
            if objective is not None and (record or f_ref is not None):
                value = float(objective(state.x))
            stop = f_ref is not None and value - f_ref <= opts.gap_tol
            if record or stop:
                row = TraceRow(
                    algorithm=name,
                    k=state.k,
                    t_k=state.t,
                    objective=value,
                    dx=_dist(state.x, state.x_prev),
                    dy=math.nan if state.y is None else _dist(state.y, state.y_prev),
                    elapsed_s=time.monotonic() - start,
                )
                if observer is not None:
                    observer(row, state)
                rows.append(row)
            if stop:
                break
    except DivergenceError as err:
        err.rows = rows
        raise
    return state, rows


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
    report = validate_params(problem, params)
    if not report.ok:
        raise ValueError(f"invalid step parameters: {[str(v) for v in report.violations]}")
    if state is None:
        state = init_iapd_state(problem, params)
    name = name or ("iapd-op1" if opts.option == "option1" else "iapd-op2")

    def states(state):
        while True:
            state = iapd_step(problem, params, state, opts.option)
            yield state

    return _drive(name, opts, states(state), observer, objective)


# -- baselines -------------------------------------------------------------

# The state a baseline stepper yields; t is NaN for the primal-dual
# baselines, and y and y_prev are None for the primal-only ones.
_Iterate = namedtuple("_Iterate", "k x x_prev y y_prev t")


def _require_full_prox(problem: SaddleProblem, algorithm: str) -> None:
    if not isinstance(problem.f2, ZeroSmooth) or not isinstance(problem.g2, ZeroSmooth):
        raise UnsupportedStructureError(
            f"{algorithm} needs prox-friendly f and g; composite smooth parts are not supported"
        )


def _start(problem: SaddleProblem, x0, y0) -> tuple[np.ndarray, np.ndarray]:
    x = np.zeros(problem.primal_dim) if x0 is None else np.array(x0, dtype=np.float64)
    y = np.zeros(problem.dual_dim) if y0 is None else np.array(y0, dtype=np.float64)
    return x, y


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
    f1, g1, K = problem.f1, problem.g1, problem.K

    def states(x, y):
        for k in count(1):
            x_new = f1.prox(alpha, x - alpha * K.apply_adjoint(y))
            xbar = x_new + theta * (x_new - x)
            y_new = g1.prox(beta, y + beta * K.apply(xbar))
            if not np.isfinite(x_new).all():
                raise DivergenceError(f"non-finite iterate at iteration {k}", k)
            yield _Iterate(k, x_new, x, y_new, y, math.nan)
            x, y = x_new, y_new

    last, rows = _drive("pda", opts, states(*_start(problem, x0, y0)), observer, objective)
    return last.x, last.y, rows


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
    f1, g1, K = problem.f1, problem.g1, problem.K

    def states(x, y):
        xbar, tau, sigma = x, float(tau0), float(sigma0)
        for k in count(1):
            y_new = g1.prox(sigma, y + sigma * K.apply(xbar))
            x_new = f1.prox(tau, x - tau * K.apply_adjoint(y_new))
            theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * sigma)
            sigma *= theta
            tau /= theta
            xbar = x_new + theta * (x_new - x)
            if not np.isfinite(x_new).all():
                raise DivergenceError(f"non-finite iterate at iteration {k}", k)
            yield _Iterate(k, x_new, x, y_new, y, math.nan)
            x, y = x_new, y_new

    last, rows = _drive("apda", opts, states(*_start(problem, x0, y0)), observer, objective)
    return last.x, last.y, rows


def _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, name, option):
    """Accelerated proximal gradient for min f1 + f2: FISTA (option1) or Tseng (option2).

    The options differ exactly as iapd's do at K = 0: option1 takes the
    prox step from the extrapolated point, option2 from the auxiliary
    sequence u with step alpha t_{k+1} and averages x with it.
    """
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    if alpha > 1.0 / f2.lipschitz:
        raise ValueError(f"alpha must be <= 1/L = {1.0 / f2.lipschitz:.6g}")
    if x0 is None:
        raise ValueError("x0 is required")

    def states(x):
        x_prev = u = x
        t, t_next = float(t1), 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t1 * t1))
        for k in count(1):
            xbar = x + ((t - 1.0) / t_next) * (x - x_prev)
            if option == "option1":
                x_new = f1.prox(alpha, xbar - alpha * f2.grad(xbar))
            else:
                step = alpha * t_next
                u = f1.prox(step, u - step * f2.grad(xbar))
                x_new = ((t_next - 1.0) * x + u) / t_next
            x_prev, x = x, x_new
            t, t_next = t_next, 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_next * t_next))
            if not np.isfinite(x).all():
                raise DivergenceError(f"non-finite iterate at iteration {k}", k)
            yield _Iterate(k, x, x_prev, None, None, t)

    last, rows = _drive(name, opts, states(np.array(x0, dtype=np.float64)), observer, objective)
    return last.x, rows


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
    return _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, name, "option1")


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
    return _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, name, "option2")
