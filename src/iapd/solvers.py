"""Accelerated primal-dual solver (Options 1 and 2) plus baseline schemes.

Every solver is a stepper (a generator yielding one state per iteration
with ``k, x, x_prev, y, y_prev, t, kx``) run by the one driver ``_drive``, which
owns the divergence check, the stride, the gap stop, the clock and the rows.
Each iterate's distance to the one before is its divergence test: a finite
||x - x_prev|| proves x finite.
The objective is invoked as ``objective(x, kx)``, where ``kx`` is K x when
the stepper carries it and None otherwise: iapd carries it whenever it is
given an objective, FISTA and Tseng when they are given one and their f2 is
a ``LeastSquares``, whose mapping is then the K of ``kx``.
The optional observer is invoked as ``observer(row, state)`` with a fresh
``TraceRow`` and reads ``state.x`` and ``state.y`` (None for primal-only
methods); it may fill the ``objective``, ``gap_ref`` and ``energy`` fields
in place. The row is recorded as it stands when the observer returns: a
change made to it after that is not seen.
An observer that returns a truthy value ends the solve after that row: the
row is kept, and the solver returns that row's iterate.

A solve returns a read-only :class:`Trace` that keeps each row's 8 numbers
(``k`` to ``elapsed_s``) as float64 cells in one buffer: 64 bytes a row,
where a ``TraceRow`` object takes about 300. Indexing and iteration rebuild
rows; ``trace.column(name)`` is a read-only numpy view of one field.
"""

from __future__ import annotations

import math
import struct
import time
from array import array
from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import count
from operator import attrgetter

import numpy as np

from .problem import ReferencePoint, SaddleProblem, StepParams, validate_params
from .proxfuns import LeastSquares, ProxFunction, SmoothFunction, ZeroSmooth

__all__ = [
    "DivergenceError",
    "UnsupportedStructureError",
    "next_t",
    "IapdState",
    "SolverOptions",
    "Trace",
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

    Only ``_drive`` raises it, with the ``Trace`` recorded before it as ``rows``.
    """

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class UnsupportedStructureError(ValueError):
    """A baseline needs full-prox f and g (no composite smooth parts)."""


# -- extrapolation scalar sequence ----------------------------------------


def _nesterov_t(t: float) -> float:
    """The Nesterov update (1 + sqrt(1 + 4 t^2)) / 2, shared by iapd, FISTA and Tseng."""
    return 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))


def next_t(t: float, a: float) -> float:
    """min of the Nesterov branch and the strongly-convex branch sqrt(t^2 + a t)."""
    return min(_nesterov_t(t), math.sqrt(t * t + a * t))


# -- accelerated primal-dual ----------------------------------------------


@dataclass
class IapdState:
    """Full iterate state at index k (k = 1 is the initial state).

    ``kx``, when not None, is K x carried by the recurrence, not a product of
    its own; ``solve_iapd`` sets it only when it is given an objective.
    """

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
    kx: np.ndarray | None = None


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
        if (self.gap_tol is None) != (self.reference is None):
            raise ValueError("the gap stop needs both gap_tol and reference")
        if self.gap_tol is not None and not math.isfinite(self.gap_tol):
            raise ValueError(f"gap_tol must be finite, got {self.gap_tol}")


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


_row_cells = attrgetter(*[f.name for f in fields(TraceRow)][1:])  # k .. elapsed_s
_pack_row = struct.Struct("8d").pack  # a row's cells as array("d") bytes, in one call


class Trace(Sequence):
    """The records of one solve, read-only, as float64 cells: one row of ``cells`` per record.

    ``record`` is a dataclass of an optional ``algorithm``, an int ``k`` and
    floats: ``TraceRow``, or the benchmark's ``diagnostics.EnergyReport``
    (an iterate's energy, gap and dual distances). ``cells`` (flat or as
    rows, in field order) is viewed without a copy. Indexing and iteration
    rebuild records, every NaN cell as ``math.nan``, so records rebuilt from
    identical cells compare equal; a slice is a trace. A trace defines no
    equality of its own: compare ``list(trace)`` or its cells.
    """

    def __init__(self, algorithm: str, cells=(), record=TraceRow):
        self.algorithm, self.record = algorithm, record
        names = [f.name for f in fields(record)]
        self._head = (algorithm,) if names[0] == "algorithm" else ()
        self.columns = tuple(names[len(self._head):])
        self.cells = np.asarray(cells, dtype=np.float64).reshape(-1, len(self.columns))
        self.cells.flags.writeable = False

    def column(self, name: str) -> np.ndarray:
        if name not in self.columns:
            raise ValueError(f"no column {name!r}; the trace has {', '.join(self.columns)}")
        return self.cells[:, self.columns.index(name)]

    def _rebuild(self, cells: list[float]):
        k, *rest = [math.nan if c != c else c for c in cells]
        return self.record(*self._head, int(k), *rest)

    def __len__(self) -> int:
        return len(self.cells)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace(self.algorithm, self.cells[i], self.record)
        return self._rebuild(self.cells[i].tolist())

    def __iter__(self):
        return map(self._rebuild, self.cells.tolist())


def init_iapd_state(problem: SaddleProblem, params: StepParams) -> IapdState:
    """Initial state at the origin: u_1 = x_1 = x_0 = 0 and v_1 = v_0 = y_1 = y_0 = 0."""
    a = problem.mu_g * params.beta
    return IapdState(
        x=np.zeros(problem.primal_dim),
        x_prev=np.zeros(problem.primal_dim),
        y=np.zeros(problem.dual_dim),
        y_prev=np.zeros(problem.dual_dim),
        u=np.zeros(problem.primal_dim),
        v=np.zeros(problem.dual_dim),
        v_prev=np.zeros(problem.dual_dim),
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
    A state that carries ``kx`` gets K x_next = ((t_next - 1) K x + K u_next)
    / t_next, which both options' x_next satisfy, from the K u_next the dual
    step computes anyway. A non-finite result is returned as it is; ``_drive``
    flags it.
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
    kx_next = None
    if state.kx is not None:  # before r is reused
        kx_next = np.multiply(state.kx, t_next - 1.0)
        kx_next += r
        kx_next /= t_next
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

    # x, x_prev, y, y_prev, u, v, v_prev, t, t_next, k, kx; a = mu_g beta
    return IapdState(x_next, state.x, y_next, state.y, u_next, v_next, state.v, t_next,
                     next_t(t_next, problem.g1.strong_convexity * beta), state.k + 1, kx_next)


def _drive(name: str, opts: SolverOptions, states, observer, objective):
    """Run a stepper for up to ``opts.max_iters`` iterations; return (last state, trace).

    The objective is evaluated at most once per iteration, as
    ``objective(state.x, state.kx)``, and only when a row or the gap stop
    needs it. A row is due at every multiple of the stride, at the last
    iteration and at the iterate where the gap stop fires. A row's
    ``elapsed_s`` is solver time: the clock is paused while the objective
    and the observer run.
    The divergence test is the distance, taken every iteration: ``dx`` =
    sqrt(d.d) with d = x - x_prev, and ``dy`` the same for y. An inf or NaN
    entry of x is inf or NaN in d, so a finite d.d proves x finite; every
    entry is tested only when it is not. A non-finite x or y raises
    DivergenceError naming its k, with the trace so far as ``rows``. The dot
    product never warns, but x - x_prev draws numpy's overflow warning when
    an entry of x lies more than the largest double from x_prev's, on a
    recorded row or not. A gap stop without an objective raises ValueError.
    The observer's ``TraceRow`` is stored as cells when it returns, and
    without an observer none is built. A truthy return from the observer
    ends the run after its row is stored.
    """
    max_iters, stride, gap_tol = opts.max_iters, opts.observer_stride, opts.gap_tol
    f_ref = None
    if gap_tol is not None:
        if objective is None:
            raise ValueError("the gap stop needs an objective")
        f_ref = opts.reference.objective_value
    cells = array("d")  # k .. elapsed_s of each row; the Trace views it once the run ends
    clock = time.monotonic_ns
    paused = 0  # ns spent in the objective and the observer; integers keep elapsed_s monotone
    vdot, isfinite, sqrt, nan = np.vdot, math.isfinite, math.sqrt, math.nan

    def distance(v, prev):
        # ||v - prev||, or None when v is not finite
        d = v - prev
        s = vdot(d, d)
        return sqrt(s) if isfinite(s) or np.isfinite(v).all() else None

    start = clock()
    for i, state in zip(range(1, max_iters + 1), states):
        x, y = state.x, state.y
        record = i % stride == 0 or i == max_iters
        # iapd's y = ((t - 1) y_prev + v) / t is non-finite whenever v is, so
        # checking x and y flags exactly the iterates a check of v would.
        dx = distance(x, state.x_prev)
        dy = nan if y is None or dx is None else distance(y, state.y_prev)
        if dx is None or dy is None:
            err = DivergenceError(f"non-finite iterate at iteration {state.k}", state.k)
            err.rows = Trace(name, cells)
            raise err
        value = nan
        if objective is not None and (record or f_ref is not None):
            pause = clock()
            value = float(objective(x, state.kx))
            paused += clock() - pause
        stop = f_ref is not None and value - f_ref <= gap_tol
        if record or stop:  # a gap stop between multiples of the stride keeps its row
            # the cells of TraceRow(name, k, t_k, objective, gap_ref, dx, dy, energy, elapsed_s)
            row_cells = (state.k, state.t, value, nan, dx, dy, nan,
                         (clock() - start - paused) / 1e9)
            if observer is not None:
                pause = clock()
                row = TraceRow(name, *row_cells)
                stop = observer(row, state) or stop
                row_cells = _row_cells(row)
                paused += clock() - pause
            cells.frombytes(_pack_row(*row_cells))
        if stop:
            break
    return state, Trace(name, cells)


def solve_iapd(
    problem: SaddleProblem,
    params: StepParams,
    opts: SolverOptions,
    observer=None,
    objective=None,
) -> tuple[IapdState, Trace]:
    """Iterate the accelerated primal-dual scheme from ``init_iapd_state``.

    The trace rows are named ``iapd-op1`` or ``iapd-op2`` after the option.
    Raises ValueError for infeasible parameters. On divergence the partial
    trace is attached to the raised :class:`DivergenceError` as ``rows``.
    With an ``objective``, each state carries ``kx`` = K x, starting from
    K x_1 = 0, so the objective needs no product of its own; without one,
    ``kx`` stays None.
    """
    validate_params(problem, params)
    name = "iapd-op1" if opts.option == "option1" else "iapd-op2"

    def states(state, option=opts.option):
        while True:
            state = iapd_step(problem, params, state, option)
            yield state

    state = init_iapd_state(problem, params)
    if objective is not None:
        state.kx = np.zeros(problem.dual_dim)
    return _drive(name, opts, states(state), observer, objective)


# -- baselines -------------------------------------------------------------

# The state a baseline stepper yields; t is NaN for the primal-dual
# baselines, y and y_prev are None for the primal-only ones, and kx is
# None except for FISTA and Tseng carrying f2.mapping x (see _solve_apg).
_Iterate = namedtuple("_Iterate", "k x x_prev y y_prev t kx", defaults=(None,))


def _require_full_prox(problem: SaddleProblem, algorithm: str) -> None:
    if not isinstance(problem.f2, ZeroSmooth) or not isinstance(problem.g2, ZeroSmooth):
        raise UnsupportedStructureError(
            f"{algorithm} needs prox-friendly f and g; composite smooth parts are not supported"
        )


def solve_pda(
    problem: SaddleProblem,
    alpha: float,
    beta: float,
    opts: SolverOptions,
    observer=None,
    objective=None,
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Fixed-step primal-dual iteration (Chambolle-Pock) with extrapolation theta = 1.

    Starts from x = y = 0.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be positive")
    _require_full_prox(problem, "pda")
    f1, g1, K = problem.f1, problem.g1, problem.K

    def states():
        x, y = np.zeros(problem.primal_dim), np.zeros(problem.dual_dim)
        for k in count(1):
            x_new = f1.prox(alpha, x - alpha * K.apply_adjoint(y))
            xbar = x_new + (x_new - x)
            y_new = g1.prox(beta, y + beta * K.apply(xbar))
            yield _Iterate(k, x_new, x, y_new, y, math.nan)
            x, y = x_new, y_new

    last, rows = _drive("pda", opts, states(), observer, objective)
    return last.x, last.y, rows


def solve_apda(
    problem: SaddleProblem,
    tau0: float,
    sigma0: float,
    opts: SolverOptions,
    observer=None,
    objective=None,
) -> tuple[np.ndarray, np.ndarray, Trace]:
    """Adaptive-step primal-dual baseline exploiting dual strong convexity.

    Steps follow theta_k = 1/sqrt(1 + 2 gamma sigma_k), sigma <- theta sigma,
    tau <- tau/theta, with gamma = ``problem.mu_g``. Starts from x = y = 0.
    """
    _require_full_prox(problem, "apda")
    knorm = problem.K.norm()
    if tau0 <= 0 or sigma0 <= 0:
        raise ValueError("tau0 and sigma0 must be positive")
    if tau0 * sigma0 * knorm**2 > 1.0 + 1e-12:
        raise ValueError("need tau0 * sigma0 * ||K||^2 <= 1")
    f1, g1, K, gamma = problem.f1, problem.g1, problem.K, problem.mu_g

    def states():
        x, y = np.zeros(problem.primal_dim), np.zeros(problem.dual_dim)
        xbar, tau, sigma = x, float(tau0), float(sigma0)
        for k in count(1):
            y_new = g1.prox(sigma, y + sigma * K.apply(xbar))
            x_new = f1.prox(tau, x - tau * K.apply_adjoint(y_new))
            theta = 1.0 / math.sqrt(1.0 + 2.0 * gamma * sigma)
            sigma *= theta
            tau /= theta
            xbar = x_new + theta * (x_new - x)
            yield _Iterate(k, x_new, x, y_new, y, math.nan)
            x, y = x_new, y_new

    last, rows = _drive("apda", opts, states(), observer, objective)
    return last.x, last.y, rows


def _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, option):
    """Accelerated proximal gradient for min f1 + f2: FISTA (option1) or Tseng (option2).

    The options differ exactly as iapd's do at K = 0: option1 takes the
    prox step from the extrapolated point, option2 from the auxiliary
    sequence u with step alpha t_{k+1} and averages x with it.

    Given an objective and a ``LeastSquares`` f2 = 0.5 ||A x - b||^2, each
    iterate carries ``kx`` = A x, where A is ``f2.mapping``, so the
    objective needs no product of its own; otherwise ``kx`` stays None. The
    stepper forms the next extrapolated point xbar = (1 + c) x - c x_prev,
    c = (t - 1) / t_next in [0, 1), before it yields x and takes z = A xbar
    there, the product the next gradient A^T (z - b) needs anyway; then
    A x = (z + c A x_prev) / (1 + c). The iterates are bit for bit those
    without an objective, and a gap-stopped iteration takes two products
    with A, plus one look-ahead product at the stop.
    """
    if f2.lipschitz <= 0:
        raise ValueError("f2 must have a positive Lipschitz constant")
    if alpha > 1.0 / f2.lipschitz:
        raise ValueError(f"alpha must be <= 1/L = {1.0 / f2.lipschitz:.6g}")
    x0 = np.array(x0, dtype=np.float64)
    if not np.isfinite(x0).all():
        raise ValueError("x0 contains non-finite entries")
    carry = objective is not None and isinstance(f2, LeastSquares)

    def look_ahead(xbar):
        # xbar is non-finite when x is; a dense product then warns before _drive flags x
        with np.errstate(invalid="ignore"):
            return f2.mapping.apply(xbar)

    def states(x):
        x_prev = u = x
        t, t_next = float(t1), _nesterov_t(t1)
        xbar = x + ((t - 1.0) / t_next) * (x - x_prev)
        kx = z = look_ahead(xbar) if carry else None  # xbar = x here
        for k in count(1):
            grad = f2.grad_from_product(z) if carry else f2.grad(xbar)
            if option == "option1":
                x_new = f1.prox(alpha, xbar - alpha * grad)
            else:
                step = alpha * t_next
                u = f1.prox(step, u - step * grad)
                x_new = ((t_next - 1.0) * x + u) / t_next
            x_prev, x = x, x_new
            t, t_next = t_next, _nesterov_t(t_next)
            c = (t - 1.0) / t_next
            xbar = x + c * (x - x_prev)
            if carry:
                z = look_ahead(xbar)
                kx = (z + c * kx) / (1.0 + c)
            yield _Iterate(k, x, x_prev, None, None, t, kx)

    name = "fista" if option == "option1" else "tseng"
    last, rows = _drive(name, opts, states(x0), observer, objective)
    return last.x, rows


def solve_fista(
    f1: ProxFunction,
    f2: SmoothFunction,
    alpha: float,
    opts: SolverOptions,
    observer=None,
    *,
    x0: np.ndarray,
    t1: float = 1.0,
    objective=None,
) -> tuple[np.ndarray, Trace]:
    """Accelerated proximal gradient for min f1 + f2 (Beck-Teboulle scheme)."""
    return _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, "option1")


def solve_tseng(
    f1: ProxFunction,
    f2: SmoothFunction,
    alpha: float,
    opts: SolverOptions,
    observer=None,
    *,
    x0: np.ndarray,
    t1: float = 1.0,
    objective=None,
) -> tuple[np.ndarray, Trace]:
    """Accelerated proximal gradient with Tseng's auxiliary-sequence update."""
    return _solve_apg(f1, f2, alpha, opts, observer, x0, t1, objective, "option2")
