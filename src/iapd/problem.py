"""Saddle-point problem model, Lagrangian, step-size feasibility, reference points."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import LinearMap
from .proxfuns import (L1Norm, NonnegIndicator, ProxFunction, ShiftedQuadratic, SmoothFunction,
                       ZeroSmooth)

__all__ = [
    "SaddleProblem",
    "StepParams",
    "ReferencePoint",
    "validate_params",
    "default_step_params",
    "compute_reference",
]


@dataclass(frozen=True)
class SaddleProblem:
    """min_x max_y  f1(x) + f2(x) + <Kx, y> - g1(y) - g2(y).

    g1 must be strongly convex (modulus > 0); nonemptiness of the saddle
    set is a caller obligation and is not checked.
    """

    f1: ProxFunction
    f2: SmoothFunction
    g1: ProxFunction
    g2: SmoothFunction
    K: LinearMap

    def __post_init__(self):
        if not self.g1.strong_convexity > 0:
            raise ValueError("g1 must be strongly convex (modulus > 0)")
        if isinstance(self.g1, ShiftedQuadratic) and self.g1.shift.shape != (self.K.rows,):
            raise ValueError("g1 shift length must match the row count of K")
        if isinstance(self.g1, ShiftedQuadratic) and not np.isfinite(self.g1.shift).all():
            raise ValueError("g1 shift contains non-finite entries")

    @property
    def primal_dim(self) -> int:
        return self.K.cols

    @property
    def dual_dim(self) -> int:
        return self.K.rows

    @property
    def mu_g(self) -> float:
        return self.g1.strong_convexity

    def lagrangian(self, x: np.ndarray, y: np.ndarray) -> float:
        """f(x) + <Kx, y> - g(y); +inf for infeasible x, -inf for infeasible y.

        Infeasible x takes precedence when both occur.
        """
        return _lagrangian(self, x, y, self.f1.value(x))


def _lagrangian(problem, x, y, fx, gy=None, f2x=None, kx=None, g2y=None) -> float:
    """L(x, y) = f1(x) + f2(x) + <Kx, y> - g1(y) - g2(y), with f1(x) = ``fx`` given.

    The other terms are evaluated here unless given, and only when the
    infeasibility tests before them have passed: +inf for infeasible x,
    then -inf for infeasible y.
    """
    if math.isinf(fx):
        return np.inf
    if gy is None:
        gy = problem.g1.value(y)
    if math.isinf(gy):
        return -np.inf
    if f2x is None:
        f2x = problem.f2.value(x)
    if kx is None:
        kx = problem.K.apply(x)
    if g2y is None:
        g2y = problem.g2.value(y)
    return fx + f2x + float(kx @ np.asarray(y, dtype=np.float64)) - gy - g2y


def _reference_gap(problem: SaddleProblem, x_star: np.ndarray, y_star: np.ndarray):
    """The map (x, y[, fx, kx]) -> L(x, y*) - L(x*, y), for one fixed reference (x*, y*).

    f1(x*), f2(x*), K x*, g1(y*) and g2(y*) are evaluated once, here, so
    one gap costs one product K x, and none when the caller passes
    ``fx = f1(x)`` and ``kx = K x`` it already holds; each value is bit for
    bit ``lagrangian(x, y_star) - lagrangian(x_star, y)``.
    """
    f1, f2, g1, g2 = problem.f1, problem.f2, problem.g1, problem.g2
    fxs, gys = f1.value(x_star), g1.value(y_star)
    f2xs, kxs, g2ys = f2.value(x_star), problem.K.apply(x_star), g2.value(y_star)

    def gap(x, y, fx=None, kx=None) -> float:
        fx = f1.value(x) if fx is None else fx
        return (_lagrangian(problem, x, y_star, fx, gy=gys, g2y=g2ys, kx=kx)
                - _lagrangian(problem, x_star, y, fxs, f2x=f2xs, kx=kxs))

    return gap


@dataclass(frozen=True)
class StepParams:
    """Primal step alpha, dual step beta, initial extrapolation scalar t1."""

    alpha: float
    beta: float
    t1: float = 1.0


def validate_params(problem: SaddleProblem, params: StepParams) -> None:
    """Check the strict step-size inequalities with the safety-factored norm.

    Raises ValueError naming every failed inequality with its values. The
    smooth-part conditions are vacuous when the Lipschitz constant is 0.
    """
    failed = []
    alpha, beta, t1 = params.alpha, params.beta, params.t1
    if not alpha > 0:
        failed.append(f"alpha > 0 (got {alpha:.6g})")
    if not beta > 0:
        failed.append(f"beta > 0 (got {beta:.6g})")
    if not t1 >= 1:
        failed.append(f"t1 >= 1 (got {t1:.6g})")
    elif t1 == np.inf:
        failed.append("a finite t1 (got inf)")
    if not failed:
        lf2 = problem.f2.lipschitz
        lg2 = problem.g2.lipschitz
        knorm = problem.K.norm()
        if lf2 > 0 and not alpha < 1.0 / lf2:
            failed.append(f"alpha < 1/L_f2 (got {alpha:.6g} vs {1.0 / lf2:.6g})")
        if lg2 > 0 and not beta < t1**2 / lg2:
            failed.append(f"beta < t1^2/L_g2 (got {beta:.6g} vs {t1**2 / lg2:.6g})")
        if not failed:
            lhs = alpha * beta * knorm**2
            rhs = (1.0 - alpha * lf2) * (1.0 - beta * lg2 / t1**2)
            if not lhs < rhs:
                failed.append("alpha*beta*||K||^2 < (1-alpha*L_f2)(1-beta*L_g2/t1^2) "
                              f"(got {lhs:.6g} vs {rhs:.6g})")
    if failed:
        raise ValueError("invalid step parameters: " + "; ".join(f"need {f}" for f in failed))


# The share of the coupling inequality alpha*beta*||K||^2 < 1 that the derived steps use.
COUPLING_BUDGET = 0.98
# (t1, alpha ||K||) of the default steps when f2 and g2 vanish; also the l1ls reference row.
DEFAULT_T1 = 5.0
DEFAULT_ALPHA_KNORM = 0.49


def _coupled_steps(knorm: float, t1: float, alpha_knorm: float) -> StepParams:
    """The steps alpha = alpha_knorm/||K|| and beta = (COUPLING_BUDGET/alpha_knorm)/||K||.

    They meet the coupling inequality of a problem whose f2 and g2 vanish
    with factor COUPLING_BUDGET; ``alpha_knorm`` splits it between the sides.
    """
    return StepParams(alpha_knorm / knorm, (COUPLING_BUDGET / alpha_knorm) / knorm, t1)


def default_step_params(problem: SaddleProblem, t1: float = DEFAULT_T1) -> StepParams:
    """A feasible step-size choice derived from the problem constants.

    Smooth-part conditions are met with factor 0.5, and the coupling
    inequality with factor COUPLING_BUDGET. When f2 and g2 both vanish, the
    steps are ``_coupled_steps(||K||, t1, DEFAULT_ALPHA_KNORM)``; otherwise a side
    whose smooth part vanishes takes what the other side leaves of the budget.
    """
    lf2 = problem.f2.lipschitz
    lg2 = problem.g2.lipschitz
    knorm = problem.K.norm()

    alpha = 0.5 / lf2 if lf2 > 0 else None
    beta = 0.5 * t1**2 / lg2 if lg2 > 0 else None
    if knorm == 0.0:
        alpha = alpha if alpha is not None else 1.0
        beta = beta if beta is not None else max(2.0, 2.0 / problem.mu_g)
        return StepParams(alpha, beta, t1)

    if alpha is None and beta is None:
        params = _coupled_steps(knorm, t1, DEFAULT_ALPHA_KNORM)
    else:
        budget = (COUPLING_BUDGET * (1.0 - (alpha or 0.0) * lf2)
                  * (1.0 - (beta or 0.0) * lg2 / t1**2))
        if alpha is None:
            alpha = budget / (beta * knorm**2)
        elif beta is None:
            beta = budget / (alpha * knorm**2)
        else:
            scale = budget / (alpha * beta * knorm**2)
            if scale < 1.0:
                alpha *= np.sqrt(scale)
                beta *= np.sqrt(scale)
        params = StepParams(float(alpha), float(beta), t1)
    validate_params(problem, params)
    return params


# A support polish becomes the reference once its duality gap is at most this
# fraction of max(1, |objective|).
CERTIFIED_GAP_RTOL = 1e-10
# The reference solve watches its iterate's sign pattern every this many
# iterations. Its rows may fall on a divisor, so that the 90% checkpoint and
# the tenths are rows too, but the pattern is compared on the multiples only.
REFERENCE_ROW_STRIDE = 10


@dataclass(frozen=True)
class ReferencePoint:
    """A high-accuracy saddle-point estimate and the size of its error.

    ``accuracy`` is a duality gap, a bound on the error, when ``certified``
    is true; otherwise it is the gap to the solve's own 90% checkpoint, which
    bounds nothing. ``iterations`` counts the iapd iterations behind the
    point (0 for a point built by hand).
    """

    x_star: np.ndarray = field(repr=False)
    y_star: np.ndarray = field(repr=False)
    objective_value: float
    accuracy: float
    certified: bool = False
    iterations: int = 0


def _support_polish(problem: SaddleProblem):
    """The exact finish on an iterate's support, or None where none applies.

    A finish applies to min_x f1(x) + 0.5 ||Kx - b||^2 in saddle form:
    f2 = g2 = 0, g1 = 0.5 ||y + b||^2 and f1 = lam ||x||_1 or the indicator
    of x >= 0. The returned map takes an iterate x with support S (for nnls
    the set x > 0) and, when 0 < |S| <= m, solves the optimality system on
    S: the normal equations K_S^T K_S x_S = K_S^T b - lam sign(x_S) for l1ls,
    kept only if the signs agree, and least squares on K_S for nnls, kept
    only if x_S > 0. It returns (x_hat, r, gap): r = K x_hat - b maximizes
    L(x_hat, .), and gap = L(x_hat, r) - L(0, y_hat) is the duality gap of a
    dual-feasible y_hat built from r as the Gap Safe rules do (Ndiaye,
    Fercoq, Gramfort and Salmon, JMLR 2017). For l1ls, r is scaled into
    ||K^T y||_inf <= lam; for nnls, it is shifted along the all-ones vector
    until K^T y >= 0. The dual value is L(0, y_hat) because f1 is a norm or a
    cone indicator. It returns None when a step fails, and when K^T 1 is not
    positive where the nnls shift needs it (a signed K).
    """
    f1, g1, K = problem.f1, problem.g1, problem.K
    if not (isinstance(problem.f2, ZeroSmooth) and isinstance(problem.g2, ZeroSmooth)
            and isinstance(g1, ShiftedQuadratic) and isinstance(f1, (L1Norm, NonnegIndicator))):
        return None
    l1, b = isinstance(f1, L1Norm), g1.shift

    def polish(x):
        support = np.flatnonzero(x) if l1 else np.flatnonzero(x > 0)
        if not 0 < support.size <= K.rows:
            return None
        cols = K.columns(support)
        if l1:
            signs = np.sign(x[support])
            gram, rhs = cols.T @ cols, cols.T @ b - f1.weight * signs
            del cols  # not resident beside the solve's copy of the Gram matrix
            try:
                xs = np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.array_equal(np.sign(xs), signs):
                return None
        else:
            xs = np.linalg.lstsq(cols, b, rcond=None)[0]
            if not (xs > 0).all():
                return None
        x_hat = np.zeros(K.cols)
        x_hat[support] = xs
        r = K.apply(x_hat) - b
        z = K.apply_adjoint(r)
        y_hat = r
        if l1:
            zmax = float(np.abs(z).max())
            if zmax > f1.weight:
                y_hat = r * (f1.weight / zmax)
        else:
            short = z < 0
            if short.any():
                ones_image = K.apply_adjoint(np.ones(K.rows))[short]
                if not (ones_image > 0).all():
                    return None
                y_hat = r + float(np.max(-z[short] / ones_image))
        gap = problem.lagrangian(x_hat, r) - problem.lagrangian(np.zeros(K.cols), y_hat)
        return x_hat, r, float(gap)

    return polish


def compute_reference(
    problem: SaddleProblem,
    effort: int,
    params: StepParams,
    objective,
) -> ReferencePoint:
    """Run the accelerated primal-dual solver until it yields a reference point.

    ``effort`` is the iteration budget (use ~10x the benchmark budget). The
    iterations run through :func:`solvers.solve_iapd` (option 1). Where a
    support polish applies (see ``_support_polish``), the solve looks at the
    iterate's sign pattern every ``REFERENCE_ROW_STRIDE`` iterations and
    tries the polish when the pattern is the same as at the previous row, at
    every tenth of the budget and at the end, but never on the pattern of
    the last failed polish: a polish sees x only through its sign pattern,
    so it would fail again. An attempt thus needs a pattern stable across
    two rows and new since the last failure, and at most 11 more fall on the
    tenths and the end. The solve ends at the first polish whose duality gap
    is at most ``CERTIFIED_GAP_RTOL * max(1, |objective(x_hat)|)``: the
    reference is then (x_hat, K x_hat - b, objective(x_hat), |gap|),
    certified. Otherwise it is the final iterate and ``objective`` there,
    uncertified, and the reported accuracy is the Lagrangian gap between the
    final iterate and a checkpoint taken at 90% of the budget, so callers
    can scale tolerances.
    """
    from . import solvers

    if effort < 1:
        raise ValueError("effort must be >= 1")

    checkpoint_at = max(1, (9 * effort) // 10)
    tenth = max(1, effort // 10)
    polish = _support_polish(problem)
    kept, certified = [], []
    # The sign patterns of the previous row and of the last failed polish; the
    # prox of f1 keeps an nnls iterate >= 0, so its pattern is its support.
    previous = failed = None

    def observe(row, state):
        nonlocal previous, failed
        done = state.k - 1
        if done == checkpoint_at:
            kept.append(state)  # No copy: iapd_step never writes its input state.
        if polish is None:
            return False
        # The pattern is compared and stored on the multiples of the stride
        # only, so "stable" means 10 iterations apart whatever the row stride.
        watched = done % REFERENCE_ROW_STRIDE == 0
        scheduled = done % tenth == 0 or done == effort
        if not (watched or scheduled):
            return False
        pattern = np.sign(state.x)
        stable = watched and previous is not None and np.array_equal(pattern, previous)
        if watched:
            previous = pattern
        if not (stable or scheduled):
            return False
        if failed is not None and np.array_equal(pattern, failed):
            return False
        found = polish(state.x)
        if found is not None:
            x_hat, r, gap = found
            value = float(objective(x_hat))
            if abs(gap) <= CERTIFIED_GAP_RTOL * max(1.0, abs(value)):
                certified.append(ReferencePoint(x_hat, r, value, abs(gap), certified=True,
                                                iterations=done))
                return True
        failed = pattern
        return False

    # Rows fall on the multiples of a stride that divides REFERENCE_ROW_STRIDE,
    # a tenth of the budget and the checkpoint; without a polish, on the
    # checkpoint and the end.
    stride = (checkpoint_at if polish is None
              else math.gcd(REFERENCE_ROW_STRIDE, tenth, checkpoint_at))
    opts = solvers.SolverOptions(max_iters=effort, observer_stride=stride)
    state, _ = solvers.solve_iapd(problem, params, opts, observe)
    if certified:
        return certified[0]
    (check,) = kept
    gap = problem.lagrangian(state.x, check.y) - problem.lagrangian(check.x, state.y)
    return ReferencePoint(state.x, state.y, float(objective(state.x)), abs(float(gap)),
                          iterations=effort)
