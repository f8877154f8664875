"""Energy-sequence evaluation, certified rate bounds, and empirical slopes."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .problem import ReferencePoint, SaddleProblem, StepParams, _reference_gap
from .solvers import IapdState, Trace

__all__ = [
    "EnergyReport",
    "InsufficientDataError",
    "energy_at",
    "certify",
    "CertificateSummary",
    "SlopeFit",
    "slope",
]


class InsufficientDataError(ValueError):
    """Too few usable rows for a rate fit."""


@dataclass(frozen=True)
class EnergyReport:
    """One iterate's energy, its gap at (x*, y*) and the squared distances of y and v to y*."""

    k: int
    t_k: float
    t_next: float
    energy: float
    gap_ref: float
    dual_dist_sq: float
    v_dist_sq: float


def energy_at(problem: SaddleProblem, params: StepParams, ref: ReferencePoint):
    """The four-term energy at the reference point, as a map state -> EnergyReport.

    The reference-side terms of the gap are evaluated once, here, so each
    report costs two products with K, not three, and one when the caller
    passes ``fx = f1(state.x)`` and ``kx = K state.x`` it already holds. The
    report holds measurements only; :func:`certify` derives the bounds.
    """
    alpha, beta = params.alpha, params.beta
    xs, ys = ref.x_star, ref.y_star
    gap_at = _reference_gap(problem, xs, ys)

    def evaluate(state: IapdState, fx=None, kx=None) -> EnergyReport:
        t, t_next = state.t, state.t_next

        gap = gap_at(state.x, state.y, fx, kx)
        i1 = t * t * gap

        du = state.u - xs
        i2 = float(du @ du) / (2.0 * alpha)

        dv = state.v - ys
        v_dist_sq = float(dv @ dv)
        i3 = (t_next * t_next) * v_dist_sq / (2.0 * beta)

        # K is applied to u_k - x* directly, keeping the diagnostic independent
        # of any product cached inside the solver.
        dvv = state.v - state.v_prev
        i4 = -t * float(problem.K.apply(du) @ dvv) + (
            (t * t - beta * problem.g2.lipschitz) * float(dvv @ dvv) / (2.0 * beta)
        )

        dy_ref = state.y - ys
        return EnergyReport(
            k=state.k,
            t_k=t,
            t_next=t_next,
            energy=i1 + i2 + i3 + i4,
            gap_ref=gap,
            dual_dist_sq=float(dy_ref @ dy_ref),
            v_dist_sq=v_dist_sq,
        )

    return evaluate


_SLACK = 1e-6  # the relative rounding slack of every bound ``certify`` checks


def _reference_inflation(accuracy: float, objective_value: float) -> float:
    """Relative certificate slack for a reference point of the given accuracy."""
    return 10.0 * accuracy / max(1.0, abs(objective_value))


def _columns(trace: Trace, *names: str) -> list[np.ndarray]:
    """The named columns of ``trace``; a field its record type lacks reads NaN throughout."""
    if not isinstance(trace, Trace):
        raise TypeError(f"expected a Trace, got {type(trace).__name__}")
    nan = np.full(len(trace), math.nan)
    return [trace.column(n) if n in trace.columns else nan for n in names]


@dataclass
class CertificateSummary:
    """Violation counts for the proven bounds, and where each bound first failed.

    ``first_k`` maps each bound that fails on some row ("gap", "dual", "v" or
    "t_lower") to the first such k; a bound that holds on every row has no key.
    """

    rows: int
    gap_violations: int = 0
    dual_violations: int = 0
    v_violations: int = 0
    t_lower_violations: int = 0
    max_gap_excess: float = 0.0
    first_k: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.gap_violations == 0
            and self.dual_violations == 0
            and self.v_violations == 0
            and self.t_lower_violations == 0
        )


def _bound(numerator: float, denominator: np.ndarray) -> np.ndarray:
    """numerator / denominator; a zero denominator gives no bound (inf)."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.divide(numerator, denominator, out=np.full_like(denominator, math.inf),
                         where=denominator != 0)


def certify(
    reports: Trace,
    e1: float,
    t1: float,
    mu_g: float,
    beta: float,
    inflation: float = 0.0,
) -> CertificateSummary:
    """Check the theorem's bounds along a trace of energy reports.

    With E_1 the initial energy, each row must satisfy
    t_k^2 gap <= E_1, ||y_k - y*||^2 <= 2 E_1 / (mu_g t_k^2),
    ||v_k - y*||^2 <= 2 beta E_1 / t_{k+1}^2 and t_k >= min(1/2, b) (k + 1)
    with b = 2 a t_1 / (a + 4 t_1), a = mu_g beta. Each bound is relaxed by
    the relative slack ``_SLACK + inflation``. ``_SLACK`` (1e-6) is fixed, so
    the sweep and ``iapd certify``, which has no ``--tol``, check with the
    same one; ``inflation`` covers an inexact reference point. A row with
    t_k = 0 gets no gap or dual bound, and a NaN measurement is never
    flagged. The reports are a ``Trace``, whose columns are read in place;
    a field its record type lacks, as ``TraceRow`` lacks t_{k+1} and both
    distances, is NaN, so only the gap and t-lower bounds are checked. Any
    other argument raises TypeError. A non-finite constant or ``inflation``
    raises ValueError: a NaN or infinite slack would flag no row at all.
    """
    constants = {"e1": e1, "t1": t1, "mu_g": mu_g, "beta": beta, "inflation": inflation}
    for name, value in constants.items():
        if not math.isfinite(value):
            raise ValueError(f"certify needs a finite {name}, got {value}")
    slack = 1.0 + _SLACK + inflation
    a = mu_g * beta
    b = 2.0 * a * t1 / (a + 4.0 * t1) if a > 0 else 0.0
    t_factor = min(0.5, b)
    k, t, t_next, gap, dual, v = _columns(reports, "k", "t_k", "t_next", "gap_ref",
                                          "dual_dist_sq", "v_dist_sq")
    if not k.size:
        raise ValueError("empty trace")
    bound_gap = _bound(e1, t * t)
    with np.errstate(over="ignore", invalid="ignore"):
        flags = {
            "gap": gap > bound_gap * slack,
            "dual": dual > _bound(2.0 * e1, mu_g * t * t) * slack,
            "v": v > _bound(2.0 * beta * e1, t_next * t_next) * slack,
            "t_lower": t < t_factor * (k + 1.0) * (1.0 - 1e-12),
        }
        excess = gap[flags["gap"]] - bound_gap[flags["gap"]]
    excess = excess[excess > 0.0]
    counts = {name: int(np.count_nonzero(flag)) for name, flag in flags.items()}
    return CertificateSummary(
        rows=k.size, gap_violations=counts["gap"], dual_violations=counts["dual"],
        v_violations=counts["v"], t_lower_violations=counts["t_lower"],
        max_gap_excess=float(excess.max()) if excess.size else 0.0,
        first_k={name: int(k[flag.argmax()]) for name, flag in flags.items() if counts[name]},
    )


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    n_used: int
    n_excluded: int
    k_min: int
    k_max: int


def slope(reports: Trace, k_min: int, k_max: int) -> SlopeFit:
    """Least-squares slope of log(gap) against log(k) over [k_min, k_max].

    Rows with nonpositive gap are excluded and counted; fewer than five
    usable rows raises :class:`InsufficientDataError`. The reports are read
    as :func:`certify` reads them.
    """
    if not k_max > k_min >= 1:
        raise ValueError("need k_max > k_min >= 1")
    k, gap = _columns(reports, "k", "gap_ref")
    window = (k >= k_min) & (k <= k_max)
    usable = window & (gap > 0)
    used = int(np.count_nonzero(usable))
    excluded = int(np.count_nonzero(window)) - used
    if used < 5:
        raise InsufficientDataError(
            f"only {used} usable rows in [{k_min}, {k_max}] ({excluded} nonpositive)"
        )
    coef = np.polyfit(np.log(k[usable]), np.log(gap[usable]), 1)
    return SlopeFit(float(coef[0]), used, excluded, k_min, k_max)
