"""Energy-sequence evaluation, certified rate bounds, and empirical slopes."""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .problem import ReferencePoint, SaddleProblem, StepParams, _reference_gap
from .solvers import IapdState

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
    """Per-iteration energy terms and certificate quantities at the reference point."""

    k: int
    t_k: float
    t_next: float
    energy: float
    i1: float
    i2: float
    i3: float
    i4: float
    gap_ref: float
    bound_gap: float
    dual_dist_sq: float
    dual_bound: float
    v_dist_sq: float
    v_bound: float
    dx: float
    dy: float


def energy_at(problem: SaddleProblem, params: StepParams, ref: ReferencePoint):
    """The four-term energy at the reference point, as a map (state, e1=None) -> EnergyReport.

    ``e1`` is the initial-state energy used in the certified bounds; when
    omitted (only sensible at k = 1) the state's own energy is used. The
    reference-side terms of the gap are evaluated once, here, so each
    report costs two products with K, not three.
    """
    alpha, beta = params.alpha, params.beta
    xs, ys = ref.x_star, ref.y_star
    gap_at = _reference_gap(problem, xs, ys)

    def evaluate(state: IapdState, e1: float | None = None) -> EnergyReport:
        t, t_next = state.t, state.t_next

        gap = gap_at(state.x, state.y)
        i1 = t * t * gap

        du = state.u - xs
        i2 = float(du @ du) / (2.0 * alpha)

        dv = state.v - ys
        i3 = (t_next * t_next) * float(dv @ dv) / (2.0 * beta)

        # K is applied to u_k - x* directly, keeping the diagnostic independent
        # of any product cached inside the solver.
        dvv = state.v - state.v_prev
        i4 = -t * float(problem.K.apply(du) @ dvv) + (
            (t * t - beta * problem.g2.lipschitz) * float(dvv @ dvv) / (2.0 * beta)
        )

        total = i1 + i2 + i3 + i4
        if e1 is None:
            e1 = total

        dy_ref = state.y - ys
        return EnergyReport(
            k=state.k,
            t_k=t,
            t_next=t_next,
            energy=total,
            i1=i1,
            i2=i2,
            i3=i3,
            i4=i4,
            gap_ref=gap,
            bound_gap=e1 / (t * t),
            dual_dist_sq=float(dy_ref @ dy_ref),
            dual_bound=2.0 * e1 / (problem.mu_g * t * t),
            v_dist_sq=float(dv @ dv),
            v_bound=2.0 * beta * e1 / (t_next * t_next),
            dx=float(np.linalg.norm(state.x - state.x_prev)),
            dy=float(np.linalg.norm(state.y - state.y_prev)),
        )

    return evaluate


def _reference_inflation(accuracy: float, objective_value: float) -> float:
    """Relative certificate slack for a reference point of the given accuracy."""
    return 10.0 * accuracy / max(1.0, abs(objective_value))


# The fields of a report that :func:`certify` reads.
_TraceReport = namedtuple(
    "_TraceReport", "k t_k gap_ref bound_gap dual_dist_sq dual_bound v_dist_sq v_bound dx dy"
)


def _trace_reports(rows, e1: float):
    """Reports rebuilt one at a time from trace rows, for :func:`certify`.

    A trace row carries the gap but no dual distances, so only the gap and
    t-lower bounds can be checked; the dual and v fields are NaN, which no
    comparison flags. A row with t_k = 0 gets no gap bound; the t-lower
    check flags it.
    """
    nan = math.nan
    return (
        _TraceReport(r.k, r.t_k, r.gap_ref, e1 / (r.t_k * r.t_k) if r.t_k else math.inf,
                     nan, nan, nan, nan, r.dx, r.dy)
        for r in rows
    )


@dataclass
class CertificateSummary:
    """Violation counts for the proven bounds plus windowed residual scales."""

    rows: int
    gap_violations: int = 0
    dual_violations: int = 0
    v_violations: int = 0
    t_lower_violations: int = 0
    max_gap_excess: float = 0.0
    max_dx_t: float = 0.0
    max_dy_t2: float = 0.0
    violating_k: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.gap_violations == 0
            and self.dual_violations == 0
            and self.v_violations == 0
            and self.t_lower_violations == 0
        )


def certify(
    reports: Iterable[EnergyReport],
    t1: float,
    a: float,
    tol: float = 1e-6,
    inflation: float = 0.0,
) -> CertificateSummary:
    """Check the certified bounds along a trace of energy reports.

    ``a`` is mu_g * beta; ``inflation`` is an extra relative slack for an
    inexact reference point. The displacement scales dx * t_k and
    dy * t_k^2 are reported as maxima, not pass/fail checks. The reports
    are read once, in order, so a generator of them keeps no trace in
    memory; any record with the fields read here will do.
    """
    slack = 1.0 + tol + inflation
    b = 2.0 * a * t1 / (a + 4.0 * t1) if a > 0 else 0.0
    t_factor = min(0.5, b)
    summary = CertificateSummary(rows=0)
    for r in reports:
        summary.rows += 1
        if r.gap_ref > r.bound_gap * slack:
            summary.gap_violations += 1
            summary.max_gap_excess = max(summary.max_gap_excess, r.gap_ref - r.bound_gap)
            summary.violating_k.append(r.k)
        if r.dual_dist_sq > r.dual_bound * slack:
            summary.dual_violations += 1
        if r.v_dist_sq > r.v_bound * slack:
            summary.v_violations += 1
        if r.t_k < t_factor * (r.k + 1) * (1.0 - 1e-12):
            summary.t_lower_violations += 1
        summary.max_dx_t = max(summary.max_dx_t, r.dx * r.t_k)
        summary.max_dy_t2 = max(summary.max_dy_t2, r.dy * r.t_k**2)
    if not summary.rows:
        raise ValueError("empty trace")
    return summary


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    n_used: int
    n_excluded: int


def slope(reports: list[EnergyReport], k_min: int, k_max: int) -> SlopeFit:
    """Least-squares slope of log(gap) against log(k) over [k_min, k_max].

    Rows with nonpositive gap are excluded and counted; fewer than five
    usable rows raises :class:`InsufficientDataError`.
    """
    if not k_max > k_min >= 1:
        raise ValueError("need k_max > k_min >= 1")
    ks, gaps = [], []
    excluded = 0
    for r in reports:
        if k_min <= r.k <= k_max:
            if r.gap_ref > 0:
                ks.append(r.k)
                gaps.append(r.gap_ref)
            else:
                excluded += 1
    if len(ks) < 5:
        raise InsufficientDataError(
            f"only {len(ks)} usable rows in [{k_min}, {k_max}] ({excluded} nonpositive)"
        )
    logk = np.log(np.asarray(ks, dtype=np.float64))
    logg = np.log(np.asarray(gaps, dtype=np.float64))
    coef = np.polyfit(logk, logg, 1)
    return SlopeFit(float(coef[0]), float(coef[1]), len(ks), excluded)
