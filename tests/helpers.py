"""Building blocks that only the tests use: a zero prox, a primal objective, a start point,
a trace of records, a script imported as a module."""

import importlib
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from iapd.proxfuns import ProxFunction, _check_step
from iapd.solvers import Trace, init_iapd_state


class ZeroProx(ProxFunction):
    """The zero function; prox is the identity."""

    def value(self, x) -> float:
        return 0.0

    def prox(self, step, z):
        _check_step(step)
        return np.asarray(z, dtype=np.float64).copy()


def quadratic_conjugate(g1, z) -> float:
    """The conjugate of g1 = 0.5 ||y + b||^2 at z: sup_y <z,y> - g1(y), attained at y = z - b."""
    z = np.asarray(z, dtype=np.float64)
    return 0.5 * float(z @ z) - float(z @ g1.shift)


def primal_objective(problem):
    """x -> f1(x) + f2(x) + g1*(Kx), the primal value of a saddle problem whose g2 vanishes
    and whose g1 is a ``ShiftedQuadratic``."""
    def objective(x) -> float:
        kx = problem.K.apply(x)
        return problem.f1.value(x) + problem.f2.value(x) + quadratic_conjugate(problem.g1, kx)

    return objective


def start_at(problem, params, x0, y0):
    """``init_iapd_state`` moved to (x0, y0): u_1 = x_1 = x_0 and v_1 = v_0 = y_1 = y_0."""
    x0, y0 = np.asarray(x0, dtype=np.float64), np.asarray(y0, dtype=np.float64)
    return replace(init_iapd_state(problem, params), x=x0.copy(), x_prev=x0.copy(), u=x0.copy(),
                   y=y0.copy(), y_prev=y0.copy(), v=y0.copy(), v_prev=y0.copy())


def trace_of(records, record=None):
    """The ``Trace`` of a list of dataclass records of one type: ``record``, or the first
    record's type. A ``TraceRow`` trace takes its algorithm from the first row."""
    records = list(records)
    record = record or type(records[0])
    names = [f.name for f in fields(record) if f.name != "algorithm"]
    algorithm = getattr(records[0], "algorithm", "") if records else ""
    return Trace(algorithm, [[getattr(r, n) for n in names] for r in records], record)


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def import_script(name: str, monkeypatch):
    """``scripts/<name>.py`` as a module, imported with ``scripts/`` on sys.path and one BLAS
    thread; ``monkeypatch`` restores sys.path and the thread variables afterwards."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    return importlib.import_module(name)
