"""Benchmark harness: seeded instance generators, solver sweeps, CSV emission.

Instances are the l1-regularized least-squares family ("l1ls") and the
nonnegative least-squares family ("nnls") of ``_FAMILIES``, both posed in
saddle form with a strongly convex dual quadratic. Randomness comes from
numpy's seeded PCG64 generator, so identical configurations give
bit-identical instances and traces (timing columns excepted).
"""

from __future__ import annotations

import contextlib
import json
import math
import struct
from array import array
from collections.abc import Callable
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import diagnostics, solvers
from .linalg import LinearMap, _aligned_empty, _csr_from_triples
from .problem import (DEFAULT_ALPHA_KNORM, DEFAULT_T1, ReferencePoint, SaddleProblem, StepParams,
                      _coupled_steps, _reference_gap, compute_reference)
from .proxfuns import (L1Norm, LeastSquares, NonnegIndicator, ProxFunction, ShiftedQuadratic,
                       ZeroSmooth)
from .solvers import SolverOptions, Trace, TraceRow, _row_cells

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "GeneratedInstance",
    "generate_l1ls",
    "generate_nnls",
    "preset_params",
    "reference_params",
    "run_benchmark",
    "BenchResult",
    "emit_csv",
    "read_csv",
    "CSV_HEADER",
]

ALGORITHMS = ("iapd-op1", "iapd-op2", "pda", "apda", "fista", "tseng")

_COLUMNS = tuple(f.name for f in fields(TraceRow))
CSV_HEADER = ",".join(_COLUMNS)
_report_cells = attrgetter(*[f.name for f in fields(diagnostics.EnergyReport)])
_pack_report = struct.Struct(f"{len(fields(diagnostics.EnergyReport))}d").pack


@dataclass
class ExperimentConfig:
    experiment: str  # a key of _FAMILIES
    m: int
    n: int
    seed: int
    iters: int
    lam: float = 0.1
    density: float = 0.1
    algorithms: tuple[str, ...] = ALGORITHMS
    out_dir: Path | str = "bench-out"
    t1: float | None = None
    alpha: float | None = None
    beta: float | None = None
    observer_stride: int = 1
    reference_effort: int | None = None  # default 10x iters

    def __post_init__(self):
        if self.experiment not in _FAMILIES:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.m < 1 or self.n < 1:
            raise ValueError("m and n must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")
        if self.reference_effort is not None and self.reference_effort < 1:
            raise ValueError("reference_effort must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithm set must be nonempty")
        for i, name in enumerate(self.algorithms):
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}; choose from {','.join(ALGORITHMS)}")
            if name in self.algorithms[:i]:
                raise ValueError(f"algorithm {name!r} is listed more than once")
        if not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


@dataclass
class GeneratedInstance:
    problem: SaddleProblem
    b: np.ndarray = field(repr=False)
    planted: np.ndarray | None = field(default=None, repr=False)
    name: str = ""
    # What the instance read besides its shape and seed, as run_meta.json records it.
    settings: dict = field(default_factory=dict)

    def objective(self, x: np.ndarray, kx: np.ndarray | None = None) -> float:
        """The composite value f(x) + 0.5 ||Kx - b||^2: the trace's objective column.

        ``kx``, when given, is K x, and the value takes no product of its own.
        """
        if kx is None:
            kx = self.problem.K.apply(x)
        return self._objective(self.problem.f1.value(x), kx)

    def _objective(self, fx: float, kx: np.ndarray) -> float:
        """The objective from f(x) and K x."""
        r = kx - self.b
        return fx + 0.5 * float(r @ r)


def _saddle_form(f1: ProxFunction, K: LinearMap, b: np.ndarray) -> SaddleProblem:
    """The saddle form of min_x f1(x) + 0.5 ||Kx - b||^2: g1(y) = 0.5 ||y + b||^2, f2 = g2 = 0."""
    return SaddleProblem(f1=f1, f2=ZeroSmooth(), g1=ShiftedQuadratic(b), g2=ZeroSmooth(), K=K)


def generate_l1ls(m: int, n: int, lam: float, seed: int) -> GeneratedInstance:
    """Dense Gaussian sensing with a mostly-dense planted vector and noise.

    K has independent N(0, 1/m) entries (row-normalized Gaussian ensemble,
    so ||K|| stays O(1) as the instance grows); the planted vector has
    round(0.95 n) nonzeros uniform on [-10, 10]; noise is normal with
    variance 0.1; b = K @ planted + noise.
    """
    rng = np.random.default_rng(seed)
    K = _aligned_empty(m, n)  # filled with the bytes of rng.standard_normal((m, n)) / sqrt(m)
    rng.standard_normal(out=K)
    K /= math.sqrt(m)
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.95 * n), replace=False)
    planted[support] = rng.uniform(-10.0, 10.0, size=support.size)
    noise = rng.normal(0.0, math.sqrt(0.1), size=m)
    b = K @ planted + noise
    K.base.flags.writeable = K.flags.writeable = False  # hand K over: LinearMap keeps it
    problem = _saddle_form(L1Norm(lam), LinearMap(K), b)
    return GeneratedInstance(problem, b, planted, name=f"l1ls-m{m}-n{n}-seed{seed}",
                             settings={"lambda": lam})


def generate_nnls(m: int, n: int, density: float, seed: int) -> GeneratedInstance:
    """Sparse nonnegative sensing: entries present independently w.p. density.

    Present entries are uniform on [0, 0.1]; the planted vector has
    round(0.05 n) nonzeros uniform on [0, 100]; b = K @ planted (noiseless).
    """
    if not 0 < density <= 1:
        raise ValueError("density must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    mask = rng.random((m, n)) < density
    dense = np.where(mask, rng.uniform(0.0, 0.1, size=(m, n)), 0.0)
    rows, cols = np.nonzero(dense)
    K = LinearMap(_csr_from_triples(rows, cols, dense[rows, cols], (m, n)))
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.05 * n), replace=False)
    planted[support] = rng.uniform(0.0, 100.0, size=support.size)
    b = K.apply(planted)
    problem = _saddle_form(NonnegIndicator(), K, b)
    return GeneratedInstance(problem, b, planted, name=f"nnls-m{m}-n{n}-s{density}-seed{seed}",
                             settings={"density": density})


@dataclass(frozen=True)
class _Family:
    """What sets a family of min_x f1(x) + 0.5 ||Kx - b||^2 apart: one row of ``_FAMILIES``."""

    f1: Callable[[float], ProxFunction]  # lambda -> f1, for ``iapd solve``
    generate: Callable[[ExperimentConfig], GeneratedInstance]  # by name: a patch of it applies
    shape: tuple[int, int]  # the default (m, n) of ``iapd bench``
    steps: tuple[float, float]  # the preset row both iapd options run on
    reference_steps: tuple[float, float]  # the reference solve's preset row


# The first family is ``iapd solve``'s default. A preset row is (t1, alpha ||K||)
# of the accelerated solver's steps. ``steps`` is the grid row of
# scripts/bench_presets.py with the fewest option-1 iterations to accuracy on its
# training seeds (BENCH_presets.json); option 2 shares it, as the step conditions
# of the two options are the same. The reference solve has a row of its own,
# so that tuning the options' row does not move the instrument that measures it: the
# l1ls row is the default steps, on which the 1000x2000 seed-101 reference at
# effort 400 never tries the polish's dense solve (on (10, 1.5) it does, on
# 991 <= 1000 columns, and peak RSS rises from 54 to 73 MB).
_FAMILIES = {
    "l1ls": _Family(L1Norm, lambda cfg: generate_l1ls(cfg.m, cfg.n, cfg.lam, cfg.seed), (200, 400),
                    (10.0, 1.5), (DEFAULT_T1, DEFAULT_ALPHA_KNORM)),
    "nnls": _Family(lambda lam: NonnegIndicator(),
                    lambda cfg: generate_nnls(cfg.m, cfg.n, cfg.density, cfg.seed), (400, 200),
                    (1.0, 1.5), (1.0, 1.5)),
}


def _preset_steps(experiment: str, knorm: float, row: str) -> StepParams:
    """The steps of the family's preset ``row`` ("steps" or "reference_steps") at this ||K||.

    A zero norm, as of a K without a nonzero entry, raises ValueError before
    any step is derived from it, here or by the baselines after it.
    """
    if not knorm > 0:
        raise ValueError(f"||K|| = {knorm:g}: no step size can be derived from a zero "
                         "operator norm")
    if experiment not in _FAMILIES:
        raise ValueError(f"unknown experiment {experiment!r}")
    return _coupled_steps(knorm, *getattr(_FAMILIES[experiment], row))


def preset_params(experiment: str, knorm: float) -> StepParams:
    """Accelerated-solver presets: the family's row at this ||K||, for both iapd options."""
    return _preset_steps(experiment, knorm, "steps")


def reference_params(experiment: str, knorm: float) -> StepParams:
    """The reference solve's steps: the family's ``reference_steps`` row at this ||K||."""
    return _preset_steps(experiment, knorm, "reference_steps")


def _check_k(k, where: str) -> None:
    if abs(k) > 2**53:  # a float64 cell holds every integer up to here, and not beyond
        raise ValueError(f"{where}, column 'k': {k} lies beyond 2**53, "
                         "where a float64 cell stops holding every integer")


def emit_csv(rows: Trace | list[TraceRow], path) -> None:
    """Write one algorithm's trace; floats carry 17 significant digits and NaN is empty.

    A list of ``TraceRow`` becomes a ``Trace`` first, so it gives the bytes
    of the equal trace; rows of two algorithms, or a k beyond 2**53, which
    a cell cannot hold, raise ValueError.
    """
    if not isinstance(rows, Trace):
        algos = {r.algorithm for r in rows}
        if len(algos) > 1:
            raise ValueError(f"rows mix algorithms: {sorted(algos)}")
        for lineno, row in enumerate(rows, start=2):
            _check_k(row.k, f"{path} line {lineno}")
        rows = Trace(next(iter(algos), ""), list(map(_row_cells, rows)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(f"{rows.algorithm},{int(k)},"
                      + ",".join(["" if v != v else f"{v:.17g}" for v in floats]) + "\n"
                      for k, *floats in map(np.ndarray.tolist, rows.cells))


def read_csv(path) -> Trace:
    """Parse a trace CSV back into a trace (empty cells become NaN).

    A file that is not UTF-8 text or has another header raises ValueError
    naming the file; a malformed row, naming also its line and the column
    at fault. A row whose algorithm differs from the first row's, whose k
    does not exceed the k of the row before it, or whose k lies beyond
    2**53, where a float64 cell stops holding every integer, is malformed.
    """

    def num(tok: str) -> float:
        return float(tok) if tok else math.nan

    readers = [(int, "an integer")] + [(num, "a number")] * (len(_COLUMNS) - 2)
    cells, algorithm, last_k = array("d"), None, None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != CSV_HEADER:
                raise ValueError(f"{path} has an unexpected header {header!r}")
            for lineno, line in enumerate(fh, start=2):
                parts = line.rstrip("\n").split(",")
                if len(parts) != len(_COLUMNS):
                    column = _COLUMNS[min(len(parts), len(_COLUMNS) - 1)]
                    raise ValueError(f"{path} line {lineno}, column {column!r}: the row has "
                                     f"{len(parts)} fields, the header {len(_COLUMNS)}")
                algorithm = parts[0] if algorithm is None else algorithm
                if parts[0] != algorithm:
                    raise ValueError(f"{path} line {lineno}, column 'algorithm': {parts[0]!r} "
                                     f"differs from {algorithm!r} on line 2")
                row = []
                for column, (read, kind), tok in zip(_COLUMNS[1:], readers, parts[1:]):
                    try:
                        row.append(read(tok))
                    except ValueError:
                        raise ValueError(f"{path} line {lineno}, column {column!r}: "
                                         f"{tok!r} is not {kind}") from None
                k = row[0]
                _check_k(k, f"{path} line {lineno}")
                if last_k is not None and k <= last_k:
                    raise ValueError(f"{path} line {lineno}, column 'k': {k} does not "
                                     f"exceed {last_k} on line {lineno - 1}")
                last_k = k
                cells.extend(row)
    except UnicodeDecodeError as err:
        raise ValueError(f"{path} is not UTF-8 text ({err.reason} at byte {err.start})") from None
    return Trace("" if algorithm is None else algorithm, cells)


@dataclass
class AlgorithmResult:
    name: str
    rows: Trace
    final_gap: float
    params: dict
    certificate: diagnostics.CertificateSummary | None = None  # iapd only, set after the solve
    slope: diagnostics.SlopeFit | None = None  # iapd only, when the trace reaches k > 100
    skipped: str = ""
    diverged_at: int | None = None  # set when ``rows`` is the partial trace of a divergence


@dataclass
class BenchResult:
    status: int  # 0 ok, 3 partial completion
    out_dir: Path
    reference: ReferencePoint
    results: dict[str, AlgorithmResult]


def _step_params(cfg: ExperimentConfig, knorm: float) -> tuple[StepParams, StepParams]:
    """The presets and the reference's steps, each step the config sets replacing it on both."""
    base, ref = preset_params(cfg.experiment, knorm), reference_params(cfg.experiment, knorm)
    set_steps = {name: getattr(cfg, name) for name in ("alpha", "beta", "t1")
                 if getattr(cfg, name) is not None}
    return replace(base, **set_steps), replace(ref, **set_steps)


def run_benchmark(cfg: ExperimentConfig, instance: GeneratedInstance | None = None) -> BenchResult:
    """Generate (or accept) an instance, compute a reference, run the sweep.

    Writes one CSV per algorithm with rows (a diverged algorithm keeps its
    partial trace) plus summary.txt and run_meta.json into cfg.out_dir,
    and removes the CSV of any other algorithm left there by an
    earlier run. The directory is created only once the sweep is done, so a
    run that fails before it writes nothing. A reference solve that diverges
    raises RuntimeError naming its iteration, effort and steps. Returns
    status 3 if any selected algorithm was skipped or diverged.
    """
    if instance is None:
        instance = _FAMILIES[cfg.experiment].generate(cfg)
    problem = instance.problem
    knorm = problem.K.norm()

    iapd_params, ref_params = _step_params(cfg, knorm)
    effort = cfg.reference_effort if cfg.reference_effort is not None else 10 * cfg.iters
    try:
        ref = compute_reference(problem, effort, params=ref_params, objective=instance.objective)
    except solvers.DivergenceError as err:
        steps = f"alpha={ref_params.alpha!r} beta={ref_params.beta!r} t1={ref_params.t1!r}"
        raise RuntimeError(f"the reference solve diverged at iteration {err.iteration} "
                           f"(effort {effort}, reference steps: {steps})") from err

    opts = SolverOptions(max_iters=cfg.iters, observer_stride=cfg.observer_stride)
    results: dict[str, AlgorithmResult] = {}
    status = 0

    for name in cfg.algorithms:
        try:
            res = _run_algorithm(name, instance, ref, iapd_params, opts, knorm)
        except ValueError as err:  # UnsupportedStructureError included
            res = AlgorithmResult(name, Trace(name), math.nan, {}, skipped=str(err))
        if res.skipped:
            status = 3
        results[name] = res

    out_dir = Path(cfg.out_dir)
    _write_run_dir(out_dir, cfg, instance.settings, ref, ref_params, results, knorm)
    return BenchResult(status, out_dir, ref, results)


def _run_algorithm(
    name: str,
    instance: GeneratedInstance,
    ref: ReferencePoint,
    iapd_params: StepParams,
    opts: SolverOptions,
    knorm: float,
) -> AlgorithmResult:
    """Run one algorithm; a divergence gives a skipped result that keeps its partial trace.

    One observer fills each row's objective and gap from one f1(x) and one K x,
    and keeps an iapd row's energy report as cells. The reports of an iapd
    solve that completes are certified, and their rate slope fitted, here;
    the result keeps neither them nor their cells.
    """
    problem = instance.problem
    report_cells = array("d")  # k .. v_dist_sq of each report, viewed by a Trace after the solve
    energy_at = gap_at = None

    # Each solve returns a tuple whose last item is the trace rows.
    if name in ("iapd-op1", "iapd-op2"):
        run_opts = replace(opts, option="option1" if name == "iapd-op1" else "option2")
        energy_at = diagnostics.energy_at(problem, iapd_params, ref)
        first = energy_at(solvers.init_iapd_state(problem, iapd_params))
        report_cells.frombytes(_pack_report(*_report_cells(first)))
        solve = partial(solvers.solve_iapd, problem, iapd_params, run_opts)
        params = {"alpha": iapd_params.alpha, "beta": iapd_params.beta, "t1": iapd_params.t1,
                  "mu_g": problem.mu_g, "E1": first.energy}
    elif name == "pda":
        alpha, beta = 1.0 / (20.0 * knorm), 20.0 / knorm
        solve = partial(solvers.solve_pda, problem, alpha, beta, opts)
        gap_at = _reference_gap(problem, ref.x_star, ref.y_star)
        params = {"alpha": alpha, "beta": beta, "theta": 1.0}
    elif name == "apda":
        tau0 = sigma0 = 1.0 / knorm
        solve = partial(solvers.solve_apda, problem, tau0, sigma0, opts)
        gap_at = _reference_gap(problem, ref.x_star, ref.y_star)
        params = {"tau0": tau0, "sigma0": sigma0, "gamma": problem.mu_g}
    else:  # fista or tseng; ExperimentConfig refuses any other name
        f2 = LeastSquares(problem.K, instance.b)
        alpha = 1.0 / knorm**2
        apg = solvers.solve_fista if name == "fista" else solvers.solve_tseng
        solve = partial(apg, problem.f1, f2, alpha, opts, x0=np.zeros(problem.primal_dim))
        params = {"alpha": alpha}

    def observer(row: TraceRow, state):
        # Its own K x, not the one an iapd state carries: the certificate must
        # not read a product the solver cached (as energy_at says of K (u - x*)),
        # and the carried product differs in the last bits, which would move
        # the trace's objective and gap_ref digits.
        fx, kx = problem.f1.value(state.x), problem.K.apply(state.x)
        row.objective = instance._objective(fx, kx)
        if energy_at is not None:
            rep = energy_at(state, fx, kx)
            row.gap_ref = rep.gap_ref
            row.energy = rep.energy
            report_cells.frombytes(_pack_report(*_report_cells(rep)))
        elif gap_at is not None:
            row.gap_ref = gap_at(state.x, state.y, fx, kx)
        else:  # no dual iterate: the objective gap against the reference
            row.gap_ref = row.objective - ref.objective_value

    try:
        rows = solve(observer=observer)[-1]
    except solvers.DivergenceError as err:
        return AlgorithmResult(name, err.rows, math.nan, params, skipped=str(err),
                               diverged_at=err.iteration)
    res = AlgorithmResult(name, rows, rows[-1].objective - ref.objective_value, params)
    if energy_at is not None:
        reports = Trace(name, report_cells, diagnostics.EnergyReport)
        inflation = diagnostics._reference_inflation(ref.accuracy, ref.objective_value)
        res.certificate = diagnostics.certify(reports, params["E1"], params["t1"],
                                              params["mu_g"], params["beta"], inflation=inflation)
        k_max = min(1000, reports[-1].k)
        if k_max > 100:
            with contextlib.suppress(diagnostics.InsufficientDataError):
                res.slope = diagnostics.slope(reports, 100, k_max)
    return res


def _write_run_dir(out_dir: Path, cfg, settings, ref, ref_params, results, knorm) -> None:
    """Write each algorithm's CSV, summary.txt lines and run_meta.json entry side by side.

    Every algorithm's CSV that an earlier run left is removed first.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ALGORITHMS:
        (out_dir / f"{name}.csv").unlink(missing_ok=True)
    kind = "certified duality gap" if ref.certified else "checkpoint gap, uncertified"
    ref_steps = {"alpha": ref_params.alpha, "beta": ref_params.beta, "t1": ref_params.t1}
    lines = [
        f"experiment: {cfg.experiment}  m={cfg.m} n={cfg.n} seed={cfg.seed} iters={cfg.iters}",
        f"norm estimate (safety-factored): {knorm:.12g}",
        f"reference objective: {ref.objective_value:.17g}",
        f"reference accuracy ({kind}): {ref.accuracy:.6g}",
        f"reference iterations: {ref.iterations}",
        "reference steps: " + " ".join(f"{k}={v!r}" for k, v in ref_steps.items()),
        "",
    ]
    meta = {
        "experiment": cfg.experiment, "m": cfg.m, "n": cfg.n, "seed": cfg.seed, "iters": cfg.iters,
        **settings, "norm_estimate": knorm,
        "reference_objective": ref.objective_value, "reference_accuracy": ref.accuracy,
        "reference_certified": ref.certified, "reference_iterations": ref.iterations,
        "reference_steps": ref_steps, "algorithms": {},
    }
    for name, res in results.items():
        if res.rows:
            emit_csv(res.rows, out_dir / f"{name}.csv")
        entry = meta["algorithms"][name] = {"params": res.params, "skipped": res.skipped}
        if res.skipped:  # no certificate or slope: only a completed solve gets them
            lines.append(f"{name}: SKIPPED ({res.skipped})")
            if res.diverged_at is not None:
                lines.append(f"  partial trace: {len(res.rows)} rows kept, "
                             f"diverged at iteration {res.diverged_at}")
                entry["partial_trace"] = {"rows": len(res.rows), "diverged_at": res.diverged_at}
            continue
        lines.append(f"{name}: final objective gap = {res.final_gap:.6g}")
        cert, fit = res.certificate, res.slope
        if cert is not None:
            bounds = ("gap", "dual", "v", "t_lower")  # as keyed in ``first_k``
            first = [cert.first_k.get(b) for b in bounds]
            at = ["none" if k is None else f"k={k}" for k in first]
            lines += [
                f"  certificates: gap={cert.gap_violations} dual={cert.dual_violations} "
                f"v={cert.v_violations} t-lower={cert.t_lower_violations} (rows={cert.rows})",
                f"  first gap-bound violation: {at[0]}, max gap excess {cert.max_gap_excess:.6g}",
                f"  first dual, v and t-lower violations: {', '.join(at[1:])}",
            ]
            entry["certificate"] = {
                "first_gap_violation_k": first[0],
                "max_gap_excess": cert.max_gap_excess,
                **{f"first_{b}_violation_k": k for b, k in zip(bounds[1:], first[1:])},
            }
        if fit is not None:
            lines.append(f"  log-log gap slope on [{fit.k_min}, {fit.k_max}]: {fit.slope:.4f} "
                         f"({fit.n_used} rows, {fit.n_excluded} excluded)")
    (out_dir / "summary.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (out_dir / "run_meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
