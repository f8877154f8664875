"""Benchmark harness: seeded instance generators, solver sweeps, CSV emission.

Instances are the l1-regularized least-squares family ("l1ls") and the
nonnegative least-squares family ("nnls"), both posed in saddle form with
a strongly convex dual quadratic. Randomness comes from numpy's seeded
PCG64 generator, so identical configurations give bit-identical instances
and traces (timing columns excepted).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import partial
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import diagnostics, solvers
from .linalg import LinearMap
from .problem import (DEFAULT_ALPHA_KNORM, DEFAULT_T1, ReferencePoint, SaddleProblem, StepParams,
                      _coupled_steps, _reference_gap, compute_reference)
from .proxfuns import L1Norm, LeastSquares, NonnegIndicator, ShiftedQuadratic, ZeroSmooth
from .solvers import SolverOptions, TraceRow

__all__ = [
    "ALGORITHMS",
    "ExperimentConfig",
    "GeneratedInstance",
    "generate_l1ls",
    "generate_nnls",
    "preset_params",
    "run_benchmark",
    "BenchResult",
    "emit_csv",
    "read_csv",
    "CSV_HEADER",
]

ALGORITHMS = ("iapd-op1", "iapd-op2", "pda", "apda", "fista", "tseng")

_COLUMNS = tuple(f.name for f in fields(TraceRow))
CSV_HEADER = ",".join(_COLUMNS)
_float_cells = attrgetter(*_COLUMNS[2:])  # every column after algorithm and k


@dataclass
class ExperimentConfig:
    experiment: str  # "l1ls" or "nnls"
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
        if self.experiment not in ("l1ls", "nnls"):
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
        if self.experiment == "nnls" and not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if not math.isfinite(self.lam):
            raise ValueError("lambda must be finite")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


@dataclass
class GeneratedInstance:
    problem: SaddleProblem
    b: np.ndarray = field(repr=False)
    planted: np.ndarray = field(repr=False)
    name: str = ""

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


def _saddle_form(experiment: str, K: LinearMap, b: np.ndarray, lam: float = 0.0) -> SaddleProblem:
    """The saddle form of min_x f1(x) + 0.5 ||Kx - b||^2: g1(y) = 0.5 ||y + b||^2, f2 = g2 = 0.

    f1 is lam ||x||_1 for l1ls and the indicator of x >= 0 for nnls.
    """
    f1 = L1Norm(lam) if experiment == "l1ls" else NonnegIndicator()
    return SaddleProblem(f1=f1, f2=ZeroSmooth(), g1=ShiftedQuadratic(b), g2=ZeroSmooth(), K=K)


def generate_l1ls(m: int, n: int, lam: float, seed: int) -> GeneratedInstance:
    """Dense Gaussian sensing with a mostly-dense planted vector and noise.

    K has independent N(0, 1/m) entries (row-normalized Gaussian ensemble,
    so ||K|| stays O(1) as the instance grows); the planted vector has
    round(0.95 n) nonzeros uniform on [-10, 10]; noise is normal with
    variance 0.1; b = K @ planted + noise.
    """
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((m, n)) / math.sqrt(m)
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.95 * n), replace=False)
    planted[support] = rng.uniform(-10.0, 10.0, size=support.size)
    noise = rng.normal(0.0, math.sqrt(0.1), size=m)
    b = K @ planted + noise
    K.flags.writeable = False  # hand K over: LinearMap keeps it without a copy
    problem = _saddle_form("l1ls", LinearMap(K), b, lam)
    return GeneratedInstance(problem, b, planted, name=f"l1ls-m{m}-n{n}-seed{seed}")


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
    import scipy.sparse as sp

    K = LinearMap(sp.coo_array(dense))
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.05 * n), replace=False)
    planted[support] = rng.uniform(0.0, 100.0, size=support.size)
    b = K.apply(planted)
    problem = _saddle_form("nnls", K, b)
    return GeneratedInstance(problem, b, planted, name=f"nnls-m{m}-n{n}-s{density}-seed{seed}")


_OPTIONS = ("option1", "option2")
# Per family and option: (t1, alpha ||K||) of the accelerated solver's preset
# steps. Each is the grid row of scripts/bench_presets.py with the fewest
# iterations to accuracy on its training seeds (BENCH_presets.json), except
# l1ls option 1. It keeps the default steps: the grid's row, (10, 1.5), takes
# the 1000x2000 seed-101 reference at effort 400 to a support of 991 <= 1000
# columns, and the polish's dense solve there lifts peak RSS from 54 to 80 MB.
_PRESETS = {
    ("l1ls", "option1"): (DEFAULT_T1, DEFAULT_ALPHA_KNORM),
    ("l1ls", "option2"): (10.0, 1.5),
    ("nnls", "option1"): (1.0, 1.5),
    ("nnls", "option2"): (1.2, 1.5),
}


def preset_params(experiment: str, knorm: float) -> StepParams:
    """Accelerated-solver presets: the family's rows of ``_PRESETS`` at this ||K||.

    The result holds option 1's steps, and option 2's as its ``option2``.
    A zero norm, as of a K without a nonzero entry, raises ValueError before
    any step is derived from it, here or by the baselines after it.
    """
    if not knorm > 0:
        raise ValueError(f"||K|| = {knorm:g}: no step size can be derived from a zero "
                         "operator norm")
    if (experiment, "option1") not in _PRESETS:
        raise ValueError(f"unknown experiment {experiment!r}")
    op1, op2 = (_coupled_steps(knorm, *_PRESETS[experiment, option]) for option in _OPTIONS)
    return replace(op1, option2=op2)


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return f"{value:.17g}"


def emit_csv(rows: list[TraceRow], path) -> None:
    """Write one algorithm's trace; floats carry 17 significant digits."""
    algos = {r.algorithm for r in rows}
    if len(algos) > 1:
        raise ValueError(f"rows mix algorithms: {sorted(algos)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in rows:
            fh.write(",".join([r.algorithm, str(r.k), *map(_fmt, _float_cells(r))]) + "\n")


def read_csv(path) -> list[TraceRow]:
    """Parse a trace CSV back into rows (empty cells become NaN).

    A file that is not UTF-8 text or has another header raises ValueError
    naming the file; a malformed row, naming also its line and the column
    at fault. A row whose algorithm differs from the first row's, or whose k
    does not exceed the k of the row before it, is malformed.
    """

    def num(tok: str) -> float:
        return float(tok) if tok else math.nan

    readers = [(int, "an integer")] + [(num, "a number")] * (len(_COLUMNS) - 2)
    rows = []
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
                if rows and parts[0] != rows[0].algorithm:
                    raise ValueError(f"{path} line {lineno}, column 'algorithm': {parts[0]!r} "
                                     f"differs from {rows[0].algorithm!r} on line 2")
                cells = [parts[0]]
                for column, (read, kind), tok in zip(_COLUMNS[1:], readers, parts[1:]):
                    try:
                        cells.append(read(tok))
                    except ValueError:
                        raise ValueError(f"{path} line {lineno}, column {column!r}: "
                                         f"{tok!r} is not {kind}") from None
                if rows and cells[1] <= rows[-1].k:
                    raise ValueError(f"{path} line {lineno}, column 'k': {cells[1]} does not "
                                     f"exceed {rows[-1].k} on line {lineno - 1}")
                rows.append(TraceRow(*cells))
    except UnicodeDecodeError as err:
        raise ValueError(f"{path} is not UTF-8 text ({err.reason} at byte {err.start})") from None
    return rows


@dataclass
class AlgorithmResult:
    name: str
    rows: list[TraceRow]
    final_gap: float
    params: dict
    energy_reports: list = field(default_factory=list)
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


def _make_instance(cfg: ExperimentConfig) -> GeneratedInstance:
    if cfg.experiment == "l1ls":
        return generate_l1ls(cfg.m, cfg.n, cfg.lam, cfg.seed)
    return generate_nnls(cfg.m, cfg.n, cfg.density, cfg.seed)


def _iapd_params(cfg: ExperimentConfig, knorm: float) -> StepParams:
    """The presets, with each step the config sets replacing it on both options."""
    base = preset_params(cfg.experiment, knorm)
    set_steps = {name: getattr(cfg, name) for name in ("alpha", "beta", "t1")
                 if getattr(cfg, name) is not None}
    return replace(base, **set_steps, option2=replace(base.option2, **set_steps))


def run_benchmark(cfg: ExperimentConfig, instance: GeneratedInstance | None = None) -> BenchResult:
    """Generate (or accept) an instance, compute a reference, run the sweep.

    Writes one CSV per algorithm with rows (a diverged algorithm keeps its
    partial trace) plus summary.txt and run_meta.json into cfg.out_dir,
    and removes the CSV of any other algorithm left there by an
    earlier run. The directory is created only once the sweep is done, so a
    run that fails before it writes nothing. Returns status 3 if any
    selected algorithm was skipped or diverged.
    """
    if instance is None:
        instance = _make_instance(cfg)
    problem = instance.problem
    knorm = problem.K.norm()

    iapd_params = _iapd_params(cfg, knorm)
    effort = cfg.reference_effort if cfg.reference_effort is not None else 10 * cfg.iters
    ref = compute_reference(problem, effort, params=iapd_params, objective=instance.objective)

    opts = SolverOptions(max_iters=cfg.iters, observer_stride=cfg.observer_stride)
    results: dict[str, AlgorithmResult] = {}
    status = 0

    for name in cfg.algorithms:
        try:
            res = _run_algorithm(name, instance, ref, iapd_params, opts, knorm)
        except ValueError as err:  # UnsupportedStructureError included
            res = AlgorithmResult(name, [], math.nan, {}, skipped=str(err))
        if res.skipped:
            status = 3
        results[name] = res

    out_dir = Path(cfg.out_dir)
    _write_run_dir(out_dir, cfg, ref, results, knorm)
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

    One observer fills each row's objective and gap from one f1(x) and one K x.
    An iapd result that completes is certified, and its rate slope fitted, here.
    """
    problem = instance.problem
    reports = []
    energy_at = gap_at = None

    # Each solve returns a tuple whose last item is the trace rows.
    if name in ("iapd-op1", "iapd-op2"):
        run_opts = replace(opts, option="option1" if name == "iapd-op1" else "option2")
        iapd_params = iapd_params.for_option(run_opts.option)
        energy_at = diagnostics.energy_at(problem, iapd_params, ref)
        reports.append(energy_at(solvers.init_iapd_state(problem, iapd_params)))
        solve = partial(solvers.solve_iapd, problem, iapd_params, run_opts)
        params = {"alpha": iapd_params.alpha, "beta": iapd_params.beta, "t1": iapd_params.t1,
                  "mu_g": problem.mu_g, "E1": reports[0].energy}
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
    elif name in ("fista", "tseng"):
        f2 = LeastSquares(problem.K, instance.b)
        alpha = 1.0 / knorm**2
        apg = solvers.solve_fista if name == "fista" else solvers.solve_tseng
        solve = partial(apg, problem.f1, f2, alpha, opts, x0=np.zeros(problem.primal_dim))
        params = {"alpha": alpha}
    else:
        raise ValueError(f"unknown algorithm {name!r}")

    def observer(row: TraceRow, state):
        fx, kx = problem.f1.value(state.x), problem.K.apply(state.x)
        row.objective = instance._objective(fx, kx)
        if energy_at is not None:
            rep = energy_at(state, fx, kx)
            row.gap_ref = rep.gap_ref
            row.energy = rep.energy
            reports.append(rep)
        elif gap_at is not None:
            row.gap_ref = gap_at(state.x, state.y, fx, kx)
        else:  # no dual iterate: the objective gap against the reference
            row.gap_ref = row.objective - ref.objective_value

    try:
        rows = solve(observer=observer)[-1]
    except solvers.DivergenceError as err:
        return AlgorithmResult(name, err.rows, math.nan, params, energy_reports=reports,
                               skipped=str(err), diverged_at=err.iteration)
    res = AlgorithmResult(name, rows, rows[-1].objective - ref.objective_value, params,
                          energy_reports=reports)
    if reports:
        inflation = diagnostics._reference_inflation(ref.accuracy, ref.objective_value)
        res.certificate = diagnostics.certify(reports, params["E1"], params["t1"],
                                              params["mu_g"], params["beta"], inflation=inflation)
        k_max = min(1000, reports[-1].k)
        if k_max > 100:
            with contextlib.suppress(diagnostics.InsufficientDataError):
                res.slope = diagnostics.slope(reports, 100, k_max)
    return res


def _write_run_dir(out_dir: Path, cfg, ref, results, knorm) -> None:
    """Write each algorithm's CSV, summary.txt lines and run_meta.json entry side by side.

    Every algorithm's CSV that an earlier run left is removed first.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in ALGORITHMS:
        (out_dir / f"{name}.csv").unlink(missing_ok=True)
    kind = "certified duality gap" if ref.certified else "checkpoint gap, uncertified"
    lines = [
        f"experiment: {cfg.experiment}  m={cfg.m} n={cfg.n} seed={cfg.seed} iters={cfg.iters}",
        f"norm estimate (safety-factored): {knorm:.12g}",
        f"reference objective: {ref.objective_value:.17g}",
        f"reference accuracy ({kind}): {ref.accuracy:.6g}",
        f"reference iterations: {ref.iterations}",
        "",
    ]
    meta = {
        "experiment": cfg.experiment, "m": cfg.m, "n": cfg.n, "seed": cfg.seed, "iters": cfg.iters,
        "lambda": cfg.lam, "density": cfg.density, "norm_estimate": knorm,
        "reference_objective": ref.objective_value, "reference_accuracy": ref.accuracy,
        "reference_certified": ref.certified, "reference_iterations": ref.iterations,
        "algorithms": {},
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
