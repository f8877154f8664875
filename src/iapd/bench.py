"""Benchmark harness: seeded instance generators, solver sweeps, CSV emission.

Instances are the l1-regularized least-squares family ("l1ls") and the
nonnegative least-squares family ("nnls"), both posed in saddle form with
a strongly convex dual quadratic. Randomness comes from numpy's seeded
PCG64 generator, so identical configurations give bit-identical instances
and traces (timing columns excepted).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import diagnostics, solvers
from .linalg import LinearMap
from .problem import ReferencePoint, SaddleProblem, StepParams, compute_reference
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

CSV_HEADER = "algorithm,k,t_k,objective,gap_ref,dx,dy,energy,elapsed_s"


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
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.observer_stride < 1:
            raise ValueError("observer_stride must be >= 1")
        if not self.algorithms:
            raise ValueError("algorithm set must be nonempty")
        for name in self.algorithms:
            if name not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {name!r}")
        if self.experiment == "nnls" and not 0 < self.density <= 1:
            raise ValueError("density must lie in (0, 1]")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")


@dataclass
class GeneratedInstance:
    problem: SaddleProblem
    b: np.ndarray = field(repr=False)
    planted: np.ndarray = field(repr=False)
    name: str = ""

    def objective(self, x: np.ndarray) -> float:
        """The composite value f(x) + 0.5 ||Kx - b||^2 used for plots."""
        r = self.problem.K.apply(x) - self.b
        return self.problem.f1.value(x) + 0.5 * float(r @ r)


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
    problem = SaddleProblem(
        f1=L1Norm(lam),
        f2=ZeroSmooth(),
        g1=ShiftedQuadratic(b),
        g2=ZeroSmooth(),
        K=LinearMap(K),
    )
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

    K = sp.csr_array(sp.coo_array(dense))
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.05 * n), replace=False)
    planted[support] = rng.uniform(0.0, 100.0, size=support.size)
    b = K @ planted
    problem = SaddleProblem(
        f1=NonnegIndicator(),
        f2=ZeroSmooth(),
        g1=ShiftedQuadratic(b),
        g2=ZeroSmooth(),
        K=LinearMap(K),
    )
    return GeneratedInstance(problem, b, planted, name=f"nnls-m{m}-n{n}-s{density}-seed{seed}")


def preset_params(experiment: str, knorm: float) -> StepParams:
    """Accelerated-solver presets: steps proportional to 1/||K|| per family."""
    if experiment == "l1ls":
        return StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    if experiment == "nnls":
        return StepParams(alpha=0.98 / knorm, beta=1.0 / knorm, t1=1.2)
    raise ValueError(f"unknown experiment {experiment!r}")


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
            fh.write(
                ",".join(
                    [
                        r.algorithm,
                        str(r.k),
                        _fmt(r.t_k),
                        _fmt(r.objective),
                        _fmt(r.gap_ref),
                        _fmt(r.dx),
                        _fmt(r.dy),
                        _fmt(r.energy),
                        _fmt(r.elapsed_s),
                    ]
                )
                + "\n"
            )


def read_csv(path) -> list[TraceRow]:
    """Parse a trace CSV back into rows (empty cells become NaN)."""

    def num(tok: str) -> float:
        return float(tok) if tok else math.nan

    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected header {header!r}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != 9:
                raise ValueError(f"bad row {line!r}")
            rows.append(
                TraceRow(
                    algorithm=parts[0],
                    k=int(parts[1]),
                    t_k=num(parts[2]),
                    objective=num(parts[3]),
                    gap_ref=num(parts[4]),
                    dx=num(parts[5]),
                    dy=num(parts[6]),
                    energy=num(parts[7]),
                    elapsed_s=num(parts[8]),
                )
            )
    return rows


@dataclass
class AlgorithmResult:
    name: str
    rows: list[TraceRow]
    final_gap: float
    params: dict
    energy_reports: list = field(default_factory=list)
    certificate: diagnostics.CertificateSummary | None = None
    slope: float | None = None
    skipped: str = ""
    diverged_at: int | None = None  # set when ``rows`` is the partial trace of a divergence


@dataclass
class BenchResult:
    status: int  # 0 ok, 3 partial completion
    out_dir: Path
    reference: ReferencePoint
    results: dict[str, AlgorithmResult]
    files: list[Path] = field(default_factory=list)


def _make_instance(cfg: ExperimentConfig) -> GeneratedInstance:
    if cfg.experiment == "l1ls":
        return generate_l1ls(cfg.m, cfg.n, cfg.lam, cfg.seed)
    return generate_nnls(cfg.m, cfg.n, cfg.density, cfg.seed)


def _iapd_params(cfg: ExperimentConfig, knorm: float) -> StepParams:
    base = preset_params(cfg.experiment, knorm)
    return StepParams(
        alpha=cfg.alpha if cfg.alpha is not None else base.alpha,
        beta=cfg.beta if cfg.beta is not None else base.beta,
        t1=cfg.t1 if cfg.t1 is not None else base.t1,
    )


def run_benchmark(cfg: ExperimentConfig, instance: GeneratedInstance | None = None) -> BenchResult:
    """Generate (or accept) an instance, compute a reference, run the sweep.

    Writes one CSV per algorithm with rows (a diverged algorithm keeps its
    partial trace) plus summary.txt, plotdata.tsv and run_meta.json into
    cfg.out_dir, and removes the CSV of any other algorithm left there by an
    earlier run. Returns status 3 if any selected algorithm was skipped or
    diverged.
    """
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if instance is None:
        instance = _make_instance(cfg)
    problem = instance.problem
    knorm = problem.K.norm()

    iapd_params = _iapd_params(cfg, knorm)
    effort = cfg.reference_effort if cfg.reference_effort is not None else 10 * cfg.iters
    ref = compute_reference(problem, effort, params=iapd_params, objective=instance.objective)
    f_star = ref.objective_value
    inflation = diagnostics._reference_inflation(ref.accuracy, f_star)

    opts = SolverOptions(max_iters=cfg.iters, observer_stride=cfg.observer_stride)
    results: dict[str, AlgorithmResult] = {}
    status = 0

    for name in cfg.algorithms:
        try:
            res = _run_algorithm(name, cfg, instance, ref, iapd_params, opts, knorm)
        except ValueError as err:  # UnsupportedStructureError included
            res = AlgorithmResult(name, [], math.nan, {}, skipped=str(err))
        if res.skipped:
            status = 3
        results[name] = res

    files = []
    for name, res in results.items():
        if res.rows:
            path = out_dir / f"{name}.csv"
            emit_csv(res.rows, path)
            files.append(path)
    for name in set(ALGORITHMS).difference(path.stem for path in files):
        (out_dir / f"{name}.csv").unlink(missing_ok=True)
    files.append(_write_summary(out_dir, cfg, ref, results, knorm, inflation))
    files.append(_write_plotdata(out_dir, results, f_star))
    files.append(_write_meta(out_dir, cfg, ref, results, knorm, iapd_params))
    return BenchResult(status, out_dir, ref, results, files)


def _run_algorithm(
    name: str,
    cfg: ExperimentConfig,
    instance: GeneratedInstance,
    ref: ReferencePoint,
    iapd_params: StepParams,
    opts: SolverOptions,
    knorm: float,
) -> AlgorithmResult:
    """Run one algorithm; a divergence gives a skipped result that keeps its partial trace."""
    problem = instance.problem
    objective = instance.objective
    reports = []

    def saddle_gap_observer(row: TraceRow, state):
        row.gap_ref = problem.lagrangian(state.x, ref.y_star) - problem.lagrangian(ref.x_star, state.y)

    def objective_gap_observer(row: TraceRow, state):
        # No dual iterate: report the objective gap against the reference.
        row.gap_ref = row.objective - ref.objective_value

    # Each solve returns a tuple whose last item is the trace rows.
    if name in ("iapd-op1", "iapd-op2"):
        option = "option1" if name == "iapd-op1" else "option2"
        run_opts = SolverOptions(
            max_iters=opts.max_iters, option=option, observer_stride=opts.observer_stride
        )
        state0 = solvers.init_iapd_state(problem, iapd_params)
        first = diagnostics.energy(problem, iapd_params, state0, ref)
        e1 = first.energy
        reports.append(first)

        def observer(row: TraceRow, state):
            rep = diagnostics.energy(problem, iapd_params, state, ref, e1)
            row.gap_ref = rep.gap_ref
            row.energy = rep.energy
            reports.append(rep)

        solve = partial(solvers.solve_iapd, problem, iapd_params, run_opts, observer=observer,
                        state=state0, objective=objective, name=name)
        params = {"alpha": iapd_params.alpha, "beta": iapd_params.beta, "t1": iapd_params.t1,
                  "mu_g": problem.mu_g, "E1": e1}
    elif name == "pda":
        alpha, beta, theta = 1.0 / (20.0 * knorm), 20.0 / knorm, 1.0
        solve = partial(solvers.solve_pda, problem, alpha, beta, theta, opts,
                        observer=saddle_gap_observer, objective=objective)
        params = {"alpha": alpha, "beta": beta, "theta": theta}
    elif name == "apda":
        tau0 = sigma0 = 1.0 / knorm
        gamma = problem.mu_g
        solve = partial(solvers.solve_apda, problem, tau0, sigma0, gamma, opts,
                        observer=saddle_gap_observer, objective=objective)
        params = {"tau0": tau0, "sigma0": sigma0, "gamma": gamma}
    elif name in ("fista", "tseng"):
        f2 = LeastSquares(problem.K, instance.b)
        alpha = 1.0 / knorm**2
        apg = solvers.solve_fista if name == "fista" else solvers.solve_tseng
        solve = partial(apg, problem.f1, f2, alpha, opts, observer=objective_gap_observer,
                        x0=np.zeros(problem.primal_dim), objective=objective, name=name)
        params = {"alpha": alpha}
    else:
        raise ValueError(f"unknown algorithm {name!r}")

    try:
        rows = solve()[-1]
    except solvers.DivergenceError as err:
        return AlgorithmResult(name, err.rows, math.nan, params, energy_reports=reports,
                               skipped=str(err), diverged_at=err.iteration)
    return AlgorithmResult(name, rows, rows[-1].objective - ref.objective_value, params,
                           energy_reports=reports)


def _write_summary(out_dir, cfg, ref, results, knorm, inflation) -> Path:
    path = out_dir / "summary.txt"
    lines = [
        f"experiment: {cfg.experiment}  m={cfg.m} n={cfg.n} seed={cfg.seed} iters={cfg.iters}",
        f"norm estimate (safety-factored): {knorm:.12g}",
        f"reference objective: {ref.objective_value:.17g}",
        f"reference accuracy (checkpoint gap): {ref.accuracy:.6g}",
        "",
    ]
    for name, res in results.items():
        if res.skipped:
            lines.append(f"{name}: SKIPPED ({res.skipped})")
            if res.diverged_at is not None:
                lines.append(f"  partial trace: {len(res.rows)} rows kept, "
                             f"diverged at iteration {res.diverged_at}")
            continue
        lines.append(f"{name}: final objective gap = {res.final_gap:.6g}")
        if res.energy_reports:
            a = res.params["mu_g"] * res.params["beta"]
            cert = diagnostics.certify(
                res.energy_reports, res.params["t1"], a, inflation=inflation
            )
            res.certificate = cert
            lines.append(
                f"  certificates: gap={cert.gap_violations} dual={cert.dual_violations} "
                f"v={cert.v_violations} t-lower={cert.t_lower_violations} "
                f"(rows={cert.rows})"
            )
            k_max = min(1000, max(r.k for r in res.energy_reports))
            try:
                fit = diagnostics.slope(res.energy_reports, 100, k_max) if k_max > 100 else None
            except diagnostics.InsufficientDataError:
                fit = None
            if fit is not None:
                res.slope = fit.slope
                lines.append(
                    f"  log-log gap slope on [100, {k_max}]: {fit.slope:.4f} "
                    f"({fit.n_used} rows, {fit.n_excluded} excluded)"
                )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_plotdata(out_dir, results, f_star) -> Path:
    """Wide tab-separated table: per algorithm, objective gap and elapsed time."""
    path = out_dir / "plotdata.tsv"
    active = [(n, r) for n, r in results.items() if r.rows]
    length = max((len(r.rows) for _, r in active), default=0)
    header = ["row"]
    for name, _ in active:
        header += [f"{name}_k", f"{name}_gap", f"{name}_elapsed_s"]
    out = ["\t".join(header)]
    for i in range(length):
        cells = [str(i + 1)]
        for _, res in active:
            if i < len(res.rows):
                row = res.rows[i]
                cells += [str(row.k), _fmt(row.objective - f_star), _fmt(row.elapsed_s)]
            else:
                cells += ["", "", ""]
        out.append("\t".join(cells))
    path.write_text("\n".join(out) + "\n", encoding="utf-8")
    return path


def _algorithm_meta(res: AlgorithmResult) -> dict:
    entry = {"params": res.params, "skipped": res.skipped}
    if res.diverged_at is not None:
        entry["partial_trace"] = {"rows": len(res.rows), "diverged_at": res.diverged_at}
    return entry


def _write_meta(out_dir, cfg, ref, results, knorm, iapd_params) -> Path:
    path = out_dir / "run_meta.json"
    meta = {
        "experiment": cfg.experiment,
        "m": cfg.m,
        "n": cfg.n,
        "seed": cfg.seed,
        "iters": cfg.iters,
        "lambda": cfg.lam,
        "density": cfg.density,
        "norm_estimate": knorm,
        "reference_objective": ref.objective_value,
        "reference_accuracy": ref.accuracy,
        "algorithms": {name: _algorithm_meta(res) for name, res in results.items()},
    }
    path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    return path
