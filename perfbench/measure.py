"""One benchmark run: one workload, one seed, traced or untraced.

Started by ``run.py`` in a fresh process whose BLAS is pinned to one
thread; see README.md for the workloads and the metrics. The last line
of standard output is the result object; the line before it holds the
details (environment, spreads, digests, gaps, failures).
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Read before numpy is imported: this is what the BLAS library saw.
THREADS_AT_START = {var: os.environ.get(var) for var in THREAD_VARS}

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import iapd  # noqa: E402
from iapd import bench, cli, linalg, problem, solvers  # noqa: E402
from iapd.proxfuns import (  # noqa: E402
    LeastSquares,
    NonnegIndicator,
    ShiftedQuadratic,
    ZeroSmooth,
)

from calibrate import Calibrator  # noqa: E402
from checks import Ledger, csv_digest, instance_hash  # noqa: E402
from envinfo import environment  # noqa: E402
from tracing import Tracer  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    m: int
    n: int
    iters: int  # sweep budget per algorithm
    algorithms: tuple[str, ...]
    eps: float  # time-to-accuracy target, relative to max(1, |f*|)
    tta_cap: int
    batch: int  # instances solved per time-to-accuracy sample
    setup_repeats: int
    throughput_iters: int
    reference_effort: int | None = None  # sweep reference; None: 10 x iters
    batch_reference_effort: int = 4000  # reference iterations for batch instances 2..
    calibrated: bool = True  # see calibrate.py
    lam: float = 0.1
    density: float = 0.1

    @property
    def via_matrix_market(self) -> bool:
        """nnls instances enter through the ``iapd solve`` Matrix Market path."""
        return self.experiment == "nnls"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("l1ls-desk", "l1ls", 200, 400, 2000, bench.ALGORITHMS, 1e-4, 2000,
                 batch=12, setup_repeats=15, throughput_iters=500),
        Workload("nnls-sparse", "nnls", 400, 200, 2000, bench.ALGORITHMS, 1e-6, 2000,
                 batch=12, setup_repeats=15, throughput_iters=500),
        Workload("l1ls-large", "l1ls", 1000, 2000, 60, ("iapd-op1", "fista"), 1e-3, 1000,
                 batch=1, setup_repeats=3, throughput_iters=20, reference_effort=400,
                 calibrated=False),
    )
}

TTA_ALGORITHMS = ("op1", "op2", "fista")
MIN_ROUNDS = 2
THROUGHPUT_REPEATS = 3  # throughput samples before each tta algorithm in a round
# Set-ups stop repeating once they have taken this long: on l1ls-large the
# power iteration in K.norm() needs from ~700 to several thousand products
# depending on the seed, and a run must end within its time limit.
SETUP_BUDGET_S = 20.0
SEED_STRIDE = 1000  # batch instance i of seed s uses seed s + 1000 i


def instance_seeds(w: Workload, seed: int) -> list[int]:
    return [seed + SEED_STRIDE * i for i in range(w.batch)]


# -- set-up --------------------------------------------------------------


@dataclass
class Prepared:
    """A problem ready to solve: instance, norm cached, preset step sizes."""

    seed: int
    instance: bench.GeneratedInstance
    knorm: float
    params: problem.StepParams
    ref: problem.ReferencePoint | None = None


def write_inputs(w: Workload, seed: int, workdir: Path) -> tuple[Path, Path]:
    """Write K and b of the seeded instance as Matrix Market files."""
    inst = bench.generate_nnls(w.m, w.n, w.density, seed)
    k_path, b_path = workdir / f"K-{seed}.mtx", workdir / f"b-{seed}.mtx"
    linalg.write_matrix_market(inst.problem.K, k_path)
    linalg.write_matrix_market(linalg.LinearMap(inst.b[:, None]), b_path)
    return k_path, b_path


def load_instance(w: Workload, seed: int, files) -> bench.GeneratedInstance:
    """The instance as a user gets it: generator, or ``iapd solve``'s file path."""
    if not w.via_matrix_market:
        return bench.generate_l1ls(w.m, w.n, w.lam, seed)
    K = linalg.read_matrix_market(files[0])
    b = linalg.read_matrix_market(files[1]).to_dense()[:, 0]
    prob = problem.SaddleProblem(f1=NonnegIndicator(), f2=ZeroSmooth(), g1=ShiftedQuadratic(b),
                                 g2=ZeroSmooth(), K=K)
    return bench.GeneratedInstance(prob, b, planted=b * 0.0, name=f"user-{w.experiment}")


def uncalibrated(fn):
    """Run ``fn`` once; returns (result, start, end), like ``Calibrator.measure``."""
    start = time.perf_counter()
    result = fn()
    return result, start, time.perf_counter()


def set_up(w: Workload, seed: int, files, measure=uncalibrated):
    """Inputs to a problem with its norm cached; returns (prepared, (start, end))."""

    def build():
        inst = load_instance(w, seed, files)
        return inst, inst.problem.K.norm()

    (inst, knorm), start, end = measure(build)
    return Prepared(seed, inst, knorm, bench.preset_params(w.experiment, knorm)), (start, end)


# -- sweep ---------------------------------------------------------------


def sweep_config(w: Workload, prep: Prepared, out_dir: Path) -> bench.ExperimentConfig:
    K = prep.instance.problem.K
    return bench.ExperimentConfig(
        experiment=w.experiment, m=K.rows, n=K.cols, seed=prep.seed, iters=w.iters,
        lam=w.lam, density=w.density, algorithms=w.algorithms, out_dir=out_dir,
        reference_effort=w.reference_effort,
    )


def sweep(w: Workload, prep: Prepared, out_dir: Path, ledger: Ledger, measure=uncalibrated):
    """``run_benchmark`` into a fresh directory, then ``iapd certify`` per iapd CSV.

    Returns ((start, end), result, CSV digests).
    """
    cfg = sweep_config(w, prep, out_dir)
    codes = {}

    def run():
        result = bench.run_benchmark(cfg, prep.instance)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for name in result.results:
                csv = out_dir / f"{name}.csv"
                if name.startswith("iapd-") and csv.exists():
                    codes[name] = cli.main(["certify", "--csv", str(csv),
                                            "--meta", str(out_dir / "run_meta.json")])
        return result

    result, start, end = measure(run)
    ledger.sweep(f"sweep/seed{prep.seed}", result)
    for name, code in codes.items():
        ledger.certify_call(f"certify/seed{prep.seed}/{name}", code)
    digests = {p.stem: csv_digest(p) for p in sorted(out_dir.glob("*.csv"))}
    return (start, end), result, digests


# -- time to accuracy and throughput ---------------------------------------


def tta_solve(w: Workload, prep: Prepared, alg: str, measure=uncalibrated):
    """One solve to the target accuracy; returns ((start, end), iterations, gap, tol).

    Only the public solve call is timed.
    """
    inst, prob, ref = prep.instance, prep.instance.problem, prep.ref
    tol = w.eps * max(1.0, abs(ref.objective_value))
    if alg == "fista":
        f2 = LeastSquares(prob.K, inst.b)
        opts = solvers.SolverOptions(max_iters=w.tta_cap, gap_tol=tol, reference=ref)
        x0 = np.zeros(prob.primal_dim)
        (x, rows), start, end = measure(lambda: solvers.solve_fista(
            prob.f1, f2, 1.0 / prep.knorm**2, opts, x0=x0, objective=inst.objective))
        iters = rows[-1].k
    else:
        opts = solvers.SolverOptions(max_iters=w.tta_cap, option=f"option{alg[-1]}",
                                     gap_tol=tol, reference=ref)
        (state, _), start, end = measure(lambda: solvers.solve_iapd(
            prob, prep.params, opts, objective=inst.objective))
        iters, x = state.k - 1, state.x
    return (start, end), iters, inst.objective(x) - ref.objective_value, tol


def throughput(w: Workload, prep: Prepared, measure=uncalibrated):
    """Bare option1 for a fixed count, no objective, no observer: (start, end)."""
    opts = solvers.SolverOptions(max_iters=w.throughput_iters)
    _, start, end = measure(lambda: solvers.solve_iapd(prep.instance.problem,
                                                       prep.params, opts))
    return start, end


def run_tta(w: Workload, prep: Prepared, alg: str, ledger: Ledger, seen: dict,
            measure=uncalibrated):
    """Time one solve and account for it; iteration counts must repeat exactly.

    Returns ((start, end), iterations), or None and NaN if it raised.
    """
    label = f"tta/{alg}/seed{prep.seed}"
    try:
        span, iters, gap, tol = tta_solve(w, prep, alg, measure)
    except (solvers.DivergenceError, ValueError) as err:
        ledger.record(label, f"raised {err!r}")
        return None, math.nan
    ledger.tta(label, iters, w.tta_cap, gap, tol)
    ledger.agree(f"{label} iterations", seen.setdefault((alg, prep.seed), iters), iters)
    return span, iters


# -- statistics ------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles, and the highest percentile with >= 10 samples beyond it."""
    vals = sorted(v for v in values if not math.isnan(v))
    out = {"n": len(vals), "median": statistics.median(vals) if vals else math.nan}
    if len(vals) >= 2:
        q = statistics.quantiles(vals, n=4)
        out["q1"], out["q3"] = q[0], q[2]
    tail = None
    for pct in (99, 95, 90, 75, 50):
        if len(vals) * (100 - pct) / 100 >= 10:
            tail = pct
            break
    if tail is not None:
        out[f"p{tail}"] = statistics.quantiles(vals, n=100)[tail - 1]
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run ----------------------------------------------------------


class Samples:
    """Timed spans by metric key, scaled at the end by the run's calibrator, if any."""

    def __init__(self, cal: Calibrator | None):
        self.cal = cal
        self.measure = cal.measure if cal is not None else uncalibrated
        self.spans: dict[str, list[tuple[float, float]]] = {}

    def add(self, key: str, span) -> None:
        self.spans.setdefault(key, []).append(span if span is not None else (math.nan, math.nan))

    def measured(self, key: str) -> list[float]:
        return [end - start for start, end in self.spans[key]]

    def scaled(self, key: str) -> list[float]:
        if self.cal is None:
            return self.measured(key)
        return [self.cal.scale(*span) if not math.isnan(span[0]) else math.nan
                for span in self.spans[key]]

    def median(self, key: str) -> float:
        return statistics.median(self.scaled(key))


def prepare(w: Workload, seed: int, workdir: Path, samples: Samples):
    """Inputs for every batch instance, timed set-ups, and batch references.

    The first instance gets its reference from the sweep; the others get
    ``compute_reference`` with ``w.batch_reference_effort`` and the preset
    steps, far more accurate than any tta target.
    """
    seeds = instance_seeds(w, seed)
    files = {s: write_inputs(w, s, workdir) if w.via_matrix_market else None for s in seeds}

    spent = 0.0
    for _ in range(w.setup_repeats):
        if spent > SETUP_BUDGET_S:
            break
        prep = None
        gc.collect()
        prep, span = set_up(w, seed, files[seed], samples.measure)
        samples.add("setup_s", span)
        spent += span[1] - span[0]

    batch = [prep]
    for s in seeds[1:]:
        other = set_up(w, s, files[s])[0]
        other.ref = problem.compute_reference(other.instance.problem, w.batch_reference_effort,
                                              params=other.params,
                                              objective=other.instance.objective)
        batch.append(other)
    return batch


def untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict, Ledger]:
    """Timed set-ups, then rounds until ``seconds`` have passed.

    A round is one sweep, then for each tta algorithm three throughput
    solves and every batch instance solved to accuracy. On a calibrated
    workload every sample is taken between two runs of the calibration
    kernel (see calibrate.py) and reported at the kernel's reference speed.
    Each metric is the median of its samples; for tta, the sum over the
    batch of per-instance medians.
    """
    ledger = Ledger()
    samples = Samples(Calibrator() if w.calibrated else None)
    measure = samples.measure
    batch = prepare(w, seed, workdir, samples)

    digests = []
    iterations: dict = {}
    rounds = 0
    t_start = time.perf_counter()
    while rounds < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
        out_dir = workdir / f"sweep-{rounds}"
        gc.collect()
        span, result, dig = sweep(w, batch[0], out_dir, ledger, measure)
        shutil.rmtree(out_dir)
        samples.add("sweep_s", span)
        digests.append(dig)
        batch[0].ref = result.reference
        for alg in TTA_ALGORITHMS:
            for _ in range(THROUGHPUT_REPEATS):
                samples.add("throughput", throughput(w, batch[0], measure))
            for prep in batch:
                span, _ = run_tta(w, prep, alg, ledger, iterations, measure)
                samples.add(f"{alg}/seed{prep.seed}", span)
        rounds += 1
    for later in digests[1:]:
        ledger.agree("sweep CSV digests across rounds", digests[0], later)

    tta = {alg: sum(samples.median(f"{alg}/seed{p.seed}") for p in batch)
           for alg in TTA_ALGORITHMS}
    metrics = {
        "setup_s": (samples.median("setup_s"), "s"),
        "sweep_s": (samples.median("sweep_s"), "s"),
        "tta_op1_s": (tta["op1"], "s"),
        "tta_op2_s": (tta["op2"], "s"),
        "tta_fista_s": (tta["fista"], "s"),
        "op1_iters_per_s": (w.throughput_iters / samples.median("throughput"), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    details = {
        "rounds": rounds,
        "stats": {key: {"scaled": summarize(samples.scaled(key)),
                        "measured": summarize(samples.measured(key))}
                  for key in ("setup_s", "sweep_s", "throughput")},
        "tta_round_sums": {alg: summarize([sum(r) for r in zip(
            *(samples.scaled(f"{alg}/seed{p.seed}") for p in batch))])
            for alg in TTA_ALGORITHMS},
        "spans": samples.spans,
        "kernel_runs": samples.cal.log if samples.cal else None,
        "kernel_reference_s": samples.cal.reference_s if samples.cal else None,
        "instance_seeds": [p.seed for p in batch],
        "instance_hash": instance_hash(batch[0].instance.problem.K, batch[0].instance.b),
        "iters_to_tol": {f"{alg}/seed{s}": k for (alg, s), k in sorted(iterations.items())},
        "final_gaps": {n: r.final_gap for n, r in result.results.items()},
        "reference": {"objective": result.reference.objective_value,
                      "accuracy": result.reference.accuracy},
        "csv_digests": digests[0],
    }
    return metrics, details, ledger


# -- traced run -------------------------------------------------------------


@dataclass
class TracedPass:
    tracer: Tracer
    prep: Prepared
    sweep_s: float
    digests: dict
    csv_bytes: int
    iters: dict


def traced_pass(w: Workload, seed: int, workdir: Path, ledger: Ledger, tag: str) -> TracedPass:
    """Set-up, one sweep, one solve per tta algorithm and a throughput run, traced."""
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("phase.inputs"):
            files = write_inputs(w, seed, workdir) if w.via_matrix_market else None
        with tracer.span("phase.setup"):
            prep = set_up(w, seed, files)[0]
        out_dir = workdir / f"traced-{tag}"
        with tracer.span("phase.sweep"):
            (start, end), result, digests = sweep(w, prep, out_dir, ledger)
        csv_bytes = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        shutil.rmtree(out_dir)
        prep.ref = result.reference
        iters = {}
        for alg in TTA_ALGORITHMS:
            with tracer.span(f"phase.tta.{alg}"):
                iters[alg] = run_tta(w, prep, alg, ledger, {})[1]
        with tracer.span("phase.throughput"):
            throughput(w, prep)
    finally:
        tracer.uninstall()
    return TracedPass(tracer, prep, end - start, digests, csv_bytes, iters)


def matvec_cost(K) -> tuple[float, float]:
    """Computed flops and bytes of one product with K (not measured traffic).

    Dense: the m x n values plus the two vectors. CSR: values, int32 column
    indices and row pointers, plus the two vectors.
    """
    m, n = K.shape
    if K.is_sparse:
        nnz = K.triples()[2].size
        return 2.0 * nnz, nnz * (8 + 4) + (m + 1) * 4 + 8 * (m + n)
    return 2.0 * m * n, 8.0 * m * n + 8 * (m + n)


class Spans:
    """Queries over one tracer's spans."""

    def __init__(self, tracer: Tracer):
        self.a = tracer.arrays()
        self.ids = {name: i for i, name in enumerate(tracer.names)}
        self.names = tracer.names

    def mask(self, *names: str, within: str | None = None) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        m = np.isin(self.a["name_id"], ids)
        if within is not None:
            w = self.mask(within)
            lo, hi = self.a["start"][w].min(), self.a["end"][w].max()
            m &= (self.a["start"] >= lo) & (self.a["end"] <= hi)
        return m

    def count(self, *names, within=None) -> int:
        return int(self.mask(*names, within=within).sum())

    def total_s(self, *names, within=None) -> float:
        return float(self.a["dur"][self.mask(*names, within=within)].sum()) / 1e9

    def mean_us(self, *names, within=None, key="dur") -> float:
        m = self.mask(*names, within=within)
        return float(self.a[key][m].mean()) / 1e3 if m.any() else math.nan

    def call_counts(self) -> dict[str, int]:
        counts = np.bincount(self.a["name_id"], minlength=len(self.names))
        return {name: int(c) for name, c in zip(self.names, counts)}


def layer_metrics(spans: Spans, prep: Prepared, untraced_sweep_s: float,
                  csv_bytes: int, iters: dict) -> dict:
    a = spans.a
    apply, adjoint = "linalg.LinearMap.apply", "linalg.LinearMap.apply_adjoint"
    n_apply, n_adj = spans.count(apply), spans.count(adjoint)
    matvec_s = spans.total_s(apply, adjoint)
    flops, nbytes = matvec_cost(prep.instance.problem.K)

    norm_ids = spans.mask("linalg.LinearMap.norm")
    parent = a["parent"]
    under_norm = (parent >= 0) & norm_ids[np.maximum(parent, 0)]
    norm_matvecs = int((under_norm & spans.mask(apply, adjoint)).sum())

    # Top-level linalg work in set-up other than the norm: reading the
    # Matrix Market files, or building and validating the LinearMap.
    linalg_ids = [i for n, i in spans.ids.items() if n.startswith("linalg.")]
    is_linalg = np.isin(a["name_id"], linalg_ids)
    top_linalg = is_linalg & ~((parent >= 0) & is_linalg[np.maximum(parent, 0)])
    in_setup = spans.mask(*spans.ids, within="phase.setup")
    setup_input_ns = a["dur"][top_linalg & in_setup & ~norm_ids].sum()

    f1_prox = f"proxfuns.{type(prep.instance.problem.f1).__name__}.prox"
    g1_prox = "proxfuns.ShiftedQuadratic.prox"
    prox_names = [n for n in spans.ids if n.startswith("proxfuns.") and n.endswith(".prox")]

    sweep_phase_s = spans.total_s("phase.sweep")
    solve_names = [n for n in spans.ids if n.startswith("solvers.solve_")]
    steps_op1 = spans.count("solvers.iapd_step", within="phase.tta.op1")
    m = {
        "linalg.apply_calls": (n_apply, "count"),
        "linalg.adjoint_calls": (n_adj, "count"),
        "linalg.apply_us": (spans.mean_us(apply), "us"),
        "linalg.adjoint_us": (spans.mean_us(adjoint), "us"),
        "linalg.matvec_gflops": ((n_apply + n_adj) * flops / matvec_s / 1e9, "GFLOP/s"),
        "linalg.matvec_gbytes_s": ((n_apply + n_adj) * nbytes / matvec_s / 1e9, "GB/s"),
        "linalg.norm_s": (spans.total_s("linalg.LinearMap.norm", within="phase.setup"), "s"),
        "linalg.norm_matvecs": (norm_matvecs, "count"),
        "linalg.setup_input_s": (float(setup_input_ns) / 1e9, "s"),
        "proxfuns.prox_calls": (spans.count(*prox_names), "count"),
        "proxfuns.prox_f1_us": (spans.mean_us(f1_prox), "us"),
        "proxfuns.prox_g1_us": (spans.mean_us(g1_prox), "us"),
        "proxfuns.zero_grad_calls": (spans.count("proxfuns.ZeroSmooth.grad"), "count"),
        "solvers.iapd_step_calls": (spans.count("solvers.iapd_step"), "count"),
        "solvers.iapd_step_self_us": (spans.mean_us("solvers.iapd_step", key="self"), "us"),
        "solvers.iters_to_tol.op1": (iters["op1"], "count"),
        "solvers.iters_to_tol.op2": (iters["op2"], "count"),
        "solvers.iters_to_tol.fista": (iters["fista"], "count"),
        "solvers.solve_s.iapd-op1": (
            spans.total_s("solvers.solve_iapd[option1]", within="phase.sweep"), "s"),
        "solvers.solve_s.fista": (spans.total_s("solvers.solve_fista", within="phase.sweep"), "s"),
        "solvers.solve_s.sweep_total": (spans.total_s(*solve_names, within="phase.sweep"), "s"),
        "problem.compute_reference_s": (
            spans.total_s("problem.compute_reference", within="phase.sweep"), "s"),
        "problem.compute_reference_share": (
            spans.total_s("problem.compute_reference", within="phase.sweep") / sweep_phase_s,
            "share"),
        "problem.lagrangian_calls": (spans.count("problem.SaddleProblem.lagrangian"), "count"),
        "problem.lagrangian_us": (spans.mean_us("problem.SaddleProblem.lagrangian"), "us"),
        "diagnostics.energy_calls": (spans.count("diagnostics.energy"), "count"),
        "diagnostics.energy_s": (spans.total_s("diagnostics.energy"), "s"),
        "diagnostics.certify_s": (spans.total_s("diagnostics.certify"), "s"),
        "bench.objective_calls_per_step": (
            spans.count("bench.GeneratedInstance.objective", within="phase.tta.op1") / steps_op1,
            "calls/step"),
        "bench.generate_s": (spans.total_s("bench.generate_l1ls", "bench.generate_nnls"), "s"),
        "bench.emit_csv_s": (spans.total_s("bench.emit_csv"), "s"),
        "bench.csv_bytes": (csv_bytes, "B"),
        "cli.certify_s": (spans.total_s("cli.main"), "s"),
        "trace.sweep_overhead_s": (sweep_phase_s - untraced_sweep_s, "s"),
    }
    return m


def traced(w: Workload, seed: int, workdir: Path, spans_path: Path) -> tuple[dict, dict, Ledger]:
    """Two traced passes that must agree, with an untraced sweep between them.

    The untraced sweep reuses the first pass's set-up, which saves a
    ``K.norm()`` on l1ls-large. The spans of the first pass are written to
    ``spans_path``.
    """
    ledger = Ledger()
    first = traced_pass(w, seed, workdir, ledger, "a")
    plain_dir = workdir / "untraced"
    (start, end), _, plain_digests = sweep(w, first.prep, plain_dir, ledger)
    sweep_s = end - start
    shutil.rmtree(plain_dir)
    second = traced_pass(w, seed, workdir, ledger, "b")
    counts = [Spans(p.tracer).call_counts() for p in (first, second)]
    ledger.agree("traced call counts of the two passes", counts[0], counts[1])
    ledger.agree("iterations to tolerance of the two passes", first.iters, second.iters)
    ledger.agree("CSV digests, untraced and first traced pass", plain_digests, first.digests)
    ledger.agree("CSV digests, untraced and second traced pass", plain_digests, second.digests)

    first.tracer.save(spans_path)
    spans = Spans(first.tracer)
    metrics = layer_metrics(spans, first.prep, sweep_s, first.csv_bytes, first.iters)
    details = {
        "untraced_sweep_s": sweep_s,
        "traced_sweep_s": first.sweep_s,
        "spans": len(first.tracer.start),
        "call_counts": counts[0],
        "csv_digests": plain_digests,
        "read_matrix_market_s": spans.total_s("linalg.read_matrix_market", within="phase.setup"),
        "sweep_solve_s": {n: spans.total_s(n, within="phase.sweep")
                          for n in spans.ids if n.startswith("solvers.solve_")},
        "self_s_by_layer": self_time_by_layer(spans),
    }
    return metrics, details, ledger


def self_time_by_layer(spans: Spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, i in spans.ids.items():
        layer = name.split(".", 1)[0]
        ns = spans.a["self"][spans.a["name_id"] == i].sum()
        out[layer] = out.get(layer, 0.0) + float(ns) / 1e9
    return out


# -- entry -----------------------------------------------------------------


def check_sources() -> None:
    """Refuse to measure an ``iapd`` that is not the checkout's ``src/iapd``."""
    want = (Path.cwd() / "src" / "iapd").resolve()
    got = Path(iapd.__file__).resolve().parent
    if got != want:
        raise SystemExit(f"error: imported iapd from {got}, expected {want}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    check_sources()
    w = WORKLOADS[args.workload]

    out_root = Path.cwd() / ".perfbench-out"
    stem = out_root / f"{w.name}-seed{args.seed}-trace{args.trace}"
    workdir = out_root / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    started = time.perf_counter()
    try:
        if args.trace:
            metrics, details, ledger = traced(w, args.seed, workdir, stem.with_suffix(".spans.npz"))
        else:
            metrics, details, ledger = untraced(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values_ok = all(math.isfinite(v) for v, _ in metrics.values())
    correct = ledger.failed == 0 and not ledger.mismatches and values_ok
    details.update({
        "workload": w.name, "seed": args.seed, "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "ops": ledger.attempted, "ops_failed": ledger.failed,
        "failures": ledger.failures[:50],
        "mismatches": [m[:2000] for m in ledger.mismatches],
        "environment": environment(THREADS_AT_START),
    })
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    print(json.dumps(details, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
