"""Acceptance suite: one test per release criterion, with a printed verdict.

Criterion 7 (baseline ordering at the final iteration) is an empirical
trend check; a miss is reported as WARN and does not fail the suite.
"""

import math

import numpy as np
import pytest

from iapd import bench
from iapd.bench import ExperimentConfig, generate_l1ls
from iapd.cli import main as cli_main
from iapd.linalg import NORM_SAFETY, LinearMap
from iapd.problem import SaddleProblem, StepParams
from iapd.proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ShiftedQuadratic,
    ZeroSmooth,
)
from iapd.solvers import SolverOptions, next_t, solve_fista, solve_iapd, solve_tseng

from helpers import ZeroProx
from test_prox import check_subgradient


def verdict(num, ok, detail, warn_only=False):
    tag = "PASS" if ok else ("WARN" if warn_only else "FAIL")
    print(f"[{tag}] criterion {num}: {detail}")
    if not warn_only:
        assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="session")
def desk_runs(tmp_path_factory):
    """The two desk-scale benchmark runs shared by criteria 2-4, 6, 7."""
    runs = {}
    for exp, m, n, seed, extra in (
        ("l1ls", 200, 400, 7, {"lam": 0.1}),
        ("nnls", 400, 200, 11, {"density": 0.1}),
    ):
        cfg = ExperimentConfig(
            experiment=exp, m=m, n=n, seed=seed, iters=2000,
            algorithms=("iapd-op1", "iapd-op2", "pda", "fista"),
            out_dir=tmp_path_factory.mktemp(f"desk-{exp}"), **extra,
        )
        runs[exp] = bench.run_benchmark(cfg)
        assert runs[exp].status == 0
    return runs


def test_criterion_1_t_sequence_certificate():
    import time

    sqrt = math.sqrt
    # CPU time of this process: the bound is on the check's own work, which
    # wall time would also charge for other processes sharing the machine.
    start = time.process_time()
    worst_rel = 0.0
    ok = True
    heads = {}  # the first 1000 terms after t1 of each setting
    for t1 in (1.0, 1.2, 5.0):
        for a in (0.0, 0.1, 1.0, 10.0):
            n_terms = 100_000
            ts = [t1]
            append, t = ts.append, t1
            for _ in range(n_terms):
                p = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t * t))
                q = sqrt(t * t + a * t)
                t = p if p < q else q
                append(t)
            ts = np.array(ts)
            heads[t1, a] = ts[:1001]
            # exact up to floating round-off: a few ulps of t_{k+1}^2
            eps = 32.0 * np.finfo(float).eps * np.maximum(1.0, ts[1:] ** 2)
            r1 = ts[1:] ** 2 - ts[1:] - ts[:-1] ** 2
            r2 = ts[1:] ** 2 - (ts[:-1] ** 2 + a * ts[:-1])
            b = 2.0 * a * t1 / (a + 4.0 * t1) if a > 0 else 0.0
            lower = min(0.5, b) * (np.arange(n_terms + 1) + 1.0)
            ok &= bool(np.all(r1 <= eps) and np.all(r2 <= eps)
                       and np.all(ts >= lower * (1.0 - 1e-15)))
            worst_rel = max(worst_rel, float(np.max(r1 / np.maximum(ts[1:] ** 2, 1.0))),
                            float(np.max(r2 / np.maximum(ts[1:] ** 2, 1.0))))
    elapsed = time.process_time() - start
    # The loop above is the solver's own recursion, bit for bit.
    for (t1, a), head in heads.items():
        t = t1
        for want in head[1:]:
            t = next_t(t, a)
            assert t == want
    verdict(1, ok and elapsed < 1.0,
            f"12 (t1, a) settings x 1e5 terms, worst relative residual "
            f"{worst_rel:.2e}, {elapsed:.2f}s")


def test_criterion_2_energy_monotonicity(desk_runs):
    details = []
    ok = True
    for exp, run in desk_runs.items():
        for name in ("iapd-op1", "iapd-op2"):
            res = run.results[name]
            e1 = res.params["E1"]
            tol = 1e-8 * (1.0 + abs(e1)) + 10.0 * run.reference.accuracy
            energies = [e1, *res.rows.column("energy")]
            viol = sum(1 for p, c in zip(energies, energies[1:]) if c > p + tol)
            ok &= viol == 0
            details.append(f"{exp}/{name} violations={viol}")
    verdict(2, ok, "energy nonincreasing over 2000 iterations: " + ", ".join(details))


def test_criterion_3_gap_certificate(desk_runs):
    details = []
    ok = True
    for exp, run in desk_runs.items():
        for name in ("iapd-op1", "iapd-op2"):
            cert = run.results[name].certificate
            ok &= cert.rows == 2001 and cert.gap_violations == 0
            details.append(f"{exp}/{name} gap-violations={cert.gap_violations}")
    verdict(3, ok, "gap_ref * t_k^2 <= E_1 at every iteration: " + ", ".join(details))


def test_criterion_4_dual_certificates(desk_runs):
    details = []
    ok = True
    for exp, run in desk_runs.items():
        for name in ("iapd-op1", "iapd-op2"):
            cert = run.results[name].certificate
            ok &= cert.rows == 2001 and cert.dual_violations == 0 and cert.v_violations == 0
            details.append(
                f"{exp}/{name} y-violations={cert.dual_violations} "
                f"v-violations={cert.v_violations}"
            )
    verdict(4, ok, "dual distance bounds hold: " + ", ".join(details))


def test_criterion_5_reduction_equivalence():
    import time

    start = time.monotonic()
    rng = np.random.default_rng(41)
    n = 40
    A = rng.standard_normal((80, n)) / math.sqrt(80)
    b_vec = rng.standard_normal(80)
    f2 = LeastSquares(LinearMap(A), b_vec)
    alpha = 0.9 / f2.lipschitz
    problem = SaddleProblem(
        f1=L1Norm(0.05), f2=f2, g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((1, n))),
    )
    params = StepParams(alpha=alpha, beta=3.0, t1=1.0)

    mismatched = 0
    ok = True
    for option, solve_base in (("option1", solve_fista), ("option2", solve_tseng)):
        iapd_iters, base_iters = [], []
        solve_iapd(problem, params, SolverOptions(max_iters=500, option=option),
                   observer=lambda row, st: iapd_iters.append(st.x.copy()))
        solve_base(problem.f1, f2, alpha, SolverOptions(max_iters=500),
                   observer=lambda row, it: base_iters.append(it.x.copy()),
                   x0=np.zeros(n), t1=1.0)
        ok &= len(iapd_iters) == len(base_iters) == 500
        mismatched += sum(not np.array_equal(xa, xb) for xa, xb in zip(iapd_iters, base_iters))
    ok &= mismatched == 0
    elapsed = time.monotonic() - start
    verdict(5, ok and elapsed < 2.0,
            f"K=0 reductions match bit for bit over 500 iterations, "
            f"{mismatched} mismatching iterates, {elapsed:.2f}s")


def test_criterion_6_empirical_rate(desk_runs):
    details = []
    ok = True
    run = desk_runs["l1ls"]
    for name in ("iapd-op1", "iapd-op2"):
        fit = run.results[name].slope
        ok &= (fit.k_min, fit.k_max) == (100, 1000) and fit.slope <= -1.8
        details.append(f"{name} slope={fit.slope:.3f}")
    verdict(6, ok, "l1ls log-log gap slope on [100, 1000] <= -1.8: " + ", ".join(details))


def test_criterion_7_baseline_ordering(desk_runs):
    details = []
    ok = True
    for exp, run in desk_runs.items():
        best = min(run.results["iapd-op1"].final_gap,
                   run.results["iapd-op2"].final_gap)
        pda_gap = run.results["pda"].final_gap
        fista_gap = run.results["fista"].final_gap
        ok &= best <= pda_gap and best <= fista_gap
        details.append(
            f"{exp}: min-iapd={best:.3e} pda={pda_gap:.3e} fista={fista_gap:.3e}"
        )
    verdict(7, ok, "final objective gap ordering at iteration 2000: "
            + ", ".join(details), warn_only=True)


def test_criterion_8_prox_oracle_suite():
    import time

    start = time.monotonic()
    rng = np.random.default_rng(2025)
    kinds = [L1Norm(0.7), NonnegIndicator(),
             ShiftedQuadratic(np.linspace(-2, 2, 8)), ZeroProx()]
    for kind in kinds:
        for _ in range(1000):
            step = float(10.0 ** rng.uniform(-3, 2))
            z = rng.standard_normal(8) * float(10.0 ** rng.uniform(-1, 1))
            check_subgradient(kind, step, z, tol=1e-8)
    # scalar soft threshold against a 1e-4-grid brute force
    f = L1Norm(0.8)
    grid = np.arange(-20.0, 20.0, 1e-4)
    for step in (0.3, 1.0, 4.0):
        for z in (-6.3, -0.2, 0.0, 0.5, 9.9):
            vals = f.weight * np.abs(grid) + (grid - z) ** 2 / (2.0 * step)
            brute = grid[int(np.argmin(vals))]
            assert abs(float(f.prox(step, np.array([z]))[0]) - brute) <= 1e-4
    elapsed = time.monotonic() - start
    verdict(8, elapsed < 5.0,
            f"4 prox kinds x 1000 optimality-condition checks plus grid "
            f"soft-threshold comparison, {elapsed:.2f}s")


def test_criterion_9_operator_suite():
    import time

    start = time.monotonic()
    rng = np.random.default_rng(99)
    K = LinearMap(rng.standard_normal((35, 45)))
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(45)
        y = rng.standard_normal(35)
        lhs = float(K.apply(x) @ y)
        rhs = float(x @ K.apply_adjoint(y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))
    worst_norm = 0.0
    for _ in range(5):
        A = rng.standard_normal((40, 60))
        est = LinearMap(A).norm() / NORM_SAFETY
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        worst_norm = max(worst_norm, abs(est - sigma) / sigma)
        assert abs(est - sigma) <= 1e-4 * sigma
    elapsed = time.monotonic() - start
    verdict(9, elapsed < 5.0,
            f"adjoint identity worst residual {worst:.2e}, norm-vs-SVD worst "
            f"relative error {worst_norm:.2e} on 40x60, {elapsed:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    args = ["bench", "l1ls", "--seed", "7", "--m", "80", "--n", "160",
            "--iters", "300", "--algos", "iapd-op1,iapd-op2,pda,fista"]
    assert cli_main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli_main([*args, "--out", str(tmp_path / "b")]) == 0
    ok = True
    for name in ("iapd-op1", "iapd-op2", "pda", "fista"):
        fa = (tmp_path / "a" / f"{name}.csv").read_text().splitlines()
        fb = (tmp_path / "b" / f"{name}.csv").read_text().splitlines()
        stripped_a = [",".join(line.split(",")[:-1]) for line in fa]
        stripped_b = [",".join(line.split(",")[:-1]) for line in fb]
        ok &= stripped_a == stripped_b
    verdict(10, ok, "two bench invocations give byte-identical CSVs "
            "excluding the elapsed_s column")
