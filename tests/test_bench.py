"""Instance generators, CSV round trips, and the benchmark driver."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from iapd import solvers
from iapd.bench import (
    ALGORITHMS,
    CSV_HEADER,
    ExperimentConfig,
    emit_csv,
    generate_l1ls,
    generate_nnls,
    preset_params,
    read_csv,
    run_benchmark,
)
from iapd.problem import validate_params
from iapd.proxfuns import L1Norm, NonnegIndicator
from iapd.solvers import TraceRow

from test_baseline_oracle import PoisonedProx


def test_l1ls_shapes_and_support():
    inst = generate_l1ls(30, 20, 0.1, seed=0)
    assert inst.problem.K.shape == (30, 20)
    assert not inst.problem.K.is_sparse
    assert isinstance(inst.problem.f1, L1Norm)
    assert np.count_nonzero(inst.planted) == round(0.95 * 20)
    assert inst.b.shape == (30,)


def test_l1ls_row_normalized_scale():
    # entries are N(0, 1/m): the empirical column-norm average is near 1
    inst = generate_l1ls(400, 100, 0.1, seed=1)
    col_norms = np.linalg.norm(inst.problem.K.to_dense(), axis=0)
    assert abs(float(np.mean(col_norms)) - 1.0) < 0.05


def test_l1ls_deterministic():
    a = generate_l1ls(25, 40, 0.1, seed=7)
    b = generate_l1ls(25, 40, 0.1, seed=7)
    assert np.array_equal(a.problem.K.to_dense(), b.problem.K.to_dense())
    assert np.array_equal(a.b, b.b)
    assert np.array_equal(a.planted, b.planted)
    c = generate_l1ls(25, 40, 0.1, seed=8)
    assert not np.array_equal(a.b, c.b)


def test_nnls_shapes_support_and_sign():
    inst = generate_nnls(40, 40, 0.3, seed=0)
    assert inst.problem.K.is_sparse
    assert isinstance(inst.problem.f1, NonnegIndicator)
    dense = inst.problem.K.to_dense()
    assert np.min(dense) >= 0.0 and np.max(dense) <= 0.1
    assert np.count_nonzero(inst.planted) == round(0.05 * 40)
    assert np.min(inst.planted) >= 0.0
    # noiseless: b = K @ planted exactly
    assert np.array_equal(inst.b, dense @ inst.planted)


def test_nnls_realized_density_desk_instance():
    inst = generate_nnls(400, 200, 0.1, seed=11)
    realized = np.count_nonzero(inst.problem.K.to_dense()) / (400 * 200)
    assert 0.08 <= realized <= 0.12


def test_nnls_full_density_is_dense_pattern():
    inst = generate_nnls(10, 8, 1.0, seed=3)
    assert np.count_nonzero(inst.problem.K.to_dense()) == 80


def test_nnls_rejects_bad_density():
    with pytest.raises(ValueError):
        generate_nnls(5, 5, 0.0, seed=0)
    with pytest.raises(ValueError):
        generate_nnls(5, 5, 1.5, seed=0)


def test_presets_feasible_on_their_families():
    l1 = generate_l1ls(30, 50, 0.1, seed=2)
    params = preset_params("l1ls", l1.problem.K.norm())
    assert params.t1 == 5.0
    assert validate_params(l1.problem, params).ok
    nn = generate_nnls(50, 30, 0.2, seed=2)
    params = preset_params("nnls", nn.problem.K.norm())
    assert params.t1 == 1.2
    assert validate_params(nn.problem, params).ok
    with pytest.raises(ValueError):
        preset_params("other", 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="foo", m=2, n=2, seed=0, iters=1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="l1ls", m=0, n=2, seed=0, iters=1)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=0, iters=0)
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=0, iters=1,
                         algorithms=("nope",))
    with pytest.raises(ValueError):
        ExperimentConfig(experiment="nnls", m=2, n=2, seed=0, iters=1, density=0.0)


def test_config_rejects_zero_stride():
    # Rejected with the other config checks, before any output or reference work.
    with pytest.raises(ValueError, match="observer_stride"):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=0, iters=1, observer_stride=0)


# -- CSV -------------------------------------------------------------------


def sample_rows():
    return [
        TraceRow(algorithm="fista", k=1, t_k=1.0, objective=2.5,
                 gap_ref=math.nan, dx=0.25, dy=math.nan, energy=math.nan,
                 elapsed_s=0.001),
        TraceRow(algorithm="fista", k=2, t_k=1.618033988749895,
                 objective=1.0 / 3.0, gap_ref=1e-300, dx=0.1, dy=0.2,
                 energy=-4.2, elapsed_s=0.002),
    ]


def test_csv_roundtrip_exact(tmp_path):
    path = tmp_path / "t.csv"
    rows = sample_rows()
    emit_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == CSV_HEADER
    assert len(text) == 3
    back = read_csv(path)
    for orig, rt in zip(rows, back):
        assert rt.algorithm == orig.algorithm and rt.k == orig.k
        for f in ("t_k", "objective", "gap_ref", "dx", "dy", "energy", "elapsed_s"):
            o, r = getattr(orig, f), getattr(rt, f)
            assert (math.isnan(o) and math.isnan(r)) or o == r


def test_csv_nan_becomes_empty_cell(tmp_path):
    path = tmp_path / "t.csv"
    emit_csv(sample_rows()[:1], path)
    line = path.read_text().splitlines()[1]
    # gap_ref, dy and energy are NaN for the first sample row
    assert ",," in line


def test_emit_csv_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert read_csv(path) == []


def test_emit_csv_rejects_mixed_algorithms(tmp_path):
    rows = sample_rows()
    rows[1].algorithm = "pda"
    with pytest.raises(ValueError):
        emit_csv(rows, tmp_path / "m.csv")


def test_read_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text("not,the,header\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_csv_rejects_short_row(tmp_path):
    path = tmp_path / "b.csv"
    path.write_text(CSV_HEADER + "\nfista,1,1.0\n")
    with pytest.raises(ValueError):
        read_csv(path)


# -- driver ----------------------------------------------------------------


def test_run_benchmark_end_to_end(tmp_path):
    cfg = ExperimentConfig(
        experiment="l1ls", m=20, n=30, seed=5, iters=60,
        algorithms=ALGORITHMS, out_dir=tmp_path / "out",
        reference_effort=3000,
    )
    result = run_benchmark(cfg)
    assert result.status == 0
    for name in ALGORITHMS:
        res = result.results[name]
        assert not res.skipped
        assert len(res.rows) == 60
        assert (tmp_path / "out" / f"{name}.csv").exists()
    for fname in ("summary.txt", "plotdata.tsv", "run_meta.json"):
        assert (tmp_path / "out" / fname).exists()
    # energy metadata present for the accelerated primal-dual runs
    assert "E1" in result.results["iapd-op1"].params
    assert result.results["iapd-op1"].certificate.ok
    # iapd rows carry energy values, baselines carry reference gaps
    assert all(math.isfinite(r.energy) for r in result.results["iapd-op2"].rows)
    assert all(math.isfinite(r.gap_ref) for r in result.results["pda"].rows)
    assert all(math.isfinite(r.gap_ref) for r in result.results["fista"].rows)


def test_run_benchmark_traces_deterministic(tmp_path):
    cfg = dict(experiment="nnls", m=30, n=20, seed=9, iters=40,
               density=0.3, algorithms=("iapd-op1", "apda"),
               reference_effort=2000)
    r1 = run_benchmark(ExperimentConfig(out_dir=tmp_path / "a", **cfg))
    r2 = run_benchmark(ExperimentConfig(out_dir=tmp_path / "b", **cfg))
    for name in cfg["algorithms"]:
        rows1, rows2 = r1.results[name].rows, r2.results[name].rows
        for a, b in zip(rows1, rows2):
            assert (a.k, a.t_k, a.objective, a.gap_ref, a.dx, a.dy) == \
                   (b.k, b.t_k, b.objective, b.gap_ref, b.dx, b.dy)


def test_run_benchmark_partial_when_structure_unsupported(tmp_path):
    # A user instance with a smooth primal part: the accelerated solver
    # handles it, but pda needs full-prox structure and is skipped.
    from iapd.bench import GeneratedInstance
    from iapd.linalg import LinearMap
    from iapd.problem import SaddleProblem
    from iapd.proxfuns import ShiftedQuadratic, SmoothFunction, ZeroSmooth

    class Quad(SmoothFunction):
        lipschitz = 1.0

        def value(self, x):
            return 0.5 * float(x @ x)

        def grad(self, x):
            return np.asarray(x, dtype=np.float64)

    rng = np.random.default_rng(21)
    A = rng.standard_normal((10, 8)) / 4.0
    b = rng.standard_normal(10)
    problem = SaddleProblem(f1=L1Norm(0.1), f2=Quad(), g1=ShiftedQuadratic(b),
                            g2=ZeroSmooth(), K=LinearMap(A))
    instance = GeneratedInstance(problem, b, planted=np.zeros(8), name="mixed")
    cfg = ExperimentConfig(
        experiment="l1ls", m=10, n=8, seed=0, iters=30,
        algorithms=("iapd-op1", "pda"), out_dir=tmp_path / "out",
        alpha=0.05, beta=0.05, t1=2.0, reference_effort=500,
    )
    result = run_benchmark(cfg, instance=instance)
    assert result.status == 3
    assert result.results["pda"].skipped
    assert not result.results["iapd-op1"].skipped
    assert (tmp_path / "out" / "iapd-op1.csv").exists()
    assert not (tmp_path / "out" / "pda.csv").exists()


def test_run_benchmark_partial_on_infeasible_override(tmp_path):
    cfg = ExperimentConfig(
        experiment="l1ls", m=15, n=20, seed=1, iters=30,
        algorithms=("iapd-op1", "fista"), out_dir=tmp_path / "out",
        alpha=100.0, beta=100.0, reference_effort=200,
    )
    # the reference solve itself needs feasible parameters, so the driver
    # fails fast with a ValueError before running any algorithm
    with pytest.raises(ValueError):
        run_benchmark(cfg)


def test_run_benchmark_keeps_partial_trace_of_diverged_algorithm(tmp_path, monkeypatch):
    cfg = dict(experiment="l1ls", m=20, n=30, seed=5, iters=60,
               algorithms=("pda", "fista"), reference_effort=1000)
    clean = run_benchmark(ExperimentConfig(out_dir=tmp_path / "clean", **cfg))
    solve_pda = solvers.solve_pda

    def poisoned_pda(problem, *args, **kwargs):
        return solve_pda(replace(problem, f1=PoisonedProx(problem.f1, 20)), *args, **kwargs)

    monkeypatch.setattr(solvers, "solve_pda", poisoned_pda)
    out = tmp_path / "out"
    result = run_benchmark(ExperimentConfig(out_dir=out, **cfg))

    assert result.status == 3
    res = result.results["pda"]
    assert res.skipped == "non-finite iterate at iteration 20"
    assert res.diverged_at == 20
    assert res.params == clean.results["pda"].params
    rows = read_csv(out / "pda.csv")
    assert [r.k for r in rows] == list(range(1, 20))
    want = read_csv(tmp_path / "clean" / "pda.csv")[:19]
    assert [replace(r, elapsed_s=0.0) for r in rows] == [replace(r, elapsed_s=0.0) for r in want]
    assert not result.results["fista"].skipped
    summary = (out / "summary.txt").read_text().splitlines()
    i = summary.index("pda: SKIPPED (non-finite iterate at iteration 20)")
    assert summary[i + 1] == "  partial trace: 19 rows kept, diverged at iteration 20"
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["algorithms"]["pda"]["partial_trace"] == {"rows": 19, "diverged_at": 20}
    assert "partial_trace" not in meta["algorithms"]["fista"]


def test_run_benchmark_removes_stale_algorithm_csvs(tmp_path):
    out = tmp_path / "out"
    common = dict(experiment="l1ls", m=20, n=30, iters=30, reference_effort=300, out_dir=out)
    run_benchmark(ExperimentConfig(seed=3, algorithms=("iapd-op1", "fista"), **common))
    assert (out / "iapd-op1.csv").exists()
    (out / "notes.csv").write_text("kept\n")
    run_benchmark(ExperimentConfig(seed=4, algorithms=("fista",), **common))
    assert sorted(p.name for p in out.glob("*.csv")) == ["fista.csv", "notes.csv"]
    assert json.loads((out / "run_meta.json").read_text())["seed"] == 4
