"""Instance generators, CSV round trips, and the benchmark driver."""

import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iapd import diagnostics, solvers
from iapd.bench import (
    ALGORITHMS,
    CSV_HEADER,
    ExperimentConfig,
    emit_csv,
    generate_l1ls,
    generate_nnls,
    preset_params,
    read_csv,
    reference_params,
    run_benchmark,
)
from iapd.linalg import LinearMap
from iapd.problem import SaddleProblem, StepParams, default_step_params, validate_params
from iapd.proxfuns import (L1Norm, LeastSquares, NonnegIndicator, ShiftedQuadratic,
                           ZeroSmooth)
from iapd.solvers import Trace, TraceRow

from helpers import trace_of
from test_baseline_oracle import PoisonedProx
from test_cli import strip_elapsed


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
    assert params.t1 == 10.0
    validate_params(l1.problem, params)
    assert reference_params("l1ls", l1.problem.K.norm()).t1 == 5.0
    validate_params(l1.problem, reference_params("l1ls", l1.problem.K.norm()))
    nn = generate_nnls(50, 30, 0.2, seed=2)
    params = preset_params("nnls", nn.problem.K.norm())
    assert params.t1 == 1.0
    validate_params(nn.problem, params)
    validate_params(nn.problem, reference_params("nnls", nn.problem.K.norm()))
    for steps in (preset_params, reference_params):
        with pytest.raises(ValueError, match="unknown experiment 'other'"):
            steps("other", 1.0)
        with pytest.raises(ValueError, match="zero operator norm"):
            steps("l1ls", 0.0)


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e3))
def test_presets_are_the_split_of_the_coupling_budget_bit_for_bit(knorm):
    # The l1ls reference row keeps the form that l1ls option 1 had before
    # problem.py derived it from the family table.
    l1, nn = preset_params("l1ls", knorm), preset_params("nnls", knorm)
    ref = reference_params("l1ls", knorm)
    assert (ref.alpha, ref.beta, ref.t1) == (0.98 / (2.0 * knorm), 2.0 / knorm, 5.0)
    wide = (1.5 / knorm, (0.98 / 1.5) / knorm)  # alpha ||K|| = 1.5
    assert l1 == StepParams(*wide, 10.0)
    assert nn == reference_params("nnls", knorm) == StepParams(*wide, 1.0)


def test_default_step_params_are_the_l1ls_presets():
    """They are the l1ls reference row."""
    inst = generate_l1ls(30, 50, 0.1, seed=2)
    assert default_step_params(inst.problem) == reference_params("l1ls", inst.problem.K.norm())


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["l1ls", "nnls"]), st.integers(4, 24), st.integers(4, 24),
       st.floats(0.3, 1.0), st.integers(0, 2**32 - 1))
def test_each_option_certifies_on_its_preset_row(tmp_path_factory, family, m, n, density, seed):
    """Each option at its family's preset row: no certificate violation, and no rise in energy."""
    cfg = ExperimentConfig(experiment=family, m=m, n=n, seed=seed, iters=300, density=density,
                           algorithms=("iapd-op1", "iapd-op2"),
                           out_dir=tmp_path_factory.mktemp("presets"))
    if family == "l1ls":
        inst = generate_l1ls(m, n, 0.1, seed)
    else:
        inst = generate_nnls(m, n, density, seed)
    assume(inst.problem.K.norm() > 0)
    result = run_benchmark(cfg, instance=inst)
    preset = preset_params(family, inst.problem.K.norm())
    for name in ("iapd-op1", "iapd-op2"):
        res = result.results[name]
        assert (res.params["alpha"], res.params["beta"], res.params["t1"]) == (
            preset.alpha, preset.beta, preset.t1)
        assert not res.skipped and res.certificate.ok, res.certificate
        energies = [res.params["E1"], *res.rows.column("energy")]
        tol = 1e-8 * (1.0 + abs(energies[0])) + 10.0 * result.reference.accuracy
        assert all(later <= earlier + tol for earlier, later in zip(energies, energies[1:]))


def test_l1ls_presets_converge_on_a_map_whose_top_direction_avoids_ones():
    # ||K|| = sqrt(8), and the all-ones vector lies in the singular space of
    # sqrt(2). With ||K|| taken as sqrt(2) the presets still pass
    # validate_params, and iapd diverges at k = 393. The solution of
    # min 0.1 ||x||_1 + 0.5 ||Kx - b||^2 is (0.7, 0.2).
    K = LinearMap(np.array([[2.0, -2.0], [1.0, 1.0]]))
    prob = SaddleProblem(f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic(np.ones(2)),
                         g2=ZeroSmooth(), K=K)
    params = preset_params("l1ls", K.norm())
    validate_params(prob, params)
    state, _ = solvers.solve_iapd(prob, params, solvers.SolverOptions(max_iters=2000))
    assert np.allclose(state.x, [0.7, 0.2], atol=1e-5)


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


def test_config_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=-1, iters=1)


def test_config_rejects_zero_stride():
    # Rejected with the other config checks, before any output or reference work.
    with pytest.raises(ValueError, match="observer_stride"):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=0, iters=1, observer_stride=0)


@pytest.mark.parametrize("effort", [0, -3])
def test_config_rejects_a_reference_effort_below_one(effort):
    # It used to pass here and fail in compute_reference, after the norm estimate.
    with pytest.raises(ValueError, match="reference_effort must be >= 1"):
        ExperimentConfig(experiment="l1ls", m=20, n=30, seed=1, iters=10, reference_effort=effort)


def test_config_rejects_a_repeated_algorithm():
    # A repeated name used to be solved once per repetition, with one result kept.
    with pytest.raises(ValueError, match="'fista' is listed more than once"):
        ExperimentConfig(experiment="l1ls", m=2, n=2, seed=0, iters=1,
                         algorithms=("fista", "pda", "fista"))


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
    assert list(read_csv(path)) == []


def test_emit_csv_rejects_mixed_algorithms(tmp_path):
    rows = sample_rows()
    rows[1].algorithm = "pda"
    with pytest.raises(ValueError, match="rows mix algorithms"):
        emit_csv(rows, tmp_path / "m.csv")


def test_emit_csv_refuses_a_row_k_that_a_cell_cannot_hold(tmp_path):
    path = tmp_path / "k.csv"
    rows = [TraceRow("fista", k, 1.0, 0.5) for k in (1, 2**53 + 1)]
    with pytest.raises(ValueError) as err:
        emit_csv(rows, path)
    assert str(err.value) == (f"{path} line 3, column 'k': {2**53 + 1} lies beyond 2**53, "
                              "where a float64 cell stops holding every integer")
    assert not path.exists()
    emit_csv(rows[:1] + [TraceRow("fista", 2**53, 1.0, 0.5)], path)
    assert [r.k for r in read_csv(path)] == [1, 2**53]


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


@pytest.mark.parametrize("ks", [(1, 2, 2), (1, 3, 2)])
def test_read_csv_rejects_a_k_that_does_not_increase(ks, tmp_path):
    path = tmp_path / "k.csv"
    emit_csv([TraceRow("fista", k, 1.0, 0.5) for k in ks], path)
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == f"{path} line 4, column 'k': 2 does not exceed {ks[1]} on line 3"


_K_MAX = 2**53  # a float64 cell holds every integer up to here


@st.composite
def trace_cells(draw):
    """(rows, 8) cells of a trace: increasing integer k up to +-2**53, then any floats,
    NaN, +-inf, -0.0 and subnormals among them."""
    ks = draw(st.lists(st.integers(-_K_MAX, _K_MAX) | st.sampled_from([_K_MAX, -_K_MAX]),
                       min_size=1, max_size=8, unique=True))
    value = st.floats() | st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, -0.0,
                                           5e-324, -2.2250738585072009e-308])
    rest = draw(st.lists(st.lists(value, min_size=7, max_size=7),
                         min_size=len(ks), max_size=len(ks)))
    return np.array([[k, *cells] for k, cells in zip(sorted(ks), rest)], dtype=np.float64)


@settings(max_examples=150, deadline=None)
@given(trace_cells())
def test_a_trace_round_trips_through_its_csv_bit_for_bit(cells):
    trace = Trace("apda", cells)
    with tempfile.TemporaryDirectory() as tmp:
        from_cells, from_rows = Path(tmp) / "cells.csv", Path(tmp) / "rows.csv"
        emit_csv(trace, from_cells)
        emit_csv(list(trace), from_rows)
        assert from_cells.read_bytes() == from_rows.read_bytes()
        assert "nan" not in from_cells.read_text()  # a NaN cell is written empty
        back = read_csv(from_cells)
    assert isinstance(back, Trace) and back.algorithm == "apda"
    nan = np.isnan(cells)
    assert np.array_equal(np.isnan(back.cells), nan)
    assert back.cells[~nan].tobytes() == cells[~nan].tobytes()
    assert [r.k for r in back] == [int(k) for k in cells[:, 0]]
    assert list(Trace("apda", cells.copy())) == list(trace) == list(back)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(_K_MAX + 1, 2**80), st.booleans())
def test_read_csv_rejects_a_k_beyond_2_to_the_53(tmp_path_factory, before, k, negative):
    """Beyond 2**53 on either side, checked before the k order."""
    path = tmp_path_factory.mktemp("k") / "k.csv"
    k = -k if negative else k
    lines = [f"fista,{j},1,2,,,,,0" for j in range(1, before + 1)]
    path.write_text("\n".join([CSV_HEADER, *lines, f"fista,{k},1,2,,,,,0"]) + "\n")
    with pytest.raises(ValueError) as err:
        read_csv(path)
    assert str(err.value) == (f"{path} line {before + 2}, column 'k': {k} lies beyond 2**53, "
                              "where a float64 cell stops holding every integer")


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
    # The run directory holds exactly one trace per algorithm, the summary and the metadata.
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(
        [f"{name}.csv" for name in ALGORITHMS] + ["summary.txt", "run_meta.json"])
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
    for name in ("summary.txt", "run_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("effort, certified", [(3000, True), (1, False)])
def test_run_directory_states_the_reference_kind(effort, certified, tmp_path):
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment="l1ls", m=20, n=30, seed=5, iters=30,
                           algorithms=("fista",), out_dir=out, reference_effort=effort)
    ref = run_benchmark(cfg).reference
    assert ref.certified is certified
    kind = "certified duality gap" if certified else "checkpoint gap, uncertified"
    summary = (out / "summary.txt").read_text().splitlines()
    assert summary[3] == f"reference accuracy ({kind}): {ref.accuracy:.6g}"
    assert summary[4] == f"reference iterations: {ref.iterations}"
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["reference_certified"] is certified
    assert meta["reference_iterations"] == ref.iterations
    assert ref.iterations == (220 if certified else 1)  # certified once the support settles
    steps = reference_params("l1ls", generate_l1ls(20, 30, 0.1, 5).problem.K.norm())
    want = {"alpha": steps.alpha, "beta": steps.beta, "t1": steps.t1}
    assert meta["reference_steps"] == want
    assert summary[5] == "reference steps: " + " ".join(f"{k}={v!r}" for k, v in want.items())


def test_the_reference_does_not_move_with_option_1s_row(tmp_path, monkeypatch):
    """The reference runs on its own row: another row for the options leaves it bit for bit."""
    from iapd import bench

    def run(out):
        cfg = ExperimentConfig(experiment="l1ls", m=20, n=30, seed=5, iters=30,
                               algorithms=("iapd-op1",), out_dir=out, reference_effort=3000)
        return run_benchmark(cfg)

    before = run(tmp_path / "a")
    row = replace(bench._FAMILIES["l1ls"], steps=(2.0, 0.98))
    monkeypatch.setitem(bench._FAMILIES, "l1ls", row)
    after = run(tmp_path / "b")
    assert after.results["iapd-op1"].params["t1"] == 2.0 != before.results["iapd-op1"].params["t1"]
    want, got = before.reference, after.reference
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.y_star.tobytes() == want.y_star.tobytes()
    assert np.float64(got.objective_value).tobytes() == np.float64(want.objective_value).tobytes()
    assert got.iterations == want.iterations


def test_run_directory_names_the_first_gap_bound_violation(tmp_path, monkeypatch):
    """With E1 shrunk a billion-fold, the gap bound fails; both files name where first."""
    certify = diagnostics.certify
    monkeypatch.setattr(diagnostics, "certify",
                        lambda reports, e1, *args, **kw: certify(reports, e1 * 1e-9, *args, **kw))
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment="l1ls", m=20, n=30, seed=5, iters=30,
                           algorithms=("iapd-op1", "iapd-op2"), out_dir=out, reference_effort=300)
    result = run_benchmark(cfg)
    summary = (out / "summary.txt").read_text()
    meta = json.loads((out / "run_meta.json").read_text())
    for name in cfg.algorithms:
        cert = result.results[name].certificate
        assert cert.gap_violations > 0
        line = (f"  first gap-bound violation: k={cert.first_k['gap']}, "
                f"max gap excess {cert.max_gap_excess:.6g}")
        assert f"{name}: final objective gap" in summary and line in summary
        assert meta["algorithms"][name]["certificate"] == {
            "first_gap_violation_k": cert.first_k["gap"], "max_gap_excess": cert.max_gap_excess,
            "first_dual_violation_k": cert.first_k["dual"],
            "first_v_violation_k": cert.first_k["v"],
            "first_t_lower_violation_k": None}
    monkeypatch.undo()
    run_benchmark(cfg)
    summary = (out / "summary.txt").read_text()
    assert "first gap-bound violation: none, max gap excess 0\n" in summary
    assert "first dual, v and t-lower violations: none, none, none\n" in summary
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["algorithms"]["iapd-op1"]["certificate"] == {
        "first_gap_violation_k": None, "max_gap_excess": 0.0, "first_dual_violation_k": None,
        "first_v_violation_k": None, "first_t_lower_violation_k": None}


def test_run_directory_names_the_first_violation_of_every_bound(tmp_path, monkeypatch):
    """Each bound, forced to fail first at its own k, is named at that k in both files;
    the CSVs do not change, and a second identical run gives the same bytes."""
    doctor = {4: {"gap_ref": 1e12}, 6: {"dual_dist_sq": 1e12}, 8: {"v_dist_sq": 1e12},
              10: {"t_k": 1e-3}}
    certify = diagnostics.certify
    monkeypatch.setattr(diagnostics, "certify", lambda reports, *args, **kw: certify(
        trace_of([replace(r, **doctor.get(r.k, {})) for r in reports]), *args, **kw))
    cfg = dict(experiment="l1ls", m=20, n=30, seed=5, iters=30,
               algorithms=("iapd-op1", "iapd-op2"), reference_effort=300)
    runs = [run_benchmark(ExperimentConfig(out_dir=tmp_path / side, **cfg)) for side in "ab"]
    for name in cfg["algorithms"]:
        cert = runs[0].results[name].certificate
        assert cert.first_k == {"gap": 4, "dual": 6, "v": 8, "t_lower": 10}
        assert cert.gap_violations == 1
    summary = (tmp_path / "a" / "summary.txt").read_text()
    assert summary.count("  first dual, v and t-lower violations: k=6, k=8, k=10\n") == 2
    assert summary.count("  first gap-bound violation: k=4, max gap excess ") == 2
    meta = json.loads((tmp_path / "a" / "run_meta.json").read_text())
    for name in cfg["algorithms"]:
        entry = meta["algorithms"][name]["certificate"]
        assert {key: entry[key] for key in entry if key != "max_gap_excess"} == {
            "first_gap_violation_k": 4, "first_dual_violation_k": 6, "first_v_violation_k": 8,
            "first_t_lower_violation_k": 10}
    for file in ("summary.txt", "run_meta.json"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    monkeypatch.undo()
    run_benchmark(ExperimentConfig(out_dir=tmp_path / "plain", **cfg))
    for name in cfg["algorithms"]:
        assert (strip_elapsed(tmp_path / "a" / f"{name}.csv")
                == strip_elapsed(tmp_path / "plain" / f"{name}.csv"))


@pytest.mark.parametrize("experiment", ["l1ls", "nnls"])
@pytest.mark.parametrize("name", ["iapd-op1", "iapd-op2", "pda", "apda", "fista", "tseng"])
def test_trace_rows_hold_the_objective_and_lagrangian_gap_of_their_iterate(name, experiment,
                                                                           tmp_path):
    """The objective and gap_ref cells equal, bit for bit, ``objective(x)`` and
    L(x, y*) - L(x*, y) computed afresh at each row's iterate, though the bench
    evaluates K x once for both. A primal-only method's gap is its objective
    minus the reference objective."""
    cfg = ExperimentConfig(experiment, 24, 16, seed=6, iters=30, density=0.4,
                           algorithms=(name,), out_dir=tmp_path, reference_effort=300)
    inst = generate_l1ls(24, 16, 0.1, 6) if experiment == "l1ls" else generate_nnls(24, 16, 0.4, 6)
    result = run_benchmark(cfg, instance=inst)
    ref, params, problem = result.reference, result.results[name].params, inst.problem
    expected = []

    def observer(row, state):
        value = inst.objective(state.x)
        if state.y is None:
            expected.append((value, value - ref.objective_value))
        else:
            expected.append((value, problem.lagrangian(state.x, ref.y_star)
                             - problem.lagrangian(ref.x_star, state.y)))

    opts = solvers.SolverOptions(max_iters=30)
    if name.startswith("iapd"):
        step = StepParams(params["alpha"], params["beta"], params["t1"])
        solvers.solve_iapd(problem, step, replace(opts, option="option" + name[-1]), observer)
    elif name == "pda":
        solvers.solve_pda(problem, params["alpha"], params["beta"], opts, observer)
    elif name == "apda":
        solvers.solve_apda(problem, params["tau0"], params["sigma0"], opts, observer)
    else:
        apg = solvers.solve_fista if name == "fista" else solvers.solve_tseng
        apg(problem.f1, LeastSquares(problem.K, inst.b), params["alpha"], opts, observer,
            x0=np.zeros(problem.primal_dim))
    rows = read_csv(tmp_path / f"{name}.csv")
    assert [(r.objective, r.gap_ref) for r in rows] == expected


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
    # A skip that is not a divergence: no partial trace in either file.
    message = result.results["pda"].skipped
    summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
    assert summary[-1] == f"pda: SKIPPED ({message})"
    meta = json.loads((tmp_path / "out" / "run_meta.json").read_text())
    assert meta["algorithms"]["pda"] == {"params": {}, "skipped": message}


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


def test_run_benchmark_names_a_diverging_reference_solve(tmp_path):
    """A reference solve that diverges is named with its iteration, effort and steps,
    not reported as a bare divergence past the sweep's --iters; no run directory is made."""
    inst = generate_l1ls(20, 30, 0.1, seed=5)
    inst = replace(inst, problem=replace(inst.problem, f1=PoisonedProx(inst.problem.f1, 90)))
    out = tmp_path / "out"
    cfg = ExperimentConfig(experiment="l1ls", m=20, n=30, seed=5, iters=60, out_dir=out)
    steps = reference_params("l1ls", inst.problem.K.norm())
    with pytest.raises(RuntimeError) as err:
        run_benchmark(cfg, instance=inst)
    # the 90th prox call makes iterate 91: iapd's first step makes iterate 2
    assert str(err.value) == (
        f"the reference solve diverged at iteration 91 (effort 600, reference steps: "
        f"alpha={steps.alpha!r} beta={steps.beta!r} t1={steps.t1!r})")
    assert not out.exists()


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 48), st.integers(1, 48), st.integers(0, 2**32 - 1))
def test_generate_l1ls_fills_k_in_place_with_the_bytes_of_a_fresh_array(m, n, seed):
    """K drawn into an aligned buffer and divided in place, and b formed from it, are
    byte for byte the K and b of a freshly allocated draw divided out of place."""
    inst = generate_l1ls(m, n, 0.1, seed)
    rng = np.random.default_rng(seed)
    K = rng.standard_normal((m, n)) / math.sqrt(m)
    planted = np.zeros(n)
    support = rng.choice(n, size=round(0.95 * n), replace=False)
    planted[support] = rng.uniform(-10.0, 10.0, size=support.size)
    b = K @ planted + rng.normal(0.0, math.sqrt(0.1), size=m)
    assert inst.problem.K._mat.tobytes() == K.tobytes()
    assert inst.b.tobytes() == b.tobytes()
    assert inst.planted.tobytes() == planted.tobytes()


def test_generate_l1ls_keeps_one_copy_of_k():
    """The generator hands K over to LinearMap, so the peak holds K about once, not twice."""
    m, n = 400, 800
    tracemalloc.start()
    try:
        inst = generate_l1ls(m, n, 0.1, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert inst.problem.K.shape == (m, n)
    assert peak <= 1.5 * (8 * m * n)


def test_a_sweep_result_keeps_its_trace_and_not_its_energy_reports(tmp_path):
    """A finished 200x400 l1ls sweep holds about 64 B a trace row: its rows' cells, not also
    the 88 B of each energy report that its certificate and slope were read from."""
    cfg = ExperimentConfig("l1ls", 200, 400, seed=3, iters=1000, algorithms=("iapd-op1",),
                           reference_effort=50, out_dir=tmp_path)
    tracemalloc.start()
    try:
        result = run_benchmark(cfg)
        res = result.results["iapd-op1"]
        rows, certified = len(res.rows), res.certificate.rows
        held = tracemalloc.get_traced_memory()[0]
        del result, res
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (rows, certified) == (1000, 1001)
    assert freed / rows <= 100


def test_run_benchmark_removes_stale_algorithm_csvs(tmp_path):
    out = tmp_path / "out"
    common = dict(experiment="l1ls", m=20, n=30, iters=30, reference_effort=300, out_dir=out)
    run_benchmark(ExperimentConfig(seed=3, algorithms=("iapd-op1", "fista"), **common))
    assert (out / "iapd-op1.csv").exists()
    (out / "notes.csv").write_text("kept\n")
    run_benchmark(ExperimentConfig(seed=4, algorithms=("fista",), **common))
    assert sorted(p.name for p in out.glob("*.csv")) == ["fista.csv", "notes.csv"]
    assert json.loads((out / "run_meta.json").read_text())["seed"] == 4


def test_every_sweep_calls_each_callable_perfbench_averages(tmp_path, monkeypatch):
    """A traced perfbench run averages the calls of six public callables, or divides by
    their count or time: K x, K^T y, the family's f1 prox, the g1 prox, the iapd step and the
    Lagrangian. A callable that a sweep no longer calls makes its figure NaN and the run
    incorrect, though no output changed. Each kind of sweep perfbench runs calls all six: l1ls
    with a reference that certifies, nnls, and l1ls with an uncertified reference, as
    l1ls-large's is at effort 400."""
    called = set()
    for owner, attr in ((LinearMap, "apply"), (LinearMap, "apply_adjoint"), (L1Norm, "prox"),
                        (NonnegIndicator, "prox"), (ShiftedQuadratic, "prox"),
                        (SaddleProblem, "lagrangian"), (solvers, "iapd_step")):
        label = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        original = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, lambda *args, label=label, original=original, **kw:
                            called.add(label) or original(*args, **kw))
    common = {"m": 20, "n": 30, "seed": 5, "iters": 30}
    sweeps = [({**common, "experiment": "l1ls", "reference_effort": 3000}, True, L1Norm),
              ({"experiment": "nnls", "m": 40, "n": 20, "seed": 11, "iters": 30, "density": 0.5},
               True, NonnegIndicator),
              ({**common, "experiment": "l1ls", "reference_effort": 5,
                "algorithms": ("iapd-op1", "fista")}, False, L1Norm)]
    for i, (cfg, certified, f1) in enumerate(sweeps):
        called.clear()
        result = run_benchmark(ExperimentConfig(out_dir=tmp_path / str(i), **cfg))
        assert result.status == 0 and result.reference.certified == certified
        averaged = {"LinearMap.apply", "LinearMap.apply_adjoint", f"{f1.__name__}.prox",
                    "ShiftedQuadratic.prox", "SaddleProblem.lagrangian", "solvers.iapd_step"}
        assert averaged - called == set(), cfg


@pytest.mark.parametrize("name, per_iteration", [("iapd-op1", 3), ("iapd-op2", 3),
                                                 ("pda", 2), ("apda", 2),
                                                 ("fista", 2), ("tseng", 2)])
def test_certified_rows_take_one_product_per_gap(name, per_iteration, tmp_path, monkeypatch):
    """K x* is taken once per solve, and one K x serves a row's objective and gap,
    so an iteration with a trace row costs: the step's one forward product
    (for fista and tseng, the gradient's), the row's K x and, for an energy
    row, K (u - x*)."""
    calls = []
    original = LinearMap.apply
    monkeypatch.setattr(LinearMap, "apply", lambda self, v: calls.append(1) or original(self, v))
    counts = []
    for iters in (20, 40):
        calls.clear()
        run_benchmark(ExperimentConfig(experiment="nnls", m=30, n=20, seed=4, iters=iters,
                                       density=0.3, algorithms=(name,), reference_effort=200,
                                       out_dir=tmp_path / str(iters)))
        counts.append(len(calls))
    assert counts[1] - counts[0] == 20 * per_iteration
