"""Tests of the benchmark's own logic: inputs, failure accounting, tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import measure  # noqa: E402
from calibrate import Calibrator  # noqa: E402
from checks import Ledger, csv_digest, instance_hash  # noqa: E402
from tracing import Tracer  # noqa: E402

import iapd  # noqa: E402
from iapd import bench, cli, diagnostics, linalg, problem, solvers  # noqa: E402
from iapd.proxfuns import L1Norm, ShiftedQuadratic, ZeroSmooth  # noqa: E402

SMALL_L1LS = dataclasses.replace(measure.WORKLOADS["l1ls-desk"], m=12, n=20, iters=30)
SMALL_NNLS = dataclasses.replace(measure.WORKLOADS["nnls-sparse"], m=20, n=10, density=0.5,
                                 iters=30)


def _hash(inst):
    return instance_hash(inst.problem.K, inst.b)


# -- inputs ------------------------------------------------------------------


def test_same_seed_gives_same_instance_hash():
    first = _hash(measure.load_instance(SMALL_L1LS, 5, None))
    assert _hash(measure.load_instance(SMALL_L1LS, 5, None)) == first
    assert _hash(measure.load_instance(SMALL_L1LS, 6, None)) != first


def test_matrix_market_path_reproduces_the_generated_instance(tmp_path):
    files = measure.write_inputs(SMALL_NNLS, 3, tmp_path)
    read = measure.load_instance(SMALL_NNLS, 3, files)
    generated = bench.generate_nnls(SMALL_NNLS.m, SMALL_NNLS.n, SMALL_NNLS.density, 3)
    assert _hash(read) == _hash(generated)
    again = measure.load_instance(SMALL_NNLS, 3, measure.write_inputs(SMALL_NNLS, 3, tmp_path))
    assert _hash(again) == _hash(read)


def test_batch_seeds_start_at_the_run_seed_and_are_distinct():
    seeds = measure.instance_seeds(measure.WORKLOADS["l1ls-desk"], 7)
    assert seeds[0] == 7
    assert len(set(seeds)) == len(seeds) == measure.WORKLOADS["l1ls-desk"].batch


def test_csv_digest_ignores_elapsed_only(tmp_path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    a.write_text("h,elapsed_s\niapd-op1,1,0.5\n")
    b.write_text("h,elapsed_s\niapd-op1,1,0.9\n")
    c.write_text("h,elapsed_s\niapd-op1,2,0.5\n")
    assert csv_digest(a) == csv_digest(b) != csv_digest(c)


# -- failure accounting --------------------------------------------------------


def _synthetic_prepared() -> measure.Prepared:
    """A 3 x 4 lasso with fixed entries, not one of the benchmark's workloads."""
    K = linalg.LinearMap(np.array([[1.0, 0.5, 0.0, -0.3],
                                   [0.0, 1.0, 0.2, 0.0],
                                   [0.4, 0.0, 1.0, 0.6]]))
    b = np.array([1.0, -2.0, 0.5])
    prob = problem.SaddleProblem(f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic(b),
                                 g2=ZeroSmooth(), K=K)
    inst = bench.GeneratedInstance(prob, b, planted=np.zeros(4), name="synthetic")
    knorm = K.norm()
    params = bench.preset_params("l1ls", knorm)
    ref = problem.compute_reference(prob, 5000, params=params, objective=inst.objective)
    return measure.Prepared(0, inst, knorm, params, ref)


@pytest.mark.parametrize("alg", measure.TTA_ALGORITHMS)
def test_cap_hit_tta_solve_is_a_failure(alg):
    prep = _synthetic_prepared()
    tight = dataclasses.replace(SMALL_L1LS, tta_cap=2, eps=1e-12)
    ledger = Ledger()
    _, iters = measure.run_tta(tight, prep, alg, ledger, {})
    assert (ledger.attempted, ledger.failed) == (1, 1)
    assert iters == 2 and "hit cap 2" in ledger.failures[0]

    loose = dataclasses.replace(SMALL_L1LS, tta_cap=5000, eps=1e-6)
    ledger = Ledger()
    _, iters = measure.run_tta(loose, prep, alg, ledger, {})
    assert (ledger.attempted, ledger.failed) == (1, 0)
    assert iters < 5000


def test_forced_certificate_violation_is_a_failure(tmp_path, capsys):
    csv, meta = tmp_path / "iapd-op1.csv", tmp_path / "run_meta.json"
    row = solvers.TraceRow("iapd-op1", k=2, t_k=5.0, objective=1.0, gap_ref=1.0)
    bench.emit_csv([row], csv)

    def certify(e1):
        meta.write_text(json.dumps({
            "reference_objective": 0.0, "reference_accuracy": 0.0,
            "algorithms": {"iapd-op1": {"params": {"E1": e1, "t1": 5.0, "mu_g": 1.0,
                                                   "beta": 1.0}}},
        }))
        return cli.main(["certify", "--csv", str(csv), "--meta", str(meta)])

    ledger = Ledger()
    ledger.certify_call("certify/ok", certify(e1=1e6))
    ledger.certify_call("certify/forced", certify(e1=1e-3))  # gap * t^2 = 25 > E1
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert ledger.failures[0].startswith("certify/forced")


def test_sweep_accounting_flags_violations_skips_and_status():
    ok = diagnostics.CertificateSummary(rows=3)
    bad = diagnostics.CertificateSummary(rows=3, gap_violations=1)
    results = {
        "iapd-op1": bench.AlgorithmResult("iapd-op1", [], 1e-6, {}, certificate=ok),
        "iapd-op2": bench.AlgorithmResult("iapd-op2", [], 1e-6, {}, certificate=bad),
        "fista": bench.AlgorithmResult("fista", [], float("nan"), {}),
        "pda": bench.AlgorithmResult("pda", [], float("nan"), {}, skipped="diverged"),
        "apda": bench.AlgorithmResult("apda", [], -1.07e-17, {}),
    }
    ledger = Ledger()
    ledger.sweep("sweep", bench.BenchResult(0, Path("."), None, results))
    assert ledger.attempted == 5
    assert [f.split(":")[0] for f in ledger.failures] == ["sweep/iapd-op2", "sweep/fista",
                                                         "sweep/pda"]

    ledger = Ledger()
    ledger.sweep("sweep", bench.BenchResult(3, Path("."), None, {"apda": results["apda"]}))
    assert ledger.failures == ["sweep/apda: run_benchmark status 3"]


def test_repeats_that_disagree_are_mismatches_not_operations():
    ledger = Ledger()
    ledger.agree("same", {"a": 1}, {"a": 1})
    ledger.agree("digests", "x", "y")
    assert (ledger.attempted, ledger.failed) == (0, 0)
    assert len(ledger.mismatches) == 1 and ledger.mismatches[0].startswith("digests")


# -- calibration ---------------------------------------------------------------


def test_calibrated_timer_returns_the_result_and_scales_to_the_reference():
    cal = Calibrator()
    marker = object()
    result, start, end = cal.measure(lambda: marker)
    assert result is marker and end >= start and len(cal.log) == 2
    load = cal.load(start, end)
    assert load == pytest.approx(sum(e - s for s, e in cal.log) / 2)
    assert cal.scale(start, end) == pytest.approx((end - start) * cal.reference_s / load)

    cal.log = [(0.0, 1.0), (10.0, 12.0), (20.0, 23.0)]  # kernel runs of 1, 2 and 3 s
    assert cal.load(12.1, 12.2) == 2.0  # only the run within the 0.25 s window counts
    assert cal.load(13.0, 17.0) == 2.5  # a 4 s sample looks 4 s either side
    assert cal.scale(13.0, 17.0) == pytest.approx(4.0 * cal.reference_s / 2.5)


# -- tracing -----------------------------------------------------------------


def test_wrapper_returns_exactly_what_the_call_returns():
    tracer = Tracer()
    marker = object()
    assert tracer.wrap(lambda: marker, "x.f")() is marker

    def boom():
        raise KeyError("k")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "x.boom")()
    assert len(tracer.start) == 2 and all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_installed_tracer_leaves_library_results_unchanged_and_uninstalls():
    prep = _synthetic_prepared()
    prob, params = prep.instance.problem, prep.params
    opts = solvers.SolverOptions(max_iters=40)
    x = np.linspace(-1.0, 1.0, 4)
    originals = (linalg.LinearMap.apply, problem.compute_reference, bench.compute_reference,
                 iapd.solve_iapd)

    inst = prep.instance
    plain_state, plain_rows = solvers.solve_iapd(prob, params, opts, objective=inst.objective)
    plain_apply = prob.K.apply(x)

    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.LinearMap.apply is not originals[0]
        assert bench.compute_reference is problem.compute_reference is not originals[1]
        state, rows = iapd.solve_iapd(prob, params, opts, objective=inst.objective)
        applied = prob.K.apply(x)
    finally:
        tracer.uninstall()

    assert (linalg.LinearMap.apply, problem.compute_reference, bench.compute_reference,
            iapd.solve_iapd) == originals
    assert np.array_equal(applied, plain_apply)
    assert np.array_equal(state.x, plain_state.x) and np.array_equal(state.y, plain_state.y)
    assert [dataclasses.replace(r, elapsed_s=0.0) for r in rows] == \
        [dataclasses.replace(r, elapsed_s=0.0) for r in plain_rows]

    spans = measure.Spans(tracer)
    assert spans.count("solvers.solve_iapd[option1]") == 1
    assert spans.count("solvers.iapd_step") == 40
    assert spans.count("bench.GeneratedInstance.objective") == 40


def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    arr = tracer.arrays()
    outer = 0
    assert list(arr["parent"]) == [-1, 0, 0]
    assert arr["self"][outer] == arr["dur"][outer] - arr["dur"][1] - arr["dur"][2]


def test_summary_reports_the_highest_percentile_with_ten_samples_beyond():
    assert "p50" in measure.summarize(list(range(20)))
    assert "p90" in measure.summarize(list(range(100)))
    assert not any(k.startswith("p") for k in measure.summarize(list(range(19))))
