"""Command-line interface: exit codes, outputs, determinism, certify."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from iapd import bench
from iapd.bench import (ALGORITHMS, CSV_HEADER, ExperimentConfig, generate_l1ls, generate_nnls,
                        preset_params, reference_params)
from iapd.cli import main
from iapd.linalg import LinearMap, write_matrix_market

SAME_OUTPUTS = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"
BENCH_SMALL = ["--m", "20", "--n", "30", "--iters", "50", "--seed", "3"]


def run(argv):
    return main(argv)


def test_unknown_algorithm_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["bench", "l1ls", "--algos", "nope"])
    assert err.value.code == 2


def test_repeated_algorithm_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run(["bench", "l1ls", *BENCH_SMALL, "--algos", "fista,fista", "--out", str(tmp_path)])
    assert err.value.code == 2
    assert "'fista' is listed more than once" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    (["l1ls", "--iters", "0"], "iters must be >= 1"),
    (["l1ls", "--stride", "0"], "observer_stride must be >= 1"),
    (["l1ls", "--m", "0"], "m and n must be >= 1"),
    (["nnls", "--density", "2"], "density must lie in (0, 1]"),
    (["l1ls", "--lambda", "-1"], "lambda must be nonnegative"),
    (["l1ls", "--lambda", "nan"], "lambda must be finite"),
    (["l1ls", "--lambda", "inf"], "lambda must be finite"),
    (["l1ls", "--density", "2"], "density must lie in (0, 1]"),
    (["l1ls", "--algos", ""], "algorithm set must be nonempty"),
    (["l1ls", "--algos", " , "], "algorithm set must be nonempty"),
])
def test_rejected_flag_value_is_usage_error(flags, message, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run(["bench", *flags, "--out", str(out)])
    assert err.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


def test_bench_l1ls_smoke(tmp_path, capsys):
    out = tmp_path / "out"
    code = run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1,fista",
                "--out", str(out)])
    assert code == 0
    assert (out / "iapd-op1.csv").exists()
    assert (out / "fista.csv").exists()
    assert (out / "summary.txt").exists()
    assert (out / "run_meta.json").exists()
    captured = capsys.readouterr().out
    assert "iapd-op1" in captured and "final objective gap" in captured


def test_bench_nnls_smoke(tmp_path):
    out = tmp_path / "out"
    code = run(["bench", "nnls", "--m", "25", "--n", "15", "--iters", "40",
                "--seed", "2", "--density", "0.4", "--algos", "iapd-op2",
                "--out", str(out)])
    assert code == 0
    assert (out / "iapd-op2.csv").exists()


def strip_elapsed(path):
    lines = path.read_text().splitlines()
    return [",".join(line.split(",")[:-1]) for line in lines]


def test_bench_determinism_excluding_elapsed(tmp_path):
    args = ["bench", "l1ls", "--seed", "7", "--m", "25", "--n", "40",
            "--iters", "60", "--algos", "iapd-op1,iapd-op2,pda,fista"]
    run([*args, "--out", str(tmp_path / "a")])
    run([*args, "--out", str(tmp_path / "b")])
    for name in ("iapd-op1", "iapd-op2", "pda", "fista"):
        fa = strip_elapsed(tmp_path / "a" / f"{name}.csv")
        fb = strip_elapsed(tmp_path / "b" / f"{name}.csv")
        assert fa == fb


def test_solve_from_matrix_market(tmp_path):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 8)) / 3.0
    b = rng.standard_normal(12)
    write_matrix_market(LinearMap(A), tmp_path / "K.mtx")
    write_matrix_market(LinearMap(b.reshape(-1, 1)), tmp_path / "b.mtx")
    out = tmp_path / "out"
    code = run(["solve", "--matrix", str(tmp_path / "K.mtx"),
                "--rhs", str(tmp_path / "b.mtx"), "--problem", "l1ls",
                "--iters", "50", "--algos", "iapd-op1", "--out", str(out)])
    assert code == 0
    assert (out / "iapd-op1.csv").exists()


def test_solve_rejects_mismatched_rhs(tmp_path, capsys):
    write_matrix_market(LinearMap(np.eye(3)), tmp_path / "K.mtx")
    write_matrix_market(LinearMap(np.ones((2, 1))), tmp_path / "b.mtx")
    code = run(["solve", "--matrix", str(tmp_path / "K.mtx"),
                "--rhs", str(tmp_path / "b.mtx")])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_solve_rejects_an_rhs_of_more_than_one_column(tmp_path, capsys):
    write_matrix_market(LinearMap(np.eye(3)), tmp_path / "K.mtx")
    write_matrix_market(LinearMap(np.ones((3, 2))), tmp_path / "b.mtx")
    code = run(["solve", "--matrix", str(tmp_path / "K.mtx"), "--rhs", str(tmp_path / "b.mtx"),
                "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: rhs must be a column vector, got shape (3, 2)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("err, message", [
    pytest.param(MemoryError("Unable to allocate 22.4 GiB for an array with shape "
                             "(3000000001,) and data type int64"),
                 "Unable to allocate 22.4 GiB for an array with shape (3000000001,) and data "
                 "type int64", id="numpy"),
    pytest.param(MemoryError(), "MemoryError", id="bare"),
])
def test_solve_on_a_matrix_too_large_to_allocate_is_runtime_error(err, message, tmp_path,
                                                                   capsys, monkeypatch):
    """As a read of the size line 3000000000 3000000000 1 fails; no such array is allocated."""
    def read(path):
        raise err

    monkeypatch.setattr("iapd.cli.read_matrix_market", read)
    code = run(["solve", "--matrix", str(tmp_path / "K.mtx"), "--rhs", str(tmp_path / "b.mtx"),
                "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("size", ["9223372036854775806 1 1", "1 9223372036854775806 1"])
def test_solve_on_a_size_line_too_large_to_allocate_names_the_file(size, tmp_path, capsys):
    """numpy refuses an (m + 1)- or (n + 1)-long pointer of int64 as "array is too big";
    the reader refuses the size line first, naming the file and the line."""
    matrix = tmp_path / "K.mtx"
    matrix.write_text(f"%%MatrixMarket matrix coordinate real general\n{size}\n1 1 1.0\n")
    write_matrix_market(LinearMap(np.ones((1, 1))), tmp_path / "b.mtx")
    code = run(["solve", "--matrix", str(matrix), "--rhs", str(tmp_path / "b.mtx"),
                "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {matrix}: invalid dimensions (line 2)\n"
    assert not (tmp_path / "out").exists()


def test_solve_missing_file_is_runtime_error(tmp_path, capsys):
    code = run(["solve", "--matrix", str(tmp_path / "missing.mtx"),
                "--rhs", str(tmp_path / "missing2.mtx")])
    assert code == 1


@pytest.mark.parametrize("bad, fmt, token", [
    pytest.param("matrix", "array", "x", id="matrix"),
    pytest.param("rhs", "array", "x", id="rhs"),
    *(pytest.param(bad, fmt, token, id=f"{bad}-{fmt}-{token}") for bad in ("matrix", "rhs")
      for fmt in ("array", "coordinate") for token in ("nan", "inf", "1e400")),
])
def test_solve_names_the_bad_input_file(bad, fmt, token, tmp_path, capsys):
    """A bad value in the last entry, a non-finite one too, names its file and line."""
    files = {"matrix": tmp_path / "K.mtx", "rhs": tmp_path / "b.mtx"}
    store = sp.csr_array if fmt == "coordinate" else np.asarray
    write_matrix_market(LinearMap(store(np.eye(3))), files["matrix"])
    write_matrix_market(LinearMap(store(np.ones((3, 1)))), files["rhs"])
    lines = files[bad].read_text().splitlines()
    lines[-1] = " ".join(lines[-1].split()[:-1] + [token])
    files[bad].write_text("\n".join(lines) + "\n")
    code = run(["solve", "--matrix", str(files["matrix"]), "--rhs", str(files["rhs"]),
                "--out", str(tmp_path / "out")])
    assert code == 1
    kind = "a real number" if token == "x" else "a finite real number"
    assert capsys.readouterr().err == (f"error: {files[bad]}: expected {kind}, "
                                       f"got {token!r} (line {len(lines)})\n")


def test_solve_reads_crlf_files_with_comments_as_the_plain_ones(tmp_path):
    """K and b with CRLF line ends, a comment line after every entry and a trailing blank
    line give the run directory of the plain LF files, apart from the solver clock."""
    inst = generate_nnls(30, 20, 0.3, seed=4)
    for name, mapping in (("K", inst.problem.K), ("b", LinearMap(inst.b[:, None]))):
        write_matrix_market(mapping, tmp_path / f"{name}.mtx")
        head, size, *entries = (tmp_path / f"{name}.mtx").read_text().splitlines()
        lines = [head, size] + [f for e in entries for f in (e, "% between entries")] + [""]
        (tmp_path / f"{name}-crlf.mtx").write_bytes("\r\n".join(lines + [""]).encode())
    for suffix in ("", "-crlf"):
        assert run(["solve", "--matrix", str(tmp_path / f"K{suffix}.mtx"),
                    "--rhs", str(tmp_path / f"b{suffix}.mtx"), "--problem", "nnls",
                    "--iters", "60", "--out", str(tmp_path / f"out{suffix}")]) == 0
    done = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(tmp_path / "out"),
                           str(tmp_path / "out-crlf")], capture_output=True, text=True,
                          timeout=60)
    assert (done.returncode, done.stdout) == (0, "same outputs\n")


@pytest.mark.parametrize("family, bench_settings, solve_settings", [
    ("l1ls", {"lambda": 0.1}, {"lambda": 0.1}),
    ("nnls", {"density": 0.3}, {}),
], ids=["l1ls", "nnls"])
def test_solve_on_a_generated_instance_writes_the_traces_of_bench(family, bench_settings,
                                                                  solve_settings, tmp_path):
    """The family's generator and ``iapd solve --problem`` build the same saddle form:
    on the generator's K and b, written as Matrix Market files, every trace CSV
    equals the bench run's, apart from the solver clock. Each run_meta.json records
    only the settings its instance read: a file gives no density, and nnls reads no
    lambda."""
    shape, common = ["--m", "40", "--n", "30"], ["--seed", "4", "--iters", "80"]
    cfg = ExperimentConfig(experiment=family, m=40, n=30, seed=4, iters=80, density=0.3)
    inst = bench._FAMILIES[family].generate(cfg)
    write_matrix_market(inst.problem.K, tmp_path / "K.mtx")
    write_matrix_market(LinearMap(inst.b[:, None]), tmp_path / "b.mtx")
    assert run(["bench", family, *shape, "--density", "0.3", *common,
                "--out", str(tmp_path / "bench")]) == 0
    assert run(["solve", "--problem", family, "--matrix", str(tmp_path / "K.mtx"),
                "--rhs", str(tmp_path / "b.mtx"), *common, "--out", str(tmp_path / "solve")]) == 0
    done = subprocess.run([sys.executable, str(SAME_OUTPUTS), str(tmp_path / "bench"),
                           str(tmp_path / "solve")], capture_output=True, text=True, timeout=60)
    assert sorted(p.name for p in (tmp_path / "solve").glob("*.csv")) == sorted(
        f"{name}.csv" for name in ALGORITHMS)
    assert [line for line in done.stdout.splitlines() if ".csv" in line] == []
    for run_dir, want in (("bench", bench_settings), ("solve", solve_settings)):
        meta = json.loads((tmp_path / run_dir / "run_meta.json").read_text())
        assert {key: meta[key] for key in ("lambda", "density") if key in meta} == want


@pytest.mark.parametrize("command, matrix", [("bench", None), ("solve", "K.mtx"),
                                             ("solve", "missing.mtx")],
                         ids=["bench", "solve", "solve-missing-matrix"])
def test_a_negative_seed_is_a_usage_error(command, matrix, tmp_path, capsys):
    """The flags are checked before any input file is read."""
    flags = ["l1ls"]
    if command == "solve":
        write_matrix_market(LinearMap(np.eye(3)), tmp_path / "K.mtx")
        write_matrix_market(LinearMap(np.ones((3, 1))), tmp_path / "b.mtx")
        flags = ["--matrix", str(tmp_path / matrix), "--rhs", str(tmp_path / "b.mtx")]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run([command, *flags, "--seed", "-1", "--out", str(out)])
    assert err.value.code == 2
    assert "error: seed must be >= 0\n" in capsys.readouterr().err
    assert not out.exists()


def test_certify_accepts_valid_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    code = run(["certify", "--csv", str(out / "iapd-op1.csv"),
                "--meta", str(out / "run_meta.json")])
    assert code == 0
    assert "violations 0" in capsys.readouterr().out


def test_certify_flags_corrupted_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    csv_path = out / "iapd-op1.csv"
    lines = csv_path.read_text().splitlines()
    # inflate every stored gap past the certified bound
    meta = json.loads((out / "run_meta.json").read_text())
    e1 = meta["algorithms"]["iapd-op1"]["params"]["E1"]
    doctored = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        t_k = float(parts[2])
        parts[4] = f"{10.0 * e1 / t_k**2:.17g}"
        doctored.append(",".join(parts))
    csv_path.write_text("\n".join(doctored) + "\n")
    code = run(["certify", "--csv", str(csv_path),
                "--meta", str(out / "run_meta.json")])
    assert code == 1


@pytest.mark.parametrize("tol", ["nan", "inf", "-0.5", "0"])
def test_certify_rejects_a_tolerance_that_passes_every_row(tol, tmp_path, capsys):
    """certify checks with the sweep's fixed slack: any --tol, one that would pass
    every row included, is an unrecognized argument."""
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    csv_path = out / "iapd-op1.csv"
    lines = csv_path.read_text().splitlines()
    doctored = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[4] = "1e6"  # gap_ref, far past every bound
        doctored.append(",".join(parts))
    csv_path.write_text("\n".join(doctored) + "\n")
    argv = ["certify", "--csv", str(csv_path), "--meta", str(out / "run_meta.json")]
    capsys.readouterr()
    assert run(argv) == 1
    assert "gap-bound violations 50," in capsys.readouterr().out
    with pytest.raises(SystemExit) as err:
        run([*argv, "--tol", tol])
    assert err.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_certify_flags_zero_t_as_t_lower_violation(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    csv_path = out / "iapd-op1.csv"
    lines = csv_path.read_text().splitlines()
    parts = lines[1].split(",")
    parts[2] = "0"
    lines[1] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    code = run(["certify", "--csv", str(csv_path),
                "--meta", str(out / "run_meta.json")])
    assert code == 1
    assert "gap-bound violations 0, t-lower-bound violations 1" in capsys.readouterr().out


def test_certify_prints_the_first_violating_k(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    csv_path = out / "iapd-op1.csv"
    lines = csv_path.read_text().splitlines()
    for k, column, value in ((7, 4, "1e6"), (9, 4, "1e6"), (3, 2, "0")):  # gap_ref, t_k
        parts = lines[k - 1].split(",")  # the first row is k = 2
        assert parts[1] == str(k)
        parts[column] = value
        lines[k - 1] = ",".join(parts)
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["certify", "--csv", str(csv_path), "--meta", str(out / "run_meta.json")]) == 1
    printed = capsys.readouterr().out
    assert "gap-bound violations 2, t-lower-bound violations 1" in printed
    assert "first violating k: gap bound 7, t-lower bound 3\n" in printed


@pytest.mark.parametrize("flags, files", [
    (["bench", "nnls", "--m", "1", "--n", "1", "--iters", "3"], False),
    (["solve", "--iters", "3"], True),
], ids=["bench-nnls-1x1", "solve-empty-coordinate-file"])
def test_an_all_zero_k_is_a_runtime_error(flags, files, tmp_path, capsys):
    """A K without a nonzero entry has ||K|| = 0, from which no step can be derived."""
    if files:
        (tmp_path / "K.mtx").write_text("%%MatrixMarket matrix coordinate real general\n3 2 0\n")
        write_matrix_market(LinearMap(np.ones((3, 1))), tmp_path / "b.mtx")
        flags = [*flags, "--matrix", str(tmp_path / "K.mtx"), "--rhs", str(tmp_path / "b.mtx")]
    out = tmp_path / "out"
    assert run([*flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: ||K|| = 0: no step size can be derived from a "
                                       "zero operator norm\n")
    assert not out.exists()


def test_certify_requires_energy_metadata(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "fista",
                "--out", str(out)]) == 0
    code = run(["certify", "--csv", str(out / "fista.csv"),
                "--meta", str(out / "run_meta.json")])
    assert code == 1
    assert "no energy metadata" in capsys.readouterr().err


def test_certify_reports_a_header_only_csv(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    csv_path = out / "iapd-op1.csv"
    csv_path.write_text(csv_path.read_text().splitlines()[0] + "\n")
    code = run(["certify", "--csv", str(csv_path), "--meta", str(out / "run_meta.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {csv_path} has no rows\n"


def _drop_reference_accuracy(meta):
    del meta["reference_accuracy"]
    return meta


def _drop_t1(meta):
    del meta["algorithms"]["iapd-op1"]["params"]["t1"]
    return meta


def _text_beta(meta):
    meta["algorithms"]["iapd-op1"]["params"]["beta"] = "0.5"
    return meta


def _nan_reference_accuracy(meta):
    meta["reference_accuracy"] = float("nan")
    return meta


def _inf_e1(meta):
    meta["algorithms"]["iapd-op1"]["params"]["E1"] = float("inf")
    return meta


@pytest.mark.parametrize("doctor, message", [
    (_drop_reference_accuracy, "has no field 'reference_accuracy'"),
    (_drop_t1, "params of 'iapd-op1' has no field 't1'"),
    (_text_beta, "params of 'iapd-op1' has a non-numeric field 'beta'"),
    (_nan_reference_accuracy, "has a non-finite field 'reference_accuracy' (nan)"),
    (_inf_e1, "params of 'iapd-op1' has a non-finite field 'E1' (inf)"),
    (lambda meta: [meta], "holds a JSON list, not an object"),
])
def test_certify_reports_a_malformed_meta(doctor, message, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    meta_path = out / "run_meta.json"
    meta_path.write_text(json.dumps(doctor(json.loads(meta_path.read_text()))))
    capsys.readouterr()
    code = run(["certify", "--csv", str(out / "iapd-op1.csv"), "--meta", str(meta_path)])
    assert code == 1
    assert capsys.readouterr().err == f"error: {meta_path} {message}\n"


def test_certify_names_a_meta_file_that_is_not_json(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1",
                "--out", str(out)]) == 0
    summary = out / "summary.txt"
    capsys.readouterr()
    code = run(["certify", "--csv", str(out / "iapd-op1.csv"), "--meta", str(summary)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {summary} is not JSON: ")


@pytest.mark.parametrize("bad", ["--matrix", "--csv", "--meta"])
def test_a_file_that_is_not_utf8_text_is_named(bad, tmp_path, capsys):
    write_matrix_market(LinearMap(np.eye(3)), tmp_path / "K.mtx")
    write_matrix_market(LinearMap(np.ones((3, 1))), tmp_path / "b.mtx")
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1", "--out", str(out)]) == 0
    files = {"--matrix": tmp_path / "K.mtx", "--csv": out / "iapd-op1.csv",
             "--meta": out / "run_meta.json"}
    files[bad].write_bytes(b"\xff" + files[bad].read_bytes())
    argv = (["solve", "--matrix", str(files["--matrix"]), "--rhs", str(tmp_path / "b.mtx"),
             "--out", str(tmp_path / "solve")] if bad == "--matrix" else
            ["certify", "--csv", str(files["--csv"]), "--meta", str(files["--meta"])])
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad]}") and "invalid start byte" in err


def test_certify_names_a_csv_with_another_header(tmp_path, capsys):
    csv_path = tmp_path / "summary.txt"
    csv_path.write_text("experiment: l1ls\n")
    code = run(["certify", "--csv", str(csv_path), "--meta", str(tmp_path / "run_meta.json")])
    assert code == 1
    assert capsys.readouterr().err == (f"error: {csv_path} has an unexpected header "
                                       "'experiment: l1ls'\n")


def test_infeasible_step_flags_state_the_inequality(tmp_path, capsys):
    # The reference solve runs first, on its own row, and checks the steps.
    knorm = generate_l1ls(20, 30, 0.1, seed=3).problem.K.norm()
    beta = reference_params("l1ls", knorm).beta
    coupling = (r"alpha*beta*||K||^2 < (1-alpha*L_f2)(1-beta*L_g2/t1^2) "
                f"(got {100.0 * beta * knorm**2:.6g} vs 1)")
    for flags, need in ((["--t1", "0.5"], "t1 >= 1 (got 0.5)"), (["--t1", "inf"], "a finite t1 (got inf)"),
                        (["--alpha", "100"], coupling)):
        code = run(["bench", "l1ls", *BENCH_SMALL, *flags, "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: invalid step parameters: need {need}\n"
        assert not (tmp_path / "out").exists()


def _steps_of(meta, name):
    params = meta["algorithms"][name]["params"]
    return {k: params[k] for k in ("alpha", "beta", "t1")}


def _steps(params):
    return {"alpha": params.alpha, "beta": params.beta, "t1": params.t1}


@pytest.mark.parametrize("family", bench._FAMILIES)
def test_both_options_run_and_certify_on_the_family_row(family, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["bench", family, "--seed", "7", "--iters", "300", "--algos", "iapd-op1,iapd-op2",
                "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    row = bench._FAMILIES[family]
    inst = row.generate(ExperimentConfig(family, *row.shape, seed=7, iters=300))
    knorm = inst.problem.K.norm()
    for name in ("iapd-op1", "iapd-op2"):
        assert _steps_of(meta, name) == _steps(preset_params(family, knorm))
    assert meta["reference_steps"] == _steps(reference_params(family, knorm))
    assert (meta["reference_steps"] == _steps_of(meta, "iapd-op1")) == (
        row.reference_steps == row.steps)
    for name in ("iapd-op1", "iapd-op2"):
        assert run(["certify", "--csv", str(out / f"{name}.csv"),
                    "--meta", str(out / "run_meta.json")]) == 0
    assert capsys.readouterr().out.count("gap-bound violations 0, t-lower-bound violations 0") == 2


@pytest.mark.parametrize("flag, value", [("--t1", 2.0), ("--alpha", 0.01), ("--beta", 0.02)])
def test_a_set_step_flag_reaches_both_options(flag, value, tmp_path):
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1,iapd-op2", flag, str(value),
                "--out", str(out)]) == 0
    meta = json.loads((out / "run_meta.json").read_text())
    preset = preset_params("l1ls", generate_l1ls(20, 30, 0.1, seed=3).problem.K.norm())
    for name in ("iapd-op1", "iapd-op2"):
        assert _steps_of(meta, name) == {**_steps(preset), flag[2:]: value}


def test_a_step_flag_infeasible_on_both_option_rows_skips_both(tmp_path, capsys):
    # beta = 1/||K|| meets the coupling inequality at the reference row's
    # alpha ||K|| = 0.49, not at the 1.5 of both l1ls options: the reference
    # runs, and both options are skipped.
    knorm = generate_l1ls(20, 30, 0.1, seed=3).problem.K.norm()
    out = tmp_path / "out"
    assert run(["bench", "l1ls", *BENCH_SMALL, "--algos", "iapd-op1,iapd-op2",
                "--beta", repr(1.0 / knorm), "--out", str(out)]) == 3
    lines = capsys.readouterr().out.splitlines()
    for line, name in zip(lines, ("iapd-op1", "iapd-op2")):
        assert line.startswith(f"{name}: skipped: invalid step parameters: need alpha*beta")
        assert not (out / f"{name}.csv").exists()
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["reference_steps"] == {**_steps(reference_params("l1ls", knorm)),
                                       "beta": 1.0 / knorm}


GOOD_ROW = "iapd-op1,{k},5,110.5,0.25,0.5,0.125,2,0.001"


@pytest.mark.parametrize("rows, where", [
    ([GOOD_ROW.format(k=2), GOOD_ROW.format(k=3).replace(",5,", ",abc,")],
     "line 3, column 't_k': 'abc' is not a number"),
    ([GOOD_ROW.format(k=2.5)], "line 2, column 'k': '2.5' is not an integer"),
    ([GOOD_ROW.format(k=2), GOOD_ROW.format(k=3), GOOD_ROW.format(k=4).rsplit(",", 1)[0]],
     "line 4, column 'elapsed_s': the row has 8 fields, the header 9"),
    ([GOOD_ROW.format(k=2), GOOD_ROW.format(k=3), GOOD_ROW.format(k=2).replace("op1", "op2")],
     "line 4, column 'algorithm': 'iapd-op2' differs from 'iapd-op1' on line 2"),
    ([GOOD_ROW.format(k=2), GOOD_ROW.format(k=3), GOOD_ROW.format(k=3)],
     "line 4, column 'k': 3 does not exceed 3 on line 3"),
])
def test_certify_names_the_line_and_column_of_a_bad_cell(rows, where, tmp_path, capsys):
    csv_path = tmp_path / "iapd-op1.csv"
    csv_path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
    code = run(["certify", "--csv", str(csv_path), "--meta", str(tmp_path / "run_meta.json")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {csv_path} {where}\n"

