"""Command-line interface: exit codes, outputs, determinism, certify."""

import json

import numpy as np
import pytest

from iapd.cli import main
from iapd.linalg import LinearMap, write_matrix_market

BENCH_SMALL = ["--m", "20", "--n", "30", "--iters", "50", "--seed", "3"]


def run(argv):
    return main(argv)


def test_unknown_algorithm_is_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        run(["bench", "l1ls", "--algos", "nope"])
    assert err.value.code == 2


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


def test_solve_missing_file_is_runtime_error(tmp_path, capsys):
    code = run(["solve", "--matrix", str(tmp_path / "missing.mtx"),
                "--rhs", str(tmp_path / "missing2.mtx")])
    assert code == 1


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
