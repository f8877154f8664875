"""scripts/same_outputs.py: run directories compared apart from the solver clock."""

import shutil
import subprocess
import sys
from pathlib import Path

from iapd.bench import ExperimentConfig, run_benchmark

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "same_outputs.py"


def same_outputs(old, new):
    done = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                          capture_output=True, text=True, timeout=60)
    return done.returncode, done.stdout


def test_same_outputs_ignores_only_elapsed_s(tmp_path):
    common = dict(experiment="l1ls", m=20, n=30, seed=3, iters=30, reference_effort=300,
                  algorithms=("iapd-op1", "fista"))
    for name in ("a", "b"):
        run_benchmark(ExperimentConfig(out_dir=tmp_path / name, **common))
    assert same_outputs(tmp_path / "a", tmp_path / "b") == (0, "same outputs\n")

    changed = tmp_path / "c"
    shutil.copytree(tmp_path / "a", changed)
    lines = (changed / "fista.csv").read_text().splitlines()
    cells = lines[5].split(",")
    cells[3] = f"{2.0 * float(cells[3]):.17g}"  # one objective cell
    lines[5] = ",".join(cells)
    (changed / "fista.csv").write_text("\n".join(lines) + "\n")
    (changed / "summary.txt").unlink()
    code, out = same_outputs(tmp_path / "a", changed)
    assert code == 1
    assert out == f"only in {tmp_path / 'a'}: summary.txt\ndiffers: fista.csv\n"


def test_a_missing_run_directory_is_a_usage_error(tmp_path):
    (tmp_path / "a").mkdir()
    missing = tmp_path / "never-written"
    for old, new in ((tmp_path / "a", missing), (missing, tmp_path / "a")):
        done = subprocess.run([sys.executable, str(SCRIPT), str(old), str(new)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2
        assert done.stdout == ""
        assert f"error: {missing} is not a directory" in done.stderr
