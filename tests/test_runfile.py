"""scripts/runfile.py: the runs file and set-up shared by the scripts/bench_*.py timers."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def runfile(monkeypatch):
    """The helper module, imported with sys.path and the thread variables restored afterwards."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS), *sys.path])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")
    import runfile

    return runfile


def test_a_run_is_stored_under_its_label_next_to_the_earlier_runs(runfile, tmp_path):
    out = tmp_path / "BENCH_x.json"
    for label, value in (("old", 1), ("new", 2)):
        args, runs, base = runfile.open_runs("Doc.", "unused.json",
                                             argv=["--label", label, "--out", str(out)])
        assert base is None
        runfile.save_run(args, runs, "scripts/bench_x.py", {"cases": {"c": value}})
    assert json.loads(out.read_text()) == {
        "script": "scripts/bench_x.py",
        "runs": {"old": {"cases": {"c": 1}}, "new": {"cases": {"c": 2}}},
    }
    _, _, base = runfile.open_runs("Doc.", "unused.json",
                                   argv=["--label", "third", "--baseline", "old", "--out", str(out)])
    assert base == {"c": 1}


def test_an_unknown_baseline_is_a_usage_error(runfile, tmp_path, capsys):
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"runs": {"old": {"cases": {}}}}))
    with pytest.raises(SystemExit) as err:
        runfile.open_runs("Doc.", "unused.json",
                          argv=["--label", "new", "--baseline", "nope", "--out", str(out)])
    assert err.value.code == 2
    assert f"{out} has no run 'nope'" in capsys.readouterr().err


def test_importing_the_helper_loads_no_numpy():
    code = "import sys, runfile; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=SCRIPTS, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "False\n"
