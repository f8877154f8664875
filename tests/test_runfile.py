"""scripts/runfile.py: the runs file and set-up shared by the scripts/bench_*.py timers."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import SCRIPTS, import_script
from iapd.bench import ExperimentConfig, generate_l1ls, generate_nnls
from iapd.linalg import LinearMap


@pytest.fixture
def runfile(monkeypatch):
    return import_script("runfile", monkeypatch)


def make_tree(root: Path) -> Path:
    """A checkout in miniature: one module under src/, a timer and the helper under scripts/."""
    for name, text in (("src/pkg/mod.py", "x = 1\n"), ("scripts/bench_x.py", "# timer\n"),
                       ("scripts/runfile.py", "# helper\n")):
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


@pytest.fixture
def tree(runfile, tmp_path, monkeypatch):
    """``runfile.ROOT`` pointed at a miniature checkout, outside any git repository."""
    monkeypatch.setattr(runfile, "ROOT", make_tree(tmp_path / "tree"))
    return runfile.ROOT


def record(runfile, out: Path, label: str, cases: dict, baseline: str | None = None) -> dict:
    """Open ``out`` as a timer would, save ``cases`` under ``label`` and return that run."""
    argv = ["--label", label, "--out", str(out)] + (["--baseline", baseline] if baseline else [])
    args, runs, _ = runfile.open_runs("Doc.", "unused.json", argv=argv)
    runfile.save_run(args, runs, "scripts/bench_x.py", cases, seed=5)
    return json.loads(out.read_text())["runs"][label]


def test_a_run_is_stored_under_its_label_next_to_the_earlier_runs(runfile, tree, tmp_path):
    out = tmp_path / "BENCH_x.json"
    for label, value in (("old", 1), ("new", 2)):
        args, runs, base = runfile.open_runs("Doc.", "unused.json",
                                             argv=["--label", label, "--out", str(out)])
        assert base is None
        runfile.save_run(args, runs, "scripts/bench_x.py", {"c": value})
    written = json.loads(out.read_text())
    assert written["script"] == "scripts/bench_x.py"
    assert list(written["runs"]) == ["old", "new"]
    assert [run["cases"] for run in written["runs"].values()] == [{"c": 1}, {"c": 2}]
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


def test_a_baseline_without_cases_names_the_missing_key(runfile, tmp_path, capsys):
    # The earliest BENCH_norm.json runs keep their shapes under "workloads".
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"runs": {"old": {"revision": "abc", "workloads": {}}}}))
    with pytest.raises(SystemExit) as err:
        runfile.open_runs("Doc.", "unused.json",
                          argv=["--label", "new", "--baseline", "old", "--out", str(out)])
    assert err.value.code == 2
    assert (f"{out} run 'old' has no 'cases' key (its keys: revision, workloads)"
            in capsys.readouterr().err)


def test_importing_the_helper_loads_no_numpy():
    code = "import sys, runfile; print('numpy' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=SCRIPTS, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "False\n"


def test_a_run_records_its_code_baseline_environment_and_fields(runfile, tree, tmp_path):
    run = record(runfile, tmp_path / "BENCH_x.json", "old", {"c": {}})
    assert list(run) == ["revision", "source_sha256", "baseline", "environment", "seed", "cases"]
    assert run["revision"] is None  # the miniature checkout is no git repository
    assert run["source_sha256"] == runfile.source_sha256("scripts/bench_x.py")
    assert run["baseline"] is None and run["seed"] == 5
    assert run["environment"]["thread_env_at_start"] == runfile.blas_threads()
    assert record(runfile, tmp_path / "BENCH_x.json", "new", {"c": {}}, "old")["baseline"] == "old"


def test_a_run_records_its_environment_with_perfbench_off_the_path(runfile, tree, tmp_path,
                                                                   monkeypatch):
    """``save_run`` loads envinfo from its file, so a caller whose sys.path lacks
    perfbench/ (a fixture that restored an earlier sys.path, say) still records it."""
    monkeypatch.setattr(sys, "path", [p for p in sys.path if Path(p).name != "perfbench"])
    monkeypatch.delitem(sys.modules, "envinfo", raising=False)
    run = record(runfile, tmp_path / "BENCH_x.json", "old", {"c": {}})
    assert run["environment"]["thread_env_at_start"] == runfile.blas_threads()


def test_the_source_digest_tells_two_trees_apart_by_one_byte(runfile, tmp_path, monkeypatch):
    digests = []
    for name in ("a", "b"):
        monkeypatch.setattr(runfile, "ROOT", make_tree(tmp_path / name))
        digests.append(runfile.source_sha256("scripts/bench_x.py"))
    assert digests[0] == digests[1]
    module = tmp_path / "b" / "src" / "pkg" / "mod.py"
    module.write_text("x = 2\n")
    assert runfile.source_sha256("scripts/bench_x.py") != digests[0]
    # path and bytes, in sorted order
    sha = hashlib.sha256()
    for path in ("scripts/bench_x.py", "scripts/runfile.py", "src/pkg/mod.py"):
        data = (tmp_path / "b" / path).read_bytes()
        sha.update(f"{path}\0{len(data)}\0".encode() + data)
    assert runfile.source_sha256("scripts/bench_x.py") == sha.hexdigest()


def test_ratios_are_written_only_for_the_medians_both_runs_share(runfile, tree, tmp_path):
    out = tmp_path / "BENCH_x.json"
    record(runfile, out, "old", {"c": {"t_median": 2.0, "u_median": 1.0, "n": 4},
                                 "gone": {"t_median": 1.0}})
    new = {"c": {"t_median": 3.0, "v_median": 1.0, "n": 8}, "fresh": {"t_median": 1.0}}
    assert record(runfile, out, "plain", new)["cases"] == new
    cases = record(runfile, out, "new", new, baseline="old")["cases"]
    assert cases == {"c": {"t_median": 3.0, "v_median": 1.0, "n": 8, "t_median_ratio": 1.5},
                     "fresh": {"t_median": 1.0}}


def test_timed_pulls_each_call_and_collects_before_the_clocks_start(runfile, monkeypatch):
    log, ticks = [], iter(range(100))

    def clock(name):
        def read():
            log.append(name)
            return next(ticks)
        return read

    monkeypatch.setattr(runfile, "time", SimpleNamespace(perf_counter=clock("wall"),
                                                         process_time=clock("cpu")))
    monkeypatch.setattr(runfile, "gc", SimpleNamespace(collect=lambda: log.append("gc")))

    def calls():
        for i in range(3):
            log.append("pull")
            yield lambda i=i: log.append("call") or i

    for collect in (False, True):
        log.clear()
        walls, cpus, last = runfile.timed(calls(), collect=collect)
        one = ["pull", *(["gc"] if collect else []), "wall", "cpu", "call", "wall", "cpu"]
        assert log == one * 3
        # each clock is read twice a call, two ticks apart
        assert (walls, cpus, last) == ([2, 2, 2], [2, 2, 2], 2)


def test_sha256_digests_the_bytes_of_its_arrays_in_turn(runfile):
    a, b = np.arange(3.0), np.arange(4, dtype=np.int64)
    assert runfile.sha256(a, b) == hashlib.sha256(a.tobytes() + b.tobytes()).hexdigest()
    assert runfile.sha256(a) == hashlib.sha256(a.tobytes()).hexdigest()


def test_run_measures_in_order_compares_prints_and_saves(runfile, tree, tmp_path, monkeypatch,
                                                         capsys):
    out = tmp_path / "BENCH_x.json"
    record(runfile, out, "old", {"a": {"t_median": 2.0, "t_iqr": 0.5}})
    measured = []

    def case(name, median):
        def measure():
            measured.append(name)
            return {"t_median": median, "t_iqr": 0.25, "n": 3}
        return name, measure

    monkeypatch.setattr(sys, "argv", ["bench_x.py", "--label", "new", "--baseline", "old",
                                      "--out", str(out)])
    cases = [case("b", 1.0), case("a", 3.0)]
    assert runfile.run("Doc.", "unused.json", "scripts/bench_x.py", cases,
                       lambda row, base: {"moved": row["t_median"] - base["t_median"]},
                       show=("n", "moved", "absent"), seed=5) == 0
    assert measured == ["b", "a"]
    run = json.loads(out.read_text())["runs"]["new"]
    assert run["seed"] == 5 and list(run["cases"]) == ["b", "a"]
    assert run["cases"] == {
        "b": {"t_median": 1.0, "t_iqr": 0.25, "n": 3},
        "a": {"t_median": 3.0, "t_iqr": 0.25, "n": 3, "moved": 1.0, "t_median_ratio": 1.5}}
    assert capsys.readouterr().out.splitlines() == ["b: t 1 (IQR 0.25), n 3",
                                                    "a: t 3 (IQR 0.25), n 3, moved 1"]


def test_spread_names_the_median_and_the_interquartile_range(runfile):
    assert runfile.spread("t", [1.0, 2.0, 3.0, 4.0, 5.0]) == {"t_median": 3.0, "t_iqr": 3.0}


def test_the_cases_are_perfbench_workloads(runfile, monkeypatch):
    """A benchmark change that moves a workload fails here, rather than leaving the timers
    measuring another instance."""
    monkeypatch.setattr(sys, "path", [str(SCRIPTS.parent / "perfbench"), *sys.path])
    import measure

    config = ExperimentConfig("l1ls", 1, 1, seed=0, iters=1)
    assert list(runfile.CASES) == list(measure.WORKLOADS)
    for name, case in runfile.CASES.items():
        w = measure.WORKLOADS[name]
        effort = 10 * w.iters if w.reference_effort is None else w.reference_effort
        assert case == (w.experiment, w.m, w.n, effort, w.eps, w.tta_cap), name
        assert (w.lam, w.density) == (config.lam, config.density), name


def test_an_instance_is_the_generators_instance(runfile):
    for case, seed, generated in (("l1ls-desk", 7, generate_l1ls(200, 400, 0.1, 7)),
                                  ("nnls-sparse", 101, generate_nnls(400, 200, 0.1, 101))):
        inst = runfile.instance(case, seed)
        assert np.array_equal(inst.problem.K.to_dense(), generated.problem.K.to_dense()), case
        assert np.array_equal(inst.b, generated.b), case


def test_the_counted_map_counts_the_products_of_a_norm(runfile):
    dense = np.random.default_rng(0).standard_normal((6, 9))
    counted = runfile.CountedMap(LinearMap(dense))
    assert counted.norm() == LinearMap(dense).norm()
    assert counted.apply_calls == counted.adjoint_calls > 0
    cached = LinearMap(dense)
    cached.norm()
    counted = runfile.CountedMap(cached)
    assert counted.norm() == cached.norm()
    assert (counted.apply_calls, counted.adjoint_calls) == (0, 0)


TIMERS = sorted(path.name for path in SCRIPTS.glob("bench_*.py"))


def stub_builders(module, monkeypatch, calls: list) -> None:
    """Each builder or measurement ``module`` has records its call in ``calls``; ``instance``
    returns a tiny l1ls instance, ``reference`` a stand-in reference, the others nothing."""
    values = {"instance": generate_l1ls(6, 9, 0.1, 1),
              "reference": SimpleNamespace(objective_value=1.0)}
    for name in ("instance", "reference", "write_matrix_market", "measure", "run_once"):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, lambda *args, name=name, **kwargs:
                                calls.append(name) or values.get(name))


@pytest.mark.parametrize("timer", TIMERS)
def test_every_timer_takes_baseline_and_checks_it_before_measuring(runfile, timer, tmp_path,
                                                                   monkeypatch, capsys):
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"runs": {"old": {"cases": {}}}}))
    module = __import__(timer.removesuffix(".py"))
    calls = []
    stub_builders(module, monkeypatch, calls)
    monkeypatch.setattr(sys, "argv", [timer, "--label", "new", "--baseline", "nope",
                                      "--out", str(out)])
    with pytest.raises(SystemExit) as err:
        module.main()
    assert err.value.code == 2 and calls == []
    assert f"{out} has no run 'nope'" in capsys.readouterr().err
    assert json.loads(out.read_text()) == {"runs": {"old": {"cases": {}}}}


@pytest.mark.parametrize("timer", TIMERS)
def test_every_timer_imports_and_answers_help(timer):
    """A library rename that breaks a timer's import fails here, not at its next run."""
    done = subprocess.run([sys.executable, str(SCRIPTS / timer), "--help"], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "--baseline" in done.stdout


# Every field that bench_reference.py and bench_mmread.py print or compare.
SPREADS = ("reference_s", "reference_cpu_s", "read_s", "read_cpu_s")
ROW = {"iterations": 1, "certified": True, "accuracy": 0.0, "objective": 1.0,
       "x_star_sha256": "x", "y_star_sha256": "y", "entries": 1, "entries_per_s": 1.0,
       "map_sha256": "m", **{f"{name}_{stat}": 1.0 for name in SPREADS for stat in ("median", "iqr")}}


@pytest.mark.parametrize("timer, kept, dropped, compared", [
    ("bench_reference", "l1ls-desk/seed101", "l1ls-desk/seed7",
     ("objective_move", "same_x_star_y_star")),
    ("bench_mmread", "nnls-sparse/K", "nnls-sparse/b", ("same_map",)),
])
def test_a_baseline_without_a_case_leaves_that_case_uncompared(timer, kept, dropped, compared,
                                                               tmp_path, monkeypatch):
    module = import_script(timer, monkeypatch)
    monkeypatch.setattr(module, "measure", lambda *args: dict(ROW))
    if timer == "bench_mmread":  # write the two small files only
        monkeypatch.setattr(module, "CASES", {k: module.CASES[k] for k in (kept, dropped)})
    out = tmp_path / "BENCH_x.json"
    out.write_text(json.dumps({"runs": {"old": {"cases": {kept: ROW}}}}))
    monkeypatch.setattr(sys, "argv", [timer, "--label", "new", "--baseline", "old",
                                      "--out", str(out)])
    assert module.main() == 0
    cases = json.loads(out.read_text())["runs"]["new"]["cases"]
    assert all(key in cases[kept] for key in compared)
    assert cases[dropped] == ROW


WORKLOADS = ("l1ls-desk", "nnls-sparse", "l1ls-large")
# Each timer that runs through ``runfile.run``, and its case names in measuring order.
RUN_TIMERS = {
    "bench_gapstop": [f"{w}/{s}" for w in WORKLOADS for s in ("option1", "option2", "fista",
                                                              "tseng")],
    "bench_matvec": list(WORKLOADS),
    "bench_mmread": ["nnls-sparse/K", "nnls-sparse/b", "coordinate-4000x2000", "array-1000x1000"],
    "bench_norm": list(WORKLOADS),
    "bench_reference": [f"{w}/seed{s}" for w, seeds in zip(WORKLOADS, ((101, 7), (101, 11),
                                                                       (101, 7))) for s in seeds],
}


def test_the_run_timers_are_every_timer_but_footprint_and_presets():
    assert sorted(RUN_TIMERS) == [t.removesuffix(".py") for t in TIMERS
                                  if t not in ("bench_footprint.py", "bench_presets.py")]


@pytest.mark.parametrize("timer", sorted(RUN_TIMERS))
def test_a_run_timers_main_is_one_run_call(timer):
    tree = ast.parse((SCRIPTS / f"{timer}.py").read_text())
    main, = [node for node in tree.body if getattr(node, "name", None) == "main"]
    (statement,) = main.body
    assert isinstance(statement, ast.Return) and statement.value.func.id == "run"


@pytest.mark.parametrize("timer", sorted(RUN_TIMERS))
def test_a_run_timer_stores_the_rows_measure_returns_in_its_order(timer, tmp_path, monkeypatch,
                                                                  capsys):
    module = import_script(timer, monkeypatch)
    stub_builders(module, monkeypatch, [])
    returned = []

    def measure(*args, **kwargs):
        returned.append({"t_median": float(len(returned)), "t_iqr": 0.0})
        return returned[-1]

    monkeypatch.setattr(module, "measure", measure)
    out = tmp_path / "BENCH_x.json"
    monkeypatch.setattr(sys, "argv", [timer, "--label", "new", "--out", str(out)])
    assert module.main() == 0
    cases = json.loads(out.read_text())["runs"]["new"]["cases"]
    assert list(cases.items()) == list(zip(RUN_TIMERS[timer], returned, strict=True))
    assert [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()] == list(cases)
