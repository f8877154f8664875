"""The package's public names: every ``__all__`` entry exists, and the package
root re-exports only names its modules declare public.

Tools that walk ``__all__`` (a tracer that wraps each public function, for
one) call ``getattr`` on every entry, so a stale entry breaks them.

The source also keeps one owner per loop: ``solve_iapd`` is the only caller
of ``iapd_step``, in ``solvers.py`` only the driver ``_drive`` builds trace
rows and checks iterates for divergence, and in ``bench.py`` one observer
fills each row, so no solver there is handed an objective.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import iapd

MODULES = sorted(info.name for info in pkgutil.iter_modules(iapd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"iapd.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _root_imports():
    """(module, name) for every ``from .module import name`` in iapd/__init__.py."""
    tree = ast.parse(Path(iapd.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_root_imports_only_declared_public_names():
    imports = _root_imports()
    assert imports
    undeclared = [(mod, attr) for mod, attr in imports
                  if attr not in importlib.import_module(f"iapd.{mod}").__all__]
    assert undeclared == []


SRC = Path(iapd.__file__).parent


def _callers(path: Path, callee: str) -> set[str]:
    """Top-level definitions in ``path`` that call ``callee`` by name or as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee:
                    found.add(getattr(top, "name", "<module>"))
    return found


def test_only_solve_iapd_calls_iapd_step():
    callers = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
               for owner in _callers(path, "iapd_step")}
    assert callers == {("solvers.py", "solve_iapd")}


def test_only_the_driver_builds_trace_rows():
    assert _callers(SRC / "solvers.py", "TraceRow") == {"_drive"}


def test_only_the_driver_checks_for_divergence():
    """``_drive`` is the one builder of a DivergenceError in the package, and the
    only code in ``solvers.py`` that tests an iterate for finiteness
    (``SolverOptions`` tests its ``gap_tol``); the steppers only step."""
    builders = {(path.name, owner) for path in sorted(SRC.glob("*.py"))
                for owner in _callers(path, "DivergenceError")}
    assert builders == {("solvers.py", "_drive")}
    assert _callers(SRC / "solvers.py", "isfinite") == {"SolverOptions", "_drive"}


def test_the_sweep_hands_no_solver_an_objective():
    """In ``bench.py`` only ``compute_reference``, whose reference point is the
    minimizer of an objective, is passed ``objective=``; the sweep's solvers
    get their rows' objectives from the one observer."""
    tree = ast.parse((SRC / "bench.py").read_text(encoding="utf-8"))
    callees = {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
               for node in ast.walk(tree) if isinstance(node, ast.Call)
               and any(kw.arg == "objective" for kw in node.keywords)}
    assert callees == {"compute_reference"}


def _tests_experiment(node: ast.Compare) -> bool:
    """Whether ``node`` tests a name or attribute ``experiment`` with == or !=."""
    operands = [node.left, *node.comparators]
    return (any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
            and any(getattr(e, "id", getattr(e, "attr", None)) == "experiment" for e in operands))


def test_only_the_family_table_names_a_family():
    """``bench._FAMILIES`` is the one owner of what a family is: outside its
    assignment no module holds the constant "l1ls" or "nnls" or tests an
    experiment with == or !=, so a new family is a row of that table."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {id(node) for top in tree.body if isinstance(top, ast.Assign)
                 and [getattr(t, "id", None) for t in top.targets] == ["_FAMILIES"]
                 for node in ast.walk(top)}
        for node in ast.walk(tree):
            if id(node) in table:
                continue
            if isinstance(node, ast.Constant) and node.value in ("l1ls", "nnls"):
                found.append((path.name, node.lineno, node.value))
            if isinstance(node, ast.Compare) and _tests_experiment(node):
                found.append((path.name, node.lineno, "== experiment"))
    assert found == []
