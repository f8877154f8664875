"""Span tracing around the public functions of the ``iapd`` modules.

The tracer patches functions and methods from outside the library: no
file under ``src/`` knows about it. Each call records one span (name,
start, end, parent) in flat in-memory arrays; per-layer figures are
derived from the spans after the run, and the spans can be written out
with :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

# Layers in the order of the library's own dependency graph.
LAYERS = ("linalg", "proxfuns", "problem", "solvers", "diagnostics", "bench", "cli")

NO_PARENT = -1


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n, obj in vars(module).items()
                 if not n.startswith("_") and inspect.isfunction(obj)
                 and obj.__module__ == module.__name__]
    return list(names)


def _solve_iapd_label(args, kwargs) -> str:
    opts = args[2] if len(args) > 2 else kwargs["opts"]
    return opts.option


class Tracer:
    """Records spans for wrapped callables; install() patches the library."""

    # Calls whose span name carries a detail read from the arguments.
    LABELLERS = {"solvers.solve_iapd": _solve_iapd_label}

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (a phase)."""
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        """A callable that records a span and returns exactly what ``fn`` returns."""
        labeller = self.LABELLERS.get(name)
        if labeller is None:
            nid = self._id(name)

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(self._id(f"{name}[{labeller(args, kwargs)}]"))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

        traced.__wrapped_by_tracer__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, value)

    def install(self, layers=LAYERS) -> None:
        """Wrap every public function and public method of the given layers.

        A function is replaced in every ``iapd`` module that bound it by
        name (``from .problem import compute_reference`` makes a second
        binding), so the span is recorded whichever way it is called.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"iapd.{layer}") for layer in layers]
        namespaces = modules + [importlib.import_module("iapd")]
        for layer, module in zip(layers, modules):
            for name in _public_names(module):
                obj = getattr(module, name)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    traced = self.wrap(obj, f"{layer}.{name}")
                    for ns in namespaces:
                        if vars(ns).get(name) is obj:
                            self._patch(ns, name, traced)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_class(layer, obj)

    def _install_class(self, layer: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if attr == "__init__" and cls.__name__ != "LinearMap":
                continue  # dataclass and exception constructors carry no work
            label = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(raw):
                self._patch(cls, attr, self.wrap(raw, label))
            elif isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__, label)))
            elif isinstance(raw, staticmethod):
                self._patch(cls, attr, staticmethod(self.wrap(raw.__func__, label)))

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, with durations and self times in ns."""
        name_id = np.frombuffer(self.name_id, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.int64).copy()
        end = np.frombuffer(self.end, dtype=np.int64).copy()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name_id": name_id, "parent": parent, "start": start, "end": end,
                "dur": dur, "self": dur - child}

    def save(self, path) -> None:
        """Write the spans and the name table as a compressed ``.npz`` file."""
        arr = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name_id=arr["name_id"],
                            parent=arr["parent"], start=arr["start"], end=arr["end"])
