"""scripts/bench_matvec.py: the product-pair timer, on tiny instances."""

import numpy as np
import pytest

from helpers import import_script
from iapd.bench import generate_l1ls, generate_nnls


@pytest.fixture
def bench_matvec(monkeypatch):
    module = import_script("bench_matvec", monkeypatch)
    monkeypatch.setattr(module, "REPEATS", 3)
    monkeypatch.setattr(module, "PAIRS", {"dense": 2, "sparse": 2})
    tiny = {"dense": lambda seed: generate_l1ls(6, 9, 0.1, seed),
            "sparse": lambda seed: generate_nnls(9, 6, 0.5, seed)}
    monkeypatch.setattr(module, "instance", lambda case, seed: tiny[case](seed))
    return module


@pytest.mark.parametrize("offset", [0, 8, 16, 48])
def test_a_copy_at_an_offset_starts_there_and_holds_the_values(bench_matvec, offset):
    values = np.random.default_rng(5).standard_normal((7, 3))
    moved = bench_matvec.at_offset(values, offset)
    assert moved.ctypes.data % 64 == offset and moved.flags.c_contiguous
    assert moved.tobytes() == values.tobytes()


def test_a_dense_case_times_the_built_map_and_every_layout(bench_matvec):
    row = bench_matvec.measure("dense")
    assert row["shape"] == [6, 9] and not row["sparse"]
    assert row["k_address_mod_64"] == 0
    layouts = [f"pair_us_k{k}_v{v}" for k in (0, 16, 48) for v in (0, 8)]
    for name in ["pair_us", *layouts]:
        assert row[f"{name}_median"] > 0 and row[f"{name}_iqr"] >= 0


def test_a_sparse_case_times_the_built_map_and_the_scatter_adjoint(bench_matvec):
    row = bench_matvec.measure("sparse")
    assert row["sparse"] and row["pair_us_median"] > 0
    assert row["pair_us_scatter_median"] > 0 and row["pair_us_scatter_iqr"] >= 0
    assert not any(key.startswith("pair_us_k") for key in row)


def test_a_sparse_case_refuses_adjoints_that_differ(bench_matvec, monkeypatch):
    from scipy.sparse import _sparsetools

    scatter = _sparsetools.csc_matvec

    def off_by_one(*args):
        scatter(*args)
        args[-1][0] += 1.0

    monkeypatch.setattr(_sparsetools, "csc_matvec", off_by_one)
    with pytest.raises(AssertionError, match="sparse: the scatter and gather adjoints differ"):
        bench_matvec.measure("sparse")
