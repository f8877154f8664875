"""Operator, norm-estimation, and Matrix Market IO tests."""

import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iapd.bench import generate_l1ls, generate_nnls
from iapd.linalg import (
    NORM_SAFETY,
    DimensionMismatchError,
    LinearMap,
    MatrixMarketError,
    _aligned_empty,
    _csr_from_triples,
    read_matrix_market,
    write_matrix_market,
)


def test_apply_identity():
    K = LinearMap(np.eye(2))
    assert np.array_equal(K.apply(np.array([3.0, -1.0])), np.array([3.0, -1.0]))


def test_apply_adjoint_small_dense():
    K = LinearMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(K.apply_adjoint(np.array([1.0, 1.0])), np.array([4.0, 6.0]))


def test_apply_dimension_mismatch():
    K = LinearMap(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatchError):
        K.apply(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        K.apply_adjoint(np.zeros(2))


def test_rejects_nonfinite_matrix():
    with pytest.raises(ValueError):
        LinearMap(np.array([[1.0, np.nan]]))


@pytest.mark.parametrize("matrix, message", [
    pytest.param(np.ones(3), r"expected a 2-D matrix, got shape \(3,\)", id="1-D"),
    pytest.param(np.ones((2, 2, 2)), r"expected a 2-D matrix, got shape \(2, 2, 2\)", id="3-D"),
    pytest.param(np.ones((0, 3)), "matrix dimensions must be >= 1", id="no-rows"),
    pytest.param(np.ones((3, 0)), "matrix dimensions must be >= 1", id="no-columns"),
    pytest.param(sp.csr_array((0, 3)), "matrix dimensions must be >= 1", id="sparse-no-rows"),
])
def test_rejects_a_matrix_that_is_not_m_by_n(matrix, message):
    with pytest.raises(ValueError, match=message):
        LinearMap(matrix)


def test_sparse_apply_matches_dense_reconstruction():
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((50, 30)) < 0.2, rng.standard_normal((50, 30)), 0.0)
    K = LinearMap(sp.csr_array(dense))
    assert K.is_sparse
    x = rng.standard_normal(30)
    y = rng.standard_normal(50)
    assert np.allclose(K.apply(x), dense @ x, rtol=1e-12, atol=1e-12)
    assert np.allclose(K.apply_adjoint(y), dense.T @ y, rtol=1e-12, atol=1e-12)
    assert np.array_equal(K.to_dense(), dense)


def test_adjoint_identity_random_pairs():
    rng = np.random.default_rng(11)
    K = LinearMap(rng.standard_normal((17, 23)))
    for _ in range(1000):
        x = rng.standard_normal(23)
        y = rng.standard_normal(17)
        lhs = float(K.apply(x) @ y)
        rhs = float(x @ K.apply_adjoint(y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_norm_identity_carries_safety_factor():
    est = LinearMap(np.eye(5)).norm()
    assert est == pytest.approx(NORM_SAFETY)
    assert 1.0 <= est <= 1.002


def test_norm_diagonal():
    K = LinearMap(np.diag([3.0, 1.0]))
    assert K.norm() == pytest.approx(3.0 * NORM_SAFETY, rel=1e-9)


def test_norm_zero_map():
    assert LinearMap(np.zeros((4, 6))).norm() == 0.0


def test_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.standard_normal((40, 60))
        K = LinearMap(A)
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert abs(K.norm() / NORM_SAFETY - sigma) <= 1e-12 * sigma


def test_norm_is_cached_and_deterministic():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 9))
    K1, K2 = LinearMap(A), LinearMap(A.copy())
    assert K1.norm() == K1.norm() == K2.norm()


def test_norm_leaves_the_global_rng_alone():
    np.random.seed(3)
    expected = np.random.random()
    np.random.seed(3)
    LinearMap(np.random.default_rng(1).standard_normal((6, 4))).norm()
    assert np.random.random() == expected


@pytest.mark.parametrize("mat", [
    np.array([[1.0, -1.0]]),
    np.eye(50, 51, 1) - np.eye(50, 51),  # forward difference
    np.array([[2.0, -2.0], [1.0, 1.0]]),
], ids=["one-row-difference", "forward-difference", "ones-in-smaller-singular-space"])
def test_norm_of_maps_whose_top_singular_vector_is_orthogonal_to_ones(mat):
    # The all-ones vector is orthogonal to the top right singular vector of
    # each of these maps, so a norm estimate started from it misses sigma_1.
    sigma = float(np.linalg.svd(mat, compute_uv=False)[0])
    assert LinearMap(mat).norm() == pytest.approx(sigma * NORM_SAFETY, rel=1e-12)


@st.composite
def norm_cases(draw):
    """A map of up to 30 x 30, dense or CSR, with its largest singular value.

    Besides Gaussian maps with random zero patterns the kinds cover the
    zero map, rank one, and a top singular value repeated 2 to 3 times;
    one row and one column come with the shapes.
    """
    m, n = draw(st.one_of(st.tuples(st.just(1), st.integers(1, 30)),
                          st.tuples(st.integers(1, 30), st.just(1)),
                          st.tuples(st.integers(1, 30), st.integers(1, 30))))
    kind = draw(st.sampled_from(["gaussian", "zero", "rank-1", "repeated-top"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    if kind == "gaussian":
        mat = rng.standard_normal((m, n)) * (rng.random((m, n)) < draw(st.floats(0.05, 1.0)))
    elif kind == "zero":
        mat = np.zeros((m, n))
    elif kind == "rank-1":
        mat = np.outer(rng.standard_normal(m), rng.standard_normal(n))
    else:
        r = min(m, n)
        u, _ = np.linalg.qr(rng.standard_normal((m, r)))
        v, _ = np.linalg.qr(rng.standard_normal((n, r)))
        s = rng.uniform(0.0, 0.9, size=r)
        s[: draw(st.integers(2, 3))] = 1.0
        mat = (u * s) @ v.T
    mat = mat * scale
    sigma = float(np.linalg.svd(mat, compute_uv=False)[0])
    return LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat), sigma


@settings(max_examples=300, deadline=None)
@given(norm_cases())
def test_norm_matches_svd_on_random_maps(case):
    K, sigma = case
    assert abs(K.norm() / NORM_SAFETY - sigma) <= 1e-12 * sigma


def _apply_calls_in_norm(K, monkeypatch):
    calls = []
    original = LinearMap.apply

    def counting(self, x):
        calls.append(1)
        return original(self, x)

    monkeypatch.setattr(LinearMap, "apply", counting)
    K.norm()
    return len(calls)


def test_norm_product_budget_dense(monkeypatch):
    K = generate_l1ls(200, 400, 0.1, seed=7).problem.K
    assert _apply_calls_in_norm(K, monkeypatch) <= 80


def test_norm_product_budget_sparse(monkeypatch):
    K = generate_nnls(400, 200, 0.1, seed=11).problem.K
    assert _apply_calls_in_norm(K, monkeypatch) <= 30


def test_norm_loads_no_scipy_linalg():
    # scipy.sparse.linalg alone adds about 9 MB to the resident set.
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import scipy.sparse as sp\n"
        "import iapd\n"
        "from iapd.linalg import LinearMap\n"
        "A = np.random.default_rng(0).standard_normal((30, 20))\n"
        "LinearMap(A).norm(), LinearMap(sp.csr_array(A)).norm()\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out.strip() == "[]"


def _fresh_process(code: str) -> str:
    """The standard output of ``code`` run by a new interpreter on this test's path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env=env, check=True, timeout=120).stdout


def test_a_dense_run_loads_no_scipy_sparse(tmp_path):
    """A dense bench run, ``iapd certify`` on it and ``iapd solve`` on array-format files
    import no scipy module: not scipy.sparse, whose import chain a dense run does not
    need, and none for the parse of the files."""
    out = _fresh_process(f"""
        import contextlib, io, sys
        import numpy as np
        import iapd
        from iapd import bench, cli
        from iapd.linalg import LinearMap, write_matrix_market
        out = {str(tmp_path)!r}
        rng = np.random.default_rng(5)
        write_matrix_market(LinearMap(rng.standard_normal((12, 8))), out + "/K.mtx")
        write_matrix_market(LinearMap(rng.standard_normal((12, 1))), out + "/b.mtx")
        with contextlib.redirect_stdout(io.StringIO()):
            bench.run_benchmark(bench.ExperimentConfig("l1ls", 20, 30, seed=3, iters=40,
                                                       out_dir=out + "/bench"))
            codes = [cli.main(["certify", "--csv", out + "/bench/iapd-op1.csv",
                               "--meta", out + "/bench/run_meta.json"]),
                     cli.main(["solve", "--matrix", out + "/K.mtx", "--rhs", out + "/b.mtx",
                               "--iters", "40", "--out", out + "/solve"])]
        print(codes, [name for name in sys.modules if name.split(".")[0] == "scipy"])
    """)
    assert out == "[0, 0] []\n"
    assert (tmp_path / "solve" / "iapd-op1.csv").exists()


def test_a_sparse_run_loads_no_scipy_sparse(tmp_path):
    """An nnls bench run, ``iapd certify`` on it and ``iapd solve --problem nnls`` on a
    coordinate-format K build sparse maps without the scipy.sparse package, whose
    import chain costs about 15 MB, and leave no scipy module behind: the matvec
    extension is loaded on its own and not registered."""
    out = _fresh_process(f"""
        import contextlib, io, sys
        import numpy as np
        from iapd import bench, cli
        from iapd.linalg import LinearMap, read_matrix_market, write_matrix_market
        out = {str(tmp_path)!r}
        inst = bench.generate_nnls(24, 16, 0.3, seed=3)
        write_matrix_market(inst.problem.K, out + "/K.mtx")
        write_matrix_market(LinearMap(inst.b[:, None]), out + "/b.mtx")
        with contextlib.redirect_stdout(io.StringIO()):
            bench.run_benchmark(bench.ExperimentConfig("nnls", 24, 16, seed=3, iters=40,
                                                       density=0.3, out_dir=out + "/bench"))
            codes = [cli.main(["certify", "--csv", out + "/bench/iapd-op1.csv",
                               "--meta", out + "/bench/run_meta.json"]),
                     cli.main(["solve", "--problem", "nnls", "--matrix", out + "/K.mtx",
                               "--rhs", out + "/b.mtx", "--iters", "40", "--out", out + "/solve"])]
        print(codes, inst.problem.K.is_sparse, read_matrix_market(out + "/K.mtx").is_sparse,
              "scipy.sparse" in sys.modules, [name for name in sys.modules if "scipy" in name])
    """)
    assert out == "[0, 0] True True False []\n"
    assert (tmp_path / "solve" / "iapd-op1.csv").exists()


@pytest.mark.parametrize("build, loads", [
    ("import scipy.sparse as sp; K = LinearMap(sp.csr_array(A))", True),
    ("K = generate_nnls(30, 20, 0.3, seed=4).problem.K", False),
    ("K = read_matrix_market(path)", False),
], ids=["csr-input", "generate-nnls", "coordinate-file"])
def test_each_sparse_path_gives_scipys_products_in_a_fresh_process(build, loads, tmp_path):
    """In a process that has not imported scipy.sparse, a CSR input, the nnls generator
    and a coordinate-file read each give a sparse map with scipy's products, byte for
    byte. Only the CSR input, which the caller builds with it, loads scipy.sparse; a
    later import of the package still works beside the map's kernels."""
    rng = np.random.default_rng(8)
    A = np.where(rng.random((30, 20)) < 0.3, rng.standard_normal((30, 20)), 0.0)
    write_matrix_market(LinearMap(sp.csr_array(A)), tmp_path / "K.mtx")
    np.save(tmp_path / "A.npy", A)
    out = _fresh_process(f"""
        import sys
        import numpy as np
        from iapd.bench import generate_nnls
        from iapd.linalg import LinearMap, read_matrix_market
        loaded_before = "scipy.sparse" in sys.modules
        path, A = {str(tmp_path / "K.mtx")!r}, np.load({str(tmp_path / "A.npy")!r})
        {build}
        loaded_after = "scipy.sparse" in sys.modules
        import scipy.sparse as sp
        mat = sp.csr_array(K.to_dense())
        rng = np.random.default_rng(9)
        x, y = rng.standard_normal(K.cols), rng.standard_normal(K.rows)
        print(loaded_before, loaded_after, K.is_sparse,
              K.apply(x).tobytes() == (mat @ x).tobytes(),
              K.apply_adjoint(y).tobytes() == (mat.T @ y).tobytes())
    """)
    assert out == f"False {loads} True True True\n"


def test_from_coo_and_triples_sorted():
    K = LinearMap(sp.coo_array(([5.0, 7.0, 9.0], ([2, 0, 0], [0, 2, 1])), shape=(3, 3)))
    ii, jj, vv = K.triples()
    assert list(ii) == [0, 0, 2]
    assert list(jj) == [1, 2, 0]
    assert list(vv) == [9.0, 7.0, 5.0]


def test_triples_rejected_for_dense():
    with pytest.raises(ValueError):
        LinearMap(np.eye(2)).triples()


# -- Matrix Market ---------------------------------------------------------


def test_mm_roundtrip_dense(tmp_path):
    rng = np.random.default_rng(19)
    A = rng.standard_normal((7, 4))
    path = tmp_path / "a.mtx"
    write_matrix_market(LinearMap(A), path)
    back = read_matrix_market(path)
    assert not back.is_sparse
    assert np.array_equal(back.to_dense(), A)


def test_mm_roundtrip_sparse(tmp_path):
    rng = np.random.default_rng(23)
    dense = np.where(rng.random((100, 80)) < 0.05, rng.standard_normal((100, 80)), 0.0)
    K = LinearMap(sp.csr_array(dense))
    path = tmp_path / "s.mtx"
    write_matrix_market(K, path)
    back = read_matrix_market(path)
    assert back.is_sparse
    assert np.array_equal(back.to_dense(), dense)


def test_mm_sparse_zero_nnz(tmp_path):
    path = tmp_path / "z.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n3 5 0\n")
    K = read_matrix_market(path)
    assert K.shape == (3, 5)
    assert K.is_sparse
    assert np.array_equal(K.to_dense(), np.zeros((3, 5)))
    out = tmp_path / "z2.mtx"
    write_matrix_market(K, out)
    assert np.array_equal(read_matrix_market(out).to_dense(), np.zeros((3, 5)))


def test_mm_array_column_major(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix array real general\n2 3\n1\n2\n3\n4\n5\n6\n"
    )
    K = read_matrix_market(path)
    assert np.array_equal(K.to_dense(), np.array([[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]]))


def test_mm_comments_and_blanks(tmp_path):
    path = tmp_path / "c.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n\n2 2 1\n% another\n2 1 -4.5\n"
    )
    K = read_matrix_market(path)
    assert K.to_dense()[1, 0] == -4.5


def test_mm_bad_header_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 0\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 1


def test_mm_bad_index_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 3


def test_mm_bad_value_line_number(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == 3


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("body, line", [("coordinate real general\n2 2 1\n1 1 {}\n", 3),
                                        ("array real general\n2 1\n1.0\n{}\n", 4)],
                         ids=["coordinate", "array"])
def test_mm_non_finite_value_names_file_and_line(body, line, token, tmp_path):
    """A value that parses to NaN or an infinity (1e400 overflows) is refused where it is read."""
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix " + body.format(token))
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == line
    assert str(err.value) == f"{path}: expected a finite real number, got {token!r} (line {line})"


def test_mm_duplicates_summing_past_the_largest_double_name_the_file(tmp_path):
    """Duplicate entries are summed; two finite values can sum to infinity."""
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n1 1 2\n"
                    "1 1 1.7976931348623157e308\n1 1 1.7976931348623157e308\n")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line is None
    assert str(err.value) == f"{path}: duplicate entries sum to a non-finite value"


def test_mm_wrong_entry_count(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


def test_mm_array_wrong_value_count(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n")
    with pytest.raises(MatrixMarketError):
        read_matrix_market(path)


MM_COORD = "%%MatrixMarket matrix coordinate real general\n"
MM_ARRAY = "%%MatrixMarket matrix array real general\n"


def reference_read(path) -> LinearMap:
    """The per-token reader that ``read_matrix_market`` replaced, kept as its oracle:
    ``int`` and ``float`` on every token, in file order."""

    def fail(message, line=None):
        return MatrixMarketError(message, line, path)

    def real(token, line):
        try:
            value = float(token)
        except ValueError:
            raise fail(f"expected a real number, got {token!r}", line) from None
        if not np.isfinite(value):
            raise fail(f"expected a finite real number, got {token!r}", line)
        return value

    lines = path.read_text(encoding="utf-8").splitlines()
    fmt = lines[0].split()[2].lower()
    idx = 1
    while not lines[idx].strip() or lines[idx].lstrip().startswith("%"):
        idx += 1
    dims = [int(tok) for tok in lines[idx].split()]
    m, n = dims[0], dims[1]
    data = [(k + 1, lines[k].strip()) for k in range(idx + 1, len(lines))
            if lines[k].strip() and not lines[k].strip().startswith("%")]
    if fmt == "coordinate":
        if len(data) != dims[2]:
            raise fail(f"expected {dims[2]} entries, found {len(data)}", len(lines))
        ii, jj, vv = [], [], []
        for lineno, text in data:
            parts = text.split()
            if len(parts) != 3:
                raise fail("coordinate entry must be 'i j value'", lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise fail(f"non-integer index in {text!r}", lineno) from None
            if not (1 <= i <= m and 1 <= j <= n):
                raise fail(f"index ({i}, {j}) out of range", lineno)
            ii.append(i - 1)
            jj.append(j - 1)
            vv.append(real(parts[2], lineno))
        try:
            return LinearMap(sp.coo_array((np.array(vv, dtype=np.float64),
                                           (np.array(ii, dtype=np.int64),
                                            np.array(jj, dtype=np.int64))), shape=(m, n)))
        except ValueError:
            raise fail("duplicate entries sum to a non-finite value") from None
    values = [real(tok, lineno) for lineno, text in data for tok in text.split()]
    if len(values) != m * n:
        raise fail(f"expected {m * n} array values, found {len(values)}", len(lines))
    return LinearMap(np.array(values, dtype=np.float64).reshape((n, m)).T)


def read_outcome(read, path):
    """What ``read`` makes of ``path``: the map's values as bytes and its indices (whose
    integer type a CSR map picks), or the error's message."""
    try:
        K = read(path)
    except MatrixMarketError as err:
        return str(err)
    if K.is_sparse:
        ii, jj, vv = K.triples()
        return K.shape, ii.tolist(), jj.tolist(), vv.tobytes()
    return K.shape, K.to_dense().tobytes()


INDEX_TOKENS = ["1", "2", "+1", "0", "3", "-1", "1.0", "x", "9223372036854775808"]
VALUE_TOKENS = ["1.5", "-0.0", "+2", "4.9e-324", "1e-310", ".5", "nan", "inf", "1e400", "abc",
                "1.7976931348623157e308"]
FILLER = ["% a comment", "", "   ", "\t% indented comment"]


@st.composite
def mm_files(draw):
    """Small Matrix Market texts, valid or faulty, within the grammar both readers share."""
    coordinate = draw(st.booleans())
    m, n = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    lines = []
    if coordinate:
        entries = draw(st.lists(st.lists(st.sampled_from(INDEX_TOKENS), min_size=2,
                                         max_size=2), max_size=5))
        for i, j in entries:
            fields = [i, j, draw(st.sampled_from(VALUE_TOKENS))]
            fields = draw(st.sampled_from([fields, fields[:2], fields + ["1"],
                                           fields + ["%", "c"]]))
            lines.append(" ".join(fields))
        size = f"{m} {n} {max(len(entries) + draw(st.sampled_from([0, 0, 0, 1, -1])), 0)}"
    else:
        width = draw(st.integers(1, 2))
        rows = m * n // width + draw(st.integers(-1, 1))
        for _ in range(max(rows, 0)):
            lines.append(" ".join(draw(st.sampled_from(VALUE_TOKENS[:6] * 3 + VALUE_TOKENS))
                                  for _ in range(width)))
        size = f"{m} {n}"
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER)))
    head = MM_COORD if coordinate else MM_ARRAY
    return head + size + "\n" + "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n"]))


@settings(max_examples=400, deadline=None)
@given(mm_files())
def test_mm_read_matches_the_per_token_reader(tmp_path_factory, text):
    """The one C parse gives the per-token reader's map byte for byte, or its message and line."""
    path = tmp_path_factory.mktemp("mm") / "k.mtx"
    path.write_text(text)
    assert read_outcome(read_matrix_market, path) == read_outcome(reference_read, path)


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
                  1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.data())
def test_mm_roundtrip_is_byte_exact(tmp_path_factory, m, n, sparse, data):
    """write then read gives the map back byte for byte, signed zeros, subnormals and the
    largest finite doubles included; a CSR map keeps its stored zeros."""
    value = st.sampled_from(SPECIAL_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
    if sparse:
        cells = data.draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)),
                                   unique=True, max_size=m * n))
        vals = [data.draw(value) for _ in cells]
        rows, cols = [c[0] for c in cells], [c[1] for c in cells]
        K = LinearMap(sp.csr_array((np.array(vals, dtype=np.float64), (rows, cols)),
                                   shape=(m, n)))
    else:
        K = LinearMap(np.array([[data.draw(value) for _ in range(n)] for _ in range(m)]))
    path = tmp_path_factory.mktemp("mm") / "k.mtx"
    write_matrix_market(K, path)
    assert read_outcome(read_matrix_market, path) == read_outcome(lambda p: K, path)


def test_mm_tokens_read_as_float_and_int_read_them(tmp_path):
    """repr, %.17g and %.6g tokens, and '+1' indices, read back exactly as float() and int()."""
    values = [0.1, 1 / 3, -2.5e-300, 5e-324, 1.7976931348623157e308, 123456.789, -0.0, 1e22]
    forms = [repr, lambda v: f"{v:.17g}", lambda v: f"{v:.6g}"]
    lines = [(f"+{r + 1}", f"+{c + 1}", form(v)) for r, form in enumerate(forms)
             for c, v in enumerate(values)]
    path = tmp_path / "tokens.mtx"
    path.write_text(MM_COORD + f"3 {len(values)} {len(lines)}\n"
                    + "".join(" ".join(fields) + "\n" for fields in lines))
    ii, jj, vv = read_matrix_market(path).triples()
    assert ii.tolist() == [int(i) - 1 for i, _, _ in lines]
    assert jj.tolist() == [int(j) - 1 for _, j, _ in lines]
    assert vv.tobytes() == np.array([float(v) for _, _, v in lines]).tobytes()


def test_mm_read_crosses_the_parser_chunk(tmp_path):
    """120 000 entries: more than one of loadtxt's 50 000-row chunks, read back exactly."""
    rng = np.random.default_rng(31)
    K = LinearMap(sp.csr_array(rng.standard_normal((400, 300))))
    path = tmp_path / "big.mtx"
    write_matrix_market(K, path)
    assert read_outcome(read_matrix_market, path) == read_outcome(lambda p: K, path)


@st.composite
def coordinate_triples(draw, duplicates: bool):
    """(m, n, rows, cols, values): zero-based triples in any order, or in (row, col)
    order with duplicates kept in the order drawn. Rows and columns may be empty and
    values may be explicit or signed zeros; with ``duplicates``, cells repeat, values
    as large as the largest double can sum past it, and the order of a sum such as
    1 + 1e16 - 1e16 decides its value."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    cells = draw(st.lists(cell, max_size=3 * m * n if duplicates else m * n,
                          unique=not duplicates))
    if draw(st.booleans()):
        cells.sort()  # stable: duplicates keep their order
    value = (st.sampled_from(SPECIAL_VALUES + [1.0, 1e16, -1e16])
             | st.floats(allow_nan=False, allow_infinity=False))
    vals = np.array([draw(value) for _ in cells], dtype=np.float64)
    rows, cols = (np.array([c[k] for c in cells], dtype=np.int64) for k in (0, 1))
    return m, n, rows, cols, vals


@settings(max_examples=150, deadline=None)
@given(coordinate_triples(duplicates=False), st.data())
def test_triples_without_duplicates_build_scipys_map(case, data):
    """Every product and view of the map built from triples is scipy's, byte for byte."""
    m, n, rows, cols, vals = case
    K = LinearMap(_csr_from_triples(rows, cols, vals, (m, n)))
    ref = sp.csr_array((vals, (rows, cols)), shape=(m, n))
    ref.sort_indices()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    assert K.apply(x).tobytes() == (ref @ x).tobytes()
    assert K.apply_adjoint(y).tobytes() == (ref.T @ y).tobytes()
    assert K.to_dense().tobytes() == ref.toarray().tobytes()
    coo = ref.tocoo()
    ii, jj, vv = K.triples()
    assert (ii.tolist(), jj.tolist(), vv.tobytes()) == (coo.row.tolist(), coo.col.tolist(),
                                                        coo.data.tobytes())
    index = data.draw(st.lists(st.integers(-n, n - 1), min_size=1, max_size=2 * n))
    alias = index[0] - n if index[0] >= 0 else index[0] + n  # the same column as index[0]
    index = np.array(index + [alias])
    assert K.columns(index).tobytes() == ref[:, index].toarray().tobytes()
    with pytest.raises(IndexError):
        K.columns(np.array([n]))


def _interleaved_sum():
    """Cells (1, 2) and (1, 1) alternating in a file; in file order, (1, 1) sums to 9."""
    cols = np.tile([1, 0], 12)
    vals = np.full(24, 2.0)
    vals[cols == 0] = [1.0, 1e16, -1e16] + [1.0] * 9
    return 1, 2, np.zeros(24, dtype=np.int64), cols, vals


@settings(max_examples=150, deadline=None)
@given(case=coordinate_triples(duplicates=True))
@example(case=_interleaved_sum())  # numpy's default argsort here gives the sum 8
def test_a_coordinate_read_sums_duplicates_in_file_order(tmp_path_factory, case):
    """Each entry read is the sum of its cell's values from the first, in file order; a
    sum past the largest double is an error that names the file."""
    m, n, rows, cols, vals = case
    path = tmp_path_factory.mktemp("mm") / "k.mtx"
    path.write_text(MM_COORD + f"{m} {n} {len(vals)}\n" + "".join(
        f"{i + 1} {j + 1} {v!r}\n" for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist())))
    sums = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        sums[i, j] = sums[i, j] + v if (i, j) in sums else v
    if not all(map(math.isfinite, sums.values())):
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert str(err.value) == f"{path}: duplicate entries sum to a non-finite value"
        return
    ii, jj, vv = read_matrix_market(path).triples()
    assert list(zip(ii.tolist(), jj.tolist())) == sorted(sums)
    assert vv.tobytes() == np.array([sums[c] for c in sorted(sums)], dtype=np.float64).tobytes()


@pytest.mark.parametrize("body, line, message", [
    pytest.param(MM_COORD + "2 2 2\n3 1 1.0\n1 1 x\n", 3, "index (3, 1) out of range",
                 id="range-fault-before-parse-fault"),
    pytest.param(MM_COORD + "2 2 2\n1 1 x\n3 1 1.0\n", 3, "expected a real number, got 'x'",
                 id="parse-fault-before-range-fault"),
    pytest.param(MM_COORD + "2 2 2\n1 1 1.0\n1 1 1.0 % c\n", 4,
                 "coordinate entry must be 'i j value'", id="inline-comment"),
    pytest.param(MM_COORD + "2 2 1\n1 1\n", 3, "coordinate entry must be 'i j value'",
                 id="two-fields"),
    pytest.param(MM_COORD + "2 2 1\n1 1 1.0 2.0\n", 3, "coordinate entry must be 'i j value'",
                 id="four-fields"),
    pytest.param(MM_COORD + "2 2 1\n1.0 1 1.0\n", 3, "non-integer index in '1.0 1 1.0'",
                 id="float-index"),
    pytest.param(MM_COORD + "2 2 1\n1 0 1.0\n", 3, "index (1, 0) out of range", id="zero-index"),
    pytest.param(MM_COORD + "2 2 1\n9223372036854775808 1 1.0\n", 3,
                 "index (9223372036854775808, 1) out of range", id="int64-overflow"),
    pytest.param(MM_COORD + "2 2 2\n1 1 1.0\n1_0 1 1.0\n", 4, "non-integer index in '1_0 1 1.0'",
                 id="underscore-index"),
    pytest.param(MM_COORD + "2 2 1\n1 1 1_0\n", 3, "expected a real number, got '1_0'",
                 id="underscore-value"),
    pytest.param(MM_ARRAY + "2 1\n1.0\n1_0\n", 4, "expected a real number, got '1_0'",
                 id="underscore-array-value"),
    pytest.param(MM_ARRAY + "2 2\n1 2\n% c\n3 4\n5\n6 7\n", 6,
                 "array lines must hold the same number of values: 2 on the first, 1 here",
                 id="array-width-changes"),
    pytest.param(MM_COORD + "2 2 1\n1 1 \u0661\n", 3, "expected a real number, got '\u0661'",
                 id="arabic-indic-digit"),
    pytest.param(MM_COORD + "1_0 1 1\n1 1 1.0\n", 2, "non-integer size field in '1_0 1 1'",
                 id="underscore-size"),
    pytest.param(MM_ARRAY + "\u0662 1\n1.0\n2.0\n", 2, "non-integer size field in '\u0662 1'",
                 id="arabic-indic-size"),
    pytest.param("", 1, "empty file", id="empty-file"),
    pytest.param(MM_COORD + "% a comment\n\n", 3, "missing size line", id="no-size-line"),
    pytest.param(MM_COORD + "2 2\n", 2, "size line must have 3 fields", id="coordinate-size"),
    pytest.param(MM_ARRAY + "2 2 4\n", 2, "size line must have 2 fields", id="array-size"),
    pytest.param(MM_COORD + "0 2 0\n", 2, "invalid dimensions", id="zero-rows"),
    pytest.param(MM_ARRAY + "2 0\n", 2, "invalid dimensions", id="zero-columns"),
    pytest.param(MM_COORD + "2 2 -1\n", 2, "invalid dimensions", id="negative-nnz"),
    # m n or m + 1 past int64: numpy cannot size the row pointer, the cell keys overflow,
    # or no vector of n entries can be built; or a row or column pointer of 8 (m + 1)
    # or 8 (n + 1) bytes past int64, which numpy refuses as "array is too big"
    pytest.param(MM_COORD + "9223372036854775807 2 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="rows-at-int64-max"),
    pytest.param(MM_COORD + "3 4611686018427387904 2\n3 1 5.0\n1 2 7.0\n", 2,
                 "invalid dimensions", id="cell-key-overflow"),
    pytest.param(MM_COORD + "2 9223372036854775807 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="columns-at-int64-max"),
    pytest.param(MM_COORD + "9223372036854775807 1 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="row-pointer-overflow"),
    pytest.param(MM_COORD + "9223372036854775806 1 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="row-pointer-bytes"),
    pytest.param(MM_COORD + "1 9223372036854775806 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="column-pointer-bytes"),
    pytest.param(MM_COORD + "1152921504606846975 1 1\n1 1 1.0\n", 2, "invalid dimensions",
                 id="row-pointer-at-2**63-bytes"),
])
def test_mm_fault_names_file_and_first_faulty_line(body, line, message, tmp_path):
    """Each fault is named with its file and line, the earliest when there are several.
    The underscore tokens, a non-ASCII digit and the array whose lines hold different
    numbers of values are refused though float() and int() would read them."""
    path = tmp_path / "bad.mtx"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.line == line
    assert str(err.value) == f"{path}: {message} (line {line})"


@pytest.mark.parametrize("body, dense", [
    pytest.param(MM_COORD + "3 5 0\n", np.zeros((3, 5)), id="no-entries"),
    pytest.param(MM_COORD + "3 5 0\n% none\n\n", np.zeros((3, 5)), id="comments-only"),
    pytest.param(MM_ARRAY + "1 1\n2.5\n", np.array([[2.5]]), id="one-value"),
])
def test_mm_small_files_read_without_a_warning(body, dense, tmp_path):
    """No entries never reach loadtxt, which warns "input contained no data"."""
    path = tmp_path / "k.mtx"
    path.write_text(body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K = read_matrix_market(path)
    assert np.array_equal(K.to_dense(), dense)


# -- adjoint ----------------------------------------------------------------


@st.composite
def map_and_vectors(draw):
    m, n = draw(st.integers(1, 30)), draw(st.integers(1, 30))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n)) * (rng.random((m, n)) < draw(st.floats(0.05, 1.0)))
    sparse = draw(st.booleans())
    K = LinearMap(sp.csr_array(mat) if sparse else mat)
    return mat, K, rng.standard_normal(n), rng.standard_normal(m)


@settings(max_examples=200, deadline=None)
@given(map_and_vectors())
def test_adjoint_identity(case):
    # <Kx, y> = <x, K^T y>, up to the rounding of two dot products of length m + n
    mat, K, x, y = case
    lhs, rhs = float(K.apply(x) @ y), float(x @ K.apply_adjoint(y))
    scale = float(np.abs(y) @ np.abs(mat) @ np.abs(x))
    assert abs(lhs - rhs) <= 4.0 * (sum(mat.shape) + 1) * np.finfo(float).eps * scale


@settings(max_examples=100, deadline=None)
@given(map_and_vectors())
def test_sparse_adjoint_is_the_transpose_product(case):
    mat, _, _, y = case
    K = LinearMap(sp.csr_array(mat))
    assert K.apply_adjoint(y).tobytes() == np.asarray(sp.csr_array(mat).T @ y).tobytes()


def test_sparse_adjoint_builds_no_transpose_per_call(monkeypatch):
    rng = np.random.default_rng(5)
    K = LinearMap(sp.random_array((40, 30), density=0.2, rng=rng, format="csr"))
    y = rng.standard_normal(40)
    calls = []
    original = sp.csr_array.transpose

    def counting(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_array, "transpose", counting)
    for _ in range(100):
        K.apply_adjoint(y)
    assert len(calls) == 0


# -- sparse products at kernel cost ------------------------------------------------


@st.composite
def raw_csr_and_vectors(draw):
    """A CSR array built from raw arrays, and the vectors to multiply it by.

    Rows and columns may be empty, nnz may be 0, a row may hold the same
    column twice or its columns out of order, the data may hold explicit
    +0.0 and -0.0, and the index arrays are int32 or int64. Each vector is
    float64, a strided float64 view, or float32, and may hold +-0.0, +-inf
    and NaN, so that products of inf and 0 and sums of opposite infinities
    make NaN.
    """
    m, n = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, draw(st.integers(0, 2 * n)) + 1, size=m)
    counts[rng.random(m) < 0.3] = 0
    index_dtype = draw(st.sampled_from([np.int32, np.int64]))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(index_dtype)
    indices = rng.integers(0, n, size=int(indptr[-1])).astype(index_dtype)
    data = rng.standard_normal(indices.size)
    zeros = rng.random(indices.size) < draw(st.sampled_from([0.0, 0.3]))
    data[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    mat = sp.csr_array((data, indices, indptr), shape=(m, n))
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    special_share = draw(st.sampled_from([0.0, 0.1, 0.5]))

    def vector(size):
        kind = draw(st.sampled_from(["float64", "strided", "float32"]))
        v = rng.standard_normal(2 * size)
        hit = rng.random(2 * size) < special_share
        v[hit] = rng.choice(specials, size=int(hit.sum()))
        return {"float64": v[:size], "strided": v[::2], "float32": v[:size].astype(np.float32)}[kind]

    return mat, vector(n), vector(m)


@settings(max_examples=300, deadline=None)
@given(raw_csr_and_vectors())
def test_sparse_products_are_the_scipy_products(case):
    mat, x, y = case
    K = LinearMap(mat.copy())
    # the map sorts its column indices; the reference is the same sort of the same arrays
    ref = mat.copy()
    ref.sort_indices()
    assert K.apply(x).tobytes() == np.asarray(ref @ x).tobytes()
    # The map's gather over K^T's arrays adds the terms that scipy's scatter over K's
    # arrays adds, in the same order, but the kernels put the operands of each addition
    # in opposite order. So where two NaNs meet, y's NaN (sign bit clear) and one made
    # by inf * 0 or inf - inf (sign bit set), the output NaN may carry the other sign
    # bit; every other output, and every output for a y without NaN, is scipy's.
    got, want = K.apply_adjoint(y), np.asarray(ref.T @ y)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()
    if not np.isnan(y).any():
        assert got.tobytes() == want.tobytes()
    assert K.apply(x).dtype == K.apply_adjoint(y).dtype == np.float64
    # duplicates add up from zero in stored row order, as scipy's toarray adds them
    assert K.to_dense().tobytes() == ref.toarray().tobytes()
    n = mat.shape[1]
    index = np.random.default_rng(n).integers(-n, n, size=n + 1)
    assert K.columns(index).tobytes() == ref[:, index].toarray().tobytes()
    with pytest.raises(DimensionMismatchError):
        K.apply(np.zeros(mat.shape[1] + 1))
    with pytest.raises(DimensionMismatchError):
        K.apply_adjoint(np.zeros(mat.shape[0] + 1))


def test_sparse_products_skip_scipy_dispatch(monkeypatch):
    rng = np.random.default_rng(6)
    K = LinearMap(sp.random_array((40, 30), density=0.2, rng=rng, format="csr"))
    x, y = rng.standard_normal(30), rng.standard_normal(40)
    calls = []
    original = sp._base._spbase._matmul_dispatch

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(sp._base._spbase, "_matmul_dispatch", counting)
    for _ in range(50):
        K.apply(x)
        K.apply_adjoint(y)
    assert len(calls) == 0


# -- ownership -----------------------------------------------------------------


def _unsorted_csr(dense):
    """CSR of ``dense`` with each row's column indices in descending order."""
    csr = sp.csr_array(dense)
    indices, data = csr.indices.copy(), csr.data.copy()
    for lo, hi in zip(csr.indptr[:-1], csr.indptr[1:]):
        indices[lo:hi], data[lo:hi] = indices[lo:hi][::-1], data[lo:hi][::-1]
    return sp.csr_array((data, indices, csr.indptr.copy()), shape=dense.shape)


def _caller_input(kind, dense):
    """The input of ``kind`` holding ``dense``, and a function that overwrites its storage."""
    if kind == "c-order":
        A = dense.copy()
        return A, lambda: A.fill(1e3)
    if kind == "f-order":
        A = np.asfortranarray(dense)
        return A, lambda: A.fill(1e3)
    if kind == "strided":
        base = np.zeros((dense.shape[0], 2 * dense.shape[1]))
        base[:, ::2] = dense
        return base[:, ::2], lambda: base.fill(1e3)
    if kind == "nested-list":
        A = dense.tolist()

        def scribble():
            for row in A:
                row[:] = [1e3] * len(row)

        return A, scribble
    if kind == "handed-over":
        A = dense.copy()
        A.flags.writeable = False

        def scribble():
            with pytest.raises(ValueError):
                A[0, 0] = 1e3

        return A, scribble
    if kind in ("view-of-writable", "aligned-handed-over"):
        A = _aligned_empty(*dense.shape)
        A[...] = dense
        A.flags.writeable = False
        if kind == "aligned-handed-over":
            A.base.flags.writeable = False
            return A, lambda: None
        return A, lambda: A.base.fill(1e3)
    A = _unsorted_csr(dense) if kind == "csr-unsorted" else sp.coo_array(dense)

    def scribble():
        A.data.fill(1e3)
        for index in (A.indices,) if kind == "csr-unsorted" else A.coords:
            index.fill(0)

    return A, scribble


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["c-order", "f-order", "strided", "nested-list", "handed-over",
                     "view-of-writable", "aligned-handed-over", "csr-unsorted", "coo"]),
    st.integers(1, 8),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_map_owns_its_arrays(kind, m, n, seed):
    """A write to the caller's arrays after LinearMap(A) leaves the map as it was."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.6)
    A, scribble = _caller_input(kind, dense)
    sparse = kind in ("csr-unsorted", "coo")
    if sparse:
        given = (A.indptr, A.indices, A.data) if kind == "csr-unsorted" else (*A.coords, A.data)
        caller_arrays = [arr.copy() for arr in given]
    K = LinearMap(A)
    want = LinearMap(sp.csr_array(dense) if sparse else dense.copy())

    if sparse:  # neither the sort nor the transposed copy writes to the caller's arrays
        assert all(arr.tobytes() == old.tobytes() for arr, old in zip(given, caller_arrays))
    # a CSR map also stores K^T's CSR arrays, built from its own
    stored = (*K._mat[:3], *K._adj[:3]) if sparse else (K._mat,)
    assert not any(arr.flags.writeable for arr in stored)
    if kind == "handed-over":
        assert np.shares_memory(K._mat, A)
    elif kind == "aligned-handed-over":
        assert np.shares_memory(K._mat, A) and not A.base.flags.writeable
    elif not sparse:  # copied into a 64-byte-aligned buffer
        assert not np.shares_memory(K._mat, A) and K._mat.ctypes.data % 64 == 0

    scribble()
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    assert K.apply(x).tobytes() == want.apply(x).tobytes()
    assert K.apply_adjoint(y).tobytes() == want.apply_adjoint(y).tobytes()
    assert K.norm() == want.norm()


@pytest.mark.parametrize("sparse", [False, True])
def test_columns_are_the_dense_columns(sparse):
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((6, 9)) * (rng.random((6, 9)) < 0.5)
    K = LinearMap(sp.csr_array(mat) if sparse else mat)
    index = np.array([7, 0, 3])
    cols = K.columns(index)
    assert isinstance(cols, np.ndarray) and cols.shape == (6, 3)
    assert np.array_equal(cols, mat[:, index])


# -- 64-byte-aligned dense storage ---------------------------------------------
# A 200x400 K x plus K^T y pair takes about half again as long with K's data
# at 16 or 48 mod 64 as at 0 (one BLAS thread; BENCH_matvec.json), so every dense
# map LinearMap copies and every one the library hands over starts on a
# 64-byte boundary.


def _is_aligned(K: LinearMap) -> bool:
    return K._mat.ctypes.data % 64 == 0 and K._mat.flags.c_contiguous


@pytest.mark.parametrize("m, n", [(1, 1), (3, 5), (7, 3), (33, 17), (200, 400)])
def test_generate_l1ls_hands_over_an_aligned_k(m, n):
    for seed in (0, 101):
        K = generate_l1ls(m, n, 0.1, seed).problem.K
        assert _is_aligned(K)
        assert not K._mat.flags.owndata and not K._mat.base.flags.writeable


def test_array_format_reads_are_aligned(tmp_path):
    rng = np.random.default_rng(29)
    for m, n in [(1, 1), (3, 5), (7, 3), (20, 9)]:
        A = rng.standard_normal((m, n))
        path = tmp_path / f"a{m}x{n}.mtx"
        write_matrix_market(LinearMap(A), path)
        K = read_matrix_market(path)
        assert _is_aligned(K) and np.array_equal(K.to_dense(), A)


@pytest.mark.parametrize("kind", ["list", "int", "f-order", "non-owning-slice"])
def test_copied_dense_inputs_are_aligned(kind):
    rng = np.random.default_rng(31)
    for m, n in [(1, 1), (3, 5), (7, 3), (16, 8)]:
        dense = rng.integers(-9, 10, (m, n)).astype(np.float64)
        given = {
            "list": lambda: dense.tolist(),
            "int": lambda: dense.astype(np.int64),
            "f-order": lambda: np.asfortranarray(dense),
            "non-owning-slice": lambda: np.vstack([np.zeros((1, n)), dense])[1:],
        }[kind]()
        K = LinearMap(given)
        assert _is_aligned(K) and np.array_equal(K.to_dense(), dense)


def test_a_view_of_a_read_only_buffer_of_another_dtype_is_copied():
    raw = np.zeros(4 * 6 * 8 + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    A = raw[start : start + 4 * 6 * 8].view(np.float64).reshape(4, 6)
    raw.flags.writeable = A.flags.writeable = False
    K = LinearMap(A)
    assert not np.shares_memory(K._mat, A) and _is_aligned(K)
