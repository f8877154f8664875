"""Operator, norm-estimation, and Matrix Market IO tests."""

import numpy as np
import pytest
import scipy.sparse as sp

from iapd.linalg import (
    NORM_SAFETY,
    DimensionMismatchError,
    LinearMap,
    MatrixMarketError,
    read_matrix_market,
    write_matrix_market,
)


def test_apply_identity():
    K = LinearMap.identity(2)
    assert np.array_equal(K.apply(np.array([3.0, -1.0])), np.array([3.0, -1.0]))


def test_apply_adjoint_small_dense():
    K = LinearMap(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(K.apply_adjoint(np.array([1.0, 1.0])), np.array([4.0, 6.0]))


def test_apply_dimension_mismatch():
    K = LinearMap.zeros(3, 2)
    with pytest.raises(DimensionMismatchError):
        K.apply(np.zeros(3))
    with pytest.raises(DimensionMismatchError):
        K.apply_adjoint(np.zeros(2))


def test_rejects_nonfinite_matrix():
    with pytest.raises(ValueError):
        LinearMap(np.array([[1.0, np.nan]]))


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
    est = LinearMap.identity(5).norm()
    assert est == pytest.approx(NORM_SAFETY)
    assert 1.0 <= est <= 1.002


def test_norm_diagonal():
    K = LinearMap(np.diag([3.0, 1.0]))
    assert K.norm() == pytest.approx(3.0 * NORM_SAFETY, rel=1e-9)


def test_norm_zero_map():
    assert LinearMap.zeros(4, 6).norm() == 0.0


def test_norm_matches_svd():
    rng = np.random.default_rng(7)
    for _ in range(5):
        A = rng.standard_normal((40, 60))
        K = LinearMap(A)
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        assert abs(K.norm() / NORM_SAFETY - sigma) <= 1e-4 * sigma


def test_norm_is_cached_and_deterministic():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((12, 9))
    K1, K2 = LinearMap(A), LinearMap(A.copy())
    assert K1.norm() == K1.norm() == K2.norm()


def test_from_coo_and_triples_sorted():
    K = LinearMap.from_coo(3, 3, [2, 0, 0], [0, 2, 1], [5.0, 7.0, 9.0])
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
