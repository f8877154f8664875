"""Dense/sparse linear operators, operator-norm estimation, Matrix Market IO."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DimensionMismatchError",
    "MatrixMarketError",
    "LinearMap",
    "read_matrix_market",
    "write_matrix_market",
    "NORM_SAFETY",
]

# Multiplied onto the converged power-iteration estimate so that strict
# step-size inequalities checked with the estimate remain valid for the
# true spectral norm.
NORM_SAFETY = 1.001


class DimensionMismatchError(ValueError):
    """Operator applied to a vector of the wrong length."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market file; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"{message} (line {line})"
        super().__init__(message)
        self.line = line


class LinearMap:
    """Immutable m-by-n linear operator with adjoint and cached norm estimate.

    Storage is either a dense row-major float64 array or CSR (via
    scipy.sparse) with sorted column indices. The adjoint is a transposed
    view of the same storage (CSC for a CSR map), built once here rather
    than on every product. The operator-norm estimate is computed once by
    deterministic power iteration and cached.
    """

    def __init__(self, matrix):
        if sp.issparse(matrix):
            mat = sp.csr_array(matrix, dtype=np.float64)
            mat.sort_indices()
            if mat.nnz and not np.all(np.isfinite(mat.data)):
                raise ValueError("matrix contains non-finite entries")
            self._sparse = True
        else:
            mat = np.ascontiguousarray(matrix, dtype=np.float64)
            if mat.ndim != 2:
                raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix contains non-finite entries")
            self._sparse = False
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("matrix dimensions must be >= 1")
        self._mat = mat
        self._adj = mat.T
        self._cached_norm: float | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "LinearMap":
        return cls(np.zeros((rows, cols)))

    @classmethod
    def from_coo(cls, rows: int, cols: int, ii, jj, vv) -> "LinearMap":
        coo = sp.coo_array(
            (np.asarray(vv, dtype=np.float64), (np.asarray(ii), np.asarray(jj))),
            shape=(rows, cols),
        )
        return cls(coo.tocsr())

    # -- basic queries -----------------------------------------------------

    @property
    def rows(self) -> int:
        return self._mat.shape[0]

    @property
    def cols(self) -> int:
        return self._mat.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self._mat.shape

    @property
    def is_sparse(self) -> bool:
        return self._sparse

    def to_dense(self) -> np.ndarray:
        if self._sparse:
            return self._mat.toarray()
        return self._mat.copy()

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored (row, col, value) triples sorted by (row, col); sparse only."""
        if not self._sparse:
            raise ValueError("triples() is only defined for sparse maps")
        coo = self._mat.tocoo()
        order = np.lexsort((coo.col, coo.row))
        return coo.row[order], coo.col[order], coo.data[order]

    # -- operator action ---------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward product K x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise DimensionMismatchError(
                f"apply expects length {self.cols}, got shape {x.shape}"
            )
        return np.asarray(self._mat @ x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose product K^T y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.rows,):
            raise DimensionMismatchError(
                f"apply_adjoint expects length {self.rows}, got shape {y.shape}"
            )
        return np.asarray(self._adj @ y)

    # -- norm estimation ---------------------------------------------------

    def norm(self, tol: float = 1e-10, max_iters: int = 50_000) -> float:
        """Safety-factored spectral-norm estimate via power iteration on K^T K.

        Starts from the normalized all-ones vector (no RNG, so repeated
        calls are deterministic) and caches the result on first use.
        """
        if self._cached_norm is not None:
            return self._cached_norm
        if tol <= 0:
            raise ValueError("tol must be positive")
        if max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        q = np.full(self.cols, 1.0 / np.sqrt(self.cols))
        sigma = 0.0
        for _ in range(max_iters):
            w = self.apply_adjoint(self.apply(q))
            wnorm = float(np.linalg.norm(w))
            if wnorm == 0.0:
                sigma = 0.0
                break
            sigma_new = float(np.sqrt(wnorm))
            q = w / wnorm
            if abs(sigma_new - sigma) <= tol * max(sigma_new, 1.0):
                sigma = sigma_new
                break
            sigma = sigma_new
        self._cached_norm = sigma * NORM_SAFETY
        return self._cached_norm


# -- Matrix Market IO ------------------------------------------------------

_MM_BANNER = "%%matrixmarket"


def _parse_real(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise MatrixMarketError(f"expected a real number, got {token!r}", lineno)


def read_matrix_market(path) -> LinearMap:
    """Read a real general Matrix Market file (coordinate or array format).

    Coordinate files yield a sparse map, array files a dense map.
    One-based indices are converted to zero-based. Parse failures raise
    :class:`MatrixMarketError` naming the line.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixMarketError("empty file", 1)

    header = lines[0].split()
    if (
        len(header) != 5
        or header[0].lower() != _MM_BANNER
        or header[1].lower() != "matrix"
        or header[2].lower() not in ("coordinate", "array")
        or header[3].lower() != "real"
        or header[4].lower() != "general"
    ):
        raise MatrixMarketError(f"malformed header {lines[0]!r}", 1)
    fmt = header[2].lower()

    # Skip comments and blank lines to the size line.
    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise MatrixMarketError("missing size line", len(lines))

    size = lines[idx].split()
    want = 3 if fmt == "coordinate" else 2
    if len(size) != want:
        raise MatrixMarketError(f"size line must have {want} fields", idx + 1)
    try:
        dims = [int(tok) for tok in size]
    except ValueError:
        raise MatrixMarketError(f"non-integer size field in {lines[idx]!r}", idx + 1)
    if dims[0] < 1 or dims[1] < 1 or (fmt == "coordinate" and dims[2] < 0):
        raise MatrixMarketError("invalid dimensions", idx + 1)
    m, n = dims[0], dims[1]
    idx += 1

    data_lines = []
    for lineno0 in range(idx, len(lines)):
        stripped = lines[lineno0].strip()
        if not stripped or stripped.startswith("%"):
            continue
        data_lines.append((lineno0 + 1, stripped))

    if fmt == "coordinate":
        nnz = dims[2]
        if len(data_lines) != nnz:
            raise MatrixMarketError(
                f"expected {nnz} entries, found {len(data_lines)}", len(lines)
            )
        ii = np.empty(nnz, dtype=np.int64)
        jj = np.empty(nnz, dtype=np.int64)
        vv = np.empty(nnz, dtype=np.float64)
        for k, (lineno, text) in enumerate(data_lines):
            parts = text.split()
            if len(parts) != 3:
                raise MatrixMarketError("coordinate entry must be 'i j value'", lineno)
            try:
                i, j = int(parts[0]), int(parts[1])
            except ValueError:
                raise MatrixMarketError(f"non-integer index in {text!r}", lineno)
            if not (1 <= i <= m and 1 <= j <= n):
                raise MatrixMarketError(f"index ({i}, {j}) out of range", lineno)
            ii[k], jj[k] = i - 1, j - 1
            vv[k] = _parse_real(parts[2], lineno)
        return LinearMap.from_coo(m, n, ii, jj, vv)

    values = []
    for lineno, text in data_lines:
        for tok in text.split():
            values.append(_parse_real(tok, lineno))
    if len(values) != m * n:
        raise MatrixMarketError(
            f"expected {m * n} array values, found {len(values)}", len(lines)
        )
    # Array format is column-major.
    dense = np.asarray(values, dtype=np.float64).reshape((n, m)).T
    return LinearMap(dense)


def write_matrix_market(mapping: LinearMap, path) -> None:
    """Write canonical Matrix Market: coordinate for sparse, array for dense.

    Sparse entries are sorted by (row, col); values carry 17 significant
    digits so a round trip is bit exact.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if mapping.is_sparse:
            ii, jj, vv = mapping.triples()
            fh.write("%%MatrixMarket matrix coordinate real general\n")
            fh.write(f"{mapping.rows} {mapping.cols} {len(vv)}\n")
            for i, j, v in zip(ii, jj, vv):
                fh.write(f"{i + 1} {j + 1} {v:.16e}\n")
        else:
            dense = mapping.to_dense()
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{mapping.rows} {mapping.cols}\n")
            for j in range(mapping.cols):
                for i in range(mapping.rows):
                    fh.write(f"{dense[i, j]:.16e}\n")
