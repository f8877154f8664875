"""Dense/sparse linear operators, operator-norm estimation, Matrix Market IO.

No path of this module imports the scipy.sparse package. A coordinate-format
file and the nnls generator build a CSR map from triples with numpy, and a
CSR map loads only scipy's compiled matrix-vector extension, so neither a
dense nor a sparse run pays the time and resident memory of the package's
import chain. Only a caller's scipy sparse input, which cannot exist before
that package is loaded, goes through it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
import warnings
from functools import cache, partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "MatrixMarketError",
    "LinearMap",
    "read_matrix_market",
    "write_matrix_market",
    "NORM_SAFETY",
]

# Multiplied onto the top Ritz value's square root, a lower bound of ||K||
# that agrees with it to about 1e-12, so that strict step-size inequalities
# checked with the estimate remain valid for the true spectral norm.
NORM_SAFETY = 1.001


class DimensionMismatchError(ValueError):
    """Operator applied to a vector of the wrong length."""


class MatrixMarketError(ValueError):
    """Malformed Matrix Market file; names the file and carries the offending line number."""

    def __init__(self, message: str, line: int | None = None, path=None):
        if line is not None:
            message = f"{message} (line {line})"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class _CSR(NamedTuple):
    """CSR arrays of an m-by-n matrix with sorted column indices."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]


def _csr_from_triples(rows, cols, vals, shape) -> _CSR:
    """Fresh CSR arrays of zero-based (row, col, value) triples, in (row, col) order.

    The values at one (row, col) are summed in the order given, from the
    first, as scipy sums them; explicit zeros are kept. One stable sort puts
    triples in order; those already in order, as every file
    ``write_matrix_market`` writes, skip it. Indices are int32 when every
    index and the entry count fit.
    """
    m, n = shape
    key = np.multiply(rows, n, dtype=np.int64) + cols  # the position in row-major order
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key, kind="stable")
        key, vals = key[order], vals[order]
    first = np.ones(key.size, dtype=bool)
    np.not_equal(key[1:], key[:-1], out=first[1:])
    if not first.all():
        vals, later = vals[first], vals[~first]
        with np.errstate(over="ignore"):  # LinearMap refuses a sum past the largest double
            np.add.at(vals, np.cumsum(first)[~first] - 1, later)
        key = key[first]
    index = np.int32 if max(m, n, key.size) <= np.iinfo(np.int32).max else np.int64
    indptr = np.zeros(m + 1, dtype=index)
    np.cumsum(np.bincount(key // n, minlength=m), out=indptr[1:])
    return _CSR(indptr, (key % n).astype(index), np.array(vals, dtype=np.float64), (m, n))


@cache
def _matvec_kernels():
    """scipy's compiled ``csr_matvec`` and ``csr_tocsc``, without the scipy.sparse package.

    The package's import chain (scipy._lib._util, array_api_compat) costs
    about 15 MB of resident memory and 0.14 s; the extension beside its
    __init__.py loads alone. An extension already imported is reused.
    """
    name = "scipy.sparse._sparsetools"
    module = sys.modules.get(name)
    if module is None:
        package = Path(importlib.util.find_spec("scipy").origin).parent / "sparse"
        spec = importlib.machinery.FileFinder(str(package), (
            importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES,
        )).find_spec(name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        # A single-phase extension registers itself on loading, without its
        # package; unregistered, a later import of scipy.sparse loads it again
        # and binds it as the package's attribute.
        sys.modules.pop(name, None)
    return module.csr_matvec, module.csr_tocsc


def _aligned_empty(m: int, n: int) -> np.ndarray:
    """An uninitialized C-contiguous float64 (m, n) array whose data starts on a 64-byte
    boundary: a view into a buffer (its ``base``) 64 bytes longer than the array."""
    buffer = np.empty(m * n + 8)
    start = -buffer.ctypes.data % 64 // 8
    return buffer[start : start + m * n].reshape(m, n)


class LinearMap:
    """Immutable m-by-n linear operator with adjoint and cached norm estimate.

    Storage is either a dense row-major float64 array or CSR arrays with
    sorted column indices (``_CSR``). The map owns what it stores and sets
    every stored array read-only, so no later write by the caller can change
    the operator behind its finiteness check and its cached norm. A scipy
    sparse input is copied through ``scipy.sparse.csr_array``, stored
    duplicates included; ``read_matrix_market`` and ``generate_nnls`` hand
    over fresh CSR arrays built from triples. A dense input is kept without
    a copy only when it is a read-only C-contiguous float64 ndarray that
    owns its data, or a view into a read-only float64 ndarray that does
    (``generate_l1ls`` hands over such a view of an ``_aligned_empty``
    buffer): the caller hands it over. A read-only view of a writable
    buffer is copied, since the caller could still write through the
    buffer. Any other dense input is copied into an ``_aligned_empty``
    array, whose data start on a 64-byte boundary: with one BLAS thread a
    200x400 K x plus K^T y pair takes 17-18 us with K there and 26-28 us
    with K 16 or 48 bytes past one, whatever the alignment of x and y
    (``scripts/bench_matvec.py``). A dense map multiplies by the array and
    by its transposed view, built once here. A CSR map also holds K^T's
    CSR arrays (K's CSC storage), a read-only copy built once here by
    scipy's compiled ``csr_tocsc``: 12 bytes per stored entry with int32
    indices (16 with int64), plus an (n + 1)-long pointer. It calls scipy's
    compiled ``csr_matvec`` on its own arrays for K x and on the copy for
    K^T y, a row-wise gather: the kernel alone takes about 5 us where
    scipy's scatter ``csc_matvec`` over K's arrays takes about 6.6
    (nnls-sparse's 400x200 K of 7970 entries). The products are byte for byte
    those of ``mat @ x`` and ``mat.T @ y`` for scipy's CSR array of the
    same arrays, except that a NaN of K^T y may carry the other sign bit
    where a sum meets two NaNs (y's own and one made by inf * 0 or
    inf - inf), as the two kernels order the operands of an addition
    oppositely. The kernels are loaded from their extension module alone
    (``_matvec_kernels``), and a scipy sparse input is recognized without
    importing scipy.sparse. ``triples`` reads K's CSR arrays, and ``columns``
    and ``to_dense`` gather from K^T's. The operator-norm estimate is computed
    once by deterministic Lanczos and cached.
    """

    def __init__(self, matrix):
        # A scipy sparse object cannot exist unless scipy.sparse is loaded.
        sp = sys.modules.get("scipy.sparse")
        if sp is not None and sp.issparse(matrix):
            csr = sp.csr_array(matrix, dtype=np.float64, copy=True)
            csr.sort_indices()
            matrix = _CSR(csr.indptr, csr.indices, csr.data, csr.shape)
        if isinstance(matrix, _CSR):
            mat = matrix
            if not np.all(np.isfinite(mat.data)):
                raise ValueError("matrix contains non-finite entries")
            self._sparse = True
            stored = mat[:3]
        else:
            mat = np.asarray(matrix, dtype=np.float64)
            if mat.ndim != 2:
                raise ValueError(f"expected a 2-D matrix, got shape {mat.shape}")
            # Kept if handed over (its buffer read-only too); else copied into an aligned array.
            owner = mat if mat.flags.owndata else mat.base
            if not (mat is matrix and mat.flags.c_contiguous and not mat.flags.writeable
                    and type(owner) is np.ndarray and owner.dtype == np.float64
                    and owner.flags.owndata and not owner.flags.writeable):
                mat, given = _aligned_empty(*mat.shape), mat
                np.copyto(mat, given)
            stored = (mat,)
            if not np.all(np.isfinite(mat)):
                raise ValueError("matrix contains non-finite entries")
            self._sparse = False
        if mat.shape[0] < 1 or mat.shape[1] < 1:
            raise ValueError("matrix dimensions must be >= 1")
        for arr in stored:
            arr.flags.writeable = False
        self._mat = mat
        if self._sparse:
            # scipy's compiled CSR matrix-vector kernel. A product ``mat @ x`` of a
            # CSR array and a 1-D float64 x ends in exactly
            # ``csr_matvec(m, n, indptr, indices, data, x, np.zeros(m))``, in
            # scipy.sparse._compressed._cs_matrix._matmul_vector; calling the
            # kernel directly skips the ~4 us of Python dispatch in front of it.
            csr_matvec, csr_tocsc = _matvec_kernels()
            m, n = mat.shape
            # K^T's CSR arrays (K's CSC storage), built once by scipy's stable
            # counting sort: each column keeps its entries in row order, duplicates
            # included, so the gather over them adds the terms that scipy's scatter
            # ``csc_matvec`` over K's arrays (``mat.T @ y``) adds, in its order, from 0.0.
            nnz = int(mat.indptr[-1])
            adj = _CSR(np.empty(n + 1, mat.indices.dtype), np.empty(nnz, mat.indices.dtype),
                       np.empty(nnz), (n, m))
            csr_tocsc(m, n, *stored, *adj[:3])
            for arr in adj[:3]:
                arr.flags.writeable = False
            self._forward = partial(csr_matvec, m, n, *stored)
            self._backward = partial(csr_matvec, n, m, *adj[:3])
            self._adj = adj
        else:
            self._adj = mat.T
        self._cached_norm: float | None = None

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
            return self.columns(np.arange(self.cols))
        return self._mat.copy()

    def triples(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stored (row, col, value) triples sorted by (row, col); sparse only.

        The columns and values are the stored read-only arrays.
        """
        if not self._sparse:
            raise ValueError("triples() is only defined for sparse maps")
        indptr, indices, data, _ = self._mat
        return np.repeat(np.arange(self.rows, dtype=indices.dtype), np.diff(indptr)), indices, data

    def columns(self, index: np.ndarray) -> np.ndarray:
        """The columns K[:, index] as a dense m-by-len(index) array.

        A CSR map gathers row j of K^T's arrays for each requested j, after
        wrapping and bounds-checking ``index`` as numpy indexing does, and adds
        each value to zero at its cell in row order, as scipy's ``toarray``
        does (so a stored -0.0 reads as 0.0).
        """
        if not self._sparse:
            return self._mat[:, index]
        index = np.arange(self.cols)[index]
        indptr, rows, vals, _ = self._adj
        start = indptr[index]
        count = indptr[index + 1] - start
        column = np.repeat(np.arange(index.size), count)
        # each gathered entry's position in K^T's arrays: its row's start plus its rank there
        at = np.repeat(start - np.cumsum(count) + count, count) + np.arange(column.size)
        out = np.zeros((self.rows, index.size))
        np.add.at(out, (rows[at], column), vals[at])
        return out

    # -- operator action ---------------------------------------------------

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward product K x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise DimensionMismatchError(
                f"apply expects length {self.cols}, got shape {x.shape}"
            )
        if self._sparse:
            out = np.zeros(self.rows)
            self._forward(x, out)
            return out
        return np.asarray(self._mat @ x)

    def apply_adjoint(self, y: np.ndarray) -> np.ndarray:
        """Transpose product K^T y."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.rows,):
            raise DimensionMismatchError(
                f"apply_adjoint expects length {self.rows}, got shape {y.shape}"
            )
        if self._sparse:
            out = np.zeros(self.cols)
            self._backward(y, out)
            return out
        return np.asarray(self._adj @ y)

    # -- norm estimation ---------------------------------------------------

    def norm(self) -> float:
        """Safety-factored spectral-norm estimate via Lanczos.

        Lanczos runs on the smaller of K^T K and K K^T, whose largest
        eigenvalue is ||K||^2 either way, so the Krylov basis holds one
        vector of length min(m, n) per step. It reorthogonalizes fully and
        starts from a fixed generic vector, the normalized ``default_rng(0)``
        Gaussian: repeated calls are deterministic, no global RNG state is
        touched, and, unlike the all-ones vector for a difference operator,
        the start is not orthogonal to the top singular vector of a
        structured K. Every fourth step the top eigenpair (theta, s) of the
        tridiagonal T is computed, and the iteration stops once the residual
        bound beta_j |s_j| is at most 1e-12 theta. A breakdown (beta_j = 0,
        as for K = 0) and an exhausted Krylov space stop it too. theta is a
        Ritz value, so up to rounding it never exceeds ||K||^2. The result,
        sqrt(theta) * NORM_SAFETY, is cached on first use.
        """
        if self._cached_norm is not None:
            return self._cached_norm
        if self.rows < self.cols:
            first, second, n = self.apply_adjoint, self.apply, self.rows
        else:
            first, second, n = self.apply, self.apply_adjoint, self.cols
        tol = 1e-12
        q = np.random.default_rng(0).standard_normal(n)
        basis = np.empty((min(n, 16), n))  # orthonormal Krylov rows, grown by doubling
        basis[0] = q / np.linalg.norm(q)
        diag, off = [], []
        for j in range(n):
            u = first(basis[j])
            w = second(u)
            diag.append(float(u @ u))
            Q = basis[: j + 1]
            for _ in range(2):  # classical Gram-Schmidt, twice
                w -= Q.T @ (Q @ w)
            beta = float(np.linalg.norm(w))
            if (j + 1) % 4 == 0 or j + 1 == n or beta <= tol * max(diag):
                # eigh reads only the lower triangle of T.
                evals, evecs = np.linalg.eigh(np.diag(diag) + np.diag(off, -1))
                theta = float(evals[-1])
                if j + 1 == n or beta * abs(evecs[-1, -1]) <= tol * theta:
                    break
            if j + 1 == len(basis):
                # Rows of np.empty that are never written take no resident memory.
                grown = np.empty((min(2 * (j + 1), n), n))
                grown[: j + 1] = basis
                basis = grown
            basis[j + 1] = w / beta
            off.append(beta)
        self._cached_norm = float(np.sqrt(max(theta, 0.0))) * NORM_SAFETY
        return self._cached_norm


# -- Matrix Market IO ------------------------------------------------------

_MM_BANNER = "%%matrixmarket"
# One coordinate entry: one-based row and column, and the value.
_MM_ENTRY = np.dtype([("i", np.int64), ("j", np.int64), ("v", np.float64)])


def read_matrix_market(path) -> LinearMap:
    """Read a real general Matrix Market file (coordinate or array format).

    Coordinate files yield a sparse map, array files a dense map.
    One-based indices are converted to zero-based. The accepted grammar:

    - line 1 is ``%%MatrixMarket matrix coordinate|array real general``,
      in any letter case;
    - after it, a line whose first non-blank character is ``%`` is a
      comment, and comment and blank lines may stand anywhere;
    - the size line is ``m n nnz`` (coordinate) or ``m n`` (array), each
      field an index as below, with m, n >= 1 and m n and 8 (max(m, n) + 1)
      below 2**63;
    - a coordinate entry is one line ``i j value`` with 1 <= i <= m and
      1 <= j <= n; array values come in column-major order, and every
      data line holds the same number of values;
    - fields are separated by whitespace. An index is ASCII digits with
      an optional sign. A value is a finite real number as ``float()``
      reads it, in ASCII and without ``_``. A ``%`` after an entry is an
      error, not a comment.

    The data lines are parsed in one C pass by ``np.loadtxt``; the range
    and finiteness of what it read are checked on the arrays. Only when
    the parse or a check fails are the lines checked one by one, in file
    order, to name the first faulty line. Parse failures raise
    :class:`MatrixMarketError` naming the file and the line. Duplicate
    coordinate entries are summed in file order; a sum that is not finite
    raises it naming the file only.
    """

    def fail(message: str, line: int | None = None) -> MatrixMarketError:
        return MatrixMarketError(message, line, path)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as err:
        raise fail(f"not UTF-8 text ({err.reason} at byte {err.start})") from None
    if not lines:
        raise fail("empty file", 1)

    header = lines[0].split()
    if (
        len(header) != 5
        or header[0].lower() != _MM_BANNER
        or header[1].lower() != "matrix"
        or header[2].lower() not in ("coordinate", "array")
        or header[3].lower() != "real"
        or header[4].lower() != "general"
    ):
        raise fail(f"malformed header {lines[0]!r}", 1)
    fmt = header[2].lower()

    # Skip comments and blank lines to the size line.
    idx = 1
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("%")):
        idx += 1
    if idx >= len(lines):
        raise fail("missing size line", len(lines))

    def number(parse, token: str):
        # int() and float() also read '1_0' and non-ASCII digits, which loadtxt refuses.
        if not token.isascii() or "_" in token:
            raise ValueError(token)
        return parse(token)

    size = lines[idx].split()
    want = 3 if fmt == "coordinate" else 2
    if len(size) != want:
        raise fail(f"size line must have {want} fields", idx + 1)
    try:
        dims = [number(int, tok) for tok in size]
    except ValueError:
        raise fail(f"non-integer size field in {lines[idx]!r}", idx + 1) from None
    # int64 must hold m n, which bounds the row-major cell keys, and the bytes of
    # a CSR map's (m + 1)-long row pointer and (n + 1)-long column pointer
    if (dims[0] < 1 or dims[1] < 1 or (fmt == "coordinate" and dims[2] < 0)
            or max(dims[0] * dims[1], 8 * (max(dims[0], dims[1]) + 1)) >= 2**63):
        raise fail("invalid dimensions", idx + 1)
    m, n = dims[0], dims[1]
    idx += 1

    def locate_fault():
        """Raise at the first faulty data line; runs only after the parse or a check failed."""
        width = None
        for lineno0 in range(idx, len(lines)):
            text = lines[lineno0].strip()
            if not text or text.startswith("%"):
                continue
            lineno, parts = lineno0 + 1, text.split()
            if fmt == "array":
                width = width or len(parts)
                if len(parts) != width:
                    raise fail("array lines must hold the same number of values: "
                               f"{width} on the first, {len(parts)} here", lineno)
                tokens = parts
            elif len(parts) != 3:
                raise fail("coordinate entry must be 'i j value'", lineno)
            else:
                try:
                    i, j = number(int, parts[0]), number(int, parts[1])
                except ValueError:
                    raise fail(f"non-integer index in {text!r}", lineno) from None
                if not (1 <= i <= m and 1 <= j <= n):
                    raise fail(f"index ({i}, {j}) out of range", lineno)
                tokens = parts[2:]
            for token in tokens:
                try:
                    value = number(float, token)
                except ValueError:
                    raise fail(f"expected a real number, got {token!r}", lineno) from None
                if not math.isfinite(value):
                    raise fail(f"expected a finite real number, got {token!r}", lineno)
        raise fail("data lines numpy.loadtxt cannot parse")

    # Comment and blank lines go here, so that loadtxt runs with comments=None
    # and a '%' after an entry stays an error.
    data = [t for t in map(str.strip, lines[idx:]) if t and t[0] != "%"]
    if fmt == "coordinate" and len(data) != dims[2]:
        raise fail(f"expected {dims[2]} entries, found {len(data)}", len(lines))
    dtype = _MM_ENTRY if fmt == "coordinate" else np.float64
    parsed = np.empty(0, dtype)
    if data:  # loadtxt warns "input contained no data" on none
        try:
            with warnings.catch_warnings():
                # Older numpy reads '1.0' into an integer field, with this warning.
                warnings.simplefilter("error", DeprecationWarning)
                parsed = np.loadtxt(data, dtype=dtype, comments=None, ndmin=1)
        except (ValueError, DeprecationWarning):
            locate_fault()

    if fmt == "coordinate":
        ii, jj, vv = parsed["i"], parsed["j"], parsed["v"]
        if not np.all((1 <= ii) & (ii <= m) & (1 <= jj) & (jj <= n) & np.isfinite(vv)):
            locate_fault()
        csr = _csr_from_triples(ii - 1, jj - 1, vv, (m, n))
        if not np.isfinite(csr.data).all():  # finite entries at one (i, j) add up past it
            raise fail("duplicate entries sum to a non-finite value")
        return LinearMap(csr)

    values = parsed.ravel()
    if not np.isfinite(values).all():
        locate_fault()
    if len(values) != m * n:
        raise fail(f"expected {m * n} array values, found {len(values)}", len(lines))
    # Array format is column-major.
    return LinearMap(values.reshape((n, m)).T)


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
            fh.writelines(f"{i + 1} {j + 1} {v:.16e}\n"
                          for i, j, v in zip(ii.tolist(), jj.tolist(), vv.tolist()))
        else:
            fh.write("%%MatrixMarket matrix array real general\n")
            fh.write(f"{mapping.rows} {mapping.cols}\n")
            fh.writelines(f"{v:.16e}\n" for v in mapping.to_dense().T.ravel().tolist())
