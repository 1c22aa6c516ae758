"""Compressed sparse row storage for symmetric matrices.

The whole toolkit works on undirected graphs, so every matrix stored here is
symmetric by contract.  Only the operations the pipeline actually needs are
provided: matrix-vector and matrix-matrix products, densification for small
instances, and construction helpers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class CsrMatrix:
    """Symmetric sparse matrix in CSR layout.

    row_ptr has length n + 1, col_idx and values have length nnz.  Column
    indices are strictly increasing inside each row (checked here: matvec
    would sum a duplicate that to_dense overwrites).  Symmetry is a contract
    of the callers (both halves are stored explicitly).

    The products' row segments are planned here, once per matrix: the
    reduceat starts of the non-empty rows, and their mask, which is None
    when no row is empty.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray
    _starts: np.ndarray = field(init=False, repr=False, compare=False)
    _nonempty: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "row_ptr", np.ascontiguousarray(self.row_ptr, dtype=np.int64))
        object.__setattr__(self, "col_idx", np.ascontiguousarray(self.col_idx, dtype=np.int64))
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=np.float64))
        if self.row_ptr.shape != (self.n + 1,):
            raise ValueError("row_ptr must have length n + 1")
        if self.row_ptr[0] != 0 or self.row_ptr[-1] != self.col_idx.shape[0]:
            raise ValueError("row_ptr endpoints inconsistent with col_idx")
        counts = np.diff(self.row_ptr)
        if np.any(counts < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if self.col_idx.shape != self.values.shape:
            raise ValueError("col_idx and values must have equal length")
        if self.col_idx.size and (self.col_idx.min() < 0 or self.col_idx.max() >= self.n):
            raise ValueError("column index out of range")
        if np.any((np.diff(self.row_indices()) == 0) & (np.diff(self.col_idx) <= 0)):
            raise ValueError("column indices must be strictly increasing inside each row")
        nonempty = counts > 0
        object.__setattr__(self, "_starts", self.row_ptr[:-1][nonempty])
        object.__setattr__(self, "_nonempty", None if nonempty.all() else nonempty)
        for arr in (self.row_ptr, self.col_idx, self.values, self._starts, nonempty):
            arr.flags.writeable = False

    @property
    def nnz(self) -> int:
        return int(self.col_idx.shape[0])

    def row_indices(self) -> np.ndarray:
        """Row index of every stored entry, aligned with col_idx and values."""
        return np.repeat(np.arange(self.n), np.diff(self.row_ptr))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Return A @ x for a length-n vector x."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}, got {x.shape}")
        return _product(self, x)

    def matmat(self, x: np.ndarray) -> np.ndarray:
        """Return A @ X for an n-by-m dense matrix X."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n:
            raise ValueError(f"expected matrix with {self.n} rows, got {x.shape}")
        # One 1-D product per column, gathered from a contiguous copy: a
        # 2-D gather and reduceat move several times the memory for the
        # same sums.  The result equals column-wise matvec bit for bit.
        xt = np.ascontiguousarray(x.T)
        out = np.empty(x.shape)
        for c in range(x.shape[1]):
            out[:, c] = _product(self, xt[c])
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.row_indices(), self.col_idx] = self.values
        return out


def _product(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a checked length-n vector: gather, scale, segment-sum into
    rows.  reduceat cannot represent empty segments, so it sums only the
    non-empty rows; when some row is empty, their sums are scattered into
    zeros."""
    sums = np.add.reduceat(a.values * x[a.col_idx], a._starts)
    if a._nonempty is None:
        return sums
    out = np.zeros(a.n)
    out[a._nonempty] = sums
    return out


def csr_from_dense(a: np.ndarray, tol: float = 0.0) -> CsrMatrix:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    mask = np.abs(a) > tol
    counts = mask.sum(axis=1)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    rows, cols = np.nonzero(mask)
    return CsrMatrix(a.shape[0], row_ptr, cols, a[rows, cols])


def csr_from_edges(n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> CsrMatrix:
    """Build CSR from COO triplets.  Duplicate coordinates are summed."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    if rows.size and (rows.min() < 0 or rows.max() >= n):
        raise ValueError("row index out of range")
    # rows * n + cols orders in-range entries as (row, col) does; the sort
    # is stable, so duplicates are summed in input order.
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols, values = rows[order], cols[order], values[order]
    if rows.size:
        keep = np.concatenate([[True], (np.diff(rows) != 0) | (np.diff(cols) != 0)])
        group = np.cumsum(keep) - 1
        values = np.bincount(group, weights=values, minlength=int(group[-1]) + 1)
        rows, cols = rows[keep], cols[keep]
    counts = np.bincount(rows, minlength=n)
    row_ptr = np.concatenate([[0], np.cumsum(counts)])
    return CsrMatrix(n, row_ptr, cols, values)


def is_symmetric(a: CsrMatrix, tol: float = 0.0) -> bool:
    """A equals its transpose, values within tol.

    Storage is in (row, col) order, so a stable sort by column lists the
    transpose's entries in the same order; A is symmetric when that list
    matches storage entry for entry.
    """
    rows = a.row_indices()
    # The same permutation in the narrowest dtype that holds every column:
    # numpy's stable sort is a radix sort for integers of 16 bits or less.
    t = np.argsort(a.col_idx.astype(np.min_scalar_type(a.n - 1)), kind="stable")
    return (
        np.array_equal(a.col_idx[t], rows)
        and np.array_equal(rows[t], a.col_idx)
        and np.all(np.abs(a.values[t] - a.values) <= tol)
    )
