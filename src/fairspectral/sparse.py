"""Compressed sparse row storage for symmetric matrices.

The whole toolkit works on undirected graphs, so every matrix stored here is
symmetric by contract.  Only the operations the pipeline actually needs are
provided: matrix-vector and matrix-matrix products, densification for small
instances, and construction helpers.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class CsrMatrix:
    """Symmetric sparse matrix in CSR layout.

    row_ptr has length n + 1, col_idx and values have length nnz.  Column
    indices are strictly increasing inside each row (checked here: matvec
    would sum a duplicate that to_dense overwrites).  Symmetry is a contract
    of the callers (both halves are stored explicitly).

    Products sum by jagged diagonals (see _JaggedPlan), planned on the first
    product and kept on the matrix.  Each row's sum is its leading entries
    added left to right, then its remaining entries' reduceat sum, if the
    row has any.  A matrix of fewer than _MIN_ROWS rows is all remainder,
    one reduceat segment per non-empty row.  A product gathers and multiplies
    the entries a block of whole diagonals at a time, at most _BLOCK_ENTRIES
    (256 KB) unless one diagonal is longer, into one scratch buffer that
    every block reuses; a gather by rank then puts the sums in row order.
    The blocks move no rounding: each entry is multiplied once, and each
    row's adds come in the same order as in one pass over all entries.
    """

    n: int
    row_ptr: np.ndarray
    col_idx: np.ndarray
    values: np.ndarray

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
        for arr in (self.row_ptr, self.col_idx, self.values):
            arr.flags.writeable = False

    @functools.cached_property
    def _plan(self) -> _JaggedPlan:
        return _JaggedPlan.build(self.row_ptr, self.col_idx, self.values)

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
        # 2-D gather and sum move several times the memory for the same
        # sums.  The result equals column-wise matvec bit for bit.
        xt = np.ascontiguousarray(x.T)
        out = np.empty(x.shape)
        for c in range(x.shape[1]):
            out[:, c] = _product(self, xt[c])
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.row_indices(), self.col_idx] = self.values
        return out


# A diagonal is summed as one vector add only when at least this many rows
# reach it; the entries past the last such diagonal, in the few rows that
# have them, are summed by reduceat.  Without the bound a row of n - 1
# entries would cost n - 1 adds of mostly one element each.
_MIN_ROWS = 64

# Entries gathered and multiplied at a time: 256 KB of products, which stay
# in a core's L2 until the adds read them back.
_BLOCK_ENTRIES = 1 << 15


class _JaggedPlan(NamedTuple):
    """A CSR matrix's entries in jagged-diagonal order (Saad, 1989), bounded
    as SELL-C-sigma bounds its chunks.  Rows rank by decreasing entry count,
    ties in row order.  Diagonal j, entry j of every row longer than j, adds
    to the first rows[j] ranked sums; after the diagonals come the remaining
    entries of the rows still open, row by row: the tail.

    Blocks group whole consecutive diagonals, at most _BLOCK_ENTRIES entries
    unless one diagonal alone is longer.  The tail joins the last block when
    it fits and is a block of its own otherwise, so the tail_starts index
    the last block.  width is the largest block, the length of the scratch
    buffer that every block of a product reuses."""

    rank: np.ndarray  # rank of each row
    col_idx: np.ndarray  # diagonals, then the open rows' tails
    values: np.ndarray
    rows: tuple[int, ...]
    blocks: tuple[tuple[int, int, tuple[int, ...]], ...]  # entry start, stop, diagonals' rows
    tail_starts: np.ndarray  # reduceat starts of the tails in the last block
    width: int

    @classmethod
    def build(cls, row_ptr: np.ndarray, col_idx: np.ndarray, values: np.ndarray) -> _JaggedPlan:
        counts = np.diff(row_ptr)
        order = np.argsort(-counts, kind="stable")
        ranked = counts[order]
        depth = int(ranked[_MIN_ROWS - 1]) if ranked.size >= _MIN_ROWS else 0
        rows = np.searchsorted(-ranked, -np.arange(depth + 1))  # rows longer than 0, ..., depth
        first = row_ptr[order]
        tail = ranked[:rows[depth]] - depth
        tail_starts = np.cumsum(tail) - tail
        entries = np.concatenate([first[:r] + j for j, r in enumerate(rows[:depth])] + [
            np.arange(tail.sum()) + np.repeat(first[:tail.size] + depth - tail_starts, tail)])
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        # Greedy blocks over the diagonals, then the tail as one more piece.
        diagonals, tail_size = rows[:depth].tolist(), int(tail.sum())
        blocks, members, start, stop = [], [], 0, 0
        for size in diagonals + [tail_size] * (tail_size > 0):
            if members and stop + size - start > _BLOCK_ENTRIES:
                blocks.append((start, stop, members))
                members, start = [], stop
            members.append(size)
            stop += size
        if members:
            blocks.append((start, stop, members))
        if tail_size:
            start, stop, members = blocks[-1]
            blocks[-1] = (start, stop, members[:-1])
        return cls(rank, col_idx[entries], values[entries], tuple(diagonals),
                   tuple((a, b, tuple(m)) for a, b, m in blocks),
                   tail_starts + (stop - tail_size - start),
                   max((b - a for a, b, _ in blocks), default=0))


def _product(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a checked length-n vector, by the matrix's plan, one block
    at a time through one buffer.  Empty rows rank last, no diagonal or tail
    reaches them, and they keep their zero."""
    plan = a._plan
    buf = np.empty(plan.width)
    sums = np.zeros(a.n)
    for start, stop, rows in plan.blocks:
        # Indices were checked at construction, so "clip" never clips; it
        # lets take write straight into the buffer.
        prod = x.take(plan.col_idx[start:stop], out=buf[:stop - start], mode="clip")
        prod *= plan.values[start:stop]
        at = 0
        for r in rows:
            sums[:r] += prod[at:at + r]
            at += r
    if plan.tail_starts.size:
        sums[:plan.tail_starts.size] += np.add.reduceat(prod, plan.tail_starts)
    return sums.take(plan.rank)


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
