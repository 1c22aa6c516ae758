"""A reference for the sparse products: the jagged-diagonal sums of a
matrix's plan taken all at once, one gather and one multiply over every
entry, then the rows put back in place by a scatter through their ranking,
between the two scalings of a matrix that has them.  It shares the plan's
layout but none of the product's blocking, buffer or gather by rank, so
equal bytes show that blocking moved no rounding."""

from __future__ import annotations

import numpy as np

from fairspectral.sparse import CsrMatrix


def jagged_product(a: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """A @ x for a length-n vector, summed in the plan's order."""
    plan = a._plan
    x = np.asarray(x, dtype=np.float64)
    if a.scale is not None:
        x = x * a.scale
    prod = x[plan.col_idx]
    if plan.values is not None:
        prod = plan.values * prod
    sums = np.zeros(a.n)
    start = 0
    for r in plan.rows:
        sums[:r] += prod[start:start + r]
        start += r
    if plan.tail_starts.size:
        # The tail follows the diagonals; its first row starts it.
        tail_starts = plan.tail_starts - plan.tail_starts[0] + start
        sums[:tail_starts.size] += np.add.reduceat(prod, tail_starts)
    out = np.empty(a.n)
    out[np.argsort(-np.diff(a.row_ptr), kind="stable")] = sums
    return out if a.scale is None else out * a.scale

