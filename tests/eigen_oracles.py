"""A reference for the dense solver's tridiagonal stage: Cuppen's divide
and conquer as a recursion that solves each leaf as soon as it reaches it,
one leaf per inverse-iteration call.  It shares the leaves' QL values and
the merges with fairspectral.eigen but none of the up-front partition or the
batched inverse iteration, so equal bytes show that batching the leaves moved
no rounding."""

from __future__ import annotations

import numpy as np

from fairspectral.eigen import _BLOCK, _merge, _tridiagonal_eigenvalues


def tridiagonal_eigenvectors(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Eigenvectors (columns) of the tridiagonal matrix (d, e[1:]) for the
    ascending eigenvalues w, by inverse iteration on all shifts at once.

    Positions are rows, so each recurrence step is one contiguous row over
    all shifts.  T is scaled to unit infinity norm, then T - w_j I is
    factored once without pivoting; pivots below eps are raised to eps with
    their sign.  Three solves run from a fixed-seed random start; each is
    followed by normalizing the columns and a QR of every cluster: a run of
    eigenvalues with consecutive gaps at most 1e-3 (LAPACK dstein's rule).
    """
    n, m = d.shape[0], w.shape[0]
    # e[0] == 0, so row i of T has |e[i]| + |d[i]| + |e[i + 1]|.
    tnorm = float(np.max(np.abs(d) + np.abs(e) + np.abs(np.append(e[1:], 0.0))))
    if tnorm > 0.0:
        d, e, w = d / tnorm, e / tnorm, w / tnorm
    eps = np.finfo(np.float64).eps
    # inv_u holds 1 / U's diagonal; L's subdiagonal is e[i] * inv_u[i - 1].
    inv_u = np.empty((n, m))
    row = np.empty(m)
    for i in range(n):
        np.subtract(d[i], w, out=row)
        if i > 0:
            row -= inv_u[i - 1] * e[i] * e[i]
        np.copysign(np.maximum(np.abs(row), eps), row, out=row)
        np.divide(1.0, row, out=inv_u[i])

    cuts = (np.flatnonzero(np.diff(w) > 1e-3) + 1).tolist()
    clusters = [(a, b) for a, b in zip([0] + cuts, cuts + [m]) if b - a > 1]
    y = np.random.default_rng(0).standard_normal((n, m))
    for _ in range(3):
        for i in range(1, n):
            np.multiply(inv_u[i - 1], e[i], out=row)
            row *= y[i - 1]
            np.subtract(y[i], row, out=y[i])
        y[n - 1] *= inv_u[n - 1]
        for i in range(n - 2, -1, -1):
            np.multiply(y[i + 1], e[i + 1], out=row)
            np.subtract(y[i], row, out=y[i])
            np.multiply(y[i], inv_u[i], out=y[i])
        y /= np.sqrt(np.einsum("ij,ij->j", y, y))  # no n-by-m temporary
        for a, b in clusters:
            y[:, a:b] = np.linalg.qr(y[:, a:b])[0]
    return y


def tridiagonal_eig(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (vectors as columns) of the tridiagonal (d, e[1:]), e[0] == 0,
    by Cuppen's divide and conquer (Numer. Math. 36, 1981; LAPACK dstedc).
    Leaves of up to _BLOCK rows: QL values (ascending), inverse iteration.
    Above, T is its halves at row m = n // 2, less |e[m]| where they touch,
    plus a rank-one term; the halves recurse and _merge joins them.
    """
    n = d.shape[0]
    if n <= _BLOCK:
        w = np.sort(_tridiagonal_eigenvalues(d, e))
        return w, tridiagonal_eigenvectors(d, e, w)
    m, beta = n // 2, float(e[n // 2])
    d = d.copy()
    d[m - 1 : m + 1] -= abs(beta)
    w1, q1 = tridiagonal_eig(d[:m], e[:m])
    w2, q2 = tridiagonal_eig(d[m:], np.append(0.0, e[m + 1 :]))
    return _merge(w1, q1, w2, q2, beta)
