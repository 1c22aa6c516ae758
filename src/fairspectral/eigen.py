"""Symmetric eigensolvers: sparse top-K by magnitude, and a dense reference.

Two independent routes to the same quantities:

``top_k_eigenpairs``
    Lanczos iteration with full reorthogonalization and thick restarts.
    Builds a Krylov basis, projects, solves the small problem, keeps the
    best Ritz pairs plus the residual direction, and continues until the
    wanted pairs have residual norm below tolerance.  Intended for large
    sparse operators where only a few extremal pairs are needed.

``full_dense_eigendecomposition``
    Classical dense path, split as in LAPACK: blocked Householder reduction
    to tridiagonal form T = Q^T A Q, implicit-shift QL for the eigenvalues of
    T, inverse iteration on all shifts at once for the eigenvectors of T,
    and a compact-WY back-transform that applies Q without forming it.
    Quadratic storage, cubic time, all n pairs.  Serves as the reference
    the sparse route is checked against, and as the small-problem solver
    inside the Lanczos restarts.

Both routes order eigenpairs by decreasing |lambda|, breaking exact-magnitude
ties toward the positive eigenvalue, and canonicalize eigenvector signs so
that each column's entry of largest absolute value is non-negative (ties on
the magnitude broken by lowest row index).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix

DENSE_LIMIT_DEFAULT = 2000

_FSB_MAGIC = b"FSB1"

# Reflectors per panel in _tridiagonalize, the row count below which it runs
# unblocked, and reflectors per compact-WY group in _apply_q.
_BLOCK = 32


class EigenError(Exception):
    """Base class for eigensolver failures."""


class NoConvergenceError(EigenError):
    """Raised when the iteration budget is exhausted.

    Carries the best basis found so far in ``basis`` so callers can inspect
    residuals.
    """

    def __init__(self, message: str, basis: "SpectralBasis"):
        super().__init__(message)
        self.basis = basis


class DenseLimitError(EigenError):
    """Raised when a dense decomposition is requested above the size guard."""


@dataclass(frozen=True)
class SpectralBasis:
    """Top-K eigenpairs of a symmetric operator.

    eigenvalues: shape (K,), sorted by decreasing magnitude, exact-magnitude
    ties positive-first.  eigenvectors: shape (n, K), orthonormal columns in
    canonical sign.  residuals: shape (K,), the two-norms ||S p - lambda p||,
    or None for bases loaded from disk without their operator.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "eigenvalues", np.ascontiguousarray(self.eigenvalues, dtype=np.float64))
        object.__setattr__(self, "eigenvectors", np.ascontiguousarray(self.eigenvectors, dtype=np.float64))
        if self.eigenvectors.ndim != 2 or self.eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be a vector and eigenvectors a matrix")
        if self.eigenvectors.shape[1] != self.eigenvalues.shape[0]:
            raise ValueError("eigenvector count must match eigenvalue count")
        if self.residuals is not None:
            object.__setattr__(self, "residuals", np.ascontiguousarray(self.residuals, dtype=np.float64))
            if self.residuals.shape != self.eigenvalues.shape:
                raise ValueError("residuals must match eigenvalue count")

    @property
    def n(self) -> int:
        return int(self.eigenvectors.shape[0])

    @property
    def k(self) -> int:
        return int(self.eigenvalues.shape[0])


def canonical_sign(p: np.ndarray) -> np.ndarray:
    """Flip column signs so the entry of largest |value| is non-negative.

    np.argmax returns the first maximal position, which implements the
    lowest-index tie break.
    """
    p = np.asarray(p, dtype=np.float64)
    lead = np.argmax(np.abs(p), axis=0)
    signs = np.where(p[lead, np.arange(p.shape[1])] < 0.0, -1.0, 1.0)
    return p * signs


def magnitude_order(eigenvalues: np.ndarray) -> np.ndarray:
    """Indices sorting eigenvalues by decreasing |value|, positive first on
    magnitude ties.

    Computed eigenvalues of an exactly tied pair (such as +1/-1 of an
    exchange matrix) land an ulp apart, so the tie rule also fires when two
    adjacent magnitudes differ by at most 1e-12 * max(|value|, 1) and the
    signs straddle zero.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    order = np.lexsort((-eigenvalues, -np.abs(eigenvalues)))
    for i in range(order.shape[0] - 1):
        a, b = eigenvalues[order[i]], eigenvalues[order[i + 1]]
        near = abs(abs(a) - abs(b)) <= 1e-12 * max(abs(a), 1.0)
        if a < 0.0 <= b and near:
            order[i], order[i + 1] = order[i + 1], order[i]
    return order


def _tridiagonalize(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Householder reduction of a symmetric matrix to tridiagonal form.

    Returns (d, e, z, h): diagonal, subdiagonal (e[0] unused), and the
    reflectors: step i leaves u_i in z[i, :i] and h[i] = |u_i|^2 / 2, so
    P_i = I - u_i u_i^T / h[i] (h[i] == 0: no reflection).  With
    Q = P_{n-1} ... P_2, Q^T a Q is tridiagonal; _apply_q applies Q.

    tred2's steps (per-row scaling, zero-scale rows skipped), blocked as in
    LAPACK dsytrd/dlatrd: while more than _BLOCK rows remain, a panel of
    _BLOCK steps defers its rank-2 updates q u^T + u q^T.  Step i brings
    only row i up to date with the panel's earlier (q, u) pairs and
    corrects its product z[:i, :i] u for them; one rank-2*_BLOCK GEMM per
    panel then applies all of them to the rows left.  The last _BLOCK rows
    take panels of one step, which is tred2's arithmetic bit for bit.
    """
    z = np.array(a, dtype=np.float64, copy=True)
    n = z.shape[0]
    e = np.zeros(n)
    hs = np.zeros(n)
    scratch = np.empty((n, n))
    top = n - 1
    for nb in (_BLOCK, 1):
        # Panel step j keeps q in column 2j of lhs and u in column 2j + 1,
        # and the same vectors as rows 2j (u) and 2j + 1 (q) of rhs, so
        # lhs @ rhs sums q u^T + u q^T over the panel's steps.
        lhs = np.empty((n, 2 * nb))
        rhs = np.empty((2 * nb, n))
        while top >= nb:  # steps top ... top - nb + 1, the last one >= 1
            reflected = False
            for j in range(nb):
                i = top - j
                l = i - 1
                c = 2 * j
                if j:
                    z[i, : i + 1] -= lhs[: i + 1, :c] @ rhs[:c, i]
                scale = float(np.sum(np.abs(z[i, :i]))) if l > 0 else 0.0
                if scale == 0.0:
                    e[i] = z[i, l]
                    lhs[:, c : c + 2] = 0.0
                    rhs[c : c + 2] = 0.0
                    continue
                z[i, :i] /= scale
                u = z[i, :i]
                h = float(u @ u)
                f = u[l]
                g = -np.copysign(np.sqrt(h), f)
                e[i] = scale * g
                h -= f * g
                z[i, l] = f - g
                hs[i] = h
                reflected = True
                p = z[:i, :i] @ u
                if j:
                    p -= lhs[:i, :c] @ (rhs[:c, :i] @ u)
                p /= h
                k = float(u @ p) / (2.0 * h)
                q = p - k * u
                lhs[:i, c] = q
                lhs[:i, c + 1] = u
                rhs[c, :i] = u
                rhs[c + 1, :i] = q
            top -= nb
            if not reflected:  # as tred2 skips a zero-scale step's update
                continue
            # One GEMM into scratch, without the temporaries of np.outer.
            np.matmul(lhs[:i], rhs[:, :i], out=scratch[:i, :i])
            z[:i, :i] -= scratch[:i, :i]
    return np.diagonal(z).copy(), e, z, hs


def _apply_q(z: np.ndarray, h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q @ y, in place in y, for the Q that _tridiagonalize encodes in (z, h);
    P_2 acts first.

    Each group of up to _BLOCK consecutive reflectors, as unit vectors V
    ordered from the highest step down, multiplies out to I - V T V^T in
    compact-WY form (Schreiber & Van Loan, 1989), with T the inverse of
    I/2 + strict_upper(V^T V) (the UT transform): three GEMMs per group.
    """
    steps = np.flatnonzero(h)
    for start in range(0, steps.shape[0], _BLOCK):
        idx = steps[start : start + _BLOCK][::-1]
        rows = int(idx[0])
        # u_i lives in z[i, :i]; mask the rest of each row's prefix.
        inside = np.arange(rows)[:, None] < idx[None, :]
        v = np.where(inside, z[idx, :rows].T, 0.0) / np.sqrt(2.0 * h[idx])
        t = np.linalg.inv(np.triu(v.T @ v, 1) + 0.5 * np.eye(idx.shape[0]))
        y[:rows] -= v @ (t @ (v.T @ y[:rows]))
    return y


def _tridiagonal_eigenvalues(d: np.ndarray, e: np.ndarray, max_sweeps: int = 50) -> np.ndarray:
    """Eigenvalues of the tridiagonal matrix (d, e[1:]) by implicit-shift QL.

    Standard tql1: per eigenvalue, split off the converged block, shift by
    the leading 2x2 and chase the bulge.  The scalar recurrence runs on
    Python floats, which beats indexing numpy arrays one value at a time.
    Exhausting max_sweeps raises NoConvergenceError carrying the partly
    reduced diagonal and the identity (the tridiagonal coordinates).
    """
    n = d.shape[0]
    d = d.tolist()
    e = e[1:].tolist() + [0.0]
    eps = float(np.finfo(np.float64).eps)
    for l in range(n):
        sweeps = 0
        while True:
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) <= eps * dd:
                    break
                m += 1
            if m == l:
                break
            sweeps += 1
            if sweeps > max_sweeps:
                raise NoConvergenceError(
                    f"tridiagonal QL failed to deflate index {l} after {max_sweeps} sweeps",
                    SpectralBasis(np.array(d), np.eye(n), None),
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s, c, p = 1.0, 1.0, 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:  # underflow: sweep again from index l
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return np.array(d)


def _tridiagonal_eigenvectors(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
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


def dense_symmetric_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a dense symmetric matrix: (eigenvalues ascending,
    eigenvectors as columns).  Householder tridiagonalization, QL values,
    inverse iteration vectors and a compact-WY back-transform; no library
    eigensolver.  If QL runs out of sweeps, NoConvergenceError carries the
    partly reduced diagonal and Q, the best state in the input's coordinates.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if n == 1:
        return a[0].copy(), np.ones((1, 1))
    d, e, z, h = _tridiagonalize(a)
    try:
        w = np.sort(_tridiagonal_eigenvalues(d, e))
    except NoConvergenceError as exc:
        b = exc.basis
        raise NoConvergenceError(str(exc), SpectralBasis(b.eigenvalues, _apply_q(z, h, b.eigenvectors))) from None
    return w, _apply_q(z, h, _tridiagonal_eigenvectors(d, e, w))


def check_dense_limit(n: int, dense_limit: int) -> None:
    """Raise DenseLimitError if a dense decomposition of order n exceeds
    dense_limit.  A caller that must build the dense matrix checks first."""
    if n > dense_limit:
        raise DenseLimitError(
            f"dense decomposition refused for n={n} above the limit {dense_limit}"
        )


def full_dense_eigendecomposition(
    a: np.ndarray, dense_limit: int = DENSE_LIMIT_DEFAULT
) -> SpectralBasis:
    """All n eigenpairs of a dense symmetric matrix, magnitude-ordered.

    dense_symmetric_eig supplies the pairs (QL eigenvalues, inverse
    iteration eigenvectors, compact-WY back-transform); this adds the
    magnitude order, canonical signs and residuals.  Guards against
    accidental cubic blowups: refuses n above dense_limit (check_dense_limit).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    check_dense_limit(a.shape[0], dense_limit)
    w, v = dense_symmetric_eig(a)
    order = magnitude_order(w)
    w = w[order]
    v = canonical_sign(v[:, order])
    resid = np.linalg.norm(a @ v - v * w, axis=0)
    return SpectralBasis(w, v, resid)


def _orthogonalize_twice(w: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove the components of w along the rows of basis, twice.

    basis holds orthonormal vectors as contiguous rows, so both products
    stream it row by row.  One pass of classical Gram-Schmidt loses
    orthogonality when w is nearly inside span(basis); the second pass
    restores it to machine precision.
    """
    for _ in range(2):
        w = w - (basis @ w) @ basis
    return w


def top_k_eigenpairs(
    op: CsrMatrix,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 10000,
    seed: int = 0,
) -> SpectralBasis:
    """Top-k eigenpairs by |lambda| of a symmetric sparse matrix.

    op is a CsrMatrix, such as the operator that graph.normalize returns;
    anything else raises TypeError.

    Thick-restart Lanczos with full reorthogonalization.  Each cycle extends
    the basis to m vectors, solves the projected problem with the dense
    reference solver, and restarts from the leading Ritz vectors plus the
    residual direction.  A Ritz pair counts as converged once its residual
    estimate drops below tol times max(|theta|, spectral scale floor).

    The Krylov basis is stored by rows, shape (m+1, n), so every basis
    vector that feeds the operator, the Gram-Schmidt passes and the
    restart is a contiguous row.

    max_iter bounds the total number of operator applications; exhausting it
    raises NoConvergenceError carrying the best basis and its residuals.
    Deterministic for fixed (op, k, tol, seed).
    """
    if not isinstance(op, CsrMatrix):
        raise TypeError(f"expected a CsrMatrix, got {type(op)!r}")
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    rng = np.random.default_rng(seed)

    m = min(n, max(2 * k + 10, 20))
    v = np.zeros((m + 1, n))
    t = np.zeros((m + 1, m + 1))

    v0 = rng.standard_normal(n)
    v0 /= np.linalg.norm(v0)
    v[0] = v0

    locked = 0          # Ritz vectors kept across the last restart
    j = 0               # current basis size
    matvecs = 0
    scale_floor = 0.0   # running estimate of the spectral scale

    def small_eig(size: int) -> tuple[np.ndarray, np.ndarray]:
        w, s = dense_symmetric_eig(t[:size, :size])
        order = magnitude_order(w)
        return w[order], s[:, order]

    def finalize(theta: np.ndarray, s: np.ndarray, size: int) -> SpectralBasis:
        take = min(k, size)
        x = s[:, :take].T @ v[:size]
        # Gram-Schmidt cleanup; rows are near-orthonormal already.
        for c in range(take):
            x[c] = _orthogonalize_twice(x[c], x[:c])
            nrm = np.linalg.norm(x[c])
            if nrm > 0:
                x[c] /= nrm
        x = canonical_sign(x.T)
        lam = theta[:take].copy()
        resid = np.linalg.norm(op.matmat(x) - x * lam, axis=0)
        return SpectralBasis(lam, x, resid)

    while True:
        # Extend the basis from j to m vectors.
        while j < m:
            u = op.matvec(v[j])
            matvecs += 1
            if j == locked and locked > 0:
                # First step after a restart couples to every kept Ritz vector.
                u -= t[:locked, j] @ v[:locked]
            elif j > 0:
                u -= t[j - 1, j] * v[j - 1]
            alpha = float(v[j] @ u)
            t[j, j] = alpha
            u -= alpha * v[j]
            u = _orthogonalize_twice(u, v[: j + 1])
            beta = float(np.linalg.norm(u))
            tiny = np.finfo(np.float64).eps * max(1.0, abs(alpha), scale_floor) * n
            if beta <= tiny:
                # Invariant subspace hit; continue in a fresh random direction
                # decoupled from the current block.
                t[j, j + 1] = 0.0
                t[j + 1, j] = 0.0
                fresh = rng.standard_normal(n)
                fresh = _orthogonalize_twice(fresh, v[: j + 1])
                nrm = np.linalg.norm(fresh)
                j += 1
                if nrm <= np.sqrt(np.finfo(np.float64).eps):
                    # The basis already spans the whole space.
                    break
                v[j] = fresh / nrm
            else:
                v[j + 1] = u / beta
                t[j, j + 1] = beta
                t[j + 1, j] = beta
                j += 1
            if matvecs >= max_iter:
                break

        theta, s = small_eig(j)
        scale_floor = max(scale_floor, float(np.abs(theta).max(initial=0.0)))
        beta_last = t[j, j - 1] if j > 0 else 0.0
        res_est = np.abs(beta_last * s[j - 1, :])
        floor = min(1.0, scale_floor) if scale_floor > 0.0 else 1.0
        wanted = min(k, j)
        converged = res_est[:wanted] <= tol * np.maximum(np.abs(theta[:wanted]), floor * 1e-3)

        if (wanted == k and bool(np.all(converged))) or j >= n:
            return finalize(theta, s, j)
        if matvecs >= max_iter:
            basis = finalize(theta, s, j)
            raise NoConvergenceError(
                f"no convergence after {matvecs} operator applications; "
                f"best residuals {basis.residuals}",
                basis,
            )

        # Thick restart: keep the leading Ritz vectors, append the residual
        # direction, and rebuild the projected matrix as diagonal + arrow.
        keep = min(j - 1, max(k + min(k, 10), k + 2))
        v[:keep] = s[:, :keep].T @ v[:j]
        v[keep] = v[j]
        t[: m + 1, : m + 1] = 0.0
        t[np.arange(keep), np.arange(keep)] = theta[:keep]
        coup = beta_last * s[j - 1, :keep]
        t[keep, :keep] = coup
        t[:keep, keep] = coup
        locked = keep
        j = keep


def save_basis(basis: SpectralBasis, path) -> None:
    """Write a basis in the FSB1 container.

    Layout: 4 magic bytes "FSB1"; little-endian uint64 n and K; K little-endian
    float64 eigenvalues; then the eigenvector matrix in column-major order as
    n*K little-endian float64 values.
    """
    with open(path, "wb") as fh:
        fh.write(_FSB_MAGIC)
        fh.write(struct.pack("<QQ", basis.n, basis.k))
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(basis.eigenvectors.astype("<f8").flatten(order="F").tobytes())


def load_basis(path) -> SpectralBasis:
    """Read a file that save_basis wrote.  Raises ValueError for anything
    else, including a file with no eigenpairs or a non-finite value."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _FSB_MAGIC:
            raise ValueError(f"not an FSB1 file: magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError("truncated FSB1 header")
        n, k = struct.unpack("<QQ", header)
        payload = fh.read()
    need = 8 * (k + n * k)
    if len(payload) != need:
        raise ValueError(f"FSB1 payload has {len(payload)} bytes, expected {need}")
    if k == 0:
        raise ValueError("FSB1 file holds no eigenpairs")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise ValueError("FSB1 payload holds a non-finite value")
    eigenvectors = values[k:].reshape((n, k), order="F").copy()
    return SpectralBasis(values[:k].copy(), eigenvectors, None)

