"""Symmetric eigensolvers: sparse top-K by magnitude, and a dense reference.

Two independent routes to the same quantities:

``top_k_eigenpairs``
    Lanczos iteration with thick restarts, its basis kept semi-orthogonal by
    partial reorthogonalization: Simon's recurrence estimates each new
    vector's overlaps with the window from the projected matrix alone, and
    a step orthogonalizes only when an estimate passes sqrt(eps).  Builds a
    Krylov basis, projects, solves the small problem, keeps the best Ritz
    pairs plus the residual direction, and continues until the wanted pairs
    have residual norm below tolerance.  Intended for large sparse operators
    where only a few extremal pairs are needed.

``full_dense_eigendecomposition``
    Classical dense path, split as in LAPACK dsyevd: blocked Householder
    reduction to tridiagonal form T = Q^T A Q, divide and conquer for the
    eigenpairs of T (split up front into leaves of at most 32 rows, each
    with implicit-shift QL values, every leaf of one size with its vectors
    from one batched inverse iteration; merges by a deflated secular
    equation), and a compact-WY back-transform that applies Q without
    forming it.
    Quadratic storage, cubic time, all n pairs.  Serves as the reference
    the sparse route is checked against; its tridiagonal solver and its
    reduction also solve and restart the Lanczos projected problems.

Both routes order eigenpairs by decreasing |lambda|, breaking exact-magnitude
ties toward the positive eigenvalue, and canonicalize eigenvector signs so
that each column's entry of largest absolute value is non-negative (ties on
the magnitude broken by lowest row index).
"""
from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix

DENSE_LIMIT = 2000

_FSB_MAGIC = b"FSB1"

# Reflectors per panel in _tridiagonalize, the row count below which it runs
# unblocked, reflectors per compact-WY group in _apply_q, and the largest
# leaf that _tridiagonal_eig's up-front partition leaves (all leaves of one
# size share one inverse-iteration batch).
_BLOCK = 32

# The share of its input norm below which one Gram-Schmidt pass in
# _orthogonalize is followed by a second.
_DGKS = 1.0 / math.sqrt(2.0)

# sqrt(eps): a Lanczos step orthogonalizes its vector against the window
# when Simon's estimate of some |v_i . v_j| passes this, and the step after
# it does so too; otherwise the vector goes on as it is.  A basis kept
# semi-orthogonal, |v_i . v_j| <= sqrt(eps), gives Ritz values to working
# accuracy (Simon, Math. Comp. 42, 1984).
_SEMIORTHOGONAL = math.sqrt(float(np.finfo(np.float64).eps))


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
    or None for bases loaded from disk without their operator.  matvecs,
    restarts and reorthogonalized: how hard top_k_eigenpairs worked for the
    basis (operator applications, thick restarts, Lanczos steps that
    orthogonalized their vector against the window, flagged by the estimate
    or forced after a flagged step), or None for bases from elsewhere.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray | None = None
    matvecs: int | None = None
    restarts: int | None = None
    reorthogonalized: int | None = None

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

    @functools.cached_property
    def eigenvectors_t(self) -> np.ndarray:
        """P^T as a read-only C-ordered copy, built on first use and kept on
        the basis; not a field, so save_basis and equality never see it."""
        pt = self.eigenvectors.T.copy()
        pt.flags.writeable = False
        return pt

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
    """Eigenvectors of L tridiagonal matrices of one order n by inverse
    iteration on all their shifts at once.

    Column l of d, e and w (each n by L) holds matrix l: its diagonal, its
    subdiagonal (e[0, l] == 0) and its ascending eigenvalues.  Columns
    l n ... l n + n - 1 of the result are matrix l's eigenvectors.  Each
    matrix keeps the arithmetic it would have alone: its own scale, its own
    start and its own clusters.  Positions are rows, so each recurrence step
    is one contiguous row over every shift.  Each matrix is scaled to unit
    infinity norm, then T - w_j I is factored once without pivoting; pivots
    below eps are raised to eps with their sign.  Three solves run from a
    fixed-seed random start; each is followed by normalizing the columns and
    a QR of every cluster: a run of one matrix's eigenvalues with consecutive
    gaps at most 1e-3 (LAPACK dstein's rule).
    """
    n, count = d.shape
    # e[0] == 0, so row i of T has |e[i]| + |d[i]| + |e[i + 1]|.
    rows = np.abs(d) + np.abs(e)
    rows[:-1] += np.abs(e[1:])
    tnorm = rows.max(axis=0)
    tnorm[tnorm == 0.0] = 1.0  # dividing by 1 is exact
    # One column per shift, each holding its matrix's scaled d and e.
    d, e = np.repeat(d / tnorm, n, axis=1), np.repeat(e / tnorm, n, axis=1)
    w = (w / tnorm).ravel(order="F")
    m = w.shape[0]
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

    cut = np.diff(w) > 1e-3
    cut[n - 1 :: n] = True  # a cluster never spans two matrices
    cuts = (np.flatnonzero(cut) + 1).tolist()
    clusters = [(a, b) for a, b in zip([0] + cuts, cuts + [m]) if b - a > 1]
    y = np.tile(np.random.default_rng(0).standard_normal((n, n)), count)
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


def _tridiagonal_eig(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (vectors as columns) of the tridiagonal (d, e[1:]), e[0] == 0,
    by Cuppen's divide and conquer (Numer. Math. 36, 1981), partitioned up
    front as in LAPACK dstedc/dlaed0.  A part [lo, hi) of more than _BLOCK
    rows splits at m = lo + (hi - lo) // 2: T is its halves, less |e[m]| on
    d[m - 1] and d[m], plus a rank-one term; no entry takes two
    subtractions.  The leaves take their QL values (ascending) in row order,
    so the first that fails raises.  Every leaf of one size then gets its
    vectors from one _tridiagonal_eigenvectors call, and _merge joins the
    parts bottom-up.
    """
    n = d.shape[0]
    d, e = d.copy(), e.copy()
    splits, leaves, todo = [], [], [(0, n)]
    while todo:  # depth first, left half first: leaves in row order
        lo, hi = todo.pop()
        if hi - lo <= _BLOCK:
            leaves.append((lo, hi))
            continue
        m = lo + (hi - lo) // 2
        beta = float(e[m])
        d[m - 1 : m + 1] -= abs(beta)
        e[m] = 0.0
        splits.append((lo, m, hi, beta))
        todo += [(m, hi), (lo, m)]
    w = np.concatenate([np.sort(_tridiagonal_eigenvalues(d[lo:hi], e[lo:hi])) for lo, hi in leaves])
    parts = {}
    for size in {hi - lo for lo, hi in leaves}:
        group = [(lo, hi) for lo, hi in leaves if hi - lo == size]
        stacked = (np.column_stack([x[lo:hi] for lo, hi in group]) for x in (d, e, w))
        y = _tridiagonal_eigenvectors(*stacked)
        for j, (lo, hi) in enumerate(group):
            parts[lo, hi] = w[lo:hi], y[:, j * size : (j + 1) * size]
    for lo, m, hi, beta in reversed(splits):  # children come after parents
        parts[lo, hi] = _merge(*parts.pop((lo, m)), *parts.pop((m, hi)), beta)
    return parts[0, n]


def _merge(w1: np.ndarray, q1: np.ndarray, w2: np.ndarray, q2: np.ndarray,
           beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of diag(Q1 W1 Q1^T, Q2 W2 Q2^T) + |beta| v v^T, v = (last
    unit vector, sign(beta) * first), i.e. of diag(Q1, Q2) (D + rho z z^T)
    diag(Q1, Q2)^T with D = (w1, w2), |z| = 1, rho = 2 |beta|.  Deflation as
    in LAPACK dlaed2, on D ascending: a pole with rho |z_j| <= tol keeps d_j
    and its unit vector, as does one of a pole pair that a Givens rotation
    decouples to within tol.  The k others go to _secular, whose roots come
    first.  Sort, rotations and secular vectors act on the rows of S, the
    eigenvectors in the halves' bases; Q = [Q1 S[:m]; Q2 S[m:]].
    """
    m, n = w1.shape[0], w1.shape[0] + w2.shape[0]
    z = np.concatenate((q1[-1], q2[0] if beta >= 0.0 else -q2[0])) / math.sqrt(2.0)
    rho = 2.0 * abs(beta)
    perm = np.argsort(np.concatenate((w1, w2)), kind="stable")
    dd, zz = np.concatenate((w1, w2))[perm].tolist(), z[perm].tolist()
    tol = 8.0 * float(np.finfo(np.float64).eps) * max(abs(dd[0]), abs(dd[-1]), float(np.abs(z).max()))
    keep, rotations, prev = [], [], -1
    for j in range(n):
        if rho * abs(zz[j]) <= tol:
            continue
        if prev >= 0:
            r = math.hypot(zz[j], zz[prev])
            c, sn = zz[j] / r, -zz[prev] / r
            if abs((dd[j] - dd[prev]) * c * sn) <= tol:
                zz[j], zz[prev] = r, 0.0
                rotations.append((perm[prev], perm[j], c, sn))
                dd[prev], dd[j] = (dd[prev] * c * c + dd[j] * sn * sn,
                                   dd[prev] * sn * sn + dd[j] * c * c)
            else:
                keep.append(prev)
        prev = j
    if prev >= 0:
        keep.append(prev)
    dd, zz, flat, k = np.array(dd), np.array(zz), np.setdiff1d(np.arange(n), keep), len(keep)
    lam, u = _secular(dd[keep], zz[keep], rho)
    s = np.zeros((n, n))
    s[perm[keep], :k] = u
    s[perm[flat], np.arange(k, n)] = 1.0
    del u
    for a, b, c, sn in reversed(rotations):  # S = G_1 ... G_r X
        s[[a, b]] = np.array([[c, -sn], [sn, c]]) @ s[[a, b]]
    q = np.empty((n, n))
    np.matmul(q1, s[:m], out=q[:m])
    np.matmul(q2, s[m:], out=q[m:])
    return np.concatenate((lam, dd[flat])), q


def _secular(d: np.ndarray, z: np.ndarray, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of diag(d) + rho z z^T, d strictly ascending, z_j != 0,
    rho > 0: (values ascending, vectors as columns).  Root r of g(x) =
    1/rho + sum_j z_j^2 / (d_j - x), in (d_r, d_r+1) or right of d_k-1, is
    kept as tau, its offset from the nearer pole.  The roots iterate
    together, each until it converges: a step solves the two-pole model of
    g at poles p = min(r, k - 2), p + 1 (Li's middle way, LAPACK dlaed4),
    else bisects the bracket.  The vectors use Gu and Eisenstat's z-hat
    (SIMAX 16, 1995; dlaed3), so they stay orthogonal however close the roots.
    """
    k = d.shape[0]
    if k <= 1:
        return d + rho * z * z, np.ones((k, k))
    z2, eps = z * z, float(np.finfo(np.float64).eps)
    p = np.minimum(np.arange(k), k - 2)
    gap = np.append(np.diff(d), rho * float(z2.sum()))
    origin, tau, lo, hi = np.arange(k), gap / 2.0, np.zeros(k), gap.copy()
    # The model's quadratic has a root between the poles and one outside;
    # sigma picks the first, or for the last root the one right of both.
    sigma = np.append(np.ones(k - 1), -1.0)
    active, first = np.arange(k), True
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while active.size:
            pa = p[active]
            delta = d - d[origin[active], None]
            delta -= tau[active, None]
            rows = np.arange(active.size)
            cuts = np.column_stack((rows * k, rows * k + pa + 1)).ravel()
            t = z2 / delta
            psi, phi = np.add.reduceat(t.ravel(), cuts).reshape(-1, 2).T
            t /= delta
            dpsi, dphi = np.add.reduceat(t.ravel(), cuts).reshape(-1, 2).T
            dp, dq = delta[rows, pa], delta[rows, pa + 1]
            del t, delta
            w = 1.0 / rho + psi + phi
            if first:  # at the midpoints; g < 0 puts root r nearer pole r + 1
                right = np.flatnonzero(w[:-1] < 0.0)
                origin[right] += 1
                tau[right] -= gap[right]
                lo[right], hi[right] = -gap[right], 0.0
                first = False
            x = tau[active]
            done = np.abs(w) <= eps * (8.0 * (np.abs(psi) + np.abs(phi)) + 2.0 / rho
                                       + 3.0 * np.abs(x) * (dpsi + dphi))
            xlo, xhi = np.where(w < 0.0, x, lo[active]), np.where(w > 0.0, x, hi[active])
            # Model c + sp/(d_p - x) + sq/(d_q - x); the new offset t from the
            # origin o solves c t^2 - a t + b = 0, with g = d_other - d_o.
            sp, sq = dp * dp * dpsi, dq * dq * dphi
            c = w - dp * dpsi - dq * dphi
            if active[-1] == k - 1:
                c[-1] = abs(c[-1])
            near = origin[active] == pa
            g = np.where(near, dq - dp, dp - dq)
            a = c * g + sp + sq
            b = np.where(near, sp, sq) * g
            root = sigma[active] * np.sqrt(np.abs(a * a - 4.0 * b * c))
            step = np.where(sigma[active] * a > 0.0, 2.0 * b / (a + root), (a - root) / (2.0 * c))
            step = np.where((step - x) * w < 0.0, step, x - w / (dpsi + dphi))
            step = np.where((step > xlo) & (step < xhi), step, (xlo + xhi) / 2.0)
            stop = done | ~((step > xlo) & (step < xhi))  # or the bracket is two adjacent floats
            lo[active], hi[active] = xlo, xhi
            tau[active] = np.where(stop, x, step)
            active = active[~stop]
    delta = d[:, None] - d[origin]  # delta[j, r] = d_j - lam_r
    delta -= tau
    # dlaed3's z-hat: -z-hat_j^2 rho = (d_j - lam_j) prod_{r != j} (d_j - lam_r) / (d_j - d_r).
    u = d[:, None] - d
    np.fill_diagonal(u, 1.0)
    np.divide(delta, u, out=u)
    zhat = np.copysign(np.sqrt(np.abs(np.prod(u, axis=1))), z)
    np.divide(zhat[:, None], delta, out=u)
    u /= np.sqrt(np.einsum("ij,ij->j", u, u))
    return d[origin] + tau, u


def _ordered_tridiagonal_eig(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the tridiagonal (d, e[1:]), e[0] == 0, in magnitude_order:
    _tridiagonal_eig, with T scaled above one leaf by a power of two to max
    |entry| in [1/2, 1), which the deflation tolerance assumes; the scaling
    is exact."""
    shift = int(np.frexp(max(np.abs(d).max(), np.abs(e).max()))[1]) if d.shape[0] > _BLOCK else 0
    w, y = _tridiagonal_eig(np.ldexp(d, -shift), np.ldexp(e, -shift))
    w = np.ldexp(w, shift)
    order = magnitude_order(w)
    # np.take keeps y in C order; y[:, order] would return it in F order.
    return w[order], np.take(y, order, axis=1)


def dense_symmetric_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All eigenpairs of a dense symmetric matrix: (eigenvalues in
    magnitude_order, eigenvectors as columns).  Householder
    tridiagonalization, divide and conquer on T (partitioned into leaves up
    front, the leaves of one size batched through one inverse iteration),
    one reorder of its pairs, a compact-WY back-transform; no library
    eigensolver.  If a leaf's QL runs out of sweeps (the first such
    leaf in row order raises), NoConvergenceError carries Q and a diagonal
    (QL's partly reduced one if n <= _BLOCK, else T's), in input coordinates.
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
        w, y = _ordered_tridiagonal_eig(d, e)
    except NoConvergenceError as exc:
        diagonal = exc.basis.eigenvalues if n <= _BLOCK else d
        raise NoConvergenceError(str(exc), SpectralBasis(diagonal, _apply_q(z, h, np.eye(n)))) from None
    return w, _apply_q(z, h, y)


def check_dense_limit(n: int) -> None:
    """Raise DenseLimitError if a dense decomposition of order n exceeds
    DENSE_LIMIT.  A caller that must build the dense matrix checks first."""
    if n > DENSE_LIMIT:
        raise DenseLimitError(
            f"dense decomposition refused for n={n} above the limit {DENSE_LIMIT}"
        )


def full_dense_eigendecomposition(a: np.ndarray, k: int | None = None) -> SpectralBasis:
    """The top k eigenpairs by |lambda| of a dense symmetric matrix, all n
    if k is None.

    dense_symmetric_eig supplies all n pairs, magnitude-ordered (Householder
    reduction, divide and conquer on the tridiagonal matrix, compact-WY
    back-transform); this keeps the first k and adds their canonical signs
    and residuals.  Guards against accidental cubic blowups: refuses n above
    DENSE_LIMIT (check_dense_limit).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    n = a.shape[0]
    check_dense_limit(n)
    k = n if k is None else k
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    w, v = dense_symmetric_eig(a)
    w, v = w[:k], canonical_sign(v[:, :k])
    resid = np.linalg.norm(a @ v - v * w, axis=0)
    return SpectralBasis(w, v, resid)


def _orthogonalize(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """Remove the components of w along the rows of basis; return the
    result and its two-norm.

    basis holds orthonormal vectors as contiguous rows, so both products
    stream it row by row.  One pass of classical Gram-Schmidt loses
    orthogonality only when w is nearly inside span(basis), which shows as
    cancellation: a second pass runs when the first leaves less than 1/sqrt(2)
    of w's norm (Daniel, Gragg, Kaufman & Stewart, 1976), and twice is enough.
    """
    norm = float(np.linalg.norm(w))
    out = w - (basis @ w) @ basis
    out_norm = float(np.linalg.norm(out))
    if out_norm < norm * _DGKS:
        out = out - (basis @ out) @ basis
        out_norm = float(np.linalg.norm(out))
    return out, out_norm


def _window(n: int, k: int) -> int:
    """Vectors in the Lanczos window for the top k pairs of an order-n
    operator.  Each restart costs one tridiagonal solve of this order, so a
    wider window takes fewer restarts."""
    return min(n, max(2 * k + 10, 48))


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

    Thick-restart Lanczos, its basis kept semi-orthogonal.  Each cycle extends
    the basis to m = _window(n, k) vectors, solves the projected tridiagonal
    matrix T with the dense reference's tridiagonal solver, and restarts from
    the leading Ritz vectors plus the residual direction.  A Ritz pair counts
    as converged once its residual estimate drops below tol times
    max(|theta|, 1e-3 min(1, spectral scale)).

    The restart keeps T tridiagonal, as the Krylov-Schur decomposition
    reduced back to Lanczos form (Stewart, SIMAX 23, 2001): the kept Ritz
    values and their couplings to the residual direction form an arrowhead,
    which _tridiagonalize reduces.  Its reflectors act only on the Ritz
    coordinates, so its Q rotates the kept Ritz vectors inside the one GEMM
    that forms them and leaves the residual direction in place; the
    reduction's d and e continue T, and every step is the plain three-term
    recurrence.

    The Krylov basis is stored by rows, shape (m+1, n), so every basis
    vector that feeds the operator, the Gram-Schmidt passes and the
    restart is a contiguous row.  It is kept semi-orthogonal by partial
    reorthogonalization (Simon, Math. Comp. 42, 1984): estimates of
    omega[j, i] = v_j . v_i follow from T alone, as v_i . S v_j = v_j . S v_i
    with the three-term recurrence on both sides gives
        beta_{j+1} omega[j+1, i] = beta_{i+1} omega[j, i+1]
            + (alpha_i - alpha_j) omega[j, i] + beta_i omega[j, i-1]
            - beta_j omega[j-1, i],
    to which a rounding term sqrt(n) eps / 2 is added with each entry's
    sign, as in PROPACK; omega[j+1, j] is that term.  Only when some
    estimate passes sqrt(eps) is the new vector orthogonalized against the
    window (_orthogonalize), and the next one with it, since row j still
    holds the estimates that passed; each such row is reset to the rounding
    level.  The restart keeps the recurrence (Wu & Simon, SIMAX 22, 2000):
    the residual direction is orthogonalized against the kept vectors, and
    the row of the last kept one is measured.  A window that holds the
    whole space (m == n), the fresh direction after a breakdown and the
    final Ritz vectors are orthogonalized in full.  Where a Krylov space
    runs out, as in a graph of many components, beta can fall to 1e-12 and
    the components left in place spoil the span: if the true residuals miss
    the convergence bound, the solve runs again from the same start with
    every step orthogonalized in full, which also guards the estimates.

    max_iter bounds the total number of operator applications; exhausting it
    raises NoConvergenceError carrying the best basis and its residuals.
    The basis records the operator applications, thick restarts and the
    steps that orthogonalized against the window (matvecs, restarts,
    reorthogonalized), over both solves if there were two.  Deterministic
    for fixed (op, k, tol, seed).
    """
    if not isinstance(op, CsrMatrix):
        raise TypeError(f"expected a CsrMatrix, got {type(op)!r}")
    n = op.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    m = _window(n, k)
    level = math.sqrt(n) * float(np.finfo(np.float64).eps) / 2.0  # the estimates' rounding
    v = np.zeros((m + 1, n))
    d = np.zeros(m)         # T's diagonal
    e = np.zeros(m + 1)     # e[i] couples v[i - 1] and v[i]; e[0] stays 0
    matvecs = 0
    restarts = 0
    reorthogonalized = 0

    def finalize(theta: np.ndarray, s: np.ndarray, size: int) -> SpectralBasis:
        take = min(k, size)
        x = s[:, :take].T @ v[:size]
        # Gram-Schmidt cleanup; rows are near-orthonormal already.
        for c in range(take):
            x[c], nrm = _orthogonalize(x[c], x[:c])
            if nrm > 0:
                x[c] /= nrm
        x = canonical_sign(x.T)
        lam = theta[:take].copy()
        resid = np.linalg.norm(op.matmat(x) - x * lam, axis=0)
        return SpectralBasis(lam, x, resid, matvecs=matvecs, restarts=restarts,
                             reorthogonalized=reorthogonalized)

    for semi in (_SEMIORTHOGONAL, 0.0) if m < n else (0.0,):
        rng = np.random.default_rng(seed)
        v0 = rng.standard_normal(n)
        v[0] = v0 / np.linalg.norm(v0)
        j = 0               # current basis size
        scale_floor = 0.0   # running estimate of the spectral scale
        # Rows j - 1 and j of the estimates, omega[., i] at entry i + 1 and
        # entry 0 zero for omega[., -1]; semi == 0 flags every step.
        prev, cur = np.zeros(m + 2), np.zeros(m + 2)
        cur[1] = 1.0
        force = False       # the step after a flagged one orthogonalizes too
        while True:
            # Extend the basis from j to m vectors.
            while j < m:
                u = op.matvec(v[j])
                matvecs += 1
                if j > 0:
                    u -= e[j] * v[j - 1]
                alpha = float(v[j] @ u)
                d[j] = alpha
                u -= alpha * v[j]
                beta = float(np.linalg.norm(u))
                tiny = np.finfo(np.float64).eps * max(1.0, abs(alpha), scale_floor) * n
                w = np.zeros(j)     # a breakdown's row is the rounding level
                if beta > tiny:
                    w = (e[1 : j + 1] * cur[2 : j + 2] + (d[:j] - alpha) * cur[1 : j + 1]
                         + e[:j] * cur[:j] - e[j] * prev[1 : j + 1]) / beta
                prev, cur = cur, prev
                cur[1 : j + 1] = w + np.copysign(level, w)
                cur[j + 1 : j + 3] = level, 1.0
                if force or np.abs(cur[1 : j + 2]).max() > semi:
                    force = not force
                    u, beta = _orthogonalize(u, v[: j + 1])
                    reorthogonalized += 1
                    cur[1 : j + 2] = level
                if beta <= tiny:
                    # Invariant subspace hit; continue in a fresh random direction
                    # decoupled from the current block.
                    e[j + 1] = 0.0
                    fresh = rng.standard_normal(n)
                    fresh, nrm = _orthogonalize(fresh, v[: j + 1])
                    j += 1
                    if nrm <= np.sqrt(np.finfo(np.float64).eps):
                        # The basis already spans the whole space.
                        break
                    v[j] = fresh / nrm
                else:
                    v[j + 1] = u / beta
                    e[j + 1] = beta
                    j += 1
                if matvecs >= max_iter:
                    break

            theta, s = _ordered_tridiagonal_eig(d[:j], e[:j])
            scale_floor = max(scale_floor, float(np.abs(theta).max(initial=0.0)))
            res_est = np.abs(e[j] * s[j - 1, :])
            floor = 1e-3 * (min(1.0, scale_floor) if scale_floor > 0.0 else 1.0)
            wanted = min(k, j)
            converged = res_est[:wanted] <= tol * np.maximum(np.abs(theta[:wanted]), floor)

            if (wanted == k and bool(np.all(converged))) or j >= n:
                basis = finalize(theta, s, j)
                bound = tol * np.maximum(np.abs(basis.eigenvalues), floor)
                if not semi or bool(np.all(basis.residuals <= bound)):
                    return basis
                break  # solve again with full orthogonalization
            if matvecs >= max_iter:
                basis = finalize(theta, s, j)
                raise NoConvergenceError(
                    f"no convergence after {matvecs} operator applications; "
                    f"best residuals {basis.residuals}",
                    basis,
                )

            # Thick restart: the kept Ritz vectors rotate by the Q that takes
            # the arrowhead [[diag theta, c], [c^T, 0]] to tridiagonal form;
            # Q fixes the last coordinate, the residual direction.
            keep = min(j - 1, max(k + min(k, 10), k + 2))
            arrow = np.diag(np.append(theta[:keep], 0.0))
            arrow[keep, :keep] = arrow[:keep, keep] = e[j] * s[j - 1, :keep]
            dk, ek, z, h = _tridiagonalize(arrow)
            q = _apply_q(z, h, np.eye(keep + 1))[:keep, :keep]
            v[:keep] = (s[:, :keep] @ q).T @ v[:j]
            v[keep] = v[j]
            d[:keep] = dk[:keep]
            e[1 : keep + 1] = ek[1:]
            if semi:  # the estimates go on from a fresh row and a measured one
                w, nrm = _orthogonalize(v[keep], v[:keep])
                v[keep] = w / nrm
                prev[1:keep], prev[keep] = v[: keep - 1] @ v[keep - 1], 1.0
                cur[1 : keep + 1], cur[keep + 1] = level, 1.0
            j = keep
            restarts += 1


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

