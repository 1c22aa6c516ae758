"""Limiting behavior of repeated symmetric convolution.

Convolving a signal h again and again with a symmetric operator S drives the
direction of S^l h toward the dominant eigenspace.  This module measures
that drift and checks it against the closed forms that follow from the
eigendecomposition h = sum_i alpha_i p_i:

principal-limit
    With a simple dominant eigenvalue lambda_1 > 0, the cosine similarity
    cos<S^l h, h> converges to |alpha_1| / sqrt(sum_i alpha_i^2), the cosine
    against the principal eigenvector oriented toward h.  The magnitude
    matters because an eigenvector's sign is pure convention: the iterate
    aligns with sign(alpha_1) p_1, never against h.

degenerate-top-bound
    With the top eigenvalue repeated j times (all equal, positive), the
    limit is sqrt(sum_{i<=j} alpha_i^2) / sqrt(sum_i alpha_i^2), which the
    Cauchy-Schwarz inequality bounds below by the average of the per-vector
    cosines, (1/sqrt(j)) * sum_{i<=j} cos<h, p_i>, with equality exactly
    when all alpha_i, i <= j, coincide.

nonprincipal-decay
    The unnormalized weight of a non-dominant component after l steps is
    alpha_i^2 (lambda_i / lambda_1)^l: log-linear in l with slope
    log |lambda_i / lambda_1|.

Every verifier generates its own operator with a controlled spectrum,
measures the iterated similarity with matrix products only, and takes the
alpha_i from the dense reference decomposition, so measurement and
prediction travel disjoint code paths.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .eigen import full_dense_eigendecomposition
from .metrics import report_json

CLAIM_NAMES = {
    1: "principal-limit",
    2: "degenerate-top-bound",
    3: "nonprincipal-decay",
}


class GenerationError(RuntimeError):
    """A random instance with the requested spectral shape was not found."""


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one numerical verification run.

    claim_id: 1, 2 or 3 as listed in the module docstring.  measured holds
    (l, value) pairs with strictly increasing l; predicted the theoretical
    limit (claims 1, 2) or slope (claim 3); gap the final absolute deviation
    the verdict was judged on.
    """

    claim_id: int
    measured: list
    predicted: float
    gap: float
    parameters: dict = field(default_factory=dict)
    verdict: bool = False

    @property
    def claim(self) -> str:
        return CLAIM_NAMES[self.claim_id]

    def to_json(self) -> str:
        return report_json({**asdict(self), "claim": self.claim}, sort_keys=True)


def _renormalized_iterates(s, h: np.ndarray, ls):
    """Yield (l, S^l h / ||S^l h||) for each l of the ascending list ls.

    One sweep of matrix products, renormalizing every iterate so magnitudes
    stay near one for any spectral radius.  If the iterate vanishes, i.e.
    S^l h = 0, yields (l, None) and stops.
    """
    matvec = s.matvec if hasattr(s, "matvec") else (lambda x: np.asarray(s) @ x)
    v = h / np.linalg.norm(h)
    step = 0
    for l in ls:
        while step < l:
            v = matvec(v)
            nv = np.linalg.norm(v)
            if nv == 0.0:
                yield l, None
                return
            v = v / nv
            step += 1
        yield l, v


def convolution_similarity(s, h: np.ndarray, l: int) -> float:
    """cos<S^l h, h>, or NaN (flagged undefined) if S^l h = 0."""
    return similarity_trace(s, h, [l])[0][1]


def similarity_trace(s, h: np.ndarray, ls) -> list:
    """(l, cos<S^l h, h>) for each l in ls, sharing one renormalized sweep.

    The cosine is invariant to the renormalization.  A vanishing iterate
    ends the trace with NaN at the first l that reaches it.
    """
    ls = sorted(set(int(l) for l in ls))
    if ls and ls[0] < 0:
        raise ValueError("l values must be non-negative")
    h = np.asarray(h, dtype=np.float64)
    nh = np.linalg.norm(h)
    if nh == 0.0:
        raise ValueError("h must be non-zero")
    return [
        (l, float("nan") if v is None else float(np.clip((v @ h) / nh, -1.0, 1.0)))
        for l, v in _renormalized_iterates(s, h, ls)
    ]


def projection_weights(basis: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Coefficients alpha = basis^T h of h against orthonormal columns."""
    basis = np.asarray(basis, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    return basis.T @ h


def _haar_orthogonal(n: int, rng: np.random.Generator) -> np.ndarray:
    m = rng.standard_normal((n, n))
    q, r = np.linalg.qr(m)
    return q * np.sign(np.diag(r))


def synthesize_symmetric(
    eigenvalues: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Dense symmetric matrix with the given spectrum in a Haar-random basis.

    Returns (S, P) with S = P diag(eigenvalues) P^T.  Sampling the basis
    instead of rejection-sampling raw random matrices guarantees any
    requested spectral gap; the verifiers still re-measure the spectrum
    through the dense reference decomposition.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64)
    n = eigenvalues.shape[0]
    p = _haar_orthogonal(n, rng)
    return (p * eigenvalues) @ p.T, p


def _spectrum_with_gap(n: int, gap_min: float, rng: np.random.Generator) -> np.ndarray:
    """lambda_1 = 1, every other magnitude at most 1/gap_min, second largest
    exactly 1/gap_min so the measured gap sits at the requested floor."""
    rest = rng.uniform(-1.0, 1.0, size=n - 1) / gap_min
    if n > 1:
        rest[0] = 1.0 / gap_min
    return np.concatenate([[1.0], rest])


def _draw_h(n: int, rng: np.random.Generator, basis: np.ndarray, need_nonzero) -> np.ndarray:
    """Random signal whose projections on the listed basis columns are
    bounded away from zero; redraws are vanishingly rare (64 tries)."""
    for _ in range(64):
        h = rng.standard_normal(n)
        alpha = projection_weights(basis, h)
        if all(abs(alpha[i]) > 1e-8 for i in need_nonzero):
            return h
    raise GenerationError("could not draw a signal with non-degenerate projections")


def verify_principal_limit(
    n: int = 100,
    gap_min: float = 1.5,
    l_max: int = 200,
    seed: int = 0,
) -> ClaimReport:
    """Measure cos<S^l h, h> to l_max on an instance with a simple dominant
    eigenvalue and compare against alpha_1 / ||h||; the verdict holds when
    the final cosine is within 1e-6 of it."""
    tol = 1e-6
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if gap_min <= 1.0:
        raise ValueError("gap_min must exceed 1")
    rng = np.random.default_rng(seed)
    spectrum = _spectrum_with_gap(n, gap_min, rng)
    s, _ = synthesize_symmetric(spectrum, rng)

    ref = full_dense_eigendecomposition(s)
    lam = ref.eigenvalues
    gap = abs(lam[0]) / abs(lam[1]) if n > 1 else math.inf
    if gap < gap_min * (1.0 - 1e-9):
        raise GenerationError(f"spectral gap {gap:.6f} below requested {gap_min}")

    h = _draw_h(n, rng, ref.eigenvectors, [0])
    alpha = projection_weights(ref.eigenvectors, h)
    predicted = float(abs(alpha[0]) / np.linalg.norm(alpha))

    ls = _l_grid(l_max)
    measured = similarity_trace(s, h, ls)
    final = measured[-1][1]
    dev = abs(final - predicted)
    return ClaimReport(
        claim_id=1,
        measured=measured,
        predicted=predicted,
        gap=dev,
        parameters={
            "n": n,
            "gap_min": gap_min,
            "measured_gap": gap,
            "l_max": l_max,
            "seed": seed,
            "tol": tol,
            "lambda_top": float(lam[0]),
        },
        verdict=bool(dev <= tol),
    )


def verify_degenerate_top_bound(
    n: int = 80,
    j: int = 2,
    l_max: int = 120,
    seed: int = 0,
) -> ClaimReport:
    """Top eigenvalue repeated j times: check the measured limit against the
    closed form and the Cauchy-Schwarz lower bound.

    Two runs share the instance: a random signal, for which the bound must
    hold with non-negative margin, and a constructed signal with equal
    projections on the top-j eigenvectors, for which the bound must be tight
    to 1e-8.  "Non-negative" allows -1e-9 of rounding, and the measured limit
    must match the closed form to 1e-6.  Projections use the basis the dense
    reference solver returns for the degenerate eigenspace; the bound is
    basis-dependent and holds for any orthonormal choice.
    """
    if not 1 <= j < n:
        raise ValueError("need 1 <= j < n")
    rng = np.random.default_rng(seed)
    tail = rng.uniform(-1.0, 1.0, size=n - j) / 1.5
    spectrum = np.concatenate([np.ones(j), tail])
    s, _ = synthesize_symmetric(spectrum, rng)

    ref = full_dense_eigendecomposition(s)
    top = ref.eigenvectors[:, :j]

    h = _draw_h(n, rng, ref.eigenvectors, range(j))
    alpha = projection_weights(ref.eigenvectors, h)
    norm_h = float(np.linalg.norm(h))
    closed_form = float(np.linalg.norm(alpha[:j]) / np.linalg.norm(alpha))
    # Eigenvectors oriented toward h (signs are conventions); the bound in
    # this orientation is the tight form of the inequality.
    cosines = [float(abs(alpha[i]) / norm_h) for i in range(j)]
    bound = sum(cosines) / math.sqrt(j)

    ls = _l_grid(l_max)
    measured = similarity_trace(s, h, ls)
    final = measured[-1][1]
    margin = final - bound
    limit_dev = abs(final - closed_form)

    # Equality case: equal projections on the top block, plus an orthogonal
    # remainder so the signal is not inside the eigenspace.
    z = rng.standard_normal(n)
    z -= top @ (top.T @ z)
    h_eq = top.sum(axis=1) / math.sqrt(j) + 0.5 * z / max(np.linalg.norm(z), 1e-12)
    alpha_eq = projection_weights(ref.eigenvectors, h_eq)
    bound_eq = float(np.sum(alpha_eq[:j]) / (math.sqrt(j) * np.linalg.norm(h_eq)))
    final_eq = convolution_similarity(s, h_eq, l_max)
    equality_gap = abs(final_eq - bound_eq)

    verdict = bool(
        margin >= -1e-9
        and limit_dev <= 1e-6
        and equality_gap <= 1e-8
    )
    return ClaimReport(
        claim_id=2,
        measured=measured,
        predicted=bound,
        gap=equality_gap,
        parameters={
            "n": n,
            "j": j,
            "l_max": l_max,
            "seed": seed,
            "closed_form_limit": closed_form,
            "final_measured": final,
            "margin": margin,
            "limit_deviation": limit_dev,
            "equality_bound": bound_eq,
            "equality_measured": final_eq,
            "per_vector_cosines": cosines,
        },
        verdict=verdict,
    )


def verify_decay_rate(
    n: int = 80,
    l_values=tuple(range(1, 31)),
    seed: int = 0,
    index: int = 1,
) -> ClaimReport:
    """Fit the log of the non-dominant term alpha_i^2 (lambda_i/lambda_1)^l
    against l and compare the slope with log |lambda_i / lambda_1|.

    index counts from 0 over the magnitude-ordered spectrum, so index >= 1
    picks a non-dominant component.  Also reports the normalized
    contributions c_i(l) = term_i(l) / sum_m term_m(l) as the measured pairs.
    The verdict holds when the fitted slope is within 1e-3 of the predicted.
    """
    if index < 1:
        raise ValueError("index must pick a non-dominant component (>= 1)")
    if n <= index:
        raise ValueError(f"n must exceed index {index}, got {n}")
    l_values = sorted(set(int(l) for l in l_values))
    if len(l_values) < 2:
        raise ValueError("need at least two l values for a slope")
    if l_values[0] < 1:
        raise ValueError("l values must be positive")
    rng = np.random.default_rng(seed)
    # Magnitudes bounded below so the measured component stays far above the
    # rounding floor over the whole fitting range.
    magnitudes = rng.uniform(0.5, 0.9, size=n - 1)
    signs = rng.choice([-1.0, 1.0], size=n - 1)
    spectrum = np.concatenate([[1.0], magnitudes * signs])
    s, _ = synthesize_symmetric(spectrum, rng)

    ref = full_dense_eigendecomposition(s)
    lam = ref.eigenvalues
    h = _draw_h(n, rng, ref.eigenvectors, [0, index])
    alpha = projection_weights(ref.eigenvectors, h)

    ratio = lam[index] / lam[0]
    predicted = math.log(abs(ratio))

    # Measured side: project the renormalized iterate v_l on every
    # eigenvector.  The per-step norms cancel in the ratio against the
    # principal component, so alpha_i * alpha_1 * (proj_i / proj_1)
    # reproduces the term alpha_i^2 (lambda_i/lambda_1)^l from iteration
    # alone; only the two scalars come from the reference decomposition.
    terms_measured = []
    contributions = []
    for l, v in _renormalized_iterates(s, h, l_values):
        proj = projection_weights(ref.eigenvectors, v)
        term_i = float(alpha[index] * alpha[0] * proj[index] / proj[0])
        terms_measured.append(term_i)
        all_terms = alpha * alpha[0] * proj / proj[0]
        contributions.append((int(l), float(term_i / all_terms.sum())))

    ls = np.asarray(l_values, dtype=np.float64)
    log_terms = np.log(np.abs(np.asarray(terms_measured)))
    slope, _intercept = np.polyfit(ls, log_terms, 1)
    dev = abs(float(slope) - predicted)
    return ClaimReport(
        claim_id=3,
        measured=contributions,
        predicted=predicted,
        gap=dev,
        parameters={
            "n": n,
            "index": index,
            "seed": seed,
            "lambda_ratio": float(ratio),
            "fitted_slope": float(slope),
            "l_values": l_values,
        },
        verdict=bool(dev <= 1e-3),
    )


def _l_grid(l_max: int) -> list:
    """Dense early steps, strides later; always includes 0 and l_max."""
    if l_max < 0:
        raise ValueError("l_max must be non-negative")
    grid = set(range(0, min(l_max, 20) + 1))
    step = max(1, l_max // 40)
    grid.update(range(0, l_max + 1, step))
    grid.add(l_max)
    return sorted(grid)
