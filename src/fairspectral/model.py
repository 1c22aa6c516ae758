"""Spectral graph model with a learned spectrum modulation.

The model filters node features through a truncated eigenbasis of the
normalized adjacency operator.  Instead of a fixed polynomial filter, the
per-eigenvalue response is produced by a small attention block that reads a
sinusoidal encoding of the spectrum, so the filter can depend on the global
shape of the spectrum rather than on each eigenvalue in isolation.

Two forward passes are provided:

* ``forward_spectral``: encode spectrum -> modulate -> filter features in the
  eigenbasis -> convolution layers on the concatenation of raw and filtered
  features -> linear classifier.
* ``forward_propagation``: a reference smoothing model, two linear maps
  applied to features that ``propagate_features`` has already mixed with the
  operator, ``Z <- (1 - theta) * S Z + theta * X``.  The model is linear in
  its input map, so the sparse work runs once per graph, not once per pass.

Both passes are built from :mod:`fairspectral.autodiff` ops, so the same code
path serves training (parameters track gradients) and inference (parameters
are plain constants).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .eigen import SpectralBasis
from .sparse import CsrMatrix

__all__ = [
    "AttentionParams",
    "ModelParams",
    "sinusoidal_encode",
    "modulate_spectrum",
    "spectral_transform",
    "forward_spectral",
    "forward_propagation",
    "propagate_features",
    "init_spectral_params",
    "init_propagation_params",
]


def sinusoidal_encode(eigenvalues: np.ndarray, d_encode: int) -> np.ndarray:
    """Encode eigenvalues as interleaved sin/cos features.

    Pair ``i`` of the output uses angular frequency ``10000**(-2 i / d_encode)``
    so nearby eigenvalues get nearby codes at every scale.  ``d_encode`` must
    be even.  Returns an array of shape ``(len(eigenvalues), d_encode)``.
    """
    if d_encode <= 0 or d_encode % 2 != 0:
        raise ValueError(f"d_encode must be a positive even integer, got {d_encode}")
    lam = np.asarray(eigenvalues, dtype=np.float64).reshape(-1, 1)
    i = np.arange(d_encode // 2, dtype=np.float64)
    angles = lam / (10000.0 ** (2.0 * i / d_encode))
    out = np.empty((lam.shape[0], d_encode))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return out


@dataclass
class AttentionParams:
    """Parameters of the spectrum-modulation block.

    Layout: pre-norm multi-head self-attention with a residual, then a
    pre-norm two-layer feed-forward with a residual, then a linear map from
    the encoding width down to one scalar response per eigenvalue.
    """

    ln1_gain: Tensor
    ln1_bias: Tensor
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor
    ffn_w1: Tensor
    ffn_w2: Tensor
    proj_w: Tensor
    proj_b: Tensor
    n_heads: int = 2


@dataclass
class ModelParams:
    """All trainable arrays of either model variant.

    ``attention`` is ``None`` for the propagation model, which has no
    spectrum to modulate.  ``conv_weights`` is empty for the propagation
    model as well; its only maps are ``input_map`` and ``classifier``.
    ``named_tensors`` is the one parameter order that hashing, gradient
    collection and the optimizer share.
    """

    input_map: Tensor
    classifier: Tensor
    conv_weights: list[Tensor] = field(default_factory=list)
    attention: AttentionParams | None = None

    def named_tensors(self) -> Iterator[tuple[str, Tensor]]:
        """(name, tensor) pairs in a fixed order: ``input_map``, the
        attention tensors as ``attention.<field>`` in declaration order,
        ``conv.<i>``, then ``classifier``."""
        yield "input_map", self.input_map
        if self.attention is not None:
            for f in fields(self.attention):
                t = getattr(self.attention, f.name)
                if isinstance(t, Tensor):
                    yield "attention." + f.name, t
        for i, w in enumerate(self.conv_weights):
            yield f"conv.{i}", w
        yield "classifier", self.classifier


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int,
            shape: tuple[int, ...] | None = None) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    if shape is None:
        shape = (fan_in, fan_out)
    return rng.uniform(-bound, bound, size=shape)


def init_spectral_params(
    rng: np.random.Generator,
    d_in: int,
    d_hidden: int,
    n_classes: int,
    n_layers: int,
    d_encode: int,
    n_heads: int = 2,
) -> ModelParams:
    """Xavier-uniform weights, unit norm gains, zero biases.  The
    feed-forward stage of the attention block is ``2 * d_encode`` wide."""
    if d_hidden < 1:
        raise ValueError(f"d_hidden must be >= 1, got {d_hidden}")
    if n_layers < 1:
        raise ValueError(f"n_layers must be >= 1, got {n_layers}")
    if d_encode % 2 != 0 or d_encode <= 0:
        raise ValueError(f"d_encode must be a positive even integer, got {d_encode}")
    if n_heads < 1 or d_encode % n_heads != 0:
        raise ValueError(
            f"n_heads ({n_heads}) must be a positive divisor of d_encode ({d_encode})"
        )
    p = ad.parameter
    attention = AttentionParams(
        ln1_gain=p(np.ones(d_encode)),
        ln1_bias=p(np.zeros(d_encode)),
        wq=p(_xavier(rng, d_encode, d_encode)),
        wk=p(_xavier(rng, d_encode, d_encode)),
        wv=p(_xavier(rng, d_encode, d_encode)),
        wo=p(_xavier(rng, d_encode, d_encode)),
        ln2_gain=p(np.ones(d_encode)),
        ln2_bias=p(np.zeros(d_encode)),
        ffn_w1=p(_xavier(rng, d_encode, 2 * d_encode)),
        ffn_w2=p(_xavier(rng, 2 * d_encode, d_encode)),
        proj_w=p(_xavier(rng, d_encode, 1)),
        proj_b=p(np.zeros(1)),
        n_heads=n_heads,
    )
    conv = [
        p(_xavier(rng, 2 * d_hidden, d_hidden))
        for _ in range(n_layers)
    ]
    return ModelParams(
        input_map=p(_xavier(rng, d_in, d_hidden)),
        classifier=p(_xavier(rng, d_hidden, n_classes)),
        conv_weights=conv,
        attention=attention,
    )


def init_propagation_params(
    rng: np.random.Generator,
    d_in: int,
    d_hidden: int,
    n_classes: int,
) -> ModelParams:
    if d_hidden < 1:
        raise ValueError(f"d_hidden must be >= 1, got {d_hidden}")
    return ModelParams(
        input_map=ad.parameter(_xavier(rng, d_in, d_hidden)),
        classifier=ad.parameter(_xavier(rng, d_hidden, n_classes)),
    )


def modulate_spectrum(params: AttentionParams, encoding: np.ndarray) -> Tensor:
    """Map an eigenvalue encoding ``(K, d_encode)`` to responses ``(K, 1)``.

    Pre-norm transformer block: the attention stage mixes information across
    the K eigenvalues, the feed-forward stage transforms each row, and the
    final projection reads out one scalar per eigenvalue.
    """
    x = ad.constant(encoding)
    normed = ad.layer_norm(x, params.ln1_gain, params.ln1_bias)
    q = ad.matmul(normed, params.wq)
    k = ad.matmul(normed, params.wk)
    v = ad.matmul(normed, params.wv)
    mixed = ad.attention(q, k, v, params.n_heads)
    attended = ad.add(ad.matmul(mixed, params.wo), x)

    normed2 = ad.layer_norm(attended, params.ln2_gain, params.ln2_bias)
    ffn = ad.matmul(ad.relu(ad.matmul(normed2, params.ffn_w1)), params.ffn_w2)
    refined = ad.add(ffn, attended)

    return ad.add(ad.matmul(refined, params.proj_w), params.proj_b)


def spectral_transform(basis: SpectralBasis, modulation: Tensor, h: Tensor) -> Tensor:
    """Filter ``h`` in the eigenbasis: ``P (e * (P^T h))``.

    ``modulation`` has shape ``(K, 1)`` and scales the K basis coefficients
    of every feature column.  The result always lies in the span of the
    retained eigenvectors, so its rank is at most K.
    """
    coeffs = ad.matmul(ad.constant(basis.eigenvectors_t), h)
    return ad.matmul(ad.constant(basis.eigenvectors), ad.mul(modulation, coeffs))


def forward_spectral(
    params: ModelParams,
    basis: SpectralBasis,
    features: np.ndarray,
) -> Tensor:
    """Logits of the spectral model, shape ``(n, n_classes)``.

    The eigenvalues are encoded at the width of the attention parameters.
    Each convolution layer concatenates the current representation with its
    filtered image and applies a relu-activated linear map, so the raw
    (unsmoothed) channel survives to the classifier alongside the filtered
    one.
    """
    if params.attention is None:
        raise ValueError("spectral forward requires attention parameters")
    d_encode = params.attention.ln1_gain.value.shape[0]
    encoding = sinusoidal_encode(basis.eigenvalues, d_encode)
    modulation = modulate_spectrum(params.attention, encoding)

    h = ad.relu(ad.matmul(ad.constant(features), params.input_map))
    for w in params.conv_weights:
        filtered = spectral_transform(basis, modulation, h)
        h = ad.relu(ad.matmul(ad.concat_cols(h, filtered), w))
    return ad.matmul(h, params.classifier)


def propagate_features(
    operator: CsrMatrix,
    features: np.ndarray,
    n_steps: int = 10,
    theta: float = 0.1,
) -> np.ndarray:
    """Features of the smoothing reference model, computed once per graph.

    ``Z <- (1 - theta) * S Z + theta * X`` repeated ``n_steps`` times from
    ``Z = X``; ``theta`` is the restart weight that keeps a fraction of the
    unsmoothed features in the mix.  Propagating ``X`` and then mapping by
    ``W`` equals propagating ``X W``, because every step is linear.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if n_steps < 0:
        raise ValueError(f"n_steps must be >= 0, got {n_steps}")
    x = np.asarray(features, dtype=np.float64)
    z = x
    for _ in range(n_steps):
        z = operator.matmat(z) * (1.0 - theta) + x * theta
    return z


def forward_propagation(params: ModelParams, propagated: np.ndarray) -> Tensor:
    """Logits of the smoothing reference model, ``(Z W) C``.

    ``propagated`` is the output of ``propagate_features`` on this graph.
    """
    h = ad.matmul(ad.constant(propagated), params.input_map)
    return ad.matmul(h, params.classifier)
