"""Gradient oracles for the tests: the autodiff backward pass, read out per
parameter, and central differences of the loss, which share none of its
code.  The difference quotient is slow by construction."""

from __future__ import annotations

from typing import Callable

import numpy as np

from fairspectral.autodiff import Tensor
from fairspectral.model import ModelParams


def backward_gradients(loss: Tensor, params: ModelParams) -> dict[str, np.ndarray]:
    """Run backward from ``loss`` and collect per-parameter gradients."""
    for _, t in params.named_tensors():
        t.grad = None
    loss.backward()
    return {name: np.zeros_like(t.value) if t.grad is None else np.array(t.grad)
            for name, t in params.named_tensors()}


def finite_difference_gradients(
    loss_fn: Callable[[], Tensor],
    params: ModelParams,
) -> dict[str, np.ndarray]:
    """Central-difference gradients of ``loss_fn`` for every parameter entry,
    with step 1e-5.

    ``loss_fn`` must rebuild the graph from the current parameter values on
    each call; entries are perturbed in place and always restored.
    """
    step = 1e-5
    out = {}
    for name, t in params.named_tensors():
        arr = t.value
        grad = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + step
            hi = float(loss_fn().value)
            arr[ix] = orig - step
            lo = float(loss_fn().value)
            arr[ix] = orig
            grad[ix] = (hi - lo) / (2.0 * step)
        out[name] = grad
    return out
