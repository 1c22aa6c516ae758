"""Training loop, gradient oracles, and run bookkeeping.

The loop is plain full-batch Adam on a masked cross-entropy loss.  Every
epoch records train loss and validation accuracy plus fairness gaps, keeps
the parameter snapshot with the best validation accuracy (strictly better to
replace, so earlier epochs win ties), and stops once no improvement has been
seen for ``patience`` epochs.  A non-finite loss aborts the run immediately;
the partial history rides along on the exception so callers can inspect how
the run blew up.

``finite_difference_gradients`` is an independent oracle for the backward
pass: central differences of the loss with respect to every parameter entry.
It is slow by construction and intended for tests and verification runs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .autodiff import Tensor, cross_entropy_masked
from .metrics import accuracy, delta_eo, delta_sp, predict, report_json
from .model import ModelParams

__all__ = [
    "TrainConfig",
    "TrainHistory",
    "TrainingDivergedError",
    "train",
    "params_digest",
    "backward_gradients",
    "finite_difference_gradients",
]


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; carries the history recorded up to the abort."""

    def __init__(self, epoch: int, loss: float, history: "TrainHistory"):
        super().__init__(f"loss became non-finite at epoch {epoch}: {loss}")
        self.epoch = epoch
        self.history = history


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 1000
    lr: float = 0.01
    weight_decay: float = 5e-4
    patience: int = 100

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if not self.weight_decay >= 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainHistory:
    """Per-epoch traces plus the identity of the selected snapshot."""

    train_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    val_delta_sp: list[float] = field(default_factory=list)
    val_delta_eo: list[float] = field(default_factory=list)
    best_epoch: int = -1
    best_val_accuracy: float = -1.0
    snapshot_id: str = ""

    @property
    def epochs_run(self) -> int:
        return len(self.train_loss)

    def to_json(self) -> str:
        return report_json({**asdict(self), "epochs_run": self.epochs_run}, sort_keys=False)


def params_digest(params: ModelParams) -> str:
    """Content hash of every parameter array, stable across runs."""
    h = hashlib.sha256()
    for name, t in params.named_tensors():
        h.update(name.encode())
        h.update(str(t.value.shape).encode())
        h.update(np.ascontiguousarray(t.value).tobytes())
    return h.hexdigest()


def _zero_grads(params: ModelParams) -> None:
    for _, t in params.named_tensors():
        t.grad = None


def backward_gradients(loss: Tensor, params: ModelParams) -> dict[str, np.ndarray]:
    """Run backward from ``loss`` and collect per-parameter gradients."""
    _zero_grads(params)
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


class _Adam:
    """Adam with L2 regularization folded into the gradient."""

    def __init__(self, tensors: list[Tensor], lr: float, weight_decay: float):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = 0.9
        self.beta2 = 0.999
        self.eps = 1e-8
        self.t = 0
        self.m = [np.zeros_like(t.value) for t in tensors]
        self.v = [np.zeros_like(t.value) for t in tensors]

    def step(self) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for i, tensor in enumerate(self.tensors):
            g = tensor.grad
            if g is None:
                continue
            if self.weight_decay:
                g = g + self.weight_decay * tensor.value
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            tensor.value = tensor.value - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def train(
    params: ModelParams,
    forward: Callable[[ModelParams], Tensor],
    labels: np.ndarray,
    sensitive: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    config: TrainConfig | None = None,
) -> TrainHistory:
    """Fit ``params`` in place; returns the recorded history.

    ``forward`` maps the current parameters to logits for every node; it is
    called once per epoch and once more after the best snapshot is restored.
    On return ``params`` holds the snapshot from ``history.best_epoch``.
    """
    if config is None:
        config = TrainConfig()
    if not train_mask.any():
        raise ValueError("training mask selects no nodes")
    history = TrainHistory()
    tensors = [t for _, t in params.named_tensors()]
    opt = _Adam(tensors, config.lr, config.weight_decay)
    best_arrays: list[np.ndarray] | None = None

    for epoch in range(config.max_epochs):
        logits = forward(params)
        loss = cross_entropy_masked(logits, labels, train_mask)
        loss_val = float(loss.value)
        if not math.isfinite(loss_val):
            raise TrainingDivergedError(epoch, loss_val, history)

        pred = predict(logits.value)
        history.train_loss.append(loss_val)
        history.val_accuracy.append(accuracy(pred, labels, val_mask))
        history.val_delta_sp.append(delta_sp(pred, sensitive, val_mask))
        history.val_delta_eo.append(delta_eo(pred, labels, sensitive, val_mask))

        if history.val_accuracy[-1] > history.best_val_accuracy:
            history.best_val_accuracy = history.val_accuracy[-1]
            history.best_epoch = epoch
            best_arrays = [t.value.copy() for t in tensors]
        elif epoch - history.best_epoch >= config.patience:
            break

        _zero_grads(params)
        loss.backward()
        opt.step()

    if best_arrays is not None:
        for t, arr in zip(tensors, best_arrays):
            t.value = arr
    history.snapshot_id = params_digest(params)
    return history
