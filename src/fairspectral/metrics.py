"""Accuracy and group-fairness metrics for binary-sensitive node tasks.

Group metrics compare positive-prediction rates between the two sensitive
groups.  ``delta_sp`` is the absolute gap in overall positive rate;
``delta_eo`` is the same gap restricted to nodes whose true label is
positive.  A gap is undefined when one of its groups is empty on the
evaluated mask; undefined values are reported as NaN and serialized as
null so downstream tooling cannot mistake them for a zero gap.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

__all__ = [
    "predict",
    "accuracy",
    "positive_rate",
    "delta_sp",
    "delta_eo",
    "FairnessReport",
    "evaluate",
    "report_json",
]


def _plain(x):
    """x with tuples as lists and every NaN float (np.float64 included) as None."""
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return None if isinstance(x, float) and math.isnan(x) else x


def report_json(doc: dict, sort_keys: bool) -> str:
    """doc as indented JSON in which every NaN float, an undefined value,
    is null: the bare NaN token json.dumps would write is not JSON."""
    return json.dumps(_plain(doc), indent=2, sort_keys=sort_keys)


def predict(logits: np.ndarray) -> np.ndarray:
    """Class with the largest logit per row; ties go to the lower index."""
    logits = np.asarray(logits)
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-d, got shape {logits.shape}")
    return np.argmax(logits, axis=1)


def _as_mask(mask: np.ndarray | None, n: int) -> np.ndarray:
    if mask is None:
        return np.ones(n, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (n,):
        raise ValueError(f"mask shape {mask.shape} does not match n={n}")
    return mask


def accuracy(pred: np.ndarray, labels: np.ndarray, mask: np.ndarray | None = None) -> float:
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    m = _as_mask(mask, pred.shape[0])
    if not m.any():
        return math.nan
    return float(np.mean(pred[m] == labels[m]))


def positive_rate(pred: np.ndarray, select: np.ndarray) -> float:
    """Fraction of selected nodes predicted positive; NaN if none selected."""
    if not select.any():
        return math.nan
    return float(np.mean(pred[select] == 1))


def delta_sp(pred: np.ndarray, sensitive: np.ndarray, mask: np.ndarray | None = None) -> float:
    """Absolute gap in positive-prediction rate between sensitive groups."""
    pred = np.asarray(pred)
    sensitive = np.asarray(sensitive)
    m = _as_mask(mask, pred.shape[0])
    r0 = positive_rate(pred, m & (sensitive == 0))
    r1 = positive_rate(pred, m & (sensitive == 1))
    return abs(r0 - r1)


def delta_eo(
    pred: np.ndarray,
    labels: np.ndarray,
    sensitive: np.ndarray,
    mask: np.ndarray | None = None,
) -> float:
    """Same gap as ``delta_sp`` restricted to truly positive nodes."""
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    sensitive = np.asarray(sensitive)
    m = _as_mask(mask, pred.shape[0]) & (labels == 1)
    r0 = positive_rate(pred, m & (sensitive == 0))
    r1 = positive_rate(pred, m & (sensitive == 1))
    return abs(r0 - r1)


@dataclass(frozen=True)
class FairnessReport:
    """Joint accuracy / fairness summary on one evaluation mask."""

    accuracy: float
    delta_sp: float
    delta_eo: float
    n_evaluated: int
    group_counts: dict[str, int]

    def to_json(self) -> str:
        return report_json(asdict(self), sort_keys=True)


def evaluate(
    logits: np.ndarray,
    labels: np.ndarray,
    sensitive: np.ndarray,
    mask: np.ndarray | None = None,
) -> FairnessReport:
    pred = predict(logits)
    m = _as_mask(mask, pred.shape[0])
    counts = {
        "s0": int(np.sum(m & (sensitive == 0))),
        "s1": int(np.sum(m & (sensitive == 1))),
        "s0_pos": int(np.sum(m & (sensitive == 0) & (labels == 1))),
        "s1_pos": int(np.sum(m & (sensitive == 1) & (labels == 1))),
    }
    return FairnessReport(
        accuracy=accuracy(pred, labels, m),
        delta_sp=delta_sp(pred, sensitive, m),
        delta_eo=delta_eo(pred, labels, sensitive, m),
        n_evaluated=int(m.sum()),
        group_counts=counts,
    )
