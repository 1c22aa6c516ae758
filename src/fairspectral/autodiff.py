"""Minimal reverse-mode differentiation over a fixed operation set.

Just enough machinery to train the models in this package: a Tensor wraps a
float64 array and remembers how it was produced; ``backward`` walks the tape
in reverse topological order and accumulates vector-Jacobian products into
every tensor marked as a parameter.  The op set is closed, small and dense:
matmul, add and elementwise multiply (both with numpy-style broadcasting),
column concat, relu, multi-head attention, layer norm, and a masked
cross-entropy head.  Anything a model needs must be phrased in these;
constant inputs such as propagated features are computed outside the graph.

Gradients for broadcast ops are reduced back to the parent shape by summing
the broadcast axes.  Graphs are built eagerly and are deterministic: the
same inputs produce bitwise identical values and gradients.
"""
from __future__ import annotations

import numpy as np


class Tensor:
    """Node in the computation graph.

    value: the forward result (float64 ndarray, any rank).  grad: filled by
    backward() for nodes on a path to a parameter.  Leaf tensors created
    with requires_grad=True are parameters; constants neither store nor
    propagate gradients, and subgraphs that cannot reach a parameter are
    pruned at construction time.
    """

    __slots__ = ("value", "grad", "_parents", "_vjps", "needs_grad")

    def __init__(self, value, requires_grad: bool = False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self._parents = ()
        self._vjps = ()
        self.needs_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.value.shape

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into .grad over the whole graph.

        self must be scalar (the training loss)."""
        if self.value.shape != ():
            raise ValueError("backward() starts from a scalar")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.needs_grad and id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones(())
        for node in reversed(order):
            if node.grad is None:
                continue
            for parent, vjp in zip(node._parents, node._vjps):
                if not parent.needs_grad:
                    continue
                contribution = vjp(node.grad)
                if parent.grad is None:
                    parent.grad = contribution.copy() if contribution.base is not None else contribution
                else:
                    parent.grad = parent.grad + contribution


def _node(value: np.ndarray, parents, vjps) -> Tensor:
    keep = [p.needs_grad for p in parents]
    out = Tensor(value)
    if any(keep):
        out.needs_grad = True
        out._parents = tuple(p for p, k in zip(parents, keep) if k)
        out._vjps = tuple(v for v, k in zip(vjps, keep) if k)
    return out


def constant(value) -> Tensor:
    return Tensor(value)


def parameter(value) -> Tensor:
    return Tensor(np.array(value, dtype=np.float64, copy=True), requires_grad=True)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad down to shape, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, d in enumerate(shape) if d == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.value + b.value,
        (a, b),
        (lambda g: _unbroadcast(g, a.value.shape), lambda g: _unbroadcast(g, b.value.shape)),
    )


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.value * b.value,
        (a, b),
        (
            lambda g: _unbroadcast(g * b.value, a.value.shape),
            lambda g: _unbroadcast(g * a.value, b.value.shape),
        ),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _node(
        a.value @ b.value,
        (a, b),
        (lambda g: g @ b.value.T, lambda g: a.value.T @ g),
    )


def concat_cols(a: Tensor, b: Tensor) -> Tensor:
    na = a.value.shape[1]
    return _node(
        np.concatenate([a.value, b.value], axis=1),
        (a, b),
        (lambda g: g[:, :na], lambda g: g[:, na:]),
    )


def relu(a: Tensor) -> Tensor:
    mask = a.value > 0.0
    return _node(a.value * mask, (a,), (lambda g: g * mask,))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int) -> Tensor:
    """Scaled dot-product self-attention, ``heads`` heads over equal column
    blocks: block h of the output is ``softmax(q_h k_h^T / sqrt(d_h)) v_h``.

    The backward keeps only each head's probabilities.  The scale multiplies
    the scores, not q, gh is a contiguous copy and dk is (q_h^T gs)^T: BLAS
    rounding can depend on each, and frozen training digests pin the bytes.
    """
    qv, kv, vv = q.value, k.value, v.value
    width = qv.shape[1]
    if heads < 1 or width % heads != 0:
        raise ValueError(f"heads ({heads}) must divide the width ({width})")
    d_head = width // heads
    c = 1.0 / np.sqrt(d_head)
    blocks = [slice(h * d_head, (h + 1) * d_head) for h in range(heads)]
    probs = []
    out = np.empty_like(vv)
    for b in blocks:
        p = qv[:, b] @ kv[:, b].T
        p *= c
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[:, b] = p @ vv[:, b]
        probs.append(p)
    memo = []

    def grads(g):
        """(dq, dk, dv), made on the first call for all three parents."""
        if not memo:
            dq, dk, dv = np.empty_like(qv), np.empty_like(kv), np.empty_like(vv)
            for b, p in zip(blocks, probs):
                gh = g[:, b].copy()
                dv[:, b] = p.T @ gh
                gs = gh @ vv[:, b].T
                gs -= (gs * p).sum(axis=-1, keepdims=True)
                gs *= p
                gs *= c
                dq[:, b] = gs @ kv[:, b]
                dk[:, b] = (qv[:, b].T @ gs).T
            memo.extend((dq, dk, dv))
        return memo

    return _node(out, (q, k, v), tuple(lambda g, i=i: grads(g)[i] for i in range(3)))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean, unit variance (1e-5 added to the
    variance), then affine."""
    mu = x.value.mean(axis=-1, keepdims=True)
    xc = x.value - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    out = gain.value * xhat + bias.value

    def vjp_x(g):
        gh = g * gain.value
        term = gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
        return term * inv

    def vjp_gain(g):
        return _unbroadcast(g * xhat, gain.value.shape)

    def vjp_bias(g):
        return _unbroadcast(g, bias.value.shape)

    return _node(out, (x, gain, bias), (vjp_x, vjp_gain, vjp_bias))


def cross_entropy_masked(logits: Tensor, labels: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log likelihood over the masked rows.

    Stable log-softmax; the loss of a confidently wrong row grows linearly
    in the logit margin instead of overflowing.
    """
    labels = np.asarray(labels, dtype=np.int64)
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise ValueError("mask selects no rows")
    z = logits.value
    m = z.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(z - m).sum(axis=1))
    picked = z[np.arange(z.shape[0]), labels]
    value = float(((lse - picked) * mask).sum() / count)

    def vjp(g):
        soft = np.exp(z - lse[:, None])
        soft[np.arange(z.shape[0]), labels] -= 1.0
        soft *= mask[:, None] / count
        return soft * g

    return _node(np.asarray(value), (logits,), (vjp,))
