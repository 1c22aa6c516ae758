"""Spans around fairspectral's public functions, recorded from outside.

``install`` replaces each traced function at the name its caller looks up
(``fairspectral.cli.generate_sbm``, ``fairspectral.eigen.dense_symmetric_eig``,
``CsrMatrix.matvec``, ...) with a wrapper that records a span: name, start,
end, parent.  Spans stay in memory; ``layer_metrics`` folds one round's
spans into the per-layer figures and ``dump`` writes them out at the end.
Nothing inside the package is changed on disk.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, attrs]
        self._stack: list[int] = []

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, attrs or {}])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name, attrs=None, after=None) -> None:
        """Replace owner.attr by a span-recording wrapper.

        name may be a function of the call's arguments; attrs(args) is
        recorded at entry and after(args, result) at exit."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            idx = tracer.open(label, attrs(args) if attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                tracer.spans[idx][4].update(after(args, result))
            return result

        setattr(owner, attr, wrapper)

    def dump(self, path, header: dict) -> None:
        keys = ("name", "start", "end", "parent", "attrs")
        doc = {**header, "spans": [dict(zip(keys, s)) for s in self.spans]}
        Path(path).write_text(json.dumps(doc) + "\n")


def _argv_value(argv, flag: str, default: str) -> str:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _cli_name(args) -> str:
    argv = list(args[0])
    if argv[0] == "train":
        return "cli.train." + _argv_value(argv, "--model", "spectral")
    return "cli." + argv[0]


def _cli_after(args, result) -> dict:
    argv = list(args[0])
    if argv[0] != "gen":
        return {}
    root = Path(_argv_value(argv, "--out", "data"))
    return {"bytes": sum(os.path.getsize(root / f) for f in ("edges.txt", "nodes.csv", "splits.json"))}


def _csr_attrs(args) -> dict:
    a, x = args[0], args[1]
    return {"nnz": a.nnz, "n": a.n, "cols": 1 if getattr(x, "ndim", 1) == 1 else x.shape[1]}


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary.  Call once, after the untraced round."""
    # The package re-exports the function train over its module of that
    # name, so modules are taken from the import system, not as attributes.
    autodiff, cli, convergence, eigen, sparse, train = (
        importlib.import_module("fairspectral." + m)
        for m in ("autodiff", "cli", "convergence", "eigen", "sparse", "train"))

    tracer.wrap(cli, "main", _cli_name, after=_cli_after)
    for attr in ("generate_sbm", "make_splits", "load_graph", "normalize"):
        tracer.wrap(cli, attr, "graph." + attr)
    for owner in (cli, eigen):
        tracer.wrap(owner, "top_k_eigenpairs", "eigen.lanczos")
    tracer.wrap(eigen, "dense_symmetric_eig", "eigen.dense")
    tracer.wrap(cli, "save_basis", "eigen.save_basis",
                after=lambda args, _: {"bytes": os.path.getsize(args[1])})
    tracer.wrap(sparse.CsrMatrix, "matvec", "sparse.matvec", attrs=_csr_attrs)
    tracer.wrap(sparse.CsrMatrix, "matmat", "sparse.matmat", attrs=_csr_attrs)
    tracer.wrap(cli, "train", "train.train")
    tracer.wrap(cli, "forward_spectral", "model.forward_spectral")
    tracer.wrap(cli, "forward_propagation", "model.forward_propagation")
    tracer.wrap(train, "cross_entropy_masked", "autodiff.loss")
    tracer.wrap(autodiff.Tensor, "backward", "autodiff.backward")
    for attr in ("predict", "accuracy", "delta_sp", "delta_eo"):
        tracer.wrap(train, attr, "metrics.epoch")
    tracer.wrap(cli, "evaluate", "metrics.evaluate")
    tracer.wrap(convergence, "similarity_trace", "convergence.similarity_trace")


# Names of the per-layer metrics, with their units, in report order.
LAYER_METRICS = {
    "sparse.matvec.calls": "count", "sparse.matvec.s": "s", "sparse.matvec.gbps_computed": "GB/s",
    "sparse.matmat.calls": "count", "sparse.matmat.s": "s", "sparse.matmat.gbps_computed": "GB/s",
    "eigen.lanczos.s": "s", "eigen.lanczos.matvecs": "count", "eigen.lanczos.restarts": "count",
    "eigen.lanczos.small_eig_s": "s", "eigen.lanczos.self_s": "s",
    "eigen.dense.calls": "count", "eigen.dense.s": "s",
    "eigen.save_basis.s": "s", "eigen.save_basis.bytes": "bytes",
    "graph.generate_sbm.s": "s", "graph.load_graph.s": "s", "graph.normalize.s": "s",
    "graph.make_splits.s": "s",
    "cli.gen.self_s": "s", "cli.gen.bytes_written": "bytes",
    "cli.train.spectral.s": "s", "cli.train.propagation.s": "s",
    "autodiff.backward.calls": "count", "autodiff.backward.s": "s",
    "model.forward_spectral.calls": "count", "model.forward_spectral.s": "s",
    "model.forward_propagation.calls": "count", "model.forward_propagation.s": "s",
    "train.epochs": "count", "train.spectral.epoch_ms": "ms", "train.propagation.epoch_ms": "ms",
    "train.self_s": "s", "metrics.per_epoch_s": "s",
    "convergence.similarity_trace.s": "s",
    "trace.overhead_s": "s",
}


def _computed_bytes(attrs: dict) -> int:
    """Bytes a CSR product must touch at least: values and column indices
    (8 bytes each per stored entry), row pointers, one gathered input row of
    `cols` floats per stored entry, and the output."""
    nnz, n, cols = attrs["nnz"], attrs["n"], attrs["cols"]
    return 16 * nnz + 8 * (n + 1) + 8 * cols * nnz + 8 * cols * n


def layer_metrics(spans: list[list], lo: int, hi: int) -> tuple[dict, float]:
    """Per-layer figures for spans[lo:hi], one round whose root span is
    spans[lo].  Also returns the sum of all self times minus the root's
    duration, which is zero when the spans nest properly."""
    dur = [0.0] * hi
    child = [0.0] * hi
    for i in range(lo, hi):
        dur[i] = spans[i][2] - spans[i][1]
        if spans[i][3] >= lo:
            child[spans[i][3]] += dur[i]

    def ancestors(i):
        p = spans[i][3]
        while p >= lo:
            yield spans[p][0]
            p = spans[p][3]

    m = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in LAYER_METRICS.items()}
    moved = {"sparse.matvec": 0, "sparse.matmat": 0}
    epochs = {"spectral": [], "propagation": []}
    for i in range(lo, hi):
        name = spans[i][0]
        self_s = dur[i] - child[i]
        up = list(ancestors(i))
        if name in moved:
            m[name + ".calls"] += 1
            m[name + ".s"] += dur[i]
            moved[name] += _computed_bytes(spans[i][4])
            if name == "sparse.matvec" and "eigen.lanczos" in up:
                m["eigen.lanczos.matvecs"] += 1
        elif name == "eigen.lanczos":
            if "eigen.lanczos" not in up:
                m["eigen.lanczos.s"] += dur[i]
            m["eigen.lanczos.self_s"] += self_s
        elif name == "eigen.dense":
            if "eigen.lanczos" in up:
                m["eigen.lanczos.restarts"] += 1
                m["eigen.lanczos.small_eig_s"] += dur[i]
            else:
                m["eigen.dense.calls"] += 1
                m["eigen.dense.s"] += dur[i]
        elif name == "eigen.save_basis":
            m["eigen.save_basis.s"] += dur[i]
            m["eigen.save_basis.bytes"] += spans[i][4]["bytes"]
        elif name.startswith("graph."):
            m[name + ".s"] += dur[i]
        elif name == "cli.gen":
            m["cli.gen.self_s"] += self_s
            m["cli.gen.bytes_written"] += spans[i][4]["bytes"]
        elif name.startswith("cli.train."):
            m[name + ".s"] += dur[i]
        elif name == "autodiff.backward":
            m["autodiff.backward.calls"] += 1
            m["autodiff.backward.s"] += dur[i]
        elif name.startswith("model."):
            m[name + ".calls"] += 1
            m[name + ".s"] += dur[i]
        elif name == "train.train":
            m["train.self_s"] += self_s
            model = spans[spans[i][3]][0].rsplit(".", 1)[1]
            # One forward per epoch marks where each epoch starts.
            starts = [spans[j][1] for j in range(i + 1, hi)
                      if spans[j][3] == i and spans[j][0].startswith("model.")]
            m["train.epochs"] += len(starts)
            epochs[model] += [b - a for a, b in zip(starts, starts[1:] + [spans[i][2]])]
        elif name == "metrics.epoch" and "train.train" in up:
            m["metrics.per_epoch_s"] += dur[i]
        elif name == "convergence.similarity_trace":
            m["convergence.similarity_trace.s"] += dur[i]
    for kind in moved:
        secs = m[kind + ".s"]
        m[kind + ".gbps_computed"] = moved[kind] / secs / 1e9 if secs > 0 else 0.0
    for model, times in epochs.items():
        m[f"train.{model}.epoch_ms"] = 1e3 * statistics.median(times) if times else 0.0
    imbalance = sum(dur[i] - child[i] for i in range(lo, hi)) - dur[lo]
    return m, imbalance
