"""Output checks that share no code with fairspectral.

Every check reads the files a command wrote (or the arrays an API call
returned) and compares them with a computation made here from plain numpy,
from the file formats and rules the package documents:

* ``read_fsb1`` parses the FSB1 basis container from its documented layout;
* ``sym_operator`` / ``weighted_operator`` apply D^{-1/2}(A+I)D^{-1/2}, or a
  weighted adjacency, built straight from an edge list;
* ``recount_groups`` recounts the test-set sensitive groups from
  ``nodes.csv`` and ``splits.json``;
* ``numpy.linalg.eigvalsh`` is the eigenvalue reference where n <= 2000.

A check returns a list of error strings, each starting with a tag such as
``residual:`` or ``group_counts:``; an empty list means the output passed.
``self_check`` proves on small hand-made artifacts that each check accepts
a valid output and rejects a corrupted one.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-10
UNIT_TOL = 1e-10
REFERENCE_TOL = 1e-9
REFERENCE_MAX_N = 2000
# Near-tied magnitudes may be ordered positive-first (the package's tie rule
# treats magnitudes within 1e-12 relative as equal).
ORDER_TOL = 1e-12


# --------------------------------------------------------------------------
# Readers

def read_fsb1(path) -> tuple[np.ndarray, np.ndarray]:
    """FSB1 layout: b"FSB1", uint64 n and K (little-endian), K float64
    eigenvalues, then the n-by-K eigenvector matrix column-major."""
    data = Path(path).read_bytes()
    if data[:4] != b"FSB1":
        raise ValueError(f"bad magic {data[:4]!r}")
    n, k = struct.unpack("<QQ", data[4:20])
    body = data[20:]
    if len(body) != 8 * (k + n * k):
        raise ValueError(f"payload {len(body)} bytes, expected {8 * (k + n * k)}")
    vals = np.frombuffer(body[: 8 * k], dtype="<f8").astype(np.float64)
    vecs = np.frombuffer(body[8 * k:], dtype="<f8").reshape((n, k), order="F").astype(np.float64)
    return vals, vecs


def write_fsb1(path, vals: np.ndarray, vecs: np.ndarray) -> None:
    """Writer for the self-check's hand-made bases."""
    n, k = vecs.shape
    with open(path, "wb") as fh:
        fh.write(b"FSB1" + struct.pack("<QQ", n, k))
        fh.write(np.asarray(vals, dtype="<f8").tobytes())
        fh.write(np.asarray(vecs, dtype="<f8").flatten(order="F").tobytes())


def read_edges(path) -> np.ndarray:
    """(m, 2) integer array of the "u v" lines of an edge file."""
    tokens = Path(path).read_text(encoding="utf-8").split()
    if len(tokens) % 2:
        raise ValueError("edge file has an odd number of ids")
    return np.array(tokens, dtype=np.int64).reshape(-1, 2)


def read_nodes(path) -> tuple[np.ndarray, np.ndarray]:
    """(sensitive, label) columns of a nodes.csv written by ``gen``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return (table[:, header.index("sensitive")].astype(np.int64),
            table[:, header.index("label")].astype(np.int64))


def read_splits(path) -> dict:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return {"n": int(doc["n"]),
            **{name: np.asarray(doc[name], dtype=np.int64) for name in ("train", "val", "test")}}


# --------------------------------------------------------------------------
# Operators

def _spmm(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """(A x) for the symmetric A holding weight w at (u, v) and (v, u)."""
    out = np.empty_like(x)
    for c in range(x.shape[1]):
        out[:, c] = (np.bincount(u, weights=w * x[v, c], minlength=n)
                     + np.bincount(v, weights=w * x[u, c], minlength=n))
    return out


def sym_operator(edges: np.ndarray, n: int):
    """x -> D^{-1/2}(A+I)D^{-1/2} x for an unweighted simple edge list."""
    u, v = edges[:, 0], edges[:, 1]
    ones = np.ones(u.shape[0])
    dinv = 1.0 / np.sqrt(np.bincount(u, minlength=n) + np.bincount(v, minlength=n) + 1.0)

    def apply(x: np.ndarray) -> np.ndarray:
        y = dinv[:, None] * x
        return dinv[:, None] * (_spmm(u, v, ones, n, y) + y)

    return apply


def weighted_operator(u: np.ndarray, v: np.ndarray, w: np.ndarray, n: int):
    """x -> A x with A[u, v] = A[v, u] = w, repeated pairs summed."""
    return lambda x: _spmm(u, v, w, n, x)


def sym_dense(edges: np.ndarray, n: int) -> np.ndarray:
    a = np.eye(n)
    a[edges[:, 0], edges[:, 1]] = 1.0
    a[edges[:, 1], edges[:, 0]] = 1.0
    dinv = 1.0 / np.sqrt(a.sum(axis=1))
    return dinv[:, None] * a * dinv[None, :]


class ReferenceSpectra:
    """eigvalsh of the sym operator, cached by the edge file's content, so a
    graph that repeats from round to round is decomposed once per run."""

    def __init__(self):
        self._cache: dict[str, np.ndarray] = {}

    def get(self, edge_path, edges: np.ndarray, n: int) -> np.ndarray:
        key = hashlib.sha256(Path(edge_path).read_bytes()).hexdigest() + f":{n}"
        if key not in self._cache:
            self._cache[key] = np.linalg.eigvalsh(sym_dense(edges, n))
        return self._cache[key]


# --------------------------------------------------------------------------
# Checks

def check_graph(graph_dir, n: int, p_in: float, p_out: float) -> list[str]:
    """Edges in range, no self loops or duplicates, block edge counts within
    6 sigma of their binomial means, class-stratified disjoint splits."""
    root = Path(graph_dir)
    errors = []
    edges = read_edges(root / "edges.txt")
    u, v = edges[:, 0], edges[:, 1]
    if edges.size and (edges.min() < 0 or edges.max() >= n):
        errors.append("edges: id out of range")
    if np.any(u == v):
        errors.append("edges: self loop")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if np.unique(lo * n + hi).size != u.size:
        errors.append("edges: duplicate edge")
    # The generator puts nodes [0, n//2) in one block and the rest in the other.
    half = n // 2
    same = (u < half) == (v < half)
    pairs_in = half * (half - 1) // 2 + (n - half) * (n - half - 1) // 2
    pairs_out = half * (n - half)
    for what, count, pairs, p in (("in-block", int(same.sum()), pairs_in, p_in),
                                  ("cross-block", int((~same).sum()), pairs_out, p_out)):
        mean = pairs * p
        sd = math.sqrt(pairs * p * (1.0 - p))
        if abs(count - mean) > 6.0 * sd:
            errors.append(f"edge_counts: {what} {count} vs mean {mean:.1f} (sd {sd:.1f})")

    sensitive, labels = read_nodes(root / "nodes.csv")
    if labels.shape != (n,):
        errors.append(f"nodes: {labels.shape[0]} rows, expected {n}")
        return errors
    if not (np.isin(sensitive, (0, 1)).all() and np.isin(labels, (0, 1)).all()):
        errors.append("nodes: non-binary sensitive or label column")
    splits = read_splits(root / "splits.json")
    every = np.concatenate([splits["train"], splits["val"], splits["test"]])
    if splits["n"] != n or (every.size and (every.min() < 0 or every.max() >= n)):
        errors.append("splits: size or index out of range")
        return errors
    if np.unique(every).size != every.size:
        errors.append("splits: not disjoint")
    # Stratified rule: per class, floor(c/4) to validation and to test, and
    # min(c//2, 500) of the remainder to training.
    for cls in (0, 1):
        c = int(np.sum(labels == cls))
        want = {"val": c // 4, "test": c // 4}
        want["train"] = min(c // 2, 500, c - 2 * (c // 4))
        for name, size in want.items():
            got = int(np.sum(labels[splits[name]] == cls))
            if got != size:
                errors.append(f"splits: class {cls} has {got} {name} nodes, expected {size}")
    return errors


def check_basis(vals: np.ndarray, vecs: np.ndarray, apply, k: int, sym: bool,
                reference: np.ndarray | None = None) -> list[str]:
    """Residuals against the independent operator, orthonormality,
    magnitude order, the sym-mode unit top, and agreement with a full
    reference spectrum when one is given."""
    errors = []
    if vecs.ndim != 2 or vals.shape != (k,) or vecs.shape[1] != k:
        return [f"shape: eigenvalues {vals.shape}, eigenvectors {vecs.shape}, k={k}"]
    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))):
        return ["finite: non-finite entries"]
    resid = np.linalg.norm(apply(vecs) - vecs * vals, axis=0)
    if resid.max() > RESIDUAL_TOL:
        errors.append(f"residual: max {resid.max():.3e}")
    ortho = np.linalg.norm(vecs.T @ vecs - np.eye(k))
    if ortho > ORTHO_TOL:
        errors.append(f"orthonormality: {ortho:.3e}")
    mags = np.abs(vals)
    if np.any(mags[1:] > mags[:-1] + ORDER_TOL * np.maximum(mags[:-1], 1.0)):
        errors.append("order: magnitudes increase")
    if sym:
        if abs(vals[0] - 1.0) > UNIT_TOL:
            errors.append(f"unit_top: lambda_1 = {vals[0]!r}")
        if mags.max() > 1.0 + UNIT_TOL:
            errors.append("unit_top: |lambda| above 1")
    if reference is not None:
        ref = reference[np.argsort(-np.abs(reference), kind="stable")]
        nearest = np.abs(vals[:, None] - reference[None, :]).min(axis=1)
        if nearest.max() > REFERENCE_TOL:
            errors.append(f"reference: eigenvalue off eigvalsh by {nearest.max():.3e}")
        if mags.min() < abs(ref[k - 1]) - REFERENCE_TOL:
            errors.append("reference: not the top-k magnitudes")
        boundary_gap = abs(ref[k - 1]) - abs(ref[k]) if ref.size > k else math.inf
        if boundary_gap > 2 * REFERENCE_TOL:
            diff = np.abs(np.sort(vals) - np.sort(ref[:k])).max()
            if diff > REFERENCE_TOL:
                errors.append(f"reference: top-k multiset off by {diff:.3e}")
    return errors


def check_eig_output(basis_path, graph_dir, n: int, k: int, references: ReferenceSpectra) -> list[str]:
    """An ``eig`` result in sym mode: basis file, sidecar, operator checks."""
    basis_path = Path(basis_path)
    vals, vecs = read_fsb1(basis_path)
    sidecar = json.loads(basis_path.with_suffix(basis_path.suffix + ".json").read_text())
    errors = []
    if vecs.shape[0] != n or sidecar.get("n") != n or sidecar.get("k") != k:
        errors.append(f"shape: basis n={vecs.shape[0]}, sidecar n={sidecar.get('n')} k={sidecar.get('k')}")
    if sidecar.get("eigenvalues") != [float(x) for x in vals]:
        errors.append("sidecar: eigenvalues differ from the basis file")
    edge_path = Path(graph_dir) / "edges.txt"
    edges = read_edges(edge_path)
    reference = references.get(edge_path, edges, n) if n <= REFERENCE_MAX_N else None
    return errors + check_basis(vals, vecs, sym_operator(edges, n), k, sym=True, reference=reference)


def recount_groups(graph_dir) -> tuple[dict, int, float]:
    """Test-set group counts, test size and majority-class rate."""
    root = Path(graph_dir)
    sensitive, labels = read_nodes(root / "nodes.csv")
    test = read_splits(root / "splits.json")["test"]
    s, y = sensitive[test], labels[test]
    counts = {"s0": int(np.sum(s == 0)), "s1": int(np.sum(s == 1)),
              "s0_pos": int(np.sum((s == 0) & (y == 1))),
              "s1_pos": int(np.sum((s == 1) & (y == 1)))}
    majority = max(float(np.mean(y)), 1.0 - float(np.mean(y))) if y.size else 1.0
    return counts, int(test.size), majority


def check_train(run_dir, graph_dir, max_epochs: int, patience: int) -> list[str]:
    """history.json and metrics.json of one ``train`` run."""
    root = Path(run_dir)
    history = json.loads((root / "history.json").read_text())
    metrics = json.loads((root / "metrics.json").read_text())
    errors = []
    loss = history["train_loss"]
    if not all(x is not None and math.isfinite(x) for x in loss):
        errors.append("loss: non-finite train loss")
    val = np.array([np.nan if x is None else x for x in history["val_accuracy"]])
    epochs = history["epochs_run"]
    if len(loss) != epochs or val.size != epochs or epochs < 1:
        errors.append(f"history: {len(loss)} losses for {epochs} epochs")
        return errors
    best = int(np.argmax(val))
    if history["best_epoch"] != best or history["best_val_accuracy"] != val[best]:
        errors.append(f"best_epoch: {history['best_epoch']}, first argmax is {best}")
    if epochs != min(max_epochs, best + patience + 1):
        errors.append(f"patience: {epochs} epochs with best {best}, patience {patience}")
    counts, n_test, majority = recount_groups(graph_dir)
    if metrics["group_counts"] != counts:
        errors.append(f"group_counts: {metrics['group_counts']} vs recount {counts}")
    if metrics["n_evaluated"] != n_test:
        errors.append(f"n_evaluated: {metrics['n_evaluated']} vs {n_test}")
    if not (metrics["accuracy"] is not None and metrics["accuracy"] > majority):
        errors.append(f"accuracy: {metrics['accuracy']} not above majority rate {majority:.4f}")
    return errors


def check_analyze(report_path) -> list[str]:
    checks = json.loads(Path(report_path).read_text())["checks"]
    if len(checks) != 3:
        return [f"analyze: {len(checks)} claims reported, expected 3"]
    return [f"analyze: claim {c['claim']} failed" for c in checks if not c["verdict"]]


# --------------------------------------------------------------------------
# Self-check

def _tiny_graph(root: Path, rng: np.random.Generator, n: int, p_in: float, p_out: float):
    """A small two-block graph written in the formats ``gen`` writes."""
    half = n // 2
    iu, ju = np.triu_indices(n, 1)
    p = np.where((iu < half) == (ju < half), p_in, p_out)
    hit = rng.random(iu.size) < p
    edges = np.stack([iu[hit], ju[hit]], axis=1)
    (root / "edges.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))
    sensitive = (np.arange(n) >= half).astype(int)
    labels = rng.integers(0, 2, n)
    rows = [f"{s},{rng.standard_normal()!r},{y}" for s, y in zip(sensitive, labels)]
    (root / "nodes.csv").write_text("sensitive,x1,label\n" + "\n".join(rows) + "\n")
    split = {"train": [], "val": [], "test": [], "n": n}
    for cls in (0, 1):
        members = rng.permutation(np.flatnonzero(labels == cls)).tolist()
        c = len(members)
        n_tr = min(c // 2, 500, c - 2 * (c // 4))
        split["val"] += members[: c // 4]
        split["test"] += members[c // 4: 2 * (c // 4)]
        split["train"] += members[2 * (c // 4): 2 * (c // 4) + n_tr]
    (root / "splits.json").write_text(json.dumps(split))
    return edges, labels


def _expect(errors: list[str], tag: str | None, what: str) -> list[str]:
    """No errors when tag is None, else at least one error with that tag."""
    if tag is None:
        return [f"self-check: valid {what} rejected: {errors}"] if errors else []
    if not any(e.startswith(tag + ":") for e in errors):
        return [f"self-check: {what} not rejected by the {tag} check ({errors})"]
    return []


def self_check(workdir) -> list[str]:
    """Each oracle accepts a valid artifact and rejects a corrupted one."""
    root = Path(workdir)
    rng = np.random.default_rng(12345)
    n, k = 60, 4
    problems = []

    graph = root / "graph"
    graph.mkdir(parents=True, exist_ok=True)
    edges, labels = _tiny_graph(graph, rng, n, 0.3, 0.05)
    problems += _expect(check_graph(graph, n, 0.3, 0.05), None, "graph")
    looped = root / "looped"
    looped.mkdir(exist_ok=True)
    for name in ("nodes.csv", "splits.json"):
        (looped / name).write_bytes((graph / name).read_bytes())
    (looped / "edges.txt").write_text((graph / "edges.txt").read_text() + "7 7\n")
    problems += _expect(check_graph(looped, n, 0.3, 0.05), "edges", "edge file with a self loop")

    w, p = np.linalg.eigh(sym_dense(edges, n))
    top = np.argsort(-np.abs(w), kind="stable")[:k]
    vals, vecs = w[top], p[:, top]
    references = ReferenceSpectra()

    def eig_errors(v, x) -> list[str]:
        path = root / "basis.bin"
        write_fsb1(path, v, x)
        sidecar = {"n": n, "k": k, "eigenvalues": [float(e) for e in v]}
        (root / "basis.bin.json").write_text(json.dumps(sidecar))
        return check_eig_output(path, graph, n, k, references)

    problems += _expect(eig_errors(vals, vecs), None, "basis")
    moved = vals.copy()
    moved[1] += 1e-6
    problems += _expect(eig_errors(moved, vecs), "residual", "eigenvalue moved by 1e-6")
    problems += _expect(eig_errors(moved, vecs), "reference", "eigenvalue moved by 1e-6")
    skewed = vecs.copy()
    skewed[:, 2] += 1e-6 * skewed[:, 1]
    problems += _expect(eig_errors(vals, skewed), "orthonormality", "non-orthonormal block")

    run = root / "run"
    run.mkdir(exist_ok=True)
    counts, n_test, _ = recount_groups(graph)
    history = {"train_loss": [0.7, 0.6, 0.5], "val_accuracy": [0.5, 0.8, 0.8],
               "best_epoch": 1, "best_val_accuracy": 0.8, "epochs_run": 3}
    (run / "history.json").write_text(json.dumps(history))
    for delta, tag in ((0, None), (1, "group_counts")):
        metrics = {"accuracy": 1.0, "n_evaluated": n_test,
                   "group_counts": {**counts, "s0": counts["s0"] + delta}}
        (run / "metrics.json").write_text(json.dumps(metrics))
        problems += _expect(check_train(run, graph, max_epochs=3, patience=5), tag,
                            "metrics.json" + (" with a group count off by one" if delta else ""))
    return problems
