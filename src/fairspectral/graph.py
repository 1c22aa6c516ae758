"""Graph container, ingestion, normalization, splits, and synthetic data.

A graph couples an undirected simple adjacency structure (CSR, both
directions stored) with node features, a binary sensitive attribute and
binary labels.  The sensitive attribute is also kept as a feature column:
models consume it like any other channel, and the fairness metrics read it
separately.  The train/validation/test split belongs to an experiment, not
to the graph, and travels beside it as SplitMasks.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .sparse import CsrMatrix, csr_from_edges, is_symmetric

OPERATOR_MODES = ("sym", "raw")


class GraphFormatError(ValueError):
    """Malformed edge list, node table or split file."""


class SplitError(ValueError):
    """A split cannot be formed, e.g. a class has no members."""


@dataclass(frozen=True)
class Graph:
    adjacency: CsrMatrix
    features: np.ndarray
    sensitive: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        n = self.adjacency.n
        object.__setattr__(self, "features", np.ascontiguousarray(self.features, dtype=np.float64))
        object.__setattr__(self, "sensitive", np.ascontiguousarray(self.sensitive, dtype=np.int64))
        object.__setattr__(self, "labels", np.ascontiguousarray(self.labels, dtype=np.int64))
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"features must be (n, d) with n={n}, got {self.features.shape}")
        if self.sensitive.shape != (n,) or self.labels.shape != (n,):
            raise ValueError("sensitive and labels must be length-n vectors")
        if not np.isin(self.sensitive, (0, 1)).all():
            raise ValueError("sensitive attribute must be binary")
        if not np.isin(self.labels, (0, 1)).all():
            raise ValueError("labels must be binary")
        a = self.adjacency
        if np.any(a.values[a.row_indices() == a.col_idx] != 0.0):
            raise ValueError("adjacency must not contain self loops")
        if not is_symmetric(a):
            raise ValueError("adjacency must be symmetric")
        for arr in (self.features, self.sensitive, self.labels):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.adjacency.n

    @property
    def edge_count(self) -> int:
        """Stored directed entries; an undirected edge counts twice."""
        return self.adjacency.nnz


@dataclass(frozen=True)
class SplitMasks:
    """Disjoint train/validation/test node masks of one length, frozen."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self) -> None:
        for name in ("train", "val", "test"):
            object.__setattr__(self, name, np.ascontiguousarray(getattr(self, name), dtype=bool))
        tr, va, te = self.train, self.val, self.test
        if tr.ndim != 1 or not tr.shape == va.shape == te.shape:
            raise ValueError("train/val/test masks must be boolean vectors of one length")
        if ((tr & va) | (tr & te) | (va & te)).any():
            raise ValueError("train/val/test masks must be disjoint")
        for m in (tr, va, te):
            m.flags.writeable = False

    def to_json(self) -> str:
        doc = {
            "train": np.flatnonzero(self.train).tolist(),
            "val": np.flatnonzero(self.val).tolist(),
            "test": np.flatnonzero(self.test).tolist(),
            "n": int(self.train.shape[0]),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str, n: int) -> "SplitMasks":
        """Parse the split file of a graph with n nodes.

        The file is a JSON object whose "n" equals the graph's node count
        and whose "train", "val" and "test" lists hold integer node ids in
        [0, n).  Anything else raises GraphFormatError; lists that share
        a node fail SplitMasks's own disjointness check.
        """
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(f"split file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise GraphFormatError("split file must hold a JSON object")
        for key in ("n", "train", "val", "test"):
            if key not in doc:
                raise GraphFormatError(f"split file has no key {key!r}")
        if type(doc["n"]) is not int or doc["n"] != n:  # bool is an int subclass
            raise GraphFormatError(f"split file n must be the node count {n}, got {doc['n']!r}")
        masks = []
        for name in ("train", "val", "test"):
            ids = doc[name]
            if not isinstance(ids, list) or not all(type(i) is int and 0 <= i < n for i in ids):
                raise GraphFormatError(f"split file {name!r} must list integer node ids in [0, {n})")
            m = np.zeros(n, dtype=bool)
            m[np.asarray(ids, dtype=np.int64)] = True
            masks.append(m)
        return SplitMasks(*masks)


@dataclass(frozen=True)
class SbmConfig:
    """Two-block stochastic block model with a sensitive attribute.

    Nodes split into two equal communities.  Edges are Bernoulli(p_in)
    inside a community and Bernoulli(p_out) across.  The sensitive attribute
    agrees with the community with probability sensitive_homophily.  Labels
    follow a planted linear score on the feature noise plus a small sensitive
    term, and match that signal with probability label_bias.
    """

    n: int = 2000
    p_in: float = 0.01
    p_out: float = 0.001
    sensitive_homophily: float = 0.9
    label_bias: float = 0.9
    d: int = 8
    noise_sd: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if not 0.0 <= self.p_out <= self.p_in <= 1.0:
            raise ValueError("need 0 <= p_out <= p_in <= 1")
        if not 0.5 <= self.sensitive_homophily <= 1.0:
            raise ValueError("sensitive_homophily must lie in [0.5, 1]")
        if not 0.5 <= self.label_bias <= 1.0:
            raise ValueError("label_bias must lie in [0.5, 1]")
        if self.d < 2:
            raise ValueError("d must be at least 2 (sensitive column plus noise)")
        if not self.noise_sd > 0.0:
            raise ValueError("noise_sd must be positive")


def load_graph(
    edge_list_path,
    node_table_path,
    sensitive_column: str,
    label_column: str,
) -> Graph:
    """Read a graph from an edge list and a node table.

    Edge list: one "u v" pair per line, '#' comments and blank lines skipped.
    Direction, duplicates, and self loops are normalized away; both
    directions of each surviving edge are stored.

    Node table: delimited text (comma or tab, auto-detected) with a header.
    Every column except the label column becomes a feature, the sensitive
    column included.  The sensitive column must be binary.  Labels must be
    non-negative integers; classes above 1 are collapsed to 1 so multi-class
    sources reduce to the binary task.

    Both files are read with np.loadtxt where it can; the line readers
    _read_edge_ids_lines and _read_table_lines define the formats and give
    every message that names a file line.
    """
    names, rows = _read_table(node_table_path)
    for col in (sensitive_column, label_column):
        if col not in names:
            raise GraphFormatError(f"node table has no column {col!r}")
    n = rows.shape[0]
    if n == 0:
        raise GraphFormatError("node table is empty")

    label_pos = names.index(label_column)
    sens_pos = names.index(sensitive_column)
    raw_labels = rows[:, label_pos]
    if not np.all((raw_labels == np.round(raw_labels)) & (raw_labels >= 0)):
        raise GraphFormatError("label column must contain non-negative integers")
    labels = np.minimum(raw_labels, 1.0).astype(np.int64)
    sensitive = rows[:, sens_pos]
    if not np.isin(sensitive, (0.0, 1.0)).all():
        raise GraphFormatError("sensitive column must be binary")
    feature_cols = [i for i in range(len(names)) if i != label_pos]
    features = rows[:, feature_cols]

    pairs = _read_edge_pairs(edge_list_path, n)
    adjacency = _pairs_to_adjacency(n, pairs)
    return Graph(adjacency, features, sensitive.astype(np.int64), labels)


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """The node table's column names and its rows as an (n, columns) array.

    _read_table_lines defines the format and every "node table line N"
    message.  _read_table_bulk reads well-formed tables with one np.loadtxt
    call and declines every other file, which then goes to the line reader,
    so both routes accept the same files and return the same arrays.
    """
    table = _read_table_bulk(path)
    return table if table is not None else _read_table_lines(path)


def _read_table_bulk(path) -> tuple[list[str], np.ndarray] | None:
    with open(path, "r", encoding="utf-8") as fh:
        header = next((ln for ln in fh if ln.strip()), None)
        if header is None:
            return None
        names, delim = _table_header(header)
        # comments=None: the format has no comments, so "1#2" is no number.
        rows = _loadtxt(fh, np.float64, delimiter=delim, comments=None)
    if rows is None or rows.shape[1] != len(names) or not np.isfinite(rows).all():
        return None
    return names, rows


def _table_header(line: str) -> tuple[list[str], str]:
    delim = "," if "," in line else "\t"
    return [c.strip() for c in line.split(delim)], delim


def _read_table_lines(path) -> tuple[list[str], np.ndarray]:
    """The node table format: blank lines skipped, the first other line the
    header, then one line per node with a number in every column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(ln_no, ln.rstrip("\n")) for ln_no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise GraphFormatError("node table is empty")
    names, delim = _table_header(lines[0][1])
    data = []
    for ln_no, ln in lines[1:]:
        cells = [c.strip() for c in ln.split(delim)]
        if len(cells) != len(names):
            raise GraphFormatError(f"node table line {ln_no}: expected {len(names)} cells, got {len(cells)}")
        try:
            data.append([float(c) for c in cells])
        except ValueError as exc:
            raise GraphFormatError(f"node table line {ln_no}: non-numeric cell") from exc
        if not all(map(math.isfinite, data[-1])):
            raise GraphFormatError(f"node table line {ln_no}: non-finite cell")
    return names, np.asarray(data, dtype=np.float64)


def _read_edge_pairs(path, n: int) -> np.ndarray:
    """The distinct undirected edges as sorted (lo, hi) rows, lo < hi.

    _read_edge_ids_lines defines the format and every "edge list line N"
    message.  _read_edge_ids_bulk reads well-formed lists with one
    np.loadtxt call and declines every other file, which then goes to the
    line reader, so both routes accept the same files and return the same
    ids.  Self loops are dropped and duplicates merged here.
    """
    ids = _read_edge_ids_bulk(path, n)
    if ids is None:
        ids = _read_edge_ids_lines(path, n)
    lo, hi = ids.min(axis=1), ids.max(axis=1)
    # lo * n + hi orders the pairs as (lo, hi) does, so one sort of the
    # keys finds the duplicates (np.unique, even of the keys, is 30x slower).
    key = np.sort((lo * n + hi)[lo != hi])
    first = np.ones(key.shape, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.stack([key // n, key % n], axis=1)


def _read_edge_ids_bulk(path, n: int) -> np.ndarray | None:
    with open(path, "r", encoding="utf-8") as fh:
        ids = _loadtxt(fh, np.int64, comments="#")
    if ids is None or ids.shape[1] != 2 or not ((0 <= ids) & (ids < n)).all():
        return None
    return ids


def _read_edge_ids_lines(path, n: int) -> np.ndarray:
    """The edge list format: one "u v" pair of node ids in [0, n) per line,
    '#' comments and blank lines skipped.  Returns the pairs as written."""
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln_no, ln in enumerate(fh, start=1):
            body = ln.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise GraphFormatError(f"edge list line {ln_no}: expected two ids")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"edge list line {ln_no}: non-integer id") from exc
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge list line {ln_no}: id out of range [0, {n})")
            pairs.append((u, v))
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def _loadtxt(fh, dtype, **kwargs) -> np.ndarray | None:
    """np.loadtxt of the rest of an open file as a 2-D array, or None where
    it rejects the text or warns (on a file with no rows, say), for the
    caller to read line by line instead.  Given an open file rather than a
    path, loadtxt never looks for compressed siblings or URLs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return np.loadtxt(fh, dtype=dtype, ndmin=2, **kwargs)
        except (ValueError, Warning):  # the line reader gives the format's own message
            return None


def _pairs_to_adjacency(n: int, pairs: np.ndarray) -> CsrMatrix:
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    return csr_from_edges(n, rows, cols, np.ones(rows.shape[0]))


def normalize(g: Graph, mode: str = "sym") -> CsrMatrix:
    """Build the propagation operator for a graph.

    "sym": D^{-1/2} (A + I) D^{-1/2} with D the degree of A + I, a new
    matrix whose spectrum lies in [-1, 1].  "raw": the stored adjacency
    itself, the same object with the same buffers.
    """
    if mode == "raw":
        return g.adjacency
    if mode != "sym":
        raise ValueError(f"mode must be one of {OPERATOR_MODES}, got {mode!r}")
    return _sym_normalize(g.adjacency)


def _sym_normalize(a: CsrMatrix) -> CsrMatrix:
    n = a.n
    rows = a.row_indices()
    # Each row's columns are sorted, so the diagonal goes in after the
    # entries left of it and they stay sorted.
    at = a.row_ptr[:-1] + np.bincount(rows[a.col_idx < rows], minlength=n)
    col_idx = np.insert(a.col_idx, at, np.arange(n))
    values = np.insert(a.values, at, 1.0)
    row_ptr = a.row_ptr + np.arange(n + 1)
    degree = np.diff(row_ptr)  # of A+I with unit weights
    inv_sqrt = 1.0 / np.sqrt(degree)
    values *= inv_sqrt[np.repeat(np.arange(n), degree)] * inv_sqrt[col_idx]
    return CsrMatrix(n, row_ptr, col_idx, values)


def make_splits(g: Graph, seed: int) -> SplitMasks:
    """Stratified node splits.

    Per class: 25% of nodes to validation and 25% to test (floored, so the
    class balance is preserved within one node), then the training set takes
    min(half the class, 500) nodes from the remainder.  Deterministic in
    (labels, seed); the graph structure plays no role.
    """
    rng = np.random.default_rng(seed)
    n = g.n
    train = np.zeros(n, dtype=bool)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    for cls in (0, 1):
        members = np.flatnonzero(g.labels == cls)
        if members.size == 0:
            raise SplitError(f"class {cls} has no members")
        perm = members[rng.permutation(members.size)]
        n_val = members.size // 4
        n_test = members.size // 4
        n_train = min(members.size // 2, 500)
        n_train = min(n_train, members.size - n_val - n_test)
        val[perm[:n_val]] = True
        test[perm[n_val : n_val + n_test]] = True
        train[perm[n_val + n_test : n_val + n_test + n_train]] = True
    return SplitMasks(train, val, test)


# Internal constants of the synthetic generator.
#
# Labels follow a merit signal planted on a fixed feature direction w.  The
# w-channel carries merit plus a sensitive-group shift of SBM_GROUP_SHIFT
# standard deviations, so an accurate predictor must cancel the shift
# against the sensitive column.  A model that keeps the raw sensitive
# column cancels exactly and stays near parity; a model that only sees
# propagated features works with a sensitive column smoothed toward its
# community average, so the per-node detail needed for the cancellation is
# gone and a systematic group offset survives into its predictions.
#
# The community offset moves the feature cloud along a direction orthogonal
# to w, so community membership is visible in the features without
# contaminating the merit channel or the labels.
SBM_GROUP_SHIFT = 1.2
SBM_BLOCK_FEATURE_SCALE = 1.0


def generate_sbm(cfg: SbmConfig) -> Graph:
    """Sample a two-block SBM graph with features, sensitive bits and labels.

    Deterministic in cfg.seed.  The first feature column is the sensitive
    attribute itself; the remaining d-1 columns are Gaussian noise shifted by
    a per-community offset.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    half = n // 2
    block = np.zeros(n, dtype=np.int64)
    block[half:] = 1

    pairs = _sample_block_edges(rng, n, half, cfg.p_in, cfg.p_out)
    adjacency = _pairs_to_adjacency(n, pairs)

    agree = rng.random(n) < cfg.sensitive_homophily
    sensitive = np.where(agree, block, 1 - block)

    d_noise = cfg.d - 1
    noise = rng.standard_normal((n, d_noise)) * cfg.noise_sd
    merit = rng.standard_normal(n)

    # Fixed unit directions: w carries the merit signal plus the sensitive
    # group shift, offset is the community shift, orthogonalized against w.
    w = rng.standard_normal(d_noise)
    w /= np.linalg.norm(w)
    offset = rng.standard_normal(d_noise)
    offset -= (offset @ w) * w
    nrm = np.linalg.norm(offset)
    if nrm > 0:
        offset /= nrm
    shift = SBM_BLOCK_FEATURE_SCALE * cfg.noise_sd * (2.0 * block - 1.0)
    confound = SBM_GROUP_SHIFT * (2.0 * sensitive - 1.0)
    noise_perp = noise - np.outer(noise @ w, w)
    features_noise = (noise_perp
                      + np.outer((merit + confound) * cfg.noise_sd, w)
                      + shift[:, None] * offset[None, :])

    planted = (merit > 0.0).astype(np.int64)
    keep = rng.random(n) < cfg.label_bias
    labels = np.where(keep, planted, 1 - planted)

    features = np.concatenate([sensitive[:, None].astype(np.float64), features_noise], axis=1)
    return Graph(adjacency, features, sensitive, labels)


def _sample_block_edges(
    rng: np.random.Generator, n: int, half: int, p_in: float, p_out: float
) -> np.ndarray:
    """Bernoulli edges (i, j), i < j, over the upper triangle, as (m, 2) rows.

    Edge (i, j) is present when draw i*n + j of rng's PCG64 stream falls
    below its probability: p_in when both endpoints lie on the same side of
    `half`, p_out otherwise.  The i+1 lower-triangle draws before each row
    are skipped with `advance`, not drawn, into one length-n buffer, so the
    draws take O(n) memory, not 512 x n, and rng ends at draw n*n, where a
    full (n, n) draw would leave it.
    """
    threshold = np.full(n, p_out)
    threshold[:half] = p_in
    buf = np.empty(n)
    hits = []  # row i's hit columns, offset by i + 1
    for i in range(n):
        rng.bit_generator.advance(i + 1)
        draws = rng.random(out=buf[: n - i - 1])
        hits.append((draws < (threshold[i + 1:] if i < half else p_in)).nonzero()[0])
    rows = np.repeat(np.arange(n), [h.size for h in hits])
    return np.stack([rows, np.concatenate(hits) + rows + 1], axis=1)
