"""Graph container, ingestion, normalization, splits, and synthetic data.

A graph couples an undirected simple adjacency structure (CSR, both
directions stored) with node features, a binary sensitive attribute and
binary labels.  The sensitive attribute is also kept as a feature column:
models consume it like any other channel, and the fairness metrics read it
separately.  The train/validation/test split belongs to an experiment, not
to the graph, and travels beside it as SplitMasks.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import threading
from dataclasses import dataclass
from functools import partial
from itertools import accumulate

import numpy as np

from .sparse import CsrMatrix, csr_from_edges, is_symmetric

OPERATOR_MODES = ("sym", "raw")

_TWIN_MAGIC = b"FSG1"
_TWIN_HEADER = struct.Struct("<4s32sQQQ")
_TWIN_DTYPES = ("<i8", "<i8", "<f8", "<i8", "<i8")  # row_ptr, col_idx, features, sensitive, labels


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
        if not 0.0 < self.noise_sd < math.inf:
            raise ValueError("noise_sd must be positive and finite")


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

    Both files are read line by line, and every format error names its
    file line.
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

    The format: blank lines skipped, the first other line the header, then
    one line per node with a number in every column."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(ln_no, ln.rstrip("\n")) for ln_no, ln in enumerate(fh, start=1) if ln.strip()]
    if not lines:
        raise GraphFormatError("node table is empty")
    header = lines[0][1]
    delim = "," if "," in header else "\t"
    names = [c.strip() for c in header.split(delim)]
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
    """The distinct undirected edges as sorted (lo, hi) rows, lo < hi, of
    the ids _read_edge_ids reads: self loops dropped, duplicates merged."""
    ids = _read_edge_ids(path, n)
    # By column: min and max along axis 1 of (m, 2) ids run ten times slower.
    lo, hi = np.minimum(ids[:, 0], ids[:, 1]), np.maximum(ids[:, 0], ids[:, 1])
    # lo * n + hi orders the pairs as (lo, hi) does, so one sort of the
    # keys finds the duplicates (np.unique, even of the keys, is 30x slower).
    key = np.sort((lo * n + hi)[lo != hi])
    first = np.ones(key.shape, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.stack([key // n, key % n], axis=1)


def _read_edge_ids(path, n: int) -> np.ndarray:
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


def text_digest(edge_text: bytes, node_text: bytes) -> bytes:
    """SHA-256 of a graph's edge list and node table, each preceded by its
    length as a little-endian uint64."""
    h = hashlib.sha256()
    for text in (edge_text, node_text):
        h.update(struct.pack("<Q", len(text)))
        h.update(text)
    return h.digest()


def save_twin(g: Graph, path, digest: bytes) -> None:
    """Write g in the FSG1 container, the binary twin of the text files
    whose text_digest is digest: "FSG1", the digest, little-endian uint64
    n, d and nnz, then row_ptr, col_idx, the features row by row, sensitive
    and labels, little-endian as _TWIN_DTYPES lists.  The adjacency's
    values are not stored: the text format has no weights."""
    a = g.adjacency
    if not np.all(a.values == 1.0):
        raise ValueError("the FSG1 container holds unit-weight adjacencies only")
    with open(path, "wb") as fh:
        fh.write(_TWIN_HEADER.pack(_TWIN_MAGIC, digest, g.n, g.features.shape[1], a.nnz))
        for arr, dtype in zip((a.row_ptr, a.col_idx, g.features, g.sensitive, g.labels),
                              _TWIN_DTYPES):
            fh.write(np.asarray(arr, dtype=dtype).data)  # no copy on a little-endian host


def load_twin(path, digest: bytes) -> Graph | None:
    """The graph save_twin wrote to path with digest, built by the CsrMatrix
    and Graph constructors; None where the file is absent, malformed or
    carries another digest, or a constructor rejects its arrays."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return None
    if len(blob) < _TWIN_HEADER.size:
        return None
    magic, stored, n, d, nnz = _TWIN_HEADER.unpack_from(blob)
    counts = (n + 1, nnz, n * d, n, n)
    size = _TWIN_HEADER.size + 8 * sum(counts)
    if (magic, stored) != (_TWIN_MAGIC, digest) or len(blob) != size:
        return None
    offsets = accumulate((8 * c for c in counts), initial=_TWIN_HEADER.size)
    row_ptr, col_idx, features, sensitive, labels = (
        np.frombuffer(blob, dtype, count, at)
        for dtype, count, at in zip(_TWIN_DTYPES, counts, offsets))
    try:
        return Graph(CsrMatrix(n, row_ptr, col_idx, np.ones(nnz)),
                     features.reshape(n, d), sensitive, labels)
    except ValueError:
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


# Graphs of fewer nodes are sampled in the calling thread.  Their rows are
# short, so the threads mostly hand the interpreter lock back and forth
# between fills.  On 2 cores two ranges took 1.4x as long as one at n=3000,
# about as long at n=4000, and 0.88x at n=5000, 0.77x at n=10000.
_MIN_THREADED_N = 5000

# Draws per chunk: 1 MB of doubles, unless one row is longer.
_CHUNK_DRAWS = 1 << 17


def _sample_block_edges(
    rng: np.random.Generator, n: int, half: int, p_in: float, p_out: float,
    ranges: int | None = None,
) -> np.ndarray:
    """Bernoulli edges (i, j), i < j, over the upper triangle, as (m, 2) rows.

    Edge (i, j) is present when draw i*n + j of rng's PCG64 stream falls
    below its probability: p_in when both endpoints lie on the same side of
    `half`, p_out otherwise.  The lower-triangle draws are skipped with
    `advance`, not drawn, and rng ends at draw n*n, where a full (n, n)
    draw would leave it.

    The rows split into `ranges` ranges of about equal upper-triangle draws,
    each sampled by _sample_rows from its own copy of rng's PCG64 advanced
    to the range's first draw: the calling thread takes the first range and
    one thread each of the others.  By default there is one range per usable
    core, or a single range in the calling thread below _MIN_THREADED_N
    nodes.  Each edge is decided by its own draw and the ranges join in row
    order, so the pairs, and every draw after them, do not depend on how
    many ranges or threads sampled them.
    """
    if ranges is None:
        ranges = _usable_cores() if n >= _MIN_THREADED_N else 1
    # Rows [0, r) hold a share 1 - (1 - r/n)^2 of the triangle's draws.
    cuts = [round(n * (1.0 - math.sqrt(1.0 - k / ranges))) for k in range(ranges + 1)]
    size = max(_CHUNK_DRAWS, n)
    state = rng.bit_generator.state
    tasks = []
    for lo, hi in zip(cuts, cuts[1:]):
        bits = np.random.PCG64()
        bits.state = state
        bits.advance(lo * n)
        # Allocated here, not in the workers, whose allocations would grow
        # the process's resident memory through their own malloc arenas.
        tasks.append(partial(_sample_rows, np.random.Generator(bits), n, lo, hi, half,
                             p_in, p_out, np.empty(size), np.empty(size, dtype=bool)))
    results: list = [None] * ranges
    errors: list[BaseException] = []

    def work(k: int) -> None:
        try:
            results[k] = tasks[k]()
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    workers = []
    try:
        for k in range(1, ranges):
            worker = threading.Thread(target=work, args=(k,))
            worker.start()
            workers.append(worker)
        results[0] = tasks[0]()
    finally:
        for worker in workers:
            worker.join()
    if errors:
        raise errors[0]
    rng.bit_generator.advance(n * n)
    return np.concatenate(results)


def _sample_rows(
    gen: np.random.Generator, n: int, lo: int, hi: int, half: int, p_in: float,
    p_out: float, buf: np.ndarray, hit: np.ndarray,
) -> np.ndarray:
    """The edges of rows [lo, hi), as _sample_block_edges defines them, from
    gen standing at draw lo*n.

    Whole rows are drawn back to back into buf, a chunk at a time.  One
    compare against max(p_in, p_out) into hit finds each chunk's candidates,
    and a search of the row starts gives each its row and column; those
    below their own block's probability are the edges.
    """
    top = max(p_in, p_out)
    starts = np.arange(lo, hi + 1)
    starts = starts * (2 * n - 1 - starts) // 2  # row i's first upper-triangle draw
    advance, draw = gen.bit_generator.advance, gen.random
    rows, cols = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    i = lo
    while i < hi:
        j = lo + int(np.searchsorted(starts, starts[i - lo] + buf.size, side="right")) - 1
        at = starts[i - lo:j - lo + 1] - starts[i - lo]
        for r, a, b in zip(range(i, j), at[:-1].tolist(), at[1:].tolist()):
            advance(r + 1)
            draw(out=buf[a:b])
        fill = int(at[-1])
        flat = np.less(buf[:fill], top, out=hit[:fill]).nonzero()[0]
        row = np.searchsorted(at, flat, side="right") - 1
        col = flat - at[row] + row + i + 1
        row += i
        keep = buf[flat] < np.where((row < half) == (col < half), p_in, p_out)
        rows.append(row[keep])
        cols.append(col[keep])
        i = j
    return np.stack([np.concatenate(rows), np.concatenate(cols)], axis=1)


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
