"""Graph container, file ingestion, operators, splits, and the generator.

Ingestion tests write real files into tmp_path and read them back, because
the parser's whole job is surviving the mess real files contain: comments,
duplicate edges listed both ways, stray blank lines, and multi-class label
columns.  Operator tests compare against closed forms or dense eigensolves
that are computed right here in the test.
"""

import hashlib
import itertools
import json
import threading
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairspectral import graph
from fairspectral.eigen import full_dense_eigendecomposition
from fairspectral.graph import (
    Graph,
    GraphFormatError,
    SbmConfig,
    SplitError,
    SplitMasks,
    _read_edge_ids,
    _read_edge_pairs,
    _read_table,
    _MIN_THREADED_N,
    _sample_block_edges,
    _usable_cores,
    generate_sbm,
    load_graph,
    make_splits,
    normalize,
    save_twin,
    text_digest,
)
from fairspectral.sparse import CsrMatrix, csr_from_dense, csr_from_edges
from graph_oracles import sample_block_edges


def empty_adjacency(n):
    return CsrMatrix(n, np.zeros(n + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))


def tiny_graph(n=4, labels=None):
    labels = [i % 2 for i in range(n)] if labels is None else labels
    return Graph(
        empty_adjacency(n),
        np.zeros((n, 2)),
        np.array([i % 2 for i in range(n)]),
        np.array(labels),
    )


def write_graph_files(tmp_path, edge_text, node_text):
    edges = tmp_path / "edges.txt"
    nodes = tmp_path / "nodes.csv"
    edges.write_text(edge_text)
    nodes.write_text(node_text)
    return edges, nodes


NODES_4 = "sensitive,x1,label\n0,0.5,0\n1,-0.25,1\n0,2.0,0\n1,0.125,1\n"


class TestGraphValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(csr_from_dense(np.eye(2)), np.zeros((2, 1)), [0, 1], [0, 1])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(csr_from_edges(2, [0], [1], [1.0]), np.zeros((2, 1)), [0, 1], [0, 1])

    def test_asymmetric_adjacency_rejected_at_any_size(self):
        n = 5001
        zeros = np.zeros(n, dtype=np.int64)
        with pytest.raises(ValueError, match="symmetric"):
            Graph(csr_from_edges(n, [0], [n - 1], [1.0]), np.zeros((n, 1)), zeros, zeros)

    def test_non_binary_sensitive_rejected(self):
        with pytest.raises(ValueError):
            Graph(empty_adjacency(2), np.zeros((2, 1)), [0, 2], [0, 1])

    def test_non_binary_labels_rejected(self):
        with pytest.raises(ValueError):
            Graph(empty_adjacency(2), np.zeros((2, 1)), [0, 1], [0, 3])

    def test_arrays_frozen_after_construction(self):
        g = tiny_graph()
        with pytest.raises(ValueError):
            g.labels[0] = 1


class TestTwin:
    """The FSG1 container's own contracts; tests/test_cli.py holds it to
    the text gen writes."""

    def test_digest_tells_the_files_apart(self):
        assert text_digest(b"0 1\n", b"x") != text_digest(b"0 1", b"\nx")

    def test_weighted_adjacency_is_refused(self, tmp_path):
        a = csr_from_dense(np.array([[0.0, 2.0], [2.0, 0.0]]))
        g = Graph(a, np.zeros((2, 2)), np.array([0, 1]), np.array([1, 0]))
        with pytest.raises(ValueError, match="unit-weight"):
            save_twin(g, tmp_path / "graph.bin", text_digest(b"", b""))


class TestSplitMasks:
    def test_overlapping_masks_rejected(self):
        m = np.array([True, False])
        with pytest.raises(ValueError, match="disjoint"):
            SplitMasks(m, m, np.zeros(2, dtype=bool))

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            SplitMasks(np.zeros(3, dtype=bool), np.zeros(2, dtype=bool), np.zeros(3, dtype=bool))

    def test_masks_frozen_after_construction(self):
        s = make_splits(tiny_graph(8), seed=0)
        for m in (s.train, s.val, s.test):
            assert m.dtype == bool
            with pytest.raises(ValueError):
                m[0] = True


class TestLoadGraph:
    def test_dedup_and_symmetrize(self, tmp_path):
        # A 4-node path listed twice in both orders collapses to 3 edges.
        edge_text = "0 1\n1 0\n1 2\n2 1\n2 3\n3 2\n0 1\n"
        edges, nodes = write_graph_files(tmp_path, edge_text, NODES_4)
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.n == 4
        assert g.edge_count == 6  # both directions stored
        np.testing.assert_array_equal(g.adjacency.to_dense(), g.adjacency.to_dense().T)

    def test_empty_edge_file(self, tmp_path):
        edges, nodes = write_graph_files(
            tmp_path, "", "sensitive,x1,label\n0,1.0,0\n1,2.0,1\n0,3.0,0\n")
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.n == 3
        assert g.edge_count == 0

    def test_comments_blanks_and_self_loops_skipped(self, tmp_path):
        edge_text = "# header comment\n\n0 1  # trailing\n2 2\n1 3\n"
        edges, nodes = write_graph_files(tmp_path, edge_text, NODES_4)
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.edge_count == 4  # self loop 2-2 dropped

    def test_sensitive_column_stays_in_features(self, tmp_path):
        edges, nodes = write_graph_files(tmp_path, "0 1\n", NODES_4)
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.features.shape[1] == 2
        np.testing.assert_array_equal(g.features[:, 0], g.sensitive)
        np.testing.assert_allclose(g.features[:, 1], [0.5, -0.25, 2.0, 0.125])

    def test_multiclass_labels_collapse_to_binary(self, tmp_path):
        node_text = "sensitive,x1,label\n0,0.0,0\n1,0.0,1\n0,0.0,2\n1,0.0,5\n"
        edges, nodes = write_graph_files(tmp_path, "0 1\n", node_text)
        g = load_graph(edges, nodes, "sensitive", "label")
        np.testing.assert_array_equal(g.labels, [0, 1, 1, 1])

    def test_tab_delimited_table(self, tmp_path):
        node_text = "sensitive\tx1\tlabel\n0\t0.5\t0\n1\t1.5\t1\n"
        edges, nodes = write_graph_files(tmp_path, "0 1\n", node_text)
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.n == 2
        np.testing.assert_allclose(g.features[:, 1], [0.5, 1.5])

    def test_thousand_node_pair_count(self, tmp_path):
        # 12485 distinct pairs in, 24970 directed entries out, some pairs
        # written reversed to exercise the normalization.
        pairs = list(itertools.islice(itertools.combinations(range(1000), 2), 12485))
        lines = [f"{v} {u}" if i % 3 == 0 else f"{u} {v}"
                 for i, (u, v) in enumerate(pairs)]
        node_lines = ["sensitive,x1,label"] + [
            f"{i % 2},{i / 1000.0},{(i // 2) % 2}" for i in range(1000)]
        edges, nodes = write_graph_files(
            tmp_path, "\n".join(lines) + "\n", "\n".join(node_lines) + "\n")
        g = load_graph(edges, nodes, "sensitive", "label")
        assert g.n == 1000
        assert g.edge_count == 24970

    @pytest.mark.parametrize("edge_text", ["0 1 2\n", "0 x\n", "0 9\n"])
    def test_malformed_edges_rejected(self, tmp_path, edge_text):
        edges, nodes = write_graph_files(tmp_path, edge_text, NODES_4)
        with pytest.raises(GraphFormatError):
            load_graph(edges, nodes, "sensitive", "label")

    @pytest.mark.parametrize(
        "node_text",
        [
            "sensitive,x1,label\n0,1.0\n",              # missing cell
            "sensitive,x1,label\n0,abc,0\n",            # non-numeric
            "sensitive,x1,label\n2,1.0,0\n",            # non-binary sensitive
            "sensitive,x1,label\n0,1.0,-1\n",           # negative label
            "sensitive,x1,label\n0,1.0,0.5\n",          # fractional label
            "sensitive,x1,label\n0,1.0,inf\n",          # infinite label
            "",                                          # empty table
        ],
    )
    def test_malformed_tables_rejected(self, tmp_path, node_text):
        edges, nodes = write_graph_files(tmp_path, "", node_text)
        with pytest.raises(GraphFormatError):
            load_graph(edges, nodes, "sensitive", "label")

    def test_errors_name_the_file_line(self, tmp_path):
        # Blank lines count: the bad cell is on line 5 of the file.
        edges, nodes = write_graph_files(
            tmp_path, "", "sensitive,x1,label\n\n\n0,1.0,0\nabc,1.0,0\n")
        with pytest.raises(GraphFormatError, match=r"^node table line 5: non-numeric cell$"):
            load_graph(edges, nodes, "sensitive", "label")

    @pytest.mark.parametrize("bad, message", [
        ("1 2 3", "expected two ids"),
        ("1 x", "non-integer id"),
        ("0 4", r"id out of range \[0, 4\)"),
    ])
    def test_edge_list_errors_name_the_file_line(self, tmp_path, bad, message):
        # Comment, blank and comment-only lines count: the bad pair is on line 6.
        edge_text = f"# header\n\n0 1  # first\n   # indented\n\t\n{bad}\n2 3\n"
        edges, nodes = write_graph_files(tmp_path, edge_text, NODES_4)
        with pytest.raises(GraphFormatError, match=rf"^edge list line 6: {message}$"):
            load_graph(edges, nodes, "sensitive", "label")

    @pytest.mark.parametrize("bad, message", [
        ("1,2.0", "expected 3 cells, got 2"),
        ("1,2.0,1,0", "expected 3 cells, got 4"),
        ("1,nan,1", "non-finite cell"),
        ("1,2.0,-inf", "non-finite cell"),
    ])
    def test_node_table_errors_name_the_file_line(self, tmp_path, bad, message):
        node_text = f"\nsensitive,x1,label\n0,0.5,0\n  \n\n{bad}\n0,1.5,1\n"
        edges, nodes = write_graph_files(tmp_path, "", node_text)
        with pytest.raises(GraphFormatError, match=rf"^node table line 6: {message}$"):
            load_graph(edges, nodes, "sensitive", "label")

    def test_missing_column_rejected(self, tmp_path):
        edges, nodes = write_graph_files(tmp_path, "", NODES_4)
        with pytest.raises(GraphFormatError):
            load_graph(edges, nodes, "sensitive", "target")


# Odd files for the readers: ids that int() takes and np.loadtxt does not
# ("1_0", "٣") or the reverse, tabs, CRLF, trailing comments, blank and
# whitespace-only lines, "#" inside a node table cell, reversed, repeated
# and self-loop pairs, and no pairs at all.
N_IDS = 12
GOOD_ID = st.one_of(
    st.integers(0, N_IDS - 1).map(str),
    st.integers(0, N_IDS - 1).map("+{}".format),
    st.integers(0, N_IDS - 1).map("0{}".format),
)
ODD_IDS = ["1_0", "٣", "١١", "-1", str(N_IDS), "99999999999999999999", "1.0", "1e1", "0x1", "x", ""]
ODD_ID = st.sampled_from(ODD_IDS)
EDGE_FILLER = st.sampled_from(["", "   ", "\t", "# comment", "  #", "#0 1"])
NEWLINE = st.sampled_from(["\n", "\r\n"])


def edge_line(first, second):
    return st.builds("{}{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), first,
                     st.sampled_from([" ", "\t", "  ", " \t "]), second,
                     st.sampled_from(["", " ", "\t"]), st.sampled_from(["", " # c", "#c"]))


@st.composite
def edge_list_texts(draw):
    """A well-formed edge list, or one with a single odd line in it."""
    good = edge_line(GOOD_ID, GOOD_ID)
    lines = draw(st.lists(st.one_of(good, good, EDGE_FILLER), max_size=12))
    if lines and draw(st.booleans()):  # repeat a line, reversed or as is
        line = lines[draw(st.integers(0, len(lines) - 1))]
        lines.append(" ".join(line.split("#")[0].split()[::-1]) if draw(st.booleans()) else line)
    if draw(st.booleans()):
        odd = draw(st.one_of(edge_line(ODD_ID, GOOD_ID), edge_line(GOOD_ID, ODD_ID), GOOD_ID,
                             st.builds("{} {} {}".format, GOOD_ID, GOOD_ID, GOOD_ID)))
        lines.insert(draw(st.integers(0, len(lines))), odd)
    ends = [draw(NEWLINE) for _ in lines]
    text = "".join(ln + end for ln, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


GOOD_CELL = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-5, 5).map(str),
    st.builds("{}{}.{:025d}e{}".format, st.sampled_from(["", "+", "-"]),  # 45 digits to round
              st.integers(0, 10**20), st.integers(0, 10**25 - 1), st.integers(-330, 280)),
    st.sampled_from([" 1.5 ", "  2", ".5", "5.", "+2", "1e3", "-0.0"]),
)
ODD_CELLS = ["1_0", "٣", "١.٥", "inf", "-inf", "nan", "1e999", "x", "", "1#2", "2 #", "#",
             "1 2", "1.5d3", "0x1p3"]
ODD_CELL = st.sampled_from(ODD_CELLS)


@st.composite
def node_table_texts(draw):
    """A well-formed node table, or one with a single fault in it."""
    delim = draw(st.sampled_from([",", "\t"]))
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(GOOD_CELL, min_size=width, max_size=width), max_size=10))
    fault = draw(st.sampled_from(["none"] * 4 + ["cell", "extra", "missing", "blank", "no header"]))
    if rows and fault in ("cell", "extra", "missing"):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if fault == "cell":
            row[draw(st.integers(0, width - 1))] = draw(ODD_CELL)
        elif fault == "extra":
            row.append(draw(GOOD_CELL))
        else:
            del row[draw(st.integers(0, width - 1))]
    body = [delim.join(r) for r in rows]
    # Empty lines anywhere; a whitespace-only one in the body is a fault
    # for loadtxt alone, and before the header for neither reader.
    for empty in ["  " if fault == "blank" else ""] + [""] * draw(st.integers(0, 2)):
        body.insert(draw(st.integers(0, len(body))), empty)
    blank_lines = st.lists(st.sampled_from(["", "  ", "\t"]), max_size=2)
    header = draw(blank_lines) + [delim.join(f"c{i}" for i in range(width))]
    lines = draw(blank_lines) if fault == "no header" else header + body
    ends = [draw(NEWLINE) for _ in lines]
    return "".join(ln + end for ln, end in zip(lines, ends))


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def outcomes(path, *readers):
    """Each reader's result on path, or the message of the GraphFormatError
    it raises.  No warning may escape any of them."""
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for read in readers:
            try:
                results.append(read(path))
            except GraphFormatError as exc:
                results.append(str(exc))
    assert not caught
    return results


def check_edge_routes(path):
    """The reader returns (m, 2) int64 ids in [0, N_IDS) or raises a line's
    message, and the sort-based dedup gives np.unique's pairs of those ids
    or the same message."""
    lines, pairs = outcomes(path, partial(_read_edge_ids, n=N_IDS),
                            partial(_read_edge_pairs, n=N_IDS))
    if isinstance(lines, str):
        assert lines.startswith("edge list line ") and pairs == lines
        return
    assert lines.dtype == np.int64 and lines.shape[1] == 2
    assert np.all((0 <= lines) & (lines < N_IDS))
    lo_hi = np.sort(lines, axis=1)
    assert same_array(pairs, np.unique(lo_hi[lo_hi[:, 0] != lo_hi[:, 1]], axis=0).reshape(-1, 2))


def check_table_routes(path):
    """The reader returns the header's names and a finite float64 row per
    node line, one column per name (no rows: an empty array), or raises its
    message."""
    (table,) = outcomes(path, _read_table)
    if isinstance(table, str):
        assert table == "node table is empty" or table.startswith("node table line ")
        return
    names, rows = table
    assert rows.dtype == np.float64 and np.isfinite(rows).all()
    assert rows.size == 0 or rows.shape == (rows.shape[0], len(names))


class TestBulkReadersMatchLineReaders:
    """The file readers on odd files: each returns well-formed arrays or
    raises a GraphFormatError that names the file line, no other exception
    or warning escapes, and the sort-based dedup of the edge pairs (the one
    bulk step left) matches np.unique."""

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edge_list_texts())
    def test_edge_lists(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        check_edge_routes(path)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(node_table_texts())
    def test_node_tables(self, tmp_path, text):
        path = tmp_path / "nodes.csv"
        path.write_bytes(text.encode("utf-8"))
        check_table_routes(path)

    @pytest.mark.parametrize("odd", ODD_IDS)
    def test_each_odd_id(self, tmp_path, odd):
        path = tmp_path / "edges.txt"
        for line in (f"{odd} 1", f"1 {odd}"):
            path.write_text(f"# c\n0 1\n{line}\n2 3\n", encoding="utf-8")
            check_edge_routes(path)

    @pytest.mark.parametrize("odd", ODD_CELLS)
    def test_each_odd_cell(self, tmp_path, odd):
        path = tmp_path / "nodes.csv"
        for col in range(3):
            row = ["0", "1.5", "1"]
            row[col] = odd
            path.write_text("a,b,c\n1,2,3\n" + ",".join(row) + "\n", encoding="utf-8")
            check_table_routes(path)

    @pytest.mark.parametrize("text", ["a,b,c\n1,2\n3,4\n", "a,b\n1,2,3\n", "a\tb\n1\n"])
    def test_every_row_of_another_width(self, tmp_path, text):
        path = tmp_path / "nodes.csv"
        path.write_text(text, encoding="utf-8")
        check_table_routes(path)

    def test_bulk_routes_take_well_formed_files(self, tmp_path):
        edges = tmp_path / "edges.txt"
        edges.write_bytes(b"# c\r\n\r\n 3\t+1 # c\r\n1 03\n  \n2 2\n")
        np.testing.assert_array_equal(_read_edge_ids(edges, N_IDS), [[3, 1], [1, 3], [2, 2]])
        np.testing.assert_array_equal(_read_edge_pairs(edges, N_IDS), [[1, 3]])
        nodes = tmp_path / "nodes.csv"
        nodes.write_bytes(b"\n a , b \r\n1, -2.5\r\n\r\n+3 ,.5\n")
        names, rows = _read_table(nodes)
        assert names == ["a", "b"]
        np.testing.assert_array_equal(rows, [[1.0, -2.5], [3.0, 0.5]])

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n", "1_0 2\n", "0 ٣\n"])
    def test_edge_lists_the_bulk_route_declines(self, tmp_path, text):
        # Files np.loadtxt refuses or warns on; ids are what int() reads.
        edges = tmp_path / "edges.txt"
        edges.write_text(text, encoding="utf-8")
        expected = {"1_0 2\n": [[10, 2]], "0 ٣\n": [[0, 3]]}.get(text, np.zeros((0, 2)))
        np.testing.assert_array_equal(_read_edge_ids(edges, N_IDS), expected)


class TestNormalize:
    def test_single_edge_closed_form(self):
        g = Graph(csr_from_edges(2, [0, 1], [1, 0], [1.0, 1.0]),
                  np.zeros((2, 1)), [0, 1], [0, 1])
        op = normalize(g, "sym")
        np.testing.assert_allclose(op.to_dense(), [[0.5, 0.5], [0.5, 0.5]])

    def test_raw_mode_shares_buffers(self):
        g = tiny_graph()
        op = normalize(g, "raw")
        assert op is g.adjacency

    def test_triangle_top_eigenvalue_is_one(self):
        rows = [0, 0, 1, 1, 2, 2]
        cols = [1, 2, 0, 2, 0, 1]
        g = Graph(csr_from_edges(3, rows, cols, np.ones(6)),
                  np.zeros((3, 1)), [0, 1, 0], [0, 1, 0])
        op = normalize(g, "sym")
        basis = full_dense_eigendecomposition(op.to_dense())
        np.testing.assert_allclose(basis.eigenvalues[0], 1.0, atol=1e-12)

    def test_isolated_node_gets_unit_diagonal(self):
        g = Graph(csr_from_edges(3, [0, 1], [1, 0], [1.0, 1.0]),
                  np.zeros((3, 1)), [0, 1, 0], [0, 1, 0])
        dense = normalize(g, "sym").to_dense()
        assert dense[2, 2] == 1.0

    def test_spectrum_bounded_by_one(self):
        g = generate_sbm(SbmConfig(n=200, p_in=0.05, p_out=0.01, seed=3))
        op = normalize(g, "sym")
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            v = rng.standard_normal(op.n)
            v /= np.linalg.norm(v)
            worst = max(worst, abs(float(v @ op.matvec(v))))
        assert worst <= 1.0 + 1e-12

    def test_sym_matches_dense_formula(self):
        g = generate_sbm(SbmConfig(n=60, p_in=0.2, p_out=0.05, seed=1))
        a = g.adjacency.to_dense()
        a_hat = a + np.eye(60)
        d = a_hat.sum(axis=1)
        expected = a_hat / np.sqrt(np.outer(d, d))
        got = normalize(g, "sym").to_dense()
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_sym_stores_the_unit_pattern_and_its_scale(self):
        g = generate_sbm(SbmConfig(n=60, p_in=0.2, p_out=0.05, seed=1))
        op = normalize(g, "sym")
        assert np.all(op.values == 1.0)
        np.testing.assert_array_equal(op.scale, 1.0 / np.sqrt(np.diff(op.row_ptr)))
        op.matvec(np.ones(op.n))
        assert op._plan.values is None

    def test_sym_dense_bytes_are_frozen(self):
        # Recorded when the operator stored each entry s_r s_c: to_dense
        # forms 1.0 * (s_r * s_c), the same bits, so the dense route's
        # basis keeps its bytes.
        op = normalize(generate_sbm(SbmConfig(n=400, seed=0)), "sym")
        assert hashlib.sha256(op.to_dense().tobytes()).hexdigest() == (
            "4e3da79d984a42ebd8c8ee0c71116e222f0ea0bea11a33779e05e17f83b4e18b")

    def test_sym_product_matches_its_dense_form(self):
        # s * (P (s * x)) rounds otherwise than the sums of s_r s_c x_c.
        op = normalize(generate_sbm(SbmConfig(n=400, seed=0)), "sym")
        x = np.random.default_rng(0).standard_normal((op.n, 3))
        want = op.to_dense() @ x
        got = op.matmat(x)
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            normalize(tiny_graph(), "rw")


class TestMakeSplits:
    def test_eight_node_enumeration(self):
        g = tiny_graph(8, labels=[0, 0, 0, 0, 1, 1, 1, 1])
        s = make_splits(g, seed=0)
        assert s.val.sum() == 2 and s.test.sum() == 2 and s.train.sum() == 4
        for mask in (s.val, s.test):
            assert g.labels[mask].sum() == 1  # one node of each class

    def test_thousand_node_protocol(self):
        g = tiny_graph(1000)
        s = make_splits(g, seed=1)
        assert s.val.sum() == 250 and s.test.sum() == 250 and s.train.sum() == 500

    def test_train_cap_at_500_per_class(self):
        g = tiny_graph(4000)
        s = make_splits(g, seed=2)
        for cls in (0, 1):
            assert (g.labels[s.train] == cls).sum() == 500

    def test_disjoint_and_deterministic(self):
        g = tiny_graph(101, labels=[i % 3 > 0 for i in range(101)])
        s1 = make_splits(g, seed=9)
        s2 = make_splits(g, seed=9)
        np.testing.assert_array_equal(s1.train, s2.train)
        np.testing.assert_array_equal(s1.val, s2.val)
        np.testing.assert_array_equal(s1.test, s2.test)
        assert not (s1.train & s1.val).any()
        assert not (s1.train & s1.test).any()
        assert not (s1.val & s1.test).any()

    def test_class_balance_within_one_node(self):
        g = tiny_graph(999, labels=[i % 2 for i in range(999)])
        s = make_splits(g, seed=4)
        for mask in (s.val, s.test):
            per_class = [(g.labels[mask] == c).sum() for c in (0, 1)]
            assert abs(per_class[0] - per_class[1]) <= 1

    def test_missing_class_raises(self):
        g = tiny_graph(6, labels=[1, 1, 1, 1, 1, 1])
        with pytest.raises(SplitError):
            make_splits(g, seed=0)

    def test_mask_json_roundtrip(self):
        g = tiny_graph(20)
        s = make_splits(g, seed=5)
        doc = SplitMasks.from_json(s.to_json(), g.n)
        np.testing.assert_array_equal(doc.train, s.train)
        np.testing.assert_array_equal(doc.val, s.val)
        np.testing.assert_array_equal(doc.test, s.test)
        assert json.loads(s.to_json())["n"] == 20


class TestGenerateSbm:
    def test_no_cross_edges_when_p_out_zero(self):
        g = generate_sbm(SbmConfig(n=200, p_in=0.1, p_out=0.0, seed=0))
        half = 100
        rows = np.repeat(np.arange(g.n), np.diff(g.adjacency.row_ptr))
        crosses = (rows < half) != (g.adjacency.col_idx < half)
        assert not crosses.any()

    def test_full_homophily_matches_blocks(self):
        g = generate_sbm(SbmConfig(n=100, sensitive_homophily=1.0, seed=1))
        np.testing.assert_array_equal(g.sensitive[:50], 0)
        np.testing.assert_array_equal(g.sensitive[50:], 1)

    def test_edge_count_within_three_sigma(self):
        cfg = SbmConfig()
        g = generate_sbm(cfg)
        half = cfg.n // 2
        within_pairs = 2 * (half * (half - 1) // 2)
        cross_pairs = half * half
        mean = within_pairs * cfg.p_in + cross_pairs * cfg.p_out
        var = (within_pairs * cfg.p_in * (1 - cfg.p_in)
               + cross_pairs * cfg.p_out * (1 - cfg.p_out))
        observed = g.edge_count / 2
        assert abs(observed - mean) <= 3.0 * np.sqrt(var)

    def test_deterministic_per_seed(self):
        g1 = generate_sbm(SbmConfig(n=300, seed=7))
        g2 = generate_sbm(SbmConfig(n=300, seed=7))
        assert g1.features.tobytes() == g2.features.tobytes()
        assert g1.labels.tobytes() == g2.labels.tobytes()
        assert g1.adjacency.col_idx.tobytes() == g2.adjacency.col_idx.tobytes()

    def test_first_feature_column_is_sensitive(self):
        g = generate_sbm(SbmConfig(n=150, seed=2))
        np.testing.assert_array_equal(g.features[:, 0], g.sensitive)
        assert g.features.shape[1] == 8

    def test_both_label_classes_present(self):
        g = generate_sbm(SbmConfig(n=400, seed=3))
        assert 0 < g.labels.sum() < g.n

    # The stream contract: edge (i, j), i < j, is draw i*n + j of the seed's
    # stream, and sampling leaves the stream where a full (n, n) draw would.
    # n=7 has an odd half; n=1031 an odd n and more than 512 rows.
    @pytest.mark.parametrize("n", [4, 7, 1031])
    @pytest.mark.parametrize("p_in, p_out", [
        (SbmConfig().p_in, SbmConfig().p_out), (1.0, 0.0),
    ], ids=["defaults", "p_in1-p_out0"])
    def test_edges_are_the_upper_triangle_of_one_full_draw(self, n, p_in, p_out):
        half = n // 2
        full, skipping = np.random.default_rng(11), np.random.default_rng(11)
        side = np.arange(n) < half
        prob = np.where(side[:, None] == side[None, :], p_in, p_out)
        expected = np.argwhere(np.triu(full.random((n, n)) < prob, k=1))
        pairs = _sample_block_edges(skipping, n, half, p_in, p_out)
        assert pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs, expected)
        assert skipping.random(4).tobytes() == full.random(4).tobytes()

    # The sampler against the one-row-at-a-time reference, its rows split
    # into 1, 2 and 3 ranges (all but the first sampled in threads) or, with
    # ranges=None, as many as its default picks: one per usable core at
    # n=_MIN_THREADED_N.  The pairs and the next draws must not depend on
    # the split.  p_out > p_in, which SbmConfig refuses, checks that the
    # candidates are all draws below the larger probability.  The dense p's
    # stay below n=_MIN_THREADED_N, where they would hold 4-6 million pairs
    # in each of the two samplers.
    @pytest.mark.parametrize("ranges", [None, 1, 2, 3])
    @pytest.mark.parametrize("n, p_in, p_out", [
        *((n, *p) for n in (4, 7, 1031)
          for p in ((SbmConfig().p_in, SbmConfig().p_out), (1.0, 0.0), (0.3, 0.3),
                    (0.05, 0.5))),
        (_MIN_THREADED_N, SbmConfig().p_in, SbmConfig().p_out),
    ])
    def test_ranges_match_the_row_by_row_reference(self, n, p_in, p_out, ranges):
        half = n // 2
        ref, rng = np.random.default_rng(5), np.random.default_rng(5)
        ref.random(3)  # both start past draw 0
        rng.random(3)
        expected = sample_block_edges(ref, n, half, p_in, p_out)
        pairs = _sample_block_edges(rng, n, half, p_in, p_out, ranges=ranges)
        assert pairs.dtype == np.int64
        np.testing.assert_array_equal(pairs, expected)
        assert rng.random(4).tobytes() == ref.random(4).tobytes()

    @pytest.mark.parametrize("n", [_MIN_THREADED_N - 1, _MIN_THREADED_N])
    def test_threads_start_only_from_the_crossover(self, monkeypatch, n):
        sample_rows, threads = graph._sample_rows, []

        def recording(*args):
            threads.append(threading.get_ident())
            return sample_rows(*args)

        monkeypatch.setattr(graph, "_sample_rows", recording)
        _sample_block_edges(np.random.default_rng(0), n, n // 2, 0.01, 0.001)
        ranges = _usable_cores() if n >= _MIN_THREADED_N else 1
        assert len(threads) == len(set(threads)) == ranges
        assert threading.get_ident() in threads

    def test_a_failing_range_raises_and_leaves_no_thread(self, monkeypatch):
        sample_rows = graph._sample_rows

        def second_range_fails(gen, n, lo, *args):
            if lo > 0:
                raise RuntimeError("second range failed")
            return sample_rows(gen, n, lo, *args)

        monkeypatch.setattr(graph, "_sample_rows", second_range_fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="second range failed"):
            _sample_block_edges(np.random.default_rng(0), 1031, 515, 0.01, 0.001, ranges=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 3},
            {"p_in": 0.001, "p_out": 0.01},
            {"p_out": -0.1},
            {"sensitive_homophily": 0.4},
            {"label_bias": 1.5},
            {"d": 1},
            {"noise_sd": 0.0},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            SbmConfig(**kwargs)
