"""CSR storage checked against dense arithmetic.

Every product route (matvec, matmat) is compared with the dense oracle
``A @ x`` on instances small enough that numpy's dense path is beyond
suspicion, and byte for byte with the unblocked sums of
``product_oracles.jagged_product``.  Construction helpers are checked for
the layout invariants the rest of the package relies on: sorted columns
within rows, summed duplicates, and read-only buffers.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairspectral import sparse
from fairspectral.sparse import (
    _MIN_ROWS,
    CsrMatrix,
    csr_from_dense,
    csr_from_edges,
    is_symmetric,
)

from product_oracles import jagged_product


def random_masked_symmetric(rng, n, density=0.1):
    """Dense symmetric matrix with roughly the requested fill."""
    a = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < density
    a = a * mask
    return (a + a.T) / 2.0


class TestConstruction:
    def test_valid_matrix_coerces_dtypes(self):
        m = CsrMatrix(2, [0, 1, 2], [1, 0], [3.0, 3.0])
        assert m.row_ptr.dtype == np.int64
        assert m.col_idx.dtype == np.int64
        assert m.values.dtype == np.float64
        assert m.nnz == 2

    def test_buffers_are_read_only(self):
        m = CsrMatrix(2, [0, 1, 2], [1, 0], [3.0, 3.0])
        with pytest.raises(ValueError):
            m.values[0] = 9.0

    def test_bad_row_ptr_length(self):
        with pytest.raises(ValueError):
            CsrMatrix(3, [0, 1, 2], [0, 1], [1.0, 1.0])

    def test_decreasing_row_ptr(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_row_ptr_endpoint_mismatch(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 3], [0, 1], [1.0, 1.0])

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 2], [0, 2], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, [0, 1, 2], [0, 1], [1.0])

    @pytest.mark.parametrize("col_idx", [[1, 1, 0], [1, 0, 0]], ids=["duplicate", "unsorted"])
    def test_row_columns_must_strictly_increase(self, col_idx):
        # With a duplicate, matvec would give row 0 = 3 x_1 while to_dense
        # keeps only the last value, 2.
        with pytest.raises(ValueError, match="strictly increasing"):
            CsrMatrix(2, [0, 2, 3], col_idx, [1.0, 2.0, 3.0])

    def test_columns_may_drop_across_rows(self):
        m = CsrMatrix(2, [0, 2, 3], [0, 1, 0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(m.to_dense(), [[1.0, 2.0], [3.0, 0.0]])

    def test_empty_matrix(self):
        m = CsrMatrix(3, np.zeros(4, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))
        assert m.nnz == 0
        np.testing.assert_array_equal(m.to_dense(), np.zeros((3, 3)))


class TestProductsAgainstDense:
    def test_matvec_matches_dense(self):
        rng = np.random.default_rng(0)
        for n in (1, 5, 37, 200):
            a = random_masked_symmetric(rng, n)
            m = csr_from_dense(a)
            x = rng.standard_normal(n)
            np.testing.assert_allclose(m.matvec(x), a @ x, rtol=0, atol=1e-12)

    def test_matmat_matches_dense(self):
        rng = np.random.default_rng(1)
        a = random_masked_symmetric(rng, 60)
        m = csr_from_dense(a)
        x = rng.standard_normal((60, 7))
        np.testing.assert_allclose(m.matmat(x), a @ x, rtol=0, atol=1e-12)

    def test_matmat_is_columnwise_matvec_bit_for_bit(self):
        rng = np.random.default_rng(6)
        a = random_masked_symmetric(rng, 50, density=0.1)
        a[[3, 17, 40]] = 0.0
        a[:, [3, 17, 40]] = 0.0
        m = csr_from_dense(a)
        assert np.any(np.diff(m.row_ptr) == 0)
        x = rng.standard_normal((50, 6))
        columns = np.column_stack([m.matvec(x[:, c]) for c in range(6)])
        assert m.matmat(x).tobytes() == columns.tobytes()

    def test_empty_rows_stay_zero(self):
        # Row 1 has no entries, so no diagonal or tail reaches it and it
        # keeps the zero its sum starts from.  A reduceat segment for it
        # would read row 2's entry instead.
        a = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = csr_from_dense(a)
        np.testing.assert_array_equal(m.matvec([1.0, 1.0, 1.0]), [2.0, 0.0, 2.0])

    @staticmethod
    def product_case(name):
        rng = np.random.default_rng(7)
        if name == "isolated-weighted":
            # Criterion 10's kind of graph, small: random weighted edges,
            # both directions stored, no self-loops; 35 of 300 nodes stay
            # isolated.
            n = 300
            u, v = rng.integers(0, n, n), rng.integers(0, n, n)
            keep = u != v
            u, v = u[keep], v[keep]
            w = rng.standard_normal(u.shape[0])
            return csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]),
                                  np.concatenate([w, w]))
        if name == "all-empty":
            return csr_from_dense(np.zeros((6, 6)))
        a = random_masked_symmetric(rng, 40, density=0.15)
        if name == "no-empty-rows":  # as every "sym" operator, through A + I
            a += np.eye(40)
        else:
            row = {"empty-first-row": 0, "empty-last-row": 39}[name]
            a[row] = 0.0
            a[:, row] = 0.0
        return csr_from_dense(a)

    @pytest.mark.parametrize("name, empty_rows", [
        ("empty-first-row", True), ("empty-last-row", True), ("all-empty", True),
        ("no-empty-rows", False), ("isolated-weighted", True),
    ])
    def test_products_with_and_without_empty_rows(self, name, empty_rows):
        # Empty rows rank last and are never summed.  A plan that gave them
        # a reduceat segment, which reads an empty segment as the single
        # entry at its start, is wrong on each case with an empty row.
        m = self.product_case(name)
        assert bool(np.any(np.diff(m.row_ptr) == 0)) == empty_rows
        rng = np.random.default_rng(8)
        x = rng.standard_normal((m.n, 5))
        dense = m.to_dense()
        for c in range(5):
            np.testing.assert_allclose(m.matvec(x[:, c]), dense @ x[:, c], rtol=0, atol=1e-12)
        columns = np.column_stack([m.matvec(x[:, c]) for c in range(5)])
        assert m.matmat(x).tobytes() == columns.tobytes()

    def test_matvec_rejects_wrong_length(self):
        m = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.matvec(np.ones(4))

    def test_matmat_rejects_vector(self):
        m = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.matmat(np.ones(3))


def hub_operator(n, seed=0):
    """Row 0 holds n - 1 entries; the other rows a few random ones each."""
    rng = np.random.default_rng(seed)
    u, v = rng.integers(1, n, 2 * n), rng.integers(1, n, 2 * n)
    keep = u != v
    hub = np.arange(1, n)
    rows = np.concatenate([u[keep], v[keep], np.zeros(n - 1, dtype=np.int64), hub])
    cols = np.concatenate([v[keep], u[keep], hub, np.zeros(n - 1, dtype=np.int64)])
    return csr_from_edges(n, rows, cols, rng.standard_normal(rows.shape[0]))


def diagonals_of_min_rows(m):
    """How many diagonals (entry j of every row longer than j) hold at
    least _MIN_ROWS rows."""
    counts = np.diff(m.row_ptr)
    return sum(int(np.sum(counts > j)) >= _MIN_ROWS for j in range(int(counts.max(initial=0))))


class TestJaggedPlan:
    def test_hub_row_matches_dense_with_bounded_adds(self):
        m = hub_operator(300)
        x = np.random.default_rng(1).standard_normal(m.n)
        np.testing.assert_allclose(m.matvec(x), m.to_dense() @ x, rtol=0, atol=1e-12)
        # One slice add per stored diagonal; an unbounded layout would run
        # one per entry of the hub row, 299.
        assert np.diff(m.row_ptr).max() == m.n - 1
        assert len(m._plan.rows) <= diagonals_of_min_rows(m) < 20
        assert m._plan.tail_starts.size < _MIN_ROWS

    def test_rows_rank_by_length_with_ties_in_row_order(self):
        counts = [2, 3, 0, 2, 3, 2]
        row_ptr = np.concatenate([[0], np.cumsum(counts)])
        cols = np.concatenate([np.arange(c) for c in counts])
        m = CsrMatrix(6, row_ptr, cols, np.ones(row_ptr[-1]))
        np.testing.assert_array_equal(np.argsort(m._plan.rank), [1, 4, 0, 3, 5, 2])

    def test_few_rows_are_all_tail_as_one_reduceat(self):
        rng = np.random.default_rng(2)
        a = random_masked_symmetric(rng, _MIN_ROWS - 1, density=0.3)
        a[5] = 0.0
        m = csr_from_dense(a)
        assert m._plan.rows == ()
        x = rng.standard_normal(m.n)
        nonempty = np.diff(m.row_ptr) > 0
        expect = np.zeros(m.n)
        expect[nonempty] = np.add.reduceat(m.values * x[m.col_idx], m.row_ptr[:-1][nonempty])
        np.testing.assert_array_equal(m.matvec(x), expect)

    def test_zero_operator(self):
        n = 200
        m = csr_from_dense(np.zeros((n, n)))
        assert m._plan.rows == () and m._plan.tail_starts.size == 0
        np.testing.assert_array_equal(m.matvec(np.ones(n)), np.zeros(n))
        np.testing.assert_array_equal(m.matmat(np.ones((n, 2))), np.zeros((n, 2)))

    def test_plan_is_built_on_the_first_product_only(self, monkeypatch):
        builds = []
        build = sparse._JaggedPlan.build
        monkeypatch.setattr(sparse._JaggedPlan, "build",
                            lambda *args: builds.append(1) or build(*args))
        m = hub_operator(200)
        assert "_plan" not in vars(m) and not builds
        m.matvec(np.ones(m.n))
        m.matmat(np.ones((m.n, 3)))
        assert len(builds) == 1


def assert_blocks_partition_rows(plan, bound):
    """The blocks cover the entries in order, their diagonals are the plan's
    rows in order, the tail sits at the end of the last block, and a block
    is over the bound only when it is one diagonal or the tail alone."""
    tail = plan.col_idx.size - sum(plan.rows)
    starts = [0] + [stop for _, stop, _ in plan.blocks]
    assert [start for start, _, _ in plan.blocks] == starts[:-1]
    assert starts[-1] == plan.col_idx.size
    assert tuple(r for _, _, rows in plan.blocks for r in rows) == plan.rows
    for i, (start, stop, rows) in enumerate(plan.blocks):
        own_tail = tail if i == len(plan.blocks) - 1 else 0
        assert stop - start == sum(rows) + own_tail > 0
        if stop - start > bound:
            assert (len(rows), own_tail) == (1, 0) or rows == ()
    assert plan.width == max((stop - start for start, stop, _ in plan.blocks), default=0)
    if plan.tail_starts.size:
        start, stop, _ = plan.blocks[-1]
        assert plan.tail_starts[0] == stop - start - tail


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=300),
       st.floats(min_value=0.0, max_value=0.2))
def test_products_match_dense_on_jagged_patterns(seed, n, density):
    """Random (not symmetric) patterns with empty rows and one long row,
    planned in blocks of the default size and of a few entries, so that
    products span many blocks and a lone diagonal or tail outgrows one."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    a[rng.integers(0, n, n // 4 + 1)] = 0.0
    a[rng.integers(n)] = rng.standard_normal(n)
    x = rng.standard_normal((n, 3))
    for bound in (sparse._BLOCK_ENTRIES, 1, 7, 64):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sparse, "_BLOCK_ENTRIES", bound)
            m = csr_from_dense(a)
            m.matvec(x[:, 0])
        assert_blocks_partition_rows(m._plan, bound)
        for c in range(3):
            got = m.matvec(x[:, c])
            np.testing.assert_allclose(got, a @ x[:, c], rtol=0, atol=1e-12)
            assert got.tobytes() == jagged_product(m, x[:, c]).tobytes()
        columns = np.column_stack([jagged_product(m, x[:, c]) for c in range(3)])
        assert m.matmat(x).tobytes() == columns.tobytes()


def criterion_10_graph():
    """Acceptance criterion 10's random weighted graph: n=20000, rng 1010,
    159962 entries, eight blocks."""
    rng = np.random.default_rng(1010)
    n = 20000
    u, v = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.standard_normal(u.shape[0])
    return csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]),
                          np.concatenate([w, w]))


def test_products_at_full_size_are_frozen():
    # Digests recorded before products were blocked; a change that moves
    # their rounding must say so and re-record them.
    m = criterion_10_graph()
    x = np.random.default_rng(11).standard_normal((m.n, 3))
    assert m.nnz == 159962
    assert hashlib.sha256(m.matvec(x[:, 0]).tobytes()).hexdigest() == (
        "a4ddad8d262b3dcdec2573be8da3edc0a16dc3d1fea7f41a8b7adf3d1e9a98f7")
    assert hashlib.sha256(m.matmat(x).tobytes()).hexdigest() == (
        "813cff3b5f1421fa267ccc663838db9223d9e77eead6ab08914d7d2772457cf3")
    assert len(m._plan.blocks) > 1
    assert_blocks_partition_rows(m._plan, sparse._BLOCK_ENTRIES)


class TestFromDense:
    def test_roundtrip(self):
        rng = np.random.default_rng(2)
        a = random_masked_symmetric(rng, 40)
        np.testing.assert_array_equal(csr_from_dense(a).to_dense(), a)

    def test_tolerance_drops_small_entries(self):
        a = np.array([[0.0, 1e-9], [1e-9, 5.0]])
        m = csr_from_dense(a, tol=1e-6)
        assert m.nnz == 1
        assert m.to_dense()[1, 1] == 5.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            csr_from_dense(np.ones((2, 3)))

    def test_columns_sorted_within_rows(self):
        rng = np.random.default_rng(3)
        m = csr_from_dense(random_masked_symmetric(rng, 50))
        for i in range(m.n):
            cols = m.col_idx[m.row_ptr[i]:m.row_ptr[i + 1]]
            assert np.all(np.diff(cols) > 0)


class TestFromEdges:
    def test_duplicates_are_summed(self):
        m = csr_from_edges(3, [0, 0, 2], [1, 1, 0], [1.0, 2.5, 4.0])
        assert m.nnz == 2
        assert m.to_dense()[0, 1] == 3.5
        assert m.to_dense()[2, 0] == 4.0

    def test_unsorted_input_lands_sorted(self):
        m = csr_from_edges(4, [2, 0, 2, 0], [3, 2, 0, 1], np.ones(4))
        np.testing.assert_array_equal(m.col_idx[m.row_ptr[2]:m.row_ptr[3]], [0, 3])
        np.testing.assert_array_equal(m.col_idx[m.row_ptr[0]:m.row_ptr[1]], [1, 2])

    def test_empty_input(self):
        m = csr_from_edges(3, [], [], [])
        assert m.nnz == 0

    @pytest.mark.parametrize("row", [-1, 3])
    def test_row_out_of_range(self, row):
        with pytest.raises(ValueError, match="row index out of range"):
            csr_from_edges(3, [row], [0], [1.0])

    def test_duplicates_sum_in_input_order(self):
        # np.add.at adds in input order, so equal bits mean the same order.
        rng = np.random.default_rng(7)
        n, m_entries = 6, 400
        rows, cols = rng.integers(0, n, m_entries), rng.integers(0, n, m_entries)
        vals = rng.standard_normal(m_entries) * 10.0 ** rng.integers(-8, 8, m_entries)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        assert csr_from_edges(n, rows, cols, vals).to_dense().tobytes() == dense.tobytes()

    def test_matches_dense_accumulation(self):
        rng = np.random.default_rng(4)
        n, m_entries = 20, 300
        rows = rng.integers(0, n, m_entries)
        cols = rng.integers(0, n, m_entries)
        vals = rng.standard_normal(m_entries)
        dense = np.zeros((n, n))
        np.add.at(dense, (rows, cols), vals)
        got = csr_from_edges(n, rows, cols, vals).to_dense()
        np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)


class TestSymmetry:
    def test_symmetric_matrix_detected(self):
        rng = np.random.default_rng(5)
        m = csr_from_dense(random_masked_symmetric(rng, 30))
        assert is_symmetric(m)

    def test_structural_asymmetry_detected(self):
        m = csr_from_edges(3, [0], [1], [1.0])
        assert not is_symmetric(m)

    def test_value_asymmetry_detected(self):
        m = csr_from_edges(2, [0, 1], [1, 0], [1.0, 2.0])
        assert not is_symmetric(m)
        assert is_symmetric(m, tol=1.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=300),
       st.integers(min_value=0, max_value=60))
def test_symmetry_check_matches_dense_transpose(seed, n, entries):
    """Structure and values: symmetrized COO input, then one entry's twin
    removed or changed, or left alone."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, n, entries), rng.integers(0, n, entries)
    vals = rng.integers(1, 4, entries).astype(np.float64)
    rows, cols, vals = (np.concatenate([rows, cols]), np.concatenate([cols, rows]),
                        np.concatenate([vals, vals]))
    fault = rng.integers(3)
    if entries and fault == 1:
        rows, cols, vals = rows[1:], cols[1:], vals[1:]
    elif entries and fault == 2:
        vals[0] += 1.0
    m = csr_from_edges(n, rows, cols, vals)
    dense = m.to_dense()
    assert bool(is_symmetric(m)) == np.array_equal(dense, dense.T)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=30))
def test_matvec_property(seed, n):
    """A @ x equals the dense product for arbitrary symmetric fill."""
    rng = np.random.default_rng(seed)
    a = random_masked_symmetric(rng, n, density=rng.uniform(0.0, 0.6))
    m = csr_from_dense(a)
    x = rng.standard_normal(n)
    np.testing.assert_allclose(m.matvec(x), a @ x, rtol=0, atol=1e-10)
    assert is_symmetric(m)
