"""CSR storage checked against dense arithmetic.

Every product route (matvec, matmat) is compared with the dense oracle
``A @ x`` on instances small enough that numpy's dense path is beyond
suspicion.  Construction helpers are checked for the layout invariants
the rest of the package relies on: sorted columns within rows, summed
duplicates, and read-only buffers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairspectral.sparse import (
    CsrMatrix,
    csr_from_dense,
    csr_from_edges,
    is_symmetric,
)


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
        # Row 1 has no entries; reduceat would misattribute it without the
        # explicit empty-row masking.
        a = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        m = csr_from_dense(a)
        np.testing.assert_array_equal(m.matvec([1.0, 1.0, 1.0]), [2.0, 0.0, 2.0])

    def test_matvec_rejects_wrong_length(self):
        m = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.matvec(np.ones(4))

    def test_matmat_rejects_vector(self):
        m = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            m.matmat(np.ones(3))


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
