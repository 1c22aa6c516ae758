"""Eigensolver checks: hand-computed cases, dense self-consistency, and the
sparse iterative route cross-checked against the dense one.

The sparse route (Lanczos + projected small problems) reuses the dense
route's tridiagonal solver and reduction only for its small projected
matrices; the dense route (Householder tridiagonalization, divide and
conquer on the tridiagonal matrix with QL + inverse-iteration leaves, and a
compact-WY back-transform) decomposes the whole operator, so agreement
between them is evidence, not tautology.  Degenerate spectra are compared
as subspaces because individual eigenvectors are arbitrary inside a
repeated eigenvalue's eigenspace.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigen_oracles import tridiagonal_eig
from fairspectral import eigen
from fairspectral.eigen import (
    DENSE_LIMIT,
    DenseLimitError,
    NoConvergenceError,
    SpectralBasis,
    _orthogonalize,
    _tridiagonal_eigenvalues,
    canonical_sign,
    dense_symmetric_eig,
    full_dense_eigendecomposition,
    load_basis,
    magnitude_order,
    save_basis,
    top_k_eigenpairs,
)
from fairspectral.graph import Graph, SbmConfig, generate_sbm, normalize
from fairspectral.sparse import CsrMatrix, csr_from_dense, csr_from_edges


def random_sparse_symmetric(rng, n, density=0.08):
    a = rng.standard_normal((n, n))
    a = a * (rng.random((n, n)) < density)
    a = (a + a.T) / 2.0
    return a


def dense_prefix(a, k):
    """Leading k pairs of the full dense decomposition."""
    full = full_dense_eigendecomposition(a)
    return SpectralBasis(full.eigenvalues[:k], full.eigenvectors[:, :k])


def graph_operator(n, edges, mode):
    """The operator of an unlabeled graph on n nodes with the given edges."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    adjacency = csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]),
                               np.ones(2 * edges.shape[0]))
    zeros = np.zeros(n, dtype=np.int64)
    return normalize(Graph(adjacency, np.zeros((n, 1)), zeros, zeros), mode)


def subspace_angle(p, q):
    """Largest principal angle between the column spans, in radians."""
    s = np.linalg.svd(p.T @ q, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


class TestOrderingAndSign:
    def test_magnitude_order_positive_first_on_ties(self):
        order = magnitude_order(np.array([-3.0, 1.0, 3.0, -1.0]))
        np.testing.assert_array_equal(order, [2, 0, 1, 3])

    def test_canonical_sign_flips_negative_leads(self):
        p = np.array([[0.1, -0.9], [-0.8, 0.2]])
        fixed = canonical_sign(p)
        # Column 0 led by |-0.8| at row 1, column 1 by |-0.9| at row 0.
        np.testing.assert_allclose(fixed[:, 0], [-0.1, 0.8])
        np.testing.assert_allclose(fixed[:, 1], [0.9, -0.2])

    def test_canonical_sign_tie_breaks_to_lowest_row(self):
        p = np.array([[-0.5], [0.5]])
        np.testing.assert_allclose(canonical_sign(p), [[0.5], [-0.5]])


class TestHandComputedCases:
    def test_two_by_two_exchange(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        basis = top_k_eigenpairs(csr_from_dense(a), 2)
        np.testing.assert_allclose(basis.eigenvalues, [1.0, -1.0], atol=1e-12)
        r = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(np.abs(basis.eigenvectors), r, atol=1e-10)
        # Sign convention: first maximal entry non-negative in each column.
        np.testing.assert_allclose(basis.eigenvectors[:, 0], [r, r], atol=1e-10)
        np.testing.assert_allclose(basis.eigenvectors[:, 1], [r, -r], atol=1e-10)

    def test_diagonal_top_pair(self):
        a = np.diag([3.0, 2.0, 1.0])
        basis = top_k_eigenpairs(csr_from_dense(a), 1)
        np.testing.assert_allclose(basis.eigenvalues, [3.0], atol=1e-12)
        np.testing.assert_allclose(basis.eigenvectors[:, 0], [1.0, 0.0, 0.0], atol=1e-10)

    def test_negative_dominant_ordering(self):
        basis = full_dense_eigendecomposition(np.diag([-5.0, 4.0]))
        np.testing.assert_allclose(basis.eigenvalues, [-5.0, 4.0], atol=1e-12)

    def test_all_ones_rank_one(self):
        basis = full_dense_eigendecomposition(np.ones((3, 3)))
        np.testing.assert_allclose(basis.eigenvalues, [3.0, 0.0, 0.0], atol=1e-10)


class TestDenseRoute:
    def test_reconstruction(self):
        rng = np.random.default_rng(10)
        a = random_sparse_symmetric(rng, 50, density=0.3)
        basis = full_dense_eigendecomposition(a)
        rebuilt = (basis.eigenvectors * basis.eigenvalues) @ basis.eigenvectors.T
        assert np.max(np.abs(rebuilt - a)) <= 1e-9

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(11)
        a = random_sparse_symmetric(rng, 80, density=0.2)
        p = full_dense_eigendecomposition(a).eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(80))) <= 1e-10

    def test_magnitude_sorted_with_residuals(self):
        rng = np.random.default_rng(12)
        a = random_sparse_symmetric(rng, 60, density=0.2)
        basis = full_dense_eigendecomposition(a)
        mags = np.abs(basis.eigenvalues)
        assert np.all(mags[:-1] >= mags[1:] - 1e-12)
        assert np.all(basis.residuals <= 1e-9)

    def test_size_guard(self):
        with pytest.raises(DenseLimitError):
            full_dense_eigendecomposition(np.eye(DENSE_LIMIT + 1))

    @pytest.mark.parametrize("k", [0, 21])
    def test_k_outside_one_to_n_is_refused(self, k):
        with pytest.raises(ValueError, match=rf"k must be in \[1, 20\], got {k}"):
            full_dense_eigendecomposition(np.eye(20), k)

    def test_eigenvectors_are_c_ordered_without_a_copy(self, monkeypatch):
        # The signed, ordered eigenvectors reach SpectralBasis in C order,
        # so its ascontiguousarray keeps them instead of copying n^2 values.
        signed = []

        def recording(p):
            signed.append(canonical_sign(p))
            return signed[-1]

        monkeypatch.setattr(eigen, "canonical_sign", recording)
        rng = np.random.default_rng(14)
        basis = full_dense_eigendecomposition(random_sparse_symmetric(rng, 70, density=0.2))
        assert basis.eigenvectors.flags.c_contiguous
        assert basis.eigenvectors is signed[0]

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            full_dense_eigendecomposition(np.ones((2, 3)))

    # n = 30 is one QL leaf; at n = 100 the first of four leaves fails.
    @pytest.mark.parametrize("n", [30, 100])
    def test_ql_budget_exhaustion_carries_q_and_the_unreduced_diagonal(self, monkeypatch, n):
        d = np.array([0.0, 2.0, 1.0, -1.0])
        e = np.array([0.0, 0.5, 0.25, 0.75])
        with pytest.raises(NoConvergenceError) as info:
            _tridiagonal_eigenvalues(d, e, max_sweeps=0)
        # No sweep ran: in tridiagonal coordinates the state is the input
        # diagonal and the identity, and the inputs stay untouched.
        np.testing.assert_array_equal(info.value.basis.eigenvalues, d)
        np.testing.assert_array_equal(info.value.basis.eigenvectors, np.eye(4))
        np.testing.assert_array_equal(e, [0.0, 0.5, 0.25, 0.75])

        # Through the dense solver the state comes back in the input's
        # coordinates: Q is orthogonal, and Q^T a Q is tridiagonal with the
        # carried diagonal.
        rng = np.random.default_rng(13)
        a = random_sparse_symmetric(rng, n, density=0.5)
        monkeypatch.setattr(eigen, "_tridiagonal_eigenvalues",
                            functools.partial(_tridiagonal_eigenvalues, max_sweeps=0))
        with pytest.raises(NoConvergenceError) as info:
            dense_symmetric_eig(a)
        basis = info.value.basis
        assert basis.eigenvalues.shape == (n,) and basis.eigenvectors.shape == (n, n)
        q = basis.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-13
        t = q.T @ a @ q
        assert np.max(np.abs(np.triu(t, 2))) <= 1e-13
        np.testing.assert_allclose(np.diag(t), basis.eigenvalues, rtol=0, atol=1e-13)

    # n = 100 has four leaves of 25 rows; the third leaf's QL fails after
    # the first two have succeeded.
    def test_ql_failure_in_a_later_leaf_carries_q_and_t_diagonal(self, monkeypatch):
        calls = []

        def third_fails(d, e):
            calls.append(d.shape[0])
            return _tridiagonal_eigenvalues(d, e, max_sweeps=0 if len(calls) == 3 else 50)

        rng = np.random.default_rng(13)
        a = random_sparse_symmetric(rng, 100, density=0.5)
        monkeypatch.setattr(eigen, "_tridiagonal_eigenvalues", third_fails)
        with pytest.raises(NoConvergenceError, match="failed to deflate") as info:
            dense_symmetric_eig(a)
        assert calls == [25, 25, 25]
        basis = info.value.basis
        q = basis.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(100))) <= 1e-13
        t = q.T @ a @ q
        assert np.max(np.abs(np.triu(t, 2))) <= 1e-13
        np.testing.assert_allclose(np.diag(t), basis.eigenvalues, rtol=0, atol=1e-13)
        np.testing.assert_array_equal(basis.eigenvalues, eigen._tridiagonalize(a)[0])

    def test_peak_memory_within_six_n_squared_doubles(self):
        # tracemalloc peak on the 400-node SBM operator: 3.3 n^2 doubles with
        # QL and inverse iteration on the whole tridiagonal, 3.5 n^2 with
        # divide and conquer (the reflectors, both halves' eigenvectors, the
        # merge's small matrix and its product).  Later measured: 4.42 n^2
        # with the recursive leaves, 4.49 n^2 with the leaves partitioned up
        # front and batched.
        a = normalize(generate_sbm(SbmConfig(n=400, seed=0)), "sym").to_dense()
        tracemalloc.start()
        try:
            dense_symmetric_eig(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * a.nbytes

    def test_degenerate_case_sizes(self):
        w, v = dense_symmetric_eig(np.zeros((0, 0)))
        assert w.shape == (0,) and v.shape == (0, 0)
        w, v = dense_symmetric_eig(np.array([[7.0]]))
        np.testing.assert_allclose(w, [7.0])
        np.testing.assert_allclose(v, [[1.0]])


def wilkinson_plus(m):
    """W_{2m+1}^+: diagonal |m|, ..., 1, 0, 1, ..., |m|, unit off-diagonals.
    Its largest eigenvalues come in pairs that agree to about 1e-14."""
    return (np.diag(np.abs(np.arange(-m, m + 1.0)))
            + np.eye(2 * m + 1, k=1) + np.eye(2 * m + 1, k=-1))


class TestDenseHardSpectra:
    """Eigenvalues against np.linalg.eigvalsh, residuals and orthonormality,
    all to 1e-12 relative to ||a||, on spectra with ties and splits."""

    @staticmethod
    def check(a):
        w, v = dense_symmetric_eig(a)
        n = a.shape[0]
        scale = 1e-12 * np.linalg.norm(a, 2)
        np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), rtol=0, atol=scale)
        assert np.max(np.abs(a @ v - v * w)) <= scale
        assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
        return w, v

    # W_21^+'s top pair is 1e-14 apart.  From W_65^+ on the pairs agree
    # beyond an ulp, and they straddle the divide-and-conquer split at the
    # middle row, so the merges deflate them by rotation (5 rotations at
    # m = 32 and at m = 50).
    @pytest.mark.parametrize("m", [10, 32, 50])
    def test_wilkinson_pairs(self, m):
        w, _ = self.check(wilkinson_plus(m))
        top = np.sort(w)[-2:]
        assert top[1] - top[0] <= 1e-13
        if m == 10:
            assert top[1] - top[0] > 0.0

    # Copies of W_21^+ glued by tiny couplings: each eigenvalue comes once per
    # copy, spread by about the glue, too far apart to deflate.  Vectors built
    # from the merge's own z instead of Gu and Eisenstat's z-hat lose
    # orthogonality here (1e-3 at 5 copies glued by 1e-10).
    @pytest.mark.parametrize("copies, glue", [(5, 1e-10), (10, 1e-12)])
    def test_glued_wilkinson(self, copies, glue):
        a = np.kron(np.eye(copies), wilkinson_plus(10))
        for i in range(21, 21 * copies, 21):
            a[i - 1, i] = a[i, i - 1] = glue
        self.check(a)

    @staticmethod
    def check_reduction(a):
        """Q^T a Q, with Q applied by _apply_q, is the tridiagonal matrix
        whose (d, e) _tridiagonalize returns; returns e."""
        n = a.shape[0]
        d, e, z, h = eigen._tridiagonalize(a)
        q = eigen._apply_q(z, h, np.eye(n))
        t = np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)
        assert np.max(np.abs(q.T @ a @ q - t)) <= 1e-12 * np.linalg.norm(a, 2)
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= 1e-12
        return e

    def identical_blocks(self, copies):
        rng = np.random.default_rng(30)
        b = rng.standard_normal((5, 5))
        a = np.kron(np.eye(copies), b + b.T)
        e = self.check_reduction(a)
        assert np.count_nonzero(e[1:] == 0.0) >= copies - 1
        w, _ = self.check(a)
        # Every eigenvalue of the block comes once per copy.
        np.testing.assert_allclose(np.sort(w).reshape(5, copies),
                                   np.repeat(np.linalg.eigvalsh(b + b.T)[:, None], copies, axis=1),
                                   rtol=0, atol=1e-12 * np.linalg.norm(a, 2))

    def test_identical_blocks_split_the_tridiagonal_exactly(self):
        self.identical_blocks(6)

    @pytest.mark.parametrize("keep", [1, 16, 40])
    def test_arrowhead_reduction_fixes_the_last_coordinate(self, keep):
        # A Lanczos restart's [[diag theta, c], [c^T, 0]]: every reflector
        # acts on the coordinates before its row, so Q leaves the residual
        # direction, the last coordinate, exactly where it is, and the
        # coupling ends up in e[-1] alone.
        rng = np.random.default_rng(keep)
        c = 1e-3 * rng.standard_normal(keep)
        a = np.diag(np.append(np.sort(rng.uniform(-1.0, 1.0, keep))[::-1], 0.0))
        a[keep, :keep] = a[:keep, keep] = c
        e = self.check_reduction(a)
        d, _, z, h = eigen._tridiagonalize(a)
        q = eigen._apply_q(z, h, np.eye(keep + 1))
        last = np.eye(keep + 1)[keep]
        assert q[keep].tobytes() == last.tobytes() and q[:, keep].tobytes() == last.tobytes()
        assert d[keep] == 0.0
        np.testing.assert_allclose(abs(e[-1]), np.linalg.norm(c), rtol=1e-14)
        t = q.T @ a @ q
        assert np.abs(t[keep, : keep - 1]).max(initial=0.0) <= 1e-15 * np.linalg.norm(a, 2)

    # The reduction runs panels of 32 steps while more than 32 rows remain
    # and single steps after that, so every case above with n <= 32 stays on
    # single steps; so does the tridiagonal solver, whose leaves have at most
    # 32 rows.  n = 33, 64, 65 and 100 cross the crossover and the panel
    # edges, and n = 257 merges three levels deep; the n = 100 cases after
    # them put skipped (zero-scale) steps inside panels.
    @pytest.mark.parametrize("n", [33, 64, 65, 100, 257])
    def test_sizes_across_the_panel_edges(self, n):
        a = random_sparse_symmetric(np.random.default_rng(n), n, density=0.5)
        self.check_reduction(a)
        self.check(a)

    def test_identical_blocks_split_the_tridiagonal_exactly_inside_panels(self):
        self.identical_blocks(20)

    # A tridiagonal input keeps its couplings up to sign through the
    # reduction: a zero stays a zero, and negative couplings mostly stay
    # negative.  The divide-and-conquer solver splits at row n // 2, so
    # these put a zero and a negative coupling at its first split.
    @pytest.mark.parametrize("n, signs, cut", [
        (100, "+", True), (257, "+", True), (100, "-", False), (150, "+-", False),
    ], ids=["zero-at-the-split", "zero-at-the-split-n257", "negative", "mixed-signs"])
    def test_tridiagonal_couplings(self, n, signs, cut):
        rng = np.random.default_rng(n)
        e = np.abs(rng.standard_normal(n - 1))
        e *= {"+": 1.0, "-": -1.0, "+-": rng.choice([-1.0, 1.0], n - 1)}[signs]
        if cut:
            e[n // 2 - 1] = 0.0
        a = np.diag(rng.standard_normal(n)) + np.diag(e, 1) + np.diag(e, -1)
        reduced = self.check_reduction(a)
        if cut:
            assert reduced[n // 2] == 0.0
        if signs == "-":
            assert reduced[n // 2] < 0.0
        self.check(a)

    # Couplings and diagonal entries drawn from a few values, so that
    # repeated and clustered eigenvalues abound on every merge level.
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(33, 160).flatmap(lambda n: st.tuples(
        st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.0]), min_size=n, max_size=n),
        st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0]), min_size=n - 1, max_size=n - 1))))
    def test_tridiagonals_with_ties(self, entries):
        d, e = entries
        self.check(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))

    @pytest.mark.parametrize("a", [
        np.diag(np.resize([3.0, -1.0, 3.0, 0.0, 2.0, -1.0], 100)),
        np.zeros((100, 100)),
    ], ids=["diagonal-with-repeats", "zero"])
    def test_every_step_skipped_at_n_100(self, a):
        self.check_reduction(a)
        w, _ = self.check(a)
        np.testing.assert_array_equal(np.sort(w), np.sort(np.diag(a)))

    def test_sbm_operator_with_a_many_fold_eigenvalue_one(self):
        g = generate_sbm(SbmConfig(n=400, seed=0))
        a = normalize(g, "sym").to_dense()
        assert np.count_nonzero(np.abs(np.linalg.eigvalsh(a) - 1.0) <= 1e-10) >= 10
        self.check(a)

    def test_diagonal_with_repeats(self):
        a = np.diag([3.0, -1.0, 3.0, 0.0, 2.0, -1.0])
        w, _ = self.check(a)
        np.testing.assert_array_equal(np.sort(w), [-1.0, -1.0, 0.0, 2.0, 3.0, 3.0])

    def test_zero_matrix(self):
        w, _ = self.check(np.zeros((7, 7)))
        np.testing.assert_array_equal(w, 0.0)

    def test_plus_minus_pairs(self):
        # Returned in magnitude order, each tied pair positive first.
        a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0, 3.0]))
        w, _ = self.check(a)
        np.testing.assert_allclose(w, [3, -3, 2, -2, 1, -1], rtol=0, atol=1e-14)

    def test_fixed_seed_bytes_repeat(self):
        rng = np.random.default_rng(31)
        a = random_sparse_symmetric(rng, 70, density=0.2)
        w1, v1 = dense_symmetric_eig(a)
        w2, v2 = dense_symmetric_eig(a)
        assert w1.tobytes() == w2.tobytes()
        assert v1.tobytes() == v2.tobytes()


def dense_tridiagonal(d, e):
    return np.diag(d) + np.diag(e[1:], 1) + np.diag(e[1:], -1)


def assert_matches_recursive_oracle(d, e):
    """The partitioned solver's bytes equal the recursive one's."""
    w, q = eigen._tridiagonal_eig(d, e)
    w_ref, q_ref = tridiagonal_eig(d, e)
    assert w.tobytes() == w_ref.tobytes()
    assert q.tobytes() == q_ref.tobytes()


class TestPartitionedTridiagonalSolver:
    """eigen._tridiagonal_eig splits into leaves up front and solves every
    leaf of one size in one inverse-iteration batch; tests/eigen_oracles.py
    keeps the recursion that solves each leaf alone.  Byte equality shows
    that each leaf keeps its own scale, random start and clusters."""

    # n = 33 splits into leaves of 16 and 17; n = 65 into a 32-row leaf and
    # 33 rows, which split again into 16 and 17; n = 257 has all three sizes.
    @pytest.mark.parametrize("n", [2, 31, 32, 33, 64, 65, 100, 257])
    def test_random_tridiagonals(self, n):
        rng = np.random.default_rng(n)
        assert_matches_recursive_oracle(rng.standard_normal(n),
                                        np.append(0.0, rng.standard_normal(n - 1)))

    def test_zero_tridiagonal(self):
        assert_matches_recursive_oracle(np.zeros(100), np.zeros(100))

    def test_decoupled_blocks(self):
        rng = np.random.default_rng(7)
        e = np.append(0.0, rng.standard_normal(149))
        e[[10, 50, 75, 76, 120]] = 0.0
        assert_matches_recursive_oracle(rng.standard_normal(150), e)

    def test_wilkinson_clusters(self):
        w = wilkinson_plus(50)
        assert_matches_recursive_oracle(np.diag(w).copy(), np.append(0.0, np.diag(w, 1)))

    def test_clusters_stop_at_leaf_boundaries(self):
        # Two 32-row leaves with equal scale (a decoupled -10 row in the
        # first, a +10 row in the second): the second leaf's smallest value
        # lies 5e-3 above the first leaf's largest, 5e-4 after scaling, so a
        # cluster cut over the concatenated values would join them.
        rng = np.random.default_rng(3)
        inner_d, inner_e = rng.random(31), np.append(0.0, 0.1 * rng.random(30))
        inner = np.linalg.eigvalsh(dense_tridiagonal(inner_d, inner_e))
        shift = inner[-1] - inner[0] + 5e-3
        d = np.concatenate(([-10.0], inner_d, inner_d + shift, [10.0]))
        e = np.concatenate(([0.0, 0.0], inner_e[1:], [0.0], inner_e[1:], [0.0]))
        first = np.linalg.eigvalsh(dense_tridiagonal(d[:32], e[:32]))
        second = np.linalg.eigvalsh(dense_tridiagonal(d[32:], e[32:]))
        assert 0.0 < (second[0] - first[-1]) / 10.0 < 1e-3
        assert_matches_recursive_oracle(d, e)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 300), st.integers(0, 2**32 - 1), st.booleans())
    def test_matches_the_recursion(self, n, seed, ties):
        rng = np.random.default_rng(seed)
        if ties:  # a few values, so zero couplings and repeats abound
            d = rng.choice([-1.0, 0.0, 1.0, 2.0], n)
            e = rng.choice([-1.0, 0.0, 0.5, 1.0], n)
        else:
            d, e = rng.standard_normal(n), rng.standard_normal(n)
        e[0] = 0.0
        assert_matches_recursive_oracle(d, e)


class TestSparseAgainstDense:
    def test_cross_route_agreement(self):
        rng = np.random.default_rng(20)
        for n, k in ((50, 1), (120, 4), (260, 9)):
            a = random_sparse_symmetric(rng, n)
            sparse = top_k_eigenpairs(csr_from_dense(a), k, seed=int(rng.integers(1 << 30)))
            dense = full_dense_eigendecomposition(a)
            rel = np.abs(sparse.eigenvalues - dense.eigenvalues[:k]) / np.abs(dense.eigenvalues[:k])
            assert np.max(rel) <= 1e-8
            assert subspace_angle(sparse.eigenvectors, dense.eigenvectors[:, :k]) <= 1e-6

    def test_degenerate_top_cluster_as_subspace(self):
        # Top eigenvalue repeated three times; individual vectors are
        # arbitrary, the invariant subspace is not.
        rng = np.random.default_rng(21)
        q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
        lam = np.concatenate([[2.0, 2.0, 2.0], rng.uniform(-1.0, 1.0, 37)])
        a = (q * lam) @ q.T
        basis = top_k_eigenpairs(csr_from_dense(a, tol=0.0), 3)
        np.testing.assert_allclose(basis.eigenvalues, 2.0, atol=1e-9)
        assert subspace_angle(basis.eigenvectors, q[:, :3]) <= 1e-6

    def test_residual_bound(self):
        rng = np.random.default_rng(22)
        a = random_sparse_symmetric(rng, 150)
        m = csr_from_dense(a)
        tol = 1e-10
        basis = top_k_eigenpairs(m, 6, tol=tol)
        bound = tol * np.maximum(1.0, np.abs(basis.eigenvalues))
        assert np.all(basis.residuals <= bound)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(23)
        a = random_sparse_symmetric(rng, 90)
        m = csr_from_dense(a)
        b1 = top_k_eigenpairs(m, 4, seed=7)
        b2 = top_k_eigenpairs(m, 4, seed=7)
        assert b1.eigenvalues.tobytes() == b2.eigenvalues.tobytes()
        assert b1.eigenvectors.tobytes() == b2.eigenvectors.tobytes()

    def test_k_equals_n_small(self):
        rng = np.random.default_rng(24)
        a = random_sparse_symmetric(rng, 12, density=0.5)
        sparse = top_k_eigenpairs(csr_from_dense(a), 12)
        dense = full_dense_eigendecomposition(a)
        np.testing.assert_allclose(sparse.eigenvalues, dense.eigenvalues, atol=1e-9)

    def test_iteration_budget_exhaustion(self):
        rng = np.random.default_rng(25)
        a = random_sparse_symmetric(rng, 200)
        m = csr_from_dense(a)
        with pytest.raises(NoConvergenceError) as info:
            top_k_eigenpairs(m, 8, tol=1e-14, max_iter=12)
        # The best basis so far rides on the exception.
        assert info.value.basis.k == 8
        assert info.value.basis.residuals is not None

    def test_k_validation(self):
        m = csr_from_dense(np.eye(5))
        with pytest.raises(ValueError):
            top_k_eigenpairs(m, 0)
        with pytest.raises(ValueError):
            top_k_eigenpairs(m, 6)
        with pytest.raises(ValueError):
            top_k_eigenpairs(m, 2, tol=0.0)
        with pytest.raises(ValueError, match="finite"):
            top_k_eigenpairs(m, 2, tol=np.inf)

    def test_work_counts_on_the_default_graph(self, monkeypatch):
        # The default 2000-node SBM at seed 0, as `gen` and `eig` run it.
        # Pinned so that a change to the solver shows what it costs.
        calls = []
        matvec = CsrMatrix.matvec

        def counting(self, x):
            calls.append(x)
            return matvec(self, x)

        monkeypatch.setattr(CsrMatrix, "matvec", counting)
        op = normalize(generate_sbm(SbmConfig(seed=0)), "sym")
        basis = top_k_eigenpairs(op, 8, seed=0)
        # 28 of the 240 steps orthogonalized against the window, flagged by
        # the estimates or forced after a flagged step; the others read it
        # never.
        assert (basis.matvecs, basis.restarts, basis.reorthogonalized) == (240, 6, 28)
        assert len(calls) == basis.matvecs

    def test_restarts_never_reach_the_dense_solver(self, monkeypatch):
        # Each restart reduces its arrowhead to tridiagonal form, so every
        # cycle takes the tridiagonal solver alone.
        def refuse(a):
            raise AssertionError("Lanczos called dense_symmetric_eig")

        monkeypatch.setattr(eigen, "dense_symmetric_eig", refuse)
        basis = top_k_eigenpairs(normalize(generate_sbm(SbmConfig(seed=0)), "sym"), 8)
        assert basis.restarts > 0

    # Graphs of many components in sym mode, where a component's Krylov
    # space runs out and beta falls to 1e-12 ... 1e-5, so the components a
    # semi-orthogonal basis leaves in place can spoil the span.  A solve
    # whose true residuals miss the convergence bound is redone with full
    # orthogonalization.
    @pytest.mark.parametrize("n, seed, k", [(120, 7, 16), (200, 0, 16), (300, 0, 16), (400, 0, 20)])
    def test_true_residuals_meet_the_convergence_bound(self, n, seed, k):
        tol = 1e-10
        op = normalize(generate_sbm(SbmConfig(n=n, seed=seed)), "sym")
        basis = top_k_eigenpairs(op, k, tol=tol)
        lam = np.abs(basis.eigenvalues)
        assert np.all(basis.residuals <= tol * np.maximum(lam, 1e-3 * min(1.0, lam.max())))

    def test_rejects_anything_but_a_csr_matrix(self):
        rng = np.random.default_rng(26)
        a = random_sparse_symmetric(rng, 30, density=0.3)
        with pytest.raises(TypeError):
            top_k_eigenpairs(a, 2)


class TestOrthogonalize:
    @staticmethod
    def basis_rows(rng, n, j):
        q, _ = np.linalg.qr(rng.standard_normal((n, j)))
        return np.ascontiguousarray(q.T)

    def test_generic_vector_takes_one_pass(self):
        rng = np.random.default_rng(30)
        b = self.basis_rows(rng, 500, 20)
        w = rng.standard_normal(500)
        out, norm = _orthogonalize(w, b)
        assert out.tobytes() == (w - (b @ w) @ b).tobytes()
        assert norm == np.linalg.norm(out)

    def test_vector_nearly_inside_the_span_takes_a_second_pass(self):
        rng = np.random.default_rng(31)
        b = self.basis_rows(rng, 500, 20)
        w = rng.standard_normal(20) @ b + 1e-9 * rng.standard_normal(500)
        one = w - (b @ w) @ b
        # One pass cancels nearly all of w and leaves rounding along the span.
        assert np.max(np.abs(b @ one)) > 1e-14 * np.linalg.norm(one)
        out, norm = _orthogonalize(w, b)
        assert np.max(np.abs(b @ out)) <= 1e-14 * np.linalg.norm(out)
        assert norm == np.linalg.norm(out)


def criterion_10_graph():
    """Acceptance criterion 10's weighted random graph on 20000 nodes, with
    its near-tied +-7.61 top pair."""
    rng = np.random.default_rng(1010)
    n = 20000
    u, v = rng.integers(0, n, 4 * n), rng.integers(0, n, 4 * n)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.standard_normal(u.shape[0])
    return csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w]))


def sine_of_largest_angle(p, q):
    """sin of the largest principal angle between two orthonormal column
    spans of one dimension; unlike an arccos it resolves angles near 0."""
    return float(np.linalg.norm(q - p @ (p.T @ q), 2))


class TestPartialReorthogonalization:
    """The estimates decide which Lanczos steps read the window.  A
    threshold of 0 flags every step (full orthogonalization) and math.inf
    none, so the default solve is held to both."""

    OPERATORS = {
        "sbm-sym": lambda: normalize(generate_sbm(SbmConfig(seed=0)), "sym"),
        "sbm-raw": lambda: normalize(generate_sbm(SbmConfig(seed=0)), "raw"),
        "criterion-10": criterion_10_graph,
    }

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_agrees_with_full_orthogonalization(self, monkeypatch, name):
        op = self.OPERATORS[name]()
        semi = top_k_eigenpairs(op, 8, seed=0)
        monkeypatch.setattr(eigen, "_SEMIORTHOGONAL", 0.0)
        full = top_k_eigenpairs(op, 8, seed=0)
        assert full.reorthogonalized == full.matvecs > semi.reorthogonalized
        np.testing.assert_allclose(semi.eigenvalues, full.eigenvalues, rtol=0, atol=1e-12)
        assert sine_of_largest_angle(semi.eigenvectors, full.eigenvectors) <= 1e-11

    def test_unflagged_solve_is_redone_in_full(self, monkeypatch):
        # With nothing flagged the first solve never reads the window, its
        # basis loses orthogonality and its true residuals miss the bound;
        # the rerun, every step orthogonalized, returns the basis.
        tol = 1e-10
        op = self.OPERATORS["sbm-sym"]()
        monkeypatch.setattr(eigen, "_SEMIORTHOGONAL", math.inf)
        basis = top_k_eigenpairs(op, 8, tol=tol, seed=0)
        assert 0 < basis.reorthogonalized < basis.matvecs  # two solves ran
        lam = np.abs(basis.eigenvalues)
        assert np.all(basis.residuals <= tol * np.maximum(lam, 1e-3 * min(1.0, lam.max())))
        p = basis.eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(8))) <= 1e-12


def assert_sound(basis, op, tol=1e-10):
    """What every hard case must show: residuals within tol, orthonormal
    columns, and each eigenvalue in the dense spectrum, returned no more
    times than its dense multiplicity (no ghost copies).  A window that holds
    the whole space (n <= m) orthogonalizes at every step; a smaller one
    only at the steps its estimates flag and the ones after them."""
    assert np.all(basis.residuals <= tol)
    p = basis.eigenvectors
    assert np.max(np.abs(p.T @ p - np.eye(basis.k))) <= 1e-12
    dense = full_dense_eigendecomposition(op.to_dense()).eigenvalues
    for lam in basis.eigenvalues:
        copies = int(np.sum(np.abs(dense - lam) <= 1e-9))
        assert 1 <= np.sum(np.abs(basis.eigenvalues - lam) <= 1e-9) <= copies
    if eigen._window(basis.n, basis.k) == basis.n:
        assert basis.reorthogonalized == basis.matvecs
    else:
        assert basis.reorthogonalized < basis.matvecs


class TestHardSpectra:
    # Each case runs inside the window (n <= 48 for these k, full
    # orthogonalization at every step) and above it, where the basis is kept
    # only semi-orthogonal.
    def test_multiplicity_above_k_on_disconnected_graph(self):
        # Disjoint 5-cycles: eigenvalue 1 of the "sym" operator has
        # multiplicity cycles > k, and a Krylov space grown from one vector
        # sees only the three distinct eigenvalues, so the iteration has to
        # go on from fresh random directions.
        for cycles in (6, 12):
            edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(cycles) for i in range(5)]
            op = graph_operator(5 * cycles, edges, "sym")
            basis = top_k_eigenpairs(op, 4)
            np.testing.assert_allclose(basis.eigenvalues, 1.0, rtol=0, atol=1e-12)
            assert_sound(basis, op)
            # The eigenspace of 1 holds the vectors constant on each component.
            p = basis.eigenvectors
            assert np.max(np.ptp(p.reshape(cycles, 5, 4), axis=1)) <= 1e-10

    def test_plus_minus_pairs_of_a_bipartite_graph_in_raw_mode(self):
        # The raw adjacency of the n-node path has the spectrum
        # +-2cos(j pi / (n + 1)).  Each tied pair comes positive first, and
        # the negative partner is the positive eigenvector with the sign
        # flipped on one side of the bipartition.
        for n in (6, 60):
            op = graph_operator(n, [(i, i + 1) for i in range(n - 1)], "raw")
            basis = top_k_eigenpairs(op, 4)
            top = 2.0 * np.cos(np.pi / (n + 1))
            second = 2.0 * np.cos(2.0 * np.pi / (n + 1))
            np.testing.assert_allclose(basis.eigenvalues, [top, -top, second, -second],
                                       rtol=0, atol=1e-12)
            assert basis.eigenvalues[0] > 0.0 and basis.eigenvalues[2] > 0.0
            assert_sound(basis, op)
            flip = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
            p = basis.eigenvectors
            for i in (0, 2):
                assert abs(abs(p[:, i + 1] @ (flip * p[:, i])) - 1.0) <= 1e-12

    def test_edgeless_graph_in_raw_mode_is_the_zero_operator(self):
        for n in (7, 60):
            op = graph_operator(n, [], "raw")
            basis = top_k_eigenpairs(op, 3)
            np.testing.assert_array_equal(basis.eigenvalues, 0.0)
            np.testing.assert_array_equal(basis.residuals, 0.0)
            assert_sound(basis, op)

    @pytest.mark.parametrize("cliques, size", [(3, 4), (12, 5)])
    def test_cliques_joined_to_one_hub(self, cliques, size):
        # One node of each clique joins the hub, so the graph is connected,
        # and swapping two cliques is a symmetry: the clique-difference
        # vectors share one eigenvalue (cliques - 1)-fold, just below the
        # Perron value 1 of the "sym" operator.
        n = cliques * size + 1
        edges = [(c * size + i, c * size + j)
                 for c in range(cliques) for i in range(size) for j in range(i + 1, size)]
        edges += [(c * size, n - 1) for c in range(cliques)]
        op = graph_operator(n, edges, "sym")
        basis = top_k_eigenpairs(op, 3)
        assert_sound(basis, op)
        dense = full_dense_eigendecomposition(op.to_dense())
        many = np.abs(dense.eigenvalues - dense.eigenvalues[1]) <= 1e-9
        assert many.sum() == cliques - 1
        # The returned copies lie in the dense route's eigenspace.
        q, x = dense.eigenvectors[:, many], basis.eigenvectors[:, 1:]
        np.testing.assert_allclose(basis.eigenvalues[1:], dense.eigenvalues[1], rtol=0, atol=1e-12)
        assert np.max(np.linalg.norm(x - q @ (q.T @ x), axis=0)) <= 1e-10

    def test_k_equals_n_on_a_small_graph(self):
        # Two triangles joined by one edge.  Swapping the two outer nodes of
        # either triangle is a symmetry, so 0 is a double eigenvalue.
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]
        op = graph_operator(6, edges, "sym")
        a = op.to_dense()
        basis = top_k_eigenpairs(op, 6)
        dense = full_dense_eigendecomposition(a)
        np.testing.assert_allclose(basis.eigenvalues, dense.eigenvalues, rtol=0, atol=1e-12)
        p = basis.eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(6))) <= 1e-12
        assert np.max(np.abs((p * basis.eigenvalues) @ p.T - a)) <= 1e-12


class TestBasisContainer:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            SpectralBasis(np.zeros(3), np.zeros((5, 2)))
        with pytest.raises(ValueError):
            SpectralBasis(np.zeros(2), np.zeros((5, 2)), residuals=np.zeros(3))

    def test_file_roundtrip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(30)
        a = random_sparse_symmetric(rng, 25, density=0.4)
        basis = dense_prefix(a, 6)
        path = tmp_path / "basis.bin"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.eigenvalues.tobytes() == basis.eigenvalues.tobytes()
        assert loaded.eigenvectors.tobytes() == basis.eigenvectors.tobytes()
        assert loaded.residuals is None

    def test_transposed_eigenvectors_are_cached_and_never_saved(self, tmp_path):
        basis = dense_prefix(random_sparse_symmetric(np.random.default_rng(32), 20, density=0.4), 5)
        save_basis(basis, tmp_path / "before.bin")
        assert "eigenvectors_t" not in vars(basis)
        pt = basis.eigenvectors_t
        assert pt.tobytes() == basis.eigenvectors.T.copy().tobytes()
        assert pt.flags.c_contiguous and not pt.flags.writeable
        assert basis.eigenvectors_t is pt
        save_basis(basis, tmp_path / "after.bin")
        assert (tmp_path / "after.bin").read_bytes() == (tmp_path / "before.bin").read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError):
            load_basis(path)

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(31)
        basis = dense_prefix(random_sparse_symmetric(rng, 10, density=0.5), 3)
        path = tmp_path / "basis.bin"
        save_basis(basis, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_basis(path)
