"""Eigensolver checks: hand-computed cases, dense self-consistency, and the
sparse iterative route cross-checked against the dense one.

The sparse route (Lanczos + projected small problems) reuses the dense
solver only for its small projected matrices; the dense route (Householder
tridiagonalization, QL eigenvalues, inverse iteration and a compact-WY
back-transform) decomposes the whole operator, so agreement between them
is evidence, not tautology.  Degenerate spectra are
compared as subspaces because individual eigenvectors are arbitrary inside
a repeated eigenvalue's eigenspace.
"""

import functools

import numpy as np
import pytest

from fairspectral import eigen
from fairspectral.eigen import (
    DenseLimitError,
    NoConvergenceError,
    SpectralBasis,
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
from fairspectral.sparse import csr_from_dense, csr_from_edges


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
            full_dense_eigendecomposition(np.eye(21), dense_limit=20)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            full_dense_eigendecomposition(np.ones((2, 3)))

    def test_ql_budget_exhaustion_carries_q_and_the_unreduced_diagonal(self, monkeypatch):
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
        a = random_sparse_symmetric(rng, 30, density=0.5)
        monkeypatch.setattr(eigen, "_tridiagonal_eigenvalues",
                            functools.partial(_tridiagonal_eigenvalues, max_sweeps=0))
        with pytest.raises(NoConvergenceError) as info:
            dense_symmetric_eig(a)
        basis = info.value.basis
        assert basis.eigenvalues.shape == (30,) and basis.eigenvectors.shape == (30, 30)
        q = basis.eigenvectors
        assert np.max(np.abs(q.T @ q - np.eye(30))) <= 1e-13
        t = q.T @ a @ q
        assert np.max(np.abs(np.triu(t, 2))) <= 1e-13
        np.testing.assert_allclose(np.diag(t), basis.eigenvalues, rtol=0, atol=1e-13)

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

    def test_wilkinson_pairs(self):
        w, _ = self.check(wilkinson_plus(10))
        top = np.sort(w)[-2:]
        assert 0.0 < top[1] - top[0] <= 1e-13

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

    # The reduction runs panels of 32 steps while more than 32 rows remain
    # and single steps after that, so every case above with n <= 32 stays on
    # single steps.  n = 33, 64, 65 and 100 cross the crossover and the panel
    # edges; the n = 100 cases after them put skipped (zero-scale) steps
    # inside panels.
    @pytest.mark.parametrize("n", [33, 64, 65, 100])
    def test_sizes_across_the_panel_edges(self, n):
        a = random_sparse_symmetric(np.random.default_rng(n), n, density=0.5)
        self.check_reduction(a)
        self.check(a)

    def test_identical_blocks_split_the_tridiagonal_exactly_inside_panels(self):
        self.identical_blocks(20)

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
        a = np.kron(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0, 3.0]))
        w, _ = self.check(a)
        np.testing.assert_allclose(np.sort(w), [-3, -2, -1, 1, 2, 3], rtol=0, atol=1e-14)

    def test_fixed_seed_bytes_repeat(self):
        rng = np.random.default_rng(31)
        a = random_sparse_symmetric(rng, 70, density=0.2)
        w1, v1 = dense_symmetric_eig(a)
        w2, v2 = dense_symmetric_eig(a)
        assert w1.tobytes() == w2.tobytes()
        assert v1.tobytes() == v2.tobytes()


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

    def test_rejects_anything_but_a_csr_matrix(self):
        rng = np.random.default_rng(26)
        a = random_sparse_symmetric(rng, 30, density=0.3)
        with pytest.raises(TypeError):
            top_k_eigenpairs(a, 2)


class TestHardSpectra:
    def test_multiplicity_above_k_on_disconnected_graph(self):
        # Six disjoint 5-cycles: eigenvalue 1 of the "sym" operator has
        # multiplicity 6 > k, and a Krylov space grown from one vector sees
        # only the three distinct eigenvalues, so the iteration has to go
        # on from fresh random directions.
        edges = [(5 * c + i, 5 * c + (i + 1) % 5) for c in range(6) for i in range(5)]
        basis = top_k_eigenpairs(graph_operator(30, edges, "sym"), 4)
        np.testing.assert_allclose(basis.eigenvalues, 1.0, rtol=0, atol=1e-12)
        assert np.all(basis.residuals <= 1e-10)
        p = basis.eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(4))) <= 1e-12
        # The eigenspace of 1 holds the vectors constant on each component.
        assert np.max(np.ptp(p.reshape(6, 5, 4), axis=1)) <= 1e-10

    def test_plus_minus_pairs_of_a_bipartite_graph_in_raw_mode(self):
        # The raw adjacency of the 6-node path has the spectrum
        # +-2cos(j pi / 7), j = 1..3.  Each tied pair comes positive first,
        # and the negative partner is the positive eigenvector with the
        # sign flipped on one side of the bipartition.
        edges = [(i, i + 1) for i in range(5)]
        basis = top_k_eigenpairs(graph_operator(6, edges, "raw"), 4)
        top = 2.0 * np.cos(np.pi / 7.0)
        second = 2.0 * np.cos(2.0 * np.pi / 7.0)
        np.testing.assert_allclose(basis.eigenvalues, [top, -top, second, -second],
                                   rtol=0, atol=1e-12)
        assert basis.eigenvalues[0] > 0.0 and basis.eigenvalues[2] > 0.0
        assert np.all(basis.residuals <= 1e-10)
        flip = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        p = basis.eigenvectors
        for i in (0, 2):
            assert abs(abs(p[:, i + 1] @ (flip * p[:, i])) - 1.0) <= 1e-12

    def test_edgeless_graph_in_raw_mode_is_the_zero_operator(self):
        basis = top_k_eigenpairs(graph_operator(7, [], "raw"), 3)
        np.testing.assert_array_equal(basis.eigenvalues, 0.0)
        np.testing.assert_array_equal(basis.residuals, 0.0)
        p = basis.eigenvectors
        assert np.max(np.abs(p.T @ p - np.eye(3))) <= 1e-12

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
