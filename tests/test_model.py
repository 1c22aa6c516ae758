"""Model-layer behavior: encoding, modulation, filtering, both forwards."""

import numpy as np
import pytest

from fairspectral import autodiff as ad
from fairspectral.eigen import SpectralBasis, full_dense_eigendecomposition
from fairspectral.model import (
    AttentionParams,
    forward_propagation,
    forward_spectral,
    init_propagation_params,
    init_spectral_params,
    modulate_spectrum,
    propagate_features,
    sinusoidal_encode,
    spectral_transform,
)
from fairspectral.sparse import csr_from_dense


def unit_basis(n, k, seed=0):
    """Orthonormal columns from a QR factorization, descending eigenvalues."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return SpectralBasis(np.linspace(2.0, 1.0, k), q[:, :k].copy())


class TestEigenvalueEncoding:
    def test_zero_eigenvalue_alternates_zero_one(self):
        enc = sinusoidal_encode(np.array([0.0]), 6)
        np.testing.assert_array_equal(enc, [[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])

    def test_unit_eigenvalue_first_pair(self):
        enc = sinusoidal_encode(np.array([1.0]), 2)
        assert enc[0, 0] == pytest.approx(0.8414709848078965, abs=1e-15)
        assert enc[0, 1] == pytest.approx(0.5403023058681398, abs=1e-15)

    def test_pair_frequencies_decay_geometrically(self):
        # Pair i oscillates at 10000**(-2 i / d); spot check the second pair.
        enc = sinusoidal_encode(np.array([1.0]), 4)
        assert enc[0, 2] == pytest.approx(np.sin(1e-2), abs=1e-15)
        assert enc[0, 3] == pytest.approx(np.cos(1e-2), abs=1e-15)

    def test_entries_bounded_by_one(self):
        rng = np.random.default_rng(1)
        enc = sinusoidal_encode(rng.standard_normal(40) * 100, 16)
        assert enc.shape == (40, 16)
        assert np.all(np.abs(enc) <= 1.0)

    @pytest.mark.parametrize("bad", [0, -2, 3, 7])
    def test_width_must_be_positive_even(self, bad):
        with pytest.raises(ValueError):
            sinusoidal_encode(np.array([1.0]), bad)


class TestSpectrumModulation:
    def test_single_eigenvalue_is_finite_scalar(self):
        params = init_spectral_params(np.random.default_rng(2), 3, 4, 2, 1, 8)
        out = modulate_spectrum(params.attention, sinusoidal_encode(np.array([0.7]), 8))
        assert out.value.shape == (1, 1)
        assert np.isfinite(out.value).all()

    def test_permutation_equivariance(self):
        # Attention mixes rows symmetrically, so reordering the eigenvalue
        # codes reorders the responses and changes nothing else.
        rng = np.random.default_rng(3)
        params = init_spectral_params(rng, 3, 4, 2, 1, 8)
        enc = sinusoidal_encode(rng.standard_normal(6), 8)
        perm = np.array([4, 0, 5, 2, 1, 3])
        direct = modulate_spectrum(params.attention, enc[perm]).value
        reordered = modulate_spectrum(params.attention, enc).value[perm]
        np.testing.assert_allclose(direct, reordered, atol=1e-12)

    def test_zero_weights_pass_bias_through(self):
        # With every weight zero the residual path carries the input and the
        # readout reduces to its bias, one identical response per row.
        z = lambda *s: ad.parameter(np.zeros(s))
        params = AttentionParams(
            ln1_gain=z(8), ln1_bias=z(8), wq=z(8, 8), wk=z(8, 8), wv=z(8, 8),
            wo=z(8, 8), ln2_gain=z(8), ln2_bias=z(8), ffn_w1=z(8, 16),
            ffn_w2=z(16, 8), proj_w=z(8, 1), proj_b=ad.parameter(np.array([0.7])),
            n_heads=2)
        out = modulate_spectrum(params, sinusoidal_encode(np.arange(5.0), 8))
        np.testing.assert_array_equal(out.value, np.full((5, 1), 0.7))

    def test_head_count_must_divide_width(self):
        params = init_spectral_params(np.random.default_rng(4), 3, 4, 2, 1, 8)
        params.attention.n_heads = 3
        with pytest.raises(ValueError):
            modulate_spectrum(params.attention, sinusoidal_encode(np.ones(2), 8))


class TestSpectralFilter:
    def test_full_basis_unit_filter_is_identity(self):
        basis = unit_basis(7, 7)
        rng = np.random.default_rng(5)
        h = rng.standard_normal((7, 3))
        out = spectral_transform(basis, ad.constant(np.ones((7, 1))), ad.constant(h))
        np.testing.assert_allclose(out.value, h, atol=1e-9)

    def test_zero_filter_annihilates(self):
        basis = unit_basis(6, 4)
        h = np.random.default_rng(6).standard_normal((6, 2))
        out = spectral_transform(basis, ad.constant(np.zeros((4, 1))), ad.constant(h))
        np.testing.assert_array_equal(out.value, np.zeros((6, 2)))

    def test_single_component_rank_one_form(self):
        # K = 1 reduces to c * p (p^T h), checked against the closed form.
        basis = unit_basis(5, 1, seed=7)
        p1 = basis.eigenvectors[:, :1]
        h = np.random.default_rng(8).standard_normal((5, 3))
        out = spectral_transform(basis, ad.constant([[2.5]]), ad.constant(h))
        np.testing.assert_allclose(out.value, 2.5 * p1 @ (p1.T @ h), atol=1e-12)

    def test_output_rank_bounded_by_k(self):
        basis = unit_basis(8, 2, seed=9)
        h = np.random.default_rng(10).standard_normal((8, 6))
        mod = ad.constant(np.array([[1.3], [-0.4]]))
        out = spectral_transform(basis, mod, ad.constant(h)).value
        s = np.linalg.svd(out, compute_uv=False)
        assert s[2:].max() < 1e-12

    def test_truncated_unit_filter_is_idempotent(self):
        # A unit filter over a partial basis is the orthogonal projector
        # onto its span, so applying it twice changes nothing.
        basis = unit_basis(9, 4, seed=11)
        ones = ad.constant(np.ones((4, 1)))
        h = ad.constant(np.random.default_rng(12).standard_normal((9, 5)))
        once = spectral_transform(basis, ones, h)
        twice = spectral_transform(basis, ones, once)
        np.testing.assert_allclose(twice.value, once.value, atol=1e-9)


def ring_operator(n=4):
    adj = np.zeros((n, n))
    for i in range(n):
        adj[i, (i + 1) % n] = adj[(i + 1) % n, i] = 1.0
    return adj / 2.0


class TestSpectralForward:
    def test_output_shape_and_finiteness(self):
        rng = np.random.default_rng(13)
        basis = unit_basis(10, 4, seed=13)
        params = init_spectral_params(rng, 5, 8, 3, 2, 8)
        logits = forward_spectral(params, basis, rng.standard_normal((10, 5)))
        assert logits.value.shape == (10, 3)
        assert np.isfinite(logits.value).all()

    def test_deterministic_given_seed(self):
        x = np.random.default_rng(14).standard_normal((6, 4))
        basis = unit_basis(6, 3, seed=14)
        outs = []
        for _ in range(2):
            params = init_spectral_params(np.random.default_rng(99), 4, 8, 2, 2, 8)
            outs.append(forward_spectral(params, basis, x).value)
        assert outs[0].tobytes() == outs[1].tobytes()

    def test_graph_symmetry_gives_equal_logits(self):
        # Reflecting a 4-ring swaps nodes 0 and 2 and fixes 1 and 3.  With
        # the complete eigenbasis the filter is a matrix function of the
        # operator, so it commutes with that relabeling; identical inputs on
        # the swapped pair must produce identical logits.
        full = full_dense_eigendecomposition(ring_operator())
        rng = np.random.default_rng(15)
        x = rng.standard_normal((4, 3))
        x[2] = x[0]
        params = init_spectral_params(rng, 3, 8, 2, 2, 8)
        logits = forward_spectral(params, full, x).value
        np.testing.assert_allclose(logits[2], logits[0], atol=1e-9)

    def test_gradient_reaches_attention(self):
        rng = np.random.default_rng(16)
        basis = unit_basis(6, 3, seed=16)
        params = init_spectral_params(rng, 4, 8, 2, 1, 8)
        logits = forward_spectral(params, basis, rng.standard_normal((6, 4)))
        loss = ad.cross_entropy_masked(logits, np.array([0, 1] * 3), np.ones(6, bool))
        loss.backward()
        assert params.attention.wq.grad is not None
        assert np.abs(params.attention.wq.grad).max() > 0.0

    def test_requires_attention_parameters(self):
        params = init_propagation_params(np.random.default_rng(17), 4, 8, 2)
        with pytest.raises(ValueError):
            forward_spectral(params, unit_basis(6, 3), np.zeros((6, 4)))


class TestPropagationForward:
    def test_zero_steps_is_plain_linear_map(self):
        rng = np.random.default_rng(18)
        params = init_propagation_params(rng, 4, 8, 2)
        x = rng.standard_normal((5, 4))
        z = propagate_features(csr_from_dense(np.eye(5)), x, n_steps=0)
        logits = forward_propagation(params, z).value
        expected = x @ params.input_map.value @ params.classifier.value
        np.testing.assert_array_equal(logits, expected)

    def test_identity_operator_is_fixed_point(self):
        # S = I makes every step return the restart state exactly, so depth
        # cannot change the output.
        rng = np.random.default_rng(19)
        x = rng.standard_normal((7, 3))
        op = csr_from_dense(np.eye(7))
        deep = propagate_features(op, x, n_steps=25, theta=0.1)
        np.testing.assert_allclose(deep, x, atol=1e-12)

    def test_two_node_single_step_arithmetic(self):
        params = init_propagation_params(np.random.default_rng(20), 1, 1, 2)
        params.input_map.value[...] = [[1.0]]
        params.classifier.value[...] = [[1.0, -1.0]]
        op = csr_from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        x = np.array([[1.0], [3.0]])
        # x = (1, 3); one step at theta = 1/2 averages with the swap: (2, 2).
        z = propagate_features(op, x, n_steps=1, theta=0.5)
        logits = forward_propagation(params, z).value
        np.testing.assert_array_equal(logits, [[2.0, -2.0], [2.0, -2.0]])

    @pytest.mark.parametrize("n_steps", [0, 1, 10])
    def test_precomputed_matches_iterated_recurrence(self, n_steps):
        # Reference: the recurrence H <- (1 - theta) S H + theta H0 run on
        # H0 = X W inside the graph, with S as a dense constant, so its
        # gradients come from backward() through every step.
        rng = np.random.default_rng(27)
        n, theta = 9, 0.15
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        s = (a + a.T) / 2.0
        x = rng.standard_normal((n, 4))
        labels = rng.integers(0, 2, n)
        mask = np.ones(n, dtype=bool)

        def iterated(p):
            h0 = ad.matmul(ad.constant(x), p.input_map)
            h = h0
            for _ in range(n_steps):
                h = ad.add(ad.scale(ad.matmul(ad.constant(s), h), 1.0 - theta),
                           ad.scale(h0, theta))
            return ad.matmul(h, p.classifier)

        z = propagate_features(csr_from_dense(s), x, n_steps, theta)
        results = []
        for forward in (iterated, lambda p: forward_propagation(p, z)):
            params = init_propagation_params(np.random.default_rng(28), 4, 5, 2)
            logits = forward(params)
            ad.cross_entropy_masked(logits, labels, mask).backward()
            results.append((logits.value, params.input_map.grad,
                            params.classifier.grad))
        for ref, got in zip(*results):
            np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("theta", [-0.1, 1.5])
    def test_restart_weight_range(self, theta):
        op = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            propagate_features(op, np.zeros((3, 2)), theta=theta)

    def test_negative_steps_rejected(self):
        op = csr_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            propagate_features(op, np.zeros((3, 2)), n_steps=-1)


class TestInitialization:
    def test_spectral_shapes(self):
        params = init_spectral_params(np.random.default_rng(23), 5, 8, 3, 2, 6)
        assert params.input_map.value.shape == (5, 8)
        assert params.classifier.value.shape == (8, 3)
        assert [w.value.shape for w in params.conv_weights] == [(16, 8), (16, 8)]
        assert params.attention.ffn_w1.value.shape == (6, 12)
        assert params.attention.proj_w.value.shape == (6, 1)

    def test_propagation_has_no_attention(self):
        params = init_propagation_params(np.random.default_rng(24), 5, 8, 2)
        assert params.attention is None
        assert params.conv_weights == []
        assert [name for name, _ in params.named_tensors()] == ["input_map", "classifier"]

    def test_named_tensors_order_is_stable(self):
        params = init_spectral_params(np.random.default_rng(25), 3, 4, 2, 2, 4)
        names = [name for name, _ in params.named_tensors()]
        assert names[0] == "input_map"
        assert names[-1] == "classifier"
        assert names.index("conv.0") < names.index("conv.1")
        assert "attention.wq" in names

    @pytest.mark.parametrize("kwargs", [
        {"n_layers": 0},
        {"d_encode": 7},
        {"d_encode": 0},
        {"n_heads": 3},
        {"n_heads": 0},
        {"d_hidden": 0},
    ])
    def test_spectral_validation(self, kwargs):
        args = {"d_in": 4, "d_hidden": 8, "n_classes": 2,
                "n_layers": 1, "d_encode": 8}
        args.update(kwargs)
        with pytest.raises(ValueError):
            init_spectral_params(np.random.default_rng(26), **args)
