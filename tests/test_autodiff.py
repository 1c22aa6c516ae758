"""Reverse-mode gradients checked against central finite differences.

Every op is exercised inside a small graph that ends in the masked
cross-entropy head (the op set's only scalar-producing node), so each vjp is
tested with a dense, nontrivial upstream gradient.  ReLU inputs are kept
away from the kink; otherwise step 1e-6 leaves finite-difference noise far
below the comparison tolerance.
"""

import numpy as np
import pytest

from fairspectral import autodiff as ad

LABELS5 = np.array([0, 1, 1, 0, 1])
MASK5 = np.ones(5, dtype=bool)


def scalarize(t):
    """Project a (5, m) output to logits and take the standard loss."""
    proj = ad.constant(np.linspace(-1.0, 1.0, 2 * t.value.shape[1]).reshape(-1, 2))
    return ad.cross_entropy_masked(ad.matmul(t, proj), LABELS5, MASK5)


def check_gradients(build, tensors, step=1e-6, tol=1e-6):
    """Compare backward() against central differences for every tensor."""
    loss = build()
    for t in tensors:
        t.grad = None
    loss.backward()
    for t in tensors:
        got = np.zeros_like(t.value) if t.grad is None else np.asarray(t.grad)
        fd = np.zeros_like(t.value)
        it = np.nditer(t.value, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = t.value[ix]
            t.value[ix] = orig + step
            hi = float(build().value)
            t.value[ix] = orig - step
            lo = float(build().value)
            t.value[ix] = orig
            fd[ix] = (hi - lo) / (2.0 * step)
        np.testing.assert_allclose(got, fd, rtol=tol, atol=tol)


def param(rng, *shape):
    return ad.parameter(rng.standard_normal(shape))


class TestElementwiseOps:
    def test_add_with_broadcast(self):
        rng = np.random.default_rng(0)
        a, b = param(rng, 5, 3), param(rng, 1, 3)
        check_gradients(lambda: scalarize(ad.add(a, b)), [a, b])

    def test_mul_with_broadcast(self):
        rng = np.random.default_rng(2)
        a, b = param(rng, 5, 3), param(rng, 1, 3)
        check_gradients(lambda: scalarize(ad.mul(a, b)), [a, b])

    def test_mul_shared_operand_accumulates(self):
        rng = np.random.default_rng(3)
        a = param(rng, 5, 3)
        check_gradients(lambda: scalarize(ad.mul(a, a)), [a])

    def test_relu_away_from_kink(self):
        rng = np.random.default_rng(5)
        a = ad.parameter(rng.standard_normal((5, 3)) + np.sign(rng.standard_normal((5, 3))) * 0.2)
        check_gradients(lambda: scalarize(ad.relu(a)), [a])


class TestLinearOps:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(6)
        a, b = param(rng, 5, 4), param(rng, 4, 3)
        check_gradients(lambda: scalarize(ad.matmul(a, b)), [a, b])

    def test_matmul_hand_computed_gradient(self):
        # dL/dW = X^T (softmax - onehot) / count for logits = X W under the
        # cross-entropy head; assembled by hand from the closed forms.
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 3))
        w = ad.parameter(rng.standard_normal((3, 2)))
        loss = ad.cross_entropy_masked(ad.matmul(ad.constant(x), w), LABELS5, MASK5)
        loss.backward()
        z = x @ w.value
        soft = np.exp(z - z.max(axis=1, keepdims=True))
        soft /= soft.sum(axis=1, keepdims=True)
        soft[np.arange(5), LABELS5] -= 1.0
        np.testing.assert_allclose(w.grad, x.T @ (soft / 5.0), atol=1e-12)

    def test_concat_and_slice_cols(self):
        # concat_cols slices its gradient back into the two operands.
        rng = np.random.default_rng(10)
        a, b = param(rng, 5, 2), param(rng, 5, 3)
        check_gradients(lambda: scalarize(ad.concat_cols(a, b)), [a, b])


class TestNormalizingOps:
    @pytest.mark.parametrize("heads", [1, 2, 3])
    def test_attention(self, heads):
        rng = np.random.default_rng(11)
        q, k, v = (param(rng, 5, 6) for _ in range(3))
        check_gradients(lambda: scalarize(ad.attention(q, k, v, heads)), [q, k, v])

    def test_attention_gradient_of_one_parameter(self):
        # q and v are constants, so the node keeps only the vjp for k.
        rng = np.random.default_rng(17)
        q, v = (ad.constant(rng.standard_normal((5, 4))) for _ in range(2))
        k = param(rng, 5, 4)
        check_gradients(lambda: scalarize(ad.attention(q, k, v, 2)), [k])

    def test_attention_rows_are_convex_weights(self):
        # Scores of size ~30 overflow exp unless each row is shifted by its
        # max; with v = ones every output row is then exactly the weights' sum.
        rng = np.random.default_rng(12)
        q, k = (ad.constant(rng.standard_normal((6, 4)) * 30) for _ in range(2))
        out = ad.attention(q, k, ad.constant(np.ones((6, 4))), 2)
        np.testing.assert_allclose(out.value, 1.0, atol=1e-12)

    def test_layer_norm_all_inputs(self):
        rng = np.random.default_rng(13)
        x = param(rng, 5, 6)
        gain = ad.parameter(1.0 + 0.1 * rng.standard_normal(6))
        bias = ad.parameter(0.1 * rng.standard_normal(6))
        check_gradients(lambda: scalarize(ad.layer_norm(x, gain, bias)), [x, gain, bias])

    def test_layer_norm_statistics(self):
        rng = np.random.default_rng(14)
        x = ad.constant(rng.standard_normal((7, 16)) * 5 + 3)
        out = ad.layer_norm(x, ad.constant(np.ones(16)), ad.constant(np.zeros(16)))
        np.testing.assert_allclose(out.value.mean(axis=1), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(axis=1), 1.0, atol=1e-4)


class TestCrossEntropy:
    def test_gradient_with_partial_mask(self):
        rng = np.random.default_rng(15)
        logits = param(rng, 5, 2)
        mask = np.array([True, False, True, True, False])
        check_gradients(
            lambda: ad.cross_entropy_masked(logits, LABELS5, mask), [logits])

    def test_saturated_correct_is_near_zero(self):
        logits = ad.constant([[1000.0, -1000.0]])
        loss = ad.cross_entropy_masked(logits, np.array([0]), np.array([True]))
        assert float(loss.value) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_give_log_two(self):
        logits = ad.constant(np.zeros((3, 2)))
        loss = ad.cross_entropy_masked(logits, np.array([0, 1, 0]), np.ones(3, bool))
        assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_saturated_wrong_grows_linearly(self):
        # Stable log-softmax: the loss of a confidently wrong prediction is
        # the logit margin, not an overflow.
        losses = []
        for m in (100.0, 1000.0, 10000.0):
            logits = ad.constant([[-m, m]])
            loss = ad.cross_entropy_masked(logits, np.array([0]), np.array([True]))
            losses.append(float(loss.value))
        assert np.isfinite(losses).all()
        assert losses[1] == pytest.approx(2000.0, rel=1e-12)
        assert losses[2] / losses[1] == pytest.approx(10.0, rel=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError):
            ad.cross_entropy_masked(ad.constant(np.zeros((2, 2))),
                                    np.array([0, 1]), np.zeros(2, bool))


class TestGraphMechanics:
    def test_backward_requires_scalar(self):
        t = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ValueError):
            ad.add(t, t).backward()

    def test_constants_collect_no_gradient(self):
        c = ad.constant(np.ones((3, 2)))
        p = ad.parameter(np.ones((3, 2)))
        loss = ad.cross_entropy_masked(ad.add(c, p), np.array([0, 1, 0]), np.ones(3, bool))
        loss.backward()
        assert c.grad is None
        assert p.grad is not None

    def test_constant_only_graph_is_inert(self):
        out = ad.add(ad.constant(np.ones(3)), ad.constant(np.ones(3)))
        assert not out.needs_grad

    def test_zero_upstream_zeroes_gradients(self):
        rng = np.random.default_rng(16)
        p = param(rng, 5, 2)
        loss = ad.mul(ad.cross_entropy_masked(p, LABELS5, MASK5), ad.constant(0.0))
        loss.backward()
        np.testing.assert_array_equal(p.grad, np.zeros_like(p.value))

    def test_values_are_float64(self):
        t = ad.constant([[1, 2], [3, 4]])
        assert t.value.dtype == np.float64
        assert t.shape == (2, 2)
