"""Limiting behavior of repeated convolution, against closed forms.

The three verifiers are exercised at their default settings and on
hand-solvable instances where the limit is known exactly.  The diag(2,1)
case has a closed-form similarity sequence, cos = (2^l + 1) / sqrt(2 (4^l + 1)),
which pins the measurement code to nine decimal places without trusting any
eigendecomposition at all.
"""

import json
import math

import numpy as np
import pytest

from fairspectral.convergence import (
    CLAIM_NAMES,
    ClaimReport,
    convolution_similarity,
    projection_weights,
    similarity_trace,
    synthesize_symmetric,
    verify_decay_rate,
    verify_degenerate_top_bound,
    verify_principal_limit,
)
from fairspectral.eigen import full_dense_eigendecomposition
from fairspectral.sparse import csr_from_dense


class TestConvolutionSimilarity:
    def test_zero_steps_is_one(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal(10)
        assert convolution_similarity(np.eye(10), h, 0) == 1.0

    def test_identity_operator_is_one(self):
        rng = np.random.default_rng(1)
        h = rng.standard_normal(6)
        for l in (1, 3, 17):
            assert convolution_similarity(np.eye(6), h, l) == pytest.approx(1.0, abs=1e-15)

    def test_exchange_rotates_to_orthogonal(self):
        s = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert convolution_similarity(s, np.array([1.0, 0.0]), 1) == pytest.approx(0.0, abs=1e-15)

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal((8, 8))
        s = (s + s.T) / 2
        h = rng.standard_normal(8)
        base = convolution_similarity(s, h, 5)
        # Power-of-two scalings are exact in binary floating point, so the
        # invariance holds bitwise there; any other scale matches to 1 ulp-ish.
        for c in (0.5, 4.0, 2.0**20):
            assert convolution_similarity(s, c * h, 5) == base
        assert convolution_similarity(s, 3.0 * h, 5) == pytest.approx(base, abs=1e-12)

    def test_vanishing_iterate_flagged(self):
        s = np.diag([1.0, 0.0])
        h = np.array([0.0, 1.0])
        assert math.isnan(convolution_similarity(s, h, 1))

    def test_accepts_sparse_operator(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        a = (a + a.T) / 2
        m = csr_from_dense(a)
        h = rng.standard_normal(12)
        assert convolution_similarity(m, h, 4) == pytest.approx(
            convolution_similarity(a, h, 4), abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            convolution_similarity(np.eye(3), np.zeros(3), 1)
        with pytest.raises(ValueError):
            convolution_similarity(np.eye(3), np.ones(3), -1)

    def test_trace_matches_pointwise_calls(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((9, 9))
        s = (s + s.T) / 2
        h = rng.standard_normal(9)
        trace = similarity_trace(s, h, [0, 2, 5, 9])
        for l, value in trace:
            assert value == pytest.approx(convolution_similarity(s, h, l), abs=1e-12)


class TestProjectionWeights:
    def test_basis_vector_projects_to_axis(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((20, 20))
        s = (s + s.T) / 2
        basis = full_dense_eigendecomposition(s).eigenvectors
        h = 4.2 * basis[:, 3]
        alpha = projection_weights(basis, h)
        expected = np.zeros(20)
        expected[3] = 4.2
        np.testing.assert_allclose(alpha, expected, atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((50, 50))
        s = (s + s.T) / 2
        basis = full_dense_eigendecomposition(s).eigenvectors
        h = rng.standard_normal(50)
        alpha = projection_weights(basis, h)
        np.testing.assert_allclose(basis @ alpha, h, atol=1e-10)

    def test_orthogonal_component_vanishes(self):
        rng = np.random.default_rng(7)
        s = rng.standard_normal((30, 30))
        s = (s + s.T) / 2
        basis = full_dense_eigendecomposition(s).eigenvectors
        h = rng.standard_normal(30)
        h -= (h @ basis[:, 0]) * basis[:, 0]
        assert abs(projection_weights(basis, h)[0]) <= 1e-12

    def test_parseval(self):
        rng = np.random.default_rng(8)
        s = rng.standard_normal((40, 40))
        s = (s + s.T) / 2
        basis = full_dense_eigendecomposition(s).eigenvectors
        h = rng.standard_normal(40)
        alpha = projection_weights(basis, h)
        assert np.sum(alpha**2) == pytest.approx(np.sum(h**2), rel=1e-9)


class TestPrincipalLimit:
    def test_diag_two_one_closed_form(self):
        # Exact sequence for S=diag(2,1), h=(1,1)/sqrt(2).
        s = np.diag([2.0, 1.0])
        h = np.array([1.0, 1.0]) / np.sqrt(2.0)
        for l in range(41):
            expected = (2.0**l + 1.0) / np.sqrt(2.0 * (4.0**l + 1.0))
            assert convolution_similarity(s, h, l) == pytest.approx(expected, abs=1e-9)
        assert convolution_similarity(s, h, 40) == pytest.approx(1 / np.sqrt(2), abs=1e-6)

    def test_eigenvector_input_stays_at_one(self):
        rng = np.random.default_rng(9)
        s, p = synthesize_symmetric(np.array([1.0, 0.5, 0.25, 0.1]), rng)
        h = p[:, 0]
        for l in (0, 1, 10, 50):
            assert convolution_similarity(s, h, l) == pytest.approx(1.0, abs=1e-9)

    def test_default_run_passes(self):
        report = verify_principal_limit()
        assert report.verdict
        assert report.gap <= 1e-6
        assert report.claim == CLAIM_NAMES[1]
        assert report.measured[0] == (0, 1.0)

    def test_accuracy_improves_along_gap_ladder(self):
        # Larger spectral gap leaves less non-principal mass at fixed depth.
        gaps = [1.2, 1.5, 2.0, 4.0]
        devs = [verify_principal_limit(gap_min=g, l_max=30, seed=0).gap for g in gaps]
        assert all(devs[i] > devs[i + 1] for i in range(len(devs) - 2))
        assert devs[-1] <= devs[-2] + 1e-12  # final step may sit at the float floor

    def test_gap_min_validation(self):
        with pytest.raises(ValueError):
            verify_principal_limit(gap_min=1.0)


class TestDegenerateTopBound:
    @pytest.mark.parametrize("j", [2, 3])
    def test_bound_holds_with_margin(self, j):
        report = verify_degenerate_top_bound(j=j)
        assert report.verdict
        assert report.parameters["margin"] >= 0.0
        assert report.gap <= 1e-8  # equality construction is tight

    def test_j_one_reduces_to_simple_limit(self):
        report = verify_degenerate_top_bound(j=1)
        assert report.verdict
        # With one top vector the bound and the closed-form limit coincide.
        assert report.predicted == pytest.approx(
            report.parameters["closed_form_limit"], abs=1e-9)

    def test_j_validation(self):
        with pytest.raises(ValueError):
            verify_degenerate_top_bound(j=0)
        with pytest.raises(ValueError):
            verify_degenerate_top_bound(n=5, j=5)


class TestDecayRate:
    def test_default_run_passes(self):
        report = verify_decay_rate()
        assert report.verdict
        assert report.gap <= 1e-3
        assert report.parameters["fitted_slope"] == pytest.approx(
            report.predicted, abs=1e-3)

    def test_slope_negative_for_subdominant_component(self):
        report = verify_decay_rate(seed=3)
        assert report.predicted < 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_decay_rate(index=0)
        with pytest.raises(ValueError):
            verify_decay_rate(l_values=[5])
        with pytest.raises(ValueError):
            verify_decay_rate(l_values=[0, 1, 2])


class TestSynthesizeSymmetric:
    def test_spectrum_is_planted_exactly(self):
        rng = np.random.default_rng(10)
        wanted = np.array([3.0, -2.0, 0.5, 0.1, -0.05])
        s, p = synthesize_symmetric(wanted, rng)
        basis = full_dense_eigendecomposition(s)
        np.testing.assert_allclose(basis.eigenvalues, wanted, atol=1e-9)
        np.testing.assert_allclose(p.T @ p, np.eye(5), atol=1e-12)
        np.testing.assert_allclose(s, s.T, atol=0)


class TestReportSerialization:
    def test_json_roundtrip(self):
        report = verify_principal_limit(n=30, l_max=60)
        doc = json.loads(report.to_json())
        assert doc["claim"] == "principal-limit"
        assert doc["verdict"] is True
        assert doc["measured"][0] == [0, 1.0]
        assert doc["predicted"] == pytest.approx(report.predicted)

    def test_nan_serialized_as_null(self):
        report = ClaimReport(
            claim_id=3, measured=[(1, 0.5)], predicted=-0.1, gap=0.0,
            parameters={"stray": float("nan")}, verdict=True)
        doc = json.loads(report.to_json())
        assert doc["parameters"]["stray"] is None

    def test_nan_measured_and_gap_serialized_as_null(self):
        # A vanishing iterate ends a similarity trace with NaN.
        report = ClaimReport(
            claim_id=1, measured=[(0, 1.0), (3, float("nan"))], predicted=0.5,
            gap=float("nan"), verdict=False)
        text = report.to_json()
        assert "NaN" not in text
        doc = json.loads(text)
        assert doc["measured"] == [[0, 1.0], [3, None]]
        assert doc["gap"] is None
