"""Executable acceptance checks, one per stated guarantee.

Each test prints a single summary line with its measured values; run with
``-rA`` (the configured default) to see every line in the PASSES section.
The slow checks (criteria 8, 9 and 10, marked ``slow``) build the same
default synthetic graphs the command line produces, so the whole file is
deterministic end to end.  Expect a few minutes of wall time; everything
else in the suite stays fast, and ``pytest -m "not slow"`` skips the three.
"""

import itertools
import time

import numpy as np
import pytest

from fairspectral import autodiff as ad
from fairspectral.convergence import (
    convolution_similarity,
    verify_decay_rate,
    verify_degenerate_top_bound,
    verify_principal_limit,
)
from fairspectral.eigen import (
    SpectralBasis,
    full_dense_eigendecomposition,
    save_basis,
    top_k_eigenpairs,
)
from fairspectral.graph import SbmConfig, generate_sbm, make_splits, normalize
from fairspectral.metrics import delta_eo, delta_sp, evaluate
from fairspectral.model import (
    forward_propagation,
    forward_spectral,
    init_propagation_params,
    init_spectral_params,
    propagate_features,
    spectral_transform,
)
from fairspectral.sparse import csr_from_dense, csr_from_edges
from fairspectral.train import TrainConfig, train

from gradient_oracles import backward_gradients, finite_difference_gradients


def announce(number, ok, detail):
    print(f"criterion {number:2d}: {'pass' if ok else 'FAIL'} ({detail})")


def random_sparse_symmetric(rng, n, mean_degree=6.0):
    a = rng.standard_normal((n, n)) * (rng.random((n, n)) < mean_degree / n)
    return (a + a.T) / 2.0


def subspace_angle(p1, p2):
    """Largest principal angle between the column spans, in radians."""
    s = np.linalg.svd(p1.T @ p2, compute_uv=False)
    return float(np.arccos(np.clip(s.min(), -1.0, 1.0)))


def test_criterion_01_eigensolver_matches_dense_oracle():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst_val = worst_angle = worst_orth = 0.0
    for _ in range(20):
        n = int(rng.integers(50, 301))
        k = int(rng.integers(1, 11))
        a = random_sparse_symmetric(rng, n)
        basis = top_k_eigenpairs(csr_from_dense(a), k, seed=int(rng.integers(2**31)))

        lam, vec = np.linalg.eigh(a)
        order = np.lexsort((-lam, -np.abs(lam)))[:k]
        rel = np.abs(basis.eigenvalues - lam[order]) / np.abs(lam[order])
        worst_val = max(worst_val, float(rel.max()))
        worst_angle = max(worst_angle, subspace_angle(basis.eigenvectors, vec[:, order]))
        gram = basis.eigenvectors.T @ basis.eigenvectors
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(k)).max()))
    elapsed = time.perf_counter() - t0

    ok = (worst_val <= 1e-8 and worst_angle <= 1e-6
          and worst_orth <= 1e-8 and elapsed < 10.0)
    announce(1, ok, f"rel {worst_val:.2e}, angle {worst_angle:.2e}, "
                    f"orth {worst_orth:.2e}, {elapsed:.1f}s")
    assert worst_val <= 1e-8
    assert worst_angle <= 1e-6
    assert worst_orth <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_principal_limit_and_closed_form():
    worst = 0.0
    for seed in range(10):
        report = verify_principal_limit(n=60, gap_min=1.5, l_max=200, seed=seed)
        assert report.verdict
        worst = max(worst, report.gap)

    s = np.diag([2.0, 1.0])
    h = np.ones(2)
    worst_closed = max(
        abs(convolution_similarity(s, h, l)
            - (2.0 ** l + 1.0) / np.sqrt(2.0 * (4.0 ** l + 1.0)))
        for l in range(41))

    ok = worst <= 1e-6 and worst_closed <= 1e-9
    announce(2, ok, f"limit gap {worst:.2e} over 10 instances, "
                    f"closed form {worst_closed:.2e} over l<=40")
    assert worst <= 1e-6
    assert worst_closed <= 1e-9


def test_criterion_03_degenerate_top_bound():
    worst_margin = 0.0
    worst_eq = 0.0
    for j in (2, 3):
        for seed in (0, 1):
            report = verify_degenerate_top_bound(n=50, j=j, l_max=120, seed=seed)
            assert report.verdict
            worst_margin = min(worst_margin, report.parameters["margin"])
            worst_eq = max(worst_eq, report.gap)

    ok = worst_margin >= -1e-9 and worst_eq <= 1e-8
    announce(3, ok, f"min margin {worst_margin:+.2e}, equality gap {worst_eq:.2e}")
    assert worst_margin >= -1e-9
    assert worst_eq <= 1e-8


def test_criterion_04_nonprincipal_decay_slope():
    worst = 0.0
    for seed in range(10):
        report = verify_decay_rate(n=60, seed=seed)
        assert report.verdict
        worst = max(worst, report.gap)

    announce(4, worst <= 1e-3, f"max slope deviation {worst:.2e} over 10 instances")
    assert worst <= 1e-3


def test_criterion_05_gradients_match_finite_differences():
    t0 = time.perf_counter()
    g = generate_sbm(SbmConfig(n=30, p_in=0.3, p_out=0.1, seed=205))
    op = normalize(g, "sym")
    basis = top_k_eigenpairs(op, 3, seed=205)
    params = init_spectral_params(
        np.random.default_rng(205), g.features.shape[1], 8, 2, 2, 8)
    mask = np.ones(30, dtype=bool)

    def loss_fn():
        logits = forward_spectral(params, basis, g.features)
        return ad.cross_entropy_masked(logits, g.labels, mask)

    exact = backward_gradients(loss_fn(), params)
    approx = finite_difference_gradients(loss_fn, params)
    worst = 0.0
    for name in exact:
        denom = np.maximum(np.abs(approx[name]), 1e-6)
        worst = max(worst, float(np.max(np.abs(exact[name] - approx[name]) / denom)))
    elapsed = time.perf_counter() - t0

    ok = worst <= 1e-4 and elapsed < 30.0
    announce(5, ok, f"max relative error {worst:.2e} across "
                    f"{len(exact)} tensors, {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 30.0


def test_criterion_06_metrics_match_exhaustive_enumeration():
    sens = np.array([0, 0, 0, 1, 1, 1])
    labels = np.array([1, 0, 1, 1, 0, 1])
    checked = 0
    for bits in itertools.product([0, 1], repeat=6):
        pred = np.array(bits)
        pos = [0, 0]
        tot = [0, 0]
        pos_y1 = [0, 0]
        tot_y1 = [0, 0]
        for i in range(6):
            grp = int(sens[i])
            tot[grp] += 1
            pos[grp] += int(pred[i] == 1)
            if labels[i] == 1:
                tot_y1[grp] += 1
                pos_y1[grp] += int(pred[i] == 1)
        assert delta_sp(pred, sens) == abs(pos[0] / tot[0] - pos[1] / tot[1])
        assert delta_eo(pred, labels, sens) == abs(
            pos_y1[0] / tot_y1[0] - pos_y1[1] / tot_y1[1])
        checked += 1

    announce(6, checked == 64, f"{checked} prediction patterns, exact equality")
    assert checked == 64


def test_criterion_07_filter_identity_and_rank():
    worst_identity = 0.0
    worst_rank_leak = 0.0
    for seed in (701, 702, 703):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        k = int(rng.integers(2, 8))
        full = full_dense_eigendecomposition(random_sparse_symmetric(rng, n))
        h = rng.standard_normal((n, 5))

        ident = spectral_transform(full, ad.constant(np.ones((n, 1))), ad.constant(h))
        worst_identity = max(worst_identity, float(np.abs(ident.value - h).max()))

        part = SpectralBasis(full.eigenvalues[:k], full.eigenvectors[:, :k].copy())
        mod = ad.constant(rng.standard_normal((k, 1)))
        out = spectral_transform(part, mod, ad.constant(h)).value
        s = np.linalg.svd(out, compute_uv=False)
        if s.shape[0] > k:
            worst_rank_leak = max(worst_rank_leak, float(s[k:].max() / s[0]))

    ok = worst_identity <= 1e-9 and worst_rank_leak <= 1e-9
    announce(7, ok, f"identity {worst_identity:.2e}, "
                    f"rank leak {worst_rank_leak:.2e}")
    assert worst_identity <= 1e-9
    assert worst_rank_leak <= 1e-9


@pytest.mark.slow
def test_criterion_08_fairness_utility_tradeoff():
    # Five seeds of the default biased graph; the spectral model must at
    # least halve the parity gap of the smoothing baseline without giving
    # up more than two points of accuracy.  Expected means from the frozen
    # protocol: gap ratio 0.208, accuracy margin +0.1525.
    t0 = time.perf_counter()
    cfg_train = TrainConfig()
    rows = []
    for seed in range(5):
        g = generate_sbm(SbmConfig(seed=seed))
        splits = make_splits(g, seed)
        op = normalize(g, "sym")
        basis = top_k_eigenpairs(op, 8, seed=seed)
        x, y, s = g.features, g.labels, g.sensitive
        tr, va, te = splits.train, splits.val, splits.test

        rng = np.random.default_rng(1000 + seed)
        ps = init_spectral_params(rng, x.shape[1], 16, 2, 2, 8)
        train(ps, lambda p: forward_spectral(p, basis, x), y, s, tr, va, cfg_train)
        rs = evaluate(forward_spectral(ps, basis, x).value, y, s, te)

        rng = np.random.default_rng(1000 + seed)
        pb = init_propagation_params(rng, x.shape[1], 16, 2)
        z = propagate_features(op, x, n_steps=10, theta=0.1)
        fwd = lambda p: forward_propagation(p, z)
        train(pb, fwd, y, s, tr, va, cfg_train)
        rb = evaluate(fwd(pb).value, y, s, te)
        rows.append((rs.accuracy, rs.delta_sp, rb.accuracy, rb.delta_sp))

    means = np.array(rows).mean(axis=0)
    ratio = means[1] / means[3]
    margin = means[0] - means[2]
    elapsed = time.perf_counter() - t0

    ok = ratio <= 0.5 and margin >= -0.02 and elapsed < 300.0
    announce(8, ok, f"gap ratio {ratio:.3f} (need <=0.5), accuracy margin "
                    f"{margin:+.4f} (need >=-0.02), {elapsed:.0f}s")
    assert ratio <= 0.5
    assert margin >= -0.02
    assert elapsed < 300.0


@pytest.mark.slow
def test_criterion_09_parity_gap_grows_with_basis_size():
    # Deterministic sweep over every basis size on three default graphs:
    # the mean parity gap with K <= 10 components must sit strictly below
    # the mean with K in {100, n}.  KNOWN FAILURE: on this generator the
    # sweep is flat at Bayes level (the raw concat gives the classifier
    # full feature access at every K, and group structure sits in the
    # smooth top of the spectrum), so the residual differences are
    # training-noise artifacts.  Frozen full-protocol measurement: mean
    # 0.050940 (small) vs 0.049852 (large), per-seed directions 1 of 3.
    # The protocol is implemented faithfully and left failing rather than
    # weakened.
    small_ks = list(range(1, 11))
    large_ks = [100, 2000]
    cfg_train = TrainConfig()
    small_gaps, large_gaps = [], []
    for seed in (0, 1, 2):
        g = generate_sbm(SbmConfig(seed=seed))
        splits = make_splits(g, seed)
        op = normalize(g, "sym")
        full = full_dense_eigendecomposition(op.to_dense())
        x, y, s = g.features, g.labels, g.sensitive
        tr, va, te = splits.train, splits.val, splits.test
        for k in small_ks + large_ks:
            basis = SpectralBasis(full.eigenvalues[:k],
                                  full.eigenvectors[:, :k],
                                  full.residuals[:k])
            rng = np.random.default_rng(1000 + seed)
            p = init_spectral_params(rng, x.shape[1], 16, 2, 2, 8)
            train(p, lambda q: forward_spectral(q, basis, x), y, s, tr, va, cfg_train)
            gap = evaluate(forward_spectral(p, basis, x).value, y, s, te).delta_sp
            (small_gaps if k in small_ks else large_gaps).append(gap)

    mean_small = float(np.mean(small_gaps))
    mean_large = float(np.mean(large_gaps))
    announce(9, mean_small < mean_large,
             f"mean gap K<=10: {mean_small:.4f}, K large: {mean_large:.4f}, "
             f"need strict <")
    assert mean_small < mean_large


@pytest.mark.slow
def test_criterion_10_truncated_route_scales_past_dense():
    rng = np.random.default_rng(1010)
    n = 20000
    m = 4 * n
    u = rng.integers(0, n, m)
    v = rng.integers(0, n, m)
    keep = u != v
    u, v = u[keep], v[keep]
    w = rng.standard_normal(u.shape[0])
    big = csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]),
                         np.concatenate([w, w]))
    t0 = time.perf_counter()
    basis = top_k_eigenpairs(big, 8, seed=0)
    t_large = time.perf_counter() - t0
    assert basis.k == 8

    g = generate_sbm(SbmConfig(seed=0))
    op = normalize(g, "sym")
    t0 = time.perf_counter()
    full = full_dense_eigendecomposition(op.to_dense())
    t_dense = time.perf_counter() - t0
    assert full.k == 2000
    t0 = time.perf_counter()
    top_k_eigenpairs(op, 8, seed=0)
    t_sparse = time.perf_counter() - t0

    ok = t_large < 30.0 and t_sparse < t_dense
    announce(10, ok, f"truncated n=20000: {t_large:.1f}s (need <30), dense "
                     f"n=2000: {t_dense:.1f}s, truncated n=2000: {t_sparse:.1f}s")
    assert t_large < 30.0
    assert t_sparse < t_dense


def test_criterion_11_artifacts_are_bit_identical(tmp_path):
    def produce(tag):
        g = generate_sbm(SbmConfig(n=120, p_in=0.2, p_out=0.05, seed=7))
        splits = make_splits(g, 7)
        op = normalize(g, "sym")
        basis = top_k_eigenpairs(op, 5, seed=7)
        path = tmp_path / f"{tag}.bin"
        save_basis(basis, path)

        params = init_spectral_params(
            np.random.default_rng(7), g.features.shape[1], 8, 2, 1, 4)
        history = train(
            params, lambda p: forward_spectral(p, basis, g.features),
            g.labels, g.sensitive, splits.train, splits.val,
            TrainConfig(max_epochs=40, patience=40))
        report = evaluate(forward_spectral(params, basis, g.features).value,
                          g.labels, g.sensitive, splits.test)
        return path.read_bytes(), history.to_json(), report.to_json()

    first = produce("a")
    second = produce("b")
    ok = first == second
    announce(11, ok, "basis file, history, and report identical across runs")
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]
