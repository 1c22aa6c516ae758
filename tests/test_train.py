"""Training loop: configuration, gradients, snapshots, failure modes."""

import dataclasses
import json
import math

import numpy as np
import pytest

from fairspectral.eigen import top_k_eigenpairs
from fairspectral.graph import SbmConfig, generate_sbm, make_splits, normalize
from fairspectral.model import (
    forward_propagation,
    forward_spectral,
    init_propagation_params,
    init_spectral_params,
    propagate_features,
)
from fairspectral.sparse import csr_from_dense
from fairspectral.train import (
    TrainConfig,
    TrainHistory,
    TrainingDivergedError,
    backward_gradients,
    finite_difference_gradients,
    params_digest,
    train,
)
from fairspectral import autodiff as ad


def small_instance(seed=0, n=40):
    """Dense-ish block graph with its balanced splits, operator and basis."""
    g = generate_sbm(SbmConfig(n=n, p_in=0.3, p_out=0.05, seed=seed))
    op = normalize(g, "sym")
    basis = top_k_eigenpairs(op, 6, seed=seed)
    return g, make_splits(g, seed), op, basis


class TestConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 1000
        assert cfg.lr == 0.01
        assert cfg.weight_decay == 5e-4
        assert cfg.patience == 100

    @pytest.mark.parametrize("kwargs", [
        {"max_epochs": 0},
        {"lr": 0.0},
        {"lr": -0.01},
        {"weight_decay": -1e-4},
        {"patience": 0},
    ])
    def test_invalid_values_rejected(self, kwargs):
        # A zero learning rate is rejected rather than treated as a no-op
        # run; the config promises every accepted setting can make progress.
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_frozen(self):
        cfg = TrainConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.lr = 0.1


class TestParamsDigest:
    def test_identical_initializations_agree(self):
        a = init_spectral_params(np.random.default_rng(1), 4, 8, 2, 2, 8)
        b = init_spectral_params(np.random.default_rng(1), 4, 8, 2, 2, 8)
        assert params_digest(a) == params_digest(b)
        assert len(params_digest(a)) == 64

    def test_single_entry_changes_digest(self):
        a = init_spectral_params(np.random.default_rng(2), 4, 8, 2, 2, 8)
        before = params_digest(a)
        a.conv_weights[1].value[0, 0] += 1e-12
        assert params_digest(a) != before

    def test_digests_are_frozen(self):
        # The parameter order and names feed every snapshot_id; a change to
        # either changes these digests.
        spectral = init_spectral_params(np.random.default_rng(25), 3, 4, 2, 2, 4)
        propagation = init_propagation_params(np.random.default_rng(25), 3, 4, 2)
        assert params_digest(spectral) == (
            "c3d657f55ae59b534cc0963403e6f8ddfab72b8f694b2ca703c19cbe8bb80fc1")
        assert params_digest(propagation) == (
            "46d6fadd860b6c1372a9b526162b7a469298c1b77a19c0e1118040b74ccc4886")

    def test_model_variants_differ(self):
        rng = np.random.default_rng(3)
        a = init_spectral_params(rng, 4, 8, 2, 1, 8)
        b = init_propagation_params(np.random.default_rng(3), 4, 8, 2)
        assert params_digest(a) != params_digest(b)


class TestGradientAgreement:
    def test_spectral_model_matches_finite_differences(self):
        g, _, op, basis = small_instance(seed=4, n=16)
        params = init_spectral_params(np.random.default_rng(4), g.features.shape[1], 6, 2, 1, 4)
        mask = np.ones(16, dtype=bool)

        def loss_fn():
            logits = forward_spectral(params, basis, g.features)
            return ad.cross_entropy_masked(logits, g.labels, mask)

        exact = backward_gradients(loss_fn(), params)
        approx = finite_difference_gradients(loss_fn, params)
        assert exact.keys() == approx.keys()
        for name in exact:
            np.testing.assert_allclose(exact[name], approx[name],
                                       rtol=1e-4, atol=1e-6, err_msg=name)

    def test_propagation_model_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((10, 3))
        labels = rng.integers(0, 2, 10)
        z = propagate_features(csr_from_dense(np.eye(10) * 0.5), x, n_steps=3, theta=0.2)
        params = init_propagation_params(rng, 3, 4, 2)
        mask = np.ones(10, dtype=bool)

        def loss_fn():
            logits = forward_propagation(params, z)
            return ad.cross_entropy_masked(logits, labels, mask)

        exact = backward_gradients(loss_fn(), params)
        approx = finite_difference_gradients(loss_fn, params)
        for name in exact:
            np.testing.assert_allclose(exact[name], approx[name],
                                       rtol=1e-4, atol=1e-6, err_msg=name)


class TestTrainingRun:
    def fit(self, seed=6, **cfg_kwargs):
        g, splits, op, basis = small_instance(seed=seed)
        params = init_spectral_params(np.random.default_rng(seed),
                                      g.features.shape[1], 16, 2, 2, 8)
        config = TrainConfig(**{"max_epochs": 300, "patience": 300, **cfg_kwargs})
        history = train(
            params,
            lambda p: forward_spectral(p, basis, g.features),
            g.labels, g.sensitive, splits.train, splits.val, config)
        return g, splits, basis, params, history

    def test_loss_decreases_and_fits_training_set(self):
        from fairspectral.metrics import accuracy, predict

        g, splits, basis, params, history = self.fit()
        assert history.train_loss[history.best_epoch] < history.train_loss[0]
        logits = forward_spectral(params, basis, g.features).value
        assert accuracy(predict(logits), g.labels, splits.train) >= 0.9

    def test_best_snapshot_restored(self):
        from fairspectral.metrics import accuracy, predict

        g, splits, basis, params, history = self.fit(seed=7)
        assert history.snapshot_id == params_digest(params)
        assert history.best_val_accuracy == max(history.val_accuracy)
        assert history.val_accuracy[history.best_epoch] == history.best_val_accuracy
        # First strict maximum wins.
        assert history.val_accuracy.index(history.best_val_accuracy) == history.best_epoch
        logits = forward_spectral(params, basis, g.features).value
        assert accuracy(predict(logits), g.labels, splits.val) == history.best_val_accuracy

    def test_repeat_runs_are_bit_identical(self):
        runs = [self.fit(seed=8, max_epochs=40) for _ in range(2)]
        assert runs[0][4].to_json() == runs[1][4].to_json()
        assert runs[0][4].snapshot_id == runs[1][4].snapshot_id

    def test_max_epochs_bounds_run(self):
        *_, history = self.fit(seed=9, max_epochs=5)
        assert history.epochs_run == 5

    def test_patience_stops_stalled_run(self):
        # Zero features freeze the logits, so accuracy never improves after
        # the first epoch and the run must stop after exactly patience more.
        rng = np.random.default_rng(10)
        params = init_propagation_params(rng, 3, 4, 2)
        x = np.zeros((12, 3))
        labels = rng.integers(0, 2, 12)
        history = train(
            params,
            lambda p: forward_propagation(p, x),
            labels, np.zeros(12, int), np.ones(12, bool), np.ones(12, bool),
            TrainConfig(max_epochs=500, patience=7))
        assert history.best_epoch == 0
        assert history.epochs_run == 8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_partial_history(self):
        rng = np.random.default_rng(11)
        params = init_propagation_params(rng, 3, 4, 2)
        x = rng.standard_normal((10, 3))
        labels = rng.integers(0, 2, 10)
        with pytest.raises(TrainingDivergedError) as excinfo:
            train(params,
                  lambda p: forward_propagation(p, x),
                  labels, np.zeros(10, int), np.ones(10, bool), np.ones(10, bool),
                  TrainConfig(max_epochs=10, lr=1e308))
        err = excinfo.value
        assert err.epoch >= 1
        assert err.history.epochs_run == err.epoch
        assert all(math.isfinite(v) for v in err.history.train_loss)

    def test_empty_train_mask_rejected(self):
        rng = np.random.default_rng(12)
        params = init_propagation_params(rng, 3, 4, 2)
        with pytest.raises(ValueError):
            train(params,
                  lambda p: forward_propagation(p, np.zeros((4, 3))),
                  np.zeros(4, int), np.zeros(4, int),
                  np.zeros(4, bool), np.ones(4, bool))


class TestHistorySerialization:
    def test_round_trip_fields(self):
        history = TrainHistory(
            train_loss=[0.7, 0.5], val_accuracy=[0.5, 0.75],
            val_delta_sp=[0.1, 0.2], val_delta_eo=[0.0, 0.1],
            best_epoch=1, best_val_accuracy=0.75, snapshot_id="ab" * 32)
        payload = json.loads(history.to_json())
        assert payload["epochs_run"] == 2
        assert payload["best_epoch"] == 1
        assert payload["train_loss"] == [0.7, 0.5]

    def test_nan_traces_become_null(self):
        history = TrainHistory(
            train_loss=[0.7], val_accuracy=[0.5],
            val_delta_sp=[math.nan], val_delta_eo=[0.25])
        payload = json.loads(history.to_json())
        assert payload["val_delta_sp"] == [None]
        assert payload["val_delta_eo"] == [0.25]
