"""Settings resolution: precedence, validation, run identity."""

import inspect

import pytest

from fairspectral.config import (
    COMMAND_OPTIONS,
    ConfigError,
    load_config_file,
    parse_bool,
    resolve_settings,
    run_digest,
)
from fairspectral.eigen import DENSE_LIMIT, full_dense_eigendecomposition, top_k_eigenpairs
from fairspectral.graph import SbmConfig
from fairspectral.model import init_spectral_params, propagate_features
from fairspectral.train import TrainConfig


class TestParseBool:
    @pytest.mark.parametrize("text", ["1", "true", "Yes", " ON "])
    def test_truthy(self, text):
        assert parse_bool(text) is True

    @pytest.mark.parametrize("text", ["0", "false", "No", "off"])
    def test_falsy(self, text):
        assert parse_bool(text) is False

    @pytest.mark.parametrize("text", ["", "2", "truthy", "oui"])
    def test_rejects_everything_else(self, text):
        with pytest.raises(ValueError):
            parse_bool(text)


class TestSchema:
    def test_every_command_declares_options(self):
        assert set(COMMAND_OPTIONS) == {"gen", "eig", "analyze", "train", "bench"}
        for opts in COMMAND_OPTIONS.values():
            assert len(opts) > 0

    def test_flag_spelling(self):
        by_name = {o.name: o for o in COMMAND_OPTIONS["gen"]}
        assert by_name["p_in"].flag == "--p-in"
        assert by_name["n"].flag == "--n"

    def test_defaults_match_training_loop(self):
        by_name = {o.name: o for o in COMMAND_OPTIONS["train"]}
        cfg = TrainConfig()
        assert by_name["epochs"].default == cfg.max_epochs == 1000
        assert by_name["lr"].default == cfg.lr == 0.01
        assert by_name["weight_decay"].default == cfg.weight_decay == 5e-4
        assert by_name["patience"].default == cfg.patience == 100

    def test_gen_defaults_match_generator(self):
        # bench builds its graphs from SbmConfig's defaults, gen from these.
        by_name = {o.name: o.default for o in COMMAND_OPTIONS["gen"]}
        cfg = SbmConfig()
        assert (by_name["n"], by_name["p_in"], by_name["p_out"], by_name["homophily"],
                by_name["label_bias"], by_name["dims"], by_name["noise_sd"], by_name["seed"]) == (
            cfg.n, cfg.p_in, cfg.p_out, cfg.sensitive_homophily,
            cfg.label_bias, cfg.d, cfg.noise_sd, cfg.seed)


    def test_eig_defaults_match_solvers(self):
        options = {o.name: o for o in COMMAND_OPTIONS["eig"]}
        lanczos = inspect.signature(top_k_eigenpairs).parameters
        dense = inspect.signature(full_dense_eigendecomposition).parameters
        assert options["tol"].default == lanczos["tol"].default == 1e-10
        assert options["seed"].default == lanczos["seed"].default == 0
        # The dense size guard is a constant, not an option, and --dense
        # names it.
        assert DENSE_LIMIT == 2000
        assert "dense_limit" not in options and "dense_limit" not in dense
        assert str(DENSE_LIMIT) in options["dense"].help

    def test_train_defaults_match_models(self):
        by_name = {o.name: o.default for o in COMMAND_OPTIONS["train"]}
        spectral = inspect.signature(init_spectral_params).parameters
        propagation = inspect.signature(propagate_features).parameters
        assert by_name["heads"] == spectral["n_heads"].default == 2
        assert by_name["steps"] == propagation["n_steps"].default == 10
        assert by_name["theta"] == propagation["theta"].default == 0.1


class TestConfigFile:
    def write(self, tmp_path, text):
        path = tmp_path / "run.ini"
        path.write_text(text)
        return str(path)

    def test_known_sections_and_keys(self, tmp_path):
        path = self.write(tmp_path, "[gen]\nn = 100\nseed = 3\n\n[train]\nlr = 0.1\n")
        values = load_config_file(path)
        assert values == {"gen": {"n": "100", "seed": "3"}, "train": {"lr": "0.1"}}

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config_file(str(tmp_path / "absent.ini"))

    def test_unknown_section(self, tmp_path):
        path = self.write(tmp_path, "[generate]\nn = 100\n")
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config_file(path)

    def test_unknown_key(self, tmp_path):
        path = self.write(tmp_path, "[gen]\nnodes = 100\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config_file(path)


class TestResolution:
    def test_cli_beats_file_beats_default(self):
        resolved = resolve_settings(
            "gen",
            {"n": 500, "seed": None, "p_in": None},
            {"seed": "7", "n": "999"})
        assert resolved["n"] == 500
        assert resolved["seed"] == 7
        assert resolved["p_in"] == 0.01

    def test_every_option_resolved(self):
        resolved = resolve_settings("train", {})
        assert set(resolved) == {o.name for o in COMMAND_OPTIONS["train"]}

    def test_file_values_coerced_by_option_type(self):
        resolved = resolve_settings("eig", {}, {"dense": "yes", "k": "12"})
        assert resolved["dense"] is True
        assert resolved["k"] == 12

    def test_bad_file_value(self):
        with pytest.raises(ConfigError, match="bad value"):
            resolve_settings("eig", {}, {"k": "twelve"})

    def test_none_defers_to_file(self):
        resolved = resolve_settings("gen", {"n": None}, {"n": "123"})
        assert resolved["n"] == 123


class TestRunDigest:
    def test_stable_across_calls(self):
        settings = resolve_settings("train", {})
        assert run_digest("train", settings) == run_digest("train", dict(settings))

    def test_twelve_hex_characters(self):
        digest = run_digest("train", resolve_settings("train", {}))
        assert len(digest) == 12
        int(digest, 16)

    def test_any_setting_changes_digest(self):
        base = resolve_settings("train", {})
        baseline = run_digest("train", base)
        for name in ("lr", "basis", "seed", "model"):
            changed = dict(base)
            changed[name] = 0.02 if name == "lr" else "other"
            assert run_digest("train", changed) != baseline

    def test_command_name_is_part_of_identity(self):
        settings = {"seed": 0}
        assert run_digest("gen", settings) != run_digest("eig", settings)

    def test_key_order_is_irrelevant(self):
        a = {"n": 10, "seed": 1}
        b = {"seed": 1, "n": 10}
        assert run_digest("gen", a) == run_digest("gen", b)
