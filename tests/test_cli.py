"""End-to-end subcommand runs through main(), on small synthetic inputs."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairspectral import eigen
from fairspectral.cli import main
from fairspectral.eigen import SpectralBasis, load_basis, save_basis
from fairspectral.sparse import CsrMatrix


def run(*argv):
    return main(list(argv))


def gen_graph(tmp_path, name="data", n=60, extra=()):
    out = tmp_path / name
    code = run("gen", "--n", str(n), "--p-in", "0.2", "--p-out", "0.05",
               "--seed", "1", "--out", str(out), *extra)
    assert code == 0
    return out


def write_basis(data, k):
    """eig's basis of the graph in data, at the path train reads by default."""
    assert run("eig", "--graph", str(data), "--k", str(k)) == 0


def alias_node(doc, node, bad):
    """Write bad where the split file lists node, so that a parser wrapping
    -1 to n - 1 or truncating 0.5 to 0 would accept the file."""
    for name in ("train", "val", "test"):
        if node in doc[name]:
            doc[name][doc[name].index(node)] = bad
            return doc
    doc["train"].append(bad)
    return doc


class TestParserBasics:
    def test_version_flag_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run("--version")
        assert excinfo.value.code == 0
        assert re.match(r"\d+\.\d+\.\d+", capsys.readouterr().out.strip())

    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            run()
        assert excinfo.value.code == 1

    @pytest.mark.parametrize("argv", [
        ("train", "--epochs", "abc"),
        ("train", "--bogus", "1"),
    ], ids=["invalid-int", "unknown-flag"])
    def test_argparse_error_is_usage_error(self, capsys, argv):
        # argparse's own exit code, 2, would read as a numerical failure.
        with pytest.raises(SystemExit) as excinfo:
            run(*argv)
        assert excinfo.value.code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    @pytest.mark.parametrize("text", [
        "n = 30\n",
        "[gen]\nn = 30\nn = 40\n",
        "[gen]\nn = 30\n[gen]\nseed = 2\n",
    ], ids=["no-section-header", "duplicate-key", "duplicate-section"])
    def test_malformed_config_is_usage_error(self, tmp_path, capsys, text):
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert run("gen", "--config", str(ini), "--out", str(tmp_path / "g")) == 1
        assert capsys.readouterr().err.startswith("error: malformed config file")


class TestGen:
    def test_writes_three_files(self, tmp_path, capsys):
        out = gen_graph(tmp_path)
        assert (out / "edges.txt").is_file()
        assert (out / "nodes.csv").is_file()
        assert (out / "splits.json").is_file()
        assert "wrote 60 nodes" in capsys.readouterr().out

    def test_node_table_layout(self, tmp_path):
        out = gen_graph(tmp_path)
        lines = (out / "nodes.csv").read_text().splitlines()
        assert lines[0] == "sensitive," + ",".join(f"x{i}" for i in range(1, 8)) + ",label"
        assert len(lines) == 61
        first = lines[1].split(",")
        assert first[0] in ("0", "1")
        assert first[-1] in ("0", "1")

    def test_dims_counts_the_sensitive_column(self, tmp_path):
        out = gen_graph(tmp_path, extra=("--dims", "5"))
        header = (out / "nodes.csv").read_text().splitlines()[0]
        assert header == "sensitive,x1,x2,x3,x4,label"

    def test_edges_are_upper_triangular_pairs(self, tmp_path):
        out = gen_graph(tmp_path)
        for line in (out / "edges.txt").read_text().splitlines():
            u, v = map(int, line.split())
            assert 0 <= u < v < 60

    def test_split_index_lists_are_disjoint(self, tmp_path):
        out = gen_graph(tmp_path)
        doc = json.loads((out / "splits.json").read_text())
        assert doc["n"] == 60
        train, val, test = set(doc["train"]), set(doc["val"]), set(doc["test"])
        assert len(train | val | test) == len(train) + len(val) + len(test)
        assert (train | val | test) <= set(range(60))

    def test_deterministic_given_seed(self, tmp_path):
        a = gen_graph(tmp_path, "a")
        b = gen_graph(tmp_path, "b")
        for name in ("edges.txt", "nodes.csv", "splits.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("argv, digests", [
        (("--n", "200", "--seed", "0"), {
            "edges.txt": "653bf2fd66b5ef5c345f2cf3244c910752782a25e8f6a821a2ef14a501643012",
            "nodes.csv": "230738543289fc1e10a4d71c20ff1e860586882e35d8105a3e529135efbbea6f",
            "splits.json": "e47546ff0fea2eaae67c1806b96b9c906156e5714507b7385c6d692fb5eae5be",
        }),
        ((), {
            "edges.txt": "dfd6024737c585233d7c9c0a5e13b5f5abbeb3f87ad7dcb5c1b4c7ff6eee4018",
            "nodes.csv": "8ec02bb15b50ac4a1ecd7e1ec6f861076433a5d97047f5c71badcfd75b02b8be",
            "splits.json": "732258546c2ffccfffac1440e6fcbcf8526953ee5a4c691dcb7db347a9a1eb16",
        }),
        # Odd n and odd half.
        (("--n", "1031", "--seed", "3"), {
            "edges.txt": "f9fb504cd884473070fa7692de5c292da741bd85a7600956bdc480c91d0b07c3",
            "nodes.csv": "19127d9fae1505af46ba4a87955cfdb43532e91eec9f59f29988b1c6e15d24a1",
            "splits.json": "45d2dcb611dc19abe72b05a37235ce6ec09b2f42ab07d9fd310754315f9c30b5",
        }),
    ], ids=["n200-seed0", "default", "n1031-seed3"])
    def test_files_are_frozen(self, tmp_path, argv, digests):
        out = tmp_path / "data"
        assert run("gen", *argv, "--out", str(out)) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    def test_invalid_probability_is_usage_error(self, tmp_path, capsys):
        code = run("gen", "--n", "20", "--p-in", "1.5",
                   "--out", str(tmp_path / "bad"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestEig:
    def test_iterative_route_writes_basis_and_sidecar(self, tmp_path):
        data = gen_graph(tmp_path)
        out = tmp_path / "basis.bin"
        assert run("eig", "--graph", str(data), "--k", "4",
                   "--out", str(out)) == 0
        basis = load_basis(out)
        assert (basis.n, basis.k) == (60, 4)
        sidecar = json.loads(out.with_suffix(".bin.json").read_text())
        assert sidecar["method"] == "lanczos-topk"
        assert sidecar["mode"] == "sym"
        assert len(sidecar["eigenvalues"]) == 4
        assert sidecar["max_residual"] <= 1e-8
        assert sidecar["seconds"] > 0
        assert sidecar["matvecs"] >= 1 and sidecar["restarts"] >= 0

    def test_dense_route_truncates_to_k(self, tmp_path):
        data = gen_graph(tmp_path)
        out = tmp_path / "dense.bin"
        assert run("eig", "--graph", str(data), "--k", "5", "--dense",
                   "--out", str(out)) == 0
        sidecar = json.loads(out.with_suffix(".bin.json").read_text())
        assert sidecar["method"] == "dense-topk"
        assert sidecar["matvecs"] is None and sidecar["restarts"] is None
        assert load_basis(out).k == 5

    def test_dense_route_decomposes_once(self, tmp_path, monkeypatch):
        data = gen_graph(tmp_path, n=40)
        full, top = tmp_path / "full.bin", tmp_path / "top.bin"
        assert run("eig", "--graph", str(data), "--k", "40", "--dense",
                   "--out", str(full)) == 0
        calls = []
        solve = eigen.dense_symmetric_eig
        monkeypatch.setattr(eigen, "dense_symmetric_eig",
                            lambda a: calls.append(a.shape) or solve(a))
        assert run("eig", "--graph", str(data), "--k", "3", "--dense",
                   "--out", str(top)) == 0
        assert calls == [(40, 40)]
        a, b = load_basis(full), load_basis(top)
        assert b.eigenvalues.tobytes() == a.eigenvalues[:3].tobytes()
        assert b.eigenvectors.tobytes() == a.eigenvectors[:, :3].tobytes()

    def test_dense_k_above_n_is_usage_error(self, tmp_path, capsys):
        data = gen_graph(tmp_path, n=40)
        for extra in ((), ("--dense",)):
            assert run("eig", "--graph", str(data), "--k", "100", *extra,
                       "--out", str(tmp_path / "x.bin")) == 1
            assert "k must be in [1, 40]" in capsys.readouterr().err

    def test_routes_agree_on_eigenvalues(self, tmp_path):
        data = gen_graph(tmp_path)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        run("eig", "--graph", str(data), "--k", "4", "--out", str(a))
        run("eig", "--graph", str(data), "--k", "4", "--dense", "--out", str(b))
        np.testing.assert_allclose(load_basis(a).eigenvalues,
                                   load_basis(b).eigenvalues, atol=1e-8)

    def test_dense_size_guard_is_numerical_failure(self, tmp_path, capsys):
        data = gen_graph(tmp_path)
        code = run("eig", "--graph", str(data), "--dense",
                   "--dense-limit", "10", "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_dense_size_guard_refuses_before_densifying(self, tmp_path, capsys, monkeypatch):
        data = gen_graph(tmp_path)

        def to_dense(self):
            raise AssertionError("densified a graph above the dense limit")

        monkeypatch.setattr(CsrMatrix, "to_dense", to_dense)
        code = run("eig", "--graph", str(data), "--dense",
                   "--dense-limit", "10", "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("n, extra, digest", [
        (200, (), "5d041fa8249d49a445dbc688c630a5f071eab6447358413054a1e5a8542f2059"),
        (30, ("--dense",), "1c0d2897e3f9b26850b9b899ed5eae58702547e2c014e43b404497317f5b25bb"),
    ], ids=["lanczos-k8", "dense-n30"])
    def test_basis_bytes_are_frozen(self, tmp_path, n, extra, digest):
        # Dense problems of order <= 32 (Lanczos's projected problems for
        # k <= 11 among them) take the unblocked Householder steps and one
        # QL + inverse-iteration leaf, so a change to their rounding changes
        # these digests.  The Lanczos one also moves with the window size
        # and with the Gram-Schmidt passes a step takes.
        data = tmp_path / "data"
        assert run("gen", "--n", str(n), "--seed", "0", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "8", *extra) == 0
        assert hashlib.sha256((data / "basis.bin").read_bytes()).hexdigest() == digest

    def test_bad_k_is_usage_error(self, tmp_path):
        data = gen_graph(tmp_path)
        assert run("eig", "--graph", str(data), "--k", "0",
                   "--out", str(tmp_path / "x.bin")) == 1

    def test_bad_mode_is_usage_error(self, tmp_path):
        data = gen_graph(tmp_path)
        assert run("eig", "--graph", str(data), "--mode", "rw",
                   "--out", str(tmp_path / "x.bin")) == 1

    def test_missing_graph_dir_is_usage_error(self, tmp_path, capsys):
        assert run("eig", "--graph", str(tmp_path / "nowhere"),
                   "--out", str(tmp_path / "x.bin")) == 1
        assert "missing graph file" in capsys.readouterr().err


class TestAnalyze:
    def test_single_check_passes(self, capsys):
        assert run("analyze", "--check", "principal-limit",
                   "--n", "40", "--l-max", "80") == 0
        assert "principal-limit: pass" in capsys.readouterr().out

    def test_all_checks_write_report(self, tmp_path):
        out = tmp_path / "report.json"
        assert run("analyze", "--check", "all", "--n", "30",
                   "--l-max", "80", "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert len(payload["checks"]) == 3
        assert all(c["verdict"] for c in payload["checks"])

    def test_out_gets_the_json_and_stdout_the_summary(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert run("analyze", "--check", "principal-limit", "--n", "30", "--out", str(out)) == 0
        assert [c["claim"] for c in json.loads(out.read_text())["checks"]] == ["principal-limit"]
        assert capsys.readouterr().out.startswith("principal-limit: pass")

    def test_insufficient_depth_fails_verification(self, capsys):
        # Five steps cannot reach the limit, so the check runs cleanly but
        # its verdict is negative: exit 3, not an error code.
        assert run("analyze", "--check", "principal-limit",
                   "--n", "40", "--l-max", "5") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_is_usage_error(self):
        assert run("analyze", "--check", "bogus") == 1

    # The principal-limit check is defined at n = 1, where the operator is
    # its own limit; every other check needs two eigenvalues.
    @pytest.mark.parametrize("check,n", [
        (check, n)
        for check in ("principal-limit", "degenerate-top-bound", "nonprincipal-decay", "all")
        for n in (0, 1)
        if (check, n) != ("principal-limit", 1)
    ])
    def test_too_small_n_is_usage_error(self, capsys, check, n):
        assert run("analyze", "--check", check, "--n", str(n)) == 1
        assert any(ln.startswith("error:") for ln in capsys.readouterr().err.splitlines())


class TestTrain:
    def run_train(self, tmp_path, data, *extra):
        write_basis(data, 4)
        out = tmp_path / "runs"
        code = run("train", "--graph", str(data), "--epochs", "25",
                   "--hidden", "8", "--layers", "1",
                   "--encode-dim", "4", "--out", str(out), *extra)
        return code, out

    def find_run_dir(self, out):
        dirs = [p for p in out.iterdir() if p.is_dir()]
        assert len(dirs) == 1
        assert re.fullmatch(r"run-[0-9a-f]{12}", dirs[0].name)
        return dirs[0]

    def test_spectral_run_writes_artifacts(self, tmp_path, capsys):
        data = gen_graph(tmp_path)
        code, out = self.run_train(tmp_path, data)
        assert code == 0
        run_dir = self.find_run_dir(out)
        settings = json.loads((run_dir / "settings.json").read_text())
        assert settings["epochs"] == 25
        assert settings["model"] == "spectral"
        history = json.loads((run_dir / "history.json").read_text())
        assert 1 <= history["epochs_run"] <= 25
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert set(metrics) >= {"accuracy", "delta_sp", "delta_eo"}
        assert "test acc" in capsys.readouterr().out

    def test_propagation_model_runs(self, tmp_path):
        data = gen_graph(tmp_path)
        code, out = self.run_train(tmp_path, data, "--model", "propagation",
                                   "--steps", "5")
        assert code == 0
        settings = json.loads((self.find_run_dir(out) / "settings.json").read_text())
        assert settings["model"] == "propagation"

    def test_identical_settings_reuse_run_dir(self, tmp_path):
        data = gen_graph(tmp_path)
        _, out = self.run_train(tmp_path, data)
        first = self.find_run_dir(out)
        history = (first / "history.json").read_bytes()
        code, _ = self.run_train(tmp_path, data)
        assert code == 0
        assert self.find_run_dir(out) == first
        assert (first / "history.json").read_bytes() == history

    def test_config_file_supplies_defaults(self, tmp_path):
        data = gen_graph(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 5\nhidden = 8\n")
        out = tmp_path / "runs"
        write_basis(data, 4)
        assert run("train", "--graph", str(data), "--config", str(ini),
                   "--encode-dim", "4", "--layers", "1",
                   "--out", str(out)) == 0
        settings = json.loads(
            (self.find_run_dir(out) / "settings.json").read_text())
        assert settings["epochs"] == 5

    def test_explicit_flag_beats_config_file(self, tmp_path):
        data = gen_graph(tmp_path)
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nepochs = 5\n")
        out = tmp_path / "runs"
        write_basis(data, 4)
        assert run("train", "--graph", str(data), "--config", str(ini),
                   "--epochs", "7", "--hidden", "8",
                   "--encode-dim", "4", "--layers", "1",
                   "--out", str(out)) == 0
        settings = json.loads(
            (self.find_run_dir(out) / "settings.json").read_text())
        assert settings["epochs"] == 7

    def test_gen_eig_train_chain_with_default_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--n", "60", "--p-in", "0.2", "--p-out", "0.05") == 0
        assert run("eig", "--k", "4") == 0
        assert (tmp_path / "data" / "basis.bin").is_file()
        assert run("train", "--epochs", "5", "--hidden", "8", "--layers", "1",
                   "--encode-dim", "4") == 0
        run_dir = self.find_run_dir(tmp_path / "runs")
        settings = json.loads((run_dir / "settings.json").read_text())
        assert settings["basis"] == "data/basis.bin"
        assert "test acc" in capsys.readouterr().out

    @pytest.mark.parametrize("eig_args, train_args, history, metrics", [
        (("--k", "5"), ("--hidden", "8", "--layers", "1", "--encode-dim", "4"),
         "b11d32640e2bc497b1289e9b460325f4070519e8a0950fef53ed4a9941ab84c3",
         "fad3828a7190253b4b143143d6825e2aa366627d044219f507c35eae0240be2b"),
        (("--dense", "--k", "120"), (),
         "1e83ef12ac61690555484c32214c304b314c3614317b97a7f99003d9928e55c3",
         "19a71d6ce8a86e060dc940cd46ee66735475e5881a513656776a69759f731a9e"),
    ], ids=["lanczos-k5", "dense-k120"])
    def test_training_bytes_are_frozen(self, tmp_path, eig_args, train_args,
                                       history, metrics):
        # The second case trains at K = n with the default model, so every
        # K x K attention array is on the path to these bytes, and its basis
        # comes from the divide-and-conquer merges above 32 rows.
        data, out = tmp_path / "data", tmp_path / "runs"
        assert run("gen", "--n", "120", "--p-in", "0.2", "--p-out", "0.05",
                   "--seed", "7", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), *eig_args) == 0
        assert run("train", "--graph", str(data), "--epochs", "40", "--seed", "7",
                   *train_args, "--out", str(out)) == 0
        run_dir = self.find_run_dir(out)
        for name, digest in (("history.json", history), ("metrics.json", metrics)):
            assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest, name

    def test_different_basis_gets_its_own_run_dir(self, tmp_path):
        data = gen_graph(tmp_path)
        out = tmp_path / "runs"
        for k in (3, 4):
            write_basis(data, k)
            assert run("train", "--graph", str(data), "--epochs", "5", "--hidden", "8",
                       "--layers", "1", "--encode-dim", "4", "--out", str(out)) == 0
        assert len([p for p in out.iterdir() if p.is_dir()]) == 2

    def test_unknown_model_is_usage_error(self, tmp_path):
        data = gen_graph(tmp_path)
        code, _ = self.run_train(tmp_path, data, "--model", "transducer")
        assert code == 1

    def test_missing_splits_is_usage_error(self, tmp_path, capsys):
        data = gen_graph(tmp_path)
        (data / "splits.json").unlink()
        code, _ = self.run_train(tmp_path, data)
        assert code == 1
        assert "missing split file" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", [
        lambda doc: {k: v for k, v in doc.items() if k != "n"},
        lambda doc: {**doc, "train": doc["train"] + [doc["n"]]},
        lambda doc: doc["train"],
        lambda doc: alias_node(doc, doc["n"] - 1, -1),
        lambda doc: alias_node(doc, 0, 0.5),
    ], ids=["missing-n", "id-at-n", "top-level-list", "negative-id", "fractional-id"])
    def test_malformed_splits_is_usage_error(self, tmp_path, capsys, corrupt):
        data = gen_graph(tmp_path)
        split_path = data / "splits.json"
        split_path.write_text(json.dumps(corrupt(json.loads(split_path.read_text()))))
        code, out = self.run_train(tmp_path, data)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: split file")
        assert not out.exists()

    def test_overlapping_splits_is_usage_error(self, tmp_path, capsys):
        data = gen_graph(tmp_path)
        split_path = data / "splits.json"
        doc = json.loads(split_path.read_text())
        split_path.write_text(json.dumps({**doc, "train": doc["train"] + doc["test"][:1]}))
        code, out = self.run_train(tmp_path, data)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: train/val/test masks must be disjoint")
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_numerical_failure(self, tmp_path, capsys):
        data = gen_graph(tmp_path)
        code, _ = self.run_train(tmp_path, data, "--model", "propagation",
                                 "--lr", "1e308")
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err


class TestOutputPathErrors:
    """An output path that runs through an existing file exits 1 with a
    message, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "30", "--p-in", "0.2", "--out", "{data}/nodes.csv/x"),
        ("eig", "--graph", "{data}", "--k", "2", "--out", "{data}/nodes.csv/b.bin"),
        ("train", "--graph", "{data}", "--epochs", "2", "--out", "{data}/nodes.csv"),
    ], ids=["gen", "eig", "train"])
    def test_output_under_a_file_is_usage_error(self, tmp_path, capsys, argv):
        data = gen_graph(tmp_path)
        write_basis(data, 2)
        capsys.readouterr()
        assert run(*(arg.format(data=data) for arg in argv)) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestUnusableValues:
    """Settings no model or solver can use, and non-finite input cells, exit
    1 with a message instead of a traceback or a numerical failure."""

    TRAIN = ("train", "--graph", "{data}", "--epochs", "2", "--out", "{tmp}/runs")

    def assert_usage_error(self, capsys, argv, data, tmp_path):
        capsys.readouterr()
        assert run(*(arg.format(data=data, tmp=tmp_path) for arg in argv)) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("extra", [
        ("--heads", "0"),
        ("--hidden", "0"),
        ("--model", "propagation", "--hidden", "0"),
    ], ids=["heads", "hidden", "propagation-hidden"])
    def test_zero_width_model(self, tmp_path, capsys, extra):
        data = gen_graph(tmp_path)
        write_basis(data, 2)
        self.assert_usage_error(capsys, self.TRAIN + extra, data, tmp_path)

    @pytest.mark.parametrize("argv", [
        ("gen", "--n", "30", "--noise-sd", "nan", "--out", "{tmp}/g"),
        ("eig", "--graph", "{data}", "--tol", "nan", "--out", "{tmp}/b.bin"),
        TRAIN + ("--lr", "nan"),
        TRAIN + ("--weight-decay", "nan"),
    ], ids=["gen-noise-sd", "eig-tol", "train-lr", "train-weight-decay"])
    def test_nan_setting(self, tmp_path, capsys, argv):
        data = gen_graph(tmp_path)
        write_basis(data, 2)
        self.assert_usage_error(capsys, argv, data, tmp_path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_feature_cell(self, tmp_path, capsys, cell):
        data = gen_graph(tmp_path)
        write_basis(data, 2)
        lines = (data / "nodes.csv").read_text().splitlines()
        row = lines[1].split(",")
        row[1] = cell
        lines[1] = ",".join(row)
        (data / "nodes.csv").write_text("\n".join(lines) + "\n")
        self.assert_usage_error(capsys, self.TRAIN, data, tmp_path)


class TestBench:
    def test_ksweep_suite(self, tmp_path):
        out = tmp_path / "ksweep.json"
        assert run("bench", "--n", "40",
                   "--k-values", "1,2", "--seeds", "0", "--epochs", "5",
                   "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert [r["k"] for r in payload["results"]] == [1, 2]
        for row in payload["results"]:
            assert 0.0 <= row["accuracy_mean"] <= 1.0

    def test_ksweep_row_equals_gen_then_train(self, tmp_path):
        # bench takes its graph from SbmConfig's defaults, its basis from
        # eig's Lanczos route and its training settings from train's, so one
        # seed's row is the result of gen, eig and train.
        out = tmp_path / "ksweep.json"
        assert run("bench", "--n", "200", "--k-values", "3",
                   "--seeds", "2", "--epochs", "8", "--out", str(out)) == 0
        row = json.loads(out.read_text())["results"][0]
        data, runs = tmp_path / "data", tmp_path / "runs"
        assert run("gen", "--n", "200", "--seed", "2", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "3", "--seed", "2") == 0
        assert run("train", "--graph", str(data), "--seed", "2",
                   "--epochs", "8", "--out", str(runs)) == 0
        (run_dir,) = runs.iterdir()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert row["accuracy_mean"] == metrics["accuracy"]
        assert row["delta_sp_mean"] == metrics["delta_sp"]

    @pytest.mark.parametrize("bad", ["", "a,b"])
    def test_malformed_k_values(self, bad):
        assert run("bench", "--k-values", bad,
                   "--seeds", "0") == 1


# A valid 8-node graph; each property below corrupts one of its three files.
N_NODES = 8
EDGE_LINES = ["# ring"] + [f"{i} {(i + 1) % N_NODES}" for i in range(N_NODES)] + [""]
NODE_HEADER = ["sensitive", "x1", "label"]
NODE_ROWS = [[str(i % 2), repr(0.25 * i), str((i // 2) % 2)] for i in range(N_NODES)]
SPLITS = {"n": N_NODES, "train": [0, 1, 2, 3], "val": [4, 5], "test": [6, 7]}

# Neither int() nor float() parses these: no digits, and no letters of
# "inf" or "nan".
WORD = st.text(alphabet="abxyz.", min_size=1, max_size=4)
NODE_ID = st.integers(0, N_NODES - 1)
OUT_OF_RANGE_ID = st.one_of(st.integers(max_value=-1), st.integers(min_value=N_NODES))
NOT_AN_ID = st.one_of(OUT_OF_RANGE_ID, st.floats(), WORD, st.booleans(), st.none())
NOT_A_LIST = st.one_of(st.integers(), st.floats(), WORD, st.none(),
                       st.dictionaries(WORD, st.integers(), max_size=2))
NOT_JSON_OBJECT = st.one_of(st.lists(st.integers(), max_size=3), st.integers(),
                            st.floats(), WORD, st.booleans(), st.none())
WRONG_N = st.one_of(st.integers().filter(lambda n: n != N_NODES), st.just(float(N_NODES)),
                    WORD, st.booleans(), st.none())

BAD_EDGE_LINE = st.one_of(
    st.builds(str, NODE_ID),
    st.builds("{} {} {}".format, NODE_ID, NODE_ID, NODE_ID),
    st.builds("{} {}".format, NODE_ID, WORD),
    st.builds("{} {}".format, WORD, NODE_ID),
    st.builds("{} {}".format, NODE_ID, OUT_OF_RANGE_ID),
    st.builds("{} {}".format, OUT_OF_RANGE_ID, NODE_ID),
)


@st.composite
def bad_edge_lists(draw):
    lines = list(EDGE_LINES)
    lines.insert(draw(st.integers(0, len(lines))), draw(BAD_EDGE_LINE))
    return "\n".join(lines)


@st.composite
def bad_node_tables(draw):
    header, rows = list(NODE_HEADER), [list(r) for r in NODE_ROWS]
    row = rows[draw(st.integers(0, N_NODES - 1))]
    kind = draw(st.sampled_from(
        ["extra-cell", "missing-cell", "word", "sensitive", "label", "header", "empty"]))
    if kind == "extra-cell":
        row.append(str(draw(st.integers())))
    elif kind == "missing-cell":
        del row[draw(st.integers(0, len(row) - 1))]
    elif kind == "word":
        row[draw(st.integers(0, len(row) - 1))] = draw(WORD)
    elif kind == "sensitive":
        row[0] = repr(draw(st.floats().filter(lambda x: x not in (0.0, 1.0))))
    elif kind == "label":
        row[2] = repr(draw(st.one_of(
            st.integers(max_value=-1),
            st.floats().filter(lambda x: x < 0 or not x.is_integer()))))
    elif kind == "header":
        header[draw(st.sampled_from([0, 2]))] = draw(WORD)
    else:
        return draw(st.sampled_from(["", ",".join(header) + "\n"]))
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


@st.composite
def bad_split_files(draw):
    doc = {k: list(v) if isinstance(v, list) else v for k, v in SPLITS.items()}
    kind = draw(st.sampled_from(
        ["junk-text", "not-object", "missing-key", "wrong-n", "not-a-list", "bad-id", "overlap"]))
    name = draw(st.sampled_from(["train", "val", "test"]))
    if kind == "junk-text":
        return draw(st.text(alphabet="{}[]:,ab", max_size=6))
    if kind == "not-object":
        doc = draw(NOT_JSON_OBJECT)
    elif kind == "missing-key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif kind == "wrong-n":
        doc["n"] = draw(WRONG_N)
    elif kind == "not-a-list":
        doc[name] = draw(NOT_A_LIST)
    elif kind == "bad-id":
        doc[name].insert(draw(st.integers(0, len(doc[name]))), draw(NOT_AN_ID))
    else:
        doc["train"].append(draw(st.sampled_from(doc["val"] + doc["test"])))
    return json.dumps(doc)


@st.composite
def bad_basis_files(draw):
    """A basis for the valid graph and its sidecar with one fault in either:
    (basis, an edit of the file's bytes that returns None for no file,
    sidecar text or None for no file, a part of the expected message)."""
    basis = SpectralBasis(np.array([1.0, 0.5]), np.eye(N_NODES)[:, :2])
    edit, sidecar = (lambda b: b), json.dumps({"mode": "sym"})
    messages = {
        "no-file": "missing basis file", "magic": "not an FSB1 file",
        "header": "truncated FSB1 header", "payload": "FSB1 payload has",
        "wrong-n": "the graph has 8 nodes",
        "no-pairs": "no eigenpairs", "non-finite": "non-finite value",
        "no-sidecar": "missing basis sidecar", "sidecar-junk": "basis sidecar",
        "sidecar-not-object": "not a JSON object", "sidecar-no-mode": "has mode None",
        "sidecar-mode": "basis sidecar",
    }
    kind = draw(st.sampled_from(sorted(messages)))
    if kind == "no-file":
        edit = lambda b: None
    elif kind == "magic":
        magic = draw(st.binary(min_size=4, max_size=4).filter(lambda m: m != b"FSB1"))
        edit = lambda b: magic + b[4:]
    elif kind == "header":
        cut = draw(st.integers(4, 19))
        edit = lambda b: b[:cut]
    elif kind == "payload":
        cut = draw(st.integers(1, 8 * 18))
        edit = lambda b: b[:-cut]
    elif kind == "wrong-n":
        n = draw(st.integers(1, 3 * N_NODES).filter(lambda n: n != N_NODES))
        basis = SpectralBasis(np.ones(1), np.ones((n, 1)))
    elif kind == "no-pairs":
        basis = SpectralBasis(np.zeros(0), np.zeros((N_NODES, 0)))
    elif kind == "non-finite":
        at = 20 + 8 * draw(st.integers(0, 17))
        bad = struct.pack("<d", draw(st.sampled_from([np.nan, np.inf, -np.inf])))
        edit = lambda b: b[:at] + bad + b[at + 8:]
    elif kind == "no-sidecar":
        sidecar = None
    elif kind == "sidecar-junk":
        sidecar = draw(st.text(alphabet="{}[]:,ab", max_size=6))
    elif kind == "sidecar-not-object":
        sidecar = json.dumps(draw(NOT_JSON_OBJECT))
    elif kind == "sidecar-no-mode":
        sidecar = json.dumps({"n": N_NODES, "k": 2})
    else:
        sidecar = json.dumps({"mode": draw(st.one_of(WORD, st.just("raw"), st.none()))})
    return basis, edit, sidecar, messages[kind]


def write_inputs(root, edges=None, nodes=None, splits=None):
    """Write the valid graph into root, with any given file text replacing its part."""
    root.mkdir(exist_ok=True)
    table = "\n".join(",".join(r) for r in [NODE_HEADER] + NODE_ROWS) + "\n"
    (root / "edges.txt").write_text("\n".join(EDGE_LINES) if edges is None else edges)
    (root / "nodes.csv").write_text(table if nodes is None else nodes)
    (root / "splits.json").write_text(json.dumps(SPLITS) if splits is None else splits)
    return root


class TestMalformedInputsExitCleanly:
    """Any malformed edge list, node table, split file, basis file or basis
    sidecar ends in exit 1 and an "error:" line on stderr, never a
    traceback.  The examples rewrite every file in the same directory, so
    sharing tmp_path is safe."""

    def assert_usage_error(self, capsys, argv):
        """Returns the error lines."""
        capsys.readouterr()
        assert main(argv) == 1
        errors = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]
        assert errors
        return errors

    def eig_argv(self, root):
        return ["eig", "--graph", str(root), "--k", "2", "--out", str(root / "basis.bin")]

    def train_argv(self, root):
        return ["train", "--graph", str(root), "--epochs", "1",
                "--hidden", "4", "--layers", "1", "--encode-dim", "4",
                "--out", str(root / "runs")]

    def test_valid_inputs_succeed(self, tmp_path):
        root = write_inputs(tmp_path / "g")
        assert main(self.eig_argv(root)) == 0
        assert main(self.train_argv(root)) == 0

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_edge_lists())
    def test_edge_list(self, tmp_path, capsys, edges):
        root = write_inputs(tmp_path / "g", edges=edges)
        self.assert_usage_error(capsys, self.eig_argv(root))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_node_tables())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_node_table(self, tmp_path, capsys, nodes):
        root = write_inputs(tmp_path / "g", nodes=nodes)
        self.assert_usage_error(capsys, self.eig_argv(root))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_split_files())
    def test_split_file(self, tmp_path, capsys, splits):
        root = write_inputs(tmp_path / "g", splits=splits)
        self.assert_usage_error(capsys, self.train_argv(root))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_basis_files())
    def test_basis_file(self, tmp_path, capsys, case):
        basis, edit, sidecar, message = case
        root = write_inputs(tmp_path / "g")
        path, side = root / "basis.bin", root / "basis.bin.json"
        save_basis(basis, path)
        data = edit(path.read_bytes())
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        side.unlink(missing_ok=True)
        if sidecar is not None:
            side.write_text(sidecar)
        assert message in self.assert_usage_error(capsys, self.train_argv(root))[0]
