"""End-to-end subcommand runs through main(), on small synthetic inputs."""

import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fairspectral import cli, convergence, eigen
from fairspectral.cli import main
from fairspectral.eigen import DENSE_LIMIT, SpectralBasis, load_basis, save_basis
from fairspectral.graph import load_graph, load_twin, normalize, save_twin, text_digest
from fairspectral.sparse import CsrMatrix


def run(*argv):
    return main(list(argv))


def gen_graph(tmp_path, name="data", n=60, extra=()):
    out = tmp_path / name
    code = run("gen", "--n", str(n), "--p-in", "0.2", "--p-out", "0.05",
               "--seed", "1", "--out", str(out), *extra)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def graph_above_dense_limit(tmp_path_factory):
    """A gen graph one node above the dense size guard, shared by the tests
    that expect eig --dense to refuse it."""
    out = tmp_path_factory.mktemp("above-limit") / "data"
    assert run("gen", "--n", str(DENSE_LIMIT + 1), "--out", str(out)) == 0
    return out


def _refuse(token):
    raise ValueError(f"bare {token} is not JSON")


def read_json(path):
    """The JSON document in path, refusing the NaN and Infinity tokens that
    json.loads accepts but that are not JSON, so a bare NaN fails the test."""
    return json.loads(path.read_text(), parse_constant=_refuse)


def write_basis(data, k):
    """eig's basis of the graph in data, at the path train reads by default."""
    assert run("eig", "--graph", str(data), "--k", str(k)) == 0


def text_graph(data):
    """The graph parsed from the text files in data."""
    return load_graph(data / "edges.txt", data / "nodes.csv", "sensitive", "label")


def digest_of(data):
    return text_digest((data / "edges.txt").read_bytes(), (data / "nodes.csv").read_bytes())


def assert_same_graph(g, h):
    """g and h hold the same arrays, bit for bit, in the same dtypes."""
    assert g.n == h.n
    for name in ("row_ptr", "col_idx", "values"):
        x, y = getattr(g.adjacency, name), getattr(h.adjacency, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name
    for name in ("features", "sensitive", "labels"):
        x, y = getattr(g, name), getattr(h, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), name


def only_run_dir(out):
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) == 1
    return dirs[0]


@pytest.fixture
def text_loads(monkeypatch):
    """The edge list of every graph the CLI parses from text, in order."""
    calls = []
    parse = cli.load_graph
    monkeypatch.setattr(cli, "load_graph", lambda *a, **kw: calls.append(a[0]) or parse(*a, **kw))
    return calls


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
    def test_writes_four_files(self, tmp_path, capsys):
        out = gen_graph(tmp_path)
        assert sorted(p.name for p in out.iterdir()) == [
            "edges.txt", "graph.bin", "nodes.csv", "splits.json"]
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
        doc = read_json(out / "splits.json")
        assert doc["n"] == 60
        train, val, test = set(doc["train"]), set(doc["val"]), set(doc["test"])
        assert len(train | val | test) == len(train) + len(val) + len(test)
        assert (train | val | test) <= set(range(60))

    def test_deterministic_given_seed(self, tmp_path):
        a = gen_graph(tmp_path, "a")
        b = gen_graph(tmp_path, "b")
        for name in ("edges.txt", "nodes.csv", "splits.json", "graph.bin"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    @pytest.mark.parametrize("argv, digests", [
        (("--n", "200", "--seed", "0"), {
            "edges.txt": "653bf2fd66b5ef5c345f2cf3244c910752782a25e8f6a821a2ef14a501643012",
            "nodes.csv": "230738543289fc1e10a4d71c20ff1e860586882e35d8105a3e529135efbbea6f",
            "splits.json": "e47546ff0fea2eaae67c1806b96b9c906156e5714507b7385c6d692fb5eae5be",
            "graph.bin": "58df4d2326de18212e9321d587b39224bc461bb440b81dff61c9aab68f187f7e",
        }),
        ((), {
            "edges.txt": "dfd6024737c585233d7c9c0a5e13b5f5abbeb3f87ad7dcb5c1b4c7ff6eee4018",
            "nodes.csv": "8ec02bb15b50ac4a1ecd7e1ec6f861076433a5d97047f5c71badcfd75b02b8be",
            "splits.json": "732258546c2ffccfffac1440e6fcbcf8526953ee5a4c691dcb7db347a9a1eb16",
            "graph.bin": "db83d7d6d42cdc1b62f05bb331193ad7b9439891157c91b72fc6a84462727a3c",
        }),
        # Odd n and odd half.
        (("--n", "1031", "--seed", "3"), {
            "edges.txt": "f9fb504cd884473070fa7692de5c292da741bd85a7600956bdc480c91d0b07c3",
            "nodes.csv": "19127d9fae1505af46ba4a87955cfdb43532e91eec9f59f29988b1c6e15d24a1",
            "splits.json": "45d2dcb611dc19abe72b05a37235ce6ec09b2f42ab07d9fd310754315f9c30b5",
            "graph.bin": "b6e25b6b3db8fac984e44a11ce8cd87c815849434f4ed2972f4cfc8a7a6f41f4",
        }),
        # At the generator's thread crossover: its rows are sampled in one
        # range per usable core.
        (("--n", "5000", "--seed", "1"), {
            "edges.txt": "4f50cb5c7539e1c60d08160f512fcf25aab11ca85dc1166746b6804c78f3b3f2",
            "nodes.csv": "27441cb6fac95dd111d3e43b1061739dbad5972eae06525d0ee05aadddfc3fb8",
            "splits.json": "897b934a2a66bc71ee048a83ef4167270fad0369e10dca4ca4b0b3c68d914c52",
            "graph.bin": "df61197fb1bf6e85034295c014ddf47b3ffe48dc0a26946fd613a7f2a7215b88",
        }),
    ], ids=["n200-seed0", "default", "n1031-seed3", "n5000-seed1"])
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


def set_header_field(blob, offset, value):
    return blob[:offset] + struct.pack("<Q", value) + blob[offset + 8:]


class TestGraphTwin:
    """gen's graph.bin stands in for the text files only while it carries
    their digest: the graph read from it is the text's bit for bit, and
    every other twin gives way to the text."""

    @pytest.mark.parametrize("argv", [
        ("--n", "200", "--seed", "0"), (), ("--n", "1031", "--seed", "3"),
        ("--n", "5000", "--seed", "1"), ("--n", "300", "--dims", "2"),
        ("--n", "300", "--p-in", "0", "--p-out", "0"),
    ], ids=["n200-seed0", "default", "n1031-seed3", "n5000-seed1", "dims2", "edgeless"])
    def test_twin_holds_the_text_graph(self, tmp_path, argv):
        data = tmp_path / "data"
        assert run("gen", *argv, "--out", str(data)) == 0
        twin = load_twin(data / "graph.bin", digest_of(data))
        assert twin is not None
        assert_same_graph(twin, text_graph(data))

    def test_eig_and_train_write_the_same_bytes_without_it(self, tmp_path, text_loads):
        data, out = gen_graph(tmp_path), tmp_path / "runs"

        def outputs():
            assert run("eig", "--graph", str(data), "--k", "4") == 0
            sidecar = read_json(data / "basis.bin.json")
            del sidecar["seconds"]
            files = [sidecar, (data / "basis.bin").read_bytes()]
            for model in ("spectral", "propagation"):
                assert run("train", "--graph", str(data), "--model", model, "--epochs", "5",
                           "--hidden", "8", "--layers", "1", "--encode-dim", "4",
                           "--out", str(out / model)) == 0
                run_dir = only_run_dir(out / model)
                files += [(run_dir / name).read_bytes()
                          for name in ("settings.json", "history.json", "metrics.json")]
            return files

        with_twin = outputs()
        assert text_loads == []
        (data / "graph.bin").unlink()
        assert outputs() == with_twin
        assert len(text_loads) == 3

    @pytest.mark.parametrize("edit", [
        lambda b: None,
        lambda b: b[:-8],
        lambda b: b + bytes(8),
        lambda b: b[:20],
        lambda b: b"FSG0" + b[4:],
        lambda b: set_header_field(b, 44, struct.unpack_from("<Q", b, 44)[0] + 1),
        lambda b: b[:-8] + struct.pack("<q", 2),
    ], ids=["deleted", "truncated", "trailing", "header-cut", "magic", "sizes", "label-rejected"])
    def test_other_twins_give_way_to_the_text(self, tmp_path, text_loads, edit):
        # The header is the magic, the 32-byte digest, then n, d and nnz at
        # offsets 36, 44 and 52; the last 8 bytes are the last node's label.
        data = gen_graph(tmp_path)
        twin = data / "graph.bin"
        blob = edit(twin.read_bytes())
        if blob is None:
            twin.unlink()
        else:
            twin.write_bytes(blob)
        g, digest = cli._load_graph_dir(str(data))
        assert text_loads == [data / "edges.txt"]
        assert digest == digest_of(data)
        assert_same_graph(g, text_graph(data))
        assert run("eig", "--graph", str(data), "--k", "4") == 0
        assert run("train", "--graph", str(data), "--epochs", "3", "--hidden", "8",
                   "--layers", "1", "--encode-dim", "4", "--out", str(tmp_path / "runs")) == 0

    def test_stale_twin_gives_way_to_the_edited_text(self, tmp_path, text_loads):
        data, out = gen_graph(tmp_path), tmp_path / "runs"

        def trained():
            assert run("train", "--graph", str(data), "--model", "propagation",
                       "--epochs", "5", "--hidden", "8", "--out", str(out)) == 0
            return [(only_run_dir(out) / name).read_bytes()
                    for name in ("history.json", "metrics.json")]

        before = trained()
        node = read_json(data / "splits.json")["train"][0]
        lines = (data / "nodes.csv").read_text().splitlines(keepends=True)
        cells = lines[node + 1].rstrip("\n").split(",")
        cells[-1] = str(1 - int(cells[-1]))
        lines[node + 1] = ",".join(cells) + "\n"
        (data / "nodes.csv").write_text("".join(lines))
        g, _ = cli._load_graph_dir(str(data))
        assert g.labels[node] == int(cells[-1])
        assert_same_graph(g, text_graph(data))
        stale = trained()
        (data / "graph.bin").unlink()
        assert trained() == stale
        assert stale[0] != before[0]
        assert len(text_loads) == 3


class TestEig:
    def test_iterative_route_writes_basis_and_sidecar(self, tmp_path):
        data = gen_graph(tmp_path)
        out = tmp_path / "basis.bin"
        assert run("eig", "--graph", str(data), "--k", "4",
                   "--out", str(out)) == 0
        basis = load_basis(out)
        assert (basis.n, basis.k) == (60, 4)
        sidecar = read_json(out.with_suffix(".bin.json"))
        assert sidecar["method"] == "lanczos-topk"
        assert sidecar["mode"] == "sym"
        assert sidecar["graph"] == digest_of(data).hex()
        assert sidecar["basis"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert len(sidecar["eigenvalues"]) == 4
        assert sidecar["max_residual"] <= 1e-8
        assert sidecar["seconds"] > 0
        assert sidecar["matvecs"] >= 1 and sidecar["restarts"] >= 0
        assert 0 <= sidecar["reorthogonalized"] <= sidecar["matvecs"]

    def test_dense_route_truncates_to_k(self, tmp_path):
        data = gen_graph(tmp_path)
        out = tmp_path / "dense.bin"
        assert run("eig", "--graph", str(data), "--k", "5", "--dense",
                   "--out", str(out)) == 0
        sidecar = read_json(out.with_suffix(".bin.json"))
        assert sidecar["method"] == "dense-topk"
        assert sidecar["matvecs"] is None and sidecar["restarts"] is None
        assert sidecar["reorthogonalized"] is None
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
        # --k 3 computes the residuals of its 3 columns only.  The product
        # of 3 columns may sum in another order than the product of all 40,
        # so they agree with the first 3 of all 40 to rounding, not bits.
        g = load_graph(data / "edges.txt", data / "nodes.csv",
                       sensitive_column="sensitive", label_column="label")
        a = normalize(g, "sym").to_dense()
        written = read_json(top.with_suffix(".bin.json"))["max_residual"]
        assert written == float(eigen.full_dense_eigendecomposition(a, 3).residuals.max())
        assert abs(written - float(eigen.full_dense_eigendecomposition(a).residuals[:3].max())) <= 1e-15

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

    def test_dense_size_guard_is_numerical_failure(self, tmp_path, capsys,
                                                   graph_above_dense_limit):
        data = graph_above_dense_limit
        code = run("eig", "--graph", str(data), "--dense", "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert ("numerical failure: dense decomposition refused for n=2001 above the limit 2000"
                in capsys.readouterr().err)
        # The limit is not an option.
        with pytest.raises(SystemExit) as excinfo:
            run("eig", "--graph", str(data), "--dense", "--dense-limit", "3000",
                "--out", str(tmp_path / "x.bin"))
        assert excinfo.value.code == 1
        assert "unrecognized arguments: --dense-limit" in capsys.readouterr().err

    def test_dense_size_guard_refuses_before_densifying(self, tmp_path, capsys, monkeypatch,
                                                        graph_above_dense_limit):
        def to_dense(self):
            raise AssertionError("densified a graph above the dense limit")

        monkeypatch.setattr(CsrMatrix, "to_dense", to_dense)
        code = run("eig", "--graph", str(graph_above_dense_limit), "--dense",
                   "--out", str(tmp_path / "x.bin"))
        assert code == 2
        assert "numerical failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("n, extra, digest", [
        (200, (), "92896232883f9e8ff014e823af15de9286a96a8b6718fddf435ed24d963d8bcc"),
        (30, ("--dense",), "1c0d2897e3f9b26850b9b899ed5eae58702547e2c014e43b404497317f5b25bb"),
    ], ids=["lanczos-k8", "dense-n30"])
    def test_basis_bytes_are_frozen(self, tmp_path, n, extra, digest):
        # Dense problems of order <= 32 take the unblocked Householder steps
        # and one QL + inverse-iteration leaf, so a change to their rounding
        # changes the dense digest.  The Lanczos one moves with the window
        # size, with the tridiagonal solver (above 32 rows, divide and
        # conquer), with the restart's reduction of the arrowhead, with the
        # Gram-Schmidt passes, with the sparse product's summation order and
        # with where the operator's D^-1/2 is applied: to the vector before
        # and after the unit pattern's sums, not to each stored entry.
        # Its graph has many components: the semi-orthogonal solve misses
        # the convergence bound, so these are the bytes of the second solve,
        # orthogonalized in full.  Its eigenvalue 1 is 88-fold, and the
        # three copies returned lie inside that eigenspace.
        data = tmp_path / "data"
        assert run("gen", "--n", str(n), "--seed", "0", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "8", *extra) == 0
        assert hashlib.sha256((data / "basis.bin").read_bytes()).hexdigest() == digest

    def test_zero_threshold_writes_the_fully_orthogonalized_basis(self, tmp_path, monkeypatch):
        # With every estimate past the threshold, every step orthogonalizes
        # against the window, in one solve.  The lanczos-k8 graph's
        # semi-orthogonal solve misses the convergence bound and is redone
        # this way, so both write the same bytes; the default counts both
        # solves (176 + 176 matvecs, 12 + 176 orthogonalizing steps).
        data = tmp_path / "data"
        assert run("gen", "--n", "200", "--seed", "0", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "8") == 0
        both = read_json(data / "basis.bin.json")
        monkeypatch.setattr(eigen, "_SEMIORTHOGONAL", 0.0)
        assert run("eig", "--graph", str(data), "--k", "8") == 0
        assert (hashlib.sha256((data / "basis.bin").read_bytes()).hexdigest()
                == "92896232883f9e8ff014e823af15de9286a96a8b6718fddf435ed24d963d8bcc")
        sidecar = read_json(data / "basis.bin.json")
        assert sidecar["reorthogonalized"] == sidecar["matvecs"] == 176
        assert (both["matvecs"], both["restarts"], both["reorthogonalized"]) == (352, 8, 188)

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
        payload = read_json(out)
        assert len(payload["checks"]) == 3
        assert all(c["verdict"] for c in payload["checks"])

    def test_out_gets_the_json_and_stdout_the_summary(self, tmp_path, capsys):
        out = tmp_path / "f"
        assert run("analyze", "--check", "principal-limit", "--n", "30", "--out", str(out)) == 0
        assert [c["claim"] for c in read_json(out)["checks"]] == ["principal-limit"]
        assert capsys.readouterr().out.startswith("principal-limit: pass")

    def test_insufficient_depth_fails_verification(self, capsys):
        # Five steps cannot reach the limit, so the check runs cleanly but
        # its verdict is negative: exit 3, not an error code.
        assert run("analyze", "--check", "principal-limit",
                   "--n", "40", "--l-max", "5") == 3
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_check_is_usage_error(self):
        assert run("analyze", "--check", "bogus") == 1

    def test_size_guard_refuses_before_building_the_operator(self, capsys, monkeypatch):
        def build(*_):
            raise AssertionError("drew an n x n basis above the dense limit")
        monkeypatch.setattr(convergence, "_haar_orthogonal", build)
        assert run("analyze", "--check", "principal-limit", "--n", "2001") == 2
        assert ("dense decomposition refused for n=2001 above the limit 2000"
                in capsys.readouterr().err)

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

    # n is checked against every selected check's minimum before any runs,
    # so no check line comes before the error, and the error names --n.
    @pytest.mark.parametrize("argv, message", [
        (("--n", "2"), "--n must be at least 3 for degenerate-top-bound, got 2"),
        (("--check", "nonprincipal-decay", "--n", "1"),
         "--n must be at least 2 for nonprincipal-decay, got 1"),
    ], ids=["all-n2", "nonprincipal-decay-n1"])
    def test_n_below_a_checks_minimum_names_the_option(self, capsys, argv, message):
        assert run("analyze", *argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err


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
        settings = read_json(run_dir / "settings.json")
        assert settings["epochs"] == 25
        assert settings["model"] == "spectral"
        history = read_json(run_dir / "history.json")
        assert 1 <= history["epochs_run"] <= 25
        metrics = read_json(run_dir / "metrics.json")
        assert set(metrics) >= {"accuracy", "delta_sp", "delta_eo"}
        assert "test acc" in capsys.readouterr().out

    def test_propagation_model_runs(self, tmp_path):
        data = gen_graph(tmp_path)
        code, out = self.run_train(tmp_path, data, "--model", "propagation",
                                   "--steps", "5")
        assert code == 0
        settings = read_json(self.find_run_dir(out) / "settings.json")
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
        settings = read_json(self.find_run_dir(out) / "settings.json")
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
        settings = read_json(self.find_run_dir(out) / "settings.json")
        assert settings["epochs"] == 7

    def test_gen_eig_train_chain_with_default_paths(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run("gen", "--n", "60", "--p-in", "0.2", "--p-out", "0.05") == 0
        assert run("eig", "--k", "4") == 0
        assert (tmp_path / "data" / "basis.bin").is_file()
        assert run("train", "--epochs", "5", "--hidden", "8", "--layers", "1",
                   "--encode-dim", "4") == 0
        run_dir = self.find_run_dir(tmp_path / "runs")
        settings = read_json(run_dir / "settings.json")
        assert settings["basis"] == "data/basis.bin"
        assert "test acc" in capsys.readouterr().out

    @pytest.mark.parametrize("eig_args, train_args, history, metrics", [
        (("--k", "5"), ("--hidden", "8", "--layers", "1", "--encode-dim", "4"),
         "25e3ab8c4330dc6dfdbe40e7a5452a1b9aa993feee576d2f27339381bff2c717",
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

    def test_basis_of_another_graph_is_refused(self, tmp_path, capsys):
        # The two graphs have the same size and mode, so only the sidecar's
        # graph digest tells them apart, on either load path.
        data, out = tmp_path / "st", tmp_path / "runs"
        assert run("gen", "--n", "300", "--seed", "0", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "4") == 0
        assert run("gen", "--n", "300", "--seed", "1", "--out", str(data)) == 0
        for _ in range(2):
            capsys.readouterr()
            assert run("train", "--graph", str(data), "--epochs", "3", "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: basis sidecar") and "names graph" in err
            assert not out.exists()
            (data / "graph.bin").unlink(missing_ok=True)

    def test_basis_file_the_sidecar_does_not_name_is_refused(self, tmp_path, capsys):
        # A 6-pair sym basis copied over a 4-pair raw one: n, the mode and
        # the graph in the sidecar all match, and only its basis digest
        # tells the file apart.
        data, out = tmp_path / "st", tmp_path / "runs"
        assert run("gen", "--n", "300", "--seed", "0", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "4", "--mode", "raw") == 0
        other = tmp_path / "other.bin"
        assert run("eig", "--graph", str(data), "--k", "6", "--out", str(other)) == 0
        (data / "basis.bin").write_bytes(other.read_bytes())
        capsys.readouterr()
        assert run("train", "--graph", str(data), "--mode", "raw", "--epochs", "3",
                   "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: basis sidecar") and "names basis" in err
        assert not out.exists()

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
        ("gen", "--n", "30", "--noise-sd", "inf", "--out", "{tmp}/g"),
        ("eig", "--graph", "{data}", "--tol", "inf", "--out", "{tmp}/b.bin"),
        TRAIN + ("--lr", "inf"),
        TRAIN + ("--weight-decay", "inf"),
    ], ids=["gen-noise-sd", "eig-tol", "train-lr", "train-weight-decay",
            "gen-noise-sd-inf", "eig-tol-inf", "train-lr-inf", "train-weight-decay-inf"])
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
        payload = read_json(out)
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
        row = read_json(out)["results"][0]
        data, runs = tmp_path / "data", tmp_path / "runs"
        assert run("gen", "--n", "200", "--seed", "2", "--out", str(data)) == 0
        assert run("eig", "--graph", str(data), "--k", "3", "--seed", "2") == 0
        assert run("train", "--graph", str(data), "--seed", "2",
                   "--epochs", "8", "--out", str(runs)) == 0
        (run_dir,) = runs.iterdir()
        metrics = read_json(run_dir / "metrics.json")
        assert row["accuracy_mean"] == metrics["accuracy"]
        assert row["delta_sp_mean"] == metrics["delta_sp"]

    def test_undefined_gap_is_written_as_null(self, tmp_path):
        # At n=8 every seed's test split is one node, so one sensitive group
        # is empty and the parity gap undefined (NaN); the report is JSON.
        out = tmp_path / "ksweep.json"
        assert run("bench", "--n", "8", "--k-values", "1", "--seeds", "0,1,2",
                   "--epochs", "2", "--out", str(out)) == 0
        row = read_json(out)["results"][0]
        assert row["delta_sp_mean"] is None and row["delta_sp_sd"] is None

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
EDGE_TEXT = "\n".join(EDGE_LINES)
NODE_TEXT = "\n".join(",".join(r) for r in [NODE_HEADER] + NODE_ROWS) + "\n"
GRAPH_DIGEST = text_digest(EDGE_TEXT.encode(), NODE_TEXT.encode()).hex()

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
    (basis, an edit of the file's bytes that returns None for no file, the
    sidecar text as a function of the saved file's SHA-256 or None for no
    file, a part of the expected message)."""
    basis = SpectralBasis(np.array([1.0, 0.5]), np.eye(N_NODES)[:, :2])
    edit = lambda b: b
    sidecar = lambda digest: json.dumps({"mode": "sym", "graph": GRAPH_DIGEST, "basis": digest})
    messages = {
        "no-file": "missing basis file", "magic": "not an FSB1 file",
        "header": "truncated FSB1 header", "payload": "FSB1 payload has",
        "wrong-n": "the graph has 8 nodes",
        "no-pairs": "no eigenpairs", "non-finite": "non-finite value",
        "no-sidecar": "missing basis sidecar", "sidecar-junk": "basis sidecar",
        "sidecar-not-object": "not a JSON object", "sidecar-no-mode": "has mode None",
        "sidecar-mode": "basis sidecar",
        "sidecar-no-graph": "names graph None", "sidecar-other-graph": "names graph",
        "sidecar-no-basis": "names basis None", "sidecar-other-basis": "names basis",
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
        text = draw(st.text(alphabet="{}[]:,ab", max_size=6))
        sidecar = lambda digest: text
    elif kind == "sidecar-not-object":
        text = json.dumps(draw(NOT_JSON_OBJECT))
        sidecar = lambda digest: text
    elif kind == "sidecar-no-mode":
        sidecar = lambda digest: json.dumps({"n": N_NODES, "k": 2, "basis": digest})
    elif kind == "sidecar-mode":
        mode = draw(st.one_of(WORD, st.just("raw"), st.none()))
        sidecar = lambda digest: json.dumps({"mode": mode, "graph": GRAPH_DIGEST, "basis": digest})
    elif kind == "sidecar-no-graph":
        sidecar = lambda digest: json.dumps({"mode": "sym", "basis": digest})
    elif kind == "sidecar-other-graph":
        other = draw(st.binary(min_size=32, max_size=32).map(bytes.hex))
        graph = draw(st.sampled_from([other, other.upper(), GRAPH_DIGEST[:-1]]))
        sidecar = lambda digest: json.dumps({"mode": "sym", "graph": graph, "basis": digest})
    elif kind == "sidecar-no-basis":
        sidecar = lambda digest: json.dumps({"mode": "sym", "graph": GRAPH_DIGEST})
    else:
        # Another file's digest, or this one's in capitals or cut short.
        other = draw(st.binary(min_size=32, max_size=32).map(bytes.hex))
        change = draw(st.sampled_from([lambda h: other, str.upper, lambda h: h[:-1]]))
        sidecar = lambda digest: json.dumps({"mode": "sym", "graph": GRAPH_DIGEST,
                                             "basis": change(digest)})
    return basis, edit, sidecar, messages[kind]


def write_inputs(root, edges=None, nodes=None, splits=None):
    """Write the valid graph into root, with any given file text replacing its part."""
    root.mkdir(exist_ok=True)
    (root / "edges.txt").write_text(EDGE_TEXT if edges is None else edges)
    (root / "nodes.csv").write_text(NODE_TEXT if nodes is None else nodes)
    (root / "splits.json").write_text(json.dumps(SPLITS) if splits is None else splits)
    return root


@pytest.fixture(scope="module")
def valid_twin(tmp_path_factory):
    """The bytes of graph.bin for the valid graph."""
    root = write_inputs(tmp_path_factory.mktemp("valid"))
    save_twin(text_graph(root), root / "graph.bin", bytes.fromhex(GRAPH_DIGEST))
    return (root / "graph.bin").read_bytes()


class TestMalformedInputsExitCleanly:
    """Any malformed edge list, node table, split file, basis file or basis
    sidecar ends in exit 1 and an "error:" line on stderr, never a
    traceback, and a fresh twin of the valid graph beside it changes no
    message.  The examples rewrite every file in the same directory, so
    sharing tmp_path is safe."""

    def assert_usage_error(self, capsys, argv, twin):
        """Returns the error lines, which must be the same with twin, the
        valid graph's graph.bin, in the graph directory as without it."""
        twin_path = Path(argv[argv.index("--graph") + 1]) / "graph.bin"
        twin_path.write_bytes(twin)
        errors = self.error_lines(capsys, argv)
        twin_path.unlink()
        assert errors and self.error_lines(capsys, argv) == errors
        return errors

    def error_lines(self, capsys, argv):
        capsys.readouterr()
        assert main(argv) == 1
        return [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("error:")]

    def eig_argv(self, root):
        return ["eig", "--graph", str(root), "--k", "2", "--out", str(root / "basis.bin")]

    def train_argv(self, root):
        return ["train", "--graph", str(root), "--epochs", "1",
                "--hidden", "4", "--layers", "1", "--encode-dim", "4",
                "--out", str(root / "runs")]

    def test_valid_inputs_succeed(self, tmp_path, valid_twin, text_loads):
        root = write_inputs(tmp_path / "g")
        (root / "graph.bin").write_bytes(valid_twin)
        assert main(self.eig_argv(root)) == 0
        assert main(self.train_argv(root)) == 0
        assert text_loads == []
        (root / "graph.bin").unlink()
        assert main(self.eig_argv(root)) == 0
        assert main(self.train_argv(root)) == 0
        assert len(text_loads) == 2

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_edge_lists())
    def test_edge_list(self, tmp_path, capsys, valid_twin, edges):
        root = write_inputs(tmp_path / "g", edges=edges)
        self.assert_usage_error(capsys, self.eig_argv(root), valid_twin)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_node_tables())
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_node_table(self, tmp_path, capsys, valid_twin, nodes):
        root = write_inputs(tmp_path / "g", nodes=nodes)
        self.assert_usage_error(capsys, self.eig_argv(root), valid_twin)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_split_files())
    def test_split_file(self, tmp_path, capsys, valid_twin, splits):
        root = write_inputs(tmp_path / "g", splits=splits)
        self.assert_usage_error(capsys, self.train_argv(root), valid_twin)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad_basis_files())
    def test_basis_file(self, tmp_path, capsys, valid_twin, case):
        basis, edit, sidecar, message = case
        root = write_inputs(tmp_path / "g")
        path, side = root / "basis.bin", root / "basis.bin.json"
        save_basis(basis, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        data = edit(path.read_bytes())
        if data is None:
            path.unlink()
        else:
            path.write_bytes(data)
        side.unlink(missing_ok=True)
        if sidecar is not None:
            side.write_text(sidecar(digest))
        assert message in self.assert_usage_error(capsys, self.train_argv(root), valid_twin)[0]

