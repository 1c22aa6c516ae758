"""Command-line entry point.

Subcommands:

* ``gen``: sample a synthetic two-block graph and write it as plain files,
  then ``graph.bin``, a binary twin of the graph's text (_load_graph_dir).
* ``eig``: compute a truncated eigenbasis of a graph operator, with timing,
  and write it with a JSON sidecar.
* ``analyze``: run the numerical verification suite for the convergence
  claims and report verdicts.
* ``train``: fit the spectral model on the basis ``eig`` wrote, or the
  propagation model, and report accuracy and fairness gaps on the held-out
  split.
* ``bench``: compute a basis and train as ``train`` does at several basis
  sizes and compare fairness across them.

The basis file of ``eig --out`` and ``train --basis`` defaults to
``<graph>/basis.bin``, so ``gen --out data``, ``eig --graph data`` and
``train --graph data`` chain with no other paths.

Exit codes: 0 success, 1 usage or input error, 2 numerical failure
(non-convergence, divergence, size guard), 3 verification failure (a claim
check ran fine but its verdict is negative).

Every subcommand accepts ``--config FILE`` pointing at an INI file whose
section of the same name supplies defaults; explicit flags win.  Outputs of
``train`` land in a per-run directory named by a digest of the resolved
settings and the basis file's bytes, so re-running the same configuration
overwrites its own results and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    COMMAND_OPTIONS,
    ConfigError,
    load_config_file,
    parse_bool,
    resolve_settings,
    run_digest,
)
from .convergence import (
    GenerationError,
    verify_decay_rate,
    verify_degenerate_top_bound,
    verify_principal_limit,
)
from .eigen import (
    DenseLimitError,
    NoConvergenceError,
    SpectralBasis,
    check_dense_limit,
    full_dense_eigendecomposition,
    load_basis,
    save_basis,
    top_k_eigenpairs,
)
from .graph import (
    Graph,
    GraphFormatError,
    SbmConfig,
    SplitMasks,
    generate_sbm,
    load_graph,
    load_twin,
    make_splits,
    normalize,
    save_twin,
    text_digest,
)
from .metrics import FairnessReport, evaluate, report_json
from .model import (
    forward_propagation,
    forward_spectral,
    init_propagation_params,
    init_spectral_params,
    propagate_features,
)
from .train import TrainConfig, TrainHistory, TrainingDivergedError, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

_EDGE_FILE = "edges.txt"
_NODE_FILE = "nodes.csv"
_SPLIT_FILE = "splits.json"
_BASIS_FILE = "basis.bin"
_TWIN_FILE = "graph.bin"


class CliError(Exception):
    """Input or usage problem surfaced to the user without a traceback."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairspectral",
        description="Fairness-aware spectral graph learning toolkit.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in COMMAND_OPTIONS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", default=None, help="INI file with defaults")
        for opt in options:
            if opt.type is parse_bool:
                p.add_argument(opt.flag, dest=opt.name, action="store_const",
                               const=True, default=None, help=opt.help)
            else:
                p.add_argument(opt.flag, dest=opt.name, type=opt.type,
                               default=None, help=opt.help)
    return parser


def _settings(args: argparse.Namespace) -> dict:
    file_values = None
    if args.config is not None:
        file_values = load_config_file(args.config).get(args.command)
    cli_values = {
        opt.name: getattr(args, opt.name) for opt in COMMAND_OPTIONS[args.command]
    }
    return resolve_settings(args.command, cli_values, file_values)


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _load_graph_dir(path: str) -> tuple[Graph, bytes]:
    """The graph in directory path and the text_digest of its text files.
    gen's twin of the text is read in their place only while it carries
    their digest and passes the graph checks; else the text is parsed."""
    root = Path(path)
    edges = root / _EDGE_FILE
    nodes = root / _NODE_FILE
    for p in (edges, nodes):
        if not p.is_file():
            raise CliError(f"missing graph file: {p}")
    digest = text_digest(edges.read_bytes(), nodes.read_bytes())
    g = load_twin(root / _TWIN_FILE, digest)
    if g is None:
        g = load_graph(edges, nodes, sensitive_column="sensitive", label_column="label")
    return g, digest


def _basis_path(s: dict, key: str) -> Path:
    """The basis file that setting key names, by default the graph's."""
    return Path(s[key] or Path(s["graph"]) / _BASIS_FILE)


def _sidecar_path(basis_path: Path) -> Path:
    return basis_path.with_suffix(basis_path.suffix + ".json")


def _read_basis(path: Path, g: Graph, digest: bytes, mode: str) -> tuple[SpectralBasis, bytes]:
    """The basis eig wrote to path for the operator in mode of g, whose text
    has digest, and the bytes of the file, which its sidecar must name."""
    if not path.is_file():
        raise CliError(f"missing basis file: {path} (eig writes it)")
    basis, content = load_basis(path), path.read_bytes()
    if basis.n != g.n:
        raise CliError(f"basis file {path} has n={basis.n}, the graph has {g.n} nodes")
    sidecar = _sidecar_path(path)
    if not sidecar.is_file():
        raise CliError(f"missing basis sidecar: {sidecar}")
    try:
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise CliError(f"basis sidecar {sidecar} is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CliError(f"basis sidecar {sidecar} is not a JSON object")
    if meta.get("mode") != mode:
        raise CliError(f"basis sidecar {sidecar} has mode {meta.get('mode')!r}, not {mode!r}")
    if meta.get("graph") != digest.hex():
        raise CliError(f"basis sidecar {sidecar} names graph {meta.get('graph')!r}, "
                       f"not this graph's {digest.hex()!r}: run eig again")
    if meta.get("basis") != hashlib.sha256(content).hexdigest():
        raise CliError(f"basis sidecar {sidecar} names basis {meta.get('basis')!r}, "
                       f"not the digest of {path}: run eig again")
    return basis, content


def _cmd_gen(s: dict) -> int:
    cfg = SbmConfig(
        n=s["n"], p_in=s["p_in"], p_out=s["p_out"],
        sensitive_homophily=s["homophily"], label_bias=s["label_bias"],
        d=s["dims"], noise_sd=s["noise_sd"], seed=s["seed"],
    )
    g = generate_sbm(cfg)
    splits = make_splits(g, seed=s["seed"])
    root = Path(s["out"])
    root.mkdir(parents=True, exist_ok=True)

    a = g.adjacency
    rows = a.row_indices()
    upper = rows < a.col_idx
    # Python ints and floats from tolist() format faster than numpy scalars,
    # to the same text; one format call writes every "u v" line.
    ids = np.stack([rows[upper], a.col_idx[upper]], axis=1).ravel().tolist()
    edge_text = ("%d %d\n" * (len(ids) // 2) % tuple(ids)).encode()

    d = g.features.shape[1]
    header = ",".join(["sensitive"] + [f"x{i}" for i in range(1, d)] + ["label"])
    body = [
        ",".join([str(sens), *map(repr, noise), str(label)])
        for sens, noise, label in zip(g.sensitive.tolist(), g.features[:, 1:].tolist(),
                                      g.labels.tolist())
    ]
    node_text = ("\n".join([header] + body) + "\n").encode()
    (root / _EDGE_FILE).write_bytes(edge_text)
    (root / _NODE_FILE).write_bytes(node_text)
    _write(root / _SPLIT_FILE, splits.to_json() + "\n")
    # Last, so that a gen cut short leaves a twin that is stale or absent.
    save_twin(g, root / _TWIN_FILE, text_digest(edge_text, node_text))

    print(f"wrote {g.n} nodes, {g.edge_count // 2} edges to {root}")
    return EXIT_OK


def _cmd_eig(s: dict) -> int:
    g, digest = _load_graph_dir(s["graph"])
    if not 1 <= s["k"] <= g.n:
        raise CliError(f"k must be in [1, {g.n}], got {s['k']}")
    op = normalize(g, s["mode"])
    t0 = time.perf_counter()
    if s["dense"]:
        check_dense_limit(op.n)  # before to_dense allocates n^2 floats
        basis = full_dense_eigendecomposition(op.to_dense(), s["k"])
        method = "dense-full" if basis.k == op.n else "dense-topk"
    else:
        basis = top_k_eigenpairs(op, s["k"], tol=s["tol"], seed=s["seed"])
        method = "lanczos-topk"
    elapsed = time.perf_counter() - t0

    out = _basis_path(s, "out")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_basis(basis, out)
    sidecar = {
        "n": basis.n,
        "k": basis.k,
        "mode": s["mode"],
        "graph": digest.hex(),
        "basis": hashlib.sha256(out.read_bytes()).hexdigest(),
        "method": method,
        "seconds": elapsed,
        "eigenvalues": [float(v) for v in basis.eigenvalues],
        "max_residual": (None if basis.residuals is None
                         else float(np.max(basis.residuals))),
        "matvecs": basis.matvecs,
        "restarts": basis.restarts,
        "reorthogonalized": basis.reorthogonalized,
    }
    _write(_sidecar_path(out), report_json(sidecar, sort_keys=False) + "\n")
    print(f"{method}: {basis.k} pairs of n={basis.n} in {elapsed:.3f}s -> {out}")
    return EXIT_OK


_CHECK_RUNNERS = {
    "principal-limit": lambda s: verify_principal_limit(
        n=s["n"], l_max=s["l_max"], seed=s["seed"]),
    "degenerate-top-bound": lambda s: verify_degenerate_top_bound(
        n=s["n"], l_max=min(s["l_max"], 120), seed=s["seed"]),
    "nonprincipal-decay": lambda s: verify_decay_rate(n=s["n"], seed=s["seed"]),
}

# The smallest --n each check is defined at: degenerate-top-bound plants a
# 2-fold top eigenvalue and needs one below it, and nonprincipal-decay fits
# the component at index 1.
_CHECK_MIN_N = {"principal-limit": 1, "degenerate-top-bound": 3, "nonprincipal-decay": 2}


def _cmd_analyze(s: dict) -> int:
    if s["check"] == "all":
        names = list(_CHECK_RUNNERS)
    elif s["check"] in _CHECK_RUNNERS:
        names = [s["check"]]
    else:
        raise CliError(
            f"check must be one of {', '.join(_CHECK_RUNNERS)} or all, got {s['check']!r}"
        )
    for name in names:
        if s["n"] < _CHECK_MIN_N[name]:
            raise CliError(f"--n must be at least {_CHECK_MIN_N[name]} for {name}, got {s['n']}")
    reports = []
    for name in names:
        report = _CHECK_RUNNERS[name](s)
        reports.append(report)
        print(f"{name}: {'pass' if report.verdict else 'FAIL'} (gap {report.gap:.3e})")
    if s["out"]:
        payload = {"checks": [r.to_dict() for r in reports]}
        _write(Path(s["out"]), report_json(payload, sort_keys=True) + "\n")
    return EXIT_OK if all(r.verdict for r in reports) else EXIT_VERIFICATION


def _fit(g: Graph, splits: SplitMasks, s: dict,
         basis: SpectralBasis | None) -> tuple[TrainHistory, FairnessReport]:
    """Train the model that the train settings s describe on g's splits,
    and for the spectral model on basis; returns the history and the
    test-split report."""
    if s["model"] not in ("spectral", "propagation"):
        raise CliError(f"model must be spectral or propagation, got {s['model']!r}")
    rng = np.random.default_rng(s["seed"])
    if s["model"] == "spectral":
        params = init_spectral_params(
            rng, g.features.shape[1], s["hidden"], 2,
            s["layers"], s["encode_dim"], s["heads"],
        )
        forward = lambda p: forward_spectral(p, basis, g.features)
    else:
        params = init_propagation_params(rng, g.features.shape[1], s["hidden"], 2)
        propagated = propagate_features(normalize(g, s["mode"]), g.features,
                                        s["steps"], s["theta"])
        forward = lambda p: forward_propagation(p, propagated)
    history = train(
        params, forward, g.labels, g.sensitive, splits.train, splits.val,
        TrainConfig(max_epochs=s["epochs"], lr=s["lr"],
                    weight_decay=s["weight_decay"], patience=s["patience"]),
    )
    return history, evaluate(forward(params).value, g.labels, g.sensitive, splits.test)


def _cmd_train(s: dict) -> int:
    g, digest = _load_graph_dir(s["graph"])
    split_path = Path(s["graph"]) / _SPLIT_FILE
    if not split_path.is_file():
        raise CliError(f"missing split file: {split_path}")
    splits = SplitMasks.from_json(split_path.read_text(), g.n)
    path = _basis_path(s, "basis")
    s = {**s, "basis": str(path)}
    basis, content = None, b""
    if s["model"] == "spectral":
        basis, content = _read_basis(path, g, digest, s["mode"])
    t0 = time.perf_counter()
    history, report = _fit(g, splits, s, basis)
    elapsed = time.perf_counter() - t0

    run_dir = Path(s["out"]) / f"run-{run_digest('train', s, content)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    _write(run_dir / "settings.json", report_json(s, sort_keys=True) + "\n")
    _write(run_dir / "history.json", history.to_json() + "\n")
    _write(run_dir / "metrics.json", report.to_json() + "\n")
    print(
        f"{s['model']}: test acc {report.accuracy:.4f}, "
        f"sp gap {report.delta_sp:.4f}, eo gap {report.delta_eo:.4f} "
        f"({history.epochs_run} epochs, {elapsed:.1f}s) -> {run_dir}"
    )
    return EXIT_OK


def _int_list(text: str, what: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise CliError(f"{what} must be comma-separated integers: {text!r}") from exc
    if not values:
        raise CliError(f"{what} is empty")
    return values


def _cmd_bench(s: dict) -> int:
    k_values = _int_list(s["k_values"], "k_values")
    seeds = _int_list(s["seeds"], "seeds")
    runs = []
    for seed in seeds:
        g = generate_sbm(SbmConfig(n=s["n"], seed=seed))
        train_settings = resolve_settings("train", {"seed": seed, "epochs": s["epochs"]})
        runs.append((g, make_splits(g, seed=seed), normalize(g, train_settings["mode"]),
                     train_settings))
    results = []
    for k in k_values:
        accs, sps = [], []
        for g, splits, op, train_settings in runs:
            basis = top_k_eigenpairs(op, k, seed=train_settings["seed"])
            _, rep = _fit(g, splits, train_settings, basis)
            accs.append(rep.accuracy)
            sps.append(rep.delta_sp)
        results.append({
            "k": k,
            "accuracy_mean": float(np.mean(accs)),
            "accuracy_sd": float(np.std(accs)),
            "delta_sp_mean": float(np.mean(sps)),
            "delta_sp_sd": float(np.std(sps)),
            "seeds": seeds,
        })
        print(f"k={k}: acc {results[-1]['accuracy_mean']:.4f}"
              f" +- {results[-1]['accuracy_sd']:.4f},"
              f" sp gap {results[-1]['delta_sp_mean']:.4f}"
              f" +- {results[-1]['delta_sp_sd']:.4f}")
    if s["out"]:
        payload = {"n": s["n"], "results": results}
        _write(Path(s["out"]), report_json(payload, sort_keys=False) + "\n")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "eig": _cmd_eig,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which here means numerical failure.
        raise SystemExit(EXIT_USAGE if exc.code == 2 else exc.code) from None
    try:
        settings = _settings(args)
        return _COMMANDS[args.command](settings)
    except (NoConvergenceError, DenseLimitError, TrainingDivergedError,
            GenerationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (CliError, ConfigError, GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
