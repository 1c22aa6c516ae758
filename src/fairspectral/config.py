"""Option declarations shared by the command line and the config file.

Every subcommand's options are declared once here.  The CLI builds its
argument parser from these declarations, and an INI config file can supply
defaults for any of them under a section named after the subcommand.
Precedence: explicit command-line flag, then config-file value, then the
built-in default.  Unknown sections or keys in a config file are rejected
outright; a silently ignored typo in a config is worse than an error.

A run is identified by a short digest of its fully resolved settings and of
the basis file it reads, so two invocations with the same effective
configuration land in the same output directory and different
configurations can never collide silently.
"""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "ConfigError",
    "Option",
    "COMMAND_OPTIONS",
    "parse_bool",
    "load_config_file",
    "resolve_settings",
    "run_digest",
]


class ConfigError(ValueError):
    """Malformed config file, unknown key, or unparsable value."""


def parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Option:
    """One tunable: its flag name, value type, default, and help text."""

    name: str
    type: Callable[[str], Any]
    default: Any
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _opts(*options: Option) -> tuple[Option, ...]:
    names = [o.name for o in options]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate option names: {names}")
    return options


COMMAND_OPTIONS: dict[str, tuple[Option, ...]] = {
    "gen": _opts(
        Option("n", int, 2000, "number of nodes"),
        Option("p_in", float, 0.01, "within-block edge probability"),
        Option("p_out", float, 0.001, "between-block edge probability"),
        Option("homophily", float, 0.9, "P(sensitive attribute matches block)"),
        Option("label_bias", float, 0.9, "P(label matches planted signal)"),
        Option("dims", int, 8, "feature columns, the sensitive column included"),
        Option("noise_sd", float, 1.0, "feature noise scale"),
        Option("seed", int, 0, "generator seed"),
        Option("out", str, "data", "output directory"),
    ),
    "eig": _opts(
        Option("graph", str, "data", "directory with edges.txt and nodes.csv"),
        Option("k", int, 8, "number of largest-magnitude eigenpairs"),
        Option("mode", str, "sym", "operator mode: sym or raw"),
        Option("dense", parse_bool, False,
               "use the dense reference solver; refuses graphs above 2000 nodes"),
        Option("tol", float, 1e-10, "iterative residual tolerance"),
        Option("seed", int, 0, "start-vector seed for the iterative route"),
        Option("out", str, "", "output basis file (default: <graph>/basis.bin)"),
    ),
    "analyze": _opts(
        Option("check", str, "all",
               "principal-limit, degenerate-top-bound, nonprincipal-decay, or all"),
        Option("n", int, 100, "synthetic operator size"),
        Option("l_max", int, 200,
               "largest convolution depth: principal-limit runs to l_max, "
               "degenerate-top-bound to min(l_max, 120); nonprincipal-decay "
               "fits l = 1..30 and ignores it"),
        Option("seed", int, 0, "instance seed"),
        Option("out", str, "", "JSON report file; stdout always gets the summary lines"),
    ),
    "train": _opts(
        Option("graph", str, "data", "directory with edges.txt, nodes.csv, splits.json"),
        Option("model", str, "spectral", "spectral or propagation"),
        Option("basis", str, "",
               "basis file from eig for the spectral model (default: <graph>/basis.bin)"),
        Option("mode", str, "sym", "operator mode: sym or raw"),
        Option("hidden", int, 16, "hidden width"),
        Option("layers", int, 2, "convolution layers (spectral model)"),
        Option("encode_dim", int, 8, "eigenvalue encoding width"),
        Option("heads", int, 2, "attention heads"),
        Option("steps", int, 10, "propagation steps (propagation model)"),
        Option("theta", float, 0.1, "restart weight (propagation model)"),
        Option("epochs", int, 1000, "maximum epochs"),
        Option("lr", float, 0.01, "learning rate"),
        Option("weight_decay", float, 5e-4, "L2 strength"),
        Option("patience", int, 100, "early-stopping patience"),
        Option("seed", int, 0, "init seed"),
        Option("out", str, "runs", "parent directory for run outputs"),
    ),
    "bench": _opts(
        Option("n", int, 2000, "generated graph size"),
        Option("k_values", str, "1,2,4,8", "comma-separated K list"),
        Option("seeds", str, "0,1,2", "comma-separated seed list"),
        Option("epochs", int, 300, "training epochs per run"),
        Option("out", str, "", "JSON report file; stdout always gets the summary lines"),
    ),
}


def load_config_file(path: str) -> dict[str, dict[str, str]]:
    """Parse an INI config; validate sections and keys against the schema."""
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        out = {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for section, values in out.items():
        if section not in COMMAND_OPTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        known = {o.name for o in COMMAND_OPTIONS[section]}
        for key in values:
            if key not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return out


def resolve_settings(
    command: str,
    cli_values: dict[str, Any],
    file_values: dict[str, str] | None = None,
) -> dict[str, Any]:
    """Merge CLI flags over config-file values over built-in defaults.

    ``cli_values`` uses None for flags the user did not pass, which is how
    the parser is configured; a None therefore always defers downward.
    """
    options = COMMAND_OPTIONS[command]
    file_values = file_values or {}
    resolved: dict[str, Any] = {}
    for opt in options:
        cli = cli_values.get(opt.name)
        if cli is not None:
            resolved[opt.name] = cli
        elif opt.name in file_values:
            try:
                resolved[opt.name] = opt.type(file_values[opt.name])
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for {opt.name!r} in section [{command}]: {exc}"
                ) from exc
        else:
            resolved[opt.name] = opt.default
    return resolved


def run_digest(command: str, settings: dict[str, Any], content: bytes = b"") -> str:
    """Twelve hex characters identifying one resolved configuration and the
    content of the input file it reads beyond its graph, if any."""
    h = hashlib.sha256()
    h.update(command.encode())
    for key in sorted(settings):
        h.update(f"\n{key}={settings[key]!r}".encode())
    h.update(content)
    return h.hexdigest()[:12]
