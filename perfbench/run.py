#!/usr/bin/env python3
"""fairspectral benchmark: three workloads, each one process, timed from
outside the package.

    python3 perfbench/run.py --workload sbm20k-lanczos --seed 0 --seconds 45 --trace 0

A run sets up twice before each round and runs whole rounds of the
workload's operations until one more round, as long as the longest so far,
would end past --seconds (always at least one).  Inputs come from --seed;
each round draws its graph from --seed and the round's index.  An
operation is one CLI or API call plus the check of its output by
``oracles``; a non-zero exit, an exception or a failed check counts it as
failed and the round goes on.  Times are scaled to a fixed host speed by a
yardstick (see ``Yardstick``).  The last line of stdout is the result, one
JSON object; the line before it records the environment.  With --trace 1,
untraced rounds fill the first half of the time and traced rounds, whose
spans give the per-layer figures (see ``tracing``), the rest.  Records and
spans go to perfbench/out/.
"""
import os

# Fixed before numpy loads so every run uses the same BLAS thread count.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
SETUPS_PER_ROUND = 2
K = 8


def cli_op(key, name, cli, argv, check):
    """One CLI operation: (metric, name, call, check); call returns the exit
    code, and the output is checked only after a zero exit."""
    def verify(rc):
        return [f"exit code {rc}"] if rc != 0 else check()
    return key, name, (lambda: cli.main(argv)), verify


def gen_op(fs, d, n, p_in, p_out, seed, extra=()):
    return cli_op("gen_s", "gen", fs.cli,
                  ["gen", "--n", str(n), *extra, "--seed", str(seed), "--out", str(d)],
                  lambda: fs.oracles.check_graph(d, n, p_in, p_out))


def eig_op(fs, d, n, refs, dense=False):
    basis = d / "basis.bin"
    return cli_op("eig_s", "eig_dense" if dense else "eig", fs.cli,
                  ["eig", "--graph", str(d), *(["--dense"] if dense else []), "--k", str(K),
                   "--out", str(basis)],
                  lambda: fs.oracles.check_eig_output(basis, d, n, K, refs))


class Sbm20kLanczos:
    """20000-node SBM: gen, eig (Lanczos), then Lanczos twice on the
    weighted random graph of acceptance criterion 10."""

    name = "sbm20k-lanczos"
    n, p_in, p_out = 20000, 0.002, 0.0002

    def prepare(self, fs, seed):
        # The random graph is criterion 10's fixed instance (rng 1010): its
        # near-tied +-7.61 top pair is the hard spectrum this op exists for.
        np = fs.np
        rng = np.random.default_rng(1010)
        n = self.n
        u = rng.integers(0, n, 4 * n)
        v = rng.integers(0, n, 4 * n)
        keep = u != v
        u, v = u[keep], v[keep]
        w = rng.standard_normal(u.shape[0])
        big = fs.sparse.csr_from_edges(n, np.concatenate([u, v]), np.concatenate([v, u]),
                                       np.concatenate([w, w]))
        return {"big": big, "oracle": fs.oracles.weighted_operator(u, v, w, n)}

    def operations(self, fs, state, seed, d, refs):
        yield gen_op(fs, d, self.n, self.p_in, self.p_out, seed,
                     ("--p-in", str(self.p_in), "--p-out", str(self.p_out)))
        yield eig_op(fs, d, self.n, refs)
        # Two identical calls: the documented determinism for a fixed seed is
        # checked on the way.
        first = []
        for _ in range(2):
            yield ("task_s", "lanczos_random",
                   lambda: fs.eigen.top_k_eigenpairs(state["big"], K, seed=0),
                   lambda b: self._check_random(fs, state, b, first))

    @staticmethod
    def _check_random(fs, state, basis, first: list) -> list[str]:
        errors = fs.oracles.check_basis(basis.eigenvalues, basis.eigenvectors,
                                        state["oracle"], K, sym=False)
        if not first:
            first.append(basis)
        elif not (fs.np.array_equal(basis.eigenvalues, first[0].eigenvalues)
                  and fs.np.array_equal(basis.eigenvectors, first[0].eigenvectors)):
            errors.append("determinism: repeated call with the same seed differs")
        return errors


class Sbm2kTrain:
    """Default 2000-node SBM: gen, eig, then both models trained."""

    name = "sbm2k-train"
    n, p_in, p_out = 2000, 0.01, 0.001
    # A fixed, short epoch count: the default patience of 100 cannot stop a
    # 30-epoch run, so the work does not depend on the seed (under early
    # stopping the propagation model ran 118 to 171 epochs over six seeds),
    # and a round is short enough for several rounds per run.
    epochs, patience = 30, 100

    def prepare(self, fs, seed):
        return {}

    def operations(self, fs, state, seed, d, refs):
        for _ in range(5):
            yield gen_op(fs, d, self.n, self.p_in, self.p_out, seed)
        for _ in range(3):
            yield eig_op(fs, d, self.n, refs)
        for model in ("spectral", "propagation"):
            out = d / model
            argv = ["train", "--graph", str(d), "--model", model, "--epochs", str(self.epochs),
                    "--seed", str(seed), "--out", str(out)]
            for _ in range(2 if model == "spectral" else 1):
                yield cli_op("task_s", "train_" + model, fs.cli, argv,
                             lambda out=out: fs.oracles.check_train(
                                 _only_run_dir(out), d, self.epochs, self.patience))


class DenseReference:
    """400-node SBM: gen, eig --dense, and the convergence lab."""

    name = "dense-reference"
    # n=400 keeps a dense decomposition near 1 s, so a round (gen, the two
    # decompositions of eig --dense, analyze) repeats about eight times per
    # run and every metric is sampled over the whole run.
    n, p_in, p_out = 400, 0.01, 0.001

    def prepare(self, fs, seed):
        return {}

    def operations(self, fs, state, seed, d, refs):
        report = d / "analyze.json"
        for _ in range(5):
            yield gen_op(fs, d, self.n, self.p_in, self.p_out, seed)
        yield eig_op(fs, d, self.n, refs, dense=True)
        yield cli_op("task_s", "analyze", fs.cli,
                     ["analyze", "--n", "300", "--seed", str(seed), "--out", str(report)],
                     lambda: fs.oracles.check_analyze(report))


WORKLOADS = {w.name: w for w in (Sbm20kLanczos(), Sbm2kTrain(), DenseReference())}
ROUND_METRICS = ("gen_s", "eig_s", "task_s")
# The yardstick's time at the host speed the time metrics are scaled to.
YARDSTICK_REF_S = 0.023


class Yardstick:
    """A fixed piece of work in the benchmark's own code, numpy only, run
    right before and right after every timed call and set-up to measure
    how fast the host is.  Each round's calls are scaled by the median of
    the round's yardstick times.

    This host's speed drifts: the same eig call took 0.38 s and, seconds
    later, 0.22 s, and a whole workload ran 20% faster in one run than in
    the next.  Scaling each call by only its own two yardstick times
    followed the host well for short calls but poorly for calls of several
    seconds, during which the speed moves.

    The parts mirror the program's kinds of work: a gather and segmented
    sum as in a CSR product, a loop of small dense numpy calls as in
    Lanczos and the dense solver, plain interpreter work as in autodiff,
    and bulk random draws as in the generator.  Buffers are allocated once,
    so the yardstick adds a fixed 11 MB to the peak RSS and no allocation
    noise to its time."""

    def __init__(self, np):
        rng = np.random.default_rng(7)
        self.np, self.rng = np, rng
        self.idx = rng.integers(0, 200_000, 400_000)
        self.x = rng.standard_normal(200_000)
        self.gathered = np.empty(400_000)
        self.starts = np.arange(0, 400_000, 20)
        self.a = rng.standard_normal((300, 300))
        self.v = rng.standard_normal(300)
        self.draws = np.empty(250_000)
        self.hits = np.empty(250_000, dtype=bool)
        self.samples: list = []

    def __call__(self) -> float:
        """Runs the work once; returns its time."""
        np = self.np
        t0 = time.perf_counter()
        for _ in range(3):
            np.take(self.x, self.idx, out=self.gathered)
            np.add.reduceat(self.gathered, self.starts)
        v = self.v
        for _ in range(300):
            v = self.a @ v
            v = v / np.linalg.norm(v)
        total = 0
        for i in range(80_000):
            total += i * i
        for _ in range(6):
            self.rng.random(out=self.draws)
            np.less(self.draws, 0.01, out=self.hits)
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def timed(self, call):
        """Runs call() between two yardstick runs; returns (result or
        exception, seconds)."""
        self()
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception as exc:   # the caller reports it
            result = exc
        elapsed = time.perf_counter() - t0
        self()
        return result, elapsed


def figures(log: list, field: str = "scaled") -> dict:
    """Each metric: the sum, over the operations feeding it, of the time
    per call, taken as the median of the op's calls within each round and
    then the mean over the rounds.  Rounds run back to back, so the mean
    weighs every stretch of the run alike; the median within a round keeps
    a stray slow call of a short op from moving the figure.  First calls
    count too: every CLI invocation a user makes starts in a fresh process
    and pays them."""
    calls: dict = {}
    for entry in log:
        rounds = calls.setdefault((entry["metric"], entry["op"]), {})
        rounds.setdefault(entry["round"], []).append(entry[field])
    out = dict.fromkeys(ROUND_METRICS, 0.0)
    for (key, _), rounds in calls.items():
        out[key] += statistics.fmean(statistics.median(t) for t in rounds.values())
    return out


def _only_run_dir(parent: Path) -> Path:
    runs = sorted(parent.glob("run-*"))
    if len(runs) != 1:
        raise RuntimeError(f"expected one run directory under {parent}, found {len(runs)}")
    return runs[0]


IMPORT_PROBE = "import numpy, fairspectral; from fairspectral import cli, eigen, sparse"


def import_in_child() -> None:
    """Starts a fresh interpreter that imports numpy and fairspectral, as
    every CLI invocation does, and waits for it to exit."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, timeout=60, check=True)


def load_package() -> types.SimpleNamespace:
    """Import numpy and fairspectral from this checkout."""
    if not (SRC / "fairspectral" / "__init__.py").is_file():
        raise SystemExit(f"error: no fairspectral sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import fairspectral
    from fairspectral import cli, eigen, sparse
    if Path(fairspectral.__file__).resolve().parent != (SRC / "fairspectral").resolve():
        raise SystemExit(f"error: fairspectral imported from {fairspectral.__file__}")
    sys.path.insert(0, str(BENCH))
    import oracles
    return types.SimpleNamespace(np=numpy, cli=cli, eigen=eigen, sparse=sparse, oracles=oracles)


def environment(fs) -> dict:
    blas = fs.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": fs.np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def round_seed(seed: int, index: int, trace: int) -> int:
    """The seed of one round's graph and training.  Each untraced round
    draws a new graph from the run's seed, so a figure averages the
    Lanczos work of several graphs instead of following one (the 20000-node
    eig took 736 to 826 matvecs over five graphs).  Every round of
    a traced run uses the first, so per-layer counts repeat exactly."""
    return seed * 1000 + (0 if trace else index)


def run_round(fs, workload, state, seed, d: Path, refs, log: list, index: int,
              yardstick: Yardstick, tracer=None) -> float:
    """One round in a fresh directory; returns the time spent in calls.

    With a tracer, each call (not its check, nor the yardstick runs around
    it) runs inside an ``op.<name>`` span."""
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    total = 0.0
    sink = io.StringIO()
    for key, name, call, check in workload.operations(fs, state, seed, d, refs):
        def run(call=call, name=name):
            span = tracer.open("op." + name) if tracer else None
            try:
                with contextlib.redirect_stdout(sink):
                    return call()
            finally:
                if tracer:
                    tracer.close(span)

        result, elapsed = yardstick.timed(run)
        if isinstance(result, Exception):
            errors = ["".join(traceback.format_exception(result))]
        else:
            try:
                errors = check(result)
            except Exception:
                errors = [traceback.format_exc()]
        total += elapsed
        log.append({"metric": key, "op": name, "round": index, "seconds": elapsed,
                    "traced": bool(tracer), "errors": errors})
        if errors:
            print(f"{workload.name}: {name} failed: {errors}", file=sys.stderr)
    return total


def main() -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    fs = load_package()
    env = environment(fs)
    yardstick = Yardstick(fs.np)
    work = BENCH / "work" / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    try:
        setup: list = []

        def set_up():
            """Sets up twice; one set-up starts an interpreter that imports
            the package and builds the inputs once.  Set-ups run before
            every round, so their median, like the other figures, spans the
            whole run: five set-ups at the start of a run agreed within a
            few percent, but read 0.12 s in one run and 0.19 s in the next."""
            for _ in range(SETUPS_PER_ROUND):
                state, elapsed = yardstick.timed(
                    lambda: (import_in_child(), workload.prepare(fs, args.seed))[1])
                if isinstance(state, Exception):
                    raise state
                setup.append({"seconds": elapsed})
            return state

        problems = fs.oracles.self_check(work / "selfcheck")
        for p in problems:
            print(p, file=sys.stderr)

        refs = fs.oracles.ReferenceSpectra()
        raw: dict = {}
        log: list = []
        op_time: list = []
        walls: list = []
        begin = time.perf_counter()

        def timed_round(tracer=None):
            t0 = time.perf_counter()
            marks = len(yardstick.samples), len(log), len(setup)
            state = set_up()
            seed = round_seed(args.seed, len(walls), args.trace)
            op_time.append(run_round(fs, workload, state, seed, work / "round", refs, log,
                                     len(walls), yardstick, tracer))
            scale = YARDSTICK_REF_S / statistics.median(yardstick.samples[marks[0]:])
            for entry in log[marks[1]:] + setup[marks[2]:]:
                entry["scaled"] = entry["seconds"] * scale
            walls.append(time.perf_counter() - t0)

        def time_left(budget) -> bool:
            return time.perf_counter() - begin + max(walls) <= budget

        timed_round()
        nesting_ok = True
        if args.trace:
            # Untraced rounds for the first half of the time, traced rounds
            # for the rest; at least one of each.
            while time_left(args.seconds / 2):
                timed_round()
            untraced = list(op_time)
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
            layers, imbalance = [], []
            while True:
                lo = len(tracer.spans)
                root = tracer.open("round")
                timed_round(tracer)
                tracer.close(root)
                per_round, off = tracing.layer_metrics(tracer.spans, lo, len(tracer.spans))
                layers.append(per_round)
                imbalance.append(abs(off))
                if not time_left(args.seconds):
                    break
            # Time inside the program's calls; checks are outside both.
            overhead = statistics.median(op_time[-len(layers):]) - statistics.median(untraced)
            metrics = {}
            for name, unit in tracing.LAYER_METRICS.items():
                # Counts repeat exactly from round to round; median_low keeps
                # them whole numbers.
                median = statistics.median_low if unit in ("count", "bytes") else statistics.median
                value = overhead if name == "trace.overhead_s" else median(f[name] for f in layers)
                metrics[name] = {"value": value, "unit": unit}
            nesting_ok = max(imbalance) <= 1e-6
            if not nesting_ok:
                print(f"span self times do not add up: {imbalance}", file=sys.stderr)
            tracer.dump(out / f"trace-{workload.name}-seed{args.seed}.json",
                        {"workload": workload.name, "seed": args.seed, "env": env})
        else:
            while time_left(args.seconds):
                timed_round()
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            raw = {"setup_s": statistics.median(e["seconds"] for e in setup),
                   **figures(log, "seconds")}
            metrics = {"setup_s": {"value": statistics.median(e["scaled"] for e in setup),
                                   "unit": "s"}}
            for key, value in figures(log).items():
                metrics[key] = {"value": value, "unit": "s"}
            metrics["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": not problems and nesting_ok,
        "attempted": len(log),
        "failed": sum(1 for entry in log if entry["errors"]),
        "metrics": metrics,
    }
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setups": setup,
              "round_walls_s": walls, "round_call_s": op_time, "operations": log,
              "yardstick_s": yardstick.samples, "unscaled_s": raw,
              "self_check": problems, "total_s": time.perf_counter() - t_start,
              "result": result}
    (out / f"run-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
