"""Benchmark of the clicktomo command-line tool, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload heralded-bootstrap --seed 2 \
        --seconds 30 --trace 0

A run drives ``python -m clicktomo.cli`` (``PYTHONPATH=src``, the package
need not be installed) as subprocesses of this one process. It repeats
the workload's command sequence at one seed until ``--seconds`` have
passed, checks every output, and prints a human-readable report, then
one JSON object as its last line. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced sequences with traced ones,
whose commands run ``clicktomo.cli.main`` under layer spans (see
``tracing.py``), and reports the per-layer metrics. README.md lists the
metrics, the workloads, and which layer metric should move which
end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 150
# set-up probes per run, two after each sequence, so that they sample the
# machine in the same states as the sequences do
SETUP_PROBES = 8
# One BLAS thread for every CLI run: on a small shared machine the
# two-thread mat-vec waits for the slower thread, and its wall time
# swings by +-15% from run to run against +-6% with one thread.
BLAS_THREADS = "1"
# Loose accuracy gates. They fail a reconstruction that stops far too
# early (the 'auto' noise floor stops the heralded preset at 620
# iterations with max |error| 0.39); statistical error stays below 0.04.
MAX_ABS_ERR_GATE = 0.1
INFIDELITY_GATE = 0.05


@dataclass(frozen=True)
class Workload:
    preset: str
    simulate: tuple[str, ...] = ()
    reconstruct: tuple[str, ...] = ()
    bootstrap_reps: int = 0
    reproduce: str | None = None

    def commands(self, seed: int, out: Path) -> list[list[str]]:
        data = str(out / "data")
        cmds = [
            ["simulate", "--preset", self.preset, "--seed", str(seed),
             "--out-dir", data, *self.simulate],
            ["reconstruct", data, "--seed", str(seed),
             "--out-dir", str(out / "out"), *self.reconstruct],
        ]
        if self.bootstrap_reps:
            cmds[1] += ["--bootstrap-reps", str(self.bootstrap_reps)]
        if self.reproduce:
            cmds.append(["reproduce", self.reproduce, "--seed", str(seed),
                         "--out-dir", str(out / "fig")])
        return cmds


# Why each workload, and which layer metric should move which end-to-end
# metric on it, is in README.md. --patience equal to the iteration budget
# makes the work independent of the seed: with the default patience the
# multithermal reconstruct stops after 16k to 100k iterations, by seed.
WORKLOADS = {
    "heralded-bootstrap": Workload(
        "heralded-unbalanced", bootstrap_reps=2),
    "multithermal-trace": Workload(
        "multithermal-split",
        reconstruct=("--reference", "multithermal", "--patience", "100000"),
        reproduce="fig3"),
    "wide-truncation": Workload(
        "multithermal-split", simulate=("--truncation", "120"),
        reconstruct=("--max-iters", "2000", "--patience", "2000")),
}


@dataclass
class Child:
    command: str
    rc: int
    wall_s: float
    peak_rss_mb: float


@dataclass
class Sequence:
    wall_s: float
    children: list[Child]
    spans: list[dict] = field(default_factory=list)


def _child_env() -> dict:
    path = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path),
                OPENBLAS_NUM_THREADS=BLAS_THREADS)


def run_child(command: str, argv: list[str], log_path: Path) -> Child:
    """Run one subprocess to its end; its own peak RSS comes from wait4."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=_child_env())
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = log_path.read_text(errors="replace")[-2000:]
        print(f"{command} exited {proc.returncode}:\n{tail}", file=sys.stderr)
    return Child(command, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def run_sequence(wl: Workload, seed: int, out: Path,
                 tracer: tracing.Tracer | None = None) -> Sequence:
    out.mkdir(parents=True)
    children, spans = [], []
    root = tracer.begin("sequence") if tracer else None
    start = time.perf_counter()
    for i, args in enumerate(wl.commands(seed, out)):
        log = out / f"cmd{i}.log"
        if tracer is None:
            argv = [sys.executable, "-m", "clicktomo.cli", *args]
            children.append(run_child(args[0], argv, log))
            continue
        proc = tracer.begin("process")
        spans_path = out / f"spans{i}.json"
        argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path),
                f"{tracer.run}.c{i}", proc["id"], *args]
        children.append(run_child(args[0], argv, log))
        tracer.end(proc)
        if spans_path.exists():
            spans += json.loads(spans_path.read_text())
    wall = time.perf_counter() - start
    if tracer:
        tracer.end(root)
        spans += tracer.spans
    return Sequence(wall, children, spans)


# --- output checks ---------------------------------------------------------


@dataclass
class Checks:
    """Operations attempted and failed, and the reference output hashes.

    An operation is one CLI command or one reconstruction (the point
    estimate, a bootstrap replicate, the fig3 solve)."""

    attempted: int = 0
    failed: int = 0
    hashes: dict | None = None
    # of the last checked point estimate; 0 until one passes the checks
    max_abs_err: float = 0.0
    marginal_infidelity: float = 0.0

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        print(f"check failed: {message}", file=sys.stderr)

    def command(self, child: Child) -> bool:
        self.attempted += 1
        if child.rc != 0:
            self.fail(f"{child.command} exit code {child.rc}")
        return child.rc == 0

    def sequence(self, wl: Workload, seq: Sequence, out: Path) -> None:
        ok = {c.command: self.command(c) for c in seq.children}
        self.attempted += 1 + wl.bootstrap_reps + (1 if wl.reproduce else 0)
        if wl.reproduce and not ok["reproduce"]:
            self.fail("fig3 solve (reproduce failed)")
        if not ok["reconstruct"]:
            self.fail("point solve and replicates (reconstruct failed)",
                      1 + wl.bootstrap_reps)
            return
        summary = json.loads((out / "out" / "summary.json").read_text())
        if wl.bootstrap_reps:
            failed_reps = summary.get("bootstrap_failed", [])
            if failed_reps:
                self.fail(f"bootstrap replicates {failed_reps}", len(failed_reps))
        problem = self._accuracy(out)
        if problem:
            self.fail(f"point solve: {problem}")
        self._determinism(out)

    def _accuracy(self, out: Path) -> str | None:
        import clicktomo

        manifest = json.loads((out / "data" / "manifest.json").read_text())
        truth = clicktomo.state_from_json(manifest["state"]).normalized().values
        doc = json.loads((out / "out" / "distribution.json").read_text())
        est = np.array([float(v) for v in doc["values"]])
        if est.size != truth.size:
            return f"distribution has {est.size} entries, expected {truth.size}"
        if not np.all(np.isfinite(est)) or np.any(est < 0):
            return "distribution is not finite and nonnegative"
        if abs(est.sum() - 1.0) > 1e-9:
            return f"distribution mass {est.sum()!r} is not 1"
        est = est.reshape(truth.shape)
        self.max_abs_err = float(np.max(np.abs(est - truth)))
        fidelities = []
        for mode in range(truth.ndim):
            axes = tuple(j for j in range(truth.ndim) if j != mode)
            p, q = est.sum(axis=axes), truth.sum(axis=axes)
            fidelities.append(np.sum(np.sqrt(p / p.sum() * q / q.sum())))
        self.marginal_infidelity = float(1.0 - min(fidelities))
        if self.max_abs_err > MAX_ABS_ERR_GATE:
            return f"max |error| {self.max_abs_err:.4g} > {MAX_ABS_ERR_GATE}"
        if self.marginal_infidelity > INFIDELITY_GATE:
            return (f"marginal infidelity {self.marginal_infidelity:.4g} "
                    f"> {INFIDELITY_GATE}")
        return None

    def _determinism(self, out: Path) -> None:
        """Outputs of every sequence at one seed must be byte-identical."""
        names = ["data/record.json", "out/distribution.json",
                 "out/summary.json", "out/uncertainty.csv"]
        if (out / "fig").is_dir():
            names += sorted(f"fig/{p.name}" for p in (out / "fig").iterdir())
        hashes = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names if (out / name).exists()
        }
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            differ = sorted(k for k in hashes.keys() | self.hashes.keys()
                            if hashes.get(k) != self.hashes.get(k))
            self.fail(f"outputs differ between runs at one seed: {differ}")


# --- measurement -------------------------------------------------------------

SETUP_CODE = """\
import json, sys
import clicktomo.cli
from clicktomo import ClickRecord, build_matrix
data = sys.argv[1]
record = ClickRecord.from_json(data + '/record.json')
with open(data + '/manifest.json') as fh:
    truncation = json.load(fh)['state']['truncation']
build_matrix(record.grid, record.modes, truncation)
"""


def measure_setup(data: Path, work: Path) -> float:
    """A fresh interpreter that imports the CLI, loads the record and
    builds the matrix: what a reconstruct pays before its first EM
    iteration."""
    child = run_child("setup", [sys.executable, "-c", SETUP_CODE, str(data)],
                      work / "setup.log")
    if child.rc != 0:
        raise RuntimeError("set-up probe failed; see the log above")
    return child.wall_s


def problem_size(data: Path) -> tuple[int, int]:
    """Rows R = (2^M - 1) K and columns P = (N + 1)^M of the matrix."""
    record = json.loads((data / "record.json").read_text())
    manifest = json.loads((data / "manifest.json").read_text())
    modes = record["modes"]
    rows = (2**modes - 1) * len(record["etas"])
    cols = (manifest["state"]["truncation"] + 1) ** modes
    return rows, cols


def run_loop(wl: Workload, seed: int, seconds: float, work: Path, traced: bool):
    """Repeat the sequence until the time is up (at least two sequences;
    with tracing, untraced and traced sequences alternate)."""
    deadline = time.perf_counter() + seconds
    checks = Checks()
    checks.command(run_child("validate", [sys.executable, "-m", "clicktomo.cli",
                                          "validate"], work / "validate.log"))
    plain, with_spans, setup, size = [], [], [], None
    while True:
        n = len(plain) + len(with_spans)
        tracer = tracing.Tracer(f"s{n}") if traced and n % 2 else None
        out = work / f"seq{n}"
        seq = run_sequence(wl, seed, out, tracer)
        (with_spans if tracer else plain).append(seq)
        checks.sequence(wl, seq, out)
        if seq.children[0].rc == 0:
            size = size or problem_size(out / "data")
            while not traced and len(setup) < min(SETUP_PROBES, 2 * (n + 1)):
                setup.append(measure_setup(out / "data", work))
        shutil.rmtree(out)
        walls = [s.wall_s for s in plain + with_spans]
        if n + 1 >= 2 and time.perf_counter() + max(walls) > deadline:
            break
    if size is None:
        raise RuntimeError("simulate never succeeded; no problem size")
    return checks, plain, with_spans, setup, size


def end_to_end(checks: Checks, plain: list[Sequence], setup: list[float]) -> dict:
    return {
        "wall_s": (statistics.median(s.wall_s for s in plain), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(c.peak_rss_mb for s in plain for c in s.children), "MB"),
        "success_frac": (1.0 - checks.failed / checks.attempted, "frac"),
    }


# name -> unit of every per-layer metric, in report order
PER_LAYER = {
    "import.cli_s": "s",
    "states.build_s": "s",
    "detection.build_matrix_s": "s",
    "detection.forward_s": "s",
    "detection.matrix_bytes": "B",
    "sampler.sample_s": "s",
    "sampler.record_io_s": "s",
    "solver.calls": "count",
    "solver.iterations": "count",
    "solver.reconstruct_s": "s",
    "solver.iter_us": "us",
    "solver.solve_s_p50": "s",
    "solver.useful_iter_frac": "frac",
    "solver.stop.max-iters": "count",
    "solver.stop.min-epsilon": "count",
    "solver.stop.threshold": "count",
    "solver.flop_per_iter": "flop",
    "solver.bytes_per_iter": "B",
    "metrics.self_s": "s",
    "metrics.replicates_failed": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "accuracy.max_abs_err": "1",
    "accuracy.marginal_infidelity": "1",
}
# layers whose self times, with the import, account for the traced wall
SELF_TIMED = ("states.build_s", "detection.build_matrix_s",
              "detection.forward_s", "sampler.sample_s", "sampler.record_io_s",
              "solver.reconstruct_s", "metrics.self_s", "cli.write_s",
              "cli.self_s")


def _layers_of(seq: Sequence) -> dict:
    """Layer metrics of one traced sequence."""
    spans = seq.spans
    selfs = tracing.self_times(spans)
    solves = [s for s in spans if s["name"] == "solver.reconstruct"]
    iterations = sum(s["n_iterations"] for s in solves)
    stops = [s["stop_reason"] for s in solves]
    layer = {name: selfs.get(name, 0.0) for name in SELF_TIMED}
    layer.update({
        "import.total_s": selfs.get("import", 0.0),
        "import.cli_s": statistics.median(
            s["end"] - s["start"] for s in spans if s["name"] == "import"),
        "solver.calls": len(solves),
        "solver.iterations": iterations,
        "solver.iter_us": 1e6 * layer["solver.reconstruct_s"] / iterations,
        "solver.solve_s_p50": statistics.median(
            s["end"] - s["start"] for s in solves),
        "solver.useful_iter_frac":
            sum(s["best_iteration"] + 1 for s in solves) / iterations,
        "solver.stop.max-iters": stops.count("max-iters"),
        "solver.stop.min-epsilon": stops.count("min-epsilon"),
        "solver.stop.threshold": stops.count("threshold"),
        "metrics.replicates_failed": sum(
            s.get("failed", 0) for s in spans if s["name"] == "metrics.bootstrap"),
        "cli.bytes_written": sum(
            s.get("bytes", 0) for s in spans if s["name"] == "cli.write"),
        "trace.wall_s": seq.wall_s,
        "trace.unattributed_s": selfs.get("trace.unattributed_s", 0.0),
    })
    return layer


def per_layer(checks: Checks, plain: list[Sequence], traced: list[Sequence],
              size: tuple[int, int]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over the traced sequences) and the
    accounting of the traced wall time."""
    each = [_layers_of(seq) for seq in traced]
    values = {name: statistics.median(d[name] for d in each) for name in each[0]}
    rows, cols = size
    # computed from the matrix shape, not measured: the matrix and the
    # transpose copy the solver keeps, and two mat-vec products per iteration
    values["detection.matrix_bytes"] = 2 * rows * cols * 8
    values["solver.flop_per_iter"] = 4 * rows * cols
    values["solver.bytes_per_iter"] = 2 * rows * cols * 8
    values["trace.overhead_s"] = (
        statistics.median(s.wall_s for s in traced)
        - statistics.median(s.wall_s for s in plain))
    values["accuracy.max_abs_err"] = checks.max_abs_err
    values["accuracy.marginal_infidelity"] = checks.marginal_infidelity
    accounting = {
        "import_total_s": values["import.total_s"],
        "layer_self_s": values["import.total_s"]
        + sum(values[name] for name in SELF_TIMED),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER.items()}, accounting


# --- report ------------------------------------------------------------------


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import clicktomo

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "OPENBLAS_NUM_THREADS_inherited":
            os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "clicktomo.BACKEND": getattr(clicktomo, "BACKEND", "none"),
        "commit": _git_commit(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "clicktomo" / "cli.py").is_file():
        print(f"error: no clicktomo sources under {SRC}; run from the root "
              "of a clicktomo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        checks, plain, traced, setup, size = run_loop(
            wl, args.seed, args.seconds, work, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("# environment " + json.dumps(environment(), sort_keys=True))
    print(f"# sequences: {len(plain)} untraced, {len(traced)} traced; "
          f"operations attempted {checks.attempted}, failed {checks.failed}")
    if args.trace:
        metrics, accounting = per_layer(checks, plain, traced, size)
        (OUT / f"spans-{tag}.json").write_text(
            json.dumps([span for seq in traced for span in seq.spans]))
        print(f"# layer self times (imports {accounting['import_total_s']:.4f} s"
              f" included) sum to {accounting['layer_self_s']:.4f} s of the "
              f"traced wall {metrics['trace.wall_s'][0]:.4f} s; the difference "
              f"is trace.unattributed_s (interpreter start and exit, spawn)")
    else:
        metrics = end_to_end(checks, plain, setup)
        print(f"# wall_s samples {[round(s.wall_s, 4) for s in plain]}; "
              f"setup_s samples {[round(t, 4) for t in setup]}")
        print(f"# failed_frac {checks.failed / checks.attempted:.4g}  "
              f"max_abs_err {checks.max_abs_err:.6g}  "
              f"marginal_infidelity {checks.marginal_infidelity:.6g}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
