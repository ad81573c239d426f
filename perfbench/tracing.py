"""Layer spans for the traced benchmark run.

The spans are recorded by the benchmark, around the calls the CLI makes
into each layer: :func:`install` replaces public names of the
``clicktomo`` modules with timing wrappers. Nothing inside the package
is changed, and the private ``_kernels`` and ``_backend`` modules are
never touched, so the solver internals can be rewritten freely.

A span is a dict with ``id``, ``parent``, ``run``, ``name``, ``start``
and ``end`` (``time.perf_counter`` seconds, one system-wide monotonic
clock on Linux, so spans of the benchmark process and of its CLI
subprocesses can be nested), plus counts taken at the same boundary.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

# span name -> layer metric that receives its self time
SELF_TIME_METRIC = {
    "import": "import",
    "states.build": "states.build_s",
    "detection.build_matrix": "detection.build_matrix_s",
    "detection.forward": "detection.forward_s",
    "sampler.sample": "sampler.sample_s",
    "sampler.record_io": "sampler.record_io_s",
    "solver.reconstruct": "solver.reconstruct_s",
    "metrics.bootstrap": "metrics.self_s",
    "metrics.marginal": "metrics.self_s",
    "metrics.fidelity": "metrics.self_s",
    "cli.write": "cli.write_s",
    "cli.main": "cli.self_s",
    # the benchmark's own sequence span and the subprocess spans: time
    # outside every layer (interpreter start-up and exit, process spawn)
    "sequence": "trace.unattributed_s",
    "process": "trace.unattributed_s",
}


class Tracer:
    """Keeps spans in memory; they are written out when the run ends."""

    def __init__(self, run: str, root_parent: str | None = None):
        self.run = run
        self.spans: list[dict] = []
        self._stack: list[str | None] = [root_parent]
        self._next = 0

    def begin(self, name: str) -> dict:
        self._next += 1
        span = {
            "id": f"{self.run}.{self._next}", "parent": self._stack[-1],
            "run": self.run, "name": name, "start": time.perf_counter(),
        }
        self._stack.append(span["id"])
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def call(self, name: str, fn, args, kwargs, on_result=None):
        span = self.begin(name)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result
        finally:
            self.end(span)


def _record_solve(span, args, kwargs, trace):
    span["n_iterations"] = int(trace.n_iterations)
    span["best_iteration"] = int(trace.best_iteration)
    span["stop_reason"] = str(trace.stop_reason)


def _record_bootstrap(span, args, kwargs, boot):
    span["reps"] = int(boot.reps)
    span["failed"] = len(boot.failed)


def _record_bytes(path_index: int):
    def record(span, args, kwargs, result):
        span["bytes"] = os.path.getsize(kwargs.get("path", args[path_index]))
    return record


def install(tracer: Tracer) -> None:
    """Wrap the names the CLI and the bootstrap call, layer by layer."""
    import clicktomo.cli as cli
    import clicktomo.detection as detection
    import clicktomo.metrics as metrics
    import clicktomo.solver as solver
    from clicktomo import ClickRecord, ReconstructionTrace
    from clicktomo.metrics import BootstrapResult

    def wrap(owner, attr, name, on_result=None):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        static = isinstance(raw, staticmethod)
        fn = raw.__func__ if static else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, on_result)

        setattr(owner, attr, staticmethod(wrapper) if static else wrapper)

    wrap(cli, "state_from_json", "states.build")
    wrap(cli, "multithermal_marginal", "states.build")
    wrap(cli, "forward_click_probabilities", "detection.forward")
    # forward_click_probabilities and reconstruct look build_matrix up in
    # their own module, so both module attributes are wrapped
    wrap(detection, "build_matrix", "detection.build_matrix")
    wrap(solver, "build_matrix", "detection.build_matrix")
    wrap(cli, "sample_clicks", "sampler.sample")
    for attr in ("to_json", "to_csv", "from_json", "from_csv"):
        wrap(ClickRecord, attr, "sampler.record_io")
    # point estimates come through the CLI, bootstrap replicates through
    # metrics, so replicate solves nest under the bootstrap span
    wrap(cli, "reconstruct", "solver.reconstruct", _record_solve)
    wrap(metrics, "reconstruct", "solver.reconstruct", _record_solve)
    wrap(cli, "bootstrap_uncertainty", "metrics.bootstrap", _record_bootstrap)
    wrap(cli, "marginal", "metrics.marginal")
    wrap(cli, "fidelity", "metrics.fidelity")
    for attr in ("to_csv", "final_to_json", "final_to_csv"):
        wrap(ReconstructionTrace, attr, "cli.write", _record_bytes(1))
    wrap(BootstrapResult, "to_csv", "cli.write", _record_bytes(1))
    # summary, manifest and figure tables; private helpers of the CLI,
    # so a refactor that renames them moves their time into cli.self_s
    for attr in ("_write_json", "_write_csv"):
        if hasattr(cli, attr):
            wrap(cli, attr, "cli.write", _record_bytes(0))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time per layer metric: a span's duration minus the part its
    direct children cover."""
    child_time: dict[str, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        own = span["end"] - span["start"] - child_time[span["id"]]
        totals[SELF_TIME_METRIC[span["name"]]] += own
    return dict(totals)
