"""Command-line driver: simulate, reconstruct, reproduce, validate.

Exit codes: 0 success, 2 configuration error, 3 data/file error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import json
import os
import pickle
import shutil
import signal
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, _io
from ._io import fmt
from .detection import (
    build_matrix,
    check_size,
    forward_click_probabilities,
    uniform_grid,
)
from .errors import (
    ClicktomoError,
    DegenerateSupportError,
    NumericalError,
    ResourceLimitError,
)
from .metrics import fidelity, marginal
from .sampler import RNG_ALGORITHM, ClickRecord, frequencies, sample_clicks
from .solver import (
    StoppingConfig,
    bootstrap_uncertainty,
    em_step,
    reconstruct,
    total_error,
)
from .states import (
    STATE_KEYS,
    ThermalSpec,
    declared_shape,
    heralded_split_state,
    multithermal_click_reference,
    multithermal_marginal,
    split_on_beamsplitter,
    state_from_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class ConfigError(ValueError):
    pass


PRESETS = {
    "heralded-balanced": {
        "state": {"kind": "heralded", "tau": 0.5, "truncation": 3},
        "grid_k": 34, "eta_min": 0.015, "eta_max": 0.325,
        "runs": 100_000,
    },
    "heralded-unbalanced": {
        "state": {"kind": "heralded", "tau": 0.4, "truncation": 3},
        "grid_k": 34, "eta_min": 0.015, "eta_max": 0.325,
        "runs": 100_000,
    },
    # mean_photons picked so that mass above 8 photons stays below 1e-6
    "multithermal-split": {
        "state": {
            "kind": "multithermal_split", "tau": 0.5,
            "mean_photons": 0.15, "num_modes": 1000.0, "truncation": 8,
        },
        "grid_k": 35, "eta_min": 0.05, "eta_max": 0.25,
        "runs": 1_000_000,
    },
}


# Module names, called through this module: the benchmark's tracing wraps
# the two writers by name to time the summary, manifest and figure writes.
_write_json = _io.write_json
_write_csv = _io.write_csv


@contextlib.contextmanager
def _in_background(fn, *args, **kwargs):
    """Start ``fn(*args, **kwargs)`` beside the caller, in a forked child.

    A context manager: it yields a function that waits for the call and
    returns its result, or raises its exception. The child inherits ``fn``
    and its arguments by the fork; only the pickled outcome crosses back.
    A child not reaped when the block is left is killed and reaped; on
    Linux it also dies with the parent. With one usable CPU, or no
    ``fork``, ``fn`` runs inline at the wait, as a serial call would.
    """
    if not _forks():
        yield lambda: fn(*args, **kwargs)
        return
    parent = os.getpid()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child leaves by code 0 only after a complete dump
        code = 1
        try:
            _die_with(parent)
            os.close(read_end)
            try:
                outcome = True, fn(*args, **kwargs)
            except BaseException as exc:  # re-raised in the parent by the wait
                outcome = False, exc
            with open(write_end, "wb") as sink:
                pickle.dump(outcome, sink)
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    reaped = False

    def wait():
        nonlocal reaped
        data = pipe.read()  # to EOF: the child has sent all or has died
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code:
            raise ChildProcessError(
                f"a background process exited with code {code} and no result")
        ok, value = pickle.loads(data)
        if ok:
            return value
        raise value

    with open(read_end, "rb") as pipe:
        try:
            yield wait
        finally:
            if not reaped:  # once reaped, the pid may name another process
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _forks() -> bool:
    """Whether work may run beside the caller: ``os.fork`` exists and the
    process may use two or more CPUs. A platform without the affinity
    call (macOS) counts as one CPU."""
    cpus = (len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else 1)
    return cpus >= 2 and hasattr(os, "fork")


@contextlib.contextmanager
def _trace_beside(max_rows: int):
    """Format ``trace.csv`` beside the point solve, a trace of at most
    ``max_rows`` rows; yields ``send`` and ``write``.

    ``send(eps, ll)`` is the solve's per-chunk callback. It writes the
    chunk's rows as raw float64 (ε, log-likelihood) pairs into a pipe. A
    child that ``_in_background`` forks formats them, a block of rows at
    a time, into an unlinked temporary file while the solve runs.
    ``write(trace, path)`` closes the pipe, waits for the child and
    copies its file to ``path``; a child that failed raises there, or at
    the next ``send``, before ``path`` is opened. With one usable CPU, or
    no ``fork``, or a trace of at most one block, ``send`` is None and
    ``write`` formats ``trace`` at the call, in the same bytes: the child
    would format a single block only after the solve, so it would save
    nothing and cost the fork, the pipe and the copy.

    A child forked inside the block holds the pipe open, so the formatter
    would see its end only when that child ends: fork it first.
    """
    if not _forks() or max_rows <= _io.TRACE_BLOCK_ROWS:
        yield None, lambda trace, path: trace.to_csv(path)
        return
    read_end, write_end = os.pipe()
    with (open(read_end, "rb") as rows,
          open(write_end, "wb", buffering=0) as sink,
          tempfile.TemporaryFile() as text):

        def format_rows():  # in the child, which must not hold the sink
            sink.close()
            size = 16 * _io.TRACE_BLOCK_ROWS  # bytes of a block of rows
            blocks = iter(lambda: rows.read(size), b"")
            with open(text.fileno(), "w", newline="", encoding="utf-8",
                      closefd=False) as out:
                _io.write_trace_csv(out, (np.frombuffer(b).reshape(-1, 2).T
                                          for b in blocks))

        with _in_background(format_rows) as wait:
            rows.close()

            def send(eps, ll):
                data = memoryview(np.hstack((eps, ll))).cast("B")
                try:
                    while data:
                        data = data[sink.write(data):]
                except BrokenPipeError:
                    wait()  # the formatter ended early: its error comes first
                    raise

            def write(trace, path):
                sink.close()
                wait()
                text.seek(0)
                with open(path, "wb") as out:
                    shutil.copyfileobj(text, out)

            yield send, write


def _die_with(parent: int) -> None:
    """Have the kernel kill this process when its parent ends, by Linux's
    ``prctl(PR_SET_PDEATHSIG = 1, SIGKILL)``, and end it now if the parent
    has already ended."""
    with contextlib.suppress(AttributeError, OSError):
        ctypes.CDLL(None).prctl(1, ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != parent:
        os._exit(1)


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _check_seed(seed: int) -> int:
    """Refuse a negative seed before any solve; numpy would refuse it
    only where it seeds a generator, after earlier outputs are written."""
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    return seed


# --- simulate ------------------------------------------------------------


def _simulate(preset, config: dict, flags: dict) -> tuple[ClickRecord, dict]:
    """A click record and its ``simulate`` manifest; per key, a flag beats
    the config file, which beats the preset."""
    if preset is not None and not (isinstance(preset, str) and preset in PRESETS):
        raise ConfigError(
            f"unknown preset {preset!r}; choose from {sorted(PRESETS)}"
        )
    overrides = ("tau", "mean_photons", "num_modes", "truncation")
    keys = ("state", "grid_k", "eta_min", "eta_max", "runs", "seed", *overrides)
    cfg = {key: source[key]
           for source in (PRESETS.get(preset, {}), config, flags)
           for key in keys if source.get(key) is not None}
    for key in keys[1:]:
        if key in cfg:
            _io.json_number(key, cfg[key],
                            key in ("grid_k", "runs", "seed", "truncation"))
    if "state" not in cfg:
        raise ConfigError("select --preset or provide --state FILE")
    state_doc = cfg["state"]
    if isinstance(state_doc, str):
        state_doc = _load_json(Path(state_doc))
    if not isinstance(state_doc, dict):
        raise ConfigError("a state must be a JSON object or a file name")
    state_doc = dict(state_doc, **{key: cfg[key] for key in overrides if key in cfg})
    for key in ("grid_k", "eta_min", "eta_max"):
        if key not in cfg:
            raise ConfigError(f"missing --{key.replace('_', '-')}")
    runs = cfg.get("runs", 100_000)
    if runs < 1:
        raise ConfigError(f"--runs must be a positive integer, got {runs}")
    if runs > np.iinfo(np.int64).max:  # the sampler draws int64 counts
        raise ConfigError(
            f"--runs must be at most {np.iinfo(np.int64).max}, got {runs}")
    seed = _check_seed(cfg.get("seed", 0))

    state = _state(state_doc, cfg["grid_k"], "state")
    for key in overrides:  # the state is built, so its kind is one of these
        if key in cfg and key not in STATE_KEYS[state_doc["kind"]]:
            raise ConfigError(f"a {state_doc['kind']} state does not read "
                              f"{key} (--{key.replace('_', '-')})")
    grid = uniform_grid(cfg["grid_k"], cfg["eta_min"], cfg["eta_max"])
    record = sample_clicks(forward_click_probabilities(state, grid), runs, seed)
    manifest = {
        "command": "simulate",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "preset": preset,
        "state": state_doc,
        "grid": {
            "k": cfg["grid_k"],
            "eta_min": cfg["eta_min"],
            "eta_max": cfg["eta_max"],
            "spacing": "uniform",
        },
        "runs": runs,
        "seed": seed,
        "state_leakage": fmt(state.leakage),
    }
    return record, manifest


def cmd_simulate(args: argparse.Namespace) -> int:
    config = {} if args.config is None else _load_json(Path(args.config))
    if not isinstance(config, dict):
        raise ConfigError("config file must hold a JSON object")
    preset = args.preset if args.preset is not None else config.get("preset")
    record, manifest = _simulate(preset, config, vars(args))

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record.to_json(out_dir / "record.json")
    record.to_csv(out_dir / "record.csv")
    _write_json(out_dir / "manifest.json", manifest)
    print(
        f"wrote record for {manifest['grid']['k']} efficiencies x "
        f"{manifest['runs']} runs to {out_dir}"
    )
    return EXIT_OK


# --- reconstruct ---------------------------------------------------------


def _load_record(path: Path) -> tuple[ClickRecord, dict | None]:
    manifest = None
    if path.is_dir():
        manifest_path = path / "manifest.json"
        if manifest_path.exists():
            manifest = _load_json(manifest_path)
            if not isinstance(manifest, dict) or not isinstance(
                    manifest.get("state", {}), dict):
                raise ConfigError(
                    f"{manifest_path}: the manifest and its state must be "
                    "JSON objects")
        path = path / "record.json"
    load = ClickRecord.from_csv if path.suffix == ".csv" else ClickRecord.from_json
    try:
        return load(path), manifest
    except (KeyError, TypeError, ValueError) as exc:
        raise ClicktomoError(
            f"{path}: malformed click record ({type(exc).__name__}: {exc})"
        ) from exc
    except ResourceLimitError as exc:
        raise ResourceLimitError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _state_errors(label):
    """A malformed state document as a configuration error of one line."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{label}: missing {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _state(doc, k, label):
    """The state ``doc`` describes, built once and sized on ``k`` efficiencies
    by both caps: before the build for a declared shape, after it for a
    listed one. A malformed ``doc`` is a ConfigError that names ``label``."""
    with _state_errors(label):
        if shape := declared_shape(doc):
            check_size(k, *shape)
        state = state_from_json(doc)
        if not shape:
            check_size(k, state.modes, state.truncation)
        return state


def _reference(ref, manifest, record, truncation) -> tuple[list, dict]:
    """Each mode's marginal of the reference state, cut at the
    reconstruction's truncation, and the state document: the one read
    from the file ``ref``, or for ``multithermal`` the record manifest's
    own split state (so tau comes with it) at that truncation. A state
    that a simulate on the record's grid would refuse as too large is
    refused before it is built."""
    if ref == "multithermal":
        label = "--reference multithermal"
        doc = (manifest or {}).get("state", {})
        if doc.get("kind") != "multithermal_split":
            raise ConfigError(
                f"{label} needs a record whose manifest holds a "
                "multithermal split")
        doc = dict(doc, truncation=truncation)
    else:
        label = ref
        doc = _load_json(Path(ref))
    state = _state(doc, len(record.grid), label)
    modes = record.modes
    if state.modes != modes:
        raise ConfigError(
            f"{label}: reference state has {state.modes} modes, "
            f"the record {modes}")
    if state.truncation < truncation:
        raise ConfigError(
            f"{label}: reference state truncation {state.truncation} "
            f"below the reconstruction's {truncation}")
    references = [marginal(state, m)[: truncation + 1] for m in range(modes)]
    for m, ref_m in enumerate(references, 1):
        if not ref_m.sum() > 0:
            raise ConfigError(
                f"{label}: mode {m} of the reference state has no mass up "
                f"to the reconstruction's truncation {truncation}")
    return references, doc


def _fidelities(values: np.ndarray, references) -> list[float]:
    """Each mode's marginal of the joint array ``values``, scored against
    that mode's reference marginal by fidelity."""
    return [fidelity(marginal(values, m), r) for m, r in enumerate(references)]


def _bootstrap_beside(record, truncation, options, reps, seed):
    """A context that runs the bootstrap of ``reps`` replicates beside its
    block (``_in_background``) and yields the wait for it; with no
    replicates, the wait returns None. A bootstrap too large to hold is
    refused here, before the fork and before the block writes anything."""
    if not reps:
        return contextlib.nullcontext(lambda: None)
    check_size(len(record.grid), record.modes, truncation, reps)
    return _in_background(bootstrap_uncertainty, record, truncation,
                          reps=reps, seed=seed, options=options)


def _parse_min_decrease(value) -> float | None:
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError("--min-decrease takes a number or 'auto'") from exc


def _options_doc(options: StoppingConfig) -> dict:
    """The stopping options as a manifest records them: every field of
    ``options``, with ``min_decrease=None`` written as ``"auto"``."""
    doc = dataclasses.asdict(options)
    if options.min_decrease is None:
        doc["min_decrease"] = "auto"
    return doc


def _check_bootstrap_reps(reps: int, zero_allowed: bool) -> None:
    """Refuse a bootstrap size before any solve, so a refused run writes
    no file and starts no background process."""
    if reps < 2 and not (zero_allowed and reps == 0):
        allowed = "0 or at least 2" if zero_allowed else "at least 2"
        raise ConfigError(f"--bootstrap-reps must be {allowed}, got {reps}")


def cmd_reconstruct(args: argparse.Namespace) -> int:
    """Solve a record, with its trace and optional bootstrap. The truncation
    without ``--truncation`` is the one the manifest's state declares
    (:func:`clicktomo.states.declared_shape`), or else its built state's."""
    _check_bootstrap_reps(args.bootstrap_reps, zero_allowed=True)
    _check_seed(args.seed)
    record, manifest = _load_record(Path(args.record))
    truncation = args.truncation
    if truncation is None and manifest:
        state_doc = manifest.get("state", {})
        label = (f"{args.record}: no --truncation given, and the "
                 f"manifest's {state_doc.get('kind')} state")
        with _state_errors(label):
            shape = declared_shape(state_doc)
        truncation = (shape[1] if shape else
                      _state(state_doc, len(record.grid), label).truncation)
    if truncation is None:
        raise ConfigError("--truncation is required (not found in a manifest)")
    options = StoppingConfig(
        max_iters=args.max_iters,
        patience=args.patience,
        min_decrease=_parse_min_decrease(args.min_decrease),
    )
    # resolved before the solve: a bad reference writes no file
    references, reference_doc = (
        _reference(args.reference, manifest, record, truncation)
        if args.reference is not None else (None, None))
    # the bootstrap child is forked first, so that it does not hold the
    # formatter's pipe open
    with (_bootstrap_beside(record, truncation, options, args.bootstrap_reps,
                            args.seed) as wait_for_bootstrap,
          _trace_beside(options.max_iters) as (send, write_trace)):
        trace = reconstruct(record, truncation, options=options, on_chunk=send)
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_trace(trace, out_dir / "trace.csv")
        trace.final_to_json(out_dir / "distribution.json")
        trace.final_to_csv(out_dir / "distribution.csv")
        boot = wait_for_bootstrap()

    summary = {
        "stop_reason": trace.stop_reason,
        "best_iteration": trace.best_iteration,
        "n_iterations": trace.n_iterations,
        "epsilon_min": fmt(trace.epsilon[trace.best_iteration]),
        "renorm_correction": fmt(trace.renorm_correction),
        "marginals": [
            [fmt(v) for v in marginal(trace.final, m)]
            for m in range(trace.final.modes)
        ],
    }
    if trace.final.modes == 2:
        rho01 = float(trace.final.values[0, 1])
        rho10 = float(trace.final.values[1, 0])
        summary["rho01"] = fmt(rho01)
        summary["rho10"] = fmt(rho10)
        if rho10 > 0:
            summary["ratio_01_10"] = fmt(rho01 / rho10)

    if boot is not None:
        boot.to_csv(out_dir / "uncertainty.csv", point=trace.final)
        summary["bootstrap_reps"] = boot.reps
        summary["bootstrap_failed"] = boot.failed
        if trace.final.modes == 2:
            summary["sigma01"] = fmt(boot.sigma[0, 1])
            summary["sigma10"] = fmt(boot.sigma[1, 0])

    if references is not None:
        fids = _fidelities(trace.final.values, references)
        summary["reference_fidelities"] = [fmt(f) for f in fids]
    _write_json(out_dir / "summary.json", summary)
    run_manifest = {
        "command": "reconstruct",
        "version": __version__,
        "truncation": truncation,
        "options": _options_doc(options),
        "bootstrap_reps": args.bootstrap_reps,
        "seed": args.seed,
        "reference": args.reference,
        "input_manifest": manifest,
        "reference_state": reference_doc,
    }
    _write_json(out_dir / "manifest.json", run_manifest)
    print(
        f"stopped after {trace.n_iterations} iterations ({trace.stop_reason}), "
        f"best at {trace.best_iteration}"
    )
    if "ratio_01_10" in summary:
        line = f"rho01/rho10 = {rho01 / rho10:.4f}"
        if boot is not None:
            sigma_ratio = abs(rho01 / rho10) * np.hypot(
                boot.sigma[0, 1] / rho01 if rho01 else 0.0,
                boot.sigma[1, 0] / rho10,
            )
            line += f" +- {sigma_ratio:.4f}"
        print(line)
    if references is not None:
        print("marginal fidelities vs reference: "
              + ", ".join(f"{f:.5f}" for f in fids))
    return EXIT_OK


# --- reproduce -----------------------------------------------------------


def cmd_reproduce(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    fig2 = args.figure == "fig2"
    runs = (100_000 if fig2 else 200_000) if args.runs is None else args.runs
    # each table's header and rows, and its record, as the simulate
    # manifest that regenerates it; nothing is written before all exist
    tables, records = {}, {}
    if fig2:
        _check_bootstrap_reps(args.bootstrap_reps, zero_allowed=False)
        # two seeds stand in for the two spectral-filter variants
        options = StoppingConfig(max_iters=args.max_iters)
        for tau in (0.5, 0.4):
            for offset in (0, 1):
                seed = args.seed + offset
                record, sim = _simulate("heralded-balanced", {},
                                        dict(tau=tau, runs=runs, seed=seed))
                truncation = sim["state"]["truncation"]
                with _bootstrap_beside(record, truncation, options,
                                       args.bootstrap_reps,
                                       seed) as wait_for_bootstrap:
                    trace = reconstruct(record, truncation, options=options)
                    boot = wait_for_bootstrap()
                name = f"joint_tau{tau:.1f}_set{offset}.csv"
                tables[name] = (["n", "k", "rho", "sigma"],
                                _io.tensor_rows(trace.final.values, boot.sigma))
                records[name] = sim
        message = f"wrote 4 joint-distribution tables to {out_dir}"
    else:
        # fig3: fidelity/epsilon curves and the frequency overlay
        options = StoppingConfig(min_decrease=None, max_iters=args.max_iters)
        record, sim = _simulate("multithermal-split", {},
                                dict(runs=runs, seed=args.seed))
        state_doc = sim["state"]
        truncation = state_doc["truncation"]
        spec = ThermalSpec(state_doc["mean_photons"], state_doc["num_modes"])
        tau = state_doc["tau"]
        references, _ = _reference("multithermal", sim, record, truncation)
        trace = reconstruct(record, truncation, options=options)
        # the solve's iterates, replayed from its uniform start
        matrix = build_matrix(record.grid, record.modes, truncation)
        h = frequencies(record)
        q = np.full(matrix.shape[1], 1.0 / matrix.shape[1])
        rows = []
        for it in range(trace.n_iterations):
            f1, f2 = _fidelities(q.reshape(truncation + 1, truncation + 1),
                                 references)
            rows.append(
                [it, fmt(0.5 * (f1 + f2)), fmt(f1), fmt(f2),
                 fmt(trace.epsilon[it])]
            )
            q = em_step(q, matrix, h)
        tables["fidelity_curve.csv"] = (
            ["iteration", "fidelity_mean", "fidelity_mode1", "fidelity_mode2",
             "epsilon"],
            rows,
        )
        freq = record.frequency_table()
        overlay = []
        for nu, eta in enumerate(record.grid.etas):
            p00, p01, p10, _ = multithermal_click_reference(spec, tau, float(eta))
            overlay.append(
                [fmt(eta), fmt(freq[nu, 0]), fmt(freq[nu, 1]), fmt(freq[nu, 2]),
                 fmt(p00), fmt(p01), fmt(p10), int(record.runs[nu])]
            )
        tables["frequency_overlay.csv"] = (
            ["eta", "f00", "f01", "f10", "p00_ref", "p01_ref", "p10_ref", "runs"],
            overlay,
        )
        records = dict.fromkeys(tables, sim)
        message = (
            f"wrote fidelity curve ({trace.n_iterations} iterations) and "
            f"frequency overlay to {out_dir}"
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, (header, rows) in tables.items():
        _write_csv(out_dir / name, header, rows)
    manifest = {"command": "reproduce", "figure": args.figure,
                "version": __version__, "runs": runs, "seed": args.seed,
                "options": _options_doc(options), "records": records}
    if fig2:
        manifest["bootstrap_reps"] = args.bootstrap_reps
    _write_json(out_dir / "manifest.json", manifest)
    print(message)
    return EXIT_OK


# --- validate ------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    """Quick self-checks of the core invariants."""
    checks = []

    def check(name, fn):
        try:
            fn()
            checks.append((name, True, ""))
        except Exception as exc:  # report, keep going
            checks.append((name, False, str(exc)))

    grid = uniform_grid(5, 0.1, 0.5)

    def fixed_point():
        state = heralded_split_state(0.4, 2)
        matrix = build_matrix(grid, 2, 2)
        h = matrix.forward.dot(state.flat())
        q1 = em_step(state.flat(), matrix, h)
        assert np.max(np.abs(q1 - state.flat())) < 1e-12

    def click_closure():
        state = heralded_split_state(0.3, 2)
        probs = forward_click_probabilities(state, grid)
        assert np.max(np.abs(probs.table.sum(axis=1) - 1.0)) < 1e-12

    def mth_reference_closure():
        spec = ThermalSpec(1.0, 2.0)
        for eta in np.linspace(0.0, 1.0, 11):
            assert abs(sum(multithermal_click_reference(spec, 0.5, eta)) - 1.0) < 1e-12

    def split_mass():
        marg = multithermal_marginal(ThermalSpec(0.5), 6)
        joint = split_on_beamsplitter(marg, 0.5, 6)
        for s in range(7):
            total = sum(joint.values[n, s - n] for n in range(s + 1))
            assert abs(total - marg[s]) < 1e-14

    def error_zero():
        state = heralded_split_state(0.5, 2)
        matrix = build_matrix(grid, 2, 2)
        h = matrix.forward.dot(state.flat())
        assert total_error(state.flat(), matrix, h) == 0.0

    check("em fixed point on exact data", fixed_point)
    check("click probabilities sum to 1", click_closure)
    check("analytic click reference sums to 1", mth_reference_closure)
    check("beam splitter conserves total photon number", split_mass)
    check("total error vanishes on exact data", error_zero)

    failures = 0
    for name, ok, msg in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {msg}" if msg else ""))
        failures += 0 if ok else 1
    return EXIT_OK if failures == 0 else EXIT_NUMERICAL


# --- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clicktomo",
        description="Joint photon statistics from on/off clicks at many "
        "quantum efficiencies",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate synthetic click data")
    sim.add_argument("--preset", choices=sorted(PRESETS))
    sim.add_argument("--state", help="JSON file describing a custom state")
    sim.add_argument("--config", help="JSON config file; flags override it")
    sim.add_argument("--grid-k", type=int)
    sim.add_argument("--eta-min", type=float)
    sim.add_argument("--eta-max", type=float)
    sim.add_argument("--runs", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--tau", type=float)
    sim.add_argument("--mean-photons", type=float)
    sim.add_argument("--num-modes", type=float)
    sim.add_argument("--truncation", type=int)
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="reconstruct a distribution")
    rec.add_argument("record", help="record directory, JSON or CSV file")
    rec.add_argument("--truncation", type=int)
    rec.add_argument("--max-iters", type=int, default=StoppingConfig.max_iters)
    rec.add_argument("--patience", type=int, default=StoppingConfig.patience)
    rec.add_argument("--min-decrease", default=StoppingConfig.min_decrease,
                     help="significance floor for new error minima: a "
                     "number, or 'auto' to estimate from sampling noise")
    rec.add_argument("--reference",
                     help="'multithermal' or a state JSON file")
    rec.add_argument("--bootstrap-reps", type=int, default=0)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--out-dir", required=True)
    rec.set_defaults(func=cmd_reconstruct)

    rep = sub.add_parser("reproduce", help="emit plot-ready datasets")
    rep.add_argument("figure", choices=["fig2", "fig3"])
    rep.add_argument("--runs", type=int)
    rep.add_argument("--seed", type=int, default=0)
    rep.add_argument("--max-iters", type=int, default=StoppingConfig.max_iters)
    rep.add_argument("--bootstrap-reps", type=int, default=25)
    rep.add_argument("--out-dir", required=True)
    rep.set_defaults(func=cmd_reproduce)

    val = sub.add_parser("validate", help="run quick invariant checks")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DegenerateSupportError, NumericalError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ClicktomoError, OSError, MemoryError) as exc:
        # numpy's MemoryError names the bytes it could not allocate
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
