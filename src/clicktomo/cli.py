"""Command-line driver: simulate, reconstruct, reproduce, validate.

Exit codes: 0 success, 2 configuration error, 3 data/file error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, _io
from .detection import forward_click_probabilities, uniform_grid
from .errors import ClicktomoError, DegenerateSupportError, NumericalError
from .metrics import bootstrap_uncertainty, fidelity, marginal
from .sampler import RNG_ALGORITHM, ClickRecord, sample_clicks
from .solver import StoppingConfig, reconstruct
from .states import (
    ThermalSpec,
    multithermal_click_reference,
    multithermal_marginal,
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
_fmt = _io.fmt


def _load_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc


def _merged(args: argparse.Namespace, keys: list[str]) -> dict:
    """Flag > config file > preset default, per key."""
    config = {}
    if getattr(args, "config", None):
        config = _load_json(Path(args.config))
        if not isinstance(config, dict):
            raise ConfigError("config file must hold a JSON object")
    preset = {}
    preset_name = getattr(args, "preset", None) or config.get("preset")
    if preset_name is not None:
        if preset_name not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset_name!r}; choose from {sorted(PRESETS)}"
            )
        preset = PRESETS[preset_name]
    merged = {"preset": preset_name}
    for key in keys:
        value = getattr(args, key, None)
        if value is None:
            value = config.get(key, preset.get(key))
        merged[key] = value
    return merged


# --- simulate ------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _merged(
        args,
        ["state", "grid_k", "eta_min", "eta_max", "runs", "seed",
         "tau", "mean_photons", "num_modes", "truncation"],
    )
    if cfg["state"] is None:
        raise ConfigError("select --preset or provide --state FILE")
    state_doc = cfg["state"]
    if isinstance(state_doc, str):
        state_doc = _load_json(Path(state_doc))
    state_doc = dict(state_doc)
    # targeted overrides of the preset state
    for key in ("tau", "mean_photons", "num_modes", "truncation"):
        if cfg[key] is not None:
            state_doc[key] = cfg[key]
    for key in ("grid_k", "eta_min", "eta_max"):
        if cfg[key] is None:
            raise ConfigError(f"missing --{key.replace('_', '-')}")
    runs = int(cfg["runs"] if cfg["runs"] is not None else 100_000)
    seed = int(cfg["seed"] if cfg["seed"] is not None else 0)

    try:
        state = state_from_json(state_doc)
        grid = uniform_grid(int(cfg["grid_k"]), cfg["eta_min"], cfg["eta_max"])
    except (ValueError, KeyError) as exc:
        raise ConfigError(str(exc)) from exc

    probs = forward_click_probabilities(state, grid)
    record = sample_clicks(probs, runs, seed)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record.to_json(out_dir / "record.json")
    record.to_csv(out_dir / "record.csv")
    manifest = {
        "command": "simulate",
        "version": __version__,
        "rng": RNG_ALGORITHM,
        "preset": cfg["preset"],
        "state": state_doc,
        "grid": {
            "k": int(cfg["grid_k"]),
            "eta_min": cfg["eta_min"],
            "eta_max": cfg["eta_max"],
            "spacing": "uniform",
        },
        "runs": runs,
        "seed": seed,
        "state_leakage": _fmt(state.leakage),
    }
    _write_json(out_dir / "manifest.json", manifest)
    print(f"wrote record for {len(grid)} efficiencies x {runs} runs to {out_dir}")
    return EXIT_OK


# --- reconstruct ---------------------------------------------------------


def _load_record(path: Path) -> tuple[ClickRecord, dict | None]:
    manifest = None
    if path.is_dir():
        manifest_path = path / "manifest.json"
        if manifest_path.exists():
            manifest = _load_json(manifest_path)
        path = path / "record.json"
    load = ClickRecord.from_csv if path.suffix == ".csv" else ClickRecord.from_json
    try:
        return load(path), manifest
    except (KeyError, TypeError, ValueError) as exc:
        raise ClicktomoError(
            f"{path}: malformed click record ({type(exc).__name__}: {exc})"
        ) from exc


def _reference_marginal(args, manifest, truncation) -> np.ndarray | None:
    ref = args.reference
    if ref is None:
        return None
    if ref == "multithermal":
        params = {}
        if manifest and manifest.get("state", {}).get("kind") == "multithermal_split":
            params = manifest["state"]
        mean_photons = args.mean_photons or params.get("mean_photons")
        num_modes = args.num_modes or params.get("num_modes", 1.0)
        if mean_photons is None:
            raise ConfigError(
                "--reference multithermal needs --mean-photons (not in manifest)"
            )
        spec = ThermalSpec(mean_photons, num_modes)
        return multithermal_marginal(spec, truncation)
    doc = _load_json(Path(ref))
    state = state_from_json(doc)
    if state.truncation < truncation:
        raise ConfigError("reference state truncation below reconstruction")
    return marginal(state, 0)[: truncation + 1]


def _parse_min_decrease(value) -> float | None:
    if value is None:
        return 0.0
    if value == "auto":
        return None
    try:
        return float(value)
    except ValueError as exc:
        raise ConfigError("--min-decrease takes a number or 'auto'") from exc


def cmd_reconstruct(args: argparse.Namespace) -> int:
    record, manifest = _load_record(Path(args.record))
    truncation = args.truncation
    if truncation is None and manifest:
        truncation = manifest.get("state", {}).get("truncation")
    if truncation is None:
        raise ConfigError("--truncation is required (not found in a manifest)")
    truncation = int(truncation)
    options = StoppingConfig(
        max_iters=args.max_iters,
        patience=args.patience,
        eps_threshold=args.eps_threshold,
        min_decrease=_parse_min_decrease(args.min_decrease),
    )
    trace = reconstruct(record, truncation, options=options)
    seed = args.seed or 0

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace.to_csv(out_dir / "trace.csv")
    trace.final_to_json(out_dir / "distribution.json")
    trace.final_to_csv(out_dir / "distribution.csv")

    summary = {
        "stop_reason": trace.stop_reason,
        "best_iteration": trace.best_iteration,
        "n_iterations": trace.n_iterations,
        "epsilon_min": _fmt(trace.epsilon[trace.best_iteration]),
        "renorm_correction": _fmt(trace.renorm_correction),
        "marginals": [
            [_fmt(v) for v in marginal(trace.final, m)]
            for m in range(trace.final.modes)
        ],
    }
    if trace.final.modes == 2:
        rho01 = float(trace.final.values[0, 1])
        rho10 = float(trace.final.values[1, 0])
        summary["rho01"] = _fmt(rho01)
        summary["rho10"] = _fmt(rho10)
        if rho10 > 0:
            summary["ratio_01_10"] = _fmt(rho01 / rho10)

    boot = None
    if args.bootstrap_reps:
        boot = bootstrap_uncertainty(
            record, truncation, reps=args.bootstrap_reps,
            seed=seed, options=options,
        )
        boot.to_csv(out_dir / "uncertainty.csv", point=trace.final)
        summary["bootstrap_reps"] = boot.reps
        summary["bootstrap_failed"] = boot.failed
        if trace.final.modes == 2:
            summary["sigma01"] = _fmt(boot.sigma[0, 1])
            summary["sigma10"] = _fmt(boot.sigma[1, 0])

    reference = _reference_marginal(args, manifest, truncation)
    if reference is not None:
        summary["reference_fidelities"] = [
            _fmt(fidelity(marginal(trace.final, m), reference))
            for m in range(trace.final.modes)
        ]
    _write_json(out_dir / "summary.json", summary)
    run_manifest = {
        "command": "reconstruct",
        "version": __version__,
        "truncation": truncation,
        "options": {
            "max_iters": options.max_iters,
            "patience": options.patience,
            "eps_threshold": options.eps_threshold,
            "min_decrease": (
                "auto" if options.min_decrease is None else options.min_decrease
            ),
        },
        "bootstrap_reps": args.bootstrap_reps,
        "seed": seed,
        "reference": args.reference,
        "input_manifest": manifest,
    }
    _write_json(out_dir / "manifest.json", run_manifest)
    print(
        f"stopped after {trace.n_iterations} iterations ({trace.stop_reason}), "
        f"best at {trace.best_iteration}"
    )
    if "ratio_01_10" in summary:
        line = f"rho01/rho10 = {float(summary['ratio_01_10']):.4f}"
        if boot is not None and float(summary["rho10"]) > 0:
            rho10 = float(summary["rho10"])
            rho01 = float(summary["rho01"])
            s01 = float(boot.sigma[0, 1])
            s10 = float(boot.sigma[1, 0])
            sigma_ratio = abs(rho01 / rho10) * np.hypot(
                s01 / rho01 if rho01 else 0.0, s10 / rho10
            )
            line += f" +- {sigma_ratio:.4f}"
        print(line)
    if reference is not None:
        fids = ", ".join(f"{float(f):.5f}" for f in summary["reference_fidelities"])
        print(f"marginal fidelities vs reference: {fids}")
    return EXIT_OK


# --- reproduce -----------------------------------------------------------


def _preset_record(name: str, runs: int, seed: int, **state):
    """The state document of preset ``name`` with ``state`` overrides, and
    a record of ``runs`` trials per efficiency sampled from it."""
    preset = PRESETS[name]
    state_doc = dict(preset["state"], **state)
    grid = uniform_grid(preset["grid_k"], preset["eta_min"], preset["eta_max"])
    probs = forward_click_probabilities(state_from_json(state_doc), grid)
    return state_doc, sample_clicks(probs, runs, seed)


def cmd_reproduce(args: argparse.Namespace) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = args.seed if args.seed is not None else 0
    if args.figure == "fig2":
        runs = args.runs or 100_000
        # two seeds stand in for the two spectral-filter variants
        options = StoppingConfig(max_iters=args.max_iters)
        for tau in (0.5, 0.4):
            for offset in (0, 1):
                state, record = _preset_record("heralded-balanced", runs,
                                               seed + offset, tau=tau)
                trace = reconstruct(record, state["truncation"], options=options)
                boot = bootstrap_uncertainty(
                    record, state["truncation"], reps=args.bootstrap_reps,
                    seed=seed + offset, options=options,
                )
                name = f"joint_tau{tau:.1f}_set{offset}.csv"
                _write_csv(out_dir / name, ["n", "k", "rho", "sigma"],
                           _io.tensor_rows(trace.final.values, boot.sigma))
        print(f"wrote 4 joint-distribution tables to {out_dir}")
        return EXIT_OK

    # fig3: fidelity/epsilon curves and the frequency overlay
    runs = args.runs or 200_000
    state_doc, record = _preset_record("multithermal-split", runs, seed)
    truncation = state_doc["truncation"]
    spec = ThermalSpec(state_doc["mean_photons"], state_doc["num_modes"])
    tau = state_doc["tau"]
    trace = reconstruct(
        record, truncation,
        options=StoppingConfig(
            store_every=1, min_decrease=None, max_iters=args.max_iters
        ),
    )
    reference = multithermal_marginal(spec, truncation)
    rows = []
    for i, it in enumerate(trace.stored_iterations):
        q = trace.iterates[i]
        dist = q.reshape(truncation + 1, truncation + 1)
        total = dist.sum()
        f1 = fidelity(dist.sum(axis=1) / total, reference)
        f2 = fidelity(dist.sum(axis=0) / total, reference)
        rows.append(
            [int(it), _fmt(0.5 * (f1 + f2)), _fmt(f1), _fmt(f2),
             _fmt(trace.epsilon[it])]
        )
    _write_csv(
        out_dir / "fidelity_curve.csv",
        ["iteration", "fidelity_mean", "fidelity_mode1", "fidelity_mode2",
         "epsilon"],
        rows,
    )
    freq = record.frequency_table()
    overlay = []
    for nu, eta in enumerate(record.grid.etas):
        p00, p01, p10, _ = multithermal_click_reference(spec, tau, float(eta))
        overlay.append(
            [_fmt(eta), _fmt(freq[nu, 0]), _fmt(freq[nu, 1]), _fmt(freq[nu, 2]),
             _fmt(p00), _fmt(p01), _fmt(p10), int(record.runs[nu])]
        )
    _write_csv(
        out_dir / "frequency_overlay.csv",
        ["eta", "f00", "f01", "f10", "p00_ref", "p01_ref", "p10_ref", "runs"],
        overlay,
    )
    print(
        f"wrote fidelity curve ({trace.n_iterations} iterations) and "
        f"frequency overlay to {out_dir}"
    )
    return EXIT_OK


# --- validate ------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    """Quick self-checks of the core invariants."""
    from .detection import build_matrix
    from .solver import em_step, total_error
    from .states import heralded_split_state, split_on_beamsplitter

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
        h = matrix.rows @ state.flat()
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
        h = matrix.rows @ state.flat()
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
    sim.add_argument("--grid-k", type=int, dest="grid_k")
    sim.add_argument("--eta-min", type=float, dest="eta_min")
    sim.add_argument("--eta-max", type=float, dest="eta_max")
    sim.add_argument("--runs", type=int)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--tau", type=float)
    sim.add_argument("--mean-photons", type=float, dest="mean_photons")
    sim.add_argument("--num-modes", type=float, dest="num_modes")
    sim.add_argument("--truncation", type=int)
    sim.add_argument("--out-dir", required=True, dest="out_dir")
    sim.set_defaults(func=cmd_simulate)

    rec = sub.add_parser("reconstruct", help="reconstruct a distribution")
    rec.add_argument("record", help="record directory, JSON or CSV file")
    rec.add_argument("--truncation", type=int)
    rec.add_argument("--max-iters", type=int, default=100_000, dest="max_iters")
    rec.add_argument("--patience", type=int, default=200)
    rec.add_argument("--eps-threshold", type=float, default=0.0,
                     dest="eps_threshold")
    rec.add_argument("--min-decrease", dest="min_decrease",
                     help="significance floor for new error minima: a "
                     "number, or 'auto' to estimate from sampling noise")
    rec.add_argument("--reference",
                     help="'multithermal' or a state JSON file")
    rec.add_argument("--mean-photons", type=float, dest="mean_photons")
    rec.add_argument("--num-modes", type=float, dest="num_modes")
    rec.add_argument("--bootstrap-reps", type=int, default=0,
                     dest="bootstrap_reps")
    rec.add_argument("--seed", type=int)
    rec.add_argument("--out-dir", required=True, dest="out_dir")
    rec.set_defaults(func=cmd_reconstruct)

    rep = sub.add_parser("reproduce", help="emit plot-ready datasets")
    rep.add_argument("figure", choices=["fig2", "fig3"])
    rep.add_argument("--runs", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--max-iters", type=int, default=100_000, dest="max_iters")
    rep.add_argument("--bootstrap-reps", type=int, default=25,
                     dest="bootstrap_reps")
    rep.add_argument("--out-dir", required=True, dest="out_dir")
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
    except (ClicktomoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
