import argparse
import dataclasses
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import clicktomo
import clicktomo.cli as cli
from clicktomo.cli import EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, main
from clicktomo.errors import ClicktomoError
from clicktomo.solver import StoppingConfig


def run(args):
    return main(list(args))


def simulate_small(tmp_path, **overrides):
    out = tmp_path / "sim"
    args = [
        "simulate", "--preset", "heralded-balanced",
        "--grid-k", "6", "--eta-min", "0.05", "--eta-max", "0.3",
        "--runs", "20000", "--seed", "1",
        "--out-dir", str(out),
    ]
    for flag, value in overrides.items():
        args += [flag, str(value)]
    assert run(args) == EXIT_OK
    return out


def no_solve(*args, **kwargs):
    raise AssertionError("solved before the flags were checked")


class TestSimulate:
    def test_outputs_and_manifest(self, tmp_path):
        out = simulate_small(tmp_path)
        assert (out / "record.json").exists()
        assert (out / "record.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["preset"] == "heralded-balanced"
        assert manifest["grid"] == {
            "k": 6, "eta_min": 0.05, "eta_max": 0.3, "spacing": "uniform",
        }
        assert manifest["runs"] == 20000
        assert manifest["seed"] == 1
        assert manifest["state"]["tau"] == 0.5

    def test_preset_defaults(self, tmp_path):
        out = tmp_path / "sim"
        assert run([
            "simulate", "--preset", "heralded-unbalanced",
            "--runs", "1000", "--out-dir", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["grid"]["k"] == 34
        assert manifest["state"]["tau"] == 0.4

    def test_custom_state_file(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps(
            {"kind": "custom", "modes": 2, "values": [0.0, 0.6, 0.4, 0.0]}
        ))
        out = tmp_path / "sim"
        assert run([
            "simulate", "--state", str(state),
            "--grid-k", "4", "--eta-min", "0.1", "--eta-max", "0.4",
            "--runs", "1000", "--out-dir", str(out),
        ]) == EXIT_OK
        record = json.loads((out / "record.json").read_text())
        assert record["modes"] == 2
        assert len(record["etas"]) == 4

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "preset": "heralded-balanced", "grid_k": 5,
            "eta_min": 0.1, "eta_max": 0.3, "runs": 500,
        }))
        out = tmp_path / "sim"
        assert run([
            "simulate", "--config", str(config), "--runs", "800",
            "--out-dir", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["runs"] == 800  # flag beats config
        assert manifest["grid"]["k"] == 5

    def test_missing_state_is_config_error(self, tmp_path):
        assert run([
            "simulate", "--grid-k", "4", "--eta-min", "0.1",
            "--eta-max", "0.4", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG

    def test_state_file_without_grid_is_config_error(self, tmp_path, capsys):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"kind": "heralded", "tau": 0.5,
                                     "truncation": 3}))
        assert run([
            "simulate", "--state", str(state), "--eta-min", "0.1",
            "--eta-max", "0.4", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG
        assert "missing --grid-k" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_config_is_data_error(self, tmp_path):
        assert run([
            "simulate", "--preset", "heralded-balanced",
            "--config", str(tmp_path / "nope.json"),
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA

    def test_bad_config_json_is_config_error(self, tmp_path):
        config = tmp_path / "broken.json"
        config.write_text("{not json")
        assert run([
            "simulate", "--preset", "heralded-balanced",
            "--config", str(config), "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG

    def test_bad_grid_is_config_error(self, tmp_path):
        assert run([
            "simulate", "--preset", "heralded-balanced",
            "--grid-k", "4", "--eta-min", "0.4", "--eta-max", "0.1",
            "--runs", "100", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG


class TestReconstruct:
    def test_end_to_end(self, tmp_path):
        sim = simulate_small(tmp_path)
        out = tmp_path / "rec"
        assert run([
            "reconstruct", str(sim), "--max-iters", "2000",
            "--min-decrease", "auto", "--out-dir", str(out),
        ]) == EXIT_OK
        for name in ("trace.csv", "distribution.json", "distribution.csv",
                     "summary.json", "manifest.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        # balanced split: the ratio should be near 1
        assert 0.5 < float(summary["ratio_01_10"]) < 2.0
        dist = json.loads((out / "distribution.json").read_text())
        assert dist["truncation"] == 3  # taken from the manifest
        total = sum(float(v) for v in dist["values"])
        assert abs(total - 1.0) < 1e-9

    def test_bootstrap_outputs(self, tmp_path):
        sim = simulate_small(tmp_path)
        out = tmp_path / "rec"
        assert run([
            "reconstruct", str(sim), "--max-iters", "500",
            "--bootstrap-reps", "3", "--seed", "0", "--out-dir", str(out),
        ]) == EXIT_OK
        assert (out / "uncertainty.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["bootstrap_reps"] == 3
        assert summary["bootstrap_failed"] == []

    def test_reference_fidelity(self, tmp_path):
        out = tmp_path / "sim"
        assert run([
            "simulate", "--preset", "multithermal-split",
            "--grid-k", "8", "--runs", "50000", "--truncation", "4",
            "--mean-photons", "0.15",
            "--out-dir", str(out),
        ]) == EXIT_OK
        rec = tmp_path / "rec"
        assert run([
            "reconstruct", str(out), "--max-iters", "500",
            "--min-decrease", "auto", "--reference", "multithermal",
            "--out-dir", str(rec),
        ]) == EXIT_OK
        summary = json.loads((rec / "summary.json").read_text())
        fids = [float(f) for f in summary["reference_fidelities"]]
        assert len(fids) == 2
        assert all(0.9 < f <= 1.0 + 1e-12 for f in fids)

    def test_multithermal_reference_state_reruns_from_a_file(self, tmp_path):
        # the manifest records the record's split state at the
        # reconstruction's truncation; a run from a file holding that
        # document gives the same summary
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--preset", "multithermal-split", "--grid-k", "6",
            "--runs", "20000", "--truncation", "4", "--out-dir", str(sim),
        ]) == EXIT_OK
        state = json.loads((sim / "manifest.json").read_text())["state"]
        base = ["reconstruct", str(sim), "--max-iters", "300",
                "--truncation", "3"]
        first, again = tmp_path / "first", tmp_path / "again"
        assert run(base + ["--reference", "multithermal",
                           "--out-dir", str(first)]) == EXIT_OK
        resolved = json.loads((first / "manifest.json").read_text())[
            "reference_state"]
        assert resolved == dict(state, truncation=3)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(resolved))
        assert run(base + ["--reference", str(reference),
                           "--out-dir", str(again)]) == EXIT_OK
        assert ((again / "summary.json").read_bytes()
                == (first / "summary.json").read_bytes())

    @pytest.mark.parametrize("flag", ["--mean-photons", "--num-modes"])
    def test_reference_override_flags_are_gone(self, tmp_path, capsys, flag):
        # a multithermal reference with other values is a --reference FILE
        sim = simulate_small(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["reconstruct", str(sim), "--reference", "multithermal",
                 flag, "0.3", "--out-dir", str(tmp_path / "rec")])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_manifest_records_the_reference_state(self, tmp_path):
        # two reference documents at one path give different fidelities,
        # so the manifest records the document read; a run from the
        # recorded document gives the same summary
        sim = simulate_small(tmp_path)
        reference = tmp_path / "reference.json"
        outs = [tmp_path / name for name in ("a", "b", "again")]

        def solve(doc, out):
            reference.write_text(json.dumps(doc))
            assert run(["reconstruct", str(sim), "--max-iters", "300",
                        "--reference", str(reference),
                        "--out-dir", str(out)]) == EXIT_OK
            return json.loads((out / "manifest.json").read_text())

        manifests = [solve({"kind": "heralded", "tau": tau, "truncation": 3}, out)
                     for tau, out in zip((0.5, 0.3), outs)]
        assert manifests[0] != manifests[1]
        assert manifests[0]["reference_state"] == {
            "kind": "heralded", "tau": 0.5, "truncation": 3}
        solve(manifests[0]["reference_state"], outs[2])
        summaries = [(out / "summary.json").read_bytes() for out in outs]
        assert summaries[2] == summaries[0] != summaries[1]

    @pytest.mark.parametrize("kind", ["file", "multithermal"])
    def test_exact_state_scores_one_against_its_reference(
            self, tmp_path, monkeypatch, kind):
        # each mode of the exact state against that mode's reference
        # marginal: an unbalanced heralded file, and the record's own split
        if kind == "file":
            sim = simulate_small(tmp_path, **{"--tau": 0.4})
            reference = tmp_path / "reference.json"
            reference.write_text(json.dumps(
                {"kind": "heralded", "tau": 0.4, "truncation": 3}))
            flags = ["--reference", str(reference)]
        else:
            sim = tmp_path / "sim"
            assert run([
                "simulate", "--preset", "multithermal-split", "--grid-k", "4",
                "--runs", "1000", "--truncation", "4", "--out-dir", str(sim),
            ]) == EXIT_OK
            flags = ["--reference", "multithermal"]
        doc = json.loads((sim / "manifest.json").read_text())["state"]
        exact = clicktomo.state_from_json(doc)

        def solve(record, truncation, options=None, on_chunk=None):
            return clicktomo.ReconstructionTrace(
                epsilon=np.zeros(1), loglik=np.zeros(1),
                stop_reason="max-iters", best_iteration=0, n_iterations=1,
                final=exact, renorm_correction=0.0)

        monkeypatch.setattr(cli, "reconstruct", solve)
        out = tmp_path / "rec"
        assert run(["reconstruct", str(sim), *flags,
                    "--out-dir", str(out)]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        fids = [float(f) for f in summary["reference_fidelities"]]
        assert fids == pytest.approx([1.0, 1.0], rel=0, abs=1e-12)

    def test_multithermal_reference_needs_a_multithermal_record(
            self, tmp_path, monkeypatch, capsys):
        # a heralded record has no multithermal split to take tau from
        sim = simulate_small(tmp_path)
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        assert run([
            "reconstruct", str(sim), "--reference", "multithermal",
            "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert "multithermal split" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_reference_with_other_modes_is_config_error(self, tmp_path,
                                                       monkeypatch):
        sim = simulate_small(tmp_path)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(
            {"kind": "custom", "modes": 1, "values": [0.5, 0.5, 0.0, 0.0]}))
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        assert run([
            "reconstruct", str(sim), "--reference", str(reference),
            "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"kind": "heralded", "tau": 0.5, "truncation": 2},
         "reference state truncation 2 below the reconstruction's 3"),
        ({"kind": "custom", "modes": 2, "values": [0.0] * 24 + [1.0]},
         "mode 1 of the reference state has no mass up to the "
         "reconstruction's truncation 3"),
    ], ids=["truncation below", "no mass within the truncation"])
    def test_reference_that_cannot_score_is_refused_before_the_solve(
            self, tmp_path, monkeypatch, capsys, doc, message):
        sim = simulate_small(tmp_path)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        assert run([
            "reconstruct", str(sim), "--reference", str(reference),
            "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert f"{reference}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("key, value", [("mean_photons", "0.15"),
                                            ("num_modes", True)])
    def test_mistyped_manifest_reference_is_config_error(self, tmp_path,
                                                          key, value):
        # refused before the solve, so no output file is written
        out = tmp_path / "sim"
        assert run([
            "simulate", "--preset", "multithermal-split", "--grid-k", "4",
            "--runs", "1000", "--truncation", "2", "--out-dir", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["state"][key] = value
        (out / "manifest.json").write_text(json.dumps(manifest))
        assert run([
            "reconstruct", str(out), "--max-iters", "50",
            "--reference", "multithermal", "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("manifest, flags", [
        ({"state": [1]}, []),
        ([1], ["--reference", "multithermal"]),
    ])
    def test_manifest_not_an_object_is_config_error(self, tmp_path, capsys,
                                                    manifest, flags):
        sim = simulate_small(tmp_path)
        (sim / "manifest.json").write_text(json.dumps(manifest))
        assert run([
            "reconstruct", str(sim), "--max-iters", "50", *flags,
            "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert "must be JSON objects" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_reference_state_without_tau_is_config_error(self, tmp_path):
        sim = simulate_small(tmp_path)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps({"kind": "heralded", "truncation": 3}))
        assert run([
            "reconstruct", str(sim), "--max-iters", "50",
            "--reference", str(reference), "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert not (tmp_path / "rec").exists()

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "a state must be a JSON object, not [1, 2]"),
        ({"kind": "custom", "modes": 2, "values": {"a": 1}},
         "values must be a number list"),
        ({"kind": "custom", "modes": 2, "values": [0.0] * 15 + [True]},
         "values[15] must be a number, not True"),
    ], ids=["list document", "object values", "boolean value"])
    def test_mistyped_reference_state_is_refused_before_the_solve(
            self, tmp_path, monkeypatch, capsys, doc, message):
        sim = simulate_small(tmp_path)
        reference = tmp_path / "reference.json"
        reference.write_text(json.dumps(doc))
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        assert run([
            "reconstruct", str(sim), "--max-iters", "50",
            "--reference", str(reference), "--out-dir", str(tmp_path / "rec"),
        ]) == EXIT_CONFIG
        assert f"{reference}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "rec").exists()

    def test_zero_truncation_is_numerical_error(self, tmp_path, capsys):
        # at N = 0 the model holds only the vacuum and never clicks, while
        # the heralded data do
        sim = simulate_small(tmp_path)
        assert run([
            "reconstruct", str(sim), "--truncation", "0",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_NUMERICAL
        assert "truncation may be too small" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_missing_record_is_data_error(self, tmp_path):
        assert run([
            "reconstruct", str(tmp_path / "absent.json"),
            "--truncation", "2", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA

    @pytest.mark.parametrize("damage", ["no counts", "invalid JSON", "NaN eta",
                                        "zero runs", "zero modes",
                                        "fractional counts", "string count",
                                        "float modes", "boolean eta",
                                        "null eta"])
    def test_malformed_record_is_data_error(self, tmp_path, capsys, damage):
        sim = simulate_small(tmp_path)
        path = sim / "record.json"
        doc = json.loads(path.read_text())
        if damage == "no counts":
            del doc["counts"]
        elif damage == "NaN eta":
            doc["etas"][2] = "nan"
        elif damage == "zero runs":
            # consistent counts: only the missing runs are wrong
            doc["runs"][1] = 0
            doc["counts"][1] = [0] * len(doc["counts"][1])
        elif damage == "zero modes":
            doc["modes"] = 0
            doc["patterns"] = [""]
            doc["counts"] = [[runs] for runs in doc["runs"]]
        elif damage == "fractional counts":
            # consistent sums: only the type is wrong
            doc["counts"][0][0] += 0.9
            doc["runs"][0] += 0.9
        elif damage == "string count":
            doc["counts"][0][0] = str(doc["counts"][0][0])
        elif damage == "float modes":
            doc["modes"] = float(doc["modes"])
        elif damage == "boolean eta":
            # float(True) is 1.0, the grid's largest allowed efficiency
            doc["etas"][-1] = True
        elif damage == "null eta":
            doc["etas"][0] = None
        text = json.dumps(doc)
        path.write_text(text[:-10] if damage == "invalid JSON" else text)
        assert run([
            "reconstruct", str(sim), "--max-iters", "50",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA
        assert "malformed click record" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_matrix_over_byte_cap_is_data_error(self, tmp_path, capsys):
        # 2 modes at 34 efficiencies and N = 999: 102 x 10^6 matrix, which
        # with its back-projector needs 1.6 GB; refused before allocation
        sim = simulate_small(tmp_path, **{"--grid-k": 34})
        tracemalloc.start()
        try:
            code = run([
                "reconstruct", str(sim), "--truncation", "999",
                "--out-dir", str(tmp_path / "x"),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        assert "1632000000 bytes" in capsys.readouterr().err
        assert peak < 16 * 2**20

    def test_duplicate_csv_row_is_data_error(self, tmp_path, capsys):
        # a conflicting copy of the first row, placed before it: the
        # record is refused, not read with whichever row came last
        sim = simulate_small(tmp_path)
        path = sim / "record.csv"
        header, first, *rest = path.read_text().splitlines()
        eta, pattern, count, runs = first.split(",")
        copy = ",".join([eta, pattern, str(int(count) + 1), runs])
        path.write_text("\n".join([header, copy, first, *rest]) + "\n")
        assert run([
            "reconstruct", str(path), "--truncation", "3", "--max-iters", "50",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA
        assert "malformed click record" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("patterns", [
        ["00", "0x"], ["00", "011"], ["00", "+1"]],
        ids=["not binary", "too long", "signed"])
    def test_csv_pattern_must_be_a_run_of_binary_digits(self, tmp_path,
                                                        capsys, patterns):
        # int(pattern, 2) alone would read "+1" as pattern 01
        path = tmp_path / "record.csv"
        path.write_text("eta,pattern,count,runs\n" + "".join(
            f"0.5,{pattern},5,10\n" for pattern in patterns))
        assert run([
            "reconstruct", str(path), "--truncation", "1",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "malformed click record" in err and repr(patterns[1]) in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("kind", ["csv pattern", "json modes"])
    def test_huge_mode_count_is_refused_before_allocation(self, tmp_path,
                                                          capsys, kind):
        # a 40-character pattern declares a (1, 2^40) count table, and
        # "modes": 10^8 a 2^(10^8) pattern count: each is refused by size
        # or by its mode bound, in one line, before anything is allocated
        if kind == "csv pattern":
            path = tmp_path / "record.csv"
            path.write_text(f"eta,pattern,count,runs\n0.5,{'0' * 40},10,10\n")
            message = "more than the cap of"
        else:
            path = tmp_path / "record.json"
            path.write_text(json.dumps({
                "modes": 10**8, "etas": ["0.5"], "runs": [10],
                "counts": [[10]]}))
            message = "modes must be <= 64"
        tracemalloc.start()
        try:
            code = run([
                "reconstruct", str(path), "--truncation", "1",
                "--out-dir", str(tmp_path / "x"),
            ])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert peak < 2**20
        assert not (tmp_path / "x").exists()

    def test_size_cap_refusal_of_a_record_names_its_file(self, tmp_path,
                                                         capsys):
        # a well-formed 40-character pattern, refused by its size alone:
        # the message names the file, as a malformed record's does
        path = tmp_path / "record.csv"
        path.write_text(f"eta,pattern,count,runs\n0.5,{'0' * 40},10,10\n")
        assert run(["reconstruct", str(path), "--truncation", "1",
                    "--out-dir", str(tmp_path / "x")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: the 1099511627775 x 1 matrix")
        assert err.count("\n") == 1, err

    def test_csv_record_matches_json_record(self, tmp_path):
        sim = simulate_small(tmp_path)
        outs = {}
        for name, source in (("json", sim), ("csv", sim / "record.csv")):
            outs[name] = tmp_path / name
            assert run([
                "reconstruct", str(source), "--truncation", "3",
                "--max-iters", "300", "--bootstrap-reps", "2", "--seed", "0",
                "--out-dir", str(outs[name]),
            ]) == EXIT_OK
        for name in ("trace.csv", "distribution.json", "distribution.csv",
                     "summary.json", "uncertainty.csv"):
            assert ((outs["csv"] / name).read_bytes()
                    == (outs["json"] / name).read_bytes()), name
        manifests = [json.loads((outs[name] / "manifest.json").read_text())
                     for name in ("json", "csv")]
        # a directory brings its simulate manifest along, a CSV file does not
        assert manifests[0].pop("input_manifest")["command"] == "simulate"
        assert manifests[1].pop("input_manifest") is None
        assert manifests[0] == manifests[1]

    @pytest.mark.parametrize("reps", [1, -2])
    def test_bad_bootstrap_reps_refused_before_the_solve(self, tmp_path,
                                                         monkeypatch, capsys,
                                                         reps):
        sim = simulate_small(tmp_path)
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        monkeypatch.setattr(cli, "bootstrap_uncertainty", no_solve)
        assert run([
            "reconstruct", str(sim), "--bootstrap-reps", str(reps),
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG
        assert "--bootstrap-reps must be 0 or at least 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_zero_bootstrap_reps_means_no_bootstrap(self, tmp_path):
        sim = simulate_small(tmp_path)
        out = tmp_path / "rec"
        assert run([
            "reconstruct", str(sim), "--max-iters", "50",
            "--bootstrap-reps", "0", "--out-dir", str(out),
        ]) == EXIT_OK
        assert not (out / "uncertainty.csv").exists()
        assert "bootstrap_reps" not in json.loads(
            (out / "summary.json").read_text())

    def test_missing_truncation_is_config_error(self, tmp_path):
        sim = simulate_small(tmp_path)
        assert run([
            "reconstruct", str(sim / "record.json"),
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["lots", "nan", "inf"])
    def test_bad_min_decrease_is_config_error(self, tmp_path, value):
        sim = simulate_small(tmp_path)
        assert run([
            "reconstruct", str(sim), "--min-decrease", value,
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG
        assert not (tmp_path / "x").exists()

    def test_deterministic_bytes(self, tmp_path):
        sim1 = simulate_small(tmp_path / "a")
        sim2 = simulate_small(tmp_path / "b")
        outs = []
        for sim, name in ((sim1, "r1"), (sim2, "r2")):
            out = tmp_path / name
            assert run([
                "reconstruct", str(sim), "--max-iters", "300",
                "--bootstrap-reps", "2", "--seed", "0", "--out-dir", str(out),
            ]) == EXIT_OK
            outs.append(out)
        for name in ("trace.csv", "distribution.json", "distribution.csv",
                     "summary.json", "uncertainty.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_rerun_from_manifest_options(self, tmp_path):
        # no --seed: the manifest records the seed the bootstrap used
        sim = simulate_small(tmp_path)
        first = tmp_path / "r1"
        assert run([
            "reconstruct", str(sim), "--max-iters", "2000",
            "--min-decrease", "auto", "--bootstrap-reps", "2",
            "--out-dir", str(first),
        ]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert manifest["options"]["min_decrease"] == "auto"
        assert manifest["seed"] == 0
        argv = [
            "reconstruct", str(sim),
            "--truncation", str(manifest["truncation"]),
            "--bootstrap-reps", str(manifest["bootstrap_reps"]),
            "--seed", str(manifest["seed"]),
        ]
        for key, value in manifest["options"].items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        second = tmp_path / "r2"
        assert run(argv + ["--out-dir", str(second)]) == EXIT_OK
        assert ((second / "summary.json").read_bytes()
                == (first / "summary.json").read_bytes())


class TestReproduce:
    def test_fig2_small(self, tmp_path):
        out = tmp_path / "fig2"
        assert run([
            "reproduce", "fig2", "--runs", "2000", "--max-iters", "200",
            "--bootstrap-reps", "2", "--out-dir", str(out),
        ]) == EXIT_OK
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "joint_tau0.4_set0.csv", "joint_tau0.4_set1.csv",
            "joint_tau0.5_set0.csv", "joint_tau0.5_set1.csv",
        ]
        lines = (out / "joint_tau0.5_set0.csv").read_text().strip().splitlines()
        assert lines[0] == "n,k,rho,sigma"
        assert len(lines) == 1 + 16

    def test_fig3_small(self, tmp_path):
        out = tmp_path / "fig3"
        assert run([
            "reproduce", "fig3", "--runs", "5000", "--max-iters", "300",
            "--out-dir", str(out),
        ]) == EXIT_OK
        curve = (out / "fidelity_curve.csv").read_text().strip().splitlines()
        assert curve[0].startswith("iteration,fidelity_mean")
        assert len(curve) > 2
        overlay = (out / "frequency_overlay.csv").read_text().strip().splitlines()
        assert len(overlay) == 1 + 35


    def test_fig2_rerun_from_manifest(self, tmp_path):
        first = tmp_path / "fig2"
        assert run([
            "reproduce", "fig2", "--runs", "2000", "--max-iters", "200",
            "--bootstrap-reps", "2", "--seed", "3", "--out-dir", str(first),
        ]) == EXIT_OK
        manifest = json.loads((first / "manifest.json").read_text())
        assert (manifest["command"], manifest["figure"]) == ("reproduce", "fig2")
        tables = sorted(p.name for p in first.glob("*.csv"))
        assert sorted(manifest["records"]) == tables
        second = tmp_path / "again"
        assert run([
            "reproduce", "fig2", "--runs", str(manifest["runs"]),
            "--seed", str(manifest["seed"]),
            "--max-iters", str(manifest["options"]["max_iters"]),
            "--bootstrap-reps", str(manifest["bootstrap_reps"]),
            "--out-dir", str(second),
        ]) == EXIT_OK
        for name in tables:
            assert (second / name).read_bytes() == (first / name).read_bytes()
        # each table's record is the one simulate writes for its tau and seed
        for name, record in manifest["records"].items():
            tau, offset = name[len("joint_tau"):-len(".csv")].split("_set")
            sim = tmp_path / name
            assert run([
                "simulate", "--preset", "heralded-balanced", "--tau", tau,
                "--runs", "2000", "--seed", str(3 + int(offset)),
                "--out-dir", str(sim),
            ]) == EXIT_OK
            assert json.loads((sim / "manifest.json").read_text()) == record

    def test_fig3_manifest_records(self, tmp_path):
        out = tmp_path / "fig3"
        assert run([
            "reproduce", "fig3", "--runs", "5000", "--max-iters", "300",
            "--seed", "4", "--out-dir", str(out),
        ]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["options"]["min_decrease"] == "auto"
        assert "bootstrap_reps" not in manifest
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--preset", "multithermal-split", "--runs", "5000",
            "--seed", "4", "--out-dir", str(sim),
        ]) == EXIT_OK
        record = json.loads((sim / "manifest.json").read_text())
        assert manifest["records"] == {
            "fidelity_curve.csv": record, "frequency_overlay.csv": record,
        }

    @pytest.mark.parametrize("figure", ["fig2", "fig3"])
    def test_zero_runs_is_config_error(self, tmp_path, figure):
        assert run([
            "reproduce", figure, "--runs", "0", "--max-iters", "50",
            "--bootstrap-reps", "2", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG
        assert not (tmp_path / "x").exists()


    @pytest.mark.parametrize("reps", [0, 1, -2])
    def test_fig2_bad_bootstrap_reps_refused_before_the_solve(
            self, tmp_path, monkeypatch, capsys, reps):
        monkeypatch.setattr(cli, "reconstruct", no_solve)
        monkeypatch.setattr(cli, "bootstrap_uncertainty", no_solve)
        assert run([
            "reproduce", "fig2", "--runs", "2000", "--max-iters", "50",
            "--bootstrap-reps", str(reps), "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG
        assert "--bootstrap-reps must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()


OUTPUTS = ("trace.csv", "distribution.json", "distribution.csv",
           "summary.json", "uncertainty.csv", "manifest.json")


@pytest.fixture(params=["background", "inline"])
def bootstrap_path(request, monkeypatch):
    """Run the bootstrap in a forked child (two usable CPUs) or inline at
    the wait (one usable CPU)."""
    if request.param == "background" and not hasattr(os, "fork"):
        pytest.skip("no fork on this platform")
    cpus = {"background": {0, 1}, "inline": {0}}[request.param]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    return request.param


def wrap_bootstrap(monkeypatch, record_to: Path, fail: bool = False):
    """Replace ``cli.bootstrap_uncertainty`` by a closure, as the
    benchmark's tracer does; the closure writes the pid it ran in."""
    wrapped = cli.bootstrap_uncertainty

    def wrapper(*args, **kwargs):
        record_to.write_text(str(os.getpid()))
        if fail:
            raise ClicktomoError("only 1 of 2 bootstrap replicates succeeded")
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(cli, "bootstrap_uncertainty", wrapper)


# a driver that runs ``reconstruct`` with a bootstrap that announces its
# pid and then sleeps, so that the test can kill the driver meanwhile
DRIVER = """\
import os, sys, time
sys.path.insert(0, {src!r})
import clicktomo.cli as cli

def hold(*args, **kwargs):
    with open({pid_file!r} + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace({pid_file!r} + ".tmp", {pid_file!r})
    time.sleep(60)

os.sched_getaffinity = lambda pid: {{0, 1}}
cli.bootstrap_uncertainty = hold
cli.main(["reconstruct", {sim!r}, "--max-iters", "50",
          "--bootstrap-reps", "2", "--out-dir", {out!r}])
"""


def process_state(pid: int) -> str | None:
    """The state letter of a process (``Z`` for a zombie), or None once
    it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def assert_no_child_process():
    """This process has no child left, running or unreaped."""
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    left = "is still running" if pid == 0 else f"{pid} was left unreaped"
    raise AssertionError(f"a child process {left}")


class TestBootstrapBeside:
    """``reconstruct`` and ``reproduce fig2`` run the bootstrap beside the
    point solve; where it runs must change no output and no exit code."""

    def reconstruct(self, sim, out, *flags):
        return run(["reconstruct", str(sim), "--max-iters", "300",
                    "--bootstrap-reps", "3", "--seed", "5",
                    "--out-dir", str(out), *flags])

    def test_paths_write_identical_bytes(self, tmp_path, monkeypatch):
        sim = simulate_small(tmp_path)
        outs = {}
        for path, cpus in (("background", {0, 1}), ("inline", {0})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            outs[path] = tmp_path / path
            assert self.reconstruct(sim, outs[path]) == EXIT_OK
        for name in OUTPUTS:
            assert ((outs["background"] / name).read_bytes()
                    == (outs["inline"] / name).read_bytes()), name
        # and the same bytes as the library calls made in this process
        record = clicktomo.ClickRecord.from_json(sim / "record.json")
        options = clicktomo.StoppingConfig(max_iters=300, min_decrease=0.0)
        trace = clicktomo.reconstruct(record, 3, options=options)
        boot = clicktomo.bootstrap_uncertainty(record, 3, reps=3, seed=5,
                                               options=options)
        trace.final_to_json(tmp_path / "distribution.json")
        boot.to_csv(tmp_path / "uncertainty.csv", point=trace.final)
        for name in ("distribution.json", "uncertainty.csv"):
            assert ((tmp_path / name).read_bytes()
                    == (outs["inline"] / name).read_bytes()), name

    def test_wrapped_bootstrap_runs_in_a_child(self, tmp_path, monkeypatch,
                                               bootstrap_path):
        sim = simulate_small(tmp_path)
        plain = tmp_path / "plain"
        assert self.reconstruct(sim, plain) == EXIT_OK
        pid_file = tmp_path / "pid"
        wrap_bootstrap(monkeypatch, pid_file)
        wrapped = tmp_path / "wrapped"
        assert self.reconstruct(sim, wrapped) == EXIT_OK
        for name in OUTPUTS:
            assert (wrapped / name).read_bytes() == (plain / name).read_bytes()
        in_child = int(pid_file.read_text()) != os.getpid()
        assert in_child == (bootstrap_path == "background")
        assert_no_child_process()

    @pytest.mark.parametrize("failure, code", [
        ("degenerate point solve", EXIT_NUMERICAL),
        ("output directory is a file", EXIT_DATA),
    ])
    def test_point_solve_or_write_error_leaves_no_process(
            self, tmp_path, capsys, bootstrap_path, failure, code):
        sim = simulate_small(tmp_path)
        out = tmp_path / "x"
        flags = []
        if failure == "output directory is a file":
            out.write_text("")
        else:
            flags = ["--truncation", "0"]
        assert self.reconstruct(sim, out, *flags) == code
        # the point-solve error wins over the bootstrap's own failure
        assert "bootstrap" not in capsys.readouterr().err
        assert_no_child_process()
        if failure == "degenerate point solve":
            assert not out.exists()

    def test_interrupt_leaves_no_process(self, tmp_path, monkeypatch,
                                         bootstrap_path):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "reconstruct", interrupted)
        sim = simulate_small(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            self.reconstruct(sim, tmp_path / "x")
        assert_no_child_process()

    def test_bootstrap_error_comes_after_the_point_outputs(
            self, tmp_path, monkeypatch, capsys, bootstrap_path):
        sim = simulate_small(tmp_path)
        wrap_bootstrap(monkeypatch, tmp_path / "pid", fail=True)
        out = tmp_path / "rec"
        assert self.reconstruct(sim, out) == EXIT_DATA
        assert "only 1 of 2 bootstrap replicates" in capsys.readouterr().err
        written = sorted(p.name for p in out.iterdir())
        assert written == ["distribution.csv", "distribution.json", "trace.csv"]
        assert_no_child_process()

    def test_child_that_dies_without_a_result(self, tmp_path, monkeypatch,
                                              capsys):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def dies(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("the bootstrap ran inline")
            os._exit(9)

        def unpicklable(*args, **kwargs):  # a result the pipe cannot carry
            if os.getpid() == parent:
                raise AssertionError("the bootstrap ran inline")
            return lambda: None

        sim = simulate_small(tmp_path)
        for bootstrap, code in ((dies, 9), (unpicklable, 1)):
            monkeypatch.setattr(cli, "bootstrap_uncertainty", bootstrap)
            assert self.reconstruct(sim, tmp_path / f"rec{code}") == EXIT_DATA
            assert (f"exited with code {code} and no result"
                    in capsys.readouterr().err)
            assert_no_child_process()

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the parent-death signal is Linux only")
    def test_child_dies_with_a_killed_parent(self, tmp_path):
        sim = simulate_small(tmp_path)
        pid_file = tmp_path / "pid"
        script = DRIVER.format(src=str(Path(cli.__file__).parents[1]),
                               pid_file=str(pid_file), sim=str(sim),
                               out=str(tmp_path / "rec"))
        with open(tmp_path / "driver.err", "w") as err:
            driver = subprocess.Popen([sys.executable, "-c", script],
                                      stderr=err)
        child = None
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists():
                assert driver.poll() is None, (
                    (tmp_path / "driver.err").read_text())
                assert time.monotonic() < deadline, "the bootstrap never began"
                time.sleep(0.02)
            child = int(pid_file.read_text())
            assert child != driver.pid
            driver.kill()
            driver.wait()
            deadline = time.monotonic() + 5
            while process_state(child) not in (None, "Z"):
                assert time.monotonic() < deadline, (
                    "the child outlived its killed parent")
                time.sleep(0.05)
        finally:
            driver.kill()
            driver.wait()
            if child is not None and process_state(child) not in (None, "Z"):
                os.kill(child, signal.SIGKILL)

    def test_fig2_paths_write_identical_bytes(self, tmp_path, monkeypatch):
        outs = {}
        for path, cpus in (("background", {0, 1}), ("inline", {0})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            outs[path] = tmp_path / path
            assert run([
                "reproduce", "fig2", "--runs", "2000", "--max-iters", "100",
                "--bootstrap-reps", "2", "--out-dir", str(outs[path]),
            ]) == EXIT_OK
        names = sorted(p.name for p in outs["inline"].iterdir())
        assert len(names) == 5
        for name in names:
            assert ((outs["background"] / name).read_bytes()
                    == (outs["inline"] / name).read_bytes()), name
        assert_no_child_process()


class TestTraceBeside:
    """``reconstruct`` formats ``trace.csv`` in a forked child while the
    point solve runs; where it is formatted must change no byte and no
    exit code, and leave no process."""

    def reconstruct(self, sim, out, reps, *flags):
        # 5000 iterations: more rows than one block of the formatter
        return run(["reconstruct", str(sim), "--max-iters", "5000",
                    "--patience", "5000", "--bootstrap-reps", str(reps),
                    "--seed", "5", "--out-dir", str(out), *flags])

    @pytest.mark.parametrize("reps", [0, 2])
    def test_paths_write_the_bytes_of_to_csv(self, tmp_path, monkeypatch,
                                             bootstrap_path, reps):
        sim = simulate_small(tmp_path)
        to_csv = clicktomo.ReconstructionTrace.to_csv
        calls = []
        monkeypatch.setattr(clicktomo.ReconstructionTrace, "to_csv",
                            lambda *args: calls.append(args) or to_csv(*args))
        out = tmp_path / "rec"
        assert self.reconstruct(sim, out, reps) == EXIT_OK
        assert bool(calls) == (bootstrap_path == "inline")
        record = clicktomo.ClickRecord.from_json(sim / "record.json")
        options = clicktomo.StoppingConfig(max_iters=5000, patience=5000)
        to_csv(clicktomo.reconstruct(record, 3, options=options),
               tmp_path / "trace.csv")
        expected = (tmp_path / "trace.csv").read_bytes()
        assert expected.count(b"\n") == 5001
        assert (out / "trace.csv").read_bytes() == expected
        assert_no_child_process()

    def test_a_trace_of_one_block_is_formatted_inline(self, tmp_path,
                                                      monkeypatch):
        # a formatter would read a single block only after the solve
        def forks():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", forks)
        sim = simulate_small(tmp_path)
        out = tmp_path / "rec"
        assert run(["reconstruct", str(sim), "--max-iters", "4096",
                    "--patience", "4096", "--out-dir", str(out)]) == EXIT_OK
        record = clicktomo.ClickRecord.from_json(sim / "record.json")
        options = clicktomo.StoppingConfig(max_iters=4096, patience=4096)
        clicktomo.reconstruct(record, 3, options=options).to_csv(
            tmp_path / "trace.csv")
        assert ((out / "trace.csv").read_bytes()
                == (tmp_path / "trace.csv").read_bytes())

    def test_degenerate_point_solve_leaves_nothing(self, tmp_path, capsys,
                                                   bootstrap_path):
        sim = simulate_small(tmp_path)
        out = tmp_path / "x"
        assert self.reconstruct(sim, out, 0, "--truncation", "0") == EXIT_NUMERICAL
        assert "truncation may be too small" in capsys.readouterr().err
        assert not out.exists()
        assert_no_child_process()

    def test_interrupt_during_the_solve_leaves_no_process(
            self, tmp_path, monkeypatch, bootstrap_path):
        # the first chunk's rows reach the formatter, then the interrupt
        solve = cli.reconstruct

        def interrupted(*args, on_chunk=None, **kwargs):
            def chunk(eps, ll):
                if on_chunk is not None:
                    on_chunk(eps, ll)
                raise KeyboardInterrupt
            return solve(*args, on_chunk=chunk, **kwargs)

        monkeypatch.setattr(cli, "reconstruct", interrupted)
        sim = simulate_small(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            self.reconstruct(sim, tmp_path / "x", 0)
        assert not (tmp_path / "x").exists()
        assert_no_child_process()

    @pytest.mark.parametrize("failure, message", [
        ("dies", "exited with code 9 and no result"),
        ("raises", "No space left on device"),
    ])
    def test_formatter_failure_writes_no_trace(self, tmp_path, monkeypatch,
                                               capsys, failure, message):
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        parent = os.getpid()

        def fails(*args, **kwargs):
            if os.getpid() == parent:
                raise AssertionError("the trace was formatted inline")
            if failure == "dies":
                os._exit(9)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli._io, "write_trace_csv", fails)
        sim = simulate_small(tmp_path)
        out = tmp_path / "rec"
        assert self.reconstruct(sim, out, 0) == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (out / "trace.csv").exists()
        assert_no_child_process()

    def test_formatter_ends_while_the_bootstrap_runs(self, tmp_path,
                                                     monkeypatch):
        # the bootstrap child is forked before the formatter's pipe
        # exists, so it cannot hold the pipe open: trace.csv is written
        # while the bootstrap still waits for it
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "rec"
        bootstrap = cli.bootstrap_uncertainty

        def waits_for_the_trace(*args, **kwargs):
            deadline = time.monotonic() + 20
            while not (out / "trace.csv").exists():
                if time.monotonic() > deadline:
                    raise AssertionError("no trace.csv while the bootstrap ran")
                time.sleep(0.01)
            return bootstrap(*args, **kwargs)

        monkeypatch.setattr(cli, "bootstrap_uncertainty", waits_for_the_trace)
        sim = simulate_small(tmp_path)
        assert self.reconstruct(sim, out, 2) == EXIT_OK
        assert_no_child_process()


@pytest.mark.parametrize("command, values", [
    ("simulate", {"truncation": 3.5}),
    ("simulate", {"tau": "0.5"}),
    ("simulate", {"grid_k": "5"}),
    ("simulate", {"runs": True}),
    ("simulate", {"runs": 1000.7, "seed": 3.9}),
    ("simulate", {"preset": ["heralded-balanced"]}),
    ("simulate", {"state": 5}),
    ("simulate", {"state": {"kind": "heralded", "tau": 0.5, "truncation": 3.5}}),
    ("simulate", {"state": {"kind": "heralded", "tau": "0.5", "truncation": 3}}),
    ("simulate", {"state": {"kind": "custom", "modes": 2,
                            "values": [0, 0, 0, True]}}),
    ("simulate", {"state": {"kind": "custom", "modes": 2, "values": {"a": 1}}}),
    ("reconstruct", {"truncation": 3.7}),
], ids=["fractional truncation", "string tau", "string grid_k", "boolean runs",
        "fractional runs and seed", "list preset", "number state",
        "fractional state truncation", "string state tau",
        "boolean state value", "object state values",
        "fractional manifest truncation"])
def test_mistyped_value_is_config_error(tmp_path, command, values):
    # config-file and manifest values must have the JSON type their flags imply
    if command == "simulate":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "preset": "heralded-balanced", "grid_k": 5,
            "eta_min": 0.1, "eta_max": 0.3, "runs": 500, **values,
        }))
        argv = ["simulate", "--config", str(config)]
    else:
        sim = simulate_small(tmp_path)
        manifest = json.loads((sim / "manifest.json").read_text())
        manifest["state"].update(values)
        (sim / "manifest.json").write_text(json.dumps(manifest))
        argv = ["reconstruct", str(sim), "--max-iters", "50"]
    assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("modes, values", [(0, [1.0]), (-2, [0.25] * 4)],
                         ids=["modes 0", "modes -2"])
@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
def test_custom_state_with_modes_below_one_is_config_error(
        tmp_path, monkeypatch, capsys, command, modes, values):
    # a state of fewer than one mode is refused by name, as simulate's
    # --state and reconstruct's --reference read it
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"kind": "custom", "modes": modes,
                                 "values": values}))
    if command == "simulate":
        argv = ["simulate", "--state", str(state), "--grid-k", "5",
                "--eta-min", "0.1", "--eta-max", "0.3"]
    else:
        argv = ["reconstruct", str(simulate_small(tmp_path)),
                "--reference", str(state)]
        monkeypatch.setattr(cli, "reconstruct", no_solve)
    capsys.readouterr()
    assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert f"modes must be >= 1, got {modes}" in err
    assert not (tmp_path / "x").exists()


def test_custom_state_with_huge_mode_count_is_config_error(tmp_path, capsys):
    # a shape of 10^7 axes would take 80 MB before numpy refused it: the
    # mode bound refuses the count first
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"kind": "custom", "modes": 10**7,
                                 "values": [1.0]}))
    tracemalloc.start()
    try:
        code = run(["simulate", "--state", str(state), "--grid-k", "5",
                    "--eta-min", "0.1", "--eta-max", "0.3",
                    "--out-dir", str(tmp_path / "x")])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "modes must be <= 64" in err
    assert peak < 2**20
    assert not (tmp_path / "x").exists()


def simulate_custom(tmp_path, modes, values):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"kind": "custom", "modes": modes,
                                 "values": values}))
    out = tmp_path / "sim"
    assert run(["simulate", "--state", str(state), "--grid-k", "5",
                "--eta-min", "0.1", "--eta-max", "0.5", "--runs", "2000",
                "--out-dir", str(out)]) == EXIT_OK
    return out


def spy_builds(monkeypatch, values):
    """A list that gains one entry per tensor built from the number list
    ``values``, as :func:`clicktomo.state_from_json` builds a custom state;
    a solve's final distribution, built from an array, is not counted."""
    builds = []
    from_flat = clicktomo.JointDistribution.from_flat

    def spy(flat, *args, **kwargs):
        if isinstance(flat, list) and flat == values:
            builds.append(flat)
        return from_flat(flat, *args, **kwargs)

    monkeypatch.setattr(clicktomo.JointDistribution, "from_flat",
                        staticmethod(spy))
    return builds


def test_custom_state_is_built_once(monkeypatch):
    builds = spy_builds(monkeypatch, NINE_VALUES)
    state = cli._state({"kind": "custom", "modes": 2, "values": NINE_VALUES},
                       5, "state")
    assert (state.modes, state.truncation) == (2, 2)
    assert len(builds) == 1


@pytest.mark.parametrize("command", ["simulate", "reference", "manifest"])
def test_cli_builds_a_custom_state_once(tmp_path, monkeypatch, command):
    # simulate --state, reconstruct --reference FILE, and reconstruct
    # reading the truncation off a custom manifest state
    sim = simulate_custom(tmp_path, 2, NINE_VALUES)
    builds = spy_builds(monkeypatch, NINE_VALUES)
    if command == "simulate":
        simulate_custom(tmp_path, 2, NINE_VALUES)
    else:
        flags = (["--reference", str(tmp_path / "state.json"),
                  "--truncation", "2"] if command == "reference" else [])
        assert run(["reconstruct", str(sim), "--max-iters", "50", *flags,
                    "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    assert len(builds) == 1


@pytest.mark.parametrize("modes, values, truncation", [
    (1, [0.5, 0.3, 0.2], 2), (3, [0.125] * 8, 1)], ids=["1 mode", "3 modes"])
def test_custom_state_record_reconstructs_without_truncation(
        tmp_path, modes, values, truncation):
    # a custom state's values fix its truncation, which its document omits
    sim = simulate_custom(tmp_path, modes, values)
    assert "truncation" not in json.loads(
        (sim / "manifest.json").read_text())["state"]
    out = tmp_path / "out"
    assert run(["reconstruct", str(sim), "--max-iters", "50",
                "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["truncation"] \
        == truncation
    dist = json.loads((out / "distribution.json").read_text())
    assert (dist["modes"], dist["truncation"]) == (modes, truncation)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("values"), "missing 'values'"),
    (lambda doc: doc.update(values=[0.5, "0.3", 0.2]), "values[1]"),
    (lambda doc: doc.update(values=[0.5, 0.5], modes=2), "perfect 2-th power"),
], ids=["missing values", "string value", "wrong length"])
def test_malformed_custom_state_in_manifest_is_config_error(
        tmp_path, monkeypatch, capsys, edit, message):
    sim = simulate_custom(tmp_path, 1, [0.5, 0.3, 0.2])
    manifest = json.loads((sim / "manifest.json").read_text())
    edit(manifest["state"])
    (sim / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(cli, "reconstruct", no_solve)
    capsys.readouterr()
    assert run(["reconstruct", str(sim), "--out-dir",
                str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "custom state" in err and message in err, err
    assert not (tmp_path / "x").exists()


NINE_VALUES = [0.1, 0.1, 0.1, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1]  # truncation 2


def test_stray_manifest_truncation_of_a_custom_state_is_not_read(tmp_path):
    # a custom state's values fix its truncation, whatever else its
    # document carries
    sim = simulate_custom(tmp_path, 2, NINE_VALUES)
    manifest = json.loads((sim / "manifest.json").read_text())
    manifest["state"]["truncation"] = 6
    (sim / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    assert run(["reconstruct", str(sim), "--max-iters", "50",
                "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["truncation"] == 2
    assert json.loads((out / "distribution.json").read_text())["truncation"] \
        == 2


def test_manifest_state_of_unknown_kind_needs_truncation(tmp_path, capsys):
    sim = simulate_small(tmp_path)
    manifest = json.loads((sim / "manifest.json").read_text())
    manifest["state"] = {"kind": "other", "truncation": 3}
    (sim / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run(["reconstruct", str(sim), "--max-iters", "50",
                "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {sim}: no --truncation given, and the manifest's other "
        "state: unknown state kind 'other'\n")
    assert not (tmp_path / "x").exists()
    assert run(["reconstruct", str(sim), "--max-iters", "50",
                "--truncation", "3", "--out-dir", str(tmp_path / "x")]) \
        == EXIT_OK


@pytest.mark.parametrize("source, argv, kind, key", [
    ("flags", ["--grid-k", "5", "--eta-min", "0.1", "--eta-max", "0.5",
               "--runs", "2000", "--truncation", "6", "--tau", "0.9",
               "--mean-photons", "3"], "custom", "tau"),
    ("config", {"grid_k": 5, "eta_min": 0.1, "eta_max": 0.5,
                "truncation": 6}, "custom", "truncation"),
    ("flags", ["--preset", "heralded-balanced", "--mean-photons", "5",
               "--num-modes", "3"], "heralded", "mean_photons"),
    ("config", {"preset": "heralded-balanced", "num_modes": 3},
     "heralded", "num_modes"),
], ids=["custom flags", "custom config", "heralded flags", "heralded config"])
def test_override_the_state_does_not_read_is_refused(
        tmp_path, monkeypatch, capsys, source, argv, kind, key):
    # the manifest would record a value that the simulated state never read
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"kind": "custom", "modes": 2,
                                 "values": NINE_VALUES}))
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            argv if kind == "heralded" else dict(argv, state=str(state))))
        argv = ["--config", str(config)]
    elif kind == "custom":
        argv = ["--state", str(state), *argv]
    monkeypatch.setattr(cli, "sample_clicks", no_solve)
    assert run(["simulate", *argv, "--out-dir", str(tmp_path / "x")]) \
        == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: a {kind} state does not read {key} "
        f"(--{key.replace('_', '-')})\n")
    assert not (tmp_path / "x").exists()


def test_multithermal_state_reads_every_override(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--preset", "multithermal-split", "--grid-k", "5",
                "--runs", "1000", "--tau", "0.4", "--mean-photons", "0.2",
                "--num-modes", "500", "--truncation", "6",
                "--out-dir", str(out)]) == EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["state"] == {
        "kind": "multithermal_split", "tau": 0.4, "mean_photons": 0.2,
        "num_modes": 500.0, "truncation": 6}


@pytest.mark.parametrize("command", ["reconstruct", "reproduce fig2"])
def test_stop_options_default_to_stopping_config(tmp_path, monkeypatch,
                                                 command):
    # without stop flags, the solve gets StoppingConfig() and the manifest
    # records each of its fields; the solves here run a short budget
    seen = []

    def short(solve):
        def run_short(record, truncation, *args, options, **kwargs):
            seen.append(options)
            options = dataclasses.replace(options, max_iters=50)
            return solve(record, truncation, *args, options=options, **kwargs)
        return run_short

    for name in ("reconstruct", "bootstrap_uncertainty"):
        monkeypatch.setattr(cli, name, short(getattr(cli, name)))
    monkeypatch.setattr(cli, "_forks", lambda: False)  # bootstrap inline
    out = tmp_path / "out"
    argv = {
        "reconstruct": ["reconstruct", str(simulate_small(tmp_path)),
                        "--bootstrap-reps", "2"],
        "reproduce fig2": ["reproduce", "fig2", "--runs", "2000",
                           "--bootstrap-reps", "2"],
    }[command]
    assert run(argv + ["--out-dir", str(out)]) == EXIT_OK
    assert seen and all(options == StoppingConfig() for options in seen)
    assert json.loads((out / "manifest.json").read_text())["options"] == \
        dataclasses.asdict(StoppingConfig())


def test_config_that_is_not_an_object_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[1]")
    assert run(["simulate", "--config", str(config),
                "--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: config file must hold a JSON object\n")
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command", ["simulate", "simulate config",
                                     "reconstruct", "reproduce fig2",
                                     "reproduce fig3"])
def test_negative_seed_is_refused_before_any_solve(tmp_path, monkeypatch,
                                                   capsys, command):
    # numpy refuses a negative seed only where it seeds a generator: in
    # reconstruct that is the bootstrap, after the point solve's writes
    sim = simulate_small(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "heralded-balanced", "seed": -1}))
    for name in ("sample_clicks", "reconstruct", "bootstrap_uncertainty"):
        monkeypatch.setattr(cli, name, no_solve)
    argv = {
        "simulate": ["simulate", "--preset", "heralded-balanced", "--seed", "-1"],
        "simulate config": ["simulate", "--config", str(config)],
        "reconstruct": ["reconstruct", str(sim), "--bootstrap-reps", "2",
                        "--seed", "-1"],
        "reproduce fig2": ["reproduce", "fig2", "--seed", "-1"],
        "reproduce fig3": ["reproduce", "fig3", "--seed", "-1"],
    }[command]
    assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("command, runs", [("simulate", 0),
                                           ("simulate config", -3),
                                           ("reproduce fig2", 0)])
def test_runs_below_one_are_refused_before_the_state_is_built(
        tmp_path, monkeypatch, capsys, command, runs):
    # the sampler would refuse them too, under its own parameter name and
    # only after the state and the forward model are built
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "heralded-balanced", "runs": runs}))
    for name in ("state_from_json", "forward_click_probabilities",
                 "sample_clicks", "reconstruct", "bootstrap_uncertainty"):
        monkeypatch.setattr(cli, name, no_solve)
    argv = {
        "simulate": ["simulate", "--preset", "heralded-balanced", "--runs", "0"],
        "simulate config": ["simulate", "--config", str(config)],
        "reproduce fig2": ["reproduce", "fig2", "--runs", "0"],
    }[command]
    assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert f"--runs must be a positive integer, got {runs}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


INT64_MAX = np.iinfo(np.int64).max


@pytest.mark.parametrize("command", ["simulate", "simulate config",
                                     "reproduce fig2"])
def test_runs_beyond_int64_are_refused_before_the_state_is_built(
        tmp_path, monkeypatch, capsys, command):
    # the sampler would stop on them with an OverflowError
    runs = INT64_MAX + 1
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"preset": "heralded-balanced", "runs": runs}))
    for name in ("state_from_json", "forward_click_probabilities",
                 "sample_clicks", "reconstruct", "bootstrap_uncertainty"):
        monkeypatch.setattr(cli, name, no_solve)
    argv = {
        "simulate": ["simulate", "--preset", "heralded-unbalanced",
                     "--runs", str(runs)],
        "simulate config": ["simulate", "--config", str(config)],
        "reproduce fig2": ["reproduce", "fig2", "--runs", str(runs)],
    }[command]
    assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: --runs must be at most {INT64_MAX}, got {runs}\n")
    assert not (tmp_path / "x").exists()


class TestOversizedInputs:
    """An input whose detection matrix would pass a size cap is refused
    before its state or grid is built, and an allocation that fails is a
    data error: one line, exit code 3, no output and no child left. The
    builders fail the test if they are called, and each allocation asked
    for here, hundreds of PiB, exceeds any 64-bit address space, so it
    fails at once."""

    def refused(self, capsys, tmp_path, argv, message):
        assert run(argv + ["--out-dir", str(tmp_path / "x")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not (tmp_path / "x").exists()
        assert_no_child_process()

    @pytest.mark.parametrize("preset", ["heralded-unbalanced",
                                        "multithermal-split"])
    def test_simulate_state_over_the_column_cap(self, tmp_path, monkeypatch,
                                                capsys, preset):
        for name in ("state_from_json", "uniform_grid"):
            monkeypatch.setattr(cli, name, no_solve)
        self.refused(capsys, tmp_path, [
            "simulate", "--preset", preset, "--truncation", "100000"],
            "10000200001 columns exceeds the cap")

    def test_simulate_grid_over_the_byte_cap(self, tmp_path, monkeypatch,
                                             capsys):
        for name in ("state_from_json", "uniform_grid"):
            monkeypatch.setattr(cli, name, no_solve)
        self.refused(capsys, tmp_path, [
            "simulate", "--preset", "heralded-unbalanced",
            "--grid-k", "1000000000"],
            "the 3000000000 x 16 matrix and its back-projector need")

    def test_custom_state_grid_over_the_byte_cap(self, tmp_path, monkeypatch,
                                                 capsys):
        # a custom state lists its entries, so it is sized once built, and
        # still before its grid is
        state = tmp_path / "state.json"
        state.write_text(json.dumps({"kind": "custom", "modes": 2,
                                     "values": NINE_VALUES}))
        monkeypatch.setattr(cli, "uniform_grid", no_solve)
        self.refused(capsys, tmp_path, [
            "simulate", "--state", str(state), "--grid-k", "1000000000",
            "--eta-min", "0.1", "--eta-max", "0.5"],
            "the 3000000000 x 9 matrix and its back-projector need")

    @pytest.mark.parametrize("reference", ["multithermal", "file"])
    def test_reference_state_over_the_column_cap(self, tmp_path, monkeypatch,
                                                 capsys, reference):
        sim = simulate_small(tmp_path)
        if reference == "multithermal":
            assert run(["simulate", "--preset", "multithermal-split",
                        "--grid-k", "6", "--runs", "2000",
                        "--out-dir", str(sim)]) == EXIT_OK
            flags = ["--truncation", "100000"]
        else:  # a reference above the reconstruction's truncation
            ref = tmp_path / "ref.json"
            ref.write_text(json.dumps(
                {"kind": "heralded", "tau": 0.5, "truncation": 100000}))
            reference, flags = str(ref), []
        for name in ("state_from_json", "reconstruct", "bootstrap_uncertainty"):
            monkeypatch.setattr(cli, name, no_solve)
        self.refused(capsys, tmp_path, [
            "reconstruct", str(sim), "--reference", reference, *flags],
            "10000200001 columns exceeds the cap")

    def test_trace_that_cannot_be_allocated(self, tmp_path, monkeypatch,
                                            capsys):
        # two usable CPUs: the trace formatter is forked before the solve
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        sim = simulate_small(tmp_path)
        self.refused(capsys, tmp_path, [
            "reconstruct", str(sim), "--max-iters", str(10**17)],
            "error: Unable to allocate")

    def test_bootstrap_that_cannot_be_allocated(self, tmp_path, capsys,
                                                bootstrap_path):
        # its error reaches the parent after the point outputs are written
        sim = simulate_small(tmp_path)
        out = tmp_path / "out"
        assert run(["reconstruct", str(sim), "--max-iters", "50",
                    "--bootstrap-reps", str(10**15),
                    "--out-dir", str(out)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1
        assert not (out / "summary.json").exists()
        assert_no_child_process()

    def test_bootstrap_over_the_replicate_cap(self, tmp_path, monkeypatch,
                                              capsys, bootstrap_path):
        # the replicates' bytes are known from the sizes alone, so the
        # run is refused before the point solve writes anything
        sim = tmp_path / "sim"
        assert run(["simulate", "--preset", "heralded-unbalanced", "--seed",
                    "2", "--out-dir", str(sim)]) == EXIT_OK
        capsys.readouterr()
        for name in ("reconstruct", "bootstrap_uncertainty"):
            monkeypatch.setattr(cli, name, no_solve)
        self.refused(capsys, tmp_path, [
            "reconstruct", str(sim), "--max-iters", "50",
            "--bootstrap-reps", str(10**9)],
            "for 1000000000 bootstrap replicates, more than the cap of "
            "1073741824 bytes")


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert run(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_failing_check_is_reported(self, capsys, monkeypatch):
        def fails(*args):
            raise ValueError("no probabilities")

        monkeypatch.setattr(cli, "forward_click_probabilities", fails)
        assert run(["validate"]) == EXIT_NUMERICAL
        out = capsys.readouterr().out
        assert "[FAIL] click probabilities sum to 1: no probabilities\n" in out
        assert out.count("[PASS]") == 4


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


def test_version_is_written_once():
    # pyproject.toml reads the version from the package's __version__
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    if not pyproject.is_file():
        pytest.skip("no pyproject.toml in this checkout")
    doc = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "clicktomo.__version__"}


def test_readme_flag_table_matches_the_parser():
    # each row of the README's flag table names exactly the options of
    # that command's parser, and every command has a row
    readme = Path(__file__).resolve().parents[1] / "README.md"
    if not readme.is_file():
        pytest.skip("no README.md in this checkout")
    rows = {}
    for line in readme.read_text(encoding="utf-8").splitlines():
        row = re.fullmatch(r"\| `clicktomo( \w+)?` \| (.*) \|", line)
        if row:
            rows[(row[1] or "").strip()] = set(re.findall(r"`(--[\w-]+)`", row[2]))
    parser = cli.build_parser()
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    parsers = {"": parser, **commands.choices}
    assert sorted(rows) == sorted(parsers)
    for command, sub in parsers.items():
        options = {flag for action in sub._actions
                   for flag in action.option_strings
                   if flag not in ("-h", "--help")}
        assert rows[command] == options, command or "clicktomo"


def test_cli_import_loads_no_scipy():
    # start-up cost: a CLI process should load numpy and the standard
    # library only
    package_root = str(Path(clicktomo.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {package_root!r}); "
        "import clicktomo.cli; assert 'scipy' not in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_benchmark_hooks_resolve():
    # perfbench wraps package attributes by name and calls a few entry
    # points directly; a rename in the package would break it silently
    root = Path(__file__).resolve().parents[1]
    if not (root / "perfbench" / "tracing.py").is_file():
        pytest.skip("no perfbench/ in this checkout")
    package_root = str(Path(clicktomo.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path[:0] = [{package_root!r}, "
        f"{str(root / 'perfbench')!r}]\n"
        "import tracing\n"
        "tracing.install(tracing.Tracer('t'))\n"
        "import clicktomo\n"
        "from clicktomo import build_matrix, uniform_grid\n"
        "state = clicktomo.state_from_json(\n"
        "    {'kind': 'heralded', 'tau': 0.5, 'truncation': 3}).normalized()\n"
        "assert state.values.shape == (4, 4)\n"
        "build_matrix(uniform_grid(4, 0.1, 0.4), 2, 3)\n"
        # wrapped only if present: a renamed writer would drop the summary,
        # manifest and figure writes out of the cli.write span unnoticed
        "import clicktomo.cli as cli\n"
        "for attr in ('_write_json', '_write_csv'):\n"
        "    assert hasattr(getattr(cli, attr), '__wrapped__'), attr\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def test_bench_em_runs():
    # benchmarks/bench_em.py checks each kernel path against the loop
    # reference before it times it; a short run on the heralded size
    root = Path(__file__).resolve().parents[1]
    script = root / "benchmarks" / "bench_em.py"
    if not script.is_file():
        pytest.skip("no benchmarks/ in this checkout")
    package_root = str(Path(clicktomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run(
        [sys.executable, str(script), "--iters", "20", "--widths", "1", "2",
         "--sizes", "heralded"],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("EM kernel, heralded: 20 iterations")
    chunks = [line.split("chunk")[1].split()[0] for line in lines[1:]]
    assert chunks == ["321", "321", "160"]
