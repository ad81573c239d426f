import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import clicktomo
from clicktomo.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main


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

    def test_missing_record_is_data_error(self, tmp_path):
        assert run([
            "reconstruct", str(tmp_path / "absent.json"),
            "--truncation", "2", "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_DATA

    @pytest.mark.parametrize("damage", ["no counts", "invalid JSON", "NaN eta"])
    def test_malformed_record_is_data_error(self, tmp_path, capsys, damage):
        sim = simulate_small(tmp_path)
        path = sim / "record.json"
        doc = json.loads(path.read_text())
        if damage == "no counts":
            del doc["counts"]
        elif damage == "NaN eta":
            doc["etas"][2] = "nan"
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

    def test_missing_truncation_is_config_error(self, tmp_path):
        sim = simulate_small(tmp_path)
        assert run([
            "reconstruct", str(sim / "record.json"),
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG

    def test_bad_min_decrease_is_config_error(self, tmp_path):
        sim = simulate_small(tmp_path)
        assert run([
            "reconstruct", str(sim), "--min-decrease", "lots",
            "--out-dir", str(tmp_path / "x"),
        ]) == EXIT_CONFIG

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


class TestValidate:
    def test_all_checks_pass(self, capsys):
        assert run(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0


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
