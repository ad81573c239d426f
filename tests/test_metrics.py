import csv
import math

import numpy as np
import pytest

from clicktomo import (
    ClickRecord,
    EfficiencyGrid,
    JointDistribution,
    ReconstructionTrace,
    StoppingConfig,
    bootstrap_uncertainty,
    fidelity,
    forward_click_probabilities,
    heralded_split_state,
    marginal,
    reconstruct,
    sample_clicks,
    uniform_grid,
)
from clicktomo._io import TRACE_BLOCK_ROWS, fmt, write_json
from clicktomo.errors import ClicktomoError, NumericalError
from clicktomo.solver import BootstrapResult


class TestMarginal:
    def test_heralded_marginals(self):
        d = heralded_split_state(0.4, 2)
        np.testing.assert_allclose(marginal(d, 0), [0.4, 0.6, 0.0])
        np.testing.assert_allclose(marginal(d, 1), [0.6, 0.4, 0.0])

    def test_brute_force_random(self, rng):
        v = rng.random((4, 4))
        v /= v.sum()
        d = JointDistribution(v)
        for mode in (0, 1):
            expected = np.array([
                sum(v[n, k] if mode == 0 else v[k, n] for k in range(4))
                for n in range(4)
            ])
            np.testing.assert_allclose(marginal(d, mode), expected, atol=1e-14)

    def test_three_mode(self, rng):
        v = rng.random((3, 3, 3))
        v /= v.sum()
        d = JointDistribution(v)
        np.testing.assert_allclose(marginal(d, 1), v.sum(axis=(0, 2)), atol=1e-14)

    def test_joint_array_of_any_mass(self, rng):
        # a joint array, such as an EM iterate, need not have unit mass
        v = rng.random((4, 4))
        d = JointDistribution(v / v.sum())
        for mode in (0, 1):
            np.testing.assert_array_equal(marginal(v / v.sum(), mode),
                                          marginal(d, mode))
        np.testing.assert_array_equal(marginal(v, 1), v.sum(axis=0))
        with pytest.raises(IndexError):
            marginal(v, 2)

    def test_mode_out_of_range(self, balanced_state):
        with pytest.raises(IndexError):
            marginal(balanced_state, 2)


class TestFidelity:
    def test_identical(self, rng):
        p = rng.random(8)
        p /= p.sum()
        assert fidelity(p, p) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert fidelity([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # sqrt(0.9*0.5) + sqrt(0.1*0.5) = 0.8944...
        val = fidelity([0.9, 0.1], [0.5, 0.5])
        assert val == pytest.approx(math.sqrt(0.45) + math.sqrt(0.05), abs=1e-12)

    def test_symmetric(self, rng):
        p = rng.random(6)
        p /= p.sum()
        q = rng.random(6)
        q /= q.sum()
        assert fidelity(p, q) == pytest.approx(fidelity(q, p), abs=1e-14)

    def test_scales_each_input_to_unit_mass(self):
        assert fidelity([2.0, 0.0], [4.0, 0.0]) == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fidelity([1.0, -0.1], [0.5, 0.5])

    def test_rejects_zero_mass(self):
        with pytest.raises(ValueError):
            fidelity([0.0, 0.0], [0.5, 0.5])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fidelity([1.0], [0.5, 0.5])


class TestBootstrap:
    def test_deterministic_record_zero_sigma(self):
        # a vacuum record resamples to itself: all replicates identical
        grid = uniform_grid(4, 0.1, 0.4)
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        probs = forward_click_probabilities(JointDistribution(vac), grid)
        rec = sample_clicks(probs, 1000, seed=0)
        res = bootstrap_uncertainty(
            rec, 1, reps=5, seed=0, options=StoppingConfig(max_iters=200)
        )
        assert res.sigma.max() == pytest.approx(0.0, abs=1e-12)
        assert res.failed == []

    def test_sigma_shrinks_with_statistics(self):
        grid = uniform_grid(6, 0.1, 0.5)
        probs = forward_click_probabilities(heralded_split_state(0.5, 2), grid)
        opts = StoppingConfig(max_iters=2000, min_decrease=None)
        sig = []
        for runs in (2000, 200_000):
            rec = sample_clicks(probs, runs, seed=17)
            res = bootstrap_uncertainty(rec, 2, reps=20, seed=1, options=opts)
            sig.append(res.sigma[0, 1])
        assert sig[1] < sig[0]

    def test_matches_fresh_simulation_spread(self):
        # bootstrap sigma should agree with the spread over independent
        # simulated data sets within a factor of 2
        grid = uniform_grid(6, 0.1, 0.5)
        probs = forward_click_probabilities(heralded_split_state(0.5, 2), grid)
        runs = 20_000
        opts = StoppingConfig(max_iters=3000, min_decrease=None)
        rec = sample_clicks(probs, runs, seed=29)
        res = bootstrap_uncertainty(rec, 2, reps=30, seed=2, options=opts)

        finals = []
        for seed in range(30):
            r = sample_clicks(probs, runs, seed=1000 + seed)
            finals.append(reconstruct(r, 2, opts).final.values)
        true_sigma = np.std(np.stack(finals), axis=0, ddof=1)
        # compare on the entries that actually vary
        mask = true_sigma > 1e-4
        assert mask.any()
        ratio = res.sigma[mask] / true_sigma[mask]
        # entrywise within a factor 3, typical entry within a factor 2
        assert np.all(ratio > 1 / 3) and np.all(ratio < 3.0)
        med = float(np.median(ratio))
        assert 0.5 < med < 2.0

    def test_reps_validation(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 1000, seed=0)
        with pytest.raises(ValueError):
            bootstrap_uncertainty(rec, 3, reps=1)

    def test_deterministic_in_seed(self):
        grid = uniform_grid(4, 0.1, 0.4)
        probs = forward_click_probabilities(heralded_split_state(0.5, 2), grid)
        rec = sample_clicks(probs, 5000, seed=3)
        opts = StoppingConfig(max_iters=500)
        a = bootstrap_uncertainty(rec, 2, reps=5, seed=9, options=opts)
        b = bootstrap_uncertainty(rec, 2, reps=5, seed=9, options=opts)
        np.testing.assert_array_equal(a.sigma, b.sigma)

    def test_failed_replicate_reported_rest_match_serial_solves(self):
        # one efficiency, three runs: a replicate that puts all three runs
        # into the all-click pattern has h = 0, and its solve loses all mass
        rec = ClickRecord(
            grid=EfficiencyGrid(np.array([0.3])), modes=2,
            counts=np.array([[1, 1, 0, 1]]), runs=np.array([3]),
        )
        opts = StoppingConfig(max_iters=500)
        res = bootstrap_uncertainty(rec, 1, reps=10, seed=2, options=opts)
        assert res.failed == [8]
        finals = []
        for rep in range(10):
            rng = np.random.default_rng([2, rep])
            counts = rng.multinomial(3, rec.frequency_table()[0])[None, :]
            resampled = ClickRecord(grid=rec.grid, modes=2, counts=counts,
                                    runs=rec.runs)
            if rep == 8:
                with pytest.raises(NumericalError):
                    reconstruct(resampled, 1, opts)
                continue
            finals.append(reconstruct(resampled, 1, opts).final.values)
        serial = np.std(np.stack(finals), axis=0, ddof=1)
        assert serial.max() > 0.1
        np.testing.assert_allclose(res.sigma, serial, rtol=0, atol=1e-13)

    def test_every_replicate_failing_is_an_error(self):
        # at N = 0 the model never clicks, so every replicate of a
        # clicking record ends degenerate
        grid = uniform_grid(4, 0.1, 0.4)
        probs = forward_click_probabilities(heralded_split_state(0.5, 2), grid)
        rec = sample_clicks(probs, 1000, seed=3)
        with pytest.raises(ClicktomoError, match=(
                "^only 0 of 2 bootstrap replicates succeeded$")):
            bootstrap_uncertainty(rec, 0, reps=2, seed=0)

    def test_csv_output(self, tmp_path):
        grid = uniform_grid(4, 0.1, 0.4)
        probs = forward_click_probabilities(heralded_split_state(0.5, 1), grid)
        rec = sample_clicks(probs, 5000, seed=3)
        res = bootstrap_uncertainty(
            rec, 1, reps=3, seed=0, options=StoppingConfig(max_iters=200)
        )
        point = reconstruct(rec, 1, StoppingConfig(max_iters=200)).final
        path = tmp_path / "sigma.csv"
        res.to_csv(path, point)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n1,n2,rho,sigma"
        assert len(lines) == 1 + 4


def write_reference_tables(directory, trace, sigma):
    """distribution.json, distribution.csv and uncertainty.csv of ``trace``
    and ``sigma`` as a per-entry formatter writes them: ``fmt`` on each
    numpy scalar, and a csv.writer row per index in np.ndindex order."""
    point = trace.final
    write_json(directory / "distribution.json", {
        "modes": point.modes,
        "truncation": point.truncation,
        "values": [fmt(v) for v in point.flat()],
        "renorm_correction": fmt(trace.renorm_correction),
        "stop_reason": trace.stop_reason,
        "best_iteration": trace.best_iteration,
        "n_iterations": trace.n_iterations,
    })
    header = [f"n{j + 1}" for j in range(point.modes)]
    for name, columns, tensors in (
        ("distribution.csv", ["rho"], [point.values]),
        ("uncertainty.csv", ["rho", "sigma"], [point.values, sigma]),
    ):
        with open(directory / name, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + columns)
            for idx in np.ndindex(point.values.shape):
                writer.writerow(list(idx) + [repr(float(t[idx])) for t in tensors])


def assert_tables_match_reference(tmp_path, point, sigma):
    trace = ReconstructionTrace(
        epsilon=np.zeros(1), loglik=np.zeros(1), stop_reason="max-iters",
        best_iteration=0, n_iterations=1, final=point, renorm_correction=0.0,
    )
    trace.final_to_json(tmp_path / "distribution.json")
    trace.final_to_csv(tmp_path / "distribution.csv")
    BootstrapResult(sigma=sigma, reps=2, failed=[]).to_csv(
        tmp_path / "uncertainty.csv", point
    )
    reference = tmp_path / "reference"
    reference.mkdir()
    write_reference_tables(reference, trace, sigma)
    for name in ("distribution.json", "distribution.csv", "uncertainty.csv"):
        assert (tmp_path / name).read_bytes() == (reference / name).read_bytes()


def test_photon_number_tables_at_three_modes(tmp_path, rng):
    values = rng.random((3, 3, 3))
    assert_tables_match_reference(tmp_path, JointDistribution(values / values.sum()),
                                  rng.random((3, 3, 3)))


def test_photon_number_tables_of_more_than_one_block(tmp_path, rng):
    # N = 70, a factored pair: 5041 rows, more than one block of the
    # table writer; entries of every exponent, zeros and subnormals
    values = rng.random((71, 71)) * 10.0 ** -rng.integers(0, 300, (71, 71))
    values[0, :3] = [0.0, 5e-324, 1e-310]
    sigma = rng.random((71, 71)) * 10.0 ** rng.integers(-320, 20, (71, 71))
    sigma[-1, -3:] = [0.0, 1e16, 1e-07]
    assert 5041 > TRACE_BLOCK_ROWS
    assert_tables_match_reference(tmp_path, JointDistribution(values / values.sum()),
                                  sigma)
