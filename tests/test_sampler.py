import numpy as np
import pytest

from clicktomo import (
    ClickRecord,
    EfficiencyGrid,
    JointDistribution,
    forward_click_probabilities,
    frequencies,
    sample_clicks,
)


def vacuum_probs(grid):
    vac = np.zeros((2, 2))
    vac[0, 0] = 1.0
    return forward_click_probabilities(JointDistribution(vac), grid)


class TestSampleClicks:
    def test_vacuum_counts(self, small_grid):
        rec = sample_clicks(vacuum_probs(small_grid), 1000, seed=0)
        np.testing.assert_array_equal(rec.counts[:, 0], 1000)
        np.testing.assert_array_equal(rec.counts[:, 1:], 0)

    def test_deterministic_in_seed(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        a = sample_clicks(probs, 5000, seed=7)
        b = sample_clicks(probs, 5000, seed=7)
        c = sample_clicks(probs, 5000, seed=8)
        np.testing.assert_array_equal(a.counts, b.counts)
        assert np.any(a.counts != c.counts)

    def test_rows_sum_to_runs(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 12345, seed=3)
        np.testing.assert_array_equal(rec.counts.sum(axis=1), 12345)

    def test_counts_track_probabilities(self, small_grid, balanced_state):
        # each count is binomial; check all are within 5 sigma
        probs = forward_click_probabilities(balanced_state, small_grid)
        runs = 200_000
        rec = sample_clicks(probs, runs, seed=11)
        mean = probs.table * runs
        sigma = np.sqrt(np.clip(probs.table * (1 - probs.table) * runs, 1.0, None))
        assert np.all(np.abs(rec.counts - mean) < 5 * sigma)

    def test_substreams_stable_under_grid_extension(self, balanced_state):
        g5 = EfficiencyGrid(np.linspace(0.1, 0.5, 5))
        g6 = EfficiencyGrid(np.append(np.linspace(0.1, 0.5, 5), 0.6))
        r5 = sample_clicks(forward_click_probabilities(balanced_state, g5), 1000, seed=4)
        r6 = sample_clicks(forward_click_probabilities(balanced_state, g6), 1000, seed=4)
        np.testing.assert_array_equal(r5.counts, r6.counts[:5])

    def test_rejects_zero_runs(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        with pytest.raises(ValueError):
            sample_clicks(probs, 0, seed=0)

    def test_frequencies_converge_over_runs(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        tvs = []
        for runs in (1000, 1_000_000):
            rec = sample_clicks(probs, runs, seed=21)
            tvs.append(0.5 * np.abs(rec.frequency_table() - probs.table).sum())
        assert tvs[1] < tvs[0]
        assert tvs[1] < 5e-3


class TestFrequencies:
    def test_layout_hand_value(self):
        # single eta=0.2, heralded tau=0.5 -> p = (0.8, 0.1, 0.1, 0)
        rec = ClickRecord(
            EfficiencyGrid(np.array([0.2])), 2,
            np.array([[8000, 1000, 1000, 0]]), np.array([10_000]),
        )
        h = frequencies(rec)
        np.testing.assert_allclose(h, [0.8, 0.1, 0.1], atol=1e-12)

    def test_block_layout_matches_table(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 10_000, seed=5)
        h = frequencies(rec)
        k = len(small_grid)
        table = rec.frequency_table()
        np.testing.assert_array_equal(h[:k], table[:, 0])
        np.testing.assert_array_equal(h[k:2 * k], table[:, 1])
        np.testing.assert_array_equal(h[2 * k:], table[:, 2])

    def test_explicit_plus_allclick_closure(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 10_000, seed=6)
        h = frequencies(rec)
        k = len(small_grid)
        per_eta = h.reshape(-1, k).sum(axis=0) + rec.counts[:, -1] / rec.runs
        np.testing.assert_allclose(per_eta, 1.0, atol=1e-12)


class TestClickRecordValidation:
    def test_counts_must_match_runs(self, small_grid):
        counts = np.zeros((5, 4), dtype=np.int64)
        counts[:, 0] = 10
        with pytest.raises(ValueError):
            ClickRecord(small_grid, 2, counts, np.full(5, 11, dtype=np.int64))

    def test_rejects_negative_counts(self, small_grid):
        counts = np.zeros((5, 4), dtype=np.int64)
        counts[:, 0] = 10
        counts[0, 1] = -1
        counts[0, 0] = 11
        with pytest.raises(ValueError):
            ClickRecord(small_grid, 2, counts, np.full(5, 10, dtype=np.int64))


    @pytest.mark.parametrize("counts_shape, runs_size, message", [
        ((5, 3), 5, r"counts shape \(5, 3\), expected \(5, 4\)"),
        ((5, 4), 4, "runs must have one entry per efficiency"),
    ], ids=["counts shape", "runs length"])
    def test_shapes_must_match_the_grid(self, small_grid, counts_shape,
                                        runs_size, message):
        counts = np.zeros(counts_shape, dtype=np.int64)
        counts[:, 0] = 10
        with pytest.raises(ValueError, match=f"^{message}$"):
            ClickRecord(small_grid, 2, counts,
                        np.full(runs_size, 10, dtype=np.int64))

    def test_csv_without_rows_is_refused(self, tmp_path):
        path = tmp_path / "record.csv"
        path.write_text("eta,pattern,count,runs\n", encoding="utf-8")
        with pytest.raises(ValueError, match="^empty click-record CSV$"):
            ClickRecord.from_csv(path)


class TestRoundTrips:
    def test_json_lossless(self, small_grid, balanced_state, tmp_path):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 9999, seed=13)
        path = tmp_path / "record.json"
        rec.to_json(path)
        back = ClickRecord.from_json(path)
        np.testing.assert_array_equal(back.counts, rec.counts)
        np.testing.assert_array_equal(back.runs, rec.runs)
        np.testing.assert_array_equal(back.grid.etas, rec.grid.etas)
        # a record without its patterns list reads the same
        doc = rec.to_json_dict()
        del doc["patterns"]
        np.testing.assert_array_equal(ClickRecord.from_json_dict(doc).counts,
                                      rec.counts)

    def test_json_number_etas_read_like_their_strings(self, small_grid,
                                                     balanced_state):
        # to_json_dict writes each eta as its repr string; a JSON number
        # reads the same, and a boolean is refused as no number
        rec = sample_clicks(forward_click_probabilities(balanced_state,
                                                        small_grid), 500, seed=1)
        doc = rec.to_json_dict()
        numbers = dict(doc, etas=[float(e) for e in doc["etas"]])
        np.testing.assert_array_equal(
            ClickRecord.from_json_dict(numbers).grid.etas, rec.grid.etas)
        numbers["etas"][-1] = True
        with pytest.raises(ValueError, match="etas must be a number"):
            ClickRecord.from_json_dict(numbers)

    def test_csv_lossless(self, small_grid, balanced_state, tmp_path):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 9999, seed=13)
        path = tmp_path / "record.csv"
        rec.to_csv(path)
        back = ClickRecord.from_csv(path)
        np.testing.assert_array_equal(back.counts, rec.counts)
        np.testing.assert_array_equal(back.grid.etas, rec.grid.etas)

    @pytest.mark.parametrize("damage, message", [
        ("duplicate row", "two rows for eta"),
        ("runs differ", "different runs"),
    ])
    def test_csv_conflicting_rows_refused(self, small_grid, balanced_state,
                                          tmp_path, damage, message):
        rec = sample_clicks(forward_click_probabilities(balanced_state,
                                                        small_grid), 500, seed=1)
        path = tmp_path / "record.csv"
        rec.to_csv(path)
        header, *rows = path.read_text().splitlines()
        runs = rows[0].split(",")[3]
        if damage == "duplicate row":
            # a copy with the same count and runs is refused as well
            rows.insert(0, rows[0])
        else:
            # the same total on every row of the first efficiency but one
            rows[1] = ",".join(rows[1].split(",")[:3] + [str(int(runs) + 1)])
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match=message):
            ClickRecord.from_csv(path)

    def test_json_bytes_stable(self, small_grid, balanced_state, tmp_path):
        probs = forward_click_probabilities(balanced_state, small_grid)
        rec = sample_clicks(probs, 500, seed=1)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        rec.to_json(p1)
        ClickRecord.from_json(p1).to_json(p2)
        assert p1.read_bytes() == p2.read_bytes()

