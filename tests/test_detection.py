import itertools
import tracemalloc

import numpy as np
import pytest

from clicktomo import (
    EfficiencyGrid,
    JointDistribution,
    build_matrix,
    forward_click_probabilities,
    heralded_split_state,
    no_click_coefficient,
    uniform_grid,
)
from clicktomo import detection
from clicktomo.detection import click_patterns
from clicktomo.errors import GridMismatchError, ResourceLimitError


def brute_force_matrix(etas, modes, truncation):
    """Independent transcription: loop over every pattern, efficiency and
    photon configuration with plain powers."""
    side = truncation + 1
    patterns = [
        bits for bits in itertools.product((0, 1), repeat=modes)
        if bits != (1,) * modes
    ]
    rows = np.zeros((len(patterns) * len(etas), side**modes))
    for b, bits in enumerate(patterns):
        for nu, eta in enumerate(etas):
            for p, config in enumerate(itertools.product(range(side), repeat=modes)):
                val = 1.0
                for bit, n in zip(bits, config):
                    a = (1.0 - eta) ** n
                    val *= a if bit == 0 else 1.0 - a
                rows[b * len(etas) + nu, p] = val
    return rows


class TestEfficiencyGrid:
    def test_rejects_nonincreasing(self):
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.1, 0.1, 0.2]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.0, 0.5]))
        with pytest.raises(ValueError):
            EfficiencyGrid(np.array([0.5, 1.1]))

    @pytest.mark.parametrize("etas", [[np.nan], [0.1, np.nan, 0.3], [0.1, np.nan]])
    def test_rejects_nan(self, etas):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            EfficiencyGrid(np.array(etas))

    def test_uniform_grid_endpoints(self):
        g = uniform_grid(34, 0.015, 0.325)
        assert len(g) == 34
        assert g.etas[0] == pytest.approx(0.015)
        assert g.etas[-1] == pytest.approx(0.325)


class TestNoClickCoefficient:
    def test_zero_photons(self):
        assert no_click_coefficient(0.73, 0) == 1.0

    def test_blind_detector(self):
        assert no_click_coefficient(0.0, 7) == 1.0

    def test_direct_value(self):
        assert no_click_coefficient(0.5, 2) == pytest.approx(0.25)

    def test_perfect_detector(self):
        assert no_click_coefficient(1.0, 3) == 0.0
        assert no_click_coefficient(1.0, 0) == 1.0

    def test_large_n_no_underflow_surprise(self):
        val = no_click_coefficient(0.9, 500)
        assert 0.0 <= val < 1e-300 or val == 0.0

    @pytest.mark.parametrize("eta,n", [(-0.1, 1), (1.1, 1), (0.5, -1)])
    def test_domain_errors(self, eta, n):
        with pytest.raises(ValueError):
            no_click_coefficient(eta, n)


class TestBuildMatrix:
    def test_single_eta_rows(self):
        g = EfficiencyGrid(np.array([0.5]))
        m = build_matrix(g, 2, 1)
        # column order (n,k) = 00, 01, 10, 11
        np.testing.assert_allclose(m.rows[0], [1.0, 0.5, 0.5, 0.25])
        np.testing.assert_allclose(m.rows[1], [0.0, 0.5, 0.0, 0.25])
        np.testing.assert_allclose(m.rows[2], [0.0, 0.0, 0.5, 0.25])

    def test_vacuum_column(self, small_grid):
        m = build_matrix(small_grid, 2, 3)
        k = len(small_grid)
        col = m.rows[:, 0]
        np.testing.assert_array_equal(col[:k], 1.0)
        np.testing.assert_array_equal(col[k:], 0.0)

    def test_brute_force_two_modes(self, rng):
        etas = np.sort(rng.uniform(0.05, 0.9, size=5))
        g = EfficiencyGrid(etas)
        m = build_matrix(g, 2, 3)
        np.testing.assert_allclose(
            m.rows, brute_force_matrix(etas, 2, 3), atol=1e-15
        )

    def test_brute_force_three_modes(self, rng):
        etas = np.sort(rng.uniform(0.05, 0.9, size=3))
        g = EfficiencyGrid(etas)
        m = build_matrix(g, 3, 2)
        assert m.rows.shape == (7 * 3, 27)
        np.testing.assert_allclose(
            m.rows, brute_force_matrix(etas, 3, 2), atol=1e-15
        )

    def test_literal_block_transcription(self, small_grid):
        # the 3K-row two-mode layout, written index-by-index
        N, K = 2, len(small_grid)
        m = build_matrix(small_grid, 2, N)
        for mu in range(3 * K):
            eta = small_grid.etas[mu % K]
            for p in range(1, (1 + N) ** 2 + 1):
                k = (p - 1) % (1 + N)
                n = (p - 1 - k) // (1 + N)
                an = (1 - eta) ** n
                ak = (1 - eta) ** k
                if mu < K:
                    expected = an * ak
                elif mu < 2 * K:
                    expected = an * (1 - ak)
                else:
                    expected = (1 - an) * ak
                assert m.rows[mu, p - 1] == pytest.approx(expected, abs=1e-15)

    def test_entries_in_unit_interval(self, small_grid):
        m = build_matrix(small_grid, 2, 4)
        assert np.all(m.rows >= 0.0) and np.all(m.rows <= 1.0)

    def test_column_cap(self, small_grid):
        with pytest.raises(ResourceLimitError):
            build_matrix(small_grid, 2, 10, column_cap=100)

    def test_byte_cap_before_allocating(self, paper_grid_heralded):
        # M = 2, N = 999 passes the column cap, but the 102 x 10^6 matrix
        # and its back-projector would need 1.6 GB
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="1632000000 bytes"):
                build_matrix(paper_grid_heralded, 2, 999)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_byte_cap_counts_matrix_and_back_projector(self, small_grid,
                                                       monkeypatch):
        # 15 rows x 16 columns x 8 B, twice
        monkeypatch.setattr(detection, "MATRIX_BYTES_CAP", 3840)
        assert build_matrix(small_grid, 2, 3).rows.nbytes == 1920
        monkeypatch.setattr(detection, "MATRIX_BYTES_CAP", 3839)
        with pytest.raises(ResourceLimitError, match="3839 bytes"):
            build_matrix(small_grid, 2, 3)

    def test_heterogeneous_mode_scale(self):
        g = EfficiencyGrid(np.array([0.5]))
        m = build_matrix(g, 2, 1, mode_efficiency_scale=[1.0, 0.5])
        # mode 2 sees eta=0.25: p00 row on (0,1) is 0.75
        np.testing.assert_allclose(m.rows[0], [1.0, 0.75, 0.5, 0.375])


class TestForwardClickProbabilities:
    def test_vacuum_never_clicks(self, small_grid):
        vac = np.zeros((3, 3))
        vac[0, 0] = 1.0
        probs = forward_click_probabilities(JointDistribution(vac), small_grid)
        np.testing.assert_allclose(probs.table[:, 0], 1.0)
        np.testing.assert_allclose(probs.table[:, 1:], 0.0)

    def test_heralded_hand_value(self):
        state = heralded_split_state(0.5, 1)
        g = EfficiencyGrid(np.array([0.2]))
        probs = forward_click_probabilities(state, g)
        np.testing.assert_allclose(probs.table[0], [0.8, 0.1, 0.1, 0.0], atol=1e-15)

    def test_p00_decreasing_in_eta(self, balanced_state):
        g = uniform_grid(10, 0.05, 0.95)
        probs = forward_click_probabilities(balanced_state, g)
        assert np.all(np.diff(probs.table[:, 0]) < 0)

    def test_pattern_closure(self, small_grid, rng):
        v = rng.random((4, 4))
        v /= v.sum()
        probs = forward_click_probabilities(JointDistribution(v), small_grid)
        np.testing.assert_allclose(probs.table.sum(axis=1), 1.0, atol=1e-12)

    def test_linearity(self, small_grid, rng):
        v1 = rng.random(9)
        v1 /= v1.sum()
        v2 = rng.random(9)
        v2 /= v2.sum()
        alpha = 0.3
        d1 = JointDistribution(v1.reshape(3, 3))
        d2 = JointDistribution(v2.reshape(3, 3))
        mix = JointDistribution(alpha * v1.reshape(3, 3) + (1 - alpha) * v2.reshape(3, 3))
        g1 = forward_click_probabilities(d1, small_grid).table
        g2 = forward_click_probabilities(d2, small_grid).table
        gm = forward_click_probabilities(mix, small_grid).table
        np.testing.assert_allclose(gm, alpha * g1 + (1 - alpha) * g2, atol=1e-12)

    def test_explicit_vector_layout(self, small_grid, balanced_state):
        probs = forward_click_probabilities(balanced_state, small_grid)
        vec = probs.explicit_vector()
        k = len(small_grid)
        # pattern blocks over efficiencies: 00 block first
        np.testing.assert_array_equal(vec[:k], probs.table[:, 0])
        np.testing.assert_array_equal(vec[k:2 * k], probs.table[:, 1])

    def test_grid_mismatch(self, small_grid, balanced_state):
        other = uniform_grid(5, 0.1, 0.6)
        matrix = build_matrix(small_grid, 2, 3)
        with pytest.raises(GridMismatchError):
            forward_click_probabilities(balanced_state, other, matrix=matrix)


def test_click_pattern_order():
    assert click_patterns(2) == ["00", "01", "10", "11"]
    assert click_patterns(3)[0] == "000"
    assert click_patterns(3)[-1] == "111"
