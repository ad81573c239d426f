import itertools
import tracemalloc

import numpy as np
import pytest

from clicktomo import (
    ClickProbabilities,
    EfficiencyGrid,
    JointDistribution,
    ThermalSpec,
    build_matrix,
    forward_click_probabilities,
    heralded_split_state,
    multithermal_marginal,
    no_click_coefficient,
    split_on_beamsplitter,
    uniform_grid,
)
from clicktomo import detection
from clicktomo._kernels import degenerate_columns
from clicktomo.detection import (
    ScaledTranspose,
    TwoModeMatrix,
    back_projector,
    check_size,
    click_patterns,
    explicit_rows,
)
from clicktomo.errors import ClicktomoError, ResourceLimitError


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

    def test_column_cap(self, small_grid, monkeypatch):
        monkeypatch.setattr(detection, "COLUMN_CAP", 100)
        with pytest.raises(ResourceLimitError):
            build_matrix(small_grid, 2, 10)

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

    def test_replicate_cap_counts_tables_and_iterates(self, monkeypatch):
        # 10 replicates of one 5 x 4 frequency table and one 16-entry
        # iterate, 8 B each
        monkeypatch.setattr(detection, "REPLICATE_BYTES_CAP", 2880)
        assert check_size(5, 2, 3, reps=10) == (15, 16)
        monkeypatch.setattr(detection, "REPLICATE_BYTES_CAP", 2879)
        with pytest.raises(ResourceLimitError, match="2879 bytes"):
            check_size(5, 2, 3, reps=10)

    def test_mode_count_is_bounded_before_any_size(self):
        # 65 modes at K = 1 and N = 0 would fail the byte cap as well; the
        # bound refuses the count itself, naming it
        assert check_size(1, 26, 0) == (2**26 - 1, 1)
        with pytest.raises(ValueError, match="^modes must be <= 64, .* got 65$"):
            check_size(1, 65, 0)
        with pytest.raises(ValueError, match="^modes must be <= 64"):
            build_matrix(THIRDS, 10**10, 0)

    def test_cap_error_is_a_data_error_by_type(self):
        # an ``except ValueError`` meant for bad arguments must not catch it
        assert issubclass(ResourceLimitError, ClicktomoError)
        assert not issubclass(ResourceLimitError, ValueError)


def _assert_relative(got, want, rtol=1e-14):
    """Entry by entry within ``rtol`` of ``want``, exact zeros included."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(got == 0.0, want == 0.0)
    nonzero = want != 0.0
    assert np.max(np.abs(got[nonzero] - want[nonzero]) / want[nonzero]) <= rtol


def _factored(grid, truncation):
    """The factored two-mode matrix, built directly, whatever the size
    rule picks."""
    return TwoModeMatrix(
        no_click_coefficient(grid.etas[:, None], np.arange(truncation + 1)))


class TestTwoModeMatrix:
    # the multithermal grid, and one from eta = 0.25 to 1: at n = 120 the
    # no-click factor (0.75^120) is about 1e-15, and so are the sums of
    # the high-n columns
    GRIDS = [uniform_grid(35, 0.05, 0.25), uniform_grid(12, 0.25, 1.0)]

    @pytest.mark.parametrize("truncation", [30, 60, 120])
    @pytest.mark.parametrize("width", [1, 3])
    def test_matches_dense_rows(self, truncation, width, rng):
        for grid in self.GRIDS:
            m = build_matrix(grid, 2, truncation)
            dense, op = m.rows, _factored(grid, truncation)
            assert op.shape == dense.shape
            colsum = op.rdot(np.ones(dense.shape[0]))
            _assert_relative(colsum, dense.sum(axis=0))
            # the multithermal state, whose mass sits at low photon numbers,
            # so that p01 is about 3e-3 of p00 at eta = 0.05, and random
            # distributions
            q = rng.random((dense.shape[1], width))
            q[:, 0] = split_on_beamsplitter(multithermal_marginal(
                ThermalSpec(0.15, 1000.0), truncation), 0.5, truncation).flat()
            q /= q.sum(axis=0)
            ratio = rng.random((dense.shape[0], width)) + 0.5
            backs = [ScaledTranspose(op)]
            if truncation >= detection.FACTORED_MIN_TRUNCATION:
                # and the pair the size rule hands out
                assert isinstance(m.forward, TwoModeMatrix)
                _assert_relative(m.forward.rdot(np.ones(m.shape[0])),
                                 dense.sum(axis=0))
                backs.append(m.back)
            dense_back = back_projector(dense)
            for col in range(width):
                _assert_relative(op.dot(q)[:, col], (dense @ q)[:, col])
                _assert_relative(op.rdot(ratio)[:, col], (dense.T @ ratio)[:, col])
                for back in backs:
                    _assert_relative(back.dot(ratio)[:, col],
                                     (dense_back @ ratio)[:, col])
            if truncation == 120 and grid is self.GRIDS[1]:
                assert colsum.min() < 1e-14

    def test_writes_into_out_and_takes_vectors(self, rng):
        grid = self.GRIDS[0]
        op = _factored(grid, 40)
        q = rng.random((41 * 41, 2))
        g = np.empty((op.shape[0], 2))
        assert op.dot(q, out=g) is g
        _assert_relative(op.dot(q[:, 1].copy()), g[:, 1])
        with pytest.raises(ValueError, match="C-contiguous"):
            op.dot(q, out=np.empty((2, op.shape[0])).T)

    def test_exact_zeros_at_unit_efficiency(self):
        # support on (0,0), (1,1) and (2,3): at eta = 1 the patterns 01
        # and 10 need a photon in exactly one mode, so their probability
        # is exactly 0 there, as in the dense matrix
        grid = EfficiencyGrid(np.array([0.3, 0.6, 1.0]))
        truncation = 40
        values = np.zeros((truncation + 1, truncation + 1))
        values[0, 0], values[1, 1], values[2, 3] = 0.5, 0.3, 0.2
        m = build_matrix(grid, 2, truncation)
        assert isinstance(m.forward, TwoModeMatrix)
        q = values.reshape(-1)
        g = m.forward.dot(q)
        dense = m.rows @ q
        _assert_relative(g, dense)
        assert np.flatnonzero(g == 0.0).tolist() == [5, 8]
        # frequencies of a state with mass everywhere are positive on those
        # two rows, where q has no model probability: degenerate. q's own
        # frequencies are 0 there, and the full state explains any data.
        wide = JointDistribution(np.full(values.shape, 1.0 / values.size))
        h = np.stack([m.forward.dot(wide.flat()), dense, dense], axis=1)
        qs = np.stack([q, q, wide.flat()], axis=1)
        np.testing.assert_array_equal(
            degenerate_columns(h, m.forward.dot(qs)), [True, False, False])

    def test_size_rule(self, small_grid):
        n = detection.FACTORED_MIN_TRUNCATION
        assert isinstance(build_matrix(small_grid, 2, n).forward, TwoModeMatrix)
        assert isinstance(build_matrix(small_grid, 2, n).back, ScaledTranspose)
        for modes, truncation in ((2, n - 1), (2, 3), (2, 8), (1, 200)):
            m = build_matrix(small_grid, modes, truncation)
            assert m.forward is m.rows
            np.testing.assert_array_equal(
                m.back, back_projector(m.rows))
        m = build_matrix(EfficiencyGrid(np.array([0.5])), 3, n)
        assert m.forward is m.rows

    @pytest.mark.parametrize("truncation, unreached", [(3, 9), (32, 1024)])
    def test_columns_no_row_reaches_back_project_to_zero(self, truncation,
                                                         unreached, rng):
        # at eta = 1 every pattern rules out photons in both modes, so the
        # columns with n1 > 0 and n2 > 0 sum to 0: the dense back-projector
        # at N = 3, the factored pair at N = 32
        m = build_matrix(EfficiencyGrid(np.array([1.0])), 2, truncation)
        assert isinstance(m.back, ScaledTranspose) == (truncation == 32)
        n1, n2 = np.divmod(np.arange(m.shape[1]), truncation + 1)
        zero = (n1 > 0) & (n2 > 0)
        assert zero.sum() == unreached
        ones = m.back.dot(np.ones(m.shape[0]))
        assert np.all(np.isfinite(ones))
        np.testing.assert_array_equal(ones == 0.0, zero)
        np.testing.assert_allclose(ones[~zero], 1.0, rtol=1e-15)
        ratio = rng.random(m.shape[0]) + 0.5
        _assert_relative(m.back.dot(ratio), back_projector(m.rows) @ ratio)

    def test_wide_forward_model_never_builds_the_dense_matrix(self):
        # N = 120 on the multithermal grid: the dense matrix would take
        # 105 x 14,641 x 8 B = 12.3 MB
        grid = uniform_grid(35, 0.05, 0.25)
        state = split_on_beamsplitter(
            multithermal_marginal(ThermalSpec(0.15, 1000.0), 120), 0.5, 120)
        tracemalloc.start()
        try:
            probs = forward_click_probabilities(state, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**21
        dense = build_matrix(grid, 2, 120).rows @ state.flat()
        _assert_relative(explicit_rows(probs.table), dense)


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
        vec = explicit_rows(probs.table)
        k = len(small_grid)
        # pattern blocks over efficiencies: 00 block first
        np.testing.assert_array_equal(vec[:k], probs.table[:, 0])
        np.testing.assert_array_equal(vec[k:2 * k], probs.table[:, 1])


def test_click_pattern_order():
    assert click_patterns(2) == ["00", "01", "10", "11"]
    assert click_patterns(3)[0] == "000"
    assert click_patterns(3)[-1] == "111"


THIRDS = uniform_grid(3, 0.1, 0.5)


@pytest.mark.parametrize("build, message", [
    (lambda: uniform_grid(0, 0.1, 0.5), "grid needs at least one efficiency"),
    (lambda: build_matrix(THIRDS, 0, 2), "modes must be >= 1"),
    (lambda: build_matrix(THIRDS, 2, -1), "truncation must be >= 0"),
    (lambda: ClickProbabilities(THIRDS, 1, np.full((3, 3), 1 / 3)),
     r"table shape \(3, 3\), expected \(3, 2\)"),
    (lambda: ClickProbabilities(THIRDS, 1, [[1.5, -0.5]] * 3),
     "pattern probabilities must be nonnegative"),
    (lambda: ClickProbabilities(THIRDS, 1, [[0.5, 0.4]] * 3),
     "pattern probabilities must sum to 1 per efficiency"),
], ids=["empty grid", "no mode", "negative truncation", "table shape",
        "negative probability", "row sum"])
def test_malformed_detection_input_is_refused_by_name(build, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        build()
