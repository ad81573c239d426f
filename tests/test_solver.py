import csv
import math
from types import SimpleNamespace

import numpy as np
import pytest

from clicktomo import (
    ClickRecord,
    EfficiencyGrid,
    JointDistribution,
    StoppingConfig,
    bootstrap_uncertainty,
    build_matrix,
    em_step,
    forward_click_probabilities,
    frequencies,
    heralded_split_state,
    log_likelihood,
    no_click_coefficient,
    reconstruct,
    reconstruct_exact,
    sample_clicks,
    total_error,
    uniform_grid,
)
from clicktomo import _kernels, cli
from clicktomo._kernels import (
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    STATUS_MIN_EPSILON,
    chunk_length,
    em_run,
)
from clicktomo import detection
from clicktomo.detection import (
    ScaledTranspose,
    TwoModeMatrix,
    back_projector,
    explicit_rows,
)
from clicktomo._io import TRACE_BLOCK_ROWS
from clicktomo.errors import (DegenerateSupportError, NumericalError,
                              ResourceLimitError)
from clicktomo.solver import _frequency_noise_floor
from em_reference import (CLOSE, _em_run_history, _em_run_loops,
                          first_difference)


def heralded_record(grid, tau=0.5, truncation=3, runs=100_000, seed=5):
    probs = forward_click_probabilities(heralded_split_state(tau, truncation), grid)
    return sample_clicks(probs, runs, seed=seed)


class TestEmStep:
    def test_fixed_point_on_exact_data(self, small_grid):
        # feed the model's own click probabilities: uniform-weight rows
        # reproduce q when q already explains the data
        state = heralded_split_state(0.5, 2)
        m = build_matrix(small_grid, 2, 2)
        q = state.flat()
        h = m.rows @ q
        q1 = em_step(q, m, h)
        # entries on the support must be exactly preserved
        np.testing.assert_allclose(q1[q > 0], q[q > 0], atol=1e-12)

    def test_single_row_toy(self):
        # one mode... smallest case expressible: M=2, N=0 gives a single
        # column; q' = q * h/g regardless of the grid
        g = EfficiencyGrid(np.array([0.3]))
        m = build_matrix(g, 2, 0)
        q = np.array([0.5])
        h = np.array([0.25, 0.0, 0.0])
        q1 = em_step(q, m, h)
        # g = 0.5 on the 00 row, zero elsewhere; colsum = 1
        assert q1[0] == pytest.approx(0.5 * 0.25 / 0.5)

    def test_uniform_start_against_inline_oracle(self, small_grid, rng):
        m = build_matrix(small_grid, 2, 2)
        h = rng.random(m.rows.shape[0]) * 0.1
        q = np.full(9, 1.0 / 9)
        expected = np.empty(9)
        B = m.rows
        for p in range(9):
            gsum = 0.0
            for mu in range(B.shape[0]):
                g_mu = float(B[mu] @ q)
                gsum += B[mu, p] * h[mu] / g_mu
            expected[p] = q[p] / B[:, p].sum() * gsum
        np.testing.assert_allclose(em_step(q, m, h), expected, atol=1e-14)

    def test_preserves_nonnegativity(self, small_grid, rng):
        m = build_matrix(small_grid, 2, 3)
        q = rng.random(16)
        q /= q.sum()
        h = rng.random(m.rows.shape[0]) * 0.05
        for _ in range(50):
            q = em_step(q, m, h)
            assert np.all(q >= 0)

    def test_degenerate_support(self, small_grid):
        m = build_matrix(small_grid, 2, 1)
        q0 = np.zeros(4)
        q0[0] = 1.0  # pure vacuum start: p01 model probability is 0
        h = np.zeros(m.rows.shape[0])
        h[len(small_grid)] = 0.1  # observed 01 clicks
        h[0] = 0.9
        with pytest.raises(DegenerateSupportError,
                           match="^the given q gives an observed click pattern "):
            em_step(q0, m, h)

    @pytest.mark.parametrize("truncation", [3, detection.FACTORED_MIN_TRUNCATION])
    def test_em_step_replays_the_solve(self, small_grid, truncation):
        # em_step from the uniform start gives the solve's iterates bit for
        # bit, on the dense and on the factored pair: a caller that needs
        # every iterate replays them
        rec = heralded_record(small_grid)
        m = build_matrix(small_grid, 2, truncation)
        assert isinstance(m.forward, TwoModeMatrix) == (truncation > 3)
        trace = reconstruct(rec, truncation,
                            StoppingConfig(max_iters=2000, min_decrease=None))
        h = frequencies(rec)
        iterates = [np.full(m.shape[1], 1.0 / m.shape[1])]
        for _ in range(trace.n_iterations - 1):
            iterates.append(em_step(iterates[-1], m, h))
        np.testing.assert_array_equal(
            [total_error(q, m, h) for q in iterates], trace.epsilon)
        best = iterates[trace.best_iteration]
        np.testing.assert_array_equal(best / best.sum(), trace.final.flat())


BAD_Q = {
    "NaN q": np.r_[np.nan, np.full(15, 1.0 / 15)],
    "infinite q": np.r_[np.inf, np.full(15, 1.0 / 15)],
    "negative q": np.r_[-0.1, np.full(15, 1.1 / 15)],
    "15-entry q": np.full(15, 1.0 / 15),
}
BAD_H = {"NaN h": np.nan, "infinite h": np.inf, "negative h": -0.01}


@pytest.mark.parametrize("function, bad", [
    *((f, bad) for f in ("em_step", "total_error", "log_likelihood")
      for bad in BAD_Q),
    *((f, bad) for f in ("em_step", "total_error", "log_likelihood")
      for bad in BAD_H),
])
def test_one_step_functions_refuse_a_bad_input(small_grid, function, bad):
    # a non-finite or negative entry, or a wrong length, fails the input
    # check by name rather than some later step
    rec = heralded_record(small_grid)
    m = build_matrix(small_grid, 2, 3)
    q, h = np.full(16, 1.0 / 16), frequencies(rec)
    if bad in BAD_Q:
        q = BAD_Q[bad]
    else:
        h = h.copy()
        h[3] = BAD_H[bad]
    name = bad.split()[-1]
    call = {"em_step": lambda: em_step(q, m, h),
            "total_error": lambda: total_error(q, m, h),
            "log_likelihood": lambda: log_likelihood(q, m, h)}[function]
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


class TestTotalError:
    def test_exact_data_zero(self, small_grid):
        state = heralded_split_state(0.5, 2)
        m = build_matrix(small_grid, 2, 2)
        q = state.flat()
        h = m.rows @ q
        assert total_error(q, m, h) == 0.0

    def test_uniform_shift(self, small_grid):
        state = heralded_split_state(0.5, 2)
        m = build_matrix(small_grid, 2, 2)
        q = state.flat()
        h = m.rows @ q + 0.01
        assert total_error(q, m, h) == pytest.approx(0.01, abs=1e-14)

    def test_matches_independent_recomputation(self, small_grid, rng):
        m = build_matrix(small_grid, 2, 3)
        q = rng.random(16)
        h = rng.random(m.rows.shape[0])
        expected = sum(
            abs(h[mu] - float(m.rows[mu] @ q)) for mu in range(m.rows.shape[0])
        ) / m.rows.shape[0]
        assert total_error(q, m, h) == pytest.approx(expected, abs=1e-14)


class TestLogLikelihood:
    def test_vacuum_certainty(self, small_grid):
        vac = np.zeros((2, 2))
        vac[0, 0] = 1.0
        probs = forward_click_probabilities(JointDistribution(vac), small_grid)
        rec = sample_clicks(probs, 1000, seed=0)
        m = build_matrix(small_grid, 2, 1)
        assert log_likelihood(vac.reshape(-1), m, frequencies(rec)) == 0.0

    def test_independent_recomputation(self, small_grid, rng):
        rec = heralded_record(small_grid)
        m = build_matrix(small_grid, 2, 3)
        q = rng.random(16)
        q /= q.sum()
        g = m.rows @ q
        h = frequencies(rec)
        expected = 0.0
        for mu in range(m.rows.shape[0]):
            if h[mu] > 0:
                expected += h[mu] * np.log(g[mu] / h[mu]) + h[mu] - g[mu]
            else:
                expected -= g[mu]
        assert log_likelihood(q, m, h) == pytest.approx(expected, rel=1e-10)

    def test_zero_at_perfect_fit_negative_otherwise(self, small_grid, rng):
        rec = heralded_record(small_grid, runs=1_000_000)
        m = build_matrix(small_grid, 2, 3)
        # a mismatched model scores strictly below zero
        q = rng.random(16)
        q /= q.sum()
        assert log_likelihood(q, m, frequencies(rec)) < 0.0

    def test_matches_exact_sum_late_in_the_iteration(self):
        # heralded-unbalanced preset, seed 2, after 20,000 iterations: the
        # log-likelihood is about -3.5e-4 while sum h log h and sum h are
        # of order 1 to 10, so it must not be formed as their difference
        grid = uniform_grid(34, 0.015, 0.325)
        probs = forward_click_probabilities(heralded_split_state(0.4, 3), grid)
        rec = sample_clicks(probs, 100_000, seed=2)
        m = build_matrix(grid, 2, 3)
        trace = reconstruct(rec, 3, StoppingConfig(
            max_iters=20_000, patience=20_000))
        # iterate 19,999, replayed from the uniform start
        h = frequencies(rec)
        q = np.full(16, 1.0 / 16)
        for _ in range(19_999):
            q = em_step(q, m, h)
        h = h.tolist()
        g = (m.rows @ q).tolist()
        exact = math.fsum(
            [hm * math.log(gm / hm) for hm, gm in zip(h, g) if hm > 0.0]
            + [hm - gm for hm, gm in zip(h, g)]
        )
        assert trace.loglik[19_999] == pytest.approx(exact, rel=1e-13, abs=0)
        assert log_likelihood(q, m, h) == pytest.approx(exact, rel=1e-13, abs=0)

    def test_minus_inf_on_unsupported_pattern(self, small_grid):
        rec = heralded_record(small_grid)
        m = build_matrix(small_grid, 2, 3)
        q = np.zeros(16)
        q[0] = 1.0  # vacuum model, but record has clicks
        assert log_likelihood(q, m, frequencies(rec)) == float("-inf")


class TestReconstruct:
    def test_loglik_monotone(self, small_grid):
        rec = heralded_record(small_grid)
        trace = reconstruct(rec, 3, StoppingConfig(max_iters=500))
        ll = trace.loglik
        assert np.all(np.diff(ll) >= -1e-8 * np.abs(ll[:-1]))

    def test_exact_vacuum_recovery(self, small_grid):
        vac = np.zeros((3, 3))
        vac[0, 0] = 1.0
        probs = forward_click_probabilities(JointDistribution(vac), small_grid)
        trace = reconstruct_exact(probs, 2, StoppingConfig(max_iters=2000))
        assert trace.final.values[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_final_normalized_and_correction_logged(self, small_grid):
        rec = heralded_record(small_grid)
        trace = reconstruct(rec, 3, StoppingConfig(max_iters=300))
        assert trace.final.values.sum() == pytest.approx(1.0, abs=1e-12)
        assert abs(trace.renorm_correction) < 1e-2

    def test_trace_csv_is_what_csv_writer_writes(self, small_grid, tmp_path):
        # the rows are written in blocks; the run spans more than one
        rec = heralded_record(small_grid)
        trace = reconstruct(rec, 3, StoppingConfig(max_iters=5000, patience=5000))
        assert trace.n_iterations > TRACE_BLOCK_ROWS
        trace.to_csv(tmp_path / "trace.csv")
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "epsilon", "loglik"])
            for i in range(trace.n_iterations):
                writer.writerow([i, repr(float(trace.epsilon[i])),
                                 repr(float(trace.loglik[i]))])
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_best_iteration_is_epsilon_argmin(self, small_grid):
        # with the strict rule (min_decrease=0) every decrease counts, so
        # the reported best iteration is the literal argmin of the trace
        rec = heralded_record(small_grid, runs=2000)
        trace = reconstruct(rec, 3, StoppingConfig(max_iters=2000))
        assert trace.best_iteration == int(np.argmin(trace.epsilon[: trace.n_iterations]))

    def test_patience_stop(self, small_grid):
        # low statistics: epsilon bottoms out quickly with the noise floor
        rec = heralded_record(small_grid, runs=2000)
        trace = reconstruct(
            rec, 3, StoppingConfig(max_iters=100_000, patience=100, min_decrease=None)
        )
        assert trace.stop_reason == "min-epsilon"
        assert trace.n_iterations - trace.best_iteration >= 100

    @pytest.mark.parametrize("runs, options, stop", [
        (100_000, StoppingConfig(max_iters=5000, patience=5000), "max-iters"),
        (2000, StoppingConfig(patience=100, min_decrease=None), "min-epsilon"),
    ])
    def test_on_chunk_rows_are_the_trace(self, small_grid, runs, options, stop):
        # the rows reconstruct hands out, n×1 chunk after chunk, are the
        # trace's ε and log-likelihood bit for bit, over several chunks
        rows = []
        trace = reconstruct(heralded_record(small_grid, runs=runs), 3, options,
                            on_chunk=lambda eps, ll: rows.append(np.hstack((eps, ll))))
        assert trace.stop_reason == stop
        assert len(rows) > 1
        np.testing.assert_array_equal(np.concatenate(rows), np.stack(
            [trace.epsilon, trace.loglik], axis=1))

    def test_degenerate_start_raises(self, small_grid):
        # at N = 0 the model holds only the vacuum and never clicks, so
        # the uniform start already gives the observed clicks no probability
        rec = heralded_record(small_grid)
        with pytest.raises(DegenerateSupportError, match="truncation"):
            reconstruct(rec, 0)


class TestBlockKernelAgainstLoopReference:
    def test_block_of_one_matches_loop_reference(self, small_grid):
        # the block kernel at width 1 against the scalar loop reference
        m = build_matrix(small_grid, 2, 3)
        args = (frequencies(heralded_record(small_grid))[:, None],
                np.full((16, 1), 1.0 / 16), 500, 200, 0.0)
        assert first_difference(
            _em_run_history(m.rows, back_projector(m.rows), *args),
            _em_run_loops(m.rows, *args), CLOSE) is None

    def test_block_columns_match_serial_runs(self, small_grid, monkeypatch):
        # three different data sets whose patience stops fall at different
        # iterations, one min_decrease per column, and a degenerate column
        m = build_matrix(small_grid, 2, 3)
        hs = [
            frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
            for tau, runs, seed in ((0.5, 2000, 1), (0.4, 5000, 2), (0.3, 20_000, 3))
        ]
        mind = np.array([1e-4, 3e-4, 1e-3, 0.0])
        uniform = np.full(16, 1.0 / 16)
        vacuum = np.zeros(16)
        vacuum[0] = 1.0  # q0 = e_0: the model never clicks, the data do
        args = (np.stack(hs + [hs[0]], axis=1),
                np.stack([uniform] * 3 + [vacuum], axis=1), 3000, 100, mind)
        # without a chunk callback no log-likelihood is computed
        passes = []
        monkeypatch.setattr(_kernels, "log_likelihood",
                            lambda *pass_args, **kwargs: passes.append(pass_args))
        block = em_run(m.rows, back_projector(m.rows), *args)
        assert passes == []
        ref = _em_run_loops(m.rows, *args)
        assert first_difference(block, ref, CLOSE) is None
        assert ref.status.tolist() == [STATUS_MIN_EPSILON] * 3 + [STATUS_DEGENERATE]
        # the columns left the block at different times
        assert len(set(ref.n_iterations[:3])) == 3
        assert block.n_iterations[3] == 1
        np.testing.assert_array_equal(block.best_q[:, 3], vacuum)


class TestFactoredOperator:
    """The kernel and the one-step functions on the factored two-mode
    pair, against the dense matrix."""

    @pytest.mark.parametrize("width", [1, 3])
    def test_em_run_matches_loop_reference(self, small_grid, width):
        # built directly, below the truncation the size rule factors at;
        # patience stops at different iterations, and with these
        # min_decrease values the stop rule never sees two ε values within
        # 1e-10 of each other, so last-bit differences cannot move a stop
        m = build_matrix(small_grid, 2, 3)
        op = TwoModeMatrix(no_click_coefficient(small_grid.etas[:, None],
                                                np.arange(4)))
        back = ScaledTranspose(op)
        hs = [
            frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
            for tau, runs, seed in ((0.5, 2000, 1), (0.4, 5000, 2), (0.3, 20_000, 3))
        ][:width]
        mind = np.array([1e-4, 3e-4, 1e-4])[:width]
        args = (np.stack(hs, axis=1), np.full((16, width), 1.0 / 16), 3000,
                100, mind)
        ref = _em_run_loops(m.rows, *args)
        for col in range(width):
            bar, margin = np.inf, np.inf
            for e in ref.epsilon[:ref.n_iterations[col], col]:
                margin = min(margin, abs(e - bar))
                if e < bar:
                    bar = e - mind[col]
            assert margin > 1e-10
        assert ref.status.tolist() == [STATUS_MIN_EPSILON] * width
        assert first_difference(_em_run_history(op, back, *args), ref,
                                CLOSE) is None

    def test_one_step_functions(self, rng):
        # at the size rule's truncation em_step, total_error and
        # log_likelihood run on the factored pair
        grid = uniform_grid(6, 0.1, 0.6)
        m = build_matrix(grid, 2, detection.FACTORED_MIN_TRUNCATION)
        assert isinstance(m.forward, TwoModeMatrix)
        n_cols = m.shape[1]
        q = rng.random(n_cols)
        q /= q.sum()
        h = m.rows @ (q + rng.random(n_cols) / n_cols) / 2.0
        g = m.rows @ q
        back = back_projector(m.rows)
        np.testing.assert_allclose(em_step(q, m, h), q * (back @ (h / g)),
                                   rtol=1e-13, atol=0)
        assert total_error(q, m, h) == pytest.approx(
            np.mean(np.abs(h - g)), rel=1e-13)
        rec = sample_clicks(forward_click_probabilities(
            JointDistribution.from_flat(q, 2), grid), 1000, seed=1)
        hr = frequencies(rec)
        assert log_likelihood(q, m, hr) == pytest.approx(
            np.sum(hr * np.log(g / hr, where=hr > 0, out=np.zeros_like(g))
                   + hr - g), rel=1e-12)


@pytest.mark.parametrize("width", [1, 2, 3, 25, 100])
def test_row_sums_are_the_reduce_bit_for_bit(monkeypatch, rng, width):
    # at widths above 1 the kernel sums rows with einsum; it must give the
    # bits np.add.reduce gives, for one iterate and for a chunk of them
    h = rng.random((102, width)) * (rng.random((102, width)) < 0.8)
    g = rng.random((7, 102, width)) * np.logspace(-6, 0, 102)[:, None]
    cases = [(h, g[0]), (h, g)]
    got = [(_kernels.mean_abs_deviation(h, g), _kernels.log_likelihood(h, g))
           for h, g in cases]
    monkeypatch.setattr(_kernels, "_sum_rows",
                        lambda x, out=None: np.add.reduce(x, axis=-2, out=out))
    for (h, g), (eps, ll) in zip(cases, got):
        np.testing.assert_array_equal(eps, _kernels.mean_abs_deviation(h, g))
        np.testing.assert_array_equal(ll, _kernels.log_likelihood(h, g))


def _force_chunk(monkeypatch, length, matrix, width):
    """Make ``em_run`` cut a block of ``width`` columns of ``matrix``
    into chunks of ``length`` iterations (None: the default)."""
    if length is None:
        return
    n_rows = matrix.shape[0]
    monkeypatch.setattr(_kernels, "CHUNK_BYTES", 8 * width * length * n_rows)
    assert chunk_length(n_rows, width) == length


CHUNKS = (1, 7, None)


class TestChunkBoundaries:
    """``em_run`` at chunk lengths 1, 7 and the default, against the loop
    reference and against each other, ε and log-likelihood included.
    ``max_iters`` is never a multiple of 7."""

    @pytest.fixture
    def setup(self, small_grid):
        m = build_matrix(small_grid, 2, 3)
        return m.rows, back_projector(m.rows)

    def _runs(self, monkeypatch, matrix, back, h, q0, *stop_args):
        runs = []
        for length in CHUNKS:
            with monkeypatch.context() as patch:
                _force_chunk(patch, length, matrix, q0.shape[1])
                runs.append(_em_run_history(matrix, back, h, q0, *stop_args))
        for other in runs[1:]:
            assert first_difference(runs[0], other) is None
        return runs[0]

    @pytest.mark.parametrize("patience, position", [(96, 0), (99, 3), (95, 6)])
    def test_patience_stop_anywhere_in_a_chunk(self, setup, small_grid,
                                               monkeypatch, patience, position):
        # the stop falls on the first, a middle and the last iterate of a
        # chunk of 7 counted from iteration 0
        matrix, back = setup
        args = (frequencies(heralded_record(small_grid, runs=2000, seed=1))[:, None],
                np.full((16, 1), 1.0 / 16), 3000, patience, 1e-4)
        ref = _em_run_loops(matrix, *args)
        assert ref.status[0] == STATUS_MIN_EPSILON
        assert (ref.n_iterations[0] - 1) % 7 == position
        block = self._runs(monkeypatch, matrix, back, *args)
        assert first_difference(block, ref, CLOSE) is None

    def test_max_iters_and_patience_stops(self, setup, small_grid, monkeypatch):
        # staggered patience stops beside a column that runs to max_iters,
        # with per-column min_decrease
        matrix, back = setup
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 10**6, 1), (0.4, 2 * 10**5, 2), (0.3, 2000, 3))]
        args = (np.stack(hs, axis=1), np.full((16, 3), 1.0 / 16), 2001, 50,
                np.array([0.0, 1e-4, 3e-4]))
        block = self._runs(monkeypatch, matrix, back, *args)
        ref = _em_run_loops(matrix, *args)
        assert first_difference(block, ref, CLOSE) is None
        assert ref.status.tolist() == [STATUS_MAX_ITERS] + [STATUS_MIN_EPSILON] * 2
        assert ref.n_iterations.tolist() == [2001, 1272, 613]

    def test_snapshots_end_at_each_stop(self, setup, small_grid, monkeypatch):
        # columns leave the block at different iterations, one of them
        # (q0 = e_0 against clicking data) at the first
        matrix, back = setup
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 2000, 1), (0.4, 5000, 2))]
        vacuum = np.zeros(16)
        vacuum[0] = 1.0
        q0 = np.stack([np.full(16, 1.0 / 16)] * 2 + [vacuum], axis=1)
        block = self._runs(monkeypatch, matrix, back,
                           np.stack(hs + [hs[0]], axis=1), q0, 3000, 100,
                           np.array([1e-4, 3e-4, 0.0]))
        assert block.status.tolist() == [STATUS_MIN_EPSILON] * 2 + [STATUS_DEGENERATE]
        assert block.n_iterations[0] != block.n_iterations[1]
        assert block.n_iterations[2] == 1
        np.testing.assert_array_equal(block.best_q[:, 2], vacuum)

    @pytest.mark.parametrize("start", ["vacuum", "uniform"])
    def test_exact_vacuum_data(self, setup, small_grid, monkeypatch, start):
        # g = 0 on the rows where h = 0 at every iterate from q0 = e_0:
        # every iterate takes the masked ratio, none is degenerate
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        h = explicit_rows(forward_click_probabilities(
            JointDistribution(vac), small_grid).table)
        q0 = vac.reshape(-1) if start == "vacuum" else np.full(16, 1.0 / 16)
        args = (h[:, None], q0[:, None], 1500, 100, 0.0)
        ref = _em_run_loops(matrix, *args)
        block = self._runs(monkeypatch, matrix, back, *args)
        assert first_difference(block, ref, dict(CLOSE, loglik=1e-14)) is None
        if start == "vacuum":
            assert ref.status[0] == STATUS_MIN_EPSILON
            assert ref.best_iteration[0] == 0

    def test_bests_inside_a_chunk(self, setup, small_grid, monkeypatch):
        # a min_decrease above the per-iteration fall of ε moves each
        # column's best every few iterations, so a chunk seldom ends on
        # one: at the default length the final bests lie inside the last
        # chunk, at a different iteration in each column, and are
        # recomputed from its first iterate. At length 1 nothing is.
        matrix, back = setup
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 10**6, 1), (0.4, 2 * 10**5, 2), (0.3, 5000, 3))]
        max_iters = 3000
        args = (np.stack(hs, axis=1), np.full((16, 3), 1.0 / 16), max_iters,
                max_iters, np.array([2e-6, 5e-6, 1e-5]))
        block = self._runs(monkeypatch, matrix, back, *args)
        span = chunk_length(matrix.shape[0], 3)
        last_start = (max_iters - 1) // span * span
        bests = block.best_iteration.tolist()
        assert len(set(bests)) == 3
        assert all(last_start < b < max_iters - 1 for b in bests)
        assert first_difference(block, _em_run_loops(matrix, *args),
                                CLOSE) is None

    def test_best_inside_the_chunk_a_column_stops_on(self, setup, small_grid,
                                                      monkeypatch):
        # the first column stops by patience at iteration 1418, while the
        # second, whose min_decrease moves its best every few iterations,
        # goes on with its best strictly inside the chunk that ends there,
        # at length 7 and at the default length. Replaying that best must
        # leave the chunk's next iterate, which the second column goes on
        # from, alone.
        matrix, back = setup
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 2000, 1), (0.4, 2 * 10**5, 2))]
        args = (np.stack(hs, axis=1), np.full((16, 2), 1.0 / 16), 3000, 100,
                np.array([1e-4, 5e-6]))
        scan = _kernels._scan_best
        chunks = []  # (first iteration, length, bests) of every chunk

        def spy(eps, t0, bar, best, mind):
            scan(eps, t0, bar, best, mind)
            chunks.append((t0, eps.shape[0], best.tolist()))

        monkeypatch.setattr(_kernels, "_scan_best", spy)
        block = self._runs(monkeypatch, matrix, back, *args)
        assert block.status.tolist() == [STATUS_MIN_EPSILON, STATUS_MAX_ITERS]
        assert block.n_iterations.tolist() == [1419, 3000]
        # one chunk per length ends on the stop: at 1, at 7, at the default
        inside = [t0 < bests[1] < t0 + n - 1
                  for t0, n, bests in chunks if t0 + n == 1419]
        assert inside == [False, True, True]
        assert first_difference(block, _em_run_loops(matrix, *args),
                                CLOSE) is None

    def test_chunk_length_ignores_the_iterate_length(self, monkeypatch):
        # 105 rows at 81 columns (N = 8) and at 14,641 (N = 120, the
        # factored pair): the first chunk of a 1-column block is as long
        # at both, as long as the rows alone allow
        grid = uniform_grid(35, 0.05, 0.25)
        iterate = _kernels._iterate
        firsts = []
        for truncation, n_cols in ((8, 81), (120, 14641)):
            m = build_matrix(grid, 2, truncation)
            assert m.forward.shape == (105, n_cols)
            ends = []
            with monkeypatch.context() as patch:
                patch.setattr(_kernels, "_iterate",
                              lambda *args: ends.append(args[7]) or iterate(*args))
                em_run(m.forward, m.back, np.full((105, 1), 1.0 / 105),
                       np.full((n_cols, 1), 1.0 / n_cols), 400, 400, 0.0)
            firsts.append(ends[0])
        assert firsts == [chunk_length(105, 1)] * 2 == [312] * 2

    def test_degenerate_stop_inside_a_chunk(self, setup, small_grid,
                                            monkeypatch):
        # exact vacuum data but for one click row, at the smallest
        # subnormal frequency: its model frequency underflows to zero
        # after 2083 iterations, inside a chunk of 7 and of the default
        # length, and the column ends there. The heralded column goes on
        # from the iterate at that cut, which the loop had passed.
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        h = explicit_rows(forward_click_probabilities(
            JointDistribution(vac), small_grid).table)
        h[5] = 5e-324
        hs = [h, frequencies(heralded_record(small_grid, runs=2000, seed=1))]
        args = (np.stack(hs, axis=1), np.full((16, 2), 1.0 / 16), 2500, 2500,
                0.0)
        block = self._runs(monkeypatch, matrix, back, *args)
        assert block.status.tolist() == [STATUS_DEGENERATE, STATUS_MAX_ITERS]
        assert block.n_iterations[0] == 2084
        assert first_difference(block, _em_run_loops(matrix, *args),
                                CLOSE) is None

    @pytest.mark.parametrize("length", CHUNKS)
    def test_chunk_callback_streams_the_history(self, setup, small_grid,
                                                monkeypatch, length):
        # the callback's rows, chunk after chunk, are the history of a
        # block whose columns leave at four different chunks: two by
        # patience, one that a degenerate cut ends inside a chunk (exact
        # vacuum but for one subnormal click row), one on the budget. Each
        # t0 follows on from the last chunk, cols names the columns still
        # in the block, and the rows they put back, each exactly once,
        # are the loop reference's
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        degenerate = explicit_rows(forward_click_probabilities(
            JointDistribution(vac), small_grid).table)
        degenerate[5] = 5e-324
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 2000, 1), (0.4, 5000, 2), (0.5, 10**6, 1))]
        hs.insert(2, degenerate)
        max_iters = 2500
        args = (np.stack(hs, axis=1), np.full((16, 4), 1.0 / 16), max_iters,
                100, np.array([1e-4, 3e-4, 0.0, 0.0]))
        chunks = []
        _force_chunk(monkeypatch, length, matrix, 4)
        block = em_run(matrix, back, *args, on_chunk=lambda *rows: chunks.append(
            [np.copy(a) for a in rows]))
        assert block.status.tolist() == [STATUS_MIN_EPSILON] * 2 + [
            STATUS_DEGENERATE, STATUS_MAX_ITERS]
        assert block.n_iterations.tolist() == [1419, 919, 2084, max_iters]
        epsilon = np.full((max_iters, 4), np.nan)
        loglik = np.full_like(epsilon, np.nan)
        t = 0
        for t0, cols, eps, ll in chunks:
            assert t0 == t
            assert cols.tolist() == np.flatnonzero(block.n_iterations > t0).tolist()
            assert eps.shape == ll.shape == (eps.shape[0], cols.size)
            rows = (slice(t0, t0 + eps.shape[0]), cols)
            assert np.isnan(epsilon[rows]).all()
            epsilon[rows], loglik[rows] = eps, ll
            t = t0 + eps.shape[0]
        assert t == max_iters
        assert len({cols.size for _, cols, _, _ in chunks}) == 4
        ref = _em_run_loops(matrix, *args)
        for col, n_done in enumerate(ref.n_iterations):
            assert not np.isnan(epsilon[:n_done, col]).any()
            assert np.isnan(epsilon[n_done:, col]).all()
        assert first_difference(SimpleNamespace(**vars(block), epsilon=epsilon,
                                                loglik=loglik),
                                ref, dict(CLOSE, loglik=1e-14)) is None

    def test_patience_stop_on_the_last_iteration_of_the_budget(
            self, setup, small_grid, monkeypatch):
        # the patience window of the first column expires on iteration
        # max_iters - 1, where the budget ends too: patience comes first,
        # as in the loop reference. The second column ends on the budget
        # at the same iterate.
        matrix, back = setup
        hs = [frequencies(heralded_record(small_grid, tau=tau, runs=runs, seed=seed))
              for tau, runs, seed in ((0.5, 2000, 1), (0.4, 10**6, 2))]
        h, q0 = np.stack(hs, axis=1), np.full((16, 2), 1.0 / 16)
        free = _em_run_loops(matrix, h[:, :1], q0[:, :1], 3000, 99, 1e-4)
        assert free.status[0] == STATUS_MIN_EPSILON
        args = (h, q0, int(free.n_iterations[0]), 99, np.array([1e-4, 0.0]))
        block = self._runs(monkeypatch, matrix, back, *args)
        assert block.status.tolist() == [STATUS_MIN_EPSILON, STATUS_MAX_ITERS]
        assert block.n_iterations.tolist() == [free.n_iterations[0]] * 2
        assert first_difference(block, _em_run_loops(matrix, *args),
                                CLOSE) is None

    def test_degenerate_stop_on_the_last_iteration_of_the_budget(
            self, setup, small_grid, monkeypatch):
        # the data of test_degenerate_stop_inside_a_chunk, with a budget
        # that ends on the iterate where the first column's click row
        # underflows: that column ends degenerate, the heralded one on the
        # budget, at the same iterate
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        h = explicit_rows(forward_click_probabilities(
            JointDistribution(vac), small_grid).table)
        h[5] = 5e-324
        hs = [h, frequencies(heralded_record(small_grid, runs=2000, seed=1))]
        args = (np.stack(hs, axis=1), np.full((16, 2), 1.0 / 16), 2084, 2500,
                0.0)
        block = self._runs(monkeypatch, matrix, back, *args)
        assert block.status.tolist() == [STATUS_DEGENERATE, STATUS_MAX_ITERS]
        assert block.n_iterations.tolist() == [2084, 2084]
        assert first_difference(block, _em_run_loops(matrix, *args),
                                CLOSE) is None

    def test_degenerate_cut_on_the_last_iterate_runs_the_chunk_twice(
            self, setup, small_grid, monkeypatch):
        # the data of test_degenerate_stop_on_the_last_iteration_of_the_budget:
        # the last chunk fails its check and is replayed masked, and the
        # degenerate iterate is its last, so the replay has already written
        # the update from there; the chunk does not run a third time
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        h = explicit_rows(forward_click_probabilities(
            JointDistribution(vac), small_grid).table)
        h[5] = 5e-324
        hs = [h, frequencies(heralded_record(small_grid, runs=2000, seed=1))]
        q0 = np.full(16, 1.0 / 16)
        iterate = _kernels._iterate
        for length in CHUNKS:
            calls = []

            def spy(matrix, back, h, gs, qs, ratio, start, n, where):
                calls.append((qs, where is not True))
                return iterate(matrix, back, h, gs, qs, ratio, start, n, where)

            with monkeypatch.context() as patch:
                _force_chunk(patch, length, matrix, 2)
                patch.setattr(_kernels, "_iterate", spy)
                block = em_run(matrix, back, np.stack(hs, axis=1),
                               np.stack([q0, q0], axis=1), 2084, 2500, 0.0)
            assert block.status.tolist() == [STATUS_DEGENERATE, STATUS_MAX_ITERS]
            # the runs of one chunk share its list of iterate arrays, of odd
            # length; a best's replay runs in a list of even length
            chunks = []
            for qs, masked in calls:
                if len(qs) % 2 == 0:
                    continue
                if chunks and chunks[-1][0] is qs:
                    chunks[-1][1].append(masked)
                else:
                    chunks.append((qs, [masked]))
            masks = [runs for _, runs in chunks]
            assert [False, True] in masks
            assert all(runs in ([False], [True], [False, True]) for runs in masks)

    @pytest.mark.filterwarnings("error")
    def test_subnormal_frequency_gives_a_finite_log_likelihood(
            self, setup, small_grid):
        # g/h overflows on a row whose frequency is the smallest subnormal;
        # both log-likelihoods stay finite and agree, with no warning
        matrix, back = setup
        h = frequencies(heralded_record(small_grid, runs=2000, seed=1))
        h[0] = 5e-324
        args = (h[:, None], np.full((16, 1), 1.0 / 16), 300, 300, 0.0)
        ref = _em_run_loops(matrix, *args)
        block = _em_run_history(matrix, back, *args)
        assert first_difference(block, ref, dict(CLOSE, loglik=1e-14)) is None
        assert np.all(np.isfinite(ref.loglik[:ref.n_iterations[0]]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_replay_from_a_non_positive_iterate_inside_a_chunk(
            self, setup, small_grid, monkeypatch):
        # exact vacuum data from the uniform start: the model frequencies
        # of the click rows decay until they underflow to zero, after
        # about 2000 iterations and inside a chunk of 7 or of the default
        # length; the optimistic chunk then fails its check and is
        # replayed masked from its first iterate. The heralded column
        # stays positive.
        matrix, back = setup
        vac = np.zeros((4, 4))
        vac[0, 0] = 1.0
        hs = [explicit_rows(forward_click_probabilities(
                  JointDistribution(vac), small_grid).table),
              frequencies(heralded_record(small_grid, runs=2000, seed=1))]
        args = (np.stack(hs, axis=1), np.full((16, 2), 1.0 / 16), 2500, 2500,
                0.0)
        iterate = _kernels._iterate
        runs = []
        for length in CHUNKS:
            calls = []  # (masked, start) of each run of the update loop

            def spy(matrix, back, h, gs, qs, ratio, start, n, where):
                calls.append((where is not True, start))
                return iterate(matrix, back, h, gs, qs, ratio, start, n, where)

            with monkeypatch.context() as patch:
                _force_chunk(patch, length, matrix, 2)
                patch.setattr(_kernels, "_iterate", spy)
                runs.append(_em_run_history(matrix, back, *args))
            starts = [start for masked, start in calls if masked]
            assert starts, "no chunk took the masked path"
            # an unmasked run followed by a masked one: the one chunk that
            # failed its check, replayed from its first iterate
            replays = [start for (was_masked, _), (masked, start)
                       in zip(calls, calls[1:]) if masked and not was_masked]
            assert replays == [0]
        for other in runs[1:]:
            assert first_difference(runs[0], other) is None
        block = runs[0]
        assert first_difference(block, _em_run_loops(matrix, *args),
                                dict(CLOSE, loglik=1e-14)) is None
        assert block.status.tolist() == [STATUS_MAX_ITERS] * 2


def test_bootstrap_checks_the_caps_before_it_resamples(small_grid):
    # the counts of 10^15 replicates (170 PiB) could not be allocated:
    # the matrix's column cap must refuse the truncation first
    rec = heralded_record(small_grid, runs=5000)
    with pytest.raises(ResourceLimitError, match="exceeds the cap"):
        bootstrap_uncertainty(rec, 100_000, reps=10**15)


@pytest.mark.parametrize("min_decrease", [0.0, None])
def test_bootstrap_sigma_is_the_block_solve_of_resampled_records(
        small_grid, min_decrease):
    # the reference resamples one record per replicate, takes each one's
    # frequencies and writes the noise floor out; the bootstrap's sigma is
    # the spread of that block solve, bit for bit
    rec = heralded_record(small_grid, runs=5000)
    reps, seed = 5, 7
    opts = StoppingConfig(max_iters=3000, patience=50, min_decrease=min_decrease)
    records = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        counts = [rng.multinomial(int(n), f)
                  for n, f in zip(rec.runs, rec.frequency_table())]
        records.append(ClickRecord(grid=rec.grid, modes=rec.modes,
                                   counts=np.array(counts), runs=rec.runs))
    floors = 0.0
    if min_decrease is None:
        floors = []
        for r in records:
            freq = r.frequency_table()[:, :-1]
            floors.append(0.5 * float(
                np.sqrt(freq * (1.0 - freq) / r.runs[:, None]).mean()))
        floors = np.array(floors)
    m = build_matrix(small_grid, 2, 3)
    block = em_run(m.forward, m.back,
                   np.stack([frequencies(r) for r in records], axis=1),
                   np.full((16, reps), 1.0 / 16), opts.max_iters,
                   opts.patience, floors)
    # the floors end every replicate's search early; with 0 none does
    expected = STATUS_MAX_ITERS if min_decrease == 0.0 else STATUS_MIN_EPSILON
    assert block.status.tolist() == [expected] * reps
    finals = [q / float(q.sum()) for q in block.best_q.T]
    sigma = np.std(np.stack(finals), axis=0, ddof=1).reshape(4, 4)
    assert sigma.max() > 0.0
    boot = bootstrap_uncertainty(rec, 3, reps=reps, seed=seed, options=opts)
    np.testing.assert_array_equal(boot.sigma, sigma)


def poison_column(monkeypatch, column):
    """Make the kernel's best iterate of ``column`` non-finite."""
    def run(*args, **kwargs):
        result = em_run(*args, **kwargs)
        result.best_q[0, column] = np.nan
        return result
    monkeypatch.setattr(_kernels, "em_run", run)


def test_non_finite_best_iterate_is_a_numerical_error(small_grid,
                                                      monkeypatch):
    rec = heralded_record(small_grid, runs=5000)
    poison_column(monkeypatch, 0)
    with pytest.raises(NumericalError,
                       match="^non-finite values in the EM iterate$"):
        reconstruct(rec, 3, StoppingConfig(max_iters=20))


def test_non_finite_replicate_is_reported_as_failed(small_grid, monkeypatch):
    rec = heralded_record(small_grid, runs=5000)
    poison_column(monkeypatch, 1)
    boot = bootstrap_uncertainty(rec, 3, reps=3,
                                 options=StoppingConfig(max_iters=20))
    assert boot.failed == [1]
    assert np.all(np.isfinite(boot.sigma))


def test_bootstrap_over_the_replicate_cap_is_refused_before_resampling(
        small_grid, monkeypatch):
    rec = heralded_record(small_grid)
    monkeypatch.setattr(np.random, "default_rng", None)  # no resampling
    with pytest.raises(ResourceLimitError, match="bootstrap replicates"):
        bootstrap_uncertainty(rec, 3, reps=10**9)


@pytest.mark.parametrize("seed", [2, 29])
@pytest.mark.parametrize("preset", ["heralded-unbalanced", "multithermal-split"])
def test_stacked_tables_lay_out_as_each_table(preset, seed):
    # the rows and the noise floor of a (B, K, 2^M) stack are each
    # table's, bit for bit: the bootstrap hands its replicates over as one
    # stack, and a point solve its record as a stack of one
    record, _ = cli._simulate(preset, {}, {"seed": seed})
    freq = record.frequency_table()
    counts = np.empty((100,) + freq.shape, dtype=np.int64)
    for rep in range(100):
        rng = np.random.default_rng([seed, rep])
        counts[rep] = [rng.multinomial(int(n), f)
                       for n, f in zip(record.runs, freq)]
    tables = counts / record.runs[:, None]
    rows = explicit_rows(tables)
    floors = _frequency_noise_floor(tables, record.runs)
    assert rows.shape == ((2**record.modes - 1) * len(record.grid), 100)
    assert floors.shape == (100,)
    np.testing.assert_array_equal(explicit_rows(freq[None])[:, 0],
                                  explicit_rows(freq))
    assert (_frequency_noise_floor(freq[None], record.runs)[0]
            == _frequency_noise_floor(freq, record.runs))
    for b, table in enumerate(tables):
        np.testing.assert_array_equal(rows[:, b], explicit_rows(table))
        explicit = table[:, :-1]
        floor = 0.5 * float(np.sqrt(
            explicit * (1.0 - explicit) / record.runs[:, None]).mean())
        assert floors[b] == _frequency_noise_floor(table, record.runs) == floor


class TestNoiseFloor:
    def test_scales_with_runs(self, small_grid):
        lo = heralded_record(small_grid, runs=1000)
        hi = heralded_record(small_grid, runs=100_000)
        floor_lo, floor_hi = (_frequency_noise_floor(r.frequency_table(), r.runs)
                              for r in (lo, hi))
        assert floor_hi < floor_lo
        # binomial scaling ~ 1/sqrt(runs)
        ratio = floor_lo / floor_hi
        assert ratio == pytest.approx(10.0, rel=0.2)


class TestStoppingConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iters": 0},
            {"patience": 0},
            {"min_decrease": -1e-3},
            {"min_decrease": float("nan")},
            {"min_decrease": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StoppingConfig(**kwargs)
