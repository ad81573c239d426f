"""Maximum-likelihood EM reconstruction of joint photon statistics.

The multiplicative update rescales each entry of the current iterate by
the data/model frequency ratio back-projected through the detection
matrix. Convergence is tracked by the mean absolute deviation between
measured and modeled click frequencies; the iterate at the smallest
deviation is returned. Every solve is one block over a stack of
frequency tables (``_solve``): a point solve is a stack of one table,
the bootstrap the stack of its resampled replicates. :func:`em_step`
runs one update of the same kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._io import fmt, reprs, write_json, write_tensor_csv, write_trace_csv
from .detection import (DetectionMatrix, build_matrix, check_size,
                        explicit_rows)
from .errors import ClicktomoError, DegenerateSupportError, NumericalError
from .sampler import ClickRecord
from .states import JointDistribution

__all__ = [
    "StoppingConfig",
    "ReconstructionTrace",
    "em_step",
    "total_error",
    "log_likelihood",
    "reconstruct",
    "reconstruct_exact",
    "BootstrapResult",
    "bootstrap_uncertainty",
]

_STOP_REASONS = {
    _kernels.STATUS_MAX_ITERS: "max-iters",
    _kernels.STATUS_MIN_EPSILON: "min-epsilon",
}


@dataclass(frozen=True)
class StoppingConfig:
    """Iteration limits and stopping rules.

    A run stops after ``max_iters`` iterations, or once ``patience``
    iterations pass without a new error minimum. A candidate minimum
    must undercut the running best by more than ``min_decrease``
    (default 0: every decrease counts). Passing ``min_decrease=None``
    estimates the floor from the binomial noise of the measured
    frequencies, so the iteration stops once the error curve flattens
    into the sampling noise instead of chasing vanishing improvements.
    """

    max_iters: int = 100_000
    patience: int = 200
    min_decrease: float | None = 0.0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        # written so that NaN and infinity fail it
        if self.min_decrease is not None and not 0.0 <= self.min_decrease < np.inf:
            raise ValueError("min_decrease must be finite and >= 0")


@dataclass
class ReconstructionTrace:
    """Per-iteration diagnostics and the reconstructed distribution."""

    epsilon: np.ndarray
    loglik: np.ndarray
    stop_reason: str
    best_iteration: int
    n_iterations: int
    final: JointDistribution
    renorm_correction: float

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_trace_csv(fh, [(self.epsilon, self.loglik)])

    def final_to_json(self, path) -> None:
        write_json(path, {
            "modes": self.final.modes,
            "truncation": self.final.truncation,
            "values": reprs(self.final.values),
            "renorm_correction": fmt(self.renorm_correction),
            "stop_reason": self.stop_reason,
            "best_iteration": self.best_iteration,
            "n_iterations": self.n_iterations,
        })

    def final_to_csv(self, path) -> None:
        header = [f"n{j + 1}" for j in range(self.final.modes)] + ["rho"]
        write_tensor_csv(path, header, self.final.values)


@dataclass
class BootstrapResult:
    """Entrywise spread of the reconstruction under data resampling."""

    sigma: np.ndarray  # same shape as the distribution tensor
    reps: int
    failed: list[int]  # replicate indices whose reconstruction errored

    def to_csv(self, path, point: JointDistribution) -> None:
        """The point estimate and its sigma per photon-number index."""
        header = [f"n{j + 1}" for j in range(self.sigma.ndim)] + ["rho", "sigma"]
        write_tensor_csv(path, header, point.values, self.sigma)


def _blocks(q, matrix: DetectionMatrix, h):
    """``q`` and ``h`` as one-column blocks; they must have the matrix's
    column and row counts, each entry finite and nonnegative (NaN fails)."""
    n_rows, n_cols = matrix.shape
    q = np.asarray(q, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    for name, v, size in (("q", q, n_cols), ("h", h, n_rows)):
        if v.shape != (size,):
            raise ValueError(f"{name} must have length {size}, got {v.shape}")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValueError(f"{name} entries must be finite and nonnegative")
    return q[:, None], h[:, None]


def _model(q, matrix: DetectionMatrix, h):
    """``h`` and the model frequencies ``g = A q``, as :func:`_blocks`."""
    q, h = _blocks(q, matrix, h)
    return h, matrix.forward.dot(q)


def em_step(q, matrix: DetectionMatrix, h) -> np.ndarray:
    """One multiplicative update of the flattened distribution, as the
    solve's kernel runs it on a one-column block. Raises, rather than
    return the update, when the kernel's model frequencies vanish on an
    observed pattern."""
    q, h = _blocks(q, matrix, h)
    g, qs = np.empty_like(h), [q, np.empty_like(q)]
    # masked: an unobserved row adds 0, even at g = 0
    _kernels._iterate(matrix.forward, matrix.back, h, [g], qs,
                      np.empty_like(h), 0, 1, h > 0.0)
    if _kernels.degenerate_columns(h, g)[0]:
        raise DegenerateSupportError(
            "the given q gives an observed click pattern no model probability"
        )
    return qs[1][:, 0]


def total_error(q, matrix: DetectionMatrix, h) -> float:
    """Mean absolute deviation between measured and modeled frequencies."""
    h, g = _model(q, matrix, h)
    return float(_kernels.mean_abs_deviation(h, g)[0])


def log_likelihood(q, matrix: DetectionMatrix, h) -> float:
    """Log-likelihood of the measured frequencies ``h`` under the model at
    ``q``, up to a data-dependent constant.

    Computed as the scaled negative information divergence
    ``sum_mu h log(g/h) + h - g`` over the explicit rows: zero when the
    model reproduces the measured frequencies exactly, strictly negative
    otherwise, and nondecreasing along the multiplicative iteration
    (it is the objective the update maximizes). Returns ``-inf`` when an
    observed pattern has zero model probability.
    """
    h, g = _model(q, matrix, h)
    return float(_kernels.log_likelihood(h, g)[0])


NOISE_FLOOR_FACTOR = 0.5


def _frequency_noise_floor(table, runs):
    """Mean binomial standard error of the explicit pattern frequencies of
    a (K, 2^M) table, or per table of a (B, K, 2^M) stack, at ``runs``
    trials per efficiency: the scale below which error improvements are noise."""
    freq = table[..., :-1]
    sigma = np.sqrt(freq * (1.0 - freq) / runs[:, None])
    return NOISE_FLOOR_FACTOR * sigma.mean(axis=(-2, -1))


def reconstruct(
    record: ClickRecord,
    truncation: int,
    options: StoppingConfig = StoppingConfig(),
    on_chunk=None,
) -> ReconstructionTrace:
    """Run the EM iteration on a click record.

    Starts from the uniform distribution, stops per ``options``, and
    returns the iterate with the smallest total error, renormalized to
    unit mass (the applied correction is kept in the trace).
    ``on_chunk(eps, ll)``, if given, receives the trace's ε and
    log-likelihood while the solve runs, as the kernel's per-chunk
    callback (:func:`clicktomo._kernels.em_run`): n×1 arrays, chunk by
    chunk in iteration order, which the next chunk overwrites.
    """
    matrix = build_matrix(record.grid, record.modes, truncation)
    return _reconstruct_core(matrix, record.frequency_table(), record.runs,
                             options, on_chunk)


def reconstruct_exact(
    probs,
    truncation: int,
    options: StoppingConfig = StoppingConfig(),
) -> ReconstructionTrace:
    """Reconstruct from exact click probabilities (infinite statistics).

    ``probs`` is a :class:`clicktomo.detection.ClickProbabilities`; the
    exact probabilities play the role of the measured frequencies. The
    start is uniform; ``min_decrease=None`` means 0, as exact data have
    no sampling noise to estimate a floor from.
    """
    matrix = build_matrix(probs.grid, probs.modes, truncation)
    return _reconstruct_core(matrix, probs.table, None, options)


def bootstrap_uncertainty(
    record: ClickRecord,
    truncation: int,
    reps: int = 100,
    seed: int = 0,
    options: StoppingConfig = StoppingConfig(),
) -> BootstrapResult:
    """Nonparametric bootstrap: resample counts from the empirical pattern
    frequencies, rerun the reconstruction, take entrywise standard
    deviations across replicates.

    Replicate ``r`` draws from a generator seeded by (seed, r), so
    results are reproducible and independent of execution order. All
    replicates are solved together in one block solve. Replicates whose
    reconstruction fails are reported, not dropped silently.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    # first: it checks the size caps and allocates nothing
    check_size(len(record.grid), record.modes, truncation, reps)
    matrix = build_matrix(record.grid, record.modes, truncation)
    freq = record.frequency_table()
    counts = np.empty((reps,) + record.counts.shape, dtype=np.int64)
    for rep in range(reps):  # per efficiency in grid order, as a loop would draw
        counts[rep] = np.random.default_rng([seed, rep]).multinomial(
            record.runs, freq)
    result = _solve(matrix, counts / record.runs[:, None], record.runs, options)
    finals = []
    failed = []
    for rep, status in enumerate(result.status):
        try:
            finals.append(_final_distribution(
                result.best_q[:, rep], status, record.modes)[0].values)
        except ClicktomoError:
            failed.append(rep)
    if len(finals) < 2:
        raise ClicktomoError(
            f"only {len(finals)} of {reps} bootstrap replicates succeeded"
        )
    sigma = np.std(np.stack(finals), axis=0, ddof=1)
    return BootstrapResult(sigma=sigma, reps=reps, failed=failed)


def _solve(matrix: DetectionMatrix, tables, runs, options: StoppingConfig,
           on_chunk=None) -> _kernels.BlockResult:
    """The one EM solve: a kernel column per table of the (B, K, 2^M)
    stack ``tables``, each from the uniform start. ``min_decrease=None``
    means each table's noise floor at ``runs`` trials per efficiency, or
    0 for exact data (``runs=None``). ``on_chunk``, if given, goes to
    :func:`clicktomo._kernels.em_run` as it is."""
    min_decrease = options.min_decrease
    if min_decrease is None:
        min_decrease = 0.0 if runs is None else _frequency_noise_floor(tables, runs)
    n_cols = matrix.shape[1]
    q0 = np.full((n_cols, len(tables)), 1.0 / n_cols)
    return _kernels.em_run(
        matrix.forward, matrix.back, explicit_rows(tables), q0, options.max_iters,
        options.patience, min_decrease, on_chunk=on_chunk,
    )


def _final_distribution(best_q, status, modes) -> tuple[JointDistribution, float]:
    """The renormalized best iterate and its mass before renormalizing;
    raises when the solve ended degenerate, non-finite or massless."""
    if status == _kernels.STATUS_DEGENERATE:
        raise DegenerateSupportError(
            "an observed click pattern has no model probability; "
            "the truncation may be too small to explain the data"
        )
    if not np.all(np.isfinite(best_q)):
        raise NumericalError("non-finite values in the EM iterate")
    total = float(best_q.sum())
    if total <= 0:
        raise NumericalError("EM iterate lost all probability mass")
    return JointDistribution.from_flat(best_q / total, modes), total


def _reconstruct_core(
    matrix: DetectionMatrix, table, runs, options: StoppingConfig,
    on_chunk=None,
) -> ReconstructionTrace:
    """The point solve of one table and its trace, whose rows for the whole
    budget are allocated before the solve; each chunk's go on to ``on_chunk``."""
    rows = np.empty((2, options.max_iters))  # ε and log-likelihood

    def collect(t0, cols, eps, ll):
        rows[:, t0:t0 + len(eps)] = eps[:, 0], ll[:, 0]
        if on_chunk is not None:
            on_chunk(eps, ll)

    result = _solve(matrix, table[None], runs, options, collect)
    n_done = int(result.n_iterations[0])
    final, total = _final_distribution(
        result.best_q[:, 0], result.status[0], matrix.modes
    )
    return ReconstructionTrace(
        epsilon=rows[0, :n_done],
        loglik=rows[1, :n_done],
        stop_reason=_STOP_REASONS[int(result.status[0])],
        best_iteration=int(result.best_iteration[0]),
        n_iterations=n_done,
        final=final,
        renorm_correction=float(1.0 - total),
    )
