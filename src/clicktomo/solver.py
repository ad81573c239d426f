"""Maximum-likelihood EM reconstruction of joint photon statistics.

The multiplicative update rescales each entry of the current iterate by
the data/model frequency ratio back-projected through the detection
matrix. Convergence is tracked by the mean absolute deviation between
measured and modeled click frequencies; the iterate at the smallest
deviation is returned. A point solve is a block of one column with its
history; the bootstrap is one block of all its resampled replicates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._io import (
    TRACE_BLOCK_ROWS,
    fmt,
    tensor_rows,
    write_csv,
    write_json,
    write_trace_csv,
)
from .detection import DetectionMatrix, build_matrix, explicit_rows
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
        step = TRACE_BLOCK_ROWS
        with open(path, "w", newline="", encoding="utf-8") as fh:
            write_trace_csv(fh, ((self.epsilon[i:i + step], self.loglik[i:i + step])
                                 for i in range(0, self.n_iterations, step)))

    def final_to_json(self, path) -> None:
        write_json(path, {
            "modes": self.final.modes,
            "truncation": self.final.truncation,
            "values": [fmt(v) for v in self.final.flat()],
            "renorm_correction": fmt(self.renorm_correction),
            "stop_reason": self.stop_reason,
            "best_iteration": self.best_iteration,
            "n_iterations": self.n_iterations,
        })

    def final_to_csv(self, path) -> None:
        header = [f"n{j + 1}" for j in range(self.final.modes)] + ["rho"]
        write_csv(path, header, tensor_rows(self.final.values))


@dataclass
class BootstrapResult:
    """Entrywise spread of the reconstruction under data resampling."""

    sigma: np.ndarray  # same shape as the distribution tensor
    reps: int
    failed: list[int]  # replicate indices whose reconstruction errored

    def to_csv(self, path, point: JointDistribution) -> None:
        """The point estimate and its sigma per photon-number index."""
        header = [f"n{j + 1}" for j in range(self.sigma.ndim)] + ["rho", "sigma"]
        write_csv(path, header, tensor_rows(point.values, self.sigma))


def _validate_qh(q, matrix: DetectionMatrix, h) -> tuple[np.ndarray, np.ndarray]:
    """``q`` and ``h`` as float arrays of the matrix's column and row
    counts, each entry finite and nonnegative (NaN fails)."""
    n_rows, n_cols = matrix.shape
    q = np.asarray(q, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    for name, v, size in (("q", q, n_cols), ("h", h, n_rows)):
        if v.shape != (size,):
            raise ValueError(f"{name} must have length {size}, got {v.shape}")
        if not np.all(np.isfinite(v) & (v >= 0.0)):
            raise ValueError(f"{name} entries must be finite and nonnegative")
    return q, h


def em_step(q, matrix: DetectionMatrix, h) -> np.ndarray:
    """One multiplicative update of the flattened distribution."""
    q, h = _validate_qh(q, matrix, h)
    g = matrix.forward.dot(q)
    if _kernels.degenerate_columns(h[:, None], g[:, None])[0]:
        raise DegenerateSupportError(
            "model probability vanished on an observed pattern; "
            "restart from a strictly positive (e.g. uniform) start"
        )
    # h/g on the observed rows, 0 elsewhere
    ratio = np.divide(h, g, out=np.zeros_like(g), where=h > 0.0)
    return q * matrix.back.dot(ratio)


def total_error(q, matrix: DetectionMatrix, h) -> float:
    """Mean absolute deviation between measured and modeled frequencies."""
    q, h = _validate_qh(q, matrix, h)
    g = matrix.forward.dot(q)
    return float(_kernels.mean_abs_deviation(h[:, None], g[:, None])[0])


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
    q, h = _validate_qh(q, matrix, h)
    g = matrix.forward.dot(q)
    return float(_kernels.log_likelihood(h[:, None], g[:, None])[0])


NOISE_FLOOR_FACTOR = 0.5


def _frequency_noise_floor(table, runs) -> float:
    """Mean binomial standard error of the explicit pattern frequencies of
    a (K, 2^M) frequency table with ``runs`` trials per efficiency, the
    natural scale below which error improvements are noise."""
    freq = table[:, :-1]
    sigma = np.sqrt(freq * (1.0 - freq) / runs[:, None])
    return NOISE_FLOOR_FACTOR * float(sigma.mean())


def reconstruct(
    record: ClickRecord,
    truncation: int,
    options: StoppingConfig | None = None,
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
    if options is None:
        options = StoppingConfig()
    matrix = build_matrix(record.grid, record.modes, truncation)
    table = record.frequency_table()
    h = explicit_rows(table)
    min_decrease = options.min_decrease
    if min_decrease is None:
        min_decrease = _frequency_noise_floor(table, record.runs)
    return _reconstruct_core(matrix, h, options, min_decrease, on_chunk)


def reconstruct_exact(
    probs,
    truncation: int,
    options: StoppingConfig | None = None,
) -> ReconstructionTrace:
    """Reconstruct from exact click probabilities (infinite statistics).

    ``probs`` is a :class:`clicktomo.detection.ClickProbabilities`; the
    exact probabilities play the role of the measured frequencies. The
    start is uniform; ``min_decrease=None`` means 0, as exact data have
    no sampling noise to estimate a floor from.
    """
    if options is None:
        options = StoppingConfig()
    matrix = build_matrix(probs.grid, probs.modes, truncation)
    h = probs.explicit_vector()
    min_decrease = 0.0 if options.min_decrease is None else options.min_decrease
    return _reconstruct_core(matrix, h, options, min_decrease)


def bootstrap_uncertainty(
    record: ClickRecord,
    truncation: int,
    reps: int = 100,
    seed: int = 0,
    options: StoppingConfig | None = None,
) -> BootstrapResult:
    """Nonparametric bootstrap: resample counts from the empirical pattern
    frequencies, rerun the reconstruction, take entrywise standard
    deviations across replicates.

    Replicate ``r`` draws from a generator seeded by (seed, r), so
    results are reproducible and independent of execution order. All
    replicates are solved together in one block EM run. Replicates whose
    reconstruction fails are reported, not dropped silently.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if options is None:
        options = StoppingConfig()
    freq = record.frequency_table()
    counts = np.empty((reps,) + record.counts.shape, dtype=np.int64)
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        for nu in range(len(record.grid)):
            counts[rep, nu] = rng.multinomial(int(record.runs[nu]), freq[nu])
    tables = counts / record.runs[:, None]
    matrix = build_matrix(record.grid, record.modes, truncation)
    h = np.stack([explicit_rows(t) for t in tables], axis=1)
    min_decrease = options.min_decrease
    if min_decrease is None:
        min_decrease = np.array([_frequency_noise_floor(t, record.runs)
                                 for t in tables])
    result = _em_block(matrix, h, options, min_decrease, history=False)
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


def _em_block(matrix: DetectionMatrix, h, options: StoppingConfig,
              min_decrease, history: bool,
              on_chunk=None) -> _kernels.BlockResult:
    """One kernel run, every column from the uniform start; ``history``
    keeps the per-iteration ε and log-likelihood, which ``on_chunk``
    receives chunk by chunk."""
    n_cols = matrix.shape[1]
    q0 = np.full((n_cols, h.shape[1]), 1.0 / n_cols)
    return _kernels.em_run(
        matrix.forward, matrix.back, h, q0, options.max_iters, options.patience,
        min_decrease, history=history, on_chunk=on_chunk,
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
    matrix: DetectionMatrix, h, options: StoppingConfig, min_decrease,
    on_chunk=None,
) -> ReconstructionTrace:
    result = _em_block(matrix, h[:, None], options, min_decrease, history=True,
                       on_chunk=on_chunk)
    n_done = int(result.n_iterations[0])
    epsilon = result.epsilon[:n_done, 0]
    loglik = result.loglik[:n_done, 0]
    final, total = _final_distribution(
        result.best_q[:, 0], result.status[0], matrix.modes
    )
    return ReconstructionTrace(
        epsilon=epsilon,
        loglik=loglik,
        stop_reason=_STOP_REASONS[int(result.status[0])],
        best_iteration=int(result.best_iteration[0]),
        n_iterations=n_done,
        final=final,
        renorm_correction=float(1.0 - total),
    )
