"""Maximum-likelihood EM reconstruction of joint photon statistics.

The multiplicative update rescales each entry of the current iterate by
the data/model frequency ratio back-projected through the detection
matrix. Convergence is tracked by the mean absolute deviation between
measured and modeled click frequencies; the iterate at the smallest
deviation is returned.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .detection import DetectionMatrix, build_matrix
from .errors import ClicktomoError, DegenerateSupportError, NumericalError
from .sampler import ClickRecord, frequencies
from .states import JointDistribution

__all__ = [
    "StoppingConfig",
    "ReconstructionTrace",
    "em_step",
    "total_error",
    "log_likelihood",
    "reconstruct",
    "reconstruct_exact",
    "reconstruct_many",
]

_STOP_REASONS = {
    _kernels.STATUS_MAX_ITERS: "max-iters",
    _kernels.STATUS_THRESHOLD: "threshold",
    _kernels.STATUS_MIN_EPSILON: "min-epsilon",
}

_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class StoppingConfig:
    """Iteration limits and stopping rules.

    ``eps_threshold=0`` disables the threshold so the patience rule
    governs: the run stops once ``patience`` iterations pass without a
    new error minimum. A candidate minimum must undercut the running
    best by more than ``min_decrease`` (default 0: every decrease
    counts). Passing ``min_decrease=None`` estimates the floor from the
    binomial noise of the measured frequencies, so the iteration stops
    once the error curve flattens into the sampling noise instead of
    chasing vanishing improvements.
    ``store_every > 0`` keeps every that-many-th iterate in the trace.
    """

    max_iters: int = 100_000
    patience: int = 200
    eps_threshold: float = 0.0
    min_decrease: float | None = 0.0
    store_every: int = 0

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.eps_threshold < 0:
            raise ValueError("eps_threshold must be >= 0")
        if self.min_decrease is not None and self.min_decrease < 0:
            raise ValueError("min_decrease must be >= 0")
        if self.store_every < 0:
            raise ValueError("store_every must be >= 0")


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
    iterates: np.ndarray | None = None
    stored_iterations: np.ndarray | None = None

    def to_csv(self, path) -> None:
        # The bytes csv.writer emits (floats never need quoting), written a
        # block of rows at a time: the text of a 100,000-iteration trace
        # held whole would add about 20 MB to the peak RSS.
        n = self.n_iterations
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write("iteration,epsilon,loglik\r\n")
            for start in range(0, n, _CSV_BLOCK_ROWS):
                stop = min(start + _CSV_BLOCK_ROWS, n)
                fh.write("".join(
                    f"{i},{e!r},{l!r}\r\n"
                    for i, e, l in zip(range(start, stop),
                                       self.epsilon[start:stop].tolist(),
                                       self.loglik[start:stop].tolist())
                ))

    def final_to_json(self, path) -> None:
        doc = {
            "modes": self.final.modes,
            "truncation": self.final.truncation,
            "values": [repr(float(v)) for v in self.final.flat()],
            "renorm_correction": repr(float(self.renorm_correction)),
            "stop_reason": self.stop_reason,
            "best_iteration": self.best_iteration,
            "n_iterations": self.n_iterations,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    def final_to_csv(self, path) -> None:
        side = self.final.truncation + 1
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"n{j + 1}" for j in range(self.final.modes)] + ["rho"]
            )
            for idx in np.ndindex((side,) * self.final.modes):
                writer.writerow(list(idx) + [repr(float(self.final.values[idx]))])


def _validate_qh(q, matrix: DetectionMatrix, h) -> tuple[np.ndarray, np.ndarray]:
    q = np.asarray(q, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    n_rows, n_cols = matrix.rows.shape
    if q.shape != (n_cols,):
        raise ValueError(f"q must have length {n_cols}, got {q.shape}")
    if h.shape != (n_rows,):
        raise ValueError(f"h must have length {n_rows}, got {h.shape}")
    if np.any(q < 0):
        raise ValueError("q entries must be nonnegative")
    return q, h


def em_step(q, matrix: DetectionMatrix, h) -> np.ndarray:
    """One multiplicative update of the flattened distribution."""
    q, h = _validate_qh(q, matrix, h)
    g = matrix.rows @ q
    if _kernels.degenerate_columns(h[:, None], g[:, None])[0]:
        raise DegenerateSupportError(
            "model probability vanished on an observed pattern; "
            "restart from a strictly positive (e.g. uniform) start"
        )
    back = _kernels.back_projector(matrix.rows, matrix.column_sums())
    return q * (back @ _kernels.data_ratio(h, g))


def total_error(q, matrix: DetectionMatrix, h) -> float:
    """Mean absolute deviation between measured and modeled frequencies."""
    q, h = _validate_qh(q, matrix, h)
    g = matrix.rows @ q
    return float(_kernels.mean_abs_deviation(h[:, None], g[:, None])[0])


def log_likelihood(q, matrix: DetectionMatrix, record: ClickRecord) -> float:
    """Log-likelihood of the measured frequencies under the model at ``q``,
    up to a data-dependent constant.

    Computed as the scaled negative information divergence
    ``sum_mu h log(g/h) + h - g`` over the explicit rows: zero when the
    model reproduces the measured frequencies exactly, strictly negative
    otherwise, and nondecreasing along the multiplicative iteration
    (it is the objective the update maximizes). Returns ``-inf`` when an
    observed pattern has zero model probability.
    """
    matrix.check_grid(record.grid)
    g = (matrix.rows @ np.asarray(q, dtype=np.float64))[:, None]
    h = frequencies(record)[:, None]
    return float(_kernels.log_likelihood(h, g)[0])


NOISE_FLOOR_FACTOR = 0.5


def _frequency_noise_floor(record: ClickRecord) -> float:
    """Mean binomial standard error of the explicit pattern frequencies,
    the natural scale below which error improvements are noise."""
    freq = record.frequency_table()[:, :-1]
    sigma = np.sqrt(freq * (1.0 - freq) / record.runs[:, None])
    return NOISE_FLOOR_FACTOR * float(sigma.mean())


def reconstruct(
    record: ClickRecord,
    truncation: int,
    options: StoppingConfig | None = None,
    q0: np.ndarray | None = None,
    matrix: DetectionMatrix | None = None,
) -> ReconstructionTrace:
    """Run the EM iteration on a click record.

    Starts from the uniform distribution unless ``q0`` is given, stops
    per ``options``, and returns the iterate with the smallest total
    error, renormalized to unit mass (the applied correction is kept in
    the trace).
    """
    if options is None:
        options = StoppingConfig()
    if matrix is None:
        matrix = build_matrix(record.grid, record.modes, truncation)
    else:
        matrix.check_grid(record.grid)
        if matrix.truncation != truncation or matrix.modes != record.modes:
            raise ValueError("matrix does not match the requested reconstruction")
    h = frequencies(record)
    min_decrease = options.min_decrease
    if min_decrease is None:
        min_decrease = _frequency_noise_floor(record)
    return _reconstruct_core(matrix, h, options, q0, min_decrease)


def reconstruct_exact(
    probs,
    truncation: int,
    options: StoppingConfig | None = None,
    q0: np.ndarray | None = None,
    matrix: DetectionMatrix | None = None,
) -> ReconstructionTrace:
    """Reconstruct from exact click probabilities (infinite statistics).

    ``probs`` is a :class:`clicktomo.detection.ClickProbabilities`; the
    exact probabilities play the role of the measured frequencies, and
    every error decrease counts toward the minimum.
    """
    if options is None:
        options = StoppingConfig()
    if matrix is None:
        matrix = build_matrix(probs.grid, probs.modes, truncation)
    else:
        matrix.check_grid(probs.grid)
        if matrix.truncation != truncation or matrix.modes != probs.modes:
            raise ValueError("matrix does not match the requested reconstruction")
    h = probs.explicit_vector()
    min_decrease = 0.0 if options.min_decrease is None else options.min_decrease
    return _reconstruct_core(matrix, h, options, q0, min_decrease)


def reconstruct_many(
    records: list[ClickRecord],
    truncation: int,
    options: StoppingConfig | None = None,
) -> list[JointDistribution | ClicktomoError]:
    """Reconstruct several records on one efficiency grid in one block
    EM run, each from the uniform start and with its own stopping state.

    Returns one entry per record: its final distribution (the iterate
    with the smallest total error, renormalized), or the
    :class:`ClicktomoError` its solve ended with. No per-iteration
    history is kept.
    """
    if options is None:
        options = StoppingConfig()
    grid, modes = records[0].grid, records[0].modes
    matrix = build_matrix(grid, modes, truncation)
    for record in records:
        matrix.check_grid(record.grid)
        if record.modes != modes:
            raise ValueError("records must share the number of modes")
    h = np.stack([frequencies(record) for record in records], axis=1)
    min_decrease = options.min_decrease
    if min_decrease is None:
        min_decrease = np.array([_frequency_noise_floor(r) for r in records])
    n_cols = matrix.rows.shape[1]
    q0 = np.full((n_cols, len(records)), 1.0 / n_cols)
    result = _em_block(matrix, h, q0, options, min_decrease, history=False)
    finals: list[JointDistribution | ClicktomoError] = []
    for col, status in enumerate(result.status):
        try:
            finals.append(_final_distribution(result.best_q[:, col], status, modes)[0])
        except ClicktomoError as err:
            finals.append(err)
    return finals


def _em_block(matrix: DetectionMatrix, h, q0, options: StoppingConfig,
              min_decrease, history: bool) -> _kernels.BlockResult:
    """One kernel run; ``history`` keeps the per-iteration ε and
    log-likelihood and the snapshots ``options.store_every`` asks for."""
    back = _kernels.back_projector(matrix.rows, matrix.column_sums())
    return _kernels.em_run(
        matrix.rows, back, h, q0, options.max_iters, options.patience,
        options.eps_threshold, min_decrease,
        history=history, store_every=options.store_every if history else 0,
    )


def _final_distribution(best_q, status, modes) -> tuple[JointDistribution, float]:
    """The renormalized best iterate and its mass before renormalizing;
    raises when the solve ended degenerate, non-finite or massless."""
    if status == _kernels.STATUS_DEGENERATE:
        raise DegenerateSupportError(
            "model probability vanished on an observed pattern during "
            "iteration; restart from a strictly positive start"
        )
    if not np.all(np.isfinite(best_q)):
        raise NumericalError("non-finite values in the EM iterate")
    total = float(best_q.sum())
    if total <= 0:
        raise NumericalError("EM iterate lost all probability mass")
    return JointDistribution.from_flat(best_q / total, modes), total


def _reconstruct_core(
    matrix: DetectionMatrix, h, options: StoppingConfig, q0, min_decrease,
) -> ReconstructionTrace:
    n_cols = matrix.rows.shape[1]
    if q0 is None:
        q0 = np.full(n_cols, 1.0 / n_cols)
    else:
        q0 = np.asarray(q0, dtype=np.float64)
        if q0.shape != (n_cols,):
            raise ValueError(f"q0 must have length {n_cols}")
        if np.any(q0 < 0):
            raise ValueError("q0 entries must be nonnegative")
    result = _em_block(
        matrix, h[:, None], q0[:, None], options, min_decrease, history=True,
    )
    n_done = int(result.n_iterations[0])
    epsilon = result.epsilon[:n_done, 0]
    loglik = result.loglik[:n_done, 0]
    try:
        final, total = _final_distribution(
            result.best_q[:, 0], result.status[0], matrix.modes
        )
    except NumericalError as err:
        err.epsilon = epsilon
        err.loglik = loglik
        raise
    iterates = None if result.iterates is None else result.iterates[:, :, 0]
    return ReconstructionTrace(
        epsilon=epsilon,
        loglik=loglik,
        stop_reason=_STOP_REASONS[int(result.status[0])],
        best_iteration=int(result.best_iteration[0]),
        n_iterations=n_done,
        final=final,
        renorm_correction=float(1.0 - total),
        iterates=iterates,
        stored_iterations=result.stored_iterations,
    )
