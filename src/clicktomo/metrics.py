"""Evaluation of reconstructions: marginals, fidelity, bootstrap errors."""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ClicktomoError
from .sampler import ClickRecord
# ``reconstruct`` stays importable from here: the benchmark's tracing
# wraps ``metrics.reconstruct`` by name.
from .solver import StoppingConfig, reconstruct, reconstruct_many  # noqa: F401
from .states import JointDistribution

__all__ = [
    "marginal",
    "fidelity",
    "element_ratio",
    "BootstrapResult",
    "bootstrap_uncertainty",
]


def marginal(dist: JointDistribution, mode: int) -> np.ndarray:
    """Photon-number distribution of one mode, all others traced out."""
    if not 0 <= mode < dist.modes:
        raise IndexError(f"mode {mode} out of range for {dist.modes} modes")
    axes = tuple(j for j in range(dist.modes) if j != mode)
    return dist.values.sum(axis=axes) if axes else dist.values.copy()


def fidelity(p, q, normalize: bool = False) -> float:
    """Bhattacharyya overlap sum_n sqrt(p_n q_n) of two distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    if np.any(p < 0) or np.any(q < 0):
        raise ValueError("entries must be nonnegative")
    if normalize:
        p = p / p.sum()
        q = q / q.sum()
    return float(np.sum(np.sqrt(p * q)))


def element_ratio(dist: JointDistribution, num: tuple, den: tuple) -> float:
    """Ratio of two tensor entries, e.g. rho_01 / rho_10."""
    d = float(dist.values[den])
    if d == 0.0:
        raise ZeroDivisionError(f"denominator entry {den} is zero")
    return float(dist.values[num]) / d


@dataclass
class BootstrapResult:
    """Entrywise spread of the reconstruction under data resampling."""

    sigma: np.ndarray  # same shape as the distribution tensor
    reps: int
    failed: list[int]  # replicate indices whose reconstruction errored

    def to_csv(self, path, point: JointDistribution | None = None) -> None:
        modes = self.sigma.ndim
        side = self.sigma.shape[0]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [f"n{j + 1}" for j in range(modes)] + ["rho", "sigma"]
            )
            for idx in np.ndindex((side,) * modes):
                rho = "" if point is None else repr(float(point.values[idx]))
                writer.writerow(
                    list(idx) + [rho, repr(float(self.sigma[idx]))]
                )


def bootstrap_uncertainty(
    record: ClickRecord,
    truncation: int,
    reps: int = 100,
    seed: int = 0,
    options: StoppingConfig | None = None,
) -> BootstrapResult:
    """Parametric bootstrap: resample counts from the empirical pattern
    frequencies, rerun the reconstruction, take entrywise standard
    deviations across replicates.

    Replicate ``r`` draws from a generator seeded by (seed, r), so
    results are reproducible and independent of execution order. All
    replicates are solved together in one block EM run. Replicates whose
    reconstruction fails are reported, not dropped silently.
    """
    if reps < 2:
        raise ValueError("reps must be >= 2")
    freq = record.frequency_table()
    resampled = []
    for rep in range(reps):
        rng = np.random.default_rng([seed, rep])
        counts = np.empty_like(record.counts)
        for nu in range(len(record.grid)):
            counts[nu] = rng.multinomial(int(record.runs[nu]), freq[nu])
        resampled.append(ClickRecord(
            grid=record.grid, modes=record.modes,
            counts=counts, runs=record.runs,
        ))
    finals = []
    failed = []
    for rep, final in enumerate(reconstruct_many(resampled, truncation, options)):
        if isinstance(final, ClicktomoError):
            failed.append(rep)
        else:
            finals.append(final.values)
    if len(finals) < 2:
        raise ClicktomoError(
            f"only {len(finals)} of {reps} bootstrap replicates succeeded"
        )
    sigma = np.std(np.stack(finals), axis=0, ddof=1)
    return BootstrapResult(sigma=sigma, reps=reps, failed=failed)
