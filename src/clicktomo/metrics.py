"""Evaluation of reconstructions: one-mode marginals and fidelity."""

from __future__ import annotations

import numpy as np

# Importable from here: the benchmark's tracing wraps
# ``metrics.reconstruct`` and ``metrics.BootstrapResult`` by name.
from .solver import BootstrapResult, reconstruct  # noqa: F401
from .states import JointDistribution

__all__ = [
    "marginal",
    "fidelity",
]


def marginal(dist: JointDistribution | np.ndarray, mode: int) -> np.ndarray:
    """Photon-number distribution of one mode, all others traced out, of
    a joint distribution or of its joint array (one axis per mode), which
    need not have unit mass."""
    values = dist.values if isinstance(dist, JointDistribution) else np.asarray(dist)
    if not 0 <= mode < values.ndim:
        raise IndexError(f"mode {mode} out of range for {values.ndim} modes")
    axes = tuple(j for j in range(values.ndim) if j != mode)
    return values.sum(axis=axes) if axes else values.copy()


def fidelity(p, q) -> float:
    """Bhattacharyya overlap sum_n sqrt(p_n q_n) of two distributions,
    each first scaled to unit mass, so a truncated reconstruction and its
    reference compare as distributions."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("distributions must have the same shape")
    p_mass, q_mass = p.sum(), q.sum()
    if np.any(p < 0) or np.any(q < 0) or not (p_mass > 0 and q_mass > 0):
        raise ValueError("entries must be nonnegative, with a positive total")
    return float(np.sum(np.sqrt(p / p_mass * (q / q_mass))))
