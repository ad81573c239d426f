"""On/off detection model.

Single-photon survival gives the no-click coefficient (1-eta)^n; stacking
the per-pattern products over a grid of efficiencies yields the linear
model mapping joint photon statistics to click-pattern probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ResourceLimitError
from .states import JointDistribution

__all__ = [
    "EfficiencyGrid",
    "DetectionMatrix",
    "ClickProbabilities",
    "uniform_grid",
    "no_click_coefficient",
    "click_patterns",
    "build_matrix",
    "forward_click_probabilities",
]

# Columns (1+N)^M a detection matrix may have.
COLUMN_CAP = 10**6
# Bytes a reconstruction may spend on the matrix and the back-projector,
# its scaled transpose: rows x columns x 8 B each.
MATRIX_BYTES_CAP = 2**30


@dataclass(frozen=True)
class EfficiencyGrid:
    """Strictly increasing quantum efficiencies in (0, 1]."""

    etas: np.ndarray

    def __post_init__(self):
        etas = np.asarray(self.etas, dtype=np.float64)
        if etas.ndim != 1 or etas.size < 1:
            raise ValueError("grid needs at least one efficiency")
        # written so that a NaN fails it
        if not np.all((etas > 0) & (etas <= 1)):
            raise ValueError("efficiencies must lie in (0, 1]")
        if np.any(np.diff(etas) <= 0):
            raise ValueError("efficiencies must be strictly increasing")
        etas = etas.copy()
        etas.flags.writeable = False
        object.__setattr__(self, "etas", etas)

    def __len__(self) -> int:
        return self.etas.size

    def matches(self, other: "EfficiencyGrid") -> bool:
        return len(self) == len(other) and bool(
            np.all(np.abs(self.etas - other.etas) <= 1e-12)
        )


def uniform_grid(k: int, eta_min: float, eta_max: float) -> EfficiencyGrid:
    return EfficiencyGrid(np.linspace(eta_min, eta_max, k))


def no_click_coefficient(eta, n) -> np.ndarray:
    """Probability (1 - eta)^n that n photons all go undetected at
    efficiency eta.

    ``eta`` and ``n`` broadcast against each other; the result is a
    float64 array, 0-d for scalar input.
    """
    eta = np.asarray(eta, dtype=np.float64)
    n = np.asarray(n)
    # written so that a NaN fails it
    if not np.all((eta >= 0) & (eta <= 1)):
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if np.any(n < 0):
        raise ValueError("photon number must be >= 0")
    # log-space avoids underflow surprises at large n; at eta = 1 the
    # n = 0 entry is 0 * log(0), hence the explicit 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0, 1.0, np.exp(np.log1p(-eta) * n))


def click_patterns(modes: int) -> list[str]:
    """All 2^M click patterns in binary order, mode 1 most significant.

    '0' means no click, '1' means click; the all-ones pattern comes last
    and is the one omitted from the explicit linear model.
    """
    return [format(i, f"0{modes}b") for i in range(2**modes)]


@dataclass(frozen=True)
class DetectionMatrix:
    """Linear map from flattened joint photon statistics to the explicit
    click-pattern probabilities.

    ``rows`` has shape (R, P) with R = (2^M - 1) * K: one block of K
    efficiencies per explicit pattern, patterns in binary order with the
    all-click pattern omitted.  Columns follow the row-major flattening
    of the photon tensor (mode 1 slowest).
    """

    rows: np.ndarray
    grid: EfficiencyGrid
    modes: int
    truncation: int

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.float64)
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)

    def column_sums(self) -> np.ndarray:
        return self.rows.sum(axis=0)

    def check_grid(self, grid: EfficiencyGrid) -> None:
        if not self.grid.matches(grid):
            raise GridMismatchError(
                "efficiency grid does not match the detection matrix grid"
            )


def build_matrix(grid: EfficiencyGrid, modes: int, truncation: int) -> DetectionMatrix:
    """Assemble the click-pattern matrix for M modes on a truncated space,
    every mode seeing the grid efficiency."""
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    side = truncation + 1
    n_cols = side**modes
    if n_cols > COLUMN_CAP:
        raise ResourceLimitError(
            f"(1+N)^M = {n_cols} columns exceeds the cap of {COLUMN_CAP}"
        )
    n_rows = (2**modes - 1) * len(grid)
    matrix_bytes = 2 * 8 * n_rows * n_cols
    if matrix_bytes > MATRIX_BYTES_CAP:
        raise ResourceLimitError(
            f"the {n_rows} x {n_cols} matrix and its back-projector need "
            f"{matrix_bytes} bytes, more than the cap of {MATRIX_BYTES_CAP} "
            f"bytes ({MATRIX_BYTES_CAP / 2**30:g} GiB)"
        )
    # per mode: no click with probability a = (1-eta)^n, a click with 1 - a
    a = no_click_coefficient(grid.etas[:, None], np.arange(side))
    factors = {"0": a, "1": 1.0 - a}
    k = len(grid)
    rows = np.empty((n_rows, n_cols))
    for b, pattern in enumerate(click_patterns(modes)[:-1]):
        # outer product over the modes, one row per efficiency; the last
        # factor is multiplied straight into the matrix, so no temporary
        # of the matrix block's size is made
        block = np.ones((k, 1))
        for bit in pattern[:-1]:
            block = (block[:, :, None] * factors[bit][:, None, :]).reshape(k, -1)
        np.multiply(block[:, :, None], factors[pattern[-1]][:, None, :],
                    out=rows[b * k:(b + 1) * k].reshape(k, -1, side))
    return DetectionMatrix(rows=rows, grid=grid, modes=modes, truncation=truncation)


@dataclass(frozen=True)
class ClickProbabilities:
    """Per-efficiency probability of every click pattern.

    ``table`` has shape (K, 2^M), columns ordered as
    :func:`click_patterns`; each row sums to 1, the all-click column
    being the complement of the explicit ones.
    """

    grid: EfficiencyGrid
    modes: int
    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=np.float64)
        expected = (len(self.grid), 2**self.modes)
        if table.shape != expected:
            raise ValueError(f"table shape {table.shape}, expected {expected}")
        if np.any(table < -1e-12):
            raise ValueError("pattern probabilities must be nonnegative")
        table = np.clip(table, 0.0, None)
        if np.any(np.abs(table.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("pattern probabilities must sum to 1 per efficiency")
        table.flags.writeable = False
        object.__setattr__(self, "table", table)

    def explicit_vector(self) -> np.ndarray:
        """Pattern-block layout over efficiencies, all-click omitted."""
        return self.table[:, :-1].T.reshape(-1)


def forward_click_probabilities(
    state: JointDistribution, grid: EfficiencyGrid
) -> ClickProbabilities:
    """Exact click statistics of ``state`` measured over ``grid``."""
    matrix = build_matrix(grid, state.modes, state.truncation)
    g = matrix.rows @ state.flat()
    k = len(grid)
    n_explicit = 2**state.modes - 1
    table = np.empty((k, n_explicit + 1))
    table[:, :n_explicit] = g.reshape(n_explicit, k).T
    table[:, n_explicit] = 1.0 - table[:, :n_explicit].sum(axis=1)
    return ClickProbabilities(grid=grid, modes=state.modes, table=table)
