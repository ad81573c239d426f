"""On/off detection model.

Single-photon survival gives the no-click coefficient (1-eta)^n; stacking
the per-pattern products over a grid of efficiencies yields the linear
model mapping joint photon statistics to click-pattern probabilities.
"""

from __future__ import annotations

import math
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

DEFAULT_COLUMN_CAP = 10**6
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

    def matches(self, other: "EfficiencyGrid", tol: float = 1e-12) -> bool:
        return len(self) == len(other) and bool(
            np.all(np.abs(self.etas - other.etas) <= tol)
        )


def uniform_grid(k: int, eta_min: float, eta_max: float) -> EfficiencyGrid:
    return EfficiencyGrid(np.linspace(eta_min, eta_max, k))


def no_click_coefficient(eta: float, n: int) -> float:
    """Probability that n photons all go undetected at efficiency eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if n < 0:
        raise ValueError("photon number must be >= 0")
    if n == 0:
        return 1.0
    if eta == 1.0:
        return 0.0
    # log-space avoids underflow surprises at large n
    return math.exp(n * math.log1p(-eta))


def _no_click_table(etas: np.ndarray, truncation: int) -> np.ndarray:
    """A[nu, n] = (1 - eta_nu)^n for n = 0..truncation."""
    n = np.arange(truncation + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_a = np.outer(np.log1p(-etas), n)
    table = np.exp(log_a)
    table[:, 0] = 1.0  # 0 * log(0) at eta = 1
    return table


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

    def check_grid(self, grid: EfficiencyGrid, tol: float = 1e-12) -> None:
        if not self.grid.matches(grid, tol=tol):
            raise GridMismatchError(
                "efficiency grid does not match the detection matrix grid"
            )


def build_matrix(
    grid: EfficiencyGrid,
    modes: int,
    truncation: int,
    column_cap: int = DEFAULT_COLUMN_CAP,
    mode_efficiency_scale=None,
) -> DetectionMatrix:
    """Assemble the click-pattern matrix for M modes on a truncated space.

    ``mode_efficiency_scale``, when given, multiplies the shared grid
    efficiency per mode (heterogeneous-detector extension); default is
    the shared-filter configuration.
    """
    if modes < 1:
        raise ValueError("modes must be >= 1")
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    side = truncation + 1
    n_cols = side**modes
    if n_cols > column_cap:
        raise ResourceLimitError(
            f"(1+N)^M = {n_cols} columns exceeds the cap of {column_cap}"
        )
    n_rows = (2**modes - 1) * len(grid)
    matrix_bytes = 2 * 8 * n_rows * n_cols
    if matrix_bytes > MATRIX_BYTES_CAP:
        raise ResourceLimitError(
            f"the {n_rows} x {n_cols} matrix and its back-projector need "
            f"{matrix_bytes} bytes, more than the cap of {MATRIX_BYTES_CAP} "
            f"bytes ({MATRIX_BYTES_CAP / 2**30:g} GiB)"
        )
    if mode_efficiency_scale is None:
        scales = np.ones(modes)
    else:
        scales = np.asarray(mode_efficiency_scale, dtype=np.float64)
        if scales.shape != (modes,):
            raise ValueError("mode_efficiency_scale must have one entry per mode")
        if np.any(scales < 0) or np.any(scales > 1):
            raise ValueError("mode_efficiency_scale entries must lie in [0, 1]")

    tables = [_no_click_table(grid.etas * scales[j], truncation) for j in range(modes)]
    k = len(grid)
    patterns = click_patterns(modes)[:-1]
    rows = np.empty((n_rows, n_cols))
    for b, pattern in enumerate(patterns):
        for nu in range(k):
            factors = [
                tables[j][nu] if bit == "0" else 1.0 - tables[j][nu]
                for j, bit in enumerate(pattern)
            ]
            prod = factors[0]
            for f in factors[1:]:
                prod = np.multiply.outer(prod, f)
            rows[b * k + nu] = prod.reshape(-1)
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
    state: JointDistribution,
    grid: EfficiencyGrid,
    matrix: DetectionMatrix | None = None,
) -> ClickProbabilities:
    """Exact click statistics of ``state`` measured over ``grid``."""
    if matrix is None:
        matrix = build_matrix(grid, state.modes, state.truncation)
    else:
        matrix.check_grid(grid)
        if matrix.modes != state.modes or matrix.truncation != state.truncation:
            raise ValueError("matrix dimensions do not match the state")
    g = matrix.rows @ state.flat()
    k = len(grid)
    n_explicit = 2**state.modes - 1
    table = np.empty((k, n_explicit + 1))
    table[:, :n_explicit] = g.reshape(n_explicit, k).T
    table[:, n_explicit] = 1.0 - table[:, :n_explicit].sum(axis=1)
    return ClickProbabilities(grid=grid, modes=state.modes, table=table)
