"""On/off detection model.

Single-photon survival gives the no-click coefficient (1-eta)^n; stacking
the per-pattern products over a grid of efficiencies yields the linear
model mapping joint photon statistics to click-pattern probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ResourceLimitError
from .states import JointDistribution, check_modes

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
# its scaled transpose: rows x columns x 8 B each. Counted on the dense
# size also where the solve runs on the factored pair.
MATRIX_BYTES_CAP = 2**30
# Bytes a bootstrap may spend on its replicates: per replicate, one
# (K, 2^M) frequency table and one iterate of (1+N)^M entries, 8 B each.
REPLICATE_BYTES_CAP = 2**30
# Two-mode matrices from this truncation on run the forward model and the
# EM update on the factored pair (TwoModeMatrix) instead of the dense
# matrix: the crossover of one forward plus back-projection, measured with
# benchmarks/bench_em.py (README, Performance).
FACTORED_MIN_TRUNCATION = 32


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


def _output(out, shape):
    """``out``, checked as :func:`numpy.dot` checks it (the factored maps
    write through reshaped views of it), or a new array."""
    if out is None:
        return np.empty(shape)
    if out.shape != shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous array of shape {shape}")
    return out


class TwoModeMatrix:
    """The R×P detection matrix of two modes, held as its factors.

    Row (pattern, eta) of the dense matrix is the outer product of one
    factor per mode: a = (1-eta)^n for no click, 1 - a for a click. With
    Q the (N+1)×(N+1)×B view of a P×B block, T = a@Q and U = (1-a)@Q,
    the forward map is p00 = Σ T∘a, p01 = Σ T∘(1-a), p10 = Σ U∘a, and
    the transpose is [a; 1-a]ᵀ @ [r00 a + r01 (1-a); r10 a]. Each way
    is one BLAS product of 2K(N+1)^2 multiply-adds per column on factors
    that stay in cache, where the dense matrix streams its 3K(N+1)^2
    entries from memory. Every entry of either map is a sum of nonnegative products,
    as in the dense matrix. A form that subtracts, such as
    p01 = aᵀQ1 - p00, cancels where a is about 1e-15 (eta = 0.25 at
    n = 120): it can turn a model frequency negative, or a column sum
    into rounding noise.
    """

    def __init__(self, a):
        k, side = a.shape
        self.shape = (3 * k, side * side)
        self._k, self._side = k, side
        self._ac = np.concatenate([a, 1.0 - a])  # 2K×(N+1)
        self._a = self._ac[:k]
        # per efficiency, the factors as rows (2×K×1×(N+1)) and as
        # columns (K×(N+1)×2), for batched products with T, U and r
        self._rows_ac = self._ac.reshape(2, k, 1, side)
        self._row_a = self._a[:, None, :]
        self._cols_ac = np.stack([self._a, self._ac[k:]], axis=-1)

    def dot(self, x, out=None):
        """``A @ x`` for a P-vector or a P×B block."""
        k, side = self._k, self._side
        x2 = x.reshape(side, -1)
        width = x2.shape[1] // side
        out = _output(out, (self.shape[0],) + x.shape[1:])
        tu = (self._ac @ x2).reshape(2 * k, side, width)
        np.matmul(self._rows_ac, tu[:k], out=out[:2 * k].reshape(2, k, 1, width))
        np.matmul(self._row_a, tu[k:], out=out[2 * k:].reshape(k, 1, width))
        return out

    def rdot(self, r, out=None):
        """``A.T @ r`` for an R-vector or an R×B block."""
        k, side = self._k, self._side
        r2 = r.reshape(3 * k, -1)
        width = r2.shape[1]
        out = _output(out, (self.shape[1],) + r.shape[1:])
        wv = np.empty((2 * k, side, width))
        np.matmul(self._cols_ac, r2[:2 * k].reshape(2, k, width).transpose(1, 0, 2),
                  out=wv[:k])
        np.einsum("ik,ib->ikb", self._a, r2[2 * k:], out=wv[k:])
        np.dot(self._ac.T, wv.reshape(2 * k, side * width),
               out=out.reshape(side, side * width))
        return out


def check_size(k: int, modes: int, truncation: int,
               reps: int = 0) -> tuple[int, int]:
    """The shape (R, P) of the detection matrix of ``k`` efficiencies,
    ``modes`` modes and truncation ``truncation``, read off the sizes alone
    so that a state, a grid or a bootstrap of ``reps`` replicates can be
    refused before it is built: raises :class:`ResourceLimitError` past
    ``COLUMN_CAP``, ``MATRIX_BYTES_CAP`` or ``REPLICATE_BYTES_CAP``, and a
    ``ValueError`` from :func:`~clicktomo.states.check_modes` first."""
    check_modes(modes)
    n_patterns, n_cols = 2**modes, (truncation + 1) ** modes
    n_rows = (n_patterns - 1) * k
    if n_cols > COLUMN_CAP:
        raise ResourceLimitError(
            f"(1+N)^M = {n_cols} columns exceeds the cap of {COLUMN_CAP}"
        )
    # the dense equivalent, whichever operator the solve uses
    matrix_bytes = 2 * 8 * n_rows * n_cols
    if matrix_bytes > MATRIX_BYTES_CAP:
        raise ResourceLimitError(
            f"the {n_rows} x {n_cols} matrix and its back-projector need "
            f"{matrix_bytes} bytes, more than the cap of {MATRIX_BYTES_CAP} "
            f"bytes ({MATRIX_BYTES_CAP / 2**30:g} GiB)"
        )
    replicate_bytes = 8 * reps * (k * n_patterns + n_cols)
    if replicate_bytes > REPLICATE_BYTES_CAP:
        raise ResourceLimitError(
            f"Unable to allocate {replicate_bytes} bytes of frequency tables "
            f"and iterates for {reps} bootstrap replicates, more than the cap "
            f"of {REPLICATE_BYTES_CAP} bytes ({REPLICATE_BYTES_CAP / 2**30:g} GiB)"
        )
    return n_rows, n_cols


def _inverse_column_sums(colsum):
    """``1/colsum``, and 0 where the column sum vanishes."""
    positive = colsum > 0.0
    return np.where(positive, 1.0 / np.where(positive, colsum, 1.0), 0.0)


def back_projector(matrix):
    """P×R back-projection of a dense matrix: ``matrix.T`` with row p
    scaled by one over column sum p (0 where it vanishes), so that one
    EM update is ``q * back.dot(h/g)``. One copy, scaled in place."""
    back = matrix.T.copy()
    back *= _inverse_column_sums(matrix.sum(axis=0))[:, None]
    return back


class ScaledTranspose:
    """P×R back-projection of a :class:`TwoModeMatrix`: its transpose with
    row p scaled by one over column sum p, as :func:`back_projector`
    builds it from a dense matrix."""

    def __init__(self, matrix: TwoModeMatrix):
        self.shape = matrix.shape[::-1]
        self._matrix = matrix
        self._inv_colsum = _inverse_column_sums(
            matrix.rdot(np.ones(matrix.shape[0])))

    def dot(self, r, out=None):
        out = self._matrix.rdot(r, out)
        out *= self._inv_colsum.reshape((-1,) + (1,) * (out.ndim - 1))
        return out


@dataclass(frozen=True)
class DetectionMatrix:
    """Linear map from flattened joint photon statistics to the explicit
    click-pattern probabilities.

    ``shape`` is (R, P) with R = (2^M - 1) * K: one block of K
    efficiencies per explicit pattern, patterns in binary order with the
    all-click pattern omitted.  Columns follow the row-major flattening
    of the photon tensor (mode 1 slowest).

    ``forward`` (R×P) and ``back`` (P×R, the transpose with row p scaled
    by one over column sum p) are what the forward model and the EM
    update multiply by. For two modes at truncation N >=
    ``FACTORED_MIN_TRUNCATION`` they are the factored pair
    (:class:`TwoModeMatrix`); otherwise the dense ``rows`` and its
    scaled copy. ``rows`` is built on first use.
    """

    grid: EfficiencyGrid
    modes: int
    truncation: int

    def __post_init__(self):
        if self.truncation < 0:
            raise ValueError("truncation must be >= 0")
        object.__setattr__(self, "shape", check_size(
            len(self.grid), self.modes, self.truncation))

    @cached_property
    def _no_click(self) -> np.ndarray:
        """K×(N+1): the no-click factor a = (1-eta)^n of one mode."""
        return no_click_coefficient(self.grid.etas[:, None],
                                    np.arange(self.truncation + 1))

    @cached_property
    def rows(self) -> np.ndarray:
        """The dense R×P matrix, read-only."""
        # per mode: no click with probability a, a click with 1 - a
        a = self._no_click
        factors = {"0": a, "1": 1.0 - a}
        k, side = a.shape
        rows = np.empty(self.shape)
        for b, pattern in enumerate(click_patterns(self.modes)[:-1]):
            # outer product over the modes, one row per efficiency; the last
            # factor is multiplied straight into the matrix, so no temporary
            # of the matrix block's size is made
            block = np.ones((k, 1))
            for bit in pattern[:-1]:
                block = (block[:, :, None] * factors[bit][:, None, :]).reshape(k, -1)
            np.multiply(block[:, :, None], factors[pattern[-1]][:, None, :],
                        out=rows[b * k:(b + 1) * k].reshape(k, -1, side))
        rows.flags.writeable = False
        return rows

    @cached_property
    def forward(self):
        if self.modes == 2 and self.truncation >= FACTORED_MIN_TRUNCATION:
            return TwoModeMatrix(self._no_click)
        return self.rows

    @cached_property
    def back(self):
        if isinstance(self.forward, TwoModeMatrix):
            return ScaledTranspose(self.forward)
        return back_projector(self.rows)


def build_matrix(grid: EfficiencyGrid, modes: int, truncation: int) -> DetectionMatrix:
    """The click-pattern matrix for M modes on a truncated space, every
    mode seeing the grid efficiency. Checks the caps; allocates nothing
    of the matrix's size."""
    return DetectionMatrix(grid=grid, modes=modes, truncation=truncation)


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


def explicit_rows(table) -> np.ndarray:
    """The R-vector of a (K, 2^M) pattern table in the detection matrix's
    row order: one block of K efficiencies per pattern, the all-click
    column dropped. :func:`forward_click_probabilities` inverts it. A
    (B, K, 2^M) stack of tables gives the R×B block of their vectors."""
    return table[..., :-1].T.reshape((-1,) + table.shape[:-2])


def forward_click_probabilities(
    state: JointDistribution, grid: EfficiencyGrid
) -> ClickProbabilities:
    """Exact click statistics of ``state`` measured over ``grid``."""
    matrix = build_matrix(grid, state.modes, state.truncation)
    g = matrix.forward.dot(state.flat())
    k = len(grid)
    n_explicit = 2**state.modes - 1
    table = np.empty((k, n_explicit + 1))
    table[:, :n_explicit] = g.reshape(n_explicit, k).T
    table[:, n_explicit] = 1.0 - table[:, :n_explicit].sum(axis=1)
    return ClickProbabilities(grid=grid, modes=state.modes, table=table)
