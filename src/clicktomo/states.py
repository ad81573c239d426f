"""Joint photon-number distributions for test states.

Provides the two reference states used throughout (a heralded single
photon split on a beam splitter, and a split multithermal beam), plus
analytic click-probability references for the multithermal case and
construction of arbitrary diagonal states.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._io import is_json_number, json_number
from .errors import TruncationError

__all__ = [
    "JointDistribution",
    "ThermalSpec",
    "heralded_split_state",
    "multithermal_marginal",
    "split_on_beamsplitter",
    "multithermal_click_reference",
    "state_from_json",
]


def check_modes(modes: int) -> None:
    """Refuse a mode count below 1 or above 64 with a ``ValueError`` that
    names ``modes``, before anything of its size is made. A state holds one
    array axis per mode, and numpy (from 2.0 on) allows at most 64 axes."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if modes > 64:
        raise ValueError(f"modes must be <= 64, numpy's limit on the axes "
                         f"of an array, got {modes}")


@dataclass(frozen=True)
class JointDistribution:
    """Nonnegative tensor of joint photon-number probabilities.

    ``values`` has shape ``(N+1,) * M`` where entry ``[n1, ..., nM]`` is
    the probability of finding ``nj`` photons in mode ``j``.  The
    flattened layout is row-major with mode 1 slowest, so for two modes
    the flat index of (n, k) is ``k + n * (N + 1)``.

    ``leakage`` is the declared probability mass lost to truncation;
    the entries are kept unnormalized (summing to ``1 - leakage``)
    unless :meth:`normalized` is called explicitly.
    """

    values: np.ndarray
    leakage: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim < 1:
            raise ValueError("values must have at least one axis")
        sizes = set(values.shape)
        if len(sizes) != 1:
            raise ValueError("all modes must share the same truncation")
        if np.any(values < 0):
            raise ValueError("probabilities must be nonnegative")
        if not (0.0 <= self.leakage < 1.0):
            raise ValueError("leakage must lie in [0, 1)")
        total = values.sum()
        if not math.isclose(total, 1.0 - self.leakage, abs_tol=1e-9):
            raise ValueError(
                f"entries sum to {total}, expected {1.0 - self.leakage} "
                "(declared leakage does not match)"
            )
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def modes(self) -> int:
        return self.values.ndim

    @property
    def truncation(self) -> int:
        return self.values.shape[0] - 1

    def flat(self) -> np.ndarray:
        """Row-major flattening, mode 1 slowest."""
        return self.values.reshape(-1)

    def normalized(self) -> "JointDistribution":
        """Explicitly renormalize away the truncation leakage."""
        total = self.values.sum()
        if total <= 0:
            raise ValueError("cannot normalize an all-zero distribution")
        return JointDistribution(self.values / total, leakage=0.0)

    @staticmethod
    def from_flat(flat, modes: int, leakage: float = 0.0) -> "JointDistribution":
        check_modes(modes)
        flat = np.asarray(flat, dtype=np.float64)
        per_mode = round(flat.size ** (1.0 / modes))
        if per_mode**modes != flat.size:
            raise ValueError(
                f"flat length {flat.size} is not a perfect {modes}-th power"
            )
        return JointDistribution(flat.reshape((per_mode,) * modes), leakage=leakage)


@dataclass(frozen=True)
class ThermalSpec:
    """Multithermal beam: ``num_modes`` equal thermal modes carrying a
    total mean photon number ``mean_photons``."""

    mean_photons: float
    num_modes: float = 1.0

    def __post_init__(self):
        # written so that NaN and infinity fail them
        if not 0.0 < self.mean_photons < math.inf:
            raise ValueError("mean_photons must be finite and positive")
        if not 1.0 <= self.num_modes < math.inf:
            raise ValueError("num_modes must be finite and >= 1")


def heralded_split_state(tau: float, truncation: int) -> JointDistribution:
    """One photon routed by a beam splitter of transmissivity ``tau``.

    The diagonal of the split single-photon state: probability ``tau``
    of the photon ending in mode 2 and ``1 - tau`` in mode 1.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    if truncation < 1:
        raise TruncationError("truncation must be >= 1 to hold one photon")
    values = np.zeros((truncation + 1, truncation + 1))
    values[0, 1] = tau
    values[1, 0] = 1.0 - tau
    return JointDistribution(values)


def multithermal_marginal(spec: ThermalSpec, truncation: int) -> np.ndarray:
    """Photon-number distribution of a multithermal beam up to ``truncation``.

    Negative-binomial form: rho_n = C(n+mu-1, n) (Nbar/mu)^n / (1+Nbar/mu)^(n+mu),
    computed by the recurrence rho_0 = (1 + Nbar/mu)^(-mu) and
    rho_n = rho_{n-1} (n+mu-1)/n Nbar/(mu+Nbar).
    The truncation leakage is ``1 - result.sum()``.
    """
    if truncation < 0:
        raise ValueError("truncation must be >= 0")
    mu = spec.num_modes
    nbar = spec.mean_photons
    rho0 = _mth_survival(mu, nbar)
    if rho0 < sys.float_info.min:
        raise ValueError(
            f"vacuum probability {rho0!r} of a beam with {nbar} photons in "
            f"{mu} modes is below the double-precision range"
        )
    n = np.arange(1, truncation + 1, dtype=np.float64)
    ratios = (n + mu - 1.0) * nbar / ((mu + nbar) * n)
    return np.cumprod(np.concatenate(([rho0], ratios)))


def split_on_beamsplitter(
    marginal, tau: float, truncation: int
) -> JointDistribution:
    """Route a single-mode distribution through a beam splitter.

    Each of ``s`` photons goes to mode 1 with probability ``tau``
    independently, so rho[n, k] = marginal[n+k] * C(n+k, n) tau^n (1-tau)^k.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    marginal = np.asarray(marginal, dtype=np.float64)
    if marginal.ndim != 1:
        raise ValueError("marginal must be a vector")
    if np.any(marginal < 0):
        raise ValueError("marginal entries must be nonnegative")
    if marginal.size - 1 > truncation:
        raise TruncationError(
            f"marginal supports up to {marginal.size - 1} photons but "
            f"truncation is {truncation}"
        )
    values = np.zeros((truncation + 1, truncation + 1))
    for s in range(marginal.size):
        for n in range(s + 1):
            k = s - n
            values[n, k] = (
                marginal[s] * math.comb(s, n) * tau**n * (1.0 - tau) ** k
            )
    leakage = max(0.0, 1.0 - marginal.sum())
    return JointDistribution(values, leakage=leakage)


def _mth_survival(mu: float, x: float) -> float:
    # (1 + x/mu)^(-mu), stable for large mu
    return math.exp(-mu * math.log1p(x / mu))


def multithermal_click_reference(
    spec: ThermalSpec, tau: float, eta: float
) -> tuple[float, float, float, float]:
    """Analytic click probabilities (p00, p01, p10, p11) of a split
    multithermal beam at efficiency ``eta``."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    mu = spec.num_modes
    nbar = spec.mean_photons
    p00 = _mth_survival(mu, eta * nbar)
    p01 = _mth_survival(mu, eta * tau * nbar) - p00
    p10 = _mth_survival(mu, eta * (1.0 - tau) * nbar) - p00
    p11 = 1.0 - p00 - p01 - p10
    return p00, p01, p10, p11


# The keys that a state document of each kind reads, beside "kind"
STATE_KEYS = {
    "heralded": ("tau", "truncation"),
    "multithermal_split": ("tau", "mean_photons", "num_modes", "truncation"),
    "custom": ("modes", "values", "leakage"),
}


def state_from_json(doc: dict) -> JointDistribution:
    """Construct a state from its JSON description, a JSON object.

    Supported kinds, with the keys each reads (:data:`STATE_KEYS`):
    ``heralded`` (tau, truncation), ``multithermal_split`` (tau,
    mean_photons, optional num_modes, truncation) and ``custom`` (modes,
    values, optional leakage), whose values fix its truncation.
    ``truncation`` and ``modes`` must be integers, ``values`` a flat list
    of numbers in the row-major order of :class:`JointDistribution`, and
    the other scalars numbers, a boolean being neither; a document or
    value of another type raises ``ValueError``.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a state must be a JSON object, not {doc!r}")

    def number(key, integer=False, default=None):
        value = doc[key] if default is None else doc.get(key, default)
        return json_number(key, value, integer)

    kind = doc.get("kind")
    if kind == "heralded":
        return heralded_split_state(number("tau"), number("truncation", True))
    if kind == "multithermal_split":
        truncation = number("truncation", True)
        spec = ThermalSpec(number("mean_photons"),
                           number("num_modes", default=1.0))
        marg = multithermal_marginal(spec, truncation)
        return split_on_beamsplitter(marg, number("tau"), truncation)
    if kind == "custom":
        values = doc["values"]
        if not isinstance(values, list):
            raise ValueError(f"values must be a number list, not {values!r}")
        for i, v in enumerate(values):
            if not is_json_number(v):
                json_number(f"values[{i}]", v)  # raises, naming the first
        return JointDistribution.from_flat(values, number("modes", True),
                                           leakage=number("leakage", default=0.0))
    raise ValueError(f"unknown state kind {kind!r}")


def declared_shape(doc) -> tuple[int, int] | None:
    """The mode count and truncation that a ``heralded`` or
    ``multithermal_split`` document declares, read off it so that a size
    cap can refuse the state before its (N+1)^2 tensor is built; raises as
    :func:`state_from_json` does on a bad truncation. None for any other
    document: a custom one lists every entry, and only its build sizes it."""
    if isinstance(doc, dict) and doc.get("kind") in ("heralded",
                                                      "multithermal_split"):
        return 2, json_number("truncation", doc["truncation"], True)
    return None
