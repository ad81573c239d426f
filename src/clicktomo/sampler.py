"""Synthetic click data: one multinomial draw per efficiency.

Reproduces the finite statistics of a counting experiment where each
filter setting gets its own run of ``n_mu`` trials. Substreams are
seeded per efficiency index so extending the grid never reshuffles
earlier data (numpy PCG64 throughout).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from ._io import fmt, json_number, write_csv, write_json
from .detection import (
    ClickProbabilities,
    EfficiencyGrid,
    check_size,
    click_patterns,
    explicit_rows,
)
from .states import check_modes

__all__ = ["ClickRecord", "sample_clicks", "frequencies"]

RNG_ALGORITHM = "numpy-PCG64"


@dataclass(frozen=True)
class ClickRecord:
    """Click-pattern counts per efficiency.

    ``counts`` has shape (K, 2^M) with columns ordered as
    :func:`clicktomo.detection.click_patterns`; ``runs`` holds the
    number of trials per efficiency.
    """

    grid: EfficiencyGrid
    modes: int
    counts: np.ndarray
    runs: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts)
        runs = np.asarray(self.runs)
        # bool is not an integer type to numpy: True never counts as 1
        for name, value in (("modes", self.modes), ("counts", counts),
                            ("runs", runs)):
            dtype = np.asarray(value).dtype
            if not np.issubdtype(dtype, np.integer):
                raise TypeError(f"{name} must be integers, got {dtype}")
        check_modes(self.modes)
        counts = counts.astype(np.int64, copy=False)
        runs = runs.astype(np.int64, copy=False)
        expected = (len(self.grid), 2**self.modes)
        if counts.shape != expected:
            raise ValueError(f"counts shape {counts.shape}, expected {expected}")
        if runs.shape != (len(self.grid),):
            raise ValueError("runs must have one entry per efficiency")
        if np.any(counts < 0) or np.any(runs < 0):
            raise ValueError("counts and runs must be nonnegative")
        if np.any(runs == 0):
            raise ValueError("every efficiency needs at least one run")
        if np.any(counts.sum(axis=1) != runs):
            raise ValueError("per-efficiency counts must sum to the run total")
        counts.flags.writeable = False
        runs.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "runs", runs)

    @property
    def patterns(self) -> list[str]:
        return click_patterns(self.modes)

    def frequency_table(self) -> np.ndarray:
        """(K, 2^M) empirical pattern frequencies."""
        return self.counts / self.runs[:, None]

    # --- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rng": RNG_ALGORITHM,
            "modes": self.modes,
            "etas": [fmt(e) for e in self.grid.etas],
            "patterns": self.patterns,
            "runs": self.runs.tolist(),
            "counts": self.counts.tolist(),
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "ClickRecord":
        # to_json_dict writes each efficiency as its float repr, a JSON
        # string; any other eta must be a JSON number, a boolean not being one
        grid = EfficiencyGrid(np.array([
            float(e) if isinstance(e, str) else json_number("etas", e)
            for e in doc["etas"]]))
        record = ClickRecord(
            grid=grid,
            modes=doc["modes"],
            counts=doc["counts"],
            runs=doc["runs"],
        )
        # the counts are always read in click_patterns order, so a patterns
        # list that names another is refused; checked after the record's
        # own checks, so that no 2^M list is built for an oversized record
        if "patterns" in doc and doc["patterns"] != record.patterns:
            raise ValueError(
                f"patterns must be the {2**record.modes} click patterns of "
                f"{record.modes} modes in binary order, as click_patterns "
                "gives them")
        return record

    def to_json(self, path) -> None:
        write_json(path, self.to_json_dict())

    @staticmethod
    def from_json(path) -> "ClickRecord":
        with open(path, encoding="utf-8") as fh:
            return ClickRecord.from_json_dict(json.load(fh))

    def to_csv(self, path) -> None:
        patterns = self.patterns
        write_csv(path, ["eta", "pattern", "count", "runs"], (
            [fmt(eta), pattern, count, runs]
            for eta, row, runs in zip(self.grid.etas, self.counts.tolist(),
                                      self.runs.tolist())
            for pattern, count in zip(patterns, row)
        ))

    @staticmethod
    def from_csv(path) -> "ClickRecord":
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError("empty click-record CSV")
        modes = len(rows[0]["pattern"])
        etas = sorted({float(r["eta"]) for r in rows})
        # the (K, 2^M) table is refused by size before it is allocated
        check_size(len(etas), modes, 0)
        index = {repr(e): i for i, e in enumerate(etas)}
        counts = np.zeros((len(etas), 2**modes), dtype=np.int64)
        seen, runs = set(), {}
        for r in rows:
            eta, pattern, n_runs = repr(float(r["eta"])), r["pattern"], int(r["runs"])
            # int(pattern, 2) alone would also read "+1" or "0_1"
            if len(pattern) != modes or pattern.strip("01"):
                raise ValueError(
                    f"pattern {pattern!r} is not {modes} characters of 0 and 1")
            if (eta, pattern) in seen:
                raise ValueError(f"two rows for eta {eta}, pattern {pattern}")
            seen.add((eta, pattern))
            if runs.setdefault(eta, n_runs) != n_runs:
                raise ValueError(f"the rows of eta {eta} give different runs")
            counts[index[eta], int(pattern, 2)] = int(r["count"])
        return ClickRecord(
            grid=EfficiencyGrid(np.array(etas)), modes=modes,
            counts=counts, runs=[runs[eta] for eta in index],
        )


def sample_clicks(
    probs: ClickProbabilities, runs_per_eta: int, seed: int
) -> ClickRecord:
    """One multinomial per efficiency, substream-seeded by (seed, index)."""
    if runs_per_eta < 1:
        raise ValueError("runs_per_eta must be >= 1")
    k = len(probs.grid)
    counts = np.empty((k, probs.table.shape[1]), dtype=np.int64)
    for nu in range(k):
        rng = np.random.default_rng([seed, nu])
        counts[nu] = rng.multinomial(runs_per_eta, probs.table[nu])
    return ClickRecord(
        grid=probs.grid,
        modes=probs.modes,
        counts=counts,
        runs=np.full(k, runs_per_eta, dtype=np.int64),
    )


def frequencies(record: ClickRecord) -> np.ndarray:
    """Measured frequency vector in pattern-block layout over efficiencies,
    the all-click pattern omitted (same row order as the detection matrix)."""
    return explicit_rows(record.frequency_table())

