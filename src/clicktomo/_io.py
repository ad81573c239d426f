"""Byte format of the output files: floats as their full-precision
``repr``, JSON indented by 2 with sorted keys, CSV in the default
:mod:`csv` dialect. Reruns with the same manifest write the same bytes.
:func:`json_number` checks the type of a number read from a JSON input."""

from __future__ import annotations

import csv
import json

import numpy as np


def fmt(x) -> str:
    return repr(float(x))


def json_number(key: str, value, integer: bool = False):
    """``value`` if it is a JSON integer or (unless ``integer``) a JSON
    number; raises ``ValueError`` otherwise. A boolean is neither."""
    kinds = int if integer else (int, float)
    if isinstance(value, kinds) and not isinstance(value, bool):
        return value
    kind = "an integer" if integer else "a number"
    raise ValueError(f"{key} must be {kind}, not {value!r}")


def write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def tensor_rows(*tensors):
    """One row per photon-number index of equally shaped tensors, mode 1
    slowest: the index, then each tensor's entry."""
    columns = [map(repr, np.ravel(t).tolist()) for t in tensors]
    for idx, *entries in zip(np.ndindex(np.shape(tensors[0])), *columns):
        yield [*idx, *entries]
