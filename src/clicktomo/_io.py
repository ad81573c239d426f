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


def is_json_number(value, integer: bool = False) -> bool:
    """Whether ``value`` is a JSON integer or (unless ``integer``) a JSON
    number. A boolean is neither."""
    kinds = int if integer else (int, float)
    return isinstance(value, kinds) and not isinstance(value, bool)


def json_number(key: str, value, integer: bool = False):
    """``value`` if :func:`is_json_number`, else a ``ValueError`` naming ``key``."""
    if is_json_number(value, integer):
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


# Rows of trace.csv formatted per write: the text of a 100,000-iteration
# trace held whole would add about 20 MB to the peak RSS.
TRACE_BLOCK_ROWS = 4096


def write_trace_csv(fh, pairs) -> None:
    """Write ``trace.csv`` to the text file ``fh``, opened with
    ``newline=""``: the header, then one row per iteration, numbered from
    0, of ``pairs``, an iterable of (ε, log-likelihood) array pairs in
    iteration order. The bytes are those :mod:`csv` writes, as floats
    never need quoting. Each pair is cut into blocks of at most
    ``TRACE_BLOCK_ROWS`` rows, each formatted and written with one call."""
    fh.write("iteration,epsilon,loglik\r\n")
    start = 0
    for eps, ll in pairs:
        for i in range(0, len(eps), TRACE_BLOCK_ROWS):
            block = slice(i, i + TRACE_BLOCK_ROWS)
            fh.write("".join(
                f"{k},{e!r},{l!r}\r\n"
                for k, e, l in zip(range(start + i, start + block.stop),
                                   eps[block].tolist(), ll[block].tolist())
            ))
        start += len(eps)


def reprs(tensor) -> list[str]:
    """The entries of ``tensor``, row-major, each as :func:`fmt` writes it."""
    return list(map(repr, np.ravel(tensor).tolist()))


def write_tensor_csv(path, header, *tensors) -> None:
    """The bytes :func:`write_csv` writes for ``header`` and one row per
    photon-number index of the equally shaped ``tensors``, mode 1
    slowest: the index, then each tensor's entry as :func:`fmt` writes
    it. Indices and floats never need quoting, so each block of
    ``TRACE_BLOCK_ROWS`` rows is formatted and written with one call."""
    shape = np.shape(tensors[0])
    size = int(np.prod(shape))
    flat = [np.ravel(t) for t in tensors]
    # %r writes an int as str does and a float as fmt does
    row = ",".join(["%r"] * (len(shape) + len(flat))) + "\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, size, TRACE_BLOCK_ROWS):
            block = np.arange(i, min(i + TRACE_BLOCK_ROWS, size))
            index = np.unravel_index(block, shape)
            columns = [c.tolist() for c in (*index, *(f[block] for f in flat))]
            fh.write("".join(map(row.__mod__, zip(*columns))))
