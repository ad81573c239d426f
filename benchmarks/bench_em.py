"""Time the block EM kernel per replicate-iteration at several block widths.

Each column of a block is the heralded preset resampled with its own
seed; patience equals the budget, so every column runs all iterations.
Width 1 is timed twice: with the ε and log-likelihood histories a point
solve keeps, and without them, as a bootstrap replicate runs.

Usage: python benchmarks/bench_em.py [--iters N] [--widths 1 2 25 100]
"""

import argparse
import time

import numpy as np

from clicktomo import (
    build_matrix,
    forward_click_probabilities,
    frequencies,
    heralded_split_state,
    sample_clicks,
    uniform_grid,
)
from clicktomo._kernels import back_projector, em_run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20_000)
    parser.add_argument("--truncation", type=int, default=3)
    parser.add_argument("--grid-k", type=int, default=34, dest="grid_k")
    parser.add_argument("--widths", type=int, nargs="+", default=[1, 2, 25, 100])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    grid = uniform_grid(args.grid_k, 0.015, 0.325)
    probs = forward_click_probabilities(
        heralded_split_state(0.4, args.truncation), grid
    )
    matrix = build_matrix(grid, 2, args.truncation)
    back = back_projector(matrix.rows, matrix.column_sums())
    n_rows, n_cols = matrix.rows.shape
    print(
        f"EM kernel, {args.iters} iterations, {n_rows} rows x {n_cols} "
        f"columns, best of {args.repeats}"
    )
    cases = [(1, True)] + [(width, False) for width in args.widths]
    for width, history in cases:
        h = np.stack(
            [frequencies(sample_clicks(probs, 100_000, seed=s))
             for s in range(width)],
            axis=1,
        )
        q0 = np.full((n_cols, width), 1.0 / n_cols)
        best = min(
            _timed(matrix.rows, back, h, q0, args.iters, history)
            for _ in range(args.repeats)
        )
        per_iter = 1e6 * best / args.iters
        label = "with histories" if history else ""
        print(
            f"  B={width:<4d} {per_iter:8.2f} us/iteration  "
            f"{per_iter / width:7.2f} us/replicate-iteration  {label}"
        )


def _timed(matrix, back, h, q0, iters, history):
    start = time.perf_counter()
    em_run(matrix, back, h, q0, iters, iters, 0.0, 0.0, history=history)
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
