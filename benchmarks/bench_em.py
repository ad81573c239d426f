"""Time the block EM kernel per replicate-iteration at several block widths.

Two problem sizes: the heralded presets (102 rows x 16 columns) and the
multithermal preset (105 rows x 81 columns). Each column of a block is
the preset resampled with its own seed; patience equals the budget, so
every column runs all iterations. Width 1 is timed twice: with the ε and
log-likelihood histories a point solve keeps, and without them, as a
bootstrap replicate runs. Each row prints the chunk length the kernel
uses at that width.

Before timing a size, the kernel is checked against the loop reference
``_em_run_loops`` on a short run, on a block of 1 column and on a block
of 3, each column against its own reference run, so that no number
comes from a kernel or a block path that computes something else.

Usage: python benchmarks/bench_em.py [--iters N] [--widths 1 2 25 100]
           [--sizes heralded multithermal]
"""

import argparse
import time

import numpy as np

from clicktomo import (
    ThermalSpec,
    build_matrix,
    forward_click_probabilities,
    frequencies,
    heralded_split_state,
    multithermal_marginal,
    sample_clicks,
    split_on_beamsplitter,
    uniform_grid,
)
from clicktomo._kernels import _em_run_loops, back_projector, chunk_length, em_run

SIZES = {
    "heralded": lambda: (
        heralded_split_state(0.4, 3), uniform_grid(34, 0.015, 0.325), 100_000),
    "multithermal": lambda: (
        split_on_beamsplitter(
            multithermal_marginal(ThermalSpec(0.15, 1000.0), 8), 0.5, 8),
        uniform_grid(35, 0.05, 0.25), 1_000_000),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=20_000)
    parser.add_argument("--widths", type=int, nargs="+", default=[1, 2, 25, 100])
    parser.add_argument("--sizes", nargs="+", choices=sorted(SIZES),
                        default=["heralded", "multithermal"])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    for name in args.sizes:
        state, grid, runs = SIZES[name]()
        probs = forward_click_probabilities(state, grid)
        matrix = build_matrix(grid, state.modes, state.truncation)
        back = back_projector(matrix.rows, matrix.column_sums())
        n_rows, n_cols = matrix.rows.shape
        _check_against_loops(matrix, back, np.stack(
            [frequencies(sample_clicks(probs, runs, seed=s)) for s in range(3)],
            axis=1))
        print(
            f"EM kernel, {name}: {args.iters} iterations, {n_rows} rows x "
            f"{n_cols} columns, best of {args.repeats}"
        )
        cases = [(1, True)] + [(width, False) for width in args.widths]
        for width, history in cases:
            h = np.stack(
                [frequencies(sample_clicks(probs, runs, seed=s))
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
                f"{per_iter / width:7.2f} us/replicate-iteration  "
                f"chunk {chunk_length(n_rows, n_cols, width):4d}  {label}"
            )


def _check_against_loops(matrix, back, h, iters=500):
    """Check ``em_run`` on a block of the first column of ``h`` and on a
    block of all its columns, each column against its own loop reference
    run."""
    rows = matrix.rows
    n_cols = rows.shape[1]
    q0 = np.full(n_cols, 1.0 / n_cols)
    rows_t, inv_colsum = np.ascontiguousarray(rows.T), 1.0 / matrix.column_sums()
    for block_h in (h[:, :1], h):
        width = block_h.shape[1]
        got = em_run(rows, back, block_h, np.tile(q0[:, None], (1, width)),
                     iters, iters, 0.0, 0.0, history=True)
        for col in range(width):
            ref = _em_run_loops(rows, rows_t, inv_colsum, block_h[:, col], q0,
                                iters, iters, 0.0, 0.0)
            agree = (
                np.allclose(got.best_q[:, col], ref[0], rtol=0, atol=1e-13)
                and got.best_iteration[col] == ref[2]
                and got.n_iterations[col] == ref[3]
                and got.status[col] == ref[6]
                and np.allclose(got.epsilon[:, col], ref[4], rtol=0, atol=1e-14)
                and np.allclose(got.loglik[:, col], ref[5], rtol=0, atol=1e-12)
            )
            if not agree:
                raise SystemExit(
                    f"em_run disagrees with _em_run_loops in column {col} of a "
                    f"block of {width}; nothing timed")


def _timed(matrix, back, h, q0, iters, history):
    start = time.perf_counter()
    em_run(matrix, back, h, q0, iters, iters, 0.0, 0.0, history=history)
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
