"""Time the block EM kernel per replicate-iteration at several block widths.

Three problem sizes, each a ``clicktomo.cli.PRESETS`` entry's state,
grid and runs: the heralded-unbalanced preset (102 rows x 16 columns),
the multithermal-split preset (105 rows x 81 columns), and that preset
at the wide truncation N = 120 (105 rows x 14,641 columns). Each column
of a block is the state resampled with its own seed; patience equals the
budget, so every column runs all iterations. Width 1 is timed twice:
with a chunk callback that collects the ε and log-likelihood histories,
as a point solve does, and without one, as a bootstrap replicate runs.
Each row prints the chunk length the kernel uses at that width.

Each size is timed on the operator pair the solver uses for it. Where
that is the factored two-mode pair (``detection.TwoModeMatrix``, from
``FACTORED_MIN_TRUNCATION`` on), the dense matrix and its back-projector
are timed beside it.

Before timing a size, every operator pair it times is checked against
the loop reference ``_em_run_loops`` of ``tests/em_reference.py`` on a
short run, on a block of 1 column and on a block of 3, each column
against its own reference run, so that no number comes from a kernel, a
block path or an operator that computes something else.

Usage: python benchmarks/bench_em.py [--iters N] [--widths 1 2 25 100]
           [--sizes heralded multithermal wide]
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from clicktomo import (
    build_matrix,
    forward_click_probabilities,
    frequencies,
    sample_clicks,
    state_from_json,
    uniform_grid,
)
from clicktomo._kernels import chunk_length, em_run
from clicktomo.cli import PRESETS
from clicktomo.detection import back_projector

# the loop reference is kept beside the tests, not in the package
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from em_reference import (  # noqa: E402
    CLOSE,
    _em_run_history,
    _em_run_loops,
    first_difference,
)


def _preset(name, **state):
    """The state, grid and runs of the preset ``name``, with ``state``
    overriding keys of its state document."""
    preset = PRESETS[name]
    return (state_from_json(dict(preset["state"], **state)),
            uniform_grid(preset["grid_k"], preset["eta_min"], preset["eta_max"]),
            preset["runs"])


SIZES = {
    "heralded": lambda: _preset("heralded-unbalanced"),
    "multithermal": lambda: _preset("multithermal-split"),
    "wide": lambda: _preset("multithermal-split", truncation=120),
}
# Iterations timed per size unless --iters is given: the wide size costs
# about a millisecond per iteration on the dense matrix.
DEFAULT_ITERS = {"heralded": 20_000, "multithermal": 20_000, "wide": 500}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--iters", type=int, default=None)
    parser.add_argument("--widths", type=int, nargs="+", default=[1, 2, 25, 100])
    parser.add_argument("--sizes", nargs="+", choices=sorted(SIZES),
                        default=["heralded", "multithermal"])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    for name in args.sizes:
        iters = args.iters or DEFAULT_ITERS[name]
        state, grid, runs = SIZES[name]()
        probs = forward_click_probabilities(state, grid)
        matrix = build_matrix(grid, state.modes, state.truncation)
        n_rows, n_cols = matrix.shape
        operators = {"dense": (matrix.rows, back_projector(matrix.rows))}
        if matrix.forward is not matrix.rows:
            operators["factored"] = (matrix.forward, matrix.back)
        _check_against_loops(matrix, operators, np.stack(
            [frequencies(sample_clicks(probs, runs, seed=s)) for s in range(3)],
            axis=1))
        print(
            f"EM kernel, {name}: {iters} iterations, {n_rows} rows x "
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
            for label, (forward, back) in operators.items():
                best = min(
                    _timed(forward, back, h, q0, iters, history)
                    for _ in range(args.repeats)
                )
                per_iter = 1e6 * best / iters
                print(
                    f"  B={width:<4d} {label:8s} {per_iter:9.2f} us/iteration  "
                    f"{per_iter / width:8.2f} us/replicate-iteration  "
                    f"chunk {chunk_length(n_rows, width):4d}  "
                    f"{'with histories' if history else ''}"
                )


def _check_against_loops(matrix, operators, h, iters=500):
    """Check ``em_run`` on each operator pair, on a block of the first
    column of ``h`` and on a block of all its columns, each against the
    loop reference run on the dense matrix."""
    n_cols = matrix.shape[1]
    for block_h in (h[:, :1], h):
        width = block_h.shape[1]
        args = (block_h, np.full((n_cols, width), 1.0 / n_cols), iters, iters,
                0.0)
        ref = _em_run_loops(matrix.rows, *args)
        for label, (forward, back) in operators.items():
            diff = first_difference(_em_run_history(forward, back, *args), ref,
                                    CLOSE)
            if diff is not None:
                raise SystemExit(
                    f"em_run on the {label} operator disagrees with "
                    f"_em_run_loops in column {diff[0]} of a block of "
                    f"{width}; nothing timed")


def _timed(matrix, back, h, q0, iters, history):
    start = time.perf_counter()
    run = _em_run_history if history else em_run
    run(matrix, back, h, q0, iters, iters, 0.0)
    return time.perf_counter() - start


if __name__ == "__main__":
    main()
