"""Hot EM iteration kernel.

``em_run`` iterates a P×B block of distributions at once. Every column
is an independent solve, with its own frequencies, stopping state and
status, and a column that stops leaves the block. A single
reconstruction is a block of width 1; a bootstrap is one block of all
its replicates. The tests check ``em_run`` against the same iteration
written loop by loop for one distribution, ``_em_run_loops`` in
``tests/em_reference.py``.

``em_run`` works in chunks of iterations, in two phases:

1. One update loop, run unmasked and checked once. Each iteration
   writes the model frequencies g = A q of its iterate q into a
   preallocated chunk buffer, takes the ratio h/g and writes the next
   iterate. The update only needs that ratio on the observed rows
   (h > 0), so a masked run divides there and keeps zeros elsewhere. A
   chunk runs unmasked, and one check that every g of the chunk is
   positive covers it. If the check fails, the chunk is replayed masked
   from its first iterate. Masked and unmasked iterates are the same
   while g > 0, as 0/g is 0 on an unobserved row, so the replay is
   exact. A chunk that follows one with a non-positive g runs masked
   from its start. In either case one pass over the chunk's g then
   finds the first iterate where an observed row has no model
   probability (a degenerate column): the chunk ends there.
2. Once per chunk, a vectorised pass over the buffers gives the ε of
   every iterate, and a scan over each column's ε list moves its best
   iteration (the ``min_decrease`` rule). Vectorised checks settle the
   columns whose ε falls at every step or never undercuts the best; the
   others are scanned in plain Python. A per-chunk callback, the one way
   per-iteration values leave the kernel, gets the chunk's ε and the
   log-likelihoods of a pass that runs only for it.

The iterates take three arrays, the chunk's first and two that the
update writes in turn, which end up holding its first, last and next
iterates; the next chunk starts from the next, whether or not columns
stop. A chunk that a degenerate column cuts short runs again to the
update from its cut. A best inside the chunk is recomputed by running
the chunk again from its first iterate, in the two arrays that do not
hold the next: the same numpy calls on the same block give the same
bits. A fourth array keeps each column's best until it stops; a copy
into the result at every chunk made wide blocks 1-2% slower.

Every stop falls on a chunk's last iterate: a chunk ends no later than
the earliest iteration at which the patience rule could fire, nor past
the budget. One stop block takes each stop there as a mask, in the loop
reference's order: patience, degenerate, the end of the budget.
The columns that stop leave the block after the loop's update from that
iterate, so each update runs at the same block width, hence gives the
same BLAS results, whatever the chunk length. The chunk length is the
number of iterations whose model frequencies fit in ``CHUNK_BYTES``,
counted for a block of at most ``CHUNK_WIDTH`` columns; it does not
depend on the length of an iterate.

The per-iteration log-likelihood is the scaled negative information
divergence between the measured and modeled frequencies,
``sum_mu h log(g/h) + h - g``: zero at a perfect fit, nondecreasing
under the multiplicative update, ``-inf`` when an observed row has
zero model probability. :func:`log_likelihood` evaluates it in that
form, as ``sum_{h>0} h log(g/h)`` plus ``sum_mu (h - g)``, so that no
large terms cancel.

Status codes: 0 = max iterations, 2 = patience window expired (error
minimum detected), -1 = degenerate support (zero model probability with
nonzero data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUS_MAX_ITERS = 0
STATUS_MIN_EPSILON = 2
STATUS_DEGENERATE = -1

# Bytes of model frequencies per chunk: they stay in cache while the
# per-chunk passes read them.
CHUNK_BYTES = 256 * 1024
# A block wider than this gets the chunk length of a block this wide.
# The per-chunk passes cost about as much whatever the width, so a chunk
# that shrank with the width would stop amortising them: at 100 columns
# the budget alone leaves 1-2 iterations per chunk, which made the block
# about 10% slower than bookkeeping every iteration.
CHUNK_WIDTH = 25


# --- pieces shared by the kernel and the public one-step functions ---------
#
# Rows run along axis -2: ``h`` is R×B, and ``g`` is R×B or stacks
# several iterates along a leading axis.


def _sum_rows(x, out=None):
    """The sum over the rows of ``x``, axis -2. A block of one column
    sums with ``np.add.reduce``, whose pairwise sum along that contiguous
    axis sets a point solve's bits. A wider block sums with ``einsum``:
    the reduce runs a strided loop there, 1.3-5 times slower, while
    ``einsum`` adds the rows in the same order, so gives the same bits."""
    if x.shape[-1] == 1:
        return np.add.reduce(x, axis=-2, out=out)
    return np.einsum("...rb->...b", x, out=out)


def mean_abs_deviation(h, g, work=None, out=None):
    """Total error ε per column: the mean over rows of ``|h - g|``."""
    work = np.subtract(h, g, out=work)
    np.abs(work, out=work)
    eps = _sum_rows(work, out=out)
    eps /= h.shape[-2]
    return eps


def log_likelihood(h, g, work=None, out=None):
    """``sum_{h>0} h log(g/h) + sum (h - g)`` over the rows, per column;
    ``-inf`` in a column where an observed row has ``g = 0``."""
    work = np.subtract(h, g, out=work)
    ll = _sum_rows(work, out=out)
    # g/h on the observed rows, (g + 1)/1 elsewhere: a finite log there,
    # which the factor h = 0 zeroes. Plain ufunc loops over the chunk are
    # about twice as fast as a masked divide after a fill. A subnormal h
    # divides as the smallest normal double, since g/h would overflow; the
    # row's term h log(g/h) changes by less than that double.
    unobserved = ~(h > 0.0)
    np.add(g, unobserved, out=work)
    divisor = np.maximum(h, np.finfo(np.float64).tiny)
    np.divide(work, np.where(unobserved, 1.0, divisor), out=work)
    with np.errstate(divide="ignore"):
        np.log(work, out=work)
    work *= h
    ll += _sum_rows(work)
    return ll


def degenerate_columns(h, g):
    """Columns where an observed row has no positive model probability."""
    return np.any((h > 0.0) & ~(g > 0.0), axis=-2)


# --- the block kernel ----------------------------------------------------


@dataclass
class BlockResult:
    """Outputs of :func:`em_run`, one column per distribution."""

    best_q: np.ndarray  # P×B iterate at each column's ε minimum
    best_iteration: np.ndarray  # B
    n_iterations: np.ndarray  # B
    status: np.ndarray  # B


def chunk_length(n_rows, width):
    """Iterations per chunk for a block of ``width`` columns: the chunk's
    model frequencies, ``n_rows`` per column and iteration, fit in
    ``CHUNK_BYTES`` for a block of at most ``CHUNK_WIDTH`` columns, and
    in proportionally more for a wider one. At least 1."""
    return max(1, CHUNK_BYTES // (8 * min(width, CHUNK_WIDTH) * n_rows))


def _iterate(matrix, back, h, gs, qs, ratio, start, n, where):
    """Phase 1: EM updates from the iterate ``qs[start]`` to ``n``,
    writing the model frequencies of iterate t to ``gs[t]`` and the next
    iterate to ``qs[t + 1]``. ``where`` is True, or the mask of the
    observed rows: a masked run writes ``h/g`` there and 0 elsewhere.
    """
    if where is not True:
        ratio.fill(0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        for g, q, nxt in zip(gs[start:n], qs[start:n], qs[start + 1:n + 1]):
            matrix.dot(q, out=g)
            np.divide(h, g, out=ratio, where=where)
            back.dot(ratio, out=nxt)
            np.multiply(nxt, q, out=nxt)


def _scan_best(eps, t0, bar, best, mind):
    """Phase 2: the ``min_decrease`` rule along each column of the n×B
    chunk ``eps``, whose first row is iteration ``t0``. An iterate
    becomes a column's best when its ε is below ``bar``, the best ε so
    far minus ``mind``. Updates ``bar`` and ``best`` in place; the caller
    takes each best iterate from ``best`` alone.

    A column whose ε falls by more than ``mind`` from each iterate to
    the next ends the chunk with its last iterate as the best, and one
    whose ε never goes below ``bar`` keeps its best; neither needs the
    scan. The others are scanned in plain Python, as the loop reference
    (``tests/em_reference.py``) writes the rule.
    """
    below = eps < bar
    falls = below[0] & (eps[1:] < eps[:-1] - mind).all(axis=0)
    np.copyto(bar, eps[-1] - mind, where=falls)
    np.copyto(best, t0 + eps.shape[0] - 1, where=falls)
    if falls.all():
        return
    for j in np.flatnonzero(below.any(axis=0) & ~falls).tolist():
        b, k, m = float(bar[j]), int(best[j]), float(mind[j])
        for it, e in enumerate(eps[:, j].tolist(), t0):
            if e < b:
                b = e - m
                k = it
        bar[j], best[j] = b, k


def em_run(
    matrix, back, h, q0, max_iters, patience, min_decrease, on_chunk=None,
) -> BlockResult:
    """Iterate the P×B block ``q0`` against the R×B frequencies ``h``.

    ``matrix`` (R×P) and ``back`` (P×R) are an operator pair with
    ``shape`` and ``dot(x, out=None)`` on P×B and R×B blocks, ``back``
    the transpose of ``matrix`` with row p scaled by one over column sum
    p: the ``forward`` and ``back`` of a
    :class:`clicktomo.detection.DetectionMatrix`, or a dense matrix and
    its :func:`clicktomo.detection.back_projector`.
    ``min_decrease`` is a scalar or one value per column. The module
    docstring describes the two phases of each chunk, the three iterate
    arrays whose next iterate every chunk starts from, and the one stop
    block every column leaves through, which writes the column's entries
    into the :class:`BlockResult` allocated before the first chunk.

    ``on_chunk(t0, cols, eps, ll)``, if given, is called once per chunk,
    after its ε pass and a log-likelihood pass that runs only for it, so
    that a caller can use the rows while the run goes on. ``eps`` and
    ``ll`` hold one row per iteration of the chunk, from iteration ``t0``
    on, and one column per column still in the block; ``cols`` holds
    those columns' indices in ``q0``. Over the whole run a column gets
    one row per iteration it ran. The three arrays are the kernel's, and
    the next chunk overwrites ``eps`` and ``ll``: the callback changes
    none and copies what it keeps. An exception it raises ends the run.
    """
    n_rows = matrix.shape[0]
    n_cols, width = q0.shape
    out = BlockResult(
        best_q=np.empty((n_cols, width)),
        best_iteration=np.empty(width, dtype=np.int64),
        n_iterations=np.empty(width, dtype=np.int64),
        status=np.empty(width, dtype=np.int64),
    )

    # per active column: its index in ``out``, its best ε so far
    # minus its min_decrease, and its best iteration
    cols = np.arange(width)
    bars = np.full(width, np.inf)
    bests = np.zeros(width, dtype=np.int64)
    minds = np.zeros(width) + min_decrease
    h = np.ascontiguousarray(h, dtype=np.float64)
    # q is the iterate the next chunk starts from; best_q is not changed
    # before the first chunk has copied q0 into its buffer
    q = best_q = np.array(q0, dtype=np.float64, order="C")
    trio = None  # iterate buffers, allocated once per block width
    t0 = 0  # the iteration of the chunk's first iterate
    careful = False  # whether the last chunk had a non-positive g
    while True:  # every column stops by the last iteration of the budget
        if trio is None:
            span = min(chunk_length(n_rows, cols.size), max_iters)
            gbuf = np.empty((span, n_rows, cols.size))
            work = np.empty_like(gbuf)
            eps_buf = np.empty((span, cols.size))
            ll_buf = np.empty_like(eps_buf)
            ratio = np.empty((n_rows, cols.size))
            observed = h > 0.0
            gs = list(gbuf)
            # whole arrays, not slices of one: numpy aligns each to 16
            # bytes, while such slices are only 8-byte aligned when P is odd,
            # which slowed the P = 14,641 update by about 3%
            trio = [np.empty((n_cols, cols.size)) for _ in range(3)]
            trio[0][...] = q
        # iterate t goes to qs[t]: the first array, then the others in turn
        qs = trio[:1] + trio[1:] * (span // 2 + 1)
        # no column can meet the patience rule before its best + patience
        n = min(span, max_iters - t0, int(bests.min()) + patience - t0 + 1)
        # a chunk after one with a non-positive model frequency runs
        # masked from its start: on data such as exact vacuum every chunk
        # would otherwise run twice
        where = observed if careful else True
        _iterate(matrix, back, h, gs, qs, ratio, 0, n, where)
        careful = not gbuf[:n].min() > 0.0
        degenerate = np.zeros(cols.size, dtype=bool)
        if careful:
            if where is True:
                where = observed
                _iterate(matrix, back, h, gs, qs, ratio, 0, n, where)
            # an observed row with no model probability ends the chunk at
            # that iterate; a loop that went past it runs again to the
            # update from there, which only the other columns use
            hits = degenerate_columns(h, gbuf[:n])
            cut = np.flatnonzero(hits.any(axis=1))
            if cut.size:
                degenerate = hits[cut[0]]
                if cut[0] + 1 < n:
                    n = int(cut[0]) + 1
                    _iterate(matrix, back, h, gs, qs, ratio, 0, n, where)

        eps = mean_abs_deviation(h, gbuf[:n], work[:n], eps_buf[:n])
        if on_chunk is not None:
            on_chunk(t0, cols, eps,
                     log_likelihood(h, gbuf[:n], work[:n], ll_buf[:n]))

        # phase 2: the min_decrease rule along each column's ε, then every
        # stop at the chunk's last iterate, in the loop reference's order
        last = t0 + n - 1
        _scan_best(eps, t0, bars, bests, minds)
        patient = last - bests >= patience
        stop = patient | degenerate | (last == max_iters - 1)
        k = bests - t0  # each best iterate follows from its best iteration
        np.copyto(best_q, qs[n - 1], where=k == n - 1)
        inside = np.flatnonzero((k >= 0) & (k < n - 1))
        # run the chunk again for a best inside it, in the two arrays that
        # do not hold the next iterate qs[n]
        spare, k0 = [qs[0], qs[n + 1]] * n, 0
        for kj, j in sorted(zip(k[inside].tolist(), inside.tolist())):
            _iterate(matrix, back, h, gs, spare, ratio, k0, kj, where)
            best_q[:, j], k0 = spare[kj][:, j], kj
        t0 = last + 1
        if not stop.any():
            trio = [qs[n], qs[n + 1], qs[0]]  # the next iterate comes first
            continue

        idx = cols[stop]
        out.best_q[:, idx] = best_q[:, stop]
        out.best_iteration[idx] = bests[stop]
        out.n_iterations[idx] = t0
        out.status[idx] = np.select([patient, degenerate],
                                    [STATUS_MIN_EPSILON, STATUS_DEGENERATE],
                                    STATUS_MAX_ITERS)[stop]
        keep = np.flatnonzero(~stop)
        if not keep.size:
            return out
        # the columns that go on start from the update the chunk wrote;
        # ``take``, unlike ``[:, keep]``, returns C-ordered blocks, the
        # layout every other update gives BLAS
        cols, bars, bests, minds = cols[keep], bars[keep], bests[keep], minds[keep]
        h, best_q = h.take(keep, axis=1), best_q.take(keep, axis=1)
        q = qs[n].take(keep, axis=1)
        trio = None
