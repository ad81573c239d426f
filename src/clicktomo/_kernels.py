"""Hot EM iteration kernel.

``em_run`` iterates a P×B block of distributions at once. Every column
is an independent solve, with its own frequencies, stopping state and
status, and a column that stops leaves the block. A single
reconstruction is a block of width 1; a bootstrap is one block of all
its replicates. ``_em_run_loops`` is the same iteration written loop by
loop for one distribution: the reference the tests compare
``em_run`` against.

``em_run`` works in chunks of iterations, in two phases:

1. Optimistic chunk, one positivity check, exact careful replay. The
   hot loop does only the EM update, with the plain ratio h/g and no
   guard, and writes each iterate q and its model frequencies g = A q
   into preallocated chunk buffers. One check that every g of the chunk
   is positive then covers it. If the check fails, the chunk is redone
   from the first iterate whose g is not positive on the careful path:
   an iterate with a non-positive g takes the masked ratio, and one
   where an observed row has no model probability (a degenerate column)
   ends the chunk. The iterates before that one are the same on both
   paths, so the replay is exact. A chunk that follows one with a
   non-positive g runs on the careful path from its start.
2. Once per chunk, vectorised passes over the buffers give the ε and
   log-likelihood of every iterate, and a scan over each column's ε
   list moves its best iterate (the ``min_decrease`` rule). Vectorised
   checks settle the columns whose ε falls at every step or never
   undercuts the best; the others are scanned in plain Python. The
   best iterate and the ``store_every`` snapshots come from the
   buffers.

Every stop falls on a chunk's last iterate: a chunk ends no later than
the earliest iteration at which the patience rule could fire, and is
cut at the first iterate that reaches ``eps_threshold``. The threshold,
patience and degenerate rules are then checked there, in that order,
exactly as ``_em_run_loops`` checks them each iteration. Columns that
stop leave the block before the next update, so the other columns see
the same block widths, hence the same BLAS results, whatever the chunk
length. The chunk length is the number of iterates that fit, with their
model frequencies and the next iterate, in ``CHUNK_BYTES``, counted for
a block of at most ``CHUNK_WIDTH`` columns.

The per-iteration log-likelihood is the scaled negative information
divergence between the measured and modeled frequencies,
``sum_mu h log(g/h) + h - g``: zero at a perfect fit, nondecreasing
under the multiplicative update, ``-inf`` when an observed row has
zero model probability. :func:`log_likelihood` evaluates it in that
form, as ``sum_{h>0} h log(g/h)`` plus ``sum_mu (h - g)``, so that no
large terms cancel.

Status codes: 0 = max iterations, 1 = error threshold reached,
2 = patience window expired (error minimum detected), -1 = degenerate
support (zero model probability with nonzero data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STATUS_MAX_ITERS = 0
STATUS_THRESHOLD = 1
STATUS_MIN_EPSILON = 2
STATUS_DEGENERATE = -1

# Bytes of chunk buffers per block: the iterates and model frequencies
# of one chunk stay in cache while the per-chunk passes read them.
CHUNK_BYTES = 256 * 1024
# A block wider than this gets the chunk length of a block this wide.
# The per-chunk passes cost about as much whatever the width, so a chunk
# that shrank with the width would stop amortising them: at 100 columns
# the budget alone leaves 1-2 iterations per chunk, which made the block
# about 10% slower than bookkeeping every iteration.
CHUNK_WIDTH = 25


def _em_run_loops(
    matrix, matrix_t, inv_colsum, h,
    q0, max_iters, patience, eps_threshold, min_decrease,
):
    n_rows = matrix.shape[0]
    q = q0.copy()
    eps_hist = np.empty(max_iters)
    ll_hist = np.empty(max_iters)
    best_q = q.copy()
    best_eps = np.inf
    best_iter = 0
    status = STATUS_MAX_ITERS
    n_done = 0
    ratio = np.empty(n_rows)
    for it in range(max_iters):
        g = np.dot(matrix, q)
        eps = 0.0
        for mu in range(n_rows):
            eps += abs(h[mu] - g[mu])
        eps /= n_rows
        ll = 0.0
        for mu in range(n_rows):
            if h[mu] > 0.0:
                if g[mu] <= 0.0:
                    ll = -np.inf
                    break
                ll += h[mu] * np.log(g[mu] / h[mu]) + h[mu] - g[mu]
            else:
                ll -= g[mu]
        eps_hist[it] = eps
        ll_hist[it] = ll
        n_done = it + 1
        if eps < best_eps - min_decrease:
            best_eps = eps
            best_iter = it
            best_q[:] = q
        if eps_threshold > 0.0 and eps <= eps_threshold:
            status = STATUS_THRESHOLD
            break
        if it - best_iter >= patience:
            status = STATUS_MIN_EPSILON
            break
        degenerate = False
        for mu in range(n_rows):
            if g[mu] > 0.0:
                ratio[mu] = h[mu] / g[mu]
            elif h[mu] > 0.0:
                degenerate = True
                break
            else:
                ratio[mu] = 0.0
        if degenerate:
            status = STATUS_DEGENERATE
            break
        q = q * np.dot(matrix_t, ratio) * inv_colsum
    return best_q, q, best_iter, n_done, eps_hist, ll_hist, status


# --- pieces shared by the kernel and the public one-step functions ---------
#
# Rows run along axis -2: ``h`` is R×B, and ``g`` is R×B or stacks
# several iterates along a leading axis.


def back_projector(matrix, colsum):
    """P×R back-projection: ``matrix.T`` with row p scaled by
    ``1/colsum[p]`` (0 where the column sum vanishes), so that one EM
    update is ``q * (back @ (h/g))``. One copy, scaled in place."""
    positive = colsum > 0.0
    inv_colsum = np.where(positive, 1.0 / np.where(positive, colsum, 1.0), 0.0)
    back = matrix.T.copy()
    back *= inv_colsum[:, None]
    return back


def mean_abs_deviation(h, g, work=None, out=None):
    """Total error ε per column: the mean over rows of ``|h - g|``."""
    work = np.subtract(h, g, out=work)
    np.abs(work, out=work)
    eps = np.add.reduce(work, axis=-2, out=out)
    eps /= h.shape[-2]
    return eps


def log_likelihood(h, g, positive, work=None, out=None):
    """``sum_{h>0} h log(g/h) + sum (h - g)`` over the rows, per column;
    ``-inf`` in a column where an observed row has ``g <= 0``.
    ``positive`` says that every entry of ``g`` is positive, which skips
    the masking."""
    work = np.subtract(h, g, out=work)
    ll = np.add.reduce(work, axis=-2, out=out)
    observed = h > 0.0
    np.divide(g, np.where(observed, h, 1.0), out=work)
    if not positive:
        work[~(g > 0.0)] = 1.0
    np.log(work, out=work)
    work *= h
    ll += np.add.reduce(work, axis=-2)
    if not positive:
        ll[np.any(observed & (g <= 0.0), axis=-2)] = -np.inf
    return ll


def data_ratio(h, g, positive, out=None):
    """``h / g``, and 0 where ``g`` is not positive. ``positive`` says
    that every entry of ``g`` is positive."""
    if positive:
        return np.divide(h, g, out=out)
    if out is None:
        out = np.zeros_like(g)
    else:
        out.fill(0.0)
    return np.divide(h, g, out=out, where=g > 0.0)


def degenerate_columns(h, g):
    """Columns where an observed row has no positive model probability."""
    return np.any((h > 0.0) & ~(g > 0.0), axis=0)


# --- the block kernel ----------------------------------------------------


@dataclass
class BlockResult:
    """Outputs of :func:`em_run`, one column per distribution."""

    best_q: np.ndarray  # P×B iterate at each column's ε minimum
    best_iteration: np.ndarray  # B
    n_iterations: np.ndarray  # B
    status: np.ndarray  # B
    epsilon: np.ndarray | None  # max_iters×B; rows past a column's end unspecified
    loglik: np.ndarray | None
    iterates: np.ndarray | None  # S×P×B; a stopped column reads NaN
    stored_iterations: np.ndarray | None


def chunk_length(n_rows, n_cols, width):
    """Iterations per chunk for a block of ``width`` columns: the chunk's
    iterates and model frequencies, and the iterate after it, fit in
    ``CHUNK_BYTES`` for a block of at most ``CHUNK_WIDTH`` columns, and
    in proportionally more for a wider one. At least 1."""
    width = min(width, CHUNK_WIDTH)
    return max(1, (CHUNK_BYTES // (8 * width) - n_cols) // (n_rows + n_cols))


def _iterate(matrix, back, h, gbuf, gs, qs, ratio, n):
    """Phase 1: up to ``n`` EM updates from the iterate ``qs[0]``,
    writing the model frequencies of iterate t to ``gs[t]``, a view of
    ``gbuf[t]``, and the next iterate to ``qs[t + 1]``.

    The chunk runs optimistically, with the plain ratio ``h/g``, and one
    check that every model frequency was positive covers it (a NaN
    fails it). If the check fails, the chunk is replayed by
    :func:`_iterate_carefully` from the first iterate whose ``g`` is not
    positive: the iterates before it were computed the same way on both
    paths, so the replay is exact.

    Returns what :func:`_iterate_carefully` returns.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        for g, q, nxt in zip(gs[:n], qs[:n], qs[1:n + 1]):
            np.dot(matrix, q, out=g)
            np.divide(h, g, out=ratio)
            np.dot(back, ratio, out=nxt)
            np.multiply(nxt, q, out=nxt)
    if gbuf[:n].min() > 0.0:
        return n, False, None
    positive = gbuf[:n].reshape(n, -1).min(axis=1) > 0.0
    return _iterate_carefully(matrix, back, h, gs, qs, ratio, n,
                              start=int(np.argmin(positive)))


def _iterate_carefully(matrix, back, h, gs, qs, ratio, n, start=0):
    """Phase 1 on the careful path, from the iterate ``qs[start]`` to
    ``n``: an iterate whose model frequencies are not all positive takes
    the masked ratio, and one where an observed row has no model
    probability ends the chunk.

    Returns the number of iterates done, whether any model frequency
    was not positive, and the degenerate columns of the iterate that
    ended the chunk early (None when the chunk ran to ``n``); that
    iterate gets no update.
    """
    careful = False
    for t in range(start, n):
        g, q, nxt = gs[t], qs[t], qs[t + 1]
        np.dot(matrix, q, out=g)
        if g.min() > 0.0:
            np.divide(h, g, out=ratio)
        else:
            careful = True
            degenerate = degenerate_columns(h, g)
            if degenerate.any():
                return t + 1, careful, degenerate
            data_ratio(h, g, False, ratio)
        np.dot(back, ratio, out=nxt)
        nxt *= q
    return n, careful, None


def _scan_best(eps, t0, bar, best, mind):
    """Phase 2: the ``min_decrease`` rule along each column of the n×B
    chunk ``eps``, whose first row is iteration ``t0``. An iterate
    becomes a column's best when its ε is below ``bar``, the best ε so
    far minus ``mind``. Updates ``bar`` and ``best`` in place.

    A column whose ε falls by more than ``mind`` from each iterate to
    the next ends the chunk with its last iterate as the best, and one
    whose ε never goes below ``bar`` keeps its best; neither needs the
    scan. The others are scanned in plain Python, as ``_em_run_loops``
    writes the rule. Returns the mask of the falling columns (True when
    all fall) and the list of the scanned ones.
    """
    below = eps < bar
    falls = below[0] & (eps[1:] < eps[:-1] - mind).all(axis=0)
    np.copyto(bar, eps[-1] - mind, where=falls)
    np.copyto(best, t0 + eps.shape[0] - 1, where=falls)
    if falls.all():
        return True, []
    scanned = np.flatnonzero(below.any(axis=0) & ~falls).tolist()
    for j in scanned:
        b, k, m = float(bar[j]), int(best[j]), float(mind[j])
        for it, e in enumerate(eps[:, j].tolist(), t0):
            if e < b:
                b = e - m
                k = it
        bar[j], best[j] = b, k
    return falls, scanned


def em_run(
    matrix, back, h, q0, max_iters, patience, eps_threshold, min_decrease,
    history=False, store_every=0,
) -> BlockResult:
    """Iterate the P×B block ``q0`` against the R×B frequencies ``h``.

    ``back`` is :func:`back_projector` of ``matrix``. ``min_decrease``
    is a scalar or one value per column. ``history`` keeps the ε and
    log-likelihood of every iteration (memory O(max_iters·B));
    ``store_every > 0`` keeps every that-many-th iterate. The module
    docstring describes the two phases of each chunk.
    """
    n_rows = matrix.shape[0]
    n_cols, width = q0.shape
    best_out = np.empty((n_cols, width))
    best_iter_out = np.zeros(width, dtype=np.int64)
    n_done_out = np.full(width, max_iters, dtype=np.int64)
    status_out = np.full(width, STATUS_MAX_ITERS, dtype=np.int64)
    eps_hist = np.empty((max_iters, width)) if history else None
    ll_hist = np.empty((max_iters, width)) if history else None
    snapshots: list[np.ndarray] = []
    snapshot_iters: list[int] = []

    # per active column: its index in the outputs, its best ε so far
    # minus its min_decrease, and its best iteration
    cols = np.arange(width)
    bars = np.full(width, np.inf)
    bests = np.zeros(width, dtype=np.int64)
    minds = np.zeros(width) + min_decrease
    h = np.ascontiguousarray(h, dtype=np.float64)
    # q is the iterate the next chunk starts from; best_q is not changed
    # before the first chunk has copied q0 into its buffer
    q = best_q = np.array(q0, dtype=np.float64, order="C")
    qs = None  # chunk buffers, allocated once per block width
    t0 = 0  # the iteration of qs[0]
    careful = False  # whether the last chunk had a non-positive g
    while t0 < max_iters:
        if qs is None:
            span = min(chunk_length(n_rows, n_cols, cols.size), max_iters)
            gbuf = np.empty((span, n_rows, cols.size))
            work = np.empty_like(gbuf)
            eps_buf = np.empty((span, cols.size))
            ll_buf = np.empty_like(eps_buf)
            ratio = np.empty((n_rows, cols.size))
            gs = list(gbuf)
            # one array per iterate: numpy aligns each to 16 bytes, while
            # slices of one buffer are only 8-byte aligned when P is odd,
            # which slowed the P = 14,641 update by about 3%
            qs = [np.empty((n_cols, cols.size)) for _ in range(span + 1)]
            qs[0][...] = q
        # no column can meet the patience rule before its best + patience
        n = min(span, max_iters - t0, int(bests.min()) + patience - t0 + 1)
        # a chunk after one with a non-positive model frequency starts on
        # the careful path: on data such as exact vacuum every chunk would
        # otherwise run twice
        if careful:
            n, careful, degenerate = _iterate_carefully(
                matrix, back, h, gs, qs, ratio, n)
        else:
            n, careful, degenerate = _iterate(
                matrix, back, h, gbuf, gs, qs, ratio, n)

        eps = mean_abs_deviation(h, gbuf[:n], work[:n], eps_buf[:n])
        if eps_threshold > 0.0:
            reached = np.flatnonzero((eps <= eps_threshold).any(axis=1))
            if reached.size and reached[0] < n - 1:
                n = int(reached[0]) + 1
                eps = eps[:n]
                degenerate = None
        if history:
            eps_hist[t0:t0 + n, cols] = eps
            ll_hist[t0:t0 + n, cols] = log_likelihood(
                h, gbuf[:n], not careful, work[:n], ll_buf[:n])
        if store_every > 0:
            first = -(-t0 // store_every) * store_every
            for it in range(first, t0 + n, store_every):
                snap = np.full((n_cols, width), np.nan)
                snap[:, cols] = qs[it - t0]
                snapshots.append(snap)
                snapshot_iters.append(it)

        # phase 2: the min_decrease rule along each column's ε, then the
        # stop rules at the chunk's last iterate
        last = t0 + n - 1
        falls, scanned = _scan_best(eps, t0, bars, bests, minds)
        np.copyto(best_q, qs[n - 1], where=falls)
        for j in scanned:
            if bests[j] >= t0:
                best_q[:, j] = qs[bests[j] - t0][:, j]
        stop = None
        if (last - bests.min() >= patience or eps_threshold > 0.0
                or degenerate is not None):
            stop = last - bests >= patience
            codes = np.where(stop, STATUS_MIN_EPSILON, STATUS_DEGENERATE)
            if eps_threshold > 0.0:
                reached = eps[-1] <= eps_threshold
                stop |= reached
                codes[reached] = STATUS_THRESHOLD
            if degenerate is not None:
                stop |= degenerate
        t0 = last + 1
        if stop is None or not stop.any():
            qs = qs[n:] + qs[:n]  # the next iterate, qs[n], comes first
            continue

        idx = cols[stop]
        best_out[:, idx] = best_q[:, stop]
        best_iter_out[idx] = bests[stop]
        n_done_out[idx] = t0
        status_out[idx] = codes[stop]
        keep = np.flatnonzero(~stop)
        if not keep.size:
            break
        # the update at the last iterate, on the columns that go on;
        # ``take``, unlike ``[:, keep]``, returns C-ordered blocks, the
        # layout every other update gives BLAS
        cols, bars, bests, minds = cols[keep], bars[keep], bests[keep], minds[keep]
        h, best_q = h.take(keep, axis=1), best_q.take(keep, axis=1)
        g = gbuf[n - 1].take(keep, axis=1)
        q = qs[n - 1].take(keep, axis=1)
        q *= back @ data_ratio(h, g, g.min() > 0.0)
        qs = None
    else:
        best_out[:, cols] = best_q
        best_iter_out[cols] = bests

    return BlockResult(
        best_q=best_out,
        best_iteration=best_iter_out,
        n_iterations=n_done_out,
        status=status_out,
        epsilon=eps_hist,
        loglik=ll_hist,
        iterates=np.stack(snapshots) if store_every > 0 else None,
        stored_iterations=np.array(snapshot_iters) if store_every > 0 else None,
    )
