"""Hot EM iteration kernel.

``em_run`` iterates a P×B block of distributions at once. Every column
is an independent solve, with its own frequencies, stopping state and
status, and a column that stops leaves the block. A single
reconstruction is a block of width 1; a bootstrap is one block of all
its replicates. ``_em_run_loops`` is the same iteration written loop by
loop for one distribution: the reference the tests compare
``em_run`` against.

The per-iteration log-likelihood is the scaled negative information
divergence between the measured and modeled frequencies,
``sum_mu h log(g/h) + h - g``: zero at a perfect fit, nondecreasing
under the multiplicative update, ``-inf`` when an observed row has
zero model probability. :func:`log_likelihood` evaluates it as
``sum_mu (h log g - g)`` minus the data constant
``sum_mu (h log h - h)`` of :func:`loglik_offset`.

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
_RUNNING = -9


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


def back_projector(matrix, colsum):
    """P×R back-projection: ``matrix.T`` with row p scaled by
    ``1/colsum[p]`` (0 where the column sum vanishes), so that one EM
    update is ``q * (back @ (h/g))``. One copy, scaled in place."""
    positive = colsum > 0.0
    inv_colsum = np.where(positive, 1.0 / np.where(positive, colsum, 1.0), 0.0)
    back = matrix.T.copy()
    back *= inv_colsum[:, None]
    return back


def mean_abs_deviation(h, g, work=None):
    """Total error ε per column: the mean over rows of ``|h - g|``."""
    work = np.subtract(h, g, out=work)
    np.abs(work, out=work)
    eps = np.add.reduce(work, axis=0)
    eps /= h.shape[0]
    return eps


def loglik_offset(h):
    """The data constant ``sum_mu (h log h - h)`` per column, over the
    observed rows (``h > 0``)."""
    logs = np.log(np.where(h > 0.0, h, 1.0))
    return np.add.reduce(h * logs, axis=0) - np.add.reduce(h, axis=0)


def log_likelihood(h, g, offset, positive, work=None):
    """``sum_mu (h log g - g) - offset`` per column of the R×B blocks
    ``h`` and ``g``; ``-inf`` in a column where an observed row has
    ``g <= 0``. ``positive`` says that every entry of ``g`` is
    positive, which skips the masking."""
    if positive:
        work = np.log(g, out=work)
    else:
        work = np.log(np.where(g > 0.0, g, 1.0), out=work)
    work *= h
    ll = np.add.reduce(work, axis=0) - np.add.reduce(g, axis=0) - offset
    if not positive:
        ll[np.any((h > 0.0) & (g <= 0.0), axis=0)] = -np.inf
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
    epsilon: np.ndarray | None  # max_iters×B; rows past a column's end unset
    loglik: np.ndarray | None
    iterates: np.ndarray | None  # S×P×B; a stopped column reads NaN
    stored_iterations: np.ndarray | None


def _mark(status, mask, code):
    if status is None:
        status = np.full(mask.shape, _RUNNING)
    status[(status == _RUNNING) & mask] = code
    return status


def em_run(
    matrix, back, h, q0, max_iters, patience, eps_threshold, min_decrease,
    history=False, store_every=0,
) -> BlockResult:
    """Iterate the P×B block ``q0`` against the R×B frequencies ``h``.

    ``back`` is :func:`back_projector` of ``matrix``. ``min_decrease``
    is a scalar or one value per column. ``history`` keeps the ε and
    log-likelihood of every iteration (memory O(max_iters·B));
    ``store_every > 0`` keeps every that-many-th iterate.

    Per-column state is kept compacted to the columns still running, so
    the hot loop touches contiguous blocks only; the rare branches
    (non-positive model rows, the patience rule) sit behind scalar
    guards.
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

    # active columns: ``cols`` maps each to its index in the outputs;
    # ``out_cols`` does too, but stays a basic slice until a column stops
    cols = np.arange(width)
    out_cols = slice(None)
    q = np.array(q0, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    offset = loglik_offset(h) if history else None
    mind = np.zeros(width) + min_decrease
    bar = np.inf - mind  # best ε so far minus min_decrease
    best_q = q.copy()
    best_iter = np.zeros(width, dtype=np.int64)
    oldest_best = 0
    g = np.empty((n_rows, width))
    work = np.empty_like(g)
    ratio = np.empty_like(g)
    update = np.empty_like(q)
    for it in range(max_iters):
        np.matmul(matrix, q, out=g)
        eps = mean_abs_deviation(h, g, work)
        positive = g.min() > 0.0
        if history:
            eps_hist[it, out_cols] = eps
            ll_hist[it, out_cols] = log_likelihood(h, g, offset, positive, work)
        if store_every > 0 and it % store_every == 0:
            snap = np.full((n_cols, width), np.nan)
            snap[:, out_cols] = q
            snapshots.append(snap)
            snapshot_iters.append(it)

        improved = eps < bar
        n_improved = np.count_nonzero(improved)
        if n_improved == improved.size:
            np.subtract(eps, mind, out=bar)
            best_iter.fill(it)
            np.copyto(best_q, q)
            oldest_best = it
        elif n_improved:
            bar[improved] = eps[improved] - mind[improved]
            best_iter[improved] = it
            best_q[:, improved] = q[:, improved]
            oldest_best = int(best_iter.min())

        stop = None
        if eps_threshold > 0.0:
            reached = eps <= eps_threshold
            if reached.any():
                stop = _mark(stop, reached, STATUS_THRESHOLD)
        if it - oldest_best >= patience:
            stop = _mark(stop, it - best_iter >= patience, STATUS_MIN_EPSILON)
        if not positive:
            stop = _mark(stop, degenerate_columns(h, g), STATUS_DEGENERATE)
        if stop is not None:
            done = stop != _RUNNING
            if done.any():
                idx = cols[done]
                best_out[:, idx] = best_q[:, done]
                best_iter_out[idx] = best_iter[done]
                n_done_out[idx] = it + 1
                status_out[idx] = stop[done]
                keep = ~done
                if not keep.any():
                    break
                cols = out_cols = cols[keep]
                q, h, g = q[:, keep], h[:, keep], g[:, keep]
                best_q, best_iter = best_q[:, keep], best_iter[keep]
                mind, bar = mind[keep], bar[keep]
                if history:
                    offset = offset[keep]
                work = np.empty_like(g)
                ratio = np.empty_like(g)
                update = np.empty_like(q)
                oldest_best = int(best_iter.min())

        np.matmul(back, data_ratio(h, g, positive, ratio), out=update)
        q *= update
    else:
        best_out[:, out_cols] = best_q
        best_iter_out[out_cols] = best_iter

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
