"""The EM iteration written loop by loop, one column at a time: the
reference ``clicktomo._kernels.em_run`` is checked against, the kernel
runner that records the same histories, and the one comparison of two
runs.

``tests/test_solver.py`` compares the block kernel with the reference,
and ``benchmarks/bench_em.py`` checks every operator pair with it before
it times one. A run has the fields of ``_kernels.BlockResult`` and the
max_iters×B ``epsilon`` and ``loglik`` histories, NaN past each column's
last iteration. The stops come in the kernel's order: patience,
degenerate, the end of the budget.
"""

from types import SimpleNamespace

import numpy as np

from clicktomo._kernels import (
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    STATUS_MIN_EPSILON,
    em_run,
)

FIELDS = ("best_q", "best_iteration", "n_iterations", "status", "epsilon",
          "loglik")
# absolute tolerances of a kernel run against the loop reference, which
# sums its rows in another order; the integer fields stay exact
CLOSE = {"best_q": 1e-13, "epsilon": 1e-14, "loglik": 1e-12}


def _em_run_loops(matrix, h, q0, max_iters, patience, min_decrease):
    """The loop reference on the R×B frequencies ``h`` from the P×B
    start ``q0``, column by column; ``min_decrease`` is a scalar or one
    value per column."""
    minds = np.zeros(q0.shape[1]) + min_decrease
    columns = zip(*(_column_loops(matrix, h[:, col], q0[:, col], max_iters,
                                  patience, mind)
                    for col, mind in enumerate(minds)))
    return SimpleNamespace(**{field: np.stack(values, axis=-1)
                              for field, values in zip(FIELDS, columns)})


def _column_loops(matrix, h, q0, max_iters, patience, min_decrease):
    """One column of the reference: its fields, in ``FIELDS`` order."""
    n_rows = matrix.shape[0]
    matrix_t = np.ascontiguousarray(matrix.T)
    inv_colsum = 1.0 / matrix.sum(axis=0)
    q = q0.copy()
    eps_hist = np.full(max_iters, np.nan)
    ll_hist = np.full(max_iters, np.nan)
    best_q = q.copy()
    best_eps = np.inf
    best_iter = 0
    status = STATUS_MAX_ITERS
    n_done = 0
    ratio = np.empty(n_rows)
    tiny = np.finfo(np.float64).tiny  # see _kernels.log_likelihood
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
                ll += h[mu] * np.log(g[mu] / max(h[mu], tiny)) + h[mu] - g[mu]
            else:
                ll -= g[mu]
        eps_hist[it] = eps
        ll_hist[it] = ll
        n_done = it + 1
        if eps < best_eps - min_decrease:
            best_eps = eps
            best_iter = it
            best_q[:] = q
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
    return best_q, best_iter, n_done, status, eps_hist, ll_hist


def _em_run_history(matrix, back, h, q0, max_iters, *stop_args):
    """``em_run`` with a chunk callback that records every column's ε
    and log-likelihood rows: a run with all the fields of the loop
    reference."""
    epsilon = np.full((max_iters, q0.shape[1]), np.nan)
    loglik = np.full_like(epsilon, np.nan)

    def collect(t0, cols, eps, ll):
        epsilon[t0:t0 + len(eps), cols] = eps
        loglik[t0:t0 + len(ll), cols] = ll

    block = em_run(matrix, back, h, q0, max_iters, *stop_args, on_chunk=collect)
    return SimpleNamespace(**vars(block), epsilon=epsilon, loglik=loglik)


def first_difference(a, b, atol=None):
    """The first column, and in it the first field, where run ``b``
    differs from run ``a``, or None. Every field ``a`` has is compared:
    bit for bit without ``atol``, NaN matching NaN; with it, each field
    named in ``atol`` within that absolute tolerance. A block of
    ``em_run`` alone has no histories."""
    fields = [field for field in FIELDS if hasattr(a, field)]
    for col in range(len(a.status)):
        for field in fields:
            tol = 0.0 if atol is None else atol.get(field, 0.0)
            if not np.allclose(getattr(a, field)[..., col],
                               getattr(b, field)[..., col],
                               rtol=0, atol=tol, equal_nan=True):
                return col, field
    return None
