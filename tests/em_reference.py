"""The EM iteration written loop by loop for one distribution: the
reference ``clicktomo._kernels.em_run`` is checked against.

``tests/test_solver.py`` compares the block kernel with it column by
column, and ``benchmarks/bench_em.py`` checks every operator pair with
it before it times one. It returns the best iterate, the last iterate,
the best iteration, the iteration count, the ε and log-likelihood
histories and the status code; the stops come in the kernel's order:
patience, degenerate, the end of the budget.
"""

import numpy as np

from clicktomo._kernels import (
    STATUS_DEGENERATE,
    STATUS_MAX_ITERS,
    STATUS_MIN_EPSILON,
)


def _em_run_loops(matrix, h, q0, max_iters, patience, min_decrease):
    n_rows = matrix.shape[0]
    matrix_t = np.ascontiguousarray(matrix.T)
    inv_colsum = 1.0 / matrix.sum(axis=0)
    q = q0.copy()
    eps_hist = np.empty(max_iters)
    ll_hist = np.empty(max_iters)
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
    return best_q, q, best_iter, n_done, eps_hist, ll_hist, status
