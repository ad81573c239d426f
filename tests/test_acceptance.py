"""End-to-end acceptance checks.

Each test prints a single pass/fail line for its criterion in addition
to the usual pytest outcome. On exact data the multiplicative update
approaches the answer only as O(1/iteration) — the click statistics pin
the generating distribution down only through the positivity boundary —
so the noise-free recovery check runs with a budget of a few million
iterations (a handful of seconds); see the companion rate test.
"""

import itertools
import time

import numpy as np
import pytest

from clicktomo import (
    EfficiencyGrid,
    JointDistribution,
    StoppingConfig,
    ThermalSpec,
    build_matrix,
    em_step,
    fidelity,
    forward_click_probabilities,
    frequencies,
    heralded_split_state,
    marginal,
    multithermal_marginal,
    reconstruct,
    reconstruct_exact,
    sample_clicks,
    split_on_beamsplitter,
    uniform_grid,
)

SEED = 2


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)


def heralded_trace(tau):
    grid = uniform_grid(34, 0.015, 0.325)
    probs = forward_click_probabilities(heralded_split_state(tau, 3), grid)
    record = sample_clicks(probs, 100_000, seed=SEED)
    return reconstruct(record, 3, StoppingConfig(max_iters=100_000))


@pytest.fixture(scope="module")
def multithermal_trace():
    spec = ThermalSpec(0.15, 1000.0)
    marg = multithermal_marginal(spec, 8)
    leakage = 1.0 - marg.sum()
    assert leakage < 1e-6
    state = split_on_beamsplitter(marg, 0.5, 8)
    grid = uniform_grid(35, 0.05, 0.25)
    probs = forward_click_probabilities(state, grid)
    record = sample_clicks(probs, 1_000_000, seed=SEED)
    start = time.perf_counter()
    trace = reconstruct(record, 8, StoppingConfig(min_decrease=None))
    elapsed = time.perf_counter() - start
    # every iterate of the solve, replayed from its uniform start
    matrix = build_matrix(grid, 2, 8)
    h = frequencies(record)
    iterates = [np.full(81, 1.0 / 81)]
    for _ in range(trace.n_iterations - 1):
        iterates.append(em_step(iterates[-1], matrix, h))
    # each split mode against its own marginal
    references = [marginal(state, m) for m in (0, 1)]
    return trace, references, elapsed, iterates


def test_criterion_unbalanced_split_recovery():
    start = time.perf_counter()
    trace = heralded_trace(0.4)
    elapsed = time.perf_counter() - start
    ratio = trace.final.values[0, 1] / trace.final.values[1, 0]
    multi = max(
        float(trace.final.values[n, k])
        for n in range(4) for k in range(4) if n + k >= 2
    )
    ok = 0.6 <= ratio <= 0.75 and multi < 0.01 and elapsed < 60.0
    report(
        "unbalanced split: element ratio and multi-photon suppression", ok,
        f"ratio={ratio:.4f}, max multi-photon={multi:.2e}, {elapsed:.1f}s",
    )
    assert 0.6 <= ratio <= 0.75
    assert multi < 0.01
    assert elapsed < 60.0


def test_criterion_balanced_split_recovery():
    trace = heralded_trace(0.5)
    ratio = trace.final.values[0, 1] / trace.final.values[1, 0]
    ok = 0.9 <= ratio <= 1.1
    report("balanced split: element ratio near 1", ok, f"ratio={ratio:.4f}")
    assert ok


def test_criterion_multithermal_marginal_fidelity(multithermal_trace):
    trace, references, elapsed, _ = multithermal_trace
    fids = [
        fidelity(marginal(trace.final, m), references[m])
        for m in (0, 1)
    ]
    ok = min(fids) >= 0.99 and elapsed < 300.0
    report(
        "multithermal split: marginal fidelities", ok,
        f"F={fids[0]:.4f}/{fids[1]:.4f}, {elapsed:.1f}s",
    )
    assert min(fids) >= 0.99
    assert elapsed < 300.0


def test_criterion_fidelity_peak_near_error_minimum(multithermal_trace):
    trace, references, _, iterates = multithermal_trace
    fid = []
    for q in iterates:
        dist = q.reshape(9, 9)
        total = dist.sum()
        f1 = fidelity(dist.sum(axis=1) / total, references[0])
        f2 = fidelity(dist.sum(axis=0) / total, references[1])
        fid.append(0.5 * (f1 + f2))
    peak = int(np.argmax(fid))
    distance = abs(peak - trace.best_iteration)
    allowance = 200 + 0.1 * trace.n_iterations
    ok = distance <= allowance
    report(
        "fidelity peak inside the error-minimum window", ok,
        f"peak at {peak}, error minimum at {trace.best_iteration}, "
        f"allowance {allowance:.0f}",
    )
    assert ok


def brute_force_matrix(etas, modes, truncation):
    side = truncation + 1
    patterns = [
        bits for bits in itertools.product((0, 1), repeat=modes)
        if bits != (1,) * modes
    ]
    rows = np.zeros((len(patterns) * len(etas), side**modes))
    for b, bits in enumerate(patterns):
        for nu, eta in enumerate(etas):
            for p, config in enumerate(itertools.product(range(side), repeat=modes)):
                val = 1.0
                for bit, n in zip(bits, config):
                    a = (1.0 - eta) ** n
                    val *= a if bit == 0 else 1.0 - a
                rows[b * len(etas) + nu, p] = val
    return rows


def brute_force_step(B, q, h):
    out = np.empty_like(q)
    g = np.array([float(B[mu] @ q) for mu in range(B.shape[0])])
    for p in range(q.size):
        acc = 0.0
        for mu in range(B.shape[0]):
            acc += B[mu, p] * h[mu] / g[mu]
        out[p] = q[p] / B[:, p].sum() * acc
    return out


def test_criterion_matches_brute_force_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    worst_m = 0.0
    worst_u = 0.0
    cases = [(2, n, k) for n in (1, 2, 3) for k in (2, 5)]
    cases += [(3, n, k) for n in (1, 2) for k in (2, 5)]
    for modes, truncation, k in cases:
        etas = np.sort(rng.uniform(0.05, 0.9, size=k))
        grid = EfficiencyGrid(etas)
        m = build_matrix(grid, modes, truncation)
        B = brute_force_matrix(etas, modes, truncation)
        worst_m = max(worst_m, float(np.max(np.abs(m.rows - B))))
        q = rng.random((truncation + 1) ** modes)
        q /= q.sum()
        h = rng.random(B.shape[0]) * 0.1
        worst_u = max(
            worst_u,
            float(np.max(np.abs(em_step(q, m, h) - brute_force_step(B, q, h)))),
        )
    elapsed = time.perf_counter() - start
    ok = worst_m <= 1e-12 and worst_u <= 1e-12 and elapsed < 10.0
    report(
        "matrix and update match brute-force enumeration", ok,
        f"matrix dev {worst_m:.1e}, update dev {worst_u:.1e}, {elapsed:.1f}s",
    )
    assert worst_m <= 1e-12
    assert worst_u <= 1e-12
    assert elapsed < 10.0


def test_criterion_iteration_invariants():
    rng = np.random.default_rng(11)
    ok = True
    worst_fp = 0.0
    for _ in range(20):
        truncation = int(rng.integers(1, 4))
        k = int(rng.integers(3, 8))
        etas = np.sort(rng.uniform(0.02, 0.95, size=k))
        grid = EfficiencyGrid(etas)
        side = truncation + 1
        v = rng.random((side, side))
        v /= v.sum()
        state = JointDistribution(v)
        probs = forward_click_probabilities(state, grid)
        record = sample_clicks(probs, 50_000, seed=int(rng.integers(1 << 30)))
        m = build_matrix(grid, 2, truncation)
        trace = reconstruct(record, truncation, StoppingConfig(max_iters=300))
        ll = trace.loglik
        if not np.all(np.isfinite(ll)):
            ok = False
        elif np.any(np.diff(ll) < -1e-10 * np.maximum(np.abs(ll[:-1]), 1.0)):
            ok = False
        if np.any(trace.final.values < 0):
            ok = False
        # exact data leave the generating distribution fixed
        h = m.rows @ state.flat()
        residual = float(np.max(np.abs(em_step(state.flat(), m, h) - state.flat())))
        worst_fp = max(worst_fp, residual)
    ok = ok and worst_fp <= 1e-12
    report(
        "monotone likelihood, positivity, exact fixed point", ok,
        f"worst fixed-point residual {worst_fp:.1e}",
    )
    assert ok


def test_criterion_noise_free_recovery():
    budget = 3_000_000
    worst = 0.0
    for tau in (0.4, 0.5):
        state = heralded_split_state(tau, 3)
        grid = uniform_grid(34, 0.015, 0.325)
        probs = forward_click_probabilities(state, grid)
        trace = reconstruct_exact(
            probs, 3, StoppingConfig(max_iters=budget, patience=budget)
        )
        err = float(np.max(np.abs(trace.final.values - state.values)))
        worst = max(worst, err)
    ok = worst < 1e-3
    report(
        "noise-free recovery of heralded states to 1e-3", ok,
        f"max deviation {worst:.2e} within {budget} iterations",
    )
    assert ok


def test_noise_free_convergence_rate_is_inverse_iteration():
    # companion to the criterion above: the error shrinks like
    # 1/iteration (boundary convergence), so the accuracy reached is
    # set by the iteration budget, not by the data
    state = heralded_split_state(0.4, 3)
    grid = uniform_grid(34, 0.015, 0.325)
    probs = forward_click_probabilities(state, grid)
    errs = []
    for iters in (25_000, 50_000, 100_000):
        trace = reconstruct_exact(
            probs, 3, StoppingConfig(max_iters=iters, patience=iters)
        )
        errs.append(float(np.max(np.abs(trace.final.values - state.values))))
    assert errs[0] > errs[1] > errs[2]
    for a, b in zip(errs, errs[1:]):
        assert a / b == pytest.approx(2.0, rel=0.25)


def test_criterion_pipeline_determinism(tmp_path):
    from clicktomo.cli import main

    outputs = []
    for tag in ("one", "two"):
        sim = tmp_path / tag / "sim"
        rec = tmp_path / tag / "rec"
        assert main([
            "simulate", "--preset", "heralded-unbalanced",
            "--grid-k", "8", "--runs", "20000", "--seed", str(SEED),
            "--out-dir", str(sim),
        ]) == 0
        assert main([
            "reconstruct", str(sim), "--max-iters", "1000",
            "--bootstrap-reps", "3", "--seed", str(SEED),
            "--out-dir", str(rec),
        ]) == 0
        outputs.append((sim, rec))
    ok = True
    for name in ("record.json", "record.csv", "manifest.json"):
        ok &= (outputs[0][0] / name).read_bytes() == (outputs[1][0] / name).read_bytes()
    for name in ("trace.csv", "distribution.json", "distribution.csv",
                 "summary.json", "uncertainty.csv", "manifest.json"):
        ok &= (outputs[0][1] / name).read_bytes() == (outputs[1][1] / name).read_bytes()
    report("pipeline outputs byte-identical across reruns", ok)
    assert ok
