import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from clicktomo import (
    JointDistribution,
    ThermalSpec,
    forward_click_probabilities,
    heralded_split_state,
    multithermal_click_reference,
    multithermal_marginal,
    split_on_beamsplitter,
    state_from_json,
    uniform_grid,
)
from clicktomo import states
from clicktomo.errors import TruncationError


class TestJointDistribution:
    def test_rejects_negative_entries(self):
        v = np.zeros((2, 2))
        v[0, 0] = 1.1
        v[1, 1] = -0.1
        with pytest.raises(ValueError):
            JointDistribution(v)

    def test_rejects_wrong_mass(self):
        with pytest.raises(ValueError):
            JointDistribution(np.full((2, 2), 0.3))

    def test_flat_index_rule_two_modes(self):
        # flat position of (n, k) is k + n*(1+N)
        N = 3
        v = np.zeros((N + 1, N + 1))
        v[2, 1] = 1.0
        d = JointDistribution(v)
        flat = d.flat()
        assert flat[1 + 2 * (1 + N)] == 1.0
        assert flat.sum() == 1.0

    def test_flat_index_rule_three_modes(self):
        # row-major, mode 1 slowest
        v = np.zeros((3, 3, 3))
        v[1, 0, 2] = 1.0
        d = JointDistribution(v)
        assert d.flat()[1 * 9 + 0 * 3 + 2] == 1.0

    def test_from_flat_round_trip(self, rng):
        v = rng.random(16)
        v /= v.sum()
        d = JointDistribution.from_flat(v, modes=2)
        assert d.truncation == 3
        np.testing.assert_array_equal(d.flat(), v)

    def test_leakage_bookkeeping(self):
        v = np.zeros((2, 2))
        v[0, 0] = 0.9
        d = JointDistribution(v, leakage=0.1)
        assert d.leakage == pytest.approx(0.1)
        n = d.normalized()
        assert n.values.sum() == pytest.approx(1.0)
        assert n.leakage == 0.0

    def test_values_immutable(self, balanced_state):
        with pytest.raises(ValueError):
            balanced_state.values[0, 0] = 1.0


class TestHeraldedSplitState:
    def test_balanced(self):
        d = heralded_split_state(0.5, 2)
        assert d.values[0, 1] == 0.5
        assert d.values[1, 0] == 0.5
        assert d.values.sum() == 1.0

    def test_unbalanced_ratio_two_thirds(self):
        d = heralded_split_state(0.4, 2)
        assert d.values[0, 1] / d.values[1, 0] == pytest.approx(2.0 / 3.0)

    def test_extreme_tau(self):
        d = heralded_split_state(0.999, 1)
        assert d.values[0, 1] == pytest.approx(0.999)
        assert d.values[1, 0] == pytest.approx(0.001)

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.2, 1.5])
    def test_tau_domain(self, tau):
        with pytest.raises(ValueError):
            heralded_split_state(tau, 2)

    def test_needs_one_photon(self):
        with pytest.raises(TruncationError):
            heralded_split_state(0.5, 0)


class TestMultithermalMarginal:
    def test_single_mode_is_geometric(self):
        # mu=1, Nbar=1 gives rho_n = 2^-(n+1)
        rho = multithermal_marginal(ThermalSpec(1.0, 1.0), 10)
        expected = 0.5 ** (np.arange(11) + 1)
        np.testing.assert_allclose(rho, expected, rtol=1e-12)

    def test_many_modes_approach_poisson(self):
        rho = multithermal_marginal(ThermalSpec(0.1, 1000.0), 8)
        nbar = 0.1
        poisson = np.array(
            [math.exp(-nbar) * nbar**n / math.factorial(n) for n in range(9)]
        )
        np.testing.assert_allclose(rho, poisson, atol=1e-3)
        assert rho[0] == pytest.approx(math.exp(-0.1), abs=1e-3)

    def test_vacuum_limit(self):
        rho = multithermal_marginal(ThermalSpec(1e-9, 2.0), 4)
        assert rho[0] == pytest.approx(1.0, abs=1e-8)
        assert rho[1:].max() < 1e-8

    def test_no_click_probability_matches_closed_form(self):
        # sum_n (1-eta)^n rho_n must equal mu^mu (mu + eta*Nbar)^-mu
        spec = ThermalSpec(0.7, 3.0)
        rho = multithermal_marginal(spec, 60)
        for eta in (0.2, 0.6, 1.0):
            lhs = np.sum((1 - eta) ** np.arange(61) * rho)
            rhs = (1 + eta * 0.7 / 3.0) ** -3.0
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_matches_high_precision_reference(self):
        # the multithermal-split preset beam, far into the tail; a
        # log-gamma difference loses about 1e-12 relative here
        nbar, mu, top = Decimal("0.15"), Decimal("1000"), 120
        with localcontext() as ctx:
            ctx.prec = 50
            term = (1 + nbar / mu) ** -mu
            reference = [term]
            for n in range(1, top + 1):
                term = term * (n + mu - 1) / n * nbar / (mu + nbar)
                reference.append(term)
        rho = multithermal_marginal(ThermalSpec(0.15, 1000.0), top)
        np.testing.assert_allclose(
            rho, [float(r) for r in reference], rtol=1e-13, atol=0
        )

    @pytest.mark.parametrize("args, key", [
        ((math.inf,), "mean_photons"), ((math.nan,), "mean_photons"),
        ((1.0, math.inf), "num_modes"), ((1.0, math.nan), "num_modes"),
    ], ids=["inf mean_photons", "nan mean_photons", "inf num_modes",
            "nan num_modes"])
    def test_non_finite_parameters_are_rejected(self, args, key):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ThermalSpec(*args)

    def test_vacuum_below_double_range_is_rejected(self):
        with pytest.raises(ValueError, match="vacuum probability"):
            multithermal_marginal(ThermalSpec(2000.0, 1000.0), 4)


class TestSplitOnBeamsplitter:
    def test_single_photon_routing(self):
        marg = np.array([0.0, 1.0])
        d = split_on_beamsplitter(marg, 0.4, 2)
        assert d.values[1, 0] == pytest.approx(0.4)
        assert d.values[0, 1] == pytest.approx(0.6)

    def test_vacuum(self):
        d = split_on_beamsplitter(np.array([1.0]), 0.3, 2)
        assert d.values[0, 0] == 1.0

    def test_conserves_total_photon_number(self, rng):
        marg = rng.random(7)
        marg /= marg.sum()
        d = split_on_beamsplitter(marg, 0.35, 6)
        for s in range(7):
            total = sum(d.values[n, s - n] for n in range(s + 1))
            assert total == pytest.approx(marg[s], abs=1e-14)

    def test_tau_domain(self):
        with pytest.raises(ValueError):
            split_on_beamsplitter(np.array([1.0]), 1.2, 2)

    def test_monte_carlo_routing_oracle(self):
        # route each photon of a thermal draw independently, compare joint
        marg = multithermal_marginal(ThermalSpec(1.0, 1.0), 8)
        marg = marg / marg.sum()
        d = split_on_beamsplitter(marg, 0.5, 8)
        rng = np.random.default_rng(99)
        samples = 10**6
        s = rng.choice(9, size=samples, p=marg)
        n = rng.binomial(s, 0.5)
        counts = np.zeros((9, 9))
        np.add.at(counts, (n, s - n), 1.0)
        tv = 0.5 * np.abs(counts / samples - d.values).sum()
        assert tv < 1e-2


class TestMultithermalClickReference:
    def test_blind_detector(self):
        assert multithermal_click_reference(ThermalSpec(1.0), 0.5, 0.0) == (
            1.0, 0.0, 0.0, 0.0,
        )

    def test_single_mode_unit_efficiency(self):
        p00, p01, p10, p11 = multithermal_click_reference(
            ThermalSpec(1.0, 1.0), 0.5, 1.0
        )
        assert p00 == pytest.approx(0.5)
        assert p01 == pytest.approx(1 / 1.5 - 0.5)
        assert p10 == pytest.approx(1 / 1.5 - 0.5)
        assert p11 == pytest.approx(1 - 0.5 - 2 * (1 / 1.5 - 0.5))

    @pytest.mark.parametrize("eta", np.linspace(0.0, 1.0, 11))
    def test_sums_to_one(self, eta):
        total = sum(multithermal_click_reference(ThermalSpec(2.3, 4.0), 0.3, eta))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_matrix_forward_model(self):
        # analytic formulas vs split state pushed through the linear model
        spec = ThermalSpec(0.4, 2.0)
        tau = 0.3
        N = 40  # leakage well below 1e-6
        marg = multithermal_marginal(spec, N)
        assert 1.0 - marg.sum() < 1e-6
        state = split_on_beamsplitter(marg, tau, N)
        grid = uniform_grid(4, 0.2, 0.8)
        probs = forward_click_probabilities(state, grid)
        for nu, eta in enumerate(grid.etas):
            ref = multithermal_click_reference(spec, tau, float(eta))
            np.testing.assert_allclose(probs.table[nu], ref, atol=1e-6)


class TestStateJson:
    def test_heralded_round_trip(self):
        d = state_from_json({"kind": "heralded", "tau": 0.25, "truncation": 2})
        assert d.values[0, 1] == pytest.approx(0.25)

    def test_multithermal_split(self):
        doc = {
            "kind": "multithermal_split", "tau": 0.5,
            "mean_photons": 0.5, "num_modes": 2.0, "truncation": 6,
        }
        d = state_from_json(doc)
        assert d.modes == 2
        assert d.values.sum() + d.leakage == pytest.approx(1.0, abs=1e-12)
        assert d.leakage < 1e-3

    def test_custom_flattened_order(self):
        flat = [0.0, 0.7, 0.3, 0.0]
        d = state_from_json({"kind": "custom", "modes": 2, "values": flat})
        assert d.values[0, 1] == 0.7
        assert d.values[1, 0] == 0.3

    def test_document_not_an_object(self):
        with pytest.raises(ValueError, match="a state must be a JSON object"):
            state_from_json([1, 2])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            state_from_json({"kind": "squeezed", "truncation": 2})

    @pytest.mark.parametrize("doc", [
        {"kind": "heralded", "tau": 0.5, "truncation": 3.5},
        {"kind": "heralded", "tau": "0.5", "truncation": 3},
        {"kind": "heralded", "tau": 0.5, "truncation": True},
        {"kind": "multithermal_split", "tau": 0.5, "mean_photons": "0.15",
         "truncation": 4},
        {"kind": "multithermal_split", "tau": 0.5, "mean_photons": 0.15,
         "num_modes": None, "truncation": 4},
        {"kind": "custom", "modes": 2.0, "values": [0.0, 0.6, 0.4, 0.0]},
        {"kind": "custom", "modes": 2, "values": [0.0, 0.6, 0.4, 0.0],
         "leakage": False},
        {"kind": "custom", "modes": 2, "values": [0, 0, 0, True]},
        {"kind": "custom", "modes": 2, "values": {"a": 1}},
    ], ids=["fractional truncation", "string tau", "boolean truncation",
            "string mean_photons", "null num_modes", "float modes",
            "boolean leakage", "boolean value", "object values"])
    def test_mistyped_number(self, doc):
        with pytest.raises(ValueError, match="must be an? (integer|number)"):
            state_from_json(doc)


def test_declared_shape_of_a_custom_document_builds_nothing(monkeypatch):
    def no_build(doc):
        raise AssertionError("declared_shape built the state")

    monkeypatch.setattr(states, "state_from_json", no_build)
    assert states.declared_shape(
        {"kind": "custom", "modes": 2, "values": [0.0, 0.6, 0.4, 0.0]}) is None
    assert states.declared_shape(
        {"kind": "heralded", "tau": 0.5, "truncation": 3}) == (2, 3)


@pytest.mark.parametrize("build, error, message", [
    (lambda: JointDistribution(np.float64(1.0)), ValueError,
     "values must have at least one axis"),
    (lambda: JointDistribution(np.full((2, 3), 1 / 6)), ValueError,
     "all modes must share the same truncation"),
    (lambda: state_from_json({"kind": "custom", "modes": 1, "values": [0.0],
                              "leakage": 1.0}),
     ValueError, r"leakage must lie in \[0, 1\)"),
    (lambda: JointDistribution(np.zeros(2), leakage=1 - 1e-10).normalized(),
     ValueError, "cannot normalize an all-zero distribution"),
    (lambda: state_from_json({"kind": "multithermal_split", "tau": 0.5,
                              "mean_photons": 0.5, "truncation": -1}),
     ValueError, "truncation must be >= 0"),
    (lambda: split_on_beamsplitter(np.full((2, 2), 0.25), 0.5, 3), ValueError,
     "marginal must be a vector"),
    (lambda: split_on_beamsplitter([1.5, -0.5], 0.5, 3), ValueError,
     "marginal entries must be nonnegative"),
    (lambda: split_on_beamsplitter([0.5, 0.3, 0.2], 0.5, 1), TruncationError,
     "marginal supports up to 2 photons but truncation is 1"),
    (lambda: multithermal_click_reference(ThermalSpec(1.0), 0.5, 1.5),
     ValueError, r"eta must lie in \[0, 1\], got 1.5"),
    (lambda: multithermal_click_reference(ThermalSpec(1.0), -0.5, 0.5),
     ValueError, r"tau must lie in \[0, 1\], got -0.5"),
], ids=["no axis", "unequal sides", "leakage 1", "all zero",
        "negative truncation", "matrix marginal", "negative marginal",
        "marginal beyond truncation", "eta above 1", "negative tau"])
def test_malformed_state_input_is_refused_by_name(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()
