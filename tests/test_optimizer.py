import numpy as np
import pytest

from lbcs import (BetaDistribution, MultiReference, SingleReference,
                  parse_observable, uniform_beta, cost_diag, cost_full,
                  cost_multiref, optimize, exact_variance, OptimizerConfig)
from lbcs.optimizer import DivergenceWarning, _cost_moment, _rows_from_num
from lbcs.shadows import reciprocal
from lbcs.states import observable_expectation

import oracles


def random_multireference(rng, n):
    k = int(rng.integers(1, min(3, 1 << n) + 1))
    idxs = rng.choice(1 << n, size=k, replace=False)
    amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return MultiReference(tuple(format(int(b), f"0{n}b") for b in idxs),
                          tuple(amps / np.linalg.norm(amps)))


def traceless_second_moment(h, v, beta):
    """E[(nu - c0)^2] of the biased-shadow estimator on amplitudes v, by
    enumeration; independent of the pair-table engine."""
    e1, e2 = oracles.shadow_moments(h, v, beta.rows)
    c0 = h.identity_coefficient
    return e2 - 2.0 * c0 * e1 + c0 ** 2


H34 = parse_observable("3.0 X\n4.0 Z\n")
HZZ = parse_observable("1.0 ZI\n1.0 ZZ\n")


class TestCosts:
    def test_cost_diag_value(self):
        assert cost_diag(H34, uniform_beta(1)) == pytest.approx(75.0)
        beta = BetaDistribution(1, np.array([[3 / 7, 0.0, 4 / 7]]))
        assert cost_diag(H34, beta) == pytest.approx(49.0)

    def test_cost_full_reference_signs(self):
        assert cost_full(HZZ, SingleReference((1, 1)), uniform_beta(2)) == \
            pytest.approx(18.0)
        assert cost_full(HZZ, SingleReference((1, -1)), uniform_beta(2)) == \
            pytest.approx(6.0)

    def test_cost_full_single_term_matches_diag(self, rng):
        h = parse_observable("1.5 XY\n")
        beta = oracles.random_beta(rng, 2)
        ref = SingleReference((1, -1))
        assert cost_full(h, ref, beta) == pytest.approx(cost_diag(h, beta))

    def test_cost_full_equals_reference_second_moment(self, rng):
        # the cost is exactly the second moment of the estimator on the
        # reference state, so it differs from the variance by the
        # squared reference mean
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            signs = oracles.random_signs(rng, n)
            ref = SingleReference(signs)
            mean0 = observable_expectation(
                h, oracles.reference_statevector(ref)) - h.identity_coefficient
            var = exact_variance(h, ref, beta)
            assert cost_full(h, ref, beta) == \
                pytest.approx(var + mean0 ** 2, abs=1e-9)

    def test_cost_full_equals_enumerated_second_moment(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            ref = SingleReference(oracles.random_signs(rng, n))
            want = traceless_second_moment(
                h, oracles.reference_statevector(ref).amplitudes, beta)
            assert cost_full(h, ref, beta) == pytest.approx(want, abs=1e-9)

    def test_cost_multiref_equals_enumerated_second_moment(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            ref = random_multireference(rng, n)
            want = traceless_second_moment(
                h, oracles.reference_statevector(ref).amplitudes, beta)
            assert cost_multiref(h, ref, beta) == \
                pytest.approx(want, abs=1e-9)

    def test_cost_multiref_bell(self):
        h = parse_observable("1.0 XX\n")
        ref = MultiReference(("00", "11"), (1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert cost_multiref(h, ref, uniform_beta(2)) == pytest.approx(9.0)

    def test_cost_multiref_equals_statevector_second_moment(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            k = int(rng.integers(1, min(3, 1 << n) + 1))
            idxs = rng.choice(1 << n, size=k, replace=False)
            bits = tuple(format(int(b), f"0{n}b") for b in idxs)
            amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            amps = tuple(amps / np.linalg.norm(amps))
            ref = MultiReference(bits, amps)
            v = oracles.reference_statevector(ref)
            mean0 = observable_expectation(h, v) - h.identity_coefficient
            want = exact_variance(h, v, beta) + mean0 ** 2
            assert cost_multiref(h, ref, beta) == pytest.approx(want, abs=1e-9)

    def test_k1_multiref_reduces_to_full(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 5))
            h = oracles.random_hamiltonian(rng, n, max_terms=6)
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            single = SingleReference.from_bits(bits)
            multi = MultiReference((bits,), (1.0,))
            beta = oracles.random_beta(rng, n)
            assert cost_multiref(h, multi, beta) == \
                pytest.approx(cost_full(h, single, beta), abs=1e-10)

    def test_vanishing_entry_warns(self):
        beta = BetaDistribution(1, np.array([[1.0, 0.0, 0.0]]))
        with pytest.warns(DivergenceWarning):
            cost_diag(H34, beta)

    def test_convexity_of_diag(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            b1 = oracles.random_beta(rng, n)
            b2 = oracles.random_beta(rng, n)
            mid = BetaDistribution(n, 0.5 * (b1.rows + b2.rows))
            lhs = cost_diag(h, mid)
            rhs = 0.5 * (cost_diag(h, b1) + cost_diag(h, b2))
            assert lhs <= rhs + 1e-9


def lagrange_rows(h, beta, reference=None):
    """One undamped closed-form step of the cost (diag without a
    reference), unfloored: the rows the optimizer steps towards."""
    moment = _cost_moment(h, reference)
    rows, _, _ = _rows_from_num(moment.numerators(reciprocal(beta)),
                                beta.rows, 0.0)
    return rows


class TestLagrangeUpdates:
    def test_diag_fixed_point(self):
        beta = BetaDistribution(1, np.array([[3 / 7, 0.0, 4 / 7]]))
        rows = lagrange_rows(H34, beta)
        assert np.allclose(rows, beta.rows, atol=1e-15)

    def test_diag_step_from_uniform(self):
        # weights 9*3 = 27 on X and 16*3 = 48 on Z -> (27, 0, 48)/75
        rows = lagrange_rows(H34, uniform_beta(1))
        assert np.allclose(rows, [[27 / 75, 0.0, 48 / 75]])

    def test_unsupported_qubit_untouched(self):
        h = parse_observable("1.0 XI\n")
        rows = lagrange_rows(h, uniform_beta(2))
        assert np.allclose(rows[1], [1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(rows[0], [1.0, 0.0, 0.0])

    def test_full_matches_diag_without_cross_pairs(self, rng):
        h = parse_observable("1.0 X\n1.0 Z\n")
        beta = oracles.random_beta(rng, 1)
        ref = SingleReference((1,))
        a = lagrange_rows(h, beta)
        b = lagrange_rows(h, beta, ref)
        assert np.allclose(a, b, atol=1e-14)

    def test_full_update_value(self):
        # at uniform beta with m = (+1, +1) all pair mass sits on the Z
        # labels, so both rows collapse onto Z after one exact step
        ref = SingleReference((1, 1))
        rows = lagrange_rows(HZZ, uniform_beta(2), ref)
        assert np.allclose(rows[0], [0.0, 0.0, 1.0])
        assert np.allclose(rows[1], [0.0, 0.0, 1.0])


class TestRowIdentity:
    """The closed-form row numerators are -beta * dC/dbeta."""

    @pytest.mark.parametrize("kind", ["diag", "full", "multiref"])
    def test_numerators_match_central_differences(self, rng, kind):
        for _ in range(15):
            n = int(rng.integers(1, 5))
            h = oracles.random_hamiltonian(rng, n, max_terms=6)
            reference = {"diag": None,
                         "full": SingleReference(oracles.random_signs(rng, n)),
                         "multiref": random_multireference(rng, n)}[kind]
            moment = _cost_moment(h, reference)
            beta = oracles.random_beta(rng, n).rows
            cost = moment.value(1.0 / beta)
            got = moment.numerators(1.0 / beta)
            want = np.zeros((n, 3))
            for i in range(n):
                for w in range(3):
                    step = np.zeros((n, 3))
                    step[i, w] = 1e-4 * beta[i, w]
                    slope = (moment.value(1.0 / (beta + step))
                             - moment.value(1.0 / (beta - step))) \
                        / (2.0 * step[i, w])
                    want[i, w] = -beta[i, w] * slope
            np.testing.assert_allclose(got, want, rtol=1e-6,
                                       atol=1e-9 * abs(cost))


class TestOptimize:
    def test_single_qubit_analytic(self):
        res = optimize(H34, "diag")
        assert res.converged
        assert np.allclose(res.beta.rows, [[3 / 7, 0.0, 4 / 7]], atol=1e-6)
        assert res.cost == pytest.approx(49.0, abs=1e-8)
        assert res.kkt_residual < 1e-8

    def test_z_only_concentrates(self):
        h = parse_observable("1.0 ZZ\n")
        res = optimize(h, "diag")
        assert res.converged
        assert np.allclose(res.beta.rows, [[0, 0, 1], [0, 0, 1]], atol=1e-9)
        assert res.cost == pytest.approx(1.0)

    def test_full_cost_not_above_uniform(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            signs = oracles.random_signs(rng, n)
            ref = SingleReference(signs)
            res = optimize(h, "full", reference=ref)
            uniform_cost = cost_full(h, ref, uniform_beta(n))
            assert res.cost <= uniform_cost + 1e-8

    def test_multiref_runs(self):
        h = parse_observable("1.0 XX\n0.5 ZI\n")
        ref = MultiReference(("00", "11"), (1 / np.sqrt(2), 1 / np.sqrt(2)))
        res = optimize(h, "multiref", reference=ref)
        assert res.cost <= cost_multiref(h, ref, uniform_beta(2)) + 1e-8

    def test_reference_type_enforced(self):
        with pytest.raises(ValueError):
            optimize(H34, "full", reference=None)
        with pytest.raises(ValueError):
            optimize(H34, "nope")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(step=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(tolerance=0.0)
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iterations"):
                OptimizerConfig(max_iterations=bad)
