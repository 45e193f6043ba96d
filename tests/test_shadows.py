import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcs import (BetaDistribution, PauliString, StateVector,
                  SingleReference, MultiReference, uniform_beta, run_protocol,
                  exact_variance, parse_observable, build_grouping,
                  grouping_protocol, l1_protocol)
from lbcs import shadows
from lbcs.shadows import (DivergenceError, make_rng, sample_basis_labels,
                          sample_outcome_indices, sample_outcomes)
from lbcs.states import born_probabilities

import oracles
from conftest import peak_traced_mb
from oracles import (MeasurementRecord, measure_state, sample_basis,
                     single_shot_estimate)


def P(text):
    return PauliString.from_text(text)


ZERO = StateVector.from_bits("0")
PLUS = StateVector(1, np.array([1, 1]) / np.sqrt(2))


class TestBetaDistribution:
    def test_rows_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            BetaDistribution(1, np.array([[0.5, 0.4, 0.2]]))
        with pytest.raises(ValueError, match="nonnegative"):
            BetaDistribution(1, np.array([[1.2, -0.1, -0.1]]))
        with pytest.raises(ValueError, match="shape"):
            BetaDistribution(2, np.array([[1.0, 0.0, 0.0]]))

    def test_probability_by_label(self):
        # column label - 1 of a row holds beta(label) on that qubit
        beta = BetaDistribution(1, np.array([[0.2, 0.3, 0.5]]))
        from lbcs.pauli import X, Y, Z
        assert beta.rows[0, X - 1] == 0.2
        assert beta.rows[0, Y - 1] == 0.3
        assert beta.rows[0, Z - 1] == 0.5

    def test_rows_read_only(self):
        beta = uniform_beta(2)
        with pytest.raises(ValueError):
            beta.rows[0, 0] = 1.0

    def test_json_round_trip(self, tmp_path):
        beta = BetaDistribution(2, np.array([[0.2, 0.3, 0.5],
                                             [1.0, 0.0, 0.0]]))
        path = tmp_path / "beta.json"
        beta.save(path)
        again = BetaDistribution.load(path)
        assert again.n == 2
        assert np.array_equal(again.rows, beta.rows)


class TestSampling:
    def test_deterministic_basis(self):
        beta = BetaDistribution(2, np.array([[1.0, 0.0, 0.0],
                                             [0.0, 0.0, 1.0]]))
        rng = make_rng(0)
        assert sample_basis(beta, rng) == P("XZ")

    def test_label_frequencies(self):
        beta = BetaDistribution(1, np.array([[0.7, 0.2, 0.1]]))
        labels = sample_basis_labels(beta, 40_000, make_rng(5))
        freqs = np.bincount(labels[:, 0], minlength=4)[1:] / 40_000
        assert np.allclose(freqs, [0.7, 0.2, 0.1], atol=0.01)

    def test_measure_eigenstate(self):
        rec = measure_state(ZERO, P("Z"), make_rng(1))
        assert rec.outcomes == (1,)
        rec = measure_state(PLUS, P("X"), make_rng(1))
        assert rec.outcomes == (1,)

    def test_record_requires_full_weight(self):
        with pytest.raises(Exception):
            MeasurementRecord(P("XI"), (1, 1))

    def test_same_seed_same_report(self):
        h = parse_observable("1.0 XZ\n0.5 ZI\n")
        v = oracles.random_state(make_rng(9), 2)
        r1 = run_protocol(h, v, uniform_beta(2), 500, seed=42)
        r2 = run_protocol(h, v, uniform_beta(2), 500, seed=42)
        assert r1 == r2


def beta_with_zeros(rng, n):
    """Random beta rows with about a third of their entries exactly 0."""
    rows = rng.uniform(0.1, 1.0, size=(n, 3))
    rows[rng.random((n, 3)) < 0.3] = 0.0
    rows[rows.sum(axis=1) == 0.0, 1] = 1.0
    return BetaDistribution(n, rows / rows.sum(axis=1, keepdims=True))


class TestBasisLabelBlocks:
    """sample_basis_labels against the all-at-once draw it replaced."""

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    def test_labels_equal_all_at_once(self, rng, n):
        rows = (1 << 16) // n       # basis draws of one block
        for shots in (1, rows - 1, rows, rows + 1, 2 * rows + 3):
            beta = beta_with_zeros(rng, n)
            got_rng, want_rng = make_rng(shots), make_rng(shots)
            got = sample_basis_labels(beta, shots, got_rng)
            want = oracles.basis_labels_at_once(beta, shots, want_rng)
            assert got.dtype == np.uint8
            assert np.array_equal(got, want)
            # the stream is left where the single draw leaves it
            assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("n", [1, 5, 12, 20])
    def test_labels_independent_of_block(self, rng, monkeypatch, n):
        beta = beta_with_zeros(rng, n)
        want = oracles.basis_labels_at_once(beta, 50, make_rng(3))
        # one to seven basis draws per block
        monkeypatch.setattr(shadows, "_LABEL_BLOCK", 7)
        assert np.array_equal(sample_basis_labels(beta, 50, make_rng(3)),
                              want)

    @pytest.mark.parametrize("n,count", [(1, 3), (5, 40), (12, 300)])
    def test_chunk_estimates_equal_products(self, rng, monkeypatch, n,
                                            count):
        h = local_hamiltonian(rng, n, count) if n > 1 else \
            oracles.observable(1, {P("X"): 0.5, P("Y"): -1.0, P("Z"): 2.0})
        beta = oracles.random_beta(rng, n)
        labels = sample_basis_labels(beta, 2000, make_rng(n))
        outcomes = rng.integers(0, 1 << n, size=2000).astype(np.uint64)
        weights = rng.uniform(-3.0, 3.0, size=h.num_terms())
        want = oracles.chunk_estimates_by_products(h, weights, labels,
                                                   outcomes)
        assert np.array_equal(
            shadows._chunk_estimates(h, weights, labels, outcomes), want)
        monkeypatch.setattr(shadows, "_ESTIMATE_ENTRIES", 5)
        assert np.array_equal(
            shadows._chunk_estimates(h, weights, labels, outcomes), want)


class TestSingleShot:
    def test_uniform_matched(self):
        h = parse_observable("1.0 Z\n")
        rec = MeasurementRecord(P("Z"), (1,))
        assert single_shot_estimate(h, rec, uniform_beta(1)) == pytest.approx(3.0)

    def test_mismatched_basis_gives_identity_only(self):
        h = parse_observable("2.0 I\n1.0 Z\n")
        rec = MeasurementRecord(P("X"), (1,))
        assert single_shot_estimate(h, rec, uniform_beta(1)) == pytest.approx(2.0)

    def test_two_qubit_sign_product(self):
        h = parse_observable("1.0 ZZ\n")
        rec = MeasurementRecord(P("ZZ"), (1, -1))
        assert single_shot_estimate(h, rec, uniform_beta(2)) == pytest.approx(-9.0)


class TestRunProtocol:
    def test_deterministic_beta_zero_variance(self):
        h = parse_observable("1.0 Z\n")
        beta = BetaDistribution(1, np.array([[0.0, 0.0, 1.0]]))
        report = run_protocol(h, ZERO, beta, 200, seed=0)
        assert report.mean == pytest.approx(1.0)
        assert report.variance == pytest.approx(0.0)

    def test_mean_and_variance_match_enumeration(self, rng):
        for _ in range(5):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=4)
            v = oracles.random_state(rng, n)
            beta = oracles.random_beta(rng, n)
            e1, e2 = oracles.shadow_moments(h, v.amplitudes, beta.rows)
            var = e2 - e1 * e1
            report = run_protocol(h, v, beta, 60_000, seed=17)
            assert abs(report.mean - e1) < 5 * np.sqrt(max(var, 1e-12) / 60_000)
            assert report.variance == pytest.approx(var, rel=0.1, abs=0.05)

    def test_shots_validated(self):
        h = parse_observable("1.0 Z\n")
        with pytest.raises(ValueError):
            run_protocol(h, ZERO, uniform_beta(1), 0, seed=0)


def reference_report(h, v, beta, shots, seed):
    """run_protocol's report, one shot at a time through the per-shot
    reference path, on the same basis labels and outcome uniforms."""
    rng = make_rng(seed)
    labels = sample_basis_labels(beta, shots, rng)
    u = rng.random(shots)
    estimates = []
    for row, us in zip(labels, u):
        basis = PauliString.from_labels(row)
        idx = int(sample_outcomes(born_probabilities(v, basis), us))
        outcomes = tuple(1 - 2 * ((idx >> (h.n - 1 - i)) & 1)
                         for i in range(h.n))
        record = MeasurementRecord(basis, outcomes)
        estimates.append(single_shot_estimate(h, record, beta))
    estimates = np.array(estimates)
    var = float(estimates.var(ddof=1)) if shots > 1 else 0.0
    return float(estimates.mean()), var


class TestRunProtocolDifferential:
    """run_protocol against the per-shot reference on identical draws."""

    def check(self, h, v, beta, shots, seed):
        report = run_protocol(h, v, beta, shots, seed)
        mean, var = reference_report(h, v, beta, shots, seed)
        assert report.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
        assert report.variance == pytest.approx(var, rel=1e-12, abs=1e-12)

    def test_random_cases(self, rng):
        for case in range(12):
            n = int(rng.integers(1, 7))
            h = oracles.random_hamiltonian(rng, n, max_terms=8)
            v = oracles.random_state(rng, n)
            beta = (uniform_beta(n) if case % 3 == 0
                    else oracles.random_beta(rng, n))
            self.check(h, v, beta, int(rng.integers(1, 400)), case)

    def test_beta_with_exact_zeros(self, rng):
        # zeros on labels that no term needs are sampled around; a zero
        # on a needed label makes the variance diverge and is rejected
        def beta_of(rows):
            rows[rows.sum(axis=1) == 0.0, 2] = 1.0
            return BetaDistribution(rows.shape[0],
                                    rows / rows.sum(axis=1, keepdims=True))

        zeros = diverging = 0
        for case in range(6):
            n = int(rng.integers(2, 7))
            h = oracles.random_hamiltonian(rng, n, max_terms=8)
            v = oracles.random_state(rng, n)
            rows = rng.uniform(0.1, 1.0, size=(n, 3))
            zero = rng.random((n, 3)) < 0.3
            beta = beta_of(np.where(zero & ~h.needed, 0.0, rows))
            zeros += int(np.sum(beta.rows == 0.0))
            self.check(h, v, beta, 300, 100 + case)
            beta = beta_of(np.where(zero, 0.0, rows))
            if np.any((beta.rows == 0.0) & h.needed):
                diverging += 1
                with pytest.raises(DivergenceError):
                    run_protocol(h, v, beta, 300, 100 + case)
        assert zeros and diverging

    def test_identity_only_hamiltonian(self, rng):
        h = oracles.observable(3, {}, 1.25)
        v = oracles.random_state(rng, 3)
        self.check(h, v, oracles.random_beta(rng, 3), 50, 3)
        report = run_protocol(h, v, uniform_beta(3), 50, 3)
        assert (report.mean, report.variance) == (1.25, 0.0)

    def test_single_shot(self, rng):
        for seed in range(5):
            n = int(rng.integers(1, 7))
            h = oracles.random_hamiltonian(rng, n, max_terms=8)
            v = oracles.random_state(rng, n)
            self.check(h, v, oracles.random_beta(rng, n), 1, seed)


class TestQubitSequentialSampler:
    def test_indices_match_cdf_inversion(self, rng):
        for n in (1, 3, 5, 8):
            v = oracles.random_state(rng, n)
            labels = rng.integers(1, 4, size=(3000, n))
            u = rng.random(3000)
            got = sample_outcome_indices(v.amplitudes, labels, u)
            want = [int(sample_outcomes(
                born_probabilities(v, PauliString.from_labels(row)), us))
                for row, us in zip(labels, u)]
            assert got.tolist() == want

    def test_zero_amplitudes_never_drawn(self):
        v = StateVector.from_bits("0110")
        labels = np.full((500, 4), 3)
        u = make_rng(4).random(500)
        assert set(sample_outcome_indices(v.amplitudes, labels, u)) == {6}

    @pytest.mark.parametrize("shots", [1, 50, 403])
    def test_report_independent_of_chunk_size(self, rng, monkeypatch, shots):
        h = oracles.random_hamiltonian(rng, 5, max_terms=8)
        v = oracles.random_state(rng, 5)
        beta = oracles.random_beta(rng, 5)
        whole = run_protocol(h, v, beta, shots, seed=11)
        monkeypatch.setattr(shadows, "_SAMPLER_CHUNK", 7)
        monkeypatch.setattr(shadows, "_TRIE_AMPLITUDES", 2)
        monkeypatch.setattr(shadows, "_ESTIMATE_ENTRIES", 3)
        assert run_protocol(h, v, beta, shots, seed=11) == whole

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 13])
    def test_indices_independent_of_trie_cap(self, rng, monkeypatch, n):
        v = oracles.random_state(rng, n)
        labels = rng.integers(1, 4, size=(1500, n))
        u = rng.random(1500)
        whole = sample_outcome_indices(v.amplitudes, labels, u)
        # every level splits into batches of one or two nodes
        monkeypatch.setattr(shadows, "_TRIE_AMPLITUDES", 2)
        assert np.array_equal(
            sample_outcome_indices(v.amplitudes, labels, u), whole)


def local_hamiltonian(rng, n, count):
    """``count`` distinct random 1- to 4-local terms on n qubits."""
    terms = {}
    while len(terms) < count:
        labels = np.zeros(n, dtype=int)
        k = int(rng.integers(1, 5))
        labels[rng.choice(n, k, replace=False)] = rng.integers(1, 4, k)
        terms[PauliString.from_labels(labels.tolist())] = rng.uniform(-1, 1)
    return oracles.observable(n, terms)


@pytest.mark.parametrize("n,shots", [(12, 20_000), (14, 4096)])
def test_run_protocol_memory_bounded(rng, n, shots):
    # the working set grows neither with the terms (600) nor the qubits
    h = local_hamiltonian(rng, n, 600)
    v = oracles.random_state(rng, n)
    beta = oracles.random_beta(rng, n)
    assert peak_traced_mb(lambda: run_protocol(h, v, beta, shots, 1)) < 16


GOLDEN_H = """0.7 IIIII
-1.3 ZZIII
0.45 XIXII
0.8 IYYIZ
-0.25 ZIIZX
0.6 IIYXI
0.35 YXZYZ
-0.9 IIIIZ
"""


def golden_beta(row3):
    """The golden beta, with qubit 3's row given."""
    return BetaDistribution(5, np.array([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6],
                                         row3, [0.1, 0.8, 0.1],
                                         [0.25, 0.25, 0.5]]))


def golden_state():
    rng = make_rng(2718)
    amps = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    return StateVector(5, amps / np.linalg.norm(amps))


# (protocol, seed, shots, mean, variance), recorded from the per-basis
# sampler that the qubit-by-qubit one replaced; the lbcs rows from the
# all-at-once basis draws that the blocked ones replaced
GOLDEN_REPORTS = [
    ("shadows", 0, 1, 4.75, 0.0),
    ("lbcs", 0, 1, 4.0, 0.0),
    ("ldf", 0, 1, -0.8499999999999999, 0.0),
    ("l1", 0, 1, -3.95, 0.0),
    ("shadows", 7, 1001, 1.4156843156843155, 51.71162875624376),
    ("lbcs", 7, 1001, 2.360335960335961, 407.57041621952754),
    ("ldf", 7, 1001, 1.3994077351220209, 12.573790312136843),
    ("l1", 7, 1001, 1.5500999000999007, 20.920729990009992),
    ("shadows", 2026, 6000, 1.6219750000000002, 79.28368479684114),
    ("lbcs", 2026, 6000, 1.1991333333333345, 285.9669146811702),
    ("ldf", 2026, 6000, 1.4515095238095244, 12.390006463911789),
    ("l1", 2026, 6000, 1.5261500000000006, 20.94346675529255),
]


@pytest.mark.parametrize("protocol,seed,shots,mean,variance", GOLDEN_REPORTS)
def test_golden_reports(protocol, seed, shots, mean, variance):
    h = parse_observable(GOLDEN_H)
    v = golden_state()
    beta = golden_beta([0.5, 0.05, 0.45])
    report = {
        "shadows": lambda: run_protocol(h, v, uniform_beta(5), shots, seed),
        "lbcs": lambda: run_protocol(h, v, beta, shots, seed),
        "ldf": lambda: grouping_protocol(h, build_grouping(h), v, shots, seed),
        "l1": lambda: l1_protocol(h, v, shots, seed),
    }[protocol]()
    assert (report.shots, report.seed) == (shots, seed)
    assert report.mean == pytest.approx(mean, rel=1e-12, abs=1e-12)
    assert report.variance == pytest.approx(variance, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("seed,shots", [(0, 1), (7, 1001), (2026, 6000)])
def test_golden_beta_with_vanishing_needed_label_diverges(seed, shots):
    # beta(Y) = 0 on qubit 3, where IYYIZ and IIYXI carry Y: those terms
    # never agree with a drawn basis, so the mean would silently drop them
    beta = golden_beta([0.5, 0.0, 0.5])
    with pytest.raises(DivergenceError,
                       match=r"beta\(Y\) vanishes on qubit 3"):
        run_protocol(parse_observable(GOLDEN_H), golden_state(), beta,
                     shots, seed)


class TestExactVariance:
    def test_z_on_zero_uniform(self):
        h = parse_observable("1.0 Z\n")
        assert exact_variance(h, ZERO, uniform_beta(1)) == pytest.approx(2.0)

    def test_z_on_plus_uniform(self):
        h = parse_observable("1.0 Z\n")
        assert exact_variance(h, PLUS, uniform_beta(1)) == pytest.approx(3.0)

    def test_z_on_zero_concentrated(self):
        h = parse_observable("1.0 Z\n")
        beta = BetaDistribution(1, np.array([[0.0, 0.0, 1.0]]))
        assert exact_variance(h, ZERO, beta) == pytest.approx(0.0)

    def test_identity_coefficient_ignored(self, rng):
        h = parse_observable("1.0 XZ\n0.5 ZI\n")
        shifted = parse_observable("3.0 II\n1.0 XZ\n0.5 ZI\n")
        v = oracles.random_state(rng, 2)
        beta = oracles.random_beta(rng, 2)
        assert exact_variance(h, v, beta) == \
            pytest.approx(exact_variance(shifted, v, beta))

    def test_scaling_is_quadratic(self, rng):
        h = oracles.random_hamiltonian(rng, 2, max_terms=4)
        v = oracles.random_state(rng, 2)
        beta = oracles.random_beta(rng, 2)
        doubled = oracles.observable(
            2, {q: 2.0 * a for q, a in oracles.term_dict(h).items()},
            2.0 * h.identity_coefficient)
        assert exact_variance(doubled, v, beta) == \
            pytest.approx(4.0 * exact_variance(h, v, beta))

    def test_divergence_detected(self):
        h = parse_observable("1.0 Y\n")
        beta = BetaDistribution(1, np.array([[0.5, 0.0, 0.5]]))
        with pytest.raises(DivergenceError, match="qubit 1"):
            exact_variance(h, ZERO, beta)
        exact_variance(h, ZERO, uniform_beta(1))  # no raise

    def test_single_reference_matches_statevector(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 5))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            ref = SingleReference.from_bits(bits)
            got = exact_variance(h, ref, beta)
            want = exact_variance(h, oracles.reference_statevector(ref), beta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_multi_reference_matches_statevector(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            beta = oracles.random_beta(rng, n)
            k = int(rng.integers(1, min(3, 1 << n) + 1))
            idxs = rng.choice(1 << n, size=k, replace=False)
            bits = tuple(format(int(b), f"0{n}b") for b in idxs)
            amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            amps = tuple(amps / np.linalg.norm(amps))
            ref = MultiReference(bits, amps)
            got = exact_variance(h, ref, beta)
            want = exact_variance(h, oracles.reference_statevector(ref), beta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            v = oracles.random_state(rng, n)
            beta = oracles.random_beta(rng, n)
            want = oracles.shadow_variance(h, v.amplitudes, beta.rows)
            assert exact_variance(h, v, beta) == pytest.approx(want, abs=1e-10)
