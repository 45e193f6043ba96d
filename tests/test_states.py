import json

import numpy as np
import pytest

from lbcs import (PauliString, StateVector, SingleReference, MultiReference,
                  lanczos_ground, parse_observable, load_reference)
from lbcs.states import (StateError, ConvergenceError, SizeLimitError,
                         apply_observable_raw, born_probabilities,
                         observable_expectation, rotate_to_basis)

import oracles


def P(text):
    return PauliString.from_text(text)


def trace(state, q):
    """tr(rho Q) from the state's trace oracle."""
    return state.pauli_traces(*oracles.masks([q]))[0]


def pair_trace(state, q, r):
    """tr(rho Q R) of a qubit-wise agreeing pair: the trace of the string
    with the XOR-ed masks (phase 1)."""
    return trace(state, PauliString(q.n, q.x_mask ^ r.x_mask,
                                    q.z_mask ^ r.z_mask))


def pair_expectation(v, q, r):
    """Re <v| Q R |v> for any pair, by two matvec applications."""
    qr_v = oracles.apply_pauli(q, oracles.apply_pauli(r, v.amplitudes))
    return np.vdot(v.amplitudes, qr_v).real


def agree(q, r):
    return all(a == b or 0 in (a, b) for a, b in zip(q.labels(), r.labels()))


PLUS = StateVector(1, np.array([1, 1]) / np.sqrt(2))
BELL = StateVector(2, np.array([1, 0, 0, 1]) / np.sqrt(2))


class TestStateVector:
    def test_from_bits_big_endian(self):
        v = StateVector.from_bits("01")
        assert v.amplitudes[0b01] == 1.0

    def test_normalization_enforced(self):
        with pytest.raises(StateError, match="not normalized"):
            StateVector(1, np.array([1.0, 1.0]))

    def test_shape_enforced(self):
        with pytest.raises(StateError):
            StateVector(2, np.array([1.0, 0.0]))


class TestApplyPauli:
    def test_x_flips(self):
        amps = oracles.apply_pauli(P("X"), StateVector.from_bits("0").amplitudes)
        assert np.allclose(amps, [0, 1])

    def test_z_signs(self):
        amps = oracles.apply_pauli(P("Z"), StateVector.from_bits("1").amplitudes)
        assert np.allclose(amps, [0, -1])

    def test_y_phase(self):
        amps = oracles.apply_pauli(P("Y"), StateVector.from_bits("0").amplitudes)
        assert np.allclose(amps, [0, 1j])

    def test_leftmost_qubit_is_most_significant(self):
        amps = oracles.apply_pauli(P("XI"), StateVector.from_bits("00").amplitudes)
        assert amps[0b10] == 1.0

    def test_matches_dense_oracle(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            v = oracles.random_state(rng, n)
            labels = rng.integers(0, 4, size=n)
            q = PauliString.from_labels([int(c) for c in labels])
            got = oracles.apply_pauli(q, v.amplitudes)
            want = oracles.dense_from_text(q.to_text()) @ v.amplitudes
            assert np.allclose(got, want, atol=1e-12)

    def test_apply_observable_matches_dense(self, rng):
        h = parse_observable("0.5 XZY\n-1.0 IZI\n2.0 III\n0.25 YYX\n")
        v = oracles.random_state(rng, 3)
        got = apply_observable_raw(h, v.amplitudes)
        want = oracles.dense_observable(h) @ v.amplitudes
        assert np.allclose(got, want, atol=1e-12)


class TestExpectation:
    def test_plus_state(self):
        assert trace(PLUS, P("X")) == pytest.approx(1.0)
        assert trace(PLUS, P("Z")) == pytest.approx(0.0)

    def test_pair_expectation_bell(self):
        # tr(rho XX ZZ) = tr(rho (-YY)) = 1 on the Bell state
        assert pair_expectation(BELL, P("XX"), P("ZZ")) == pytest.approx(1.0)

    def test_pair_expectation_matches_dense(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            v = oracles.random_state(rng, n)
            qa = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            qb = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            got = pair_expectation(v, qa, qb)
            mat = (oracles.dense_from_text(qa.to_text())
                   @ oracles.dense_from_text(qb.to_text()))
            want = np.real(np.vdot(v.amplitudes, mat @ v.amplitudes))
            assert got == pytest.approx(want, abs=1e-12)

    def test_observable_expectation_includes_identity(self):
        h = parse_observable("3.0 I\n1.0 Z\n")
        assert observable_expectation(h, StateVector.from_bits("0")) == \
            pytest.approx(4.0)


class TestReferences:
    def test_single_from_bits(self):
        assert SingleReference.from_bits("01").signs == (1, -1)

    def test_signs_validated(self):
        with pytest.raises(StateError):
            SingleReference((1, 0))

    def test_reference_expectation_examples(self):
        ref = SingleReference((1, -1))
        assert pair_trace(ref, P("ZI"), P("II")) == 1.0
        assert pair_trace(ref, P("IZ"), P("II")) == -1.0
        assert pair_trace(ref, P("XX"), P("XX")) == 1.0
        assert pair_trace(ref, P("XI"), P("II")) == 0.0
        assert pair_trace(ref, P("ZZ"), P("ZI")) == -1.0

    def test_reference_expectation_matches_density_oracle(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 4))
            signs = oracles.random_signs(rng, n)
            ref = SingleReference(signs)
            qa = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            qb = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            # the product has phase 1 only on qubit-wise agreeing pairs
            if not agree(qa, qb):
                continue
            rho = oracles.product_state_density(signs)
            mat = (oracles.dense_from_text(qa.to_text())
                   @ oracles.dense_from_text(qb.to_text()))
            want = np.real(np.trace(rho @ mat))
            assert pair_trace(ref, qa, qb) == pytest.approx(want, abs=1e-12)

    def test_multireference_validation(self):
        with pytest.raises(StateError, match="distinct"):
            MultiReference(("0", "0"), (0.6, 0.8))
        with pytest.raises(StateError, match="normalized"):
            MultiReference(("0", "1"), (1.0, 1.0))

    def test_multireference_bell_expectations(self):
        ref = MultiReference(("00", "11"), (1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert trace(ref, P("XX")) == pytest.approx(1.0)
        assert trace(ref, P("ZI")) == pytest.approx(0.0)
        assert trace(ref, P("ZZ")) == pytest.approx(1.0)

    def test_multireference_matches_density_oracle(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, min(3, 1 << n) + 1))
            idxs = rng.choice(1 << n, size=k, replace=False)
            bits = tuple(format(int(b), f"0{n}b") for b in idxs)
            amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            amps = tuple(amps / np.linalg.norm(amps))
            ref = MultiReference(bits, amps)
            qa = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            qb = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            if not agree(qa, qb):
                continue
            v = oracles.reference_statevector(ref).amplitudes
            mat = (oracles.dense_from_text(qa.to_text())
                   @ oracles.dense_from_text(qb.to_text()))
            want = np.vdot(v, mat @ v)
            got = pair_trace(ref, qa, qb)
            assert got == pytest.approx(want, abs=1e-12)

    def test_k1_multireference_matches_single(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 5))
            bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
            single = SingleReference.from_bits(bits)
            multi = MultiReference((bits,), (1.0,))
            qa = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            qb = PauliString.from_labels([int(c) for c in rng.integers(0, 4, n)])
            if not agree(qa, qb):
                continue
            got = pair_trace(multi, qa, qb)
            want = pair_trace(single, qa, qb)
            assert abs(got - want) < 1e-14

    def test_load_reference(self, tmp_path):
        p = tmp_path / "ref.json"
        p.write_text(json.dumps({"type": "single", "bits": "01"}))
        assert load_reference(p) == SingleReference((1, -1))
        p.write_text(json.dumps({"type": "multi", "components": [
            {"bits": "00", "amplitude": [0.6, 0.0]},
            {"bits": "11", "amplitude": [0.0, 0.8]},
        ]}))
        ref = load_reference(p)
        assert ref.bitstrings == ("00", "11")
        assert ref.amplitudes == (0.6, 0.8j)


class TestGroundState:
    def test_single_qubit_z(self):
        e, v = lanczos_ground(parse_observable("1.0 Z\n"))
        assert e == pytest.approx(-1.0)
        assert abs(v.amplitudes[1]) == pytest.approx(1.0)

    def test_x_plus_z(self):
        e, _ = lanczos_ground(parse_observable("1.0 X\n1.0 Z\n"))
        assert e == pytest.approx(-np.sqrt(2.0))

    def test_matches_dense_eigensolver(self, rng):
        for n in (2, 4, 6):
            h = oracles.random_hamiltonian(rng, n, max_terms=6)
            e, v = lanczos_ground(h, seed=3)
            dense = oracles.dense_observable(h)
            want = np.linalg.eigvalsh(dense)[0]
            assert e == pytest.approx(want, abs=1e-8)
            residual = np.linalg.norm(dense @ v.amplitudes - e * v.amplitudes)
            assert residual < 1e-7

    def test_seed_reproducible(self):
        h = parse_observable("1.0 XXIIII\n0.5 ZZZZII\n-0.7 IIYYII\n0.3 IIIIXZ\n")
        e1, v1 = lanczos_ground(h, seed=11)
        e2, v2 = lanczos_ground(h, seed=11)
        assert e1 == e2
        assert np.array_equal(v1.amplitudes, v2.amplitudes)

    def test_qubit_limit(self):
        h = parse_observable("1.0 " + "Z" * 21 + "\n")
        with pytest.raises(SizeLimitError, match="21-qubit statevector is "
                                                 "above the limit of 20"):
            lanczos_ground(h)


class TestBasisRotation:
    def test_born_probabilities_plus_in_x(self):
        probs = born_probabilities(PLUS, P("X"))
        assert np.allclose(probs, [1.0, 0.0])

    def test_born_probabilities_match_projector_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            v = oracles.random_state(rng, n)
            basis = "".join(rng.choice(list("XYZ"), size=n))
            probs = born_probabilities(v, P(basis))
            for idx in range(1 << n):
                signs = [1 - 2 * ((idx >> (n - 1 - i)) & 1) for i in range(n)]
                want = oracles.outcome_probability(v.amplitudes, basis, signs)
                assert probs[idx] == pytest.approx(want, abs=1e-12)

    def test_rotation_is_unitary(self, rng):
        v = oracles.random_state(rng, 3)
        out = rotate_to_basis(v.amplitudes, P("XYZ"))
        assert np.linalg.norm(out) == pytest.approx(1.0)
