import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcs import (ObservableSum, PauliString, parse_observable,
                  serialize_observable, l1_norm, gamma_distribution)
from lbcs.hamiltonian import HamiltonianFormatError
from lbcs.shadows import _TermData


def P(text):
    return PauliString.from_text(text)


class TestParsing:
    def test_basic(self):
        h = parse_observable("0.5 XX\n-0.25 ZI\n")
        assert h.n == 2
        assert h.terms == {P("XX"): 0.5, P("ZI"): -0.25}
        assert h.identity_coefficient == 0.0

    def test_comments_and_blanks(self):
        h = parse_observable("# header\n\n1.0 Z  # inline\n")
        assert h.terms == {P("Z"): 1.0}

    def test_identity_separated(self):
        h = parse_observable("2.0 II\n1.0 XX\n")
        assert h.identity_coefficient == 2.0
        assert P("II") not in h.terms

    def test_duplicates_summed(self):
        h = parse_observable("1.0 X\n2.5 X\n")
        assert h.terms == {P("X"): 3.5}

    def test_cancellation_dropped(self):
        h = parse_observable("1.0 X\n-1.0 X\n0.5 Z\n")
        assert h.terms == {P("Z"): 0.5}

    def test_scientific_notation(self):
        h = parse_observable("-1.25e-3 Y\n")
        assert h.terms[P("Y")] == pytest.approx(-1.25e-3)

    @pytest.mark.parametrize("text,lineno", [
        ("1.0 X\nbogus\n", 2),
        ("oops X\n", 1),
        ("1.0 XQ\n", 1),
        ("1.0 X Y\n", 1),
        ("inf X\n", 1),
        ("1.0 X\n1.0 XX\n", 2),
    ])
    def test_errors_carry_line_numbers(self, text, lineno):
        with pytest.raises(HamiltonianFormatError, match=f"line {lineno}"):
            parse_observable(text)

    def test_empty_input_rejected(self):
        with pytest.raises(HamiltonianFormatError, match="no terms"):
            parse_observable("# nothing\n")

    def test_qubit_limit(self):
        # the term tables pack each string's masks into one uint64
        assert parse_observable("1.0 " + "Z" * 64 + "\n").n == 64
        with pytest.raises(HamiltonianFormatError, match="65 qubits"):
            parse_observable("1.0 " + "Z" * 65 + "\n")
        with pytest.raises(HamiltonianFormatError, match="70 qubits"):
            parse_observable("1.0 " + "Z" * 70 + "\n")


class TestObservableSum:
    def test_identity_term_rejected_in_terms(self):
        with pytest.raises(HamiltonianFormatError):
            ObservableSum(2, {P("II"): 1.0})

    def test_size_mismatch_rejected(self):
        with pytest.raises(HamiltonianFormatError):
            ObservableSum(2, {P("X"): 1.0})

    def test_sorted_terms_descending_magnitude(self):
        h = parse_observable("0.5 XX\n-2.0 ZI\n1.0 YY\n")
        assert [q.to_text() for q, _ in h.sorted_terms()] == ["ZI", "YY", "XX"]

    def test_sorted_terms_tie_break_by_pauli_order(self):
        h = parse_observable("1.0 ZI\n1.0 IX\n")
        assert [q.to_text() for q, _ in h.sorted_terms()] == ["IX", "ZI"]

    def test_sorted_terms_match_tuple_sort(self):
        rng = np.random.Generator(np.random.Philox(key=44))
        for _ in range(40):
            n = int(rng.integers(1, 10))
            terms = {}
            for _ in range(int(rng.integers(1, 30))):
                labels = rng.integers(0, 4, size=n)
                if labels.any():
                    # few distinct magnitudes, so the tie-break decides
                    terms[PauliString.from_labels(labels.tolist())] = float(
                        rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0, 0.3]))
            h = ObservableSum(n, terms, 0.5)
            want = sorted(h.terms.items(), key=lambda kv: (-abs(kv[1]), kv[0]))
            assert h.sorted_terms() == want
            assert serialize_observable(h) == "".join(
                [f"{0.5!r} {'I' * n}\n"]
                + [f"{a!r} {q.to_text()}\n" for q, a in want])
            assert _TermData(h).labels.tolist() == [list(q.labels())
                                                    for q, _ in want]

    def test_scaled(self):
        h = parse_observable("1.0 II\n2.0 XI\n")
        g = h.scaled(-0.5)
        assert g.identity_coefficient == -0.5
        assert g.terms == {P("XI"): -1.0}


class TestSerialization:
    def test_round_trip(self):
        h = parse_observable("0.5 XX\n2.0 II\n-0.25 ZI\n")
        again = parse_observable(serialize_observable(h))
        assert again == h

    def test_canonical_order(self):
        h = parse_observable("0.5 XX\n2.0 II\n-1.0 ZI\n")
        lines = serialize_observable(h).splitlines()
        assert lines[0].endswith("II")
        assert lines[1].endswith("ZI")
        assert lines[2].endswith("XX")

    @given(st.lists(
        st.tuples(st.sampled_from(["XX", "XY", "ZI", "IZ", "YY", "II"]),
                  st.floats(-5, 5, allow_subnormal=False).filter(lambda x: x != 0)),
        min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_round_trip_random(self, pairs):
        text = "\n".join(f"{c!r} {t}" for t, c in pairs)
        h = parse_observable(text)
        assert parse_observable(serialize_observable(h)) == h


class TestStats:
    def test_l1_norm_excludes_identity(self):
        h = parse_observable("5.0 II\n1.0 XX\n-2.0 ZI\n")
        assert l1_norm(h) == pytest.approx(3.0)

    def test_gamma_distribution(self):
        h = parse_observable("1.0 X\n-3.0 Z\n")
        g = gamma_distribution(h)
        assert g[P("X")] == pytest.approx(0.25)
        assert g[P("Z")] == pytest.approx(0.75)

    def test_gamma_needs_traceless_mass(self):
        h = parse_observable("5.0 II\n")
        with pytest.raises(HamiltonianFormatError):
            gamma_distribution(h)
