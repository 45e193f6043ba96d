import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcs import ObservableSum, PauliString, l1_norm, parse_observable
from lbcs.hamiltonian import HamiltonianFormatError

import oracles


def P(text):
    return PauliString.from_text(text)


class TestParsing:
    def test_basic(self):
        h = parse_observable("0.5 XX\n-0.25 ZI\n")
        assert h.n == 2
        assert oracles.term_dict(h) == {P("XX"): 0.5, P("ZI"): -0.25}
        assert h.identity_coefficient == 0.0

    def test_comments_and_blanks(self):
        h = parse_observable("# header\n\n1.0 Z  # inline\n")
        assert oracles.term_dict(h) == {P("Z"): 1.0}

    def test_identity_separated(self):
        h = parse_observable("2.0 II\n1.0 XX\n0.5 II\n")
        assert h.identity_coefficient == 2.5
        assert oracles.term_texts(h) == ["XX"]
        assert np.all(h.supp != 0)

    def test_duplicates_summed(self):
        h = parse_observable("1.0 X\n0.5 Z\n2.5 X\n")
        assert oracles.term_dict(h) == {P("X"): 3.5, P("Z"): 0.5}

    def test_cancellation_dropped(self):
        h = parse_observable("1.0 X\n-1.0 X\n0.5 Z\n")
        assert oracles.term_dict(h) == {P("Z"): 0.5}
        assert h.num_terms() == 1

    def test_scientific_notation(self):
        h = parse_observable("-1.25e-3 Y\n")
        assert oracles.term_dict(h)[P("Y")] == pytest.approx(-1.25e-3)

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
        with pytest.raises(HamiltonianFormatError, match="identity"):
            ObservableSum(2, [0, 1], [0, 0], [1.0, 1.0])

    def test_size_mismatch_rejected(self):
        with pytest.raises(HamiltonianFormatError, match="2 qubits"):
            ObservableSum(2, [4], [0], [1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficients_rejected(self, bad):
        with pytest.raises(HamiltonianFormatError, match="bad coefficient"):
            ObservableSum(2, [1, 2], [0, 0], [1.0, bad])
        with pytest.raises(HamiltonianFormatError, match="bad identity"):
            ObservableSum(2, [1], [0], [1.0], bad)
        with pytest.raises(HamiltonianFormatError, match="non-finite"):
            parse_observable(f"1.0 XI\n{bad} IX\n")

    def test_overflowing_sum_rejected(self):
        with pytest.raises(HamiltonianFormatError, match="inf for XI"):
            parse_observable("1e308 XI\n1e308 XI\n")

    def test_arrays_read_only(self):
        h = parse_observable("0.5 XX\n-2.0 ZI\n1.0 YY\n")
        for name in ("x", "z", "coeffs", "labels", "supp", "needed"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(h, name)[0] = 0

    def test_derived_arrays(self):
        h = parse_observable("0.5 XI\n-2.0 ZY\n")
        assert h.labels.tolist() == [[3, 2], [1, 0]]
        assert h.supp.tolist() == [3, 2]
        assert h.needed.tolist() == [[True, False, True],
                                     [False, True, False]]

    def test_sorted_terms_descending_magnitude(self):
        h = parse_observable("0.5 XX\n-2.0 ZI\n1.0 YY\n")
        assert oracles.term_texts(h) == ["ZI", "YY", "XX"]
        assert h.coeffs.tolist() == [-2.0, 1.0, 0.5]

    def test_sorted_terms_tie_break_by_pauli_order(self):
        h = parse_observable("1.0 ZI\n1.0 IX\n-1.0 IZ\n")
        assert oracles.term_texts(h) == ["IX", "IZ", "ZI"]

    def test_sorted_terms_match_tuple_sort(self):
        # the oracle sums the lines per text and sorts by (-|alpha|, text);
        # the characters sort as I < X < Y < Z
        rng = np.random.Generator(np.random.Philox(key=44))
        for _ in range(40):
            n = int(rng.integers(1, 10))
            lines, sums = [], {}
            for _ in range(int(rng.integers(1, 30))):
                text = "".join(rng.choice(list("IXYZ"), size=n))
                # few distinct magnitudes, so the tie-break decides
                a = float(rng.choice([-1.0, -0.5, 0.25, 0.5, 1.0, 0.3]))
                lines.append(f"{a!r} {text}")
                if text != "I" * n:
                    sums[text] = sums.get(text, 0.0) + a
            h = parse_observable("\n".join(lines))
            want = sorted(((t, a) for t, a in sums.items() if a != 0.0),
                          key=lambda ta: (-abs(ta[1]), ta[0]))
            assert list(zip(oracles.term_texts(h), h.coeffs.tolist())) == want
            assert h.labels.tolist() == [["IXYZ".index(c) for c in t]
                                         for t, _ in want]


class TestSerialization:
    """Parsing the text of a term table gives the same table back."""

    @staticmethod
    def same_table(g, h):
        assert (g.n, g.identity_coefficient) == (h.n, h.identity_coefficient)
        for name in ("x", "z", "coeffs"):
            assert np.array_equal(getattr(g, name), getattr(h, name))

    def test_round_trip(self):
        h = parse_observable("0.5 XX\n2.0 II\n-0.25 ZI\n")
        again = oracles.observable(h.n, oracles.term_dict(h),
                                   h.identity_coefficient)
        self.same_table(again, h)

    def test_canonical_order(self):
        h = parse_observable("0.5 XX\n2.0 II\n-1.0 ZI\n")
        assert oracles.term_texts(h) == ["ZI", "XX"]
        assert h.identity_coefficient == 2.0

    @given(st.lists(
        st.tuples(st.sampled_from(["XX", "XY", "ZI", "IZ", "YY", "II"]),
                  st.floats(-5, 5, allow_subnormal=False).filter(lambda x: x != 0)),
        min_size=1, max_size=6))
    @settings(max_examples=60)
    def test_round_trip_random(self, pairs):
        text = "\n".join(f"{c!r} {t}" for t, c in pairs)
        h = parse_observable(text)
        self.same_table(oracles.observable(h.n, oracles.term_dict(h),
                                           h.identity_coefficient), h)


class TestStats:
    def test_l1_norm_excludes_identity(self):
        h = parse_observable("5.0 II\n1.0 XX\n-2.0 ZI\n")
        assert l1_norm(h) == pytest.approx(3.0)

    def test_gamma_needs_traceless_mass(self):
        # l1 sampling draws terms from gamma = |alpha| / l1 norm
        from lbcs import StateVector, l1_protocol
        h = parse_observable("5.0 II\n")
        with pytest.raises(HamiltonianFormatError, match="no traceless"):
            l1_protocol(h, StateVector.from_bits("00"), 10, 1)
