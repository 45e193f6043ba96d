import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lbcs import PauliString
from lbcs.pauli import I, X, Y, Z, PauliError, label_texts
from lbcs.shadows import BetaDistribution, PairTable, uniform_beta

import oracles
from oracles import f_factor


def P(text):
    return PauliString.from_text(text)


def qubitwise_commute(a, b):
    """Whether the term table of H = P(a) + 2 P(b) lists the two strings
    as a compatible pair.  The identity is no term and equal strings are
    one; both commute qubit-wise."""
    if P(a).is_identity() or P(b).is_identity() or a == b:
        return True
    h = oracles.observable(len(a), {P(a): 1.0, P(b): 2.0})
    return h.pairs[0].tolist() == [0, 0, 1]


def pair_table(*strings):
    """H = sum of the strings that are not the identity, its compatible
    pairs and their PairTable."""
    h = oracles.observable(
        strings[0].n, {q: 1.0 for q in strings if not q.is_identity()})
    a, j = h.pairs
    return h, a, j, PairTable(h, a, j)


labels_strategy = st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=3)


def text_from(labels):
    return "".join(labels)


class TestConstruction:
    def test_round_trip_text(self):
        for t in ("I", "X", "XYZI", "ZZZZZZ"):
            assert P(t).to_text() == t

    def test_from_labels_matches_from_text(self):
        assert PauliString.from_labels([X, I, Z]) == P("XIZ")

    def test_lowercase_accepted(self):
        assert P("xyz") == P("XYZ")

    def test_invalid_character(self):
        with pytest.raises(PauliError, match="'Q'"):
            P("XQZ")

    def test_empty_rejected(self):
        with pytest.raises(PauliError):
            P("")

    def test_mask_out_of_range(self):
        with pytest.raises(PauliError):
            PauliString(1, 2, 0)

    def test_label_indexing_is_left_to_right(self):
        q = P("XIZ")
        assert [q.label(i) for i in range(3)] == [X, I, Z]

    @given(st.lists(labels_strategy, min_size=0, max_size=4))
    def test_label_texts_match_strings(self, rows):
        n = len(rows[0]) if rows else 2
        rows = [(r * n)[:n] for r in rows]
        codes = np.array([P(text_from(r)).labels() for r in rows],
                         dtype=np.uint8).reshape(-1, n)
        assert label_texts(codes) == [text_from(r) for r in rows]


class TestStructure:
    def test_support_and_weight(self):
        q = P("XIYZ")
        assert q.support_mask == 0b1011
        assert q.support_mask.bit_count() == 3

    def test_identity(self):
        assert P("III").is_identity()
        assert not P("IXI").is_identity()

    def test_full_weight(self):
        assert P("XYZ").is_full_weight()
        assert not P("XIZ").is_full_weight()

    @given(labels_strategy)
    def test_weight_counts_non_identity(self, labels):
        q = P(text_from(labels))
        assert q.support_mask.bit_count() == sum(1 for c in labels
                                                 if c != "I")


class TestProduct:
    """P Q = i^k S: the single-qubit table through the matvec
    ``apply_pauli_raw``, and PairTable's product of a compatible pair,
    the string of the XOR-ed masks with phase 1."""

    @pytest.mark.parametrize("a,b,k,out", [
        ("X", "Y", 1, "Z"),   # XY = iZ
        ("Y", "X", 3, "Z"),   # YX = -iZ
        ("Y", "Z", 1, "X"),
        ("Z", "X", 1, "Y"),
        ("Z", "Z", 0, "I"),
        ("X", "I", 0, "X"),
    ])
    def test_single_qubit_table(self, a, b, k, out):
        v = np.array([0.6, 0.8j])
        lhs = oracles.apply_pauli(P(a), oracles.apply_pauli(P(b), v))
        assert np.allclose(lhs, 1j ** k * oracles.apply_pauli(P(out), v),
                           atol=1e-15)

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=150)
    def test_matches_dense_matrices(self, la, lb):
        n = min(len(la), len(lb))
        a, b = P(text_from(la[:n])), P(text_from(lb[:n]))
        if a.is_identity() and b.is_identity():
            return
        h, s, t, table = pair_table(a, b)
        texts = oracles.term_texts(h)
        for k in range(s.size):
            lhs = (oracles.dense_from_text(texts[s[k]])
                   @ oracles.dense_from_text(texts[t[k]]))
            r = PauliString(n, int(table.x[k]), int(table.z[k]))
            rhs = oracles.dense_from_text(r.to_text())
            assert np.allclose(lhs, rhs, atol=1e-12)

    @given(labels_strategy)
    def test_self_product_is_identity(self, labels):
        q = P(text_from(labels))
        if q.is_identity():
            return
        _, _, _, table = pair_table(q)
        assert (table.x.tolist(), table.z.tolist()) == ([0], [0])


class TestQubitwiseCommute:
    """Qubit-wise commutation is the relation ``ObservableSum.pairs``."""

    @pytest.mark.parametrize("a,b,expected", [
        ("XX", "XI", True),
        ("XX", "YY", False),
        ("XIZ", "IYZ", True),
        ("XY", "XZ", False),
        ("III", "XYZ", True),
    ])
    def test_examples(self, a, b, expected):
        assert qubitwise_commute(a, b) is expected

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=150)
    def test_matches_character_oracle(self, la, lb):
        n = min(len(la), len(lb))
        a, b = text_from(la[:n]), text_from(lb[:n])
        assert qubitwise_commute(a, b) == \
            oracles.strings_qubitwise_commute(a, b)

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=100)
    def test_implies_matrix_commutation(self, la, lb):
        n = min(len(la), len(lb))
        a, b = text_from(la[:n]), text_from(lb[:n])
        if qubitwise_commute(a, b):
            ma = oracles.dense_from_text(a)
            mb = oracles.dense_from_text(b)
            assert np.allclose(ma @ mb, mb @ ma, atol=1e-12)


class TestFFactor:
    def test_uniform_is_three_per_matched_qubit(self):
        beta = uniform_beta(3)
        assert f_factor(P("XYZ"), P("XIZ"), beta) == pytest.approx(9.0)
        assert f_factor(P("XYZ"), P("III"), beta) == 1.0

    def test_zero_on_label_clash(self):
        beta = uniform_beta(2)
        assert f_factor(P("XY"), P("XZ"), beta) == 0.0

    def test_vanishing_entry_gives_zero(self):
        beta = BetaDistribution(1, np.array([[1.0, 0.0, 0.0]]))
        assert f_factor(P("X"), P("X"), beta) == 1.0
        assert f_factor(P("Y"), P("Y"), beta) == 0.0

    @given(labels_strategy, labels_strategy)
    @settings(max_examples=100)
    def test_matches_character_oracle(self, la, lb):
        n = min(len(la), len(lb))
        a, b = text_from(la[:n]), text_from(lb[:n])
        rng = np.random.Generator(np.random.Philox(key=7))
        rows = rng.uniform(0.1, 1.0, size=(n, 3))
        rows /= rows.sum(axis=1, keepdims=True)
        beta = BetaDistribution(n, rows)
        got = f_factor(P(a), P(b), beta)
        want = oracles._f_value(a, b, rows)
        assert got == pytest.approx(want, rel=1e-12)
