import bisect

import numpy as np
import pytest

from lbcs import (PauliString, StateVector, parse_observable, build_term_graph,
                  ldf_coloring, representative_basis, kappa_weights,
                  build_grouping, GroupingScheme, l1_protocol,
                  l1_exact_variance, grouping_protocol, grouping_exact_variance,
                  grouping_exact_variance_both, run_protocol, uniform_beta)
from lbcs import baselines
from lbcs.baselines import GroupingError, SizeLimitError
from lbcs.states import born_probabilities
from lbcs.cli import main

import oracles
from conftest import peak_traced_mb


def P(text):
    return PauliString.from_text(text)


ZERO = StateVector.from_bits("0")


class TestTermGraph:
    def test_triangle(self):
        h = parse_observable("1.0 X\n1.0 Y\n1.0 Z\n")
        g = build_term_graph(h)
        assert g.edge_count() == 3
        assert g.max_degree() == 2

    def test_edgeless_when_commuting(self):
        h = parse_observable("1.0 XI\n1.0 IZ\n1.0 XZ\n")
        g = build_term_graph(h)
        assert g.edge_count() == 0

    def test_mixed(self):
        h = parse_observable("1.0 XX\n1.0 XI\n1.0 ZZ\n")
        g = build_term_graph(h)
        # XX-ZZ and XI-ZZ clash; XX-XI agree
        assert g.edge_count() == 2


class TestColoring:
    def test_triangle_needs_three_colors(self):
        h = parse_observable("1.0 X\n1.0 Y\n1.0 Z\n")
        colls = ldf_coloring(build_term_graph(h))
        assert len(colls) == 3

    def test_commuting_set_single_group(self):
        h = parse_observable("1.0 XI\n1.0 IZ\n1.0 XZ\n")
        colls = ldf_coloring(build_term_graph(h))
        assert len(colls) == 1
        assert len(colls[0]) == 3

    def test_coloring_proper_and_bounded(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 5))
            h = oracles.random_hamiltonian(rng, n, max_terms=8)
            graph = build_term_graph(h)
            colls = ldf_coloring(graph)
            assert oracles.coloring_is_proper(h, colls)
            assert len(colls) <= 1 + graph.max_degree()
            assert sorted(np.concatenate(colls).tolist()) == \
                list(range(h.num_terms()))

    def test_deterministic(self):
        h = parse_observable("1.0 XX\n0.5 YY\n0.25 ZI\n0.125 IZ\n")
        a = ldf_coloring(build_term_graph(h))
        b = ldf_coloring(build_term_graph(h))
        assert [c.tolist() for c in a] == [c.tolist() for c in b]


class TestRepresentative:
    H = parse_observable("1.0 XI\n0.5 IZ\n0.25 YI\n")   # XI, IZ, YI

    def test_free_qubits_get_z(self):
        assert representative_basis(self.H, [0, 1]) == P("XZ")
        assert representative_basis(self.H, [1]) == P("ZZ")

    def test_all_free(self):
        assert representative_basis(self.H, []) == P("ZZ")

    def test_conflict_raises(self):
        with pytest.raises(GroupingError, match="qubit 1"):
            representative_basis(self.H, [0, 2])


class TestKappa:
    def test_l1_mass_ratio(self):
        h = parse_observable("3.0 X\n1.0 Y\n")
        kappa = kappa_weights(h, [np.array([0]), np.array([1])])
        assert np.allclose(kappa, [0.75, 0.25])

    def test_partition_enforced(self):
        h = parse_observable("1.0 X\n1.0 Y\n")
        with pytest.raises(GroupingError, match="partition"):
            kappa_weights(h, [np.array([0])])


class TestGroupingScheme:
    def test_build_grouping_round_trip(self, tmp_path):
        h = parse_observable("1.0 XX\n0.5 ZI\n-0.25 ZZ\n")
        scheme = build_grouping(h)
        path = tmp_path / "scheme.json"
        scheme.save(path)
        again = GroupingScheme.load(path, h)
        assert [c.tolist() for c in again.collections] == \
            [c.tolist() for c in scheme.collections]
        assert again.bases == scheme.bases
        assert np.allclose(again.kappa, scheme.kappa)

    def test_lowercase_strings_resolve(self):
        h = parse_observable("1.0 XX\n0.5 ZI\n-0.25 ZZ\n")
        scheme = GroupingScheme.from_dict(
            {"collections": [["xx"], ["zi", "Zz"]], "bases": ["xx", "zZ"],
             "kappa": [0.5, 0.5]}, h)
        assert scheme.to_dict()["collections"] == [["XX"], ["ZI", "ZZ"]]
        assert scheme.to_dict()["bases"] == ["XX", "ZZ"]

    def test_misaligned_basis_rejected(self):
        h = parse_observable("1.0 X\n")
        with pytest.raises(GroupingError, match="does not agree"):
            GroupingScheme(h, (np.array([0]),), (P("Z"),), np.array([1.0]))

    def test_kappa_must_be_probability(self):
        h = parse_observable("1.0 Z\n")
        with pytest.raises(GroupingError):
            GroupingScheme(h, (np.array([0]),), (P("Z"),), np.array([0.5]))

    def test_scheme_of_another_hamiltonian_rejected(self):
        h = parse_observable("1.0 XX\n0.5 ZI\n")
        scheme = build_grouping(parse_observable("1.0 XX\n0.5 ZI\n"))
        with pytest.raises(GroupingError, match="another Hamiltonian"):
            grouping_protocol(h, scheme, StateVector.from_bits("00"), 10, 1)


def scheme_of(h, collections, bases):
    """The scheme drawing each of the collections with equal weight."""
    return GroupingScheme(h, tuple(np.array(c, dtype=np.int64)
                                   for c in collections),
                          tuple(map(P, bases)),
                          np.full(len(bases), 1.0 / len(bases)))


def random_basis(rng, members, n):
    """A basis text for the member texts: on each qubit the first
    non-identity member label, else a random one; sometimes one qubit
    redrawn from IXYZ, sometimes one qubit too many."""
    chars = [next((m[i] for m in members if m[i] != "I"), None)
             or str(rng.choice(list("XYZ"))) for i in range(n)]
    if rng.random() < 0.3:
        chars[int(rng.integers(n))] = str(rng.choice(list("IXYZ")))
    if rng.random() < 0.05:
        chars.append(str(rng.choice(list("XYZ"))))
    return "".join(chars)


class TestSchemeCheck:
    """Every basis must be a full-weight string of H's qubit count, and
    every member must agree with it: Q_i in {I, P_i} on every qubit."""

    H = parse_observable("1.0 XIZ\n0.5 XXZ\n")      # terms XIZ, XXZ

    def test_examples(self):
        # an empty collection stands for the identity, which agrees
        scheme_of(self.H, [[0], [1], []], ["XYZ", "XXZ", "XYZ"])
        with pytest.raises(GroupingError,
                           match="XXZ does not agree with its basis XYZ"):
            scheme_of(self.H, [[0, 1], []], ["XYZ", "XYZ"])

    @pytest.mark.parametrize("basis", ["XIZ", "XXZZ", "XZ"])
    @pytest.mark.parametrize("empty", [True, False])
    def test_basis_must_be_full_weight(self, basis, empty):
        collections = [[0, 1], []] if empty else [[0], [1]]
        with pytest.raises(GroupingError,
                           match=f"basis 1 \\({basis}\\) is not a "
                                 f"full-weight 3-qubit string"):
            scheme_of(self.H, collections, ["XXZ", basis])

    def test_matches_character_oracle(self, rng):
        verdicts = []
        for case in range(300):
            n = int(rng.integers(1, 7))
            h = oracles.random_hamiltonian(rng, n, max_terms=8)
            texts = oracles.term_texts(h)
            if case % 2:
                collections = list(build_grouping(h).collections)
                collections.insert(int(rng.integers(len(collections) + 1)),
                                   np.zeros(0, dtype=np.int64))
            else:
                k = int(rng.integers(1, h.num_terms() + 2))
                owner = rng.integers(0, k, size=h.num_terms())
                collections = [np.flatnonzero(owner == c) for c in range(k)]
            bases = [random_basis(rng, [texts[t] for t in c], n)
                     for c in collections]
            want = all(len(b) == n and "I" not in b and all(
                oracles.string_agrees_with_basis(texts[t], b) for t in c)
                for c, b in zip(collections, bases))
            if want:
                scheme_of(h, collections, bases)
            else:
                with pytest.raises(GroupingError):
                    scheme_of(h, collections, bases)
            verdicts.append(want)
        assert 40 <= sum(verdicts) <= 260


class TestL1:
    def test_exact_variance_closed_form(self):
        h = parse_observable("1.0 X\n1.0 Z\n")
        assert l1_exact_variance(h, ZERO) == pytest.approx(3.0)

    def test_exact_variance_identity_excluded(self):
        h = parse_observable("5.0 I\n1.0 Z\n")
        assert l1_exact_variance(h, ZERO) == pytest.approx(0.0)

    def test_matches_enumeration_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            v = oracles.random_state(rng, n)
            e1, e2 = oracles.l1_moments(h, v.amplitudes)
            want = e2 - e1 * e1
            assert l1_exact_variance(h, v) == pytest.approx(want, abs=1e-10)

    def test_protocol_unbiased_and_deterministic(self, rng):
        h = parse_observable("1.0 X\n1.0 Z\n")
        r1 = l1_protocol(h, ZERO, 100_000, seed=3)
        r2 = l1_protocol(h, ZERO, 100_000, seed=3)
        assert r1 == r2
        assert abs(r1.mean - 1.0) < 5 * np.sqrt(3.0 / 100_000)
        assert r1.variance == pytest.approx(3.0, rel=0.05)


class TestGroupingEstimator:
    def test_single_group_zero_variance_eigenstate(self):
        h = parse_observable("1.0 ZI\n1.0 IZ\n")
        scheme = build_grouping(h)
        report = grouping_protocol(h, scheme, StateVector.from_bits("00"),
                                   50, seed=0)
        assert report.mean == pytest.approx(2.0)
        assert report.variance == pytest.approx(0.0)

    def test_exact_variance_zero_on_shared_eigenstate(self):
        h = parse_observable("1.0 ZI\n1.0 IZ\n")
        scheme = build_grouping(h)
        first, second = grouping_exact_variance_both(
            h, scheme, StateVector.from_bits("00"))
        assert first == pytest.approx(0.0)
        assert second == pytest.approx(0.0)

    def test_exact_variance_matches_enumeration_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            v = oracles.random_state(rng, n)
            scheme = build_grouping(h)
            e1, e2 = oracles.grouping_moments(h, scheme, v.amplitudes)
            want = e2 - e1 * e1
            got = grouping_exact_variance(h, scheme, v)
            assert got == pytest.approx(want, abs=1e-10)

    def test_covariance_form_is_a_lower_bound(self, rng):
        # The two closed forms differ by the kappa-weighted variance of
        # the per-group conditional means, which is nonnegative.
        for _ in range(20):
            n = int(rng.integers(1, 4))
            h = oracles.random_hamiltonian(rng, n, max_terms=5)
            v = oracles.random_state(rng, n)
            scheme = build_grouping(h)
            first, second = grouping_exact_variance_both(h, scheme, v)
            assert first >= second - 1e-10

    def test_protocol_unbiased(self, rng):
        h = parse_observable("1.0 X\n1.0 Z\n")
        scheme = build_grouping(h)
        exact = grouping_exact_variance(h, scheme, ZERO)
        report = grouping_protocol(h, scheme, ZERO, 100_000, seed=8)
        assert abs(report.mean - 1.0) < 5 * np.sqrt(exact / 100_000)
        assert report.variance == pytest.approx(exact, rel=0.05)


# -- golden pins of the LDF grouping ---------------------------------------

# Recorded from the label-by-label term graph and its set-based coloring.
# One Philox(key=3) stream draws the n = 4, 6 and 8 Hamiltonians with up to
# 10 n terms.  Their term graphs are nearly complete, so many vertices tie
# in degree and the Pauli-order tie-break decides the coloring order.
# Each group is "basis: members"; kappa is pinned at rel 1e-12.
GROUPING_PINS = {
    4: {
        "edges": 528,
        "max_degree": 34,
        "groups": [
            "YYXY: YYXY",
            "YZXZ: YZXI",
            "XZYZ: XIIZ XZYZ",
            "YYZX: IIZX YYZX",
            "ZYZY: ZYII ZYZY",
            "ZYZZ: ZYZZ",
            "ZZYX: ZZYI ZZYX",
            "XXZY: IXII XXII XXIY",
            "XYYZ: IYYZ XYYZ",
            "XZZY: IZZI XZZI XZZY",
            "YZYZ: YIYI",
            "YXZZ: YXZI",
            "ZXXY: ZXIY ZXXI",
            "ZYXZ: IYXZ ZYXZ",
            "ZYYY: ZIYY ZYYY",
            "XXXX: XXIX XXXX",
            "XXYX: XXYX",
            "XZZX: XZIX",
            "ZXYY: ZXYY",
            "XXXZ: XXIZ XXXZ",
            "XXZZ: XXZZ",
        ],
        "kappa": [
            0.0245678155769247, 0.020657174046190583, 0.06709726238655579,
            0.07162577008809058, 0.046507658001694416, 0.019134320841865376,
            0.06276084227570657, 0.09189420246050407, 0.02676346384952931,
            0.09174795747202566, 0.06367767205200059, 0.042761504473606216,
            0.05325598900742545, 0.0072162141767007845, 0.02274906000748119,
            0.042109866991632, 0.06352180253509966, 0.01574266468908718,
            0.03704585274209704, 0.06821436944454437, 0.060948536881238476,
        ],
    },
    6: {
        "edges": 648,
        "max_degree": 36,
        "groups": [
            "ZZZXZZ: IIZXZZ",
            "XZZXZX: XIIXZX",
            "XZZYZY: XIZYZY",
            "XXYXXY: XXYXXY",
            "XXZZZX: XXZZIX",
            "XYXXXZ: XYXXXZ",
            "XZXYXZ: XZXYXI",
            "YXZZZY: YXIZIY",
            "YXXYYX: YXXYYX",
            "YXYXXZ: YXYXXZ",
            "YXYXYY: YXYXYY",
            "YZZXYY: YZIXYY",
            "YZYXXX: YZYXXX",
            "YZZYYZ: YZZYYI",
            "ZXZZZY: ZXIZZY",
            "ZXYYXZ: ZXYYXZ",
            "ZYXYXY: ZYXYXY",
            "ZYZXXY: ZYZXXY",
            "ZZZZXZ: ZZZZXZ",
            "XYZZXX: IYIZXI XYIIXX",
            "YZXZXZ: YIXIXZ",
            "YYZZXY: YYIZXY",
            "YYZXYX: YYIXYX YYZIYX",
            "YZXYYZ: YIXIYZ YZXYYI",
            "ZZZZYZ: ZZIZYI ZZZZYI",
            "ZYZXYZ: IYIIYZ ZIIXYI",
            "ZXZZXZ: ZXIZXZ ZXZIXI ZXZIXZ",
            "ZZXZZY: ZZXIIY ZZXZIY",
            "ZZYZYX: IIYIYX",
        ],
        "kappa": [
            0.005716261632814066, 0.011406905089659618, 0.005591981239228171,
            0.038799970049521224, 0.04634618223676567, 0.04897478010153296,
            0.04941143662402787, 0.03366468495270757, 0.04022505136325202,
            0.03266715470152478, 0.007101003945879102, 0.01789311304855663,
            0.036905009056858895, 0.006713911902181558, 0.046980434297217356,
            0.023161991989658785, 0.02142008173590375, 0.01636099172737306,
            0.03095756304217322, 0.050920702263149, 0.018862616896118296,
            0.029328043088401173, 0.05206520194487942, 0.036725002676234006,
            0.03850593034407448, 0.04904287842913214, 0.08344307468140433,
            0.07126697598674105, 0.049541064953029804,
        ],
    },
    8: {
        "edges": 345,
        "max_degree": 26,
        "groups": [
            "ZXZXZZYY: IXZXZIYY",
            "ZYZXZZZY: IYZXZIIY",
            "ZZXXXZZY: IZXXXIZY",
            "XXXYZZXZ: XXXYZZXZ",
            "XYZZYYYX: XYZZYYYX",
            "XZXXZXXY: XZXXIXXY",
            "XZZXZXZX: XZZXZXZX",
            "YZZXXZYZ: YIIXXIYZ",
            "YZYYZZYX: YIYYZZYX",
            "YXYYZYZZ: YXYYIYIZ",
            "YXZZYXXZ: YXZIYXXZ",
            "YYZZXZYY: YYIIXZYY",
            "YZZZZXYX: YZIZZXYX",
            "YZYXYZYZ: YZYXYZYI",
            "ZZZXYYZZ: ZIIXYYZZ",
            "ZXZXXZXY: ZXZXXIXY",
            "ZYXYYYYZ: ZYXYYYYI",
            "XXZYXZXZ: IXZYIZXZ XIIYXIIZ",
            "YZYZXYYX: IZYIXIYX YZYIIYYX",
            "XZZYXXZZ: XIZYXXZI",
            "YZXZZZZZ: YZIZZZIZ YZXZIIZZ",
            "ZXXYXXZZ: ZIXYXIII ZXXYIXIZ",
            "ZZXZZZXZ: ZZXIIIXZ",
        ],
        "kappa": [
            0.05527854795167065, 0.06101987266475561, 0.01548660507229394,
            0.06590219869458509, 0.004558727322355272, 0.025961160221191538,
            0.04467009471133329, 0.042556640815016526, 0.015608631298246287,
            0.009044078004369268, 0.028067301519639536, 0.05316487582744446,
            0.01388197261817353, 0.049829217975881454, 0.05063836766798853,
            0.03420168144028237, 0.05504372465770055, 0.08174926730795264,
            0.09929159938569132, 0.013598832949804506, 0.08250690285238453,
            0.05781058322969673, 0.04012911581154251,
        ],
    },
}


def grouping_instances():
    rng = np.random.Generator(np.random.Philox(key=3))
    return {n: oracles.random_hamiltonian(rng, n, max_terms=10 * n)
            for n in sorted(GROUPING_PINS)}


def oracle_clash(h):
    """clash[a][j]: terms a and j (in term-graph order) are not qubit-wise
    commuting, by the character-level oracle."""
    texts = oracles.term_texts(h)
    return [[not oracles.strings_qubitwise_commute(s, t) for t in texts]
            for s in texts]


def graph_clash(graph):
    """clash[a][j] of the term graph: a != j and j is not among a's
    compatible neighbours."""
    count = len(graph.labels)
    rows = [set(graph.neighbours[graph.indptr[a]:graph.indptr[a + 1]]
                .tolist()) for a in range(count)]
    return [[a != j and j not in rows[a] for j in range(count)]
            for a in range(count)]


@pytest.mark.parametrize("n", sorted(GROUPING_PINS))
def test_golden_grouping(n):
    h = grouping_instances()[n]
    pin = GROUPING_PINS[n]
    graph = build_term_graph(h)
    assert graph.edge_count() == pin["edges"]
    assert graph.max_degree() == pin["max_degree"]
    got = build_grouping(h).to_dict()
    assert [f"{b}: {' '.join(c)}" for b, c in
            zip(got["bases"], got["collections"])] == pin["groups"]
    assert got["kappa"] == pytest.approx(pin["kappa"], rel=1e-12, abs=0)
    degrees = [sum(row) for row in oracle_clash(h)]
    assert len(set(degrees)) < len(degrees)   # the tie-break is exercised


def test_clash_relation_matches_oracle(rng):
    cases = list(grouping_instances().values())
    cases += [oracles.random_hamiltonian(rng, int(rng.integers(1, 7)),
                                         max_terms=12) for _ in range(40)]
    for h in cases:
        assert graph_clash(build_term_graph(h)) == oracle_clash(h)


# -- samplers against the all-shots-at-once references ---------------------

SAMPLER_SHOTS = [1, 2, 5000, 70_001]   # the last spans several chunks


def with_empty_collection(scheme, share=0.2):
    """The scheme plus an empty collection drawn with probability share."""
    kappa = np.append(scheme.kappa * (1.0 - share), share)
    return GroupingScheme(scheme.h,
                          scheme.collections + (np.zeros(0, dtype=int),),
                          scheme.bases + (P("Z" * scheme.h.n),),
                          kappa / kappa.sum())


def sampler_cases():
    rng = np.random.Generator(np.random.Philox(key=606))
    for case in range(8):
        n = int(rng.integers(1, 7))
        h = oracles.random_hamiltonian(rng, n, max_terms=4 * n)
        v = oracles.random_state(rng, n)
        scheme = build_grouping(h)
        if case % 2:
            scheme = with_empty_collection(scheme)
        yield case, h, scheme, v


def assert_same_report(got, want):
    assert (got.shots, got.seed) == (want.shots, want.seed)
    assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=1e-12)
    assert got.variance == pytest.approx(want.variance, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shots", SAMPLER_SHOTS)
def test_grouping_protocol_matches_reference(shots):
    for case, h, scheme, v in sampler_cases():
        assert_same_report(grouping_protocol(h, scheme, v, shots, case),
                           oracles.grouping_reference(h, scheme, v, shots,
                                                      case))


@pytest.mark.parametrize("shots", SAMPLER_SHOTS)
def test_l1_protocol_matches_reference(shots):
    for case, h, _, v in sampler_cases():
        assert_same_report(l1_protocol(h, v, shots, case),
                           oracles.l1_reference(h, v, shots, case))


def test_empty_collection_shots_report_identity_coefficient():
    h = parse_observable("0.75 II\n1.0 ZI\n1.0 IZ\n")
    scheme = GroupingScheme.from_dict({"collections": [[], ["ZI", "IZ"]],
                                       "bases": ["ZZ", "ZZ"],
                                       "kappa": [0.5, 0.5]}, h)
    report = grouping_protocol(h, scheme, StateVector.from_bits("00"),
                               4000, seed=1)
    # empty-collection shots give 0.75, the others 0.75 + 2 / 0.5
    assert report.mean == pytest.approx(2.75, abs=0.2)
    assert report.variance == pytest.approx(4.0, rel=0.05)


def golden_sampler_instance():
    """An n = 8 Hamiltonian of 28 random terms and 12 Z strings (one
    group measures ZZZZZZZZ), a random state and a sector state of
    weight-3 outcomes, whose Z-basis CDF has long flat runs."""
    rng = np.random.Generator(np.random.Philox(key=29))
    n = 8
    terms = {}
    while len(terms) < 40:
        labels = (rng.integers(0, 4, size=n) if len(terms) < 28
                  else 3 * rng.integers(0, 2, size=n))
        if labels.any():
            terms[PauliString.from_labels(labels.tolist())] = float(
                rng.uniform(-1, 1))
    h = oracles.observable(n, terms, 0.25)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    sector = np.where(np.bitwise_count(np.arange(1 << n)) == 3, amps, 0)
    return h, {"random": StateVector(n, amps / np.linalg.norm(amps)),
               "sector": StateVector(n, sector / np.linalg.norm(sector))}


# Recorded from the sampler that sorted each chunk by collection and
# inverted each collection's CDF with one searchsorted
GROUPING_SAMPLER_PINS = {
    "random": ("0.36847958493980354", "252.01143986806792"),
    "sector": ("0.6847066860688524", "251.14614764343315"),
}


@pytest.mark.parametrize("state", sorted(GROUPING_SAMPLER_PINS))
def test_golden_grouping_sampler(state):
    h, states = golden_sampler_instance()
    scheme = build_grouping(h)
    assert scheme.bases[-1] == P("ZZZZZZZZ")
    report = grouping_protocol(h, scheme, states[state], 200_000, 11)
    assert ((repr(report.mean), repr(report.variance))
            == GROUPING_SAMPLER_PINS[state])


# -- the bucketed CDF inversion against searchsorted -----------------------

def cdf_rows(*probs):
    """(K, 2^n) CDFs of the rows of probabilities, last entries set to 1
    as in the grouping tables."""
    cdfs = np.cumsum(np.array(probs, dtype=float), axis=1)
    cdfs[:, -1] = 1.0
    return cdfs


def inversion_cases():
    _, states = golden_sampler_instance()
    z_basis = P("ZZZZZZZZ")
    sector = born_probabilities(states["sector"], z_basis)
    assert np.max(np.diff(np.flatnonzero(sector))) > 16   # long flat runs
    yield pytest.param(np.vstack([
        cdf_rows(sector, born_probabilities(states["random"], z_basis)),
        np.ones((1, 256))]),                # an empty collection's CDF
        id="sector-random-empty")
    yield pytest.param(cdf_rows([0.3, 0.7]), id="n1-k1")
    yield pytest.param(cdf_rows([1.0, 0.0], [0.0, 1.0]), id="n1-point-masses")
    # every CDF value on a bucket edge b / 8
    yield pytest.param(cdf_rows([0.25, 0, 0, 0.25, 0.125, 0.125, 0.25, 0]),
                       id="edges")
    rng = np.random.Generator(np.random.Philox(key=71))
    sparse = rng.dirichlet(np.ones(64), size=5) * (rng.random((5, 64)) < 0.3)
    sparse[:, 0] += 1e-3
    yield pytest.param(cdf_rows(*(sparse / sparse.sum(axis=1, keepdims=True))),
                       id="sparse")


def inversion_uniforms(cdfs, rng):
    """Random uniforms, every CDF value below 1, every bucket edge, their
    neighbouring doubles, 0 and the largest double below 1."""
    edges = np.arange(cdfs.shape[1]) / cdfs.shape[1]
    exact = np.concatenate([cdfs[cdfs < 1], edges])
    u = np.concatenate([rng.random(2000), exact, np.nextafter(exact, 0),
                        np.nextafter(exact, 1), [0.0, np.nextafter(1, 0)]])
    return u[(u >= 0) & (u < 1)]


@pytest.mark.parametrize("cdfs", inversion_cases())
def test_cdf_inversion_matches_searchsorted(cdfs):
    count, size = cdfs.shape
    guide = baselines._cdf_guide(cdfs)
    assert guide.dtype == np.int32
    # guide[k, b]: flat index of the first outcome whose CDF exceeds b / 2^n,
    # clipped to row k's last outcome
    assert guide.tolist() == [
        [k * size + min(bisect.bisect_right(cdf, b / size), size - 1)
         for b in range(size + 1)] for k, cdf in enumerate(cdfs.tolist())]
    rng = np.random.Generator(np.random.Philox(key=size + count))
    u = inversion_uniforms(cdfs, rng)
    for which in [*(np.full(u.size, k) for k in range(count)),
                  rng.integers(0, count, size=u.size)]:
        want = [k * size + np.searchsorted(cdfs[k], x, side="right")
                for k, x in zip(which, u)]
        got = baselines._invert_cdfs(cdfs.ravel(), guide, which, u)
        assert got.tolist() == want


@pytest.mark.parametrize("shots", [1, 50, 403])
def test_sampler_reports_independent_of_chunk_size(monkeypatch, shots):
    assert SAMPLER_SHOTS[-1] > 2 * baselines._SAMPLER_CHUNK
    for case, h, scheme, v in sampler_cases():
        whole = (grouping_protocol(h, scheme, v, shots, case),
                 l1_protocol(h, v, shots, case))
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "_SAMPLER_CHUNK", 7)
            assert (grouping_protocol(h, scheme, v, shots, case),
                    l1_protocol(h, v, shots, case)) == whole


MEMORY_H = "1.0 XX\n0.5 ZZ\n0.3 ZI\n"


@pytest.mark.parametrize("protocol", ["ldf", "l1", "shadows"])
def test_sampler_memory_flat_in_shots(protocol):
    h = parse_observable(MEMORY_H)
    v = oracles.random_state(np.random.Generator(np.random.Philox(key=9)), 2)
    run = {
        "ldf": lambda: grouping_protocol(h, build_grouping(h), v, 10 ** 6, 1),
        "l1": lambda: l1_protocol(h, v, 10 ** 6, 1),
        "shadows": lambda: run_protocol(h, v, uniform_beta(2), 10 ** 6, 1),
    }[protocol]
    assert peak_traced_mb(run) < 16


def test_grouping_table_size_limit(monkeypatch, capsys, tmp_path):
    h = parse_observable(MEMORY_H)       # two groups of 2^2 outcomes
    v = StateVector.from_bits("00")
    scheme = build_grouping(h)
    assert scheme.k_groups << h.n == 8
    monkeypatch.setattr(baselines, "TABLE_ENTRY_LIMIT", 7)
    with pytest.raises(SizeLimitError, match="8 table entries, above the "
                                             "limit of 7"):
        grouping_protocol(h, scheme, v, 10, 1)
    (tmp_path / "h.txt").write_text(MEMORY_H)
    np.save(tmp_path / "v.npy", v.amplitudes)
    code = main(["simulate", "--hamiltonian", str(tmp_path / "h.txt"),
                 "--estimator", "ldf", "--state", str(tmp_path / "v.npy"),
                 "--shots", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: 2 groups on 2 qubits need 8 table "
                            "entries, above the limit of 7\n")
