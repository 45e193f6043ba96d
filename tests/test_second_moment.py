"""The pair-table second-moment engine and golden pins of its results.

The pins were recorded from the per-qubit case analyses that the engine
replaced: exact_variance on the three state kinds, the three optimizer
costs (also at a beta with exact zeros), both grouping variance closed
forms and optimize for every cost kind.  Relative tolerance 1e-12.
"""

import warnings

import numpy as np
import pytest

from lbcs import (BetaDistribution, MultiReference, ObservableSum,
                  OptimizerConfig, SingleReference, StateVector,
                  build_grouping, cost_diag, cost_full, cost_multiref,
                  exact_variance, grouping_exact_variance_both, optimize,
                  parse_observable, uniform_beta)
from lbcs.baselines import SizeLimitError
from lbcs.cli import main
from lbcs.pauli import PauliError
from lbcs import hamiltonian, states
from lbcs.optimizer import DivergenceWarning

import oracles

SIZES = {4: 12, 6: 24, 8: 40}            # qubits -> max_terms
ITERATIONS = {4: 10_000, 6: 40, 8: 40}   # 6 and 8 are pinned mid-run


def instance(n):
    """H, state, beta, single and K = 3 multi reference, and beta with
    exact zeros, all drawn from one seeded stream."""
    rng = np.random.Generator(np.random.Philox(key=110))
    h = oracles.random_hamiltonian(rng, n, max_terms=SIZES[n])
    v = oracles.random_state(rng, n)
    beta = oracles.random_beta(rng, n)
    single = SingleReference(oracles.random_signs(rng, n))
    idxs = rng.choice(1 << n, size=3, replace=False)
    amps = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    multi = MultiReference(tuple(format(int(b), f"0{n}b") for b in idxs),
                           tuple(amps / np.linalg.norm(amps)))
    rows = beta.rows.copy()
    rows[rng.random((n, 3)) < 0.25] = 0.0
    rows[rows.sum(axis=1) == 0.0, 2] = 1.0
    sparse = BetaDistribution(n, rows / rows.sum(axis=1, keepdims=True))
    return h, v, beta, single, multi, sparse


# per size: exact_variance on (statevector, single, multi); costs
# (diag, full, multiref) at beta and at the sparse beta; grouping
# (first, second); optimize (cost, iterations, converged, beta rows)
GOLDEN = {
    4: {
        "variance": [
            1332.0760678093145,
            1188.2921740682102,
            1353.0733273516344,
        ],
        "cost": [
            1302.257401688875,
            1188.29217406821,
            1353.2451050455127,
        ],
        "sparse_cost": [
            1151.6976356316238,
            1037.732408010959,
            1202.6853389882613,
        ],
        "grouping": [
            14.862827478276456,
            14.281501268159904,
        ],
        "diag": (20.374975770568305, 35, True, [
            [0.19539661299937663, 0.0,
             0.8046033870006234],
            [0.4216346689710567, 0.26291969024011075,
             0.3154456407888325],
            [0.45519316755912864, 0.010374885538615913,
             0.5344319469022555],
            [0.04174364956632474, 0.7649795898586285,
             0.19327676057504684],
        ]),
        "full": (17.546698711225858, 35, True, [
            [0.21897783258926223, 0.0,
             0.7810221674107378],
            [0.41324458649239465, 0.2653611356767913,
             0.3213942778308141],
            [0.4623671989086998, 0.01002458948319869,
             0.5276082116081015],
            [0.045394434375026806, 0.7463013470849139,
             0.20830421854005934],
        ]),
        "multiref": (22.515629834608458, 35, True, [
            [0.18874820137640919, 0.0,
             0.8112517986235908],
            [0.4264637672534264, 0.26114957060026256,
             0.31238666214631106],
            [0.4534221070939142, 0.010628399045353981,
             0.5359494938607319],
            [0.03957841513183112, 0.7770006608173875,
             0.18342092405078136],
        ]),
    },
    6: {
        "variance": [
            9447.008994729145,
            9701.359299585165,
            9701.359299585165,
        ],
        "cost": [
            9701.359299585165,
            9701.359299585165,
            9701.359299585165,
        ],
        "sparse_cost": [
            7.450153273039145,
            7.450153273039145,
            7.450153273039147,
        ],
        "grouping": [
            114.36785796413828,
            111.81471349820326,
        ],
        "diag": (1183.8324273124845, 40, False, [
            [0.15936059905567557, 0.27618738684608685,
             0.5644520140982376],
            [0.3437642265356242, 0.4495829546965401,
             0.20665281876783564],
            [0.37446430316724133, 0.33365941883376826,
             0.2918762779989905],
            [0.3325105919080072, 0.4257157705036122,
             0.2417736375883806],
            [0.4766862055311376, 0.1610290600275584,
             0.36228473444130405],
            [0.19481679599980017, 0.40683322223695084,
             0.398349981763249],
        ]),
        "full": (1183.832427312484, 40, False, [
            [0.15936059905567554, 0.27618738684608685,
             0.5644520140982376],
            [0.3437642265356243, 0.4495829546965401,
             0.20665281876783564],
            [0.37446430316724133, 0.33365941883376815,
             0.2918762779989905],
            [0.33251059190800725, 0.4257157705036122,
             0.2417736375883806],
            [0.47668620553113766, 0.1610290600275584,
             0.362284734441304],
            [0.1948167959998002, 0.40683322223695084,
             0.3983499817632491],
        ]),
        "multiref": (1183.8324273124847, 40, False, [
            [0.1593605990556756, 0.2761873868460868,
             0.5644520140982376],
            [0.3437642265356243, 0.4495829546965401,
             0.20665281876783564],
            [0.37446430316724133, 0.33365941883376826,
             0.2918762779989905],
            [0.3325105919080072, 0.4257157705036122,
             0.24177363758838055],
            [0.4766862055311375, 0.1610290600275584,
             0.362284734441304],
            [0.19481679599980017, 0.4068332222369508,
             0.3983499817632491],
        ]),
    },
    8: {
        "variance": [
            697112.3936773189,
            697112.3368663281,
            697111.1703444207,
        ],
        "cost": [
            697112.3368663281,
            697112.3368663281,
            697111.1743504622,
        ],
        "sparse_cost": [
            105.00525775695161,
            105.00525775695161,
            104.21058920830284,
        ],
        "grouping": [
            347.3672508987801,
            345.8147579710901,
        ],
        "diag": (15676.369442559984, 40, False, [
            [0.3968664353582212, 0.3079066516884956,
             0.29522691295328324],
            [0.32861984724935234, 0.3784033939104824,
             0.29297675884016533],
            [0.292073619569565, 0.28178153884778734,
             0.4261448415826476],
            [0.4237772584279086, 0.5272836342676331,
             0.048939107304458315],
            [0.29156827652160533, 0.4018518910814889,
             0.3065798323969058],
            [0.3781616064841312, 0.29233632934947434,
             0.3295020641663945],
            [0.502828728112954, 0.3030589220384742,
             0.19411234984857187],
            [0.25383949752655227, 0.3817614961230146,
             0.3643990063504332],
        ]),
        "full": (15676.369442559986, 40, False, [
            [0.3968664353582212, 0.3079066516884956,
             0.29522691295328324],
            [0.32861984724935234, 0.3784033939104824,
             0.29297675884016533],
            [0.292073619569565, 0.2817815388477874,
             0.4261448415826476],
            [0.4237772584279086, 0.5272836342676331,
             0.0489391073044583],
            [0.29156827652160533, 0.40185189108148883,
             0.3065798323969059],
            [0.37816160648413116, 0.29233632934947434,
             0.3295020641663945],
            [0.502828728112954, 0.3030589220384742,
             0.19411234984857184],
            [0.25383949752655227, 0.38176149612301447,
             0.3643990063504332],
        ]),
        "multiref": (15675.867863644075, 40, False, [
            [0.39686346769918934, 0.3079073577432662,
             0.2952291745575445],
            [0.3286168638210818, 0.3784047085572461,
             0.29297842762167203],
            [0.2920623880871888, 0.28178469735058376,
             0.4261529145622274],
            [0.4237789163326061, 0.5272820320420072,
             0.048939051625386615],
            [0.2915703237122209, 0.4018493539315371,
             0.30658032235624205],
            [0.3781622034280101, 0.29233625513628325,
             0.32950154143570676],
            [0.5028309440116682, 0.30305797799067713,
             0.1941110779976547],
            [0.25384096975856296, 0.38175813127856395,
             0.3644008989628731],
        ]),
    },
}


def close(got, want):
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", sorted(SIZES))
def test_golden_exact_variance(n):
    h, v, beta, single, multi, _ = instance(n)
    for state, want in zip((v, single, multi), GOLDEN[n]["variance"]):
        close(exact_variance(h, state, beta), want)


@pytest.mark.parametrize("n", sorted(SIZES))
def test_golden_costs(n):
    h, _, beta, single, multi, sparse = instance(n)
    costs = lambda b: (cost_diag(h, b), cost_full(h, single, b),
                       cost_multiref(h, multi, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DivergenceWarning)
        for got, want in zip(costs(beta), GOLDEN[n]["cost"]):
            close(got, want)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        for got, want in zip(costs(sparse), GOLDEN[n]["sparse_cost"]):
            close(got, want)


@pytest.mark.parametrize("n", sorted(SIZES))
def test_golden_grouping_variances(n):
    h, v, *_ = instance(n)
    got = grouping_exact_variance_both(h, build_grouping(h), v)
    for g, want in zip(got, GOLDEN[n]["grouping"]):
        close(g, want)


@pytest.mark.parametrize("kind", ["diag", "full", "multiref"])
@pytest.mark.parametrize("n", sorted(SIZES))
def test_golden_optimize(n, kind):
    h, _, _, single, multi, _ = instance(n)
    reference = {"diag": None, "full": single, "multiref": multi}[kind]
    res = optimize(h, kind, OptimizerConfig(max_iterations=ITERATIONS[n]),
                   reference=reference)
    cost, iterations, converged, rows = GOLDEN[n][kind]
    close(res.cost, cost)
    assert (res.iterations, res.converged) == (iterations, converged)
    assert np.allclose(res.beta.rows, rows, rtol=1e-12, atol=1e-12)


def random_strings(rng, n, count):
    """Random (x, z) masks and the text of i^{|x & z|} X^x Z^z."""
    labels = rng.integers(0, 4, size=(count, n))
    place = 1 << np.arange(n - 1, -1, -1)
    x = ((labels == 1) | (labels == 2)) @ place
    z = ((labels == 2) | (labels == 3)) @ place
    texts = ["".join("IXYZ"[c] for c in row) for row in labels]
    return x.astype(np.uint64), z.astype(np.uint64), texts


@pytest.mark.parametrize("kind", ["statevector", "single", "multi"])
def test_trace_oracles_match_dense(rng, monkeypatch, kind):
    # a small batch makes the transforms run in several batches
    monkeypatch.setattr(states, "_TRANSFORM_BLOCK", 16)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        if kind == "statevector":
            state = oracles.random_state(rng, n)
            v = state.amplitudes
        elif kind == "single":
            state = SingleReference(oracles.random_signs(rng, n))
            v = oracles.reference_statevector(state).amplitudes
        else:
            k = int(rng.integers(1, min(4, 1 << n) + 1))
            idxs = rng.choice(1 << n, size=k, replace=False)
            amps = rng.standard_normal(k) + 1j * rng.standard_normal(k)
            state = MultiReference(
                tuple(format(int(b), f"0{n}b") for b in idxs),
                tuple(amps / np.linalg.norm(amps)))
            v = oracles.reference_statevector(state).amplitudes
        x, z, texts = random_strings(rng, n, 40)
        want = [np.vdot(v, oracles.dense_from_text(t) @ v).real
                for t in texts]
        np.testing.assert_allclose(state.pauli_traces(x, z), want,
                                   rtol=0, atol=1e-12)


def test_compatible_pairs_in_blocks(rng, monkeypatch):
    monkeypatch.setattr(hamiltonian, "_PAIR_BLOCK", 7)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        h = oracles.random_hamiltonian(rng, n, max_terms=12)
        texts = oracles.term_texts(h)
        want = [(a, j) for a in range(len(texts))
                for j in range(a, len(texts))
                if oracles.strings_qubitwise_commute(texts[a], texts[j])]
        got = list(zip(*(p.tolist() for p in h.pairs)))
        assert got == want


H3 = "1.0 XX\n0.5 ZZ\n0.3 ZI\n"      # 3 terms, 4 compatible pairs a <= j
LIMIT_MESSAGE = "3 terms make more compatible pairs than the limit of 3"


def test_pair_table_size_limit(monkeypatch, capsys, tmp_path):
    h = parse_observable(H3)
    v = StateVector.from_bits("00")
    monkeypatch.setattr(hamiltonian, "PAIR_LIMIT", 3)
    with pytest.raises(SizeLimitError, match=LIMIT_MESSAGE):
        exact_variance(h, v, uniform_beta(2))
    (tmp_path / "h.txt").write_text(H3)
    np.save(tmp_path / "v.npy", v.amplitudes)
    code = main(["variance", "--hamiltonian", str(tmp_path / "h.txt"),
                 "--estimator", "shadows", "--state", str(tmp_path / "v.npy")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {LIMIT_MESSAGE}\n"
    monkeypatch.setattr(hamiltonian, "PAIR_LIMIT", 4)
    assert exact_variance(h, v, uniform_beta(2)) == pytest.approx(
        oracles.shadow_variance(h, v.amplitudes, uniform_beta(2).rows),
        abs=1e-10)


H_LIMIT = ("0.9 XXII\n-0.7 ZZII\n0.5 ZIZI\n0.4 IXXI\n-0.3 IIZZ\n"
           "0.2 YYII\n0.1 IIIX\n")
LIMIT_COMMANDS = {
    "group": ["group"],
    "variance": ["variance", "--estimator", "shadows", "--state", "{v}"],
}


def _run_limit_command(argv, tmp_path, capsys):
    (tmp_path / "h.txt").write_text(H_LIMIT)
    np.save(tmp_path / "v.npy", oracles.random_state(
        np.random.Generator(np.random.Philox(key=5)), 4).amplitudes)
    argv = [a.format(v=tmp_path / "v.npy") for a in argv]
    code = main(argv + ["--hamiltonian", str(tmp_path / "h.txt")])
    return code, capsys.readouterr()


@pytest.mark.parametrize("command", sorted(LIMIT_COMMANDS))
def test_pair_limit_counts_compatible_pairs(command, monkeypatch, tmp_path,
                                            capsys):
    """The limit bounds the pairs a <= j that are stored, not T^2."""
    texts = oracles.term_texts(parse_observable(H_LIMIT))
    pairs = sum(oracles.strings_qubitwise_commute(texts[a], texts[j])
                for a in range(len(texts)) for j in range(a, len(texts)))
    assert pairs < len(texts) ** 2
    argv = LIMIT_COMMANDS[command]
    want = _run_limit_command(argv, tmp_path, capsys)
    assert want[0] == 0
    monkeypatch.setattr(hamiltonian, "PAIR_LIMIT", pairs)
    assert _run_limit_command(argv, tmp_path, capsys) == want
    monkeypatch.setattr(hamiltonian, "PAIR_LIMIT", pairs - 1)
    code, captured = _run_limit_command(argv, tmp_path, capsys)
    assert code == 2
    assert captured.out == ""
    assert captured.err == (f"error: {len(texts)} terms make more "
                            f"compatible pairs than the limit of "
                            f"{pairs - 1}\n")


def test_pairs_enumerated_once(monkeypatch, tmp_path):
    """One compare enumerates H's compatible pairs once; the cached
    arrays are read-only like the rest of the term table."""
    calls = []
    pairs = vars(ObservableSum)["pairs"]
    enumerate_pairs = pairs.func
    monkeypatch.setattr(pairs, "func",
                        lambda h: calls.append(h) or enumerate_pairs(h))
    (tmp_path / "h.txt").write_text(H_LIMIT)
    assert main(["compare", "--hamiltonian", str(tmp_path / "h.txt"),
                 "--bits", "1100"]) == 0
    assert len(calls) == 1
    h = parse_observable(H_LIMIT)
    assert h.pairs is h.pairs
    for index in h.pairs:
        assert index.dtype == np.int32
        with pytest.raises(ValueError, match="read-only"):
            index[0] = 1


def test_exact_variance_rejects_state_of_other_size():
    h = parse_observable("1.0 ZZ\n0.5 XI\n")
    for state in (StateVector.from_bits("0"), SingleReference((1,)),
                  MultiReference(("000", "111"), (0.6, 0.8))):
        with pytest.raises(PauliError, match="qubit count"):
            exact_variance(h, state, uniform_beta(2))
