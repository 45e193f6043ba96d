"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Criteria 11 and 12 need externally supplied molecular Hamiltonian files
(see data/molecules/README note in the repository README); without them
they are skipped and the remaining criteria stand in.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from lbcs import (BetaDistribution, MultiReference, PauliString,
                  SingleReference, StateVector, build_grouping,
                  build_term_graph, cost_diag, cost_full, cost_multiref,
                  exact_variance, grouping_exact_variance_both,
                  grouping_protocol, l1_exact_variance, l1_protocol,
                  ldf_coloring, load_observable, optimize, parse_observable,
                  run_protocol, uniform_beta)
from lbcs.cli import main
from lbcs.states import observable_expectation

import oracles

MOLECULE_DIR = Path(__file__).resolve().parent.parent / "data" / "molecules"


def _report(number: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


def _rng(tag: int):
    return np.random.Generator(np.random.Philox(key=900_000 + tag))


def test_criterion_01_variance_enumeration_oracle():
    rng = _rng(1)
    start = time.monotonic()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        h = oracles.random_hamiltonian(rng, n, max_terms=8)
        v = oracles.random_state(rng, n)
        beta = oracles.random_beta(rng, n)
        want = oracles.shadow_variance(h, v.amplitudes, beta.rows)
        got = exact_variance(h, v, beta)
        worst = max(worst, abs(got - want))
    elapsed = time.monotonic() - start
    _report(1, "variance vs enumeration", worst < 1e-10 and elapsed < 10.0,
            f"max |diff| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_unbiasedness_all_estimators():
    rng = _rng(2)
    shots = 1_000_000
    start = time.monotonic()
    ok = True
    worst_ratio = 0.0
    for trial in range(10):
        n = 3
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        v = oracles.random_state(rng, n)
        beta = oracles.random_beta(rng, n)
        scheme = build_grouping(h)
        mean = observable_expectation(h, v)
        seed = 1000 + trial
        runs = [
            ("l1", l1_protocol(h, v, shots, seed),
             l1_exact_variance(h, v)),
            ("ldf", grouping_protocol(h, scheme, v, shots, seed),
             grouping_exact_variance_both(h, scheme, v)[0]),
            ("shadows", run_protocol(h, v, uniform_beta(n), shots, seed),
             exact_variance(h, v, uniform_beta(n))),
            ("lbcs", run_protocol(h, v, beta, shots, seed),
             exact_variance(h, v, beta)),
        ]
        for _, report, var in runs:
            bound = 5.0 * np.sqrt(max(var, 0.0) / shots) + 1e-12
            err = abs(report.mean - mean)
            ok = ok and err <= bound
            if bound > 0:
                worst_ratio = max(worst_ratio, err / bound)
    elapsed = time.monotonic() - start
    _report(2, "estimator unbiasedness", ok and elapsed < 120.0,
            f"worst |err|/bound = {worst_ratio:.2f}, {elapsed:.1f}s")


def test_criterion_03_l1_closed_form():
    rng = _rng(3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        v = oracles.random_state(rng, n)
        e1, e2 = oracles.l1_moments(h, v.amplitudes)
        want = e2 - e1 * e1
        got = l1_exact_variance(h, v)
        worst = max(worst, abs(got - want))
    _report(3, "l1 variance closed form", worst < 1e-10,
            f"max |diff| = {worst:.2e}")


def test_criterion_04_grouping_variance_formulas():
    # The kappa-sampled and the allocated form differ by the
    # kappa-dispersion of the per-group means (see the docstring of
    # grouping_exact_variance_both), so they are not compared with each
    # other: each is held to its own enumeration oracle, and the gap to
    # sum_k kappa_k (A_k/kappa_k - sum_j A_j)^2.
    rng = _rng(4)
    worst_sampled = worst_allocated = worst_gap = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        v = oracles.random_state(rng, n)
        scheme = build_grouping(h)
        first, second = grouping_exact_variance_both(h, scheme, v)
        e1, e2 = oracles.grouping_moments(h, scheme, v.amplitudes)
        means, variances = oracles.grouping_allocated_moments(
            h, scheme, v.amplitudes)
        kappa = scheme.kappa
        dispersion = float(kappa @ (means / kappa - means.sum()) ** 2)
        worst_sampled = max(worst_sampled, abs(first - (e2 - e1 * e1)))
        worst_allocated = max(worst_allocated,
                              abs(second - float(np.sum(variances / kappa))))
        worst_gap = max(worst_gap, abs((first - second) - dispersion))
    worst = max(worst_sampled, worst_allocated, worst_gap)
    _report(4, "grouping variance closed forms", worst < 1e-10,
            f"max |diff|: kappa-sampled vs oracle = {worst_sampled:.2e}, "
            f"allocated vs oracle = {worst_allocated:.2e}, "
            f"gap vs kappa-dispersion = {worst_gap:.2e}")


def test_criterion_05_cost_captures_variance():
    rng = _rng(5)
    worst_spread = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 6))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        ref = SingleReference(oracles.random_signs(rng, n))
        diffs = []
        for _ in range(10):
            beta = oracles.random_beta(rng, n)
            diffs.append(exact_variance(h, ref, beta)
                         - cost_full(h, ref, beta))
        worst_spread = max(worst_spread, max(diffs) - min(diffs))
    _report(5, "full cost vs reference variance", worst_spread < 1e-9,
            f"max spread = {worst_spread:.2e}")


def test_criterion_06_diag_cost_convexity():
    rng = _rng(6)
    worst_slack = np.inf
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        b1 = oracles.random_beta(rng, n)
        b2 = oracles.random_beta(rng, n)
        mid = BetaDistribution(n, 0.5 * (b1.rows + b2.rows))
        slack = 0.5 * (cost_diag(h, b1) + cost_diag(h, b2)) - cost_diag(h, mid)
        worst_slack = min(worst_slack, slack)
        ok = ok and slack >= -1e-9
    _report(6, "diag cost convexity", ok, f"min slack = {worst_slack:.2e}")


def test_criterion_07_single_qubit_analytic_optimum():
    rng = _rng(7)
    worst_beta = 0.0
    worst_cost = 0.0
    for _ in range(100):
        a, b = 0.0, 0.0
        while abs(a) < 0.05 or abs(b) < 0.05:
            a, b = (float(x) for x in rng.uniform(-2, 2, size=2))
        h = parse_observable(f"{a!r} X\n{b!r} Z\n")
        res = optimize(h, "diag")
        total = abs(a) + abs(b)
        target = np.array([abs(a), 0.0, abs(b)]) / total
        worst_beta = max(worst_beta,
                         float(np.max(np.abs(res.beta.rows[0] - target))))
        worst_cost = max(worst_cost, abs(res.cost - total ** 2))
    _report(7, "single-qubit analytic optimum",
            worst_beta < 1e-6 and worst_cost < 1e-8,
            f"max |beta err| = {worst_beta:.2e}, "
            f"max |cost err| = {worst_cost:.2e}")


def test_criterion_08_bounding_chain():
    rng = _rng(8)
    ok = True
    worst = -np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        ref = SingleReference(oracles.random_signs(rng, n))
        beta = oracles.random_beta(rng, n)
        excess = cost_full(h, ref, beta) - h.num_terms() * cost_diag(h, beta)
        worst = max(worst, excess)
        ok = ok and excess <= 1e-9
    _report(8, "full cost bounded by term count times diag", ok,
            f"max excess = {worst:.2e}")


def test_criterion_09_single_pauli_uniform_bound():
    rng = _rng(9)
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        for code in range(1, 4 ** n):
            labels = [(code // 4 ** i) % 4 for i in reversed(range(n))]
            q = PauliString.from_labels(labels)
            alpha = float(rng.uniform(0.2, 2.0)) * float(rng.choice([-1.0, 1.0]))
            h = oracles.observable(n, {q: alpha})
            v = oracles.random_state(rng, n)
            mean = alpha * v.pauli_traces(*oracles.masks([q]))[0]
            var = exact_variance(h, v, uniform_beta(n))
            want = 3.0 ** q.support_mask.bit_count() * alpha ** 2 - mean ** 2
            worst = max(worst, abs(var - want))
            ok = ok and abs(var - want) < 1e-10
            ok = ok and var <= 4.0 ** q.support_mask.bit_count() * alpha ** 2 + 1e-10
    _report(9, "single-Pauli uniform-shadow bound", ok,
            f"max |diff| = {worst:.2e}")


def test_criterion_10_ldf_coloring_bound():
    rng = _rng(10)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        h = oracles.random_hamiltonian(rng, n, max_terms=10)
        graph = build_term_graph(h)
        colls = ldf_coloring(graph)
        ok = ok and oracles.coloring_is_proper(h, colls)
        ok = ok and len(colls) <= 1 + graph.max_degree()
        ok = ok and sum(len(c) for c in colls) == h.num_terms()
    _report(10, "LDF proper coloring within degree bound", ok)


TABLE1 = {
    # file stem -> (bits length hint, rows, tolerances)
    "h2": {"l1": 2.49, "ldf": 0.402, "shadows": 1.97, "lbcs": 1.86},
    "lih": {"lbcs": 14.8},
    "h2o": {"lbcs": 257.0},
}


def _molecule_paths(stem):
    ham = MOLECULE_DIR / f"{stem}.txt"
    bits = MOLECULE_DIR / f"{stem}.bits"
    return ham, bits


def test_criterion_11_reference_variance_table(capsys):
    available = [s for s in TABLE1
                 if all(p.exists() for p in _molecule_paths(s))]
    if not available:
        print("criterion 11 [reference variance table]: SKIP "
              "(no molecule files under data/molecules; "
              "criteria 1-10 stand in)")
        pytest.skip("molecule Hamiltonian files not supplied")
    import json
    ok = True
    details = []
    for stem in available:
        ham, bits = _molecule_paths(stem)
        code = main(["compare", "--hamiltonian", str(ham),
                     "--bits", bits.read_text().strip()])
        out = capsys.readouterr().out
        assert code == 0
        rows = {r["estimator"]: r["variance"]
                for r in json.loads(out)["rows"]}
        for name, want in TABLE1[stem].items():
            rel = 0.10 if name == "ldf" else 0.02
            good = abs(rows[name] - want) <= rel * want
            ok = ok and good
            details.append(f"{stem}/{name}={rows[name]:.3g} (ref {want})")
    _report(11, "reference variance table", ok, "; ".join(details))


def test_criterion_12_bias_symmetry():
    ham, _ = _molecule_paths("h2o")
    if not ham.exists():
        print("criterion 12 [bias symmetry]: SKIP "
              "(no 14-qubit molecule file under data/molecules)")
        pytest.skip("molecule Hamiltonian file not supplied")
    h = load_observable(ham)
    res = optimize(h, "diag")
    rows = res.beta.rows
    half = h.n // 2
    sym = float(np.max(np.abs(rows[:half] - rows[half:])))
    xy = float(np.max(np.abs(rows[:, 0] - rows[:, 1])))
    _report(12, "bias symmetry", sym < 1e-5 and xy < 1e-5,
            f"spatial = {sym:.2e}, X/Y = {xy:.2e}")


def test_criterion_13_k1_multireference_reduction():
    rng = _rng(13)
    worst_spread = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h = oracles.random_hamiltonian(rng, n, max_terms=6)
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, n))
        single = SingleReference.from_bits(bits)
        multi = MultiReference((bits,), (1.0,))
        diffs = []
        for _ in range(10):
            beta = oracles.random_beta(rng, n)
            diffs.append(cost_multiref(h, multi, beta)
                         - cost_full(h, single, beta))
        worst_spread = max(worst_spread, max(diffs) - min(diffs))
    _report(13, "K=1 multireference reduction", worst_spread < 1e-9,
            f"max spread = {worst_spread:.2e}")
