"""Per-layer numbers of a traced run.

Span numbers come from the traced cycles (see ``spans``).  Work counts are
computed from outside the program: pair counts with numpy over the term
masks, distinct bases by replaying the public ``sample_basis_labels`` with
each run's Philox seed, and groups, edges and iterations from the objects
the layers return.  ``states.born_probabilities_ms`` and
``baselines.build_grouping_s`` are timed by direct calls on the workload's
own inputs, so every workload reports them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import gen

PROBE_BASES = 32        # seeded bases for the born_probabilities probe
PROBE_REPEATS = 3       # build_grouping calls, median reported


def pair_counts(h: gen.Observable):
    """(compatible pairs a <= j, distinct products Q_a Q_j over them)."""
    a, j = gen.compatible_pairs(h)
    a, j = a[a <= j], j[a <= j]
    products = np.unique(np.stack([h.x[a] ^ h.x[j], h.z[a] ^ h.z[j]]),
                         axis=1)
    return int(a.size), int(products.shape[1])


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _probe_born(n: int, seed: int) -> float:
    from lbcs.pauli import PauliString
    from lbcs.states import StateVector, born_probabilities

    v = StateVector(n, gen.random_state(n, seed))
    rng = gen.rng_for(seed, "probe-bases")
    times = []
    for _ in range(PROBE_BASES):
        basis = PauliString.from_labels(rng.integers(1, 4, size=n))
        t0 = time.perf_counter()
        born_probabilities(v, basis)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def _probe_grouping(hamiltonians):
    """Summed over the Hamiltonians: (median seconds per build_grouping
    call, groups, term-graph edges)."""
    from lbcs.baselines import build_grouping, build_term_graph

    seconds = groups = edges = 0
    for h in hamiltonians:
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            scheme = build_grouping(h)
            times.append(time.perf_counter() - t0)
        seconds += statistics.median(times)
        groups += scheme.k_groups
        edges += build_term_graph(h).edge_count()
    return seconds, groups, edges


def _distinct_bases(span) -> int:
    from lbcs.shadows import make_rng, sample_basis_labels

    _, _, beta, shots, seed = span.args
    labels = sample_basis_labels(beta, shots, make_rng(seed))
    return int(np.unique(labels, axis=0).shape[0])


# report name -> span whose durations are summed per traced cycle
SPAN_TOTALS = {
    "states.lanczos_ground_s": "states.lanczos_ground",
    "shadows.exact_variance_statevector_s": "shadows.exact_variance",
    "baselines.grouping_exact_variance_s": "baselines.grouping_exact_variance",
    "baselines.l1_exact_variance_s": "baselines.l1_exact_variance",
}
# report name -> (protocol span, command it must come from or None)
SHOT_RATES = {
    "shadows.run_protocol_lbcs_shots_per_s": ("shadows.run_protocol",
                                              "simulate-lbcs"),
    "shadows.run_protocol_shadows_shots_per_s": ("shadows.run_protocol",
                                                 "simulate-shadows"),
    "baselines.grouping_protocol_shots_per_s": ("baselines.grouping_protocol",
                                                None),
    "baselines.l1_protocol_shots_per_s": ("baselines.l1_protocol", None),
}


def report(instance: int, inputs, cycles) -> dict:
    """{"per_layer": name -> (value, unit) for BENCHMARK.json,
    "detail": every number this workload's commands reach}."""
    from lbcs.optimizer import cost_full, cost_multiref

    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]

    def wall(cycle):
        return sum(r["wall"] for r in cycle["ops"])

    def spans(name, op=None):
        return [s for c in traced for r in c["ops"] for s in r["spans"]
                if s.name == name and op in (None, r["op"])]

    def per_cycle(keep):
        """Median over traced cycles of the summed durations of kept spans."""
        return _median(sum(s.seconds for r in c["ops"] for s in r["spans"]
                           if keep(s)) for c in traced)

    def optimize_spans(kind):
        return [s for s in spans("optimizer.optimize") if s.args[1] == kind]

    command_s = _median(map(wall, traced))
    # the workload's Hamiltonians as the program parsed them, by file
    loaded = {s.args[0]: s.result
              for s in spans("hamiltonian.load_observable")}.values()
    counts = [pair_counts(h) for h in inputs.data.values()
              if isinstance(h, gen.Observable)]
    grouping_s, groups, edges = _probe_grouping(loaded)
    bases = {op: _median(map(_distinct_bases,
                             spans("shadows.run_protocol", op)))
             for op in ("simulate-lbcs", "simulate-shadows")}
    optimized = spans("optimizer.optimize")

    per_layer = {
        "cli.command_s": (command_s, "s"),
        "cli.self_s": (_median(wall(c) - sum(
            s.seconds for r in c["ops"] for s in r["spans"])
            for c in traced), "s"),
        "trace_overhead_frac": (command_s / _median(map(wall, plain)) - 1.0,
                                "frac"),
        "hamiltonian.load_observable_s": (_median(
            s.seconds for s in spans("hamiltonian.load_observable")), "s"),
        "hamiltonian.terms": (sum(h.num_terms() for h in loaded), "count"),
        "states_s": (per_cycle(lambda s: s.name.startswith("states.")), "s"),
        "shadows_s": (per_cycle(lambda s: s.name.startswith("shadows.")),
                      "s"),
        "states.born_probabilities_ms": (
            _probe_born(max(h.n for h in loaded), instance), "ms"),
        "baselines.build_grouping_s": (grouping_s, "s"),
        "baselines.groups": (groups, "count"),
        "baselines.graph_edges": (edges, "count"),
        "shadows.compatible_pairs": (sum(c[0] for c in counts), "count"),
        "shadows.distinct_products": (sum(c[1] for c in counts), "count"),
        "shadows.distinct_bases": (sum(v or 0 for v in bases.values()),
                                   "count"),
        "optimizer.iterations": (sum(s.result.iterations for s in optimized)
                                 // len(traced), "count"),
        "optimizer.floored_updates": (sum(s.result.floored_updates
                                          for s in optimized)
                                      // len(traced), "count"),
    }

    detail = {k: v for k, (v, _) in per_layer.items()}
    for layer in ("baselines", "optimizer"):
        total = per_cycle(lambda s: s.name.startswith(layer + "."))
        if total:
            detail[f"{layer}_s"] = total
    for key, name in SPAN_TOTALS.items():
        if spans(name):
            detail[key] = per_cycle(lambda s: s.name == name)
    for key, (name, op) in SHOT_RATES.items():
        if spans(name, op):
            detail[key] = _median(s.result.shots / s.seconds
                                  for s in spans(name, op))
    for op, count in bases.items():
        if count is not None:
            detail[f"shadows.distinct_bases_{op.split('-')[1]}"] = count
    for kind, cost in (("full", cost_full), ("diag", None),
                       ("multiref", cost_multiref)):
        done = optimize_spans(kind)
        if not done:
            continue
        detail[f"optimizer.optimize_{kind}_s"] = _median(
            s.seconds for s in done)
        detail[f"optimizer.iterations_{kind}"] = done[0].result.iterations
        if cost is not None:    # one direct call at the returned beta
            t0 = time.perf_counter()
            cost(done[0].args[0], done[0].kwargs["reference"],
                 done[0].result.beta)
            detail[f"optimizer.cost_{kind}_s"] = time.perf_counter() - t0
    if optimize_spans("multiref"):
        detail["optimizer.multiref_s_per_iteration"] = (
            detail["optimizer.optimize_multiref_s"]
            / detail["optimizer.iterations_multiref"])
    detail["cli.self_s_by_command"] = {
        op: _median(r["wall"] - sum(s.seconds for s in r["spans"])
                    for c in traced for r in c["ops"] if r["op"] == op)
        for op in (r["op"] for r in traced[0]["ops"])}
    return {"per_layer": per_layer, "detail": detail}
