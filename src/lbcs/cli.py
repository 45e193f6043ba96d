"""Command-line front end.

Subcommands: ground, optimize, variance, simulate, group, compare.
Every run is deterministic given (inputs, flags, seed); JSON outputs
embed a manifest with input digests and the seed used.  Exit codes:
0 success, 1 input/parse error, 2 numerical failure or an input above a
size limit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys

import numpy as np

from . import __version__
from .baselines import (GroupingError, GroupingScheme, SizeLimitError,
                        build_grouping, build_term_graph, collection_l1,
                        grouping_exact_variance, grouping_protocol,
                        l1_exact_variance, l1_protocol, ldf_coloring)
from .hamiltonian import (HamiltonianFormatError, ObservableSum, l1_norm,
                          load_observable)
from .optimizer import OptimizerConfig, optimize
from .pauli import PauliError
from .shadows import (BetaDistribution, DivergenceError, _check_divergence,
                      exact_variance, run_protocol, uniform_beta)
from .states import (ConvergenceError, SingleReference, StateError,
                     StateVector, apply_observable_raw,
                     check_statevector_qubits, lanczos_ground,
                     load_reference)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2
ESTIMATORS = ("l1", "ldf", "shadows", "lbcs")


def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _manifest(command, inputs, seed=None, config=None) -> dict:
    manifest = {
        "command": command,
        "version": __version__,
        "inputs": {str(p): _digest(p) for p in inputs if p},
    }
    if seed is not None:
        manifest["seed"] = seed
    if config:
        manifest["config"] = config
    return manifest


def _fmt(x: float, full: bool) -> str:
    return format(float(x), ".17g" if full else ".6g")


def _resolve_state(h: ObservableSum, spec: str, tol: float, max_iter: int,
                   seed: int):
    """'ground' triggers a seeded eigensolve; anything else is an
    amplitude dump (.npy) path, whose shape is read from its header
    before its data.  Both check the qubit limit first."""
    if spec == "ground":
        energy, state = lanczos_ground(h, tolerance=tol,
                                       max_iterations=max_iter, seed=seed)
        return state, energy
    check_statevector_qubits(h.n)
    amps = np.load(spec, mmap_mode="r")
    if not isinstance(amps, np.ndarray):
        raise StateError(f"{spec} does not hold one .npy array")
    if amps.shape != (1 << h.n,):
        raise StateError(
            f"expected {1 << h.n} amplitudes, got {amps.shape}")
    return StateVector(h.n, np.array(amps, dtype=complex)), None


def _load_beta(path, n) -> BetaDistribution:
    if not path:
        raise HamiltonianFormatError(
            "--beta is required for the lbcs estimator")
    beta = BetaDistribution.load(path)
    if beta.n != n:
        raise HamiltonianFormatError(
            f"beta file has {beta.n} qubits, Hamiltonian has {n}")
    return beta


# -- subcommands ----------------------------------------------------------

def cmd_ground(args) -> int:
    h = load_observable(args.hamiltonian)
    energy, state = lanczos_ground(h, tolerance=args.tol,
                                   max_iterations=args.max_iter,
                                   seed=args.seed)
    residual = float(np.linalg.norm(
        apply_observable_raw(h, state.amplitudes) - energy * state.amplitudes))
    if args.state_out:
        np.save(args.state_out, state.amplitudes)
    out = {
        "energy": energy,
        "residual": residual,
        "manifest": _manifest("ground", [args.hamiltonian], seed=args.seed),
    }
    print(json.dumps(out, indent=1))
    return EXIT_OK


def cmd_optimize(args) -> int:
    h = load_observable(args.hamiltonian)
    reference = None
    if args.cost in ("full", "multiref"):
        if not args.reference:
            raise HamiltonianFormatError(
                f"--reference is required for the {args.cost} cost")
        reference = load_reference(args.reference)
    config = OptimizerConfig(step=args.delta, tolerance=args.tol,
                             max_iterations=args.max_iter)
    result = optimize(h, args.cost, config, reference=reference)
    result.beta.save(args.out)
    payload = result.to_dict()
    payload["manifest"] = _manifest(
        "optimize", [args.hamiltonian, args.reference], seed=args.seed,
        config={"cost": args.cost, "delta": args.delta, "tol": args.tol,
                "max_iter": args.max_iter})
    print(json.dumps(payload, indent=1))
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def _variance_rows(h, estimators, state, beta, scheme):
    rows = []
    for name in estimators:
        if name == "l1":
            rows.append(("l1", l1_exact_variance(h, state)))
        elif name == "ldf":
            sch = scheme if scheme is not None else build_grouping(h)
            rows.append(("ldf", grouping_exact_variance(h, sch, state)))
        elif name == "shadows":
            rows.append(("shadows",
                         exact_variance(h, state, uniform_beta(h.n))))
        else:
            rows.append(("lbcs", exact_variance(h, state, beta)))
    return rows


def _emit_rows(rows, header, args, manifest):
    """CSV prints 6 significant digits by default; --full-precision
    switches to 17, making CSV and JSON numbers round-trip identical."""
    full = getattr(args, "full_precision", False)
    if args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[0]] + [_fmt(x, full) for x in row[1:]])
        sys.stdout.write(buf.getvalue())
    else:
        payload = {
            "rows": [dict(zip(header, row)) for row in rows],
            "manifest": manifest,
        }
        print(json.dumps(payload, indent=1))


def cmd_variance(args) -> int:
    h = load_observable(args.hamiltonian)
    estimators = [e.strip() for e in args.estimator.split(",") if e.strip()]
    if not estimators:
        raise HamiltonianFormatError("no estimator given")
    for name in estimators:
        if name not in ESTIMATORS:
            raise HamiltonianFormatError(f"unknown estimator {name!r}")
    beta = (_load_beta(args.beta, h.n)
            if args.beta or "lbcs" in estimators else None)
    if "lbcs" in estimators:
        _check_divergence(h, beta)
    scheme = GroupingScheme.load(args.scheme, h) if args.scheme else None
    state, _ = _resolve_state(h, args.state, args.tol, args.max_iter,
                              args.seed)
    rows = _variance_rows(h, estimators, state, beta, scheme)
    manifest = _manifest("variance",
                         [args.hamiltonian, args.beta, args.scheme],
                         seed=args.seed)
    _emit_rows(rows, ["estimator", "variance"], args, manifest)
    return EXIT_OK


def cmd_simulate(args) -> int:
    h = load_observable(args.hamiltonian)
    beta = (_load_beta(args.beta, h.n) if args.estimator == "lbcs"
            else uniform_beta(h.n))
    _check_divergence(h, beta)
    scheme = (GroupingScheme.load(args.scheme, h)
              if args.estimator == "ldf" and args.scheme else None)
    if args.shots < 1:
        raise ValueError("shots must be >= 1")
    state, _ = _resolve_state(h, args.state, args.tol, args.max_iter,
                              args.seed)
    if args.estimator == "l1":
        report = l1_protocol(h, state, args.shots, args.seed)
    elif args.estimator == "ldf":
        if scheme is None:
            scheme = build_grouping(h)
        report = grouping_protocol(h, scheme, state, args.shots, args.seed)
    else:
        report = run_protocol(h, state, beta, args.shots, args.seed)
    payload = report.to_dict()
    payload["manifest"] = _manifest(
        "simulate", [args.hamiltonian, args.beta, args.scheme],
        seed=args.seed, config={"estimator": args.estimator,
                                "shots": args.shots})
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def cmd_group(args) -> int:
    h = load_observable(args.hamiltonian)
    graph = build_term_graph(h)
    scheme = GroupingScheme.of_collections(h, ldf_coloring(graph))
    if args.out:
        scheme.save(args.out)
    payload = {
        "groups": scheme.k_groups,
        "max_degree": graph.max_degree(),
        "bound_holds": scheme.k_groups <= 1 + graph.max_degree(),
        "per_group_l1": collection_l1(h, scheme.collections).tolist(),
        "total_l1": l1_norm(h),
        "manifest": _manifest("group", [args.hamiltonian]),
    }
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def cmd_compare(args) -> int:
    h = load_observable(args.hamiltonian)
    reference = load_reference(args.reference) if args.reference else \
        SingleReference.from_bits(args.bits)
    if not isinstance(reference, SingleReference):
        raise HamiltonianFormatError(
            "compare requires a single-reference state")
    if reference.n != h.n:
        raise ValueError("reference state size mismatch")
    config = OptimizerConfig(step=args.delta)
    energy, state = lanczos_ground(h, tolerance=args.tol,
                                   max_iterations=args.max_iter,
                                   seed=args.seed)
    scheme = build_grouping(h)
    full = optimize(h, "full", config, reference=reference)
    diag = optimize(h, "diag", config)
    rows = [
        ("l1", l1_exact_variance(h, state)),
        ("ldf", grouping_exact_variance(h, scheme, state)),
        ("shadows", exact_variance(h, state, uniform_beta(h.n))),
        ("lbcs", exact_variance(h, state, full.beta)),
        ("lbcs_diag", exact_variance(h, state, diag.beta)),
    ]
    manifest = _manifest("compare", [args.hamiltonian, args.reference],
                         seed=args.seed,
                         config={"ground_energy": energy,
                                 "groups": scheme.k_groups,
                                 "full_converged": full.converged,
                                 "diag_converged": diag.converged})
    _emit_rows(rows, ["estimator", "variance"], args, manifest)
    return EXIT_OK


# -- parser ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lbcs",
        description="Measurement-bias optimization and variance comparison "
                    "for Pauli-sum observable estimation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--hamiltonian", required=True)
        if seed:
            p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ground", help="seeded ground-state eigensolve")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--state-out", default=None,
                   help="write the amplitude vector as .npy")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("optimize", help="tune the per-qubit bias")
    common(p)
    p.add_argument("--cost", choices=["diag", "full", "multiref"],
                   default="diag")
    p.add_argument("--reference", default=None,
                   help="reference-state JSON (full/multiref costs)")
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--out", required=True, help="output beta JSON")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("variance", help="exact single-shot variance table")
    common(p)
    p.add_argument("--estimator", default="l1,ldf,shadows",
                   help="comma list from l1, ldf, shadows, lbcs")
    p.add_argument("--beta", default=None)
    p.add_argument("--scheme", default=None,
                   help="precomputed grouping JSON (bypasses LDF)")
    p.add_argument("--state", default="ground",
                   help="'ground' or a .npy amplitude dump")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", help="Monte Carlo estimate")
    common(p)
    p.add_argument("--estimator", required=True, choices=ESTIMATORS)
    p.add_argument("--beta", default=None)
    p.add_argument("--scheme", default=None)
    p.add_argument("--state", default="ground")
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("group", help="LDF qubit-wise-commuting grouping")
    common(p, seed=False)
    p.add_argument("--out", default=None, help="grouping scheme JSON")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("compare", help="variance rows for all estimators")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--reference", help="reference-state JSON")
    group.add_argument("--bits", help="reference bitstring, e.g. 1100")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--delta", type=float, default=0.5)
    p.add_argument("--output", choices=["json", "csv"], default="json")
    p.add_argument("--full-precision", action="store_true")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, ConvergenceError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (HamiltonianFormatError, PauliError, StateError, GroupingError,
            OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
