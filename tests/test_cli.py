import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lbcs import cli, states
from lbcs.cli import build_parser, main
from lbcs.shadows import BetaDistribution


@pytest.fixture
def ham_xz(tmp_path):
    path = tmp_path / "h.txt"
    path.write_text("1.0 X\n1.0 Z\n")
    return str(path)


@pytest.fixture
def ham_2q(tmp_path):
    path = tmp_path / "h2.txt"
    path.write_text("1.0 ZI\n0.5 ZZ\n-0.25 XX\n")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestGround:
    def test_energy_and_residual(self, capsys, ham_xz):
        code, out = run(capsys, ["ground", "--hamiltonian", ham_xz])
        assert code == 0
        data = json.loads(out)
        assert data["energy"] == pytest.approx(-np.sqrt(2.0), abs=1e-10)
        assert data["residual"] < 1e-8
        assert "manifest" in data and data["manifest"]["command"] == "ground"

    def test_state_out(self, capsys, tmp_path, ham_xz):
        dump = tmp_path / "state.npy"
        code, _ = run(capsys, ["ground", "--hamiltonian", ham_xz,
                               "--state-out", str(dump)])
        assert code == 0
        amps = np.load(dump)
        assert np.linalg.norm(amps) == pytest.approx(1.0)

    def test_missing_file_is_input_error(self, capsys):
        code = main(["ground", "--hamiltonian", "/nonexistent/h.txt"])
        assert code == 1

    def test_malformed_file_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("oops\n")
        assert main(["ground", "--hamiltonian", str(bad)]) == 1


class TestOptimize:
    def test_diag_writes_beta(self, capsys, tmp_path, ham_xz):
        out_path = tmp_path / "beta.json"
        code, out = run(capsys, ["optimize", "--hamiltonian", ham_xz,
                                 "--cost", "diag", "--out", str(out_path)])
        assert code == 0
        data = json.loads(out)
        assert data["converged"] is True
        beta = BetaDistribution.load(out_path)
        assert np.allclose(beta.rows, [[0.5, 0.0, 0.5]], atol=1e-6)

    def test_full_requires_reference(self, capsys, ham_xz, tmp_path):
        code = main(["optimize", "--hamiltonian", ham_xz, "--cost", "full",
                     "--out", str(tmp_path / "b.json")])
        assert code == 1

    def test_full_with_reference(self, capsys, tmp_path, ham_2q):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"type": "single", "bits": "00"}))
        out_path = tmp_path / "beta.json"
        code, out = run(capsys, ["optimize", "--hamiltonian", ham_2q,
                                 "--cost", "full", "--reference", str(ref),
                                 "--out", str(out_path)])
        assert code == 0
        assert json.loads(out)["converged"] is True

    def test_nonconvergence_exit_code(self, capsys, tmp_path, ham_2q):
        ref = tmp_path / "ref.json"
        ref.write_text(json.dumps({"type": "single", "bits": "00"}))
        code = main(["optimize", "--hamiltonian", ham_2q, "--cost", "full",
                     "--reference", str(ref), "--max-iter", "1",
                     "--out", str(tmp_path / "b.json")])
        assert code == 2


class TestVariance:
    def test_json_rows(self, capsys, ham_xz):
        code, out = run(capsys, ["variance", "--hamiltonian", ham_xz,
                                 "--estimator", "l1,ldf,shadows"])
        assert code == 0
        rows = {r["estimator"]: r["variance"] for r in json.loads(out)["rows"]}
        assert rows["l1"] == pytest.approx(2.0, abs=1e-9)
        assert rows["shadows"] == pytest.approx(4.0, abs=1e-9)

    def test_csv_precision(self, capsys, ham_xz):
        code, out = run(capsys, ["variance", "--hamiltonian", ham_xz,
                                 "--estimator", "shadows", "--output", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "estimator,variance"
        name, value = lines[1].split(",")
        assert name == "shadows"
        assert len(value) <= 12  # 6 significant digits

    def test_csv_full_precision_round_trips(self, capsys, ham_xz):
        _, js = run(capsys, ["variance", "--hamiltonian", ham_xz,
                             "--estimator", "shadows"])
        want = json.loads(js)["rows"][0]["variance"]
        _, out = run(capsys, ["variance", "--hamiltonian", ham_xz,
                              "--estimator", "shadows", "--output", "csv",
                              "--full-precision"])
        got = float(out.strip().splitlines()[1].split(",")[1])
        assert got == want

    def test_lbcs_needs_beta(self, capsys, ham_xz):
        assert main(["variance", "--hamiltonian", ham_xz,
                     "--estimator", "lbcs"]) == 1

    def test_lbcs_with_beta_and_npy_state(self, capsys, tmp_path, ham_xz):
        beta_path = tmp_path / "beta.json"
        BetaDistribution(1, np.array([[0.0, 0.0, 1.0]])).save(beta_path)
        state_path = tmp_path / "state.npy"
        np.save(state_path, np.array([1.0, 0.0], dtype=complex))
        code, out = run(capsys, ["variance", "--hamiltonian", ham_xz,
                                 "--estimator", "lbcs",
                                 "--beta", str(beta_path),
                                 "--state", str(state_path)])
        # beta concentrates on Z but the X term needs beta(X) > 0
        assert code == 2

    def test_divergence_free_beta(self, capsys, tmp_path, ham_xz):
        beta_path = tmp_path / "beta.json"
        BetaDistribution(1, np.array([[0.5, 0.0, 0.5]])).save(beta_path)
        state_path = tmp_path / "state.npy"
        np.save(state_path, np.array([1.0, 0.0], dtype=complex))
        code, out = run(capsys, ["variance", "--hamiltonian", ham_xz,
                                 "--estimator", "lbcs",
                                 "--beta", str(beta_path),
                                 "--state", str(state_path)])
        assert code == 0
        rows = json.loads(out)["rows"]
        # Var = 1/0.5 + 1/0.5 - <H0>^2 = 4 - 1 = 3 on |0>
        assert rows[0]["variance"] == pytest.approx(3.0, abs=1e-9)


class TestSimulate:
    def test_deterministic(self, capsys, ham_xz):
        argv = ["simulate", "--hamiltonian", ham_xz, "--estimator", "shadows",
                "--shots", "2000", "--seed", "7"]
        _, out1 = run(capsys, argv)
        _, out2 = run(capsys, argv)
        assert out1 == out2
        data = json.loads(out1)
        assert data["shots"] == 2000
        assert data["seed"] == 7

    def test_mean_near_ground_energy(self, capsys, ham_xz):
        _, out = run(capsys, ["simulate", "--hamiltonian", ham_xz,
                              "--estimator", "l1", "--shots", "200000"])
        data = json.loads(out)
        assert data["mean"] == pytest.approx(-np.sqrt(2.0), abs=0.05)


class TestGroup:
    def test_counts_and_bound(self, capsys, tmp_path):
        path = tmp_path / "h.txt"
        path.write_text("1.0 X\n1.0 Y\n1.0 Z\n")
        code, out = run(capsys, ["group", "--hamiltonian", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["groups"] == 3
        assert data["max_degree"] == 2
        assert data["bound_holds"] is True

    def test_term_graph_built_once(self, capsys, monkeypatch, ham_2q):
        from lbcs import baselines

        graphs = []
        build = baselines.build_term_graph

        def counted(h):
            graphs.append(build(h))
            return graphs[-1]

        monkeypatch.setattr(baselines, "build_term_graph", counted)
        monkeypatch.setattr(cli, "build_term_graph", counted)
        code, out = run(capsys, ["group", "--hamiltonian", ham_2q])
        assert code == 0
        assert len(graphs) == 1
        assert json.loads(out)["max_degree"] == graphs[0].max_degree()

    def test_scheme_out_reusable(self, capsys, tmp_path, ham_2q):
        scheme_path = tmp_path / "scheme.json"
        code, _ = run(capsys, ["group", "--hamiltonian", ham_2q,
                               "--out", str(scheme_path)])
        assert code == 0
        code, out = run(capsys, ["variance", "--hamiltonian", ham_2q,
                                 "--estimator", "ldf",
                                 "--scheme", str(scheme_path)])
        assert code == 0


class TestCompare:
    def test_rows_and_manifest(self, capsys, ham_xz):
        code, out = run(capsys, ["compare", "--hamiltonian", ham_xz,
                                 "--bits", "0"])
        assert code == 0
        data = json.loads(out)
        rows = {r["estimator"]: r["variance"] for r in data["rows"]}
        assert set(rows) == {"l1", "ldf", "shadows", "lbcs", "lbcs_diag"}
        assert rows["l1"] == pytest.approx(2.0, abs=1e-9)
        assert data["manifest"]["config"]["ground_energy"] == \
            pytest.approx(-np.sqrt(2.0), abs=1e-9)

    def test_reference_and_bits_are_exclusive(self, capsys, ham_xz):
        with pytest.raises(SystemExit):
            main(["compare", "--hamiltonian", ham_xz])


# -- error paths ------------------------------------------------------------

H3 = "1.0 XX\n0.5 ZZ\n0.3 ZI\n"     # E0 = -1.5440
H70 = "1.0 " + "Z" * 70 + "\n"       # more qubits than a uint64 mask holds

NAN = float("nan")
# name -> (scheme JSON, a fragment the error line must contain)
BAD_SCHEMES = {
    "only-XX": ({"collections": [["XX"]], "bases": ["XX"], "kappa": [1.0]},
                "term ZZ 0 times"),
    "XX-twice": ({"collections": [["XX"], ["XX"], ["ZZ", "ZI"]],
                  "bases": ["XX", "XX", "ZZ"], "kappa": [0.25, 0.25, 0.5]},
                 "term XX 2 times"),
    "XY": ({"collections": [["XY"], ["XX"], ["ZZ", "ZI"]],
            "bases": ["XY", "XX", "ZZ"], "kappa": [0.2, 0.3, 0.5]},
           "XY is not"),
    "3-qubits": ({"collections": [["XXI"], ["ZZI", "ZII"]],
                  "bases": ["XXZ", "ZZZ"], "kappa": [0.5, 0.5]},
                 "XXI is not a term of the 2-qubit"),
    "empty": ({"collections": [], "bases": [], "kappa": []},
              "no bases"),
    "no-kappa": ({"collections": [["XX"]], "bases": ["XX"]}, "'kappa'"),
    "short-kappa": ({"collections": [["XX"], ["ZZ", "ZI"]],
                     "bases": ["XX", "ZZ"], "kappa": [1.0]},
                    "must align"),
    "kappa-sum": ({"collections": [["XX"], ["ZZ", "ZI"]],
                   "bases": ["XX", "ZZ"], "kappa": [0.5, 0.4]},
                  "probability vector"),
    "kappa-nan": ({"collections": [["XX"], ["ZZ", "ZI"]],
                   "bases": ["XX", "ZZ"], "kappa": [NAN, 1.0]},
                  "probability vector"),
    "zero-kappa": ({"collections": [["XX"], ["ZZ", "ZI"]],
                    "bases": ["XX", "ZZ"], "kappa": [1.0, 0.0]},
                   "collection 1 is nonempty but has zero sampling weight"),
    "wrong-basis": ({"collections": [["XX"], ["ZZ", "ZI"]],
                     "bases": ["XZ", "ZZ"], "kappa": [0.5, 0.5]},
                    "does not agree"),
    "scalar-kappa": ({"collections": [["XX", "ZZ", "ZI"]],
                      "bases": ["XX"], "kappa": 1.0},
                     "kappa must be a list"),
    "top-level-list": ([["XX"], ["ZZ", "ZI"]], "JSON object"),
    "non-string": ({"collections": [[1]], "bases": ["XX"], "kappa": [1.0]},
                   "1 is not a Pauli string"),
    "empty-collection-4-qubit-basis": (
        {"collections": [["XX"], ["ZZ", "ZI"], []],
         "bases": ["XX", "ZZ", "XXXX"], "kappa": [0.5, 0.5, 0.0]},
        "basis 2 (XXXX) is not a full-weight 2-qubit string"),
    "empty-collection-identity-basis": (
        {"collections": [["XX"], ["ZZ", "ZI"], []],
         "bases": ["XX", "ZZ", "II"], "kappa": [0.5, 0.5, 0.0]},
        "basis 2 (II) is not a full-weight 2-qubit string"),
}
SCHEME_COMMANDS = {
    "variance": ["variance", "--estimator", "ldf"],
    "simulate": ["simulate", "--estimator", "ldf", "--shots", "100"],
}
# name -> (beta JSON, fragment)
BAD_BETAS = {
    "beta-empty": ({}, "no 'n' key"),
    "beta-list": ([1], "JSON object"),
    "beta-no-rows": ({"n": 2}, "no 'rows' key"),
    "beta-nan": ({"n": 2, "rows": [[NAN, 0.5, 0.5], [0.5, 0.0, 0.5]]},
                 "finite"),
    "beta-3-qubits": ({"n": 3, "rows": [[1 / 3] * 3] * 3},
                      "beta file has 3 qubits, Hamiltonian has 2"),
}
BETA_COMMANDS = {
    "variance": ["variance", "--estimator", "lbcs"],
    "simulate": ["simulate", "--estimator", "lbcs", "--shots", "10"],
}
# name -> (reference JSON, fragment)
BAD_REFERENCES = {
    "ref-single-no-bits": ({"type": "single"}, "no 'bits' key"),
    "ref-list": ([1], "JSON object"),
    "ref-short-amplitude": ({"type": "multi", "components": [
        {"bits": "00", "amplitude": [1]}]}, "malformed multi reference"),
    "ref-no-amplitude": ({"type": "multi", "components": [{"bits": "00"}]},
                         "no 'amplitude' key"),
    "ref-nan": ({"type": "multi", "components": [
        {"bits": "00", "amplitude": [NAN, 0.0]},
        {"bits": "11", "amplitude": [1.0, 0.0]}]}, "finite"),
}
REFERENCE_COMMANDS = {
    "optimize": ["optimize", "--cost", "multiref", "--out", "{tmp}/b.json"],
    "compare": ["compare"],
}
STATE_COMMANDS = {
    "variance": ["variance", "--estimator", "l1,shadows"],
    "simulate": ["simulate", "--estimator", "shadows", "--shots", "10"],
}
# (argv after --hamiltonian, Hamiltonian text, {file name: JSON or .npy
# content} written next to it, fragment); "{tmp}" in argv is that folder
ERROR_CASES = [
    pytest.param(argv + ["--scheme", "{tmp}/scheme.json"], H3,
                 {"scheme.json": scheme}, fragment, id=f"{command}-{name}")
    for name, (scheme, fragment) in BAD_SCHEMES.items()
    for command, argv in SCHEME_COMMANDS.items()
] + [
    pytest.param(argv + ["--beta", "{tmp}/beta.json"], H3,
                 {"beta.json": beta}, fragment, id=f"{command}-{name}")
    for name, (beta, fragment) in BAD_BETAS.items()
    for command, argv in BETA_COMMANDS.items()
] + [
    pytest.param(argv + ["--reference", "{tmp}/ref.json"], H3,
                 {"ref.json": ref}, fragment, id=f"{command}-{name}")
    for name, (ref, fragment) in BAD_REFERENCES.items()
    for command, argv in REFERENCE_COMMANDS.items()
] + [
    pytest.param(argv + ["--state", "{tmp}/v.npy"], H3,
                 {"v.npy": np.array([NAN, 1.0, 0.0, 0.0], dtype=complex)},
                 "finite", id=f"{command}-state-nan")
    for command, argv in STATE_COMMANDS.items()
] + [
    pytest.param(argv, H3, {}, "--beta is required", id=f"{command}-no-beta")
    for command, argv in BETA_COMMANDS.items()
] + [
    pytest.param(["variance", "--estimator", "l1,bogus"], H3, {},
                 "unknown estimator 'bogus'", id="variance-unknown-estimator"),
    pytest.param(["variance", "--estimator", ","], H3, {},
                 "no estimator given", id="variance-estimator-comma"),
    pytest.param(["variance", "--estimator", ""], H3, {},
                 "no estimator given", id="variance-estimator-empty"),
    pytest.param(["optimize", "--cost", "diag", "--out", "{tmp}/beta.json"],
                 H70, {}, "70 qubits", id="optimize-70-qubits"),
    pytest.param(["group"], H70, {}, "70 qubits", id="group-70-qubits"),
    pytest.param(["optimize", "--cost", "diag", "--max-iter", "0",
                  "--out", "{tmp}/beta.json"], H3, {}, "max_iterations",
                 id="optimize-max-iter-0"),
    pytest.param(["compare", "--bits", "00", "--delta", "2"], H3, {},
                 "step must lie in (0, 1)", id="compare-delta-2"),
    pytest.param(["compare", "--bits", "11111"], H3, {},
                 "reference state size mismatch", id="compare-bits-5-qubits"),
    pytest.param(["simulate", "--estimator", "l1", "--shots", "0"], H3, {},
                 "shots must be >= 1", id="simulate-0-shots"),
]


def no_eigensolve(*args, **kwargs):
    raise AssertionError("inputs must be checked before the eigensolve")


@pytest.mark.parametrize("argv,hamiltonian,files,fragment", ERROR_CASES)
def test_malformed_input_exits_1_with_one_error_line(
        capsys, monkeypatch, tmp_path, argv, hamiltonian, files, fragment):
    monkeypatch.setattr(cli, "lanczos_ground", no_eigensolve)
    path = tmp_path / "h.txt"
    path.write_text(hamiltonian)
    for name, content in files.items():
        if name.endswith(".npy"):
            np.save(tmp_path / name, content)
        else:
            (tmp_path / name).write_text(json.dumps(content))
    argv = [a.format(tmp=tmp_path) for a in argv]
    argv[1:1] = ["--hamiltonian", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert fragment in captured.err


H4 = "1.0 ZZII\n0.5 XIXI\n-0.3 IYYZ\n"


@pytest.mark.parametrize("argv", [
    ["variance"],
    ["simulate", "--estimator", "l1", "--shots", "10",
     "--state", "{tmp}/v.npy"],
    ["ground"],
    ["compare", "--bits", "0000"],
], ids=["variance-ground", "simulate-npy", "ground", "compare"])
def test_statevector_size_limit_exits_2(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.setattr(states, "LANCZOS_QUBIT_LIMIT", 3)
    (tmp_path / "h.txt").write_text(H4)
    # a dump of the wrong size: the limit is checked before it is read
    np.save(tmp_path / "v.npy", np.ones(3))
    argv = [a.format(tmp=tmp_path) for a in argv]
    argv[1:1] = ["--hamiltonian", str(tmp_path / "h.txt")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: a 4-qubit statevector is above the "
                            "limit of 3 qubits\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--estimator", "lbcs", "--shots", "100"],
    ["variance", "--estimator", "l1,lbcs"],
], ids=["simulate", "variance"])
def test_divergent_beta_exits_2_before_the_eigensolve(
        capsys, monkeypatch, tmp_path, argv):
    # beta(X) = 0 on qubit 1, where the term XI needs it
    monkeypatch.setattr(cli, "lanczos_ground", no_eigensolve)
    (tmp_path / "h.txt").write_text("1.0 XI\n0.5 ZZ\n")
    BetaDistribution(2, np.array([[0.0, 0.5, 0.5], [0.2, 0.3, 0.5]])).save(
        tmp_path / "beta.json")
    code = main(argv + ["--hamiltonian", str(tmp_path / "h.txt"),
                        "--beta", str(tmp_path / "beta.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: beta(X) vanishes on qubit 1 but a "
                            "Hamiltonian term is supported there; the "
                            "variance diverges\n")


SRC = Path(__file__).resolve().parent.parent / "src"
H6 = "1.0 ZZIIII\n0.5 XIXIII\n-0.3 IYYZII\n0.7 IIIXXZ\n0.2 ZIIIIY\n"


def scipy_modules_after(argv, folder):
    """The scipy modules a fresh interpreter holds after ``import lbcs,
    lbcs.cli`` and, when ``argv`` is given, one ``cli.main(argv)`` call
    that must exit 0."""
    script = (
        "import contextlib, io, json, sys\n"
        "import lbcs, lbcs.cli\n"
        f"argv = {argv!r}\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert lbcs.cli.main(argv) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n")
    path = os.pathsep.join(filter(None, [str(SRC),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], cwd=folder,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


NO_SOLVE_COMMANDS = {
    "import": None,
    **{f"simulate-{est}": ["simulate", "--estimator", est, "--shots", "300",
                           "--state", "v.npy", "--beta", "beta.json"]
       for est in ("l1", "ldf", "shadows", "lbcs")},
    "variance": ["variance", "--estimator", "l1,ldf,shadows,lbcs",
                 "--state", "v.npy", "--beta", "beta.json"],
    "group": ["group"],
    "optimize-diag": ["optimize", "--cost", "diag", "--out", "b.json"],
}


@pytest.fixture
def h6_inputs(tmp_path):
    (tmp_path / "h.txt").write_text(H6)
    amps = np.random.default_rng(6).standard_normal(64)
    np.save(tmp_path / "v.npy", amps / np.linalg.norm(amps))
    BetaDistribution(6, np.full((6, 3), 1 / 3)).save(tmp_path / "beta.json")
    return tmp_path


@pytest.mark.parametrize("argv", NO_SOLVE_COMMANDS.values(),
                         ids=NO_SOLVE_COMMANDS.keys())
def test_commands_without_eigensolve_load_no_scipy(h6_inputs, argv):
    if argv:
        argv = argv[:1] + ["--hamiltonian", "h.txt"] + argv[1:]
    assert scipy_modules_after(argv, h6_inputs) == []


def test_eigensolve_loads_scipy(h6_inputs):
    # the control of the test above: a 64-amplitude ground state is
    # solved by eigsh
    assert "scipy.sparse.linalg" in scipy_modules_after(
        ["ground", "--hamiltonian", "h.txt"], h6_inputs)


@pytest.mark.parametrize("name,fragment", [
    ("v.npy", "expected 16 amplitudes, got (4, 4)"),
    ("v.npz", "v.npz does not hold one .npy array"),
])
def test_state_dump_of_wrong_form_exits_1(capsys, tmp_path, name, fragment):
    (tmp_path / "h.txt").write_text(H4)
    with open(tmp_path / name, "wb") as fh:
        (np.save if name.endswith(".npy") else np.savez)(
            fh, np.ones((4, 4)) / 4)
    code = main(["simulate", "--hamiltonian", str(tmp_path / "h.txt"),
                 "--estimator", "l1", "--shots", "10",
                 "--state", str(tmp_path / name)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert fragment in captured.err


def test_partitioning_scheme_accepted(capsys, tmp_path):
    path = tmp_path / "h.txt"
    path.write_text(H3)
    scheme = tmp_path / "scheme.json"
    scheme.write_text(json.dumps({"collections": [["XX"], ["ZI", "ZZ"]],
                                  "bases": ["XX", "ZZ"],
                                  "kappa": [5 / 9, 4 / 9]}))
    code, out = run(capsys, ["simulate", "--hamiltonian", str(path),
                             "--estimator", "ldf", "--scheme", str(scheme),
                             "--shots", "20000", "--seed", "5"])
    assert code == 0
    # the exact single-shot variance is 0.3749
    assert json.loads(out)["mean"] == pytest.approx(-1.5440, abs=0.03)


def test_every_option_is_documented():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (commands,) = [a.choices for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    options = {opt for p in commands.values() for a in p._actions
               for opt in a.option_strings if opt not in ("-h", "--help")}
    missing = [opt for opt in sorted(options)
               if not re.search(re.escape(opt) + r"(?![\w-])", readme)]
    assert missing == []
