"""Tests of the benchmark itself:  python3 -m pytest perfbench"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def cli():
    return run._import_lbcs()


# -- generators -----------------------------------------------------------

@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_inputs_deterministic_and_seeded(tmp_path, workload):
    digests = []
    for k, seed in enumerate((3, 3, 4)):
        d = tmp_path / str(k)
        d.mkdir()
        digests.append(wl.make_inputs(workload, seed, d).digests)
    assert digests[0] == digests[1]
    changed = {r for r in digests[0] if digests[0][r] != digests[2][r]}
    assert changed == set(digests[0]) - {"reference"}   # K = 2 is fixed


@pytest.mark.parametrize("make", [lambda s: gen.random_local(6, 40, s),
                                  lambda s: gen.molecule_like(6, s)])
def test_seed_moves_numbers_not_shape(make):
    a, b = make(3), make(4)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.z, b.z)
    change = np.abs(a.coeffs - b.coeffs) / np.abs(a.coeffs)
    assert 0 < np.median(change) < 10 * gen.PERTURBATION


def test_seed_selects_instance():
    assert wl.instance_of(5) == wl.instance_of(5 + wl.INSTANCES) == 5


def test_jordan_wigner_matches_second_quantisation():
    n, m = 4, 2
    h = gen.molecule_like(n, 7)
    h1, g = gen.molecule_integrals(m, 7)
    zed, eye = np.diag([1.0, -1.0]), np.eye(2)
    create = np.array([[0.0, 0.0], [1.0, 0.0]])        # |1><0|
    a = [reduce(np.kron, [zed] * p + [create] + [eye] * (n - p - 1))
         for p in range(n)]
    want = np.zeros((1 << n, 1 << n))
    for i in range(n):
        for j in range(n):
            if i % 2 == j % 2:
                want += h1[i // 2, j // 2] * a[i] @ a[j].T
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if i % 2 == l % 2 and j % 2 == k % 2:
                        want += 0.5 * g[i // 2, l // 2, j // 2, k // 2] * (
                            a[i] @ a[j] @ a[k].T @ a[l].T)
    assert np.abs(h.dense() - want).max() < 1e-12


def test_expectation_matches_dense():
    h = gen.random_local(5, 30, 2)
    psi = gen.random_state(5, 2)
    dense = np.vdot(psi, h.dense() @ psi).real
    assert h.expectation(psi) == pytest.approx(dense, abs=1e-12)


def test_multiref_moment_matches_program(cli):
    from lbcs.hamiltonian import parse_observable
    from lbcs.optimizer import cost_multiref
    from lbcs.shadows import BetaDistribution
    from lbcs.states import reference_from_dict

    h = gen.molecule_like(4, 1)
    ref = gen.multireference([("1100", 0.8), ("0011", 0.6)])
    rows = np.array(gen.concentrated_beta(4, 1)["rows"])
    want = cost_multiref(parse_observable(h.to_text()),
                         reference_from_dict(ref), BetaDistribution(4, rows))
    assert wl.multiref_second_moment(h, ref, rows) == pytest.approx(
        want, rel=1e-12)


# -- operations -----------------------------------------------------------

def _ops(tmp_path, workload, instance=0):
    inputs = wl.make_inputs(workload, instance, tmp_path)
    return wl.make_ops(workload, instance, inputs, None)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_and_untraced_runs_execute_same_operations(tmp_path,
                                                         workload):
    ops = _ops(tmp_path, workload)
    seen = []
    fake = SimpleNamespace(main=lambda argv: seen.append(list(argv)) or 0)
    plain = run.measure(fake, ops, 0, False)
    traced = run.measure(fake, ops, 0, True)
    assert [c["traced"] for c in traced] == [False, True]
    cycle = [op.argv for op in ops]
    assert seen == cycle * (len(plain) + len(traced))


def test_perturbed_result_counts_as_failed(tmp_path, cli, monkeypatch):
    inputs = wl.make_inputs("simulate-rand12", 0, tmp_path)
    ref = wl.references("simulate-rand12", inputs)
    pin = wl.pinned("simulate-rand12", 0)
    assert pin is not None
    op = next(o for o in wl.make_ops("simulate-rand12", 0, inputs, pin)
              if o.name == "simulate-l1")
    (good,) = run.measure(cli, [op], 0, False)
    run.check_cycles([op], [good], ref)
    assert good["ops"][0]["error"] is None

    original = cli.l1_protocol

    def perturbed(*args, **kwargs):
        report = original(*args, **kwargs)
        return type(report)(report.mean * (1 + 1e-9), report.variance,
                            report.shots, report.seed)

    monkeypatch.setattr(cli, "l1_protocol", perturbed)
    (bad,) = run.measure(cli, [op], 0, False)
    run.check_cycles([op], [bad], ref)
    assert "pinned l1 mean" in bad["ops"][0]["error"]


def test_failed_exit_code_counts_as_failed(tmp_path, cli):
    op = _ops(tmp_path, "compare-optimize-mol")[1]
    broken = wl.Op(op.name, op.argv + ["--delta", "2"], op.check)
    (cycle,) = run.measure(cli, [broken], 0, False)
    run.check_cycles([broken], [cycle], {})
    assert cycle["ops"][0]["error"].startswith("exit code 1: error: step")


# -- output contract ------------------------------------------------------

def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_metric_names_match_benchmark_json(cli):
    base = ["--workload", "compare-optimize-mol", "--seed", "1",
            "--seconds", "0"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        report, result = _result(base + ["--trace", trace])
        assert result["correct"] and result["failed"] == 0, report
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want


def test_fails_without_pinned_values(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(wl, "PINNED_PATH", tmp_path / "pinned.json")
    assert run.main(["--workload", "simulate-rand12", "--seed", "0",
                     "--seconds", "0"]) != 0
    assert capsys.readouterr().out == ""


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "simulate-rand12",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
