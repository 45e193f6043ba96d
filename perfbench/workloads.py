"""The benchmark's workloads: generated inputs, commands and output checks.

Each workload turns an instance number into input files (with the
generators in ``gen``, never with ``lbcs``), a list of ``lbcs`` command
lines run in order as one cycle, and a check for every command's output.
Checks compare against values pinned from the seed code and against
quantities the benchmark computes itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

PINNED_PATH = Path(__file__).with_name("pinned.json")
INSTANCES = 32          # the seed picks instance seed % INSTANCES
PIN_RTOL = 1e-10
MC_SIGMAS = 5.0

MOL10_BITS = "1111100000"
MOL8_COMPONENTS = (("11110000", 0.9), ("11001100", -0.3))
SIM_SHOTS = {"lbcs": 20_000, "shadows": 20_000, "ldf": 2_000_000,
             "l1": 2_000_000}


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    argv: list
    check: object   # callable(payload, references) -> None, raises CheckFailed


@dataclass
class Inputs:
    files: dict = field(default_factory=dict)      # role -> path
    digests: dict = field(default_factory=dict)    # role -> sha256
    data: dict = field(default_factory=dict)       # generated objects


def instance_of(seed: int) -> int:
    return seed % INSTANCES


def _write(inputs: Inputs, role: str, path: Path, data: bytes):
    path.write_bytes(data)
    inputs.files[role] = str(path)
    inputs.digests[role] = gen.digest(data)


# -- input generation -----------------------------------------------------

def make_inputs(workload: str, instance: int, workdir: Path) -> Inputs:
    inputs = Inputs()
    if workload == "compare-optimize-mol":
        mol10 = gen.molecule_like(10, instance)
        mol8 = gen.molecule_like(8, instance)
        ref = gen.multireference(MOL8_COMPONENTS)
        _write(inputs, "mol10", workdir / "mol10.txt",
               mol10.to_text().encode())
        _write(inputs, "mol8", workdir / "mol8.txt", mol8.to_text().encode())
        _write(inputs, "reference", workdir / "ref.json", gen.dump_json(ref))
        inputs.files["beta_out"] = str(workdir / "beta_out.json")
        inputs.data.update(mol10=mol10, mol8=mol8, ref=ref)
    elif workload == "simulate-rand12":
        h = gen.random_local(12, 600, instance)
        amps = gen.random_state(12, instance)
        beta = gen.concentrated_beta(12, instance)
        _write(inputs, "rand12", workdir / "rand12.txt",
               h.to_text().encode())
        state_path = workdir / "state.npy"
        np.save(state_path, amps)
        _write(inputs, "state", state_path, state_path.read_bytes())
        _write(inputs, "beta", workdir / "beta.json", gen.dump_json(beta))
        inputs.data.update(rand12=h, amps=amps, beta=beta)
    else:
        raise KeyError(f"unknown workload {workload!r}")
    return inputs


# -- references computed by the benchmark ---------------------------------

def references(workload: str, inputs: Inputs) -> dict:
    if workload == "compare-optimize-mol":
        h = inputs.data["mol10"]
        energy = float(np.linalg.eigvalsh(h.dense())[0])
        return {"energy": energy, "l1_norm": float(np.abs(h.coeffs).sum())}
    return {"expectation": inputs.data["rand12"].expectation(
        inputs.data["amps"])}


def multiref_second_moment(h: gen.Observable, ref: dict, rows) -> float:
    """sum over ordered qubit-wise compatible term pairs (Q, R) of
    f(Q, R, beta) a_Q a_R <psi|QR|psi> for the multi-reference psi, where
    f is the product of 1/beta over qubits on which Q and R carry the same
    non-identity label.  The multi-reference cost equals this moment."""
    n = h.n
    amps = gen.multireference_amplitudes(ref, n)
    x, z = h.x.astype(np.int64), h.z.astype(np.int64)
    supp = x | z
    ai, bi = gen.compatible_pairs(h)
    inv = 1.0 / np.asarray(rows, dtype=float)
    matched = supp[ai] & supp[bi]          # same non-identity label there
    f = np.ones(ai.size)
    for q in range(n):
        bit = 1 << (n - 1 - q)
        on = (matched & bit) != 0
        code = ((x[ai] & bit) != 0).astype(int) + 2 * ((z[ai] & bit) != 0)
        label = np.choose(code, [0, 0, 2, 1])     # X -> 0, Z -> 2, Y -> 1
        f = np.where(on, f * inv[q, label], f)
    # Q R = i^{|xa&za| + |xb&zb|} (-1)^{|za & xb|} X^{xa^xb} Z^{za^zb}
    k = (np.bitwise_count(x[ai] & z[ai]) + np.bitwise_count(x[bi] & z[bi]))
    sign = 1.0 - 2.0 * (np.bitwise_count(z[ai] & x[bi]) & 1)
    px, pz = x[ai] ^ x[bi], z[ai] ^ z[bi]
    nz = np.nonzero(amps)[0]
    val = np.zeros(ai.size, dtype=complex)
    for j in nz:                 # <psi| X^x Z^z |j> amp_j, |j> -> |j ^ x>
        src_sign = 1.0 - 2.0 * (np.bitwise_count(pz & j) & 1)
        val += np.conj(amps[j ^ px]) * src_sign * amps[j]
    moment = (1j ** (k % 4)) * sign * val
    return float(np.sum(f * h.coeffs[ai] * h.coeffs[bi] * moment.real))


# -- checks ---------------------------------------------------------------

def pinned(workload: str, instance: int):
    if not PINNED_PATH.is_file():
        return None
    table = json.loads(PINNED_PATH.read_text())
    return table.get(workload, {}).get(str(instance))


def close(a, b, what: str, rtol: float = PIN_RTOL):
    if not math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=1e-12):
        raise CheckFailed(f"{what}: got {a!r}, expected {b!r}")


def _check_manifest(payload, inputs: Inputs, roles):
    got = sorted(payload["manifest"]["inputs"].values())
    want = sorted(inputs.digests[r] for r in roles)
    if got != want:
        raise CheckFailed("manifest input digests differ from the inputs")


def _compare_check(inputs, pin):
    def check(payload, ref):
        rows = {r["estimator"]: r["variance"] for r in payload["rows"]}
        if list(rows) != ["l1", "ldf", "shadows", "lbcs", "lbcs_diag"]:
            raise CheckFailed(f"unexpected rows {list(rows)}")
        cfg = payload["manifest"]["config"]
        if not (cfg["full_converged"] and cfg["diag_converged"]):
            raise CheckFailed("optimizer did not converge")
        _check_manifest(payload, inputs, ["mol10"])
        energy = cfg["ground_energy"]
        close(energy, ref["energy"], "ground energy vs dense solve", 1e-9)
        h = inputs.data["mol10"]
        l1 = ref["l1_norm"] ** 2 - (energy - h.c0) ** 2
        close(rows["l1"], l1, "l1 variance closed form", 1e-8)
        if pin is not None:
            close(energy, pin["ground_energy"], "pinned ground energy")
            for name, value in pin["rows"].items():
                close(rows[name], value, f"pinned {name} variance")
    return check


def _simulate_check(inputs, pin, estimator, seed):
    roles = {"lbcs": ["rand12", "beta"]}.get(estimator, ["rand12"])

    def check(payload, ref):
        shots = SIM_SHOTS[estimator]
        if payload["shots"] != shots or payload["seed"] != seed:
            raise CheckFailed("shots or seed not echoed")
        _check_manifest(payload, inputs, roles)
        mean, var = payload["mean"], payload["variance"]
        err = MC_SIGMAS * math.sqrt(var / shots)
        if not abs(mean - ref["expectation"]) <= err:
            raise CheckFailed(
                f"{estimator} mean {mean!r} more than {MC_SIGMAS} standard "
                f"errors from <H> = {ref['expectation']!r}")
        if pin is not None:
            close(mean, pin[estimator]["mean"], f"pinned {estimator} mean")
            close(var, pin[estimator]["variance"],
                  f"pinned {estimator} variance")
    return check


def _optimize_check(inputs, pin):
    def check(payload, ref):
        if payload["converged"] is not True:
            raise CheckFailed("multiref optimizer did not converge")
        _check_manifest(payload, inputs, ["mol8", "reference"])
        moment = multiref_second_moment(inputs.data["mol8"], inputs.data["ref"],
                                        payload["beta"]["rows"])
        close(payload["cost"], moment, "cost vs second moment", 1e-9)
        if pin is not None:
            close(payload["cost"], pin["cost"], "pinned multiref cost")
    return check


def make_ops(workload: str, instance: int, inputs: Inputs, pin) -> list:
    """One cycle of the workload; the same list for traced and untraced runs.
    ``pin`` is the instance's entry of pinned.json, or None."""
    f = inputs.files
    seed = ["--seed", str(instance)]
    if workload == "compare-optimize-mol":
        return [Op("compare", ["compare", "--hamiltonian", f["mol10"],
                               "--bits", MOL10_BITS] + seed,
                   _compare_check(inputs, pin)),
                Op("optimize-multiref",
                   ["optimize", "--hamiltonian", f["mol8"],
                    "--cost", "multiref", "--reference", f["reference"],
                    "--out", f["beta_out"]] + seed,
                   _optimize_check(inputs, pin))]
    if workload == "simulate-rand12":
        ops = []
        for est in ("lbcs", "shadows", "ldf", "l1"):
            argv = ["simulate", "--hamiltonian", f["rand12"],
                    "--state", f["state"], "--estimator", est,
                    "--shots", str(SIM_SHOTS[est])] + seed
            if est == "lbcs":
                argv += ["--beta", f["beta"]]
            ops.append(Op(f"simulate-{est}", argv,
                          _simulate_check(inputs, pin, est, instance)))
        return ops
    raise KeyError(f"unknown workload {workload!r}")


def pin_values(workload: str, payloads: dict) -> dict:
    """The values ``pinned.json`` keeps for one instance, from the outputs
    of one cycle keyed by op name."""
    if workload == "compare-optimize-mol":
        p = payloads["compare"]
        return {"ground_energy": p["manifest"]["config"]["ground_energy"],
                "rows": {r["estimator"]: r["variance"] for r in p["rows"]},
                "cost": payloads["optimize-multiref"]["cost"]}
    return {est: {"mean": payloads[f"simulate-{est}"]["mean"],
                  "variance": payloads[f"simulate-{est}"]["variance"]}
            for est in SIM_SHOTS}


WORKLOADS = ("compare-optimize-mol", "simulate-rand12")
