"""Seeded input generators for the benchmark, independent of ``lbcs``.

Pauli strings are held as (x, z) bit masks with qubit 0 (the leftmost
character of the text form) on the most significant bit, the same
big-endian convention as the ``.npy`` amplitude files ``lbcs`` reads.
Nothing here imports ``lbcs``: a change to the program cannot change the
inputs a workload feeds it.

The seed moves the numbers of a fixed problem, not its shape: term
strings, and the draws that set how hard a problem is for an iterative
solver, come from fixed streams, and each seed adds a perturbation of
relative size PERTURBATION.  Different seeds thus give different inputs
(and digests) that cost the program about the same work, so run-to-run
spread measures the program rather than which problem a seed happened to
draw.  Random states are drawn afresh per seed: no layer's work depends on
the amplitudes.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

PERTURBATION = 0.01
FIXED = -1              # the seed of the fixed streams


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """An independent stream per (seed, input) so inputs do not share draws."""
    key = int.from_bytes(hashlib.sha256(tag.encode()).digest()[:8], "little")
    return np.random.default_rng([seed + 1, key])


def perturbed_normal(seed: int, tag: str, size) -> np.ndarray:
    """Fixed N(0, 1) draws for ``tag`` plus PERTURBATION times draws of
    ``seed``."""
    return (rng_for(FIXED, tag).standard_normal(size) + PERTURBATION
            * rng_for(seed, tag).standard_normal(size))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- Pauli mask algebra ---------------------------------------------------

_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


def text_of(x: int, z: int, n: int) -> str:
    return "".join(_LABEL[(x >> (n - 1 - i)) & 1, (z >> (n - 1 - i)) & 1]
                   for i in range(n))


def parity(a: np.ndarray) -> np.ndarray:
    return (np.bitwise_count(a) & 1).astype(np.int64)


def compatible_pairs(h: "Observable"):
    """Index arrays (a, j) of the ordered term pairs that are qubit-wise
    compatible: on every qubit where both act, they carry the same label."""
    x, z = h.x.astype(np.int64), h.z.astype(np.int64)
    supp = x | z
    clash = ((x[:, None] ^ x[None, :]) | (z[:, None] ^ z[None, :])) \
        & supp[:, None] & supp[None, :]
    return np.nonzero(clash == 0)


# -- Hamiltonians ---------------------------------------------------------

class Observable:
    """H = c0 * I + sum_t coeffs[t] * P_t with P_t given by (x, z) masks and
    the usual Y = iXZ labels; coefficients are real."""

    def __init__(self, n: int, x, z, coeffs, c0: float = 0.0):
        self.n = n
        self.x = np.asarray(x, dtype=np.uint64)
        self.z = np.asarray(z, dtype=np.uint64)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.c0 = float(c0)

    @property
    def terms(self) -> int:
        return int(self.coeffs.size)

    def to_text(self) -> str:
        lines = [f"{self.c0!r} {'I' * self.n}"] if self.c0 != 0.0 else []
        for xm, zm, a in zip(self.x.tolist(), self.z.tolist(),
                             self.coeffs.tolist()):
            lines.append(f"{a!r} {text_of(xm, zm, self.n)}")
        return "\n".join(lines) + "\n"

    def expectation(self, amps: np.ndarray) -> float:
        """<psi|H|psi> term by term from the mask action
        X^x Z^z |j> = (-1)^{z.j} |j ^ x> and P = i^{|x&z|} X^x Z^z."""
        idx = np.arange(amps.size, dtype=np.uint64)
        total = self.c0
        for xm, zm, a in zip(self.x, self.z, self.coeffs):
            signs = 1.0 - 2.0 * parity(idx & zm)
            val = np.vdot(amps[idx ^ xm], signs * amps)
            phase = 1j ** (int(np.bitwise_count(xm & zm)) % 4)
            total += a * (phase * val).real
        return float(total)

    def dense(self) -> np.ndarray:
        dim = 1 << self.n
        mat = self.c0 * np.eye(dim, dtype=complex)
        idx = np.arange(dim, dtype=np.uint64)
        for xm, zm, a in zip(self.x, self.z, self.coeffs):
            phase = 1j ** (int(np.bitwise_count(xm & zm)) % 4)
            signs = 1.0 - 2.0 * parity(idx & zm)
            mat[(idx ^ xm).astype(np.int64), idx.astype(np.int64)] += (
                a * phase * signs)
        return mat


def random_local(n: int, terms: int, seed: int) -> Observable:
    """`terms` distinct strings (fixed), weight uniform in 1..4 on random
    qubits with random X/Y/Z labels, perturbed N(0, 1) coefficients."""
    rng = rng_for(FIXED, "random-local")
    seen = {}
    while len(seen) < terms:
        w = int(rng.integers(1, 5))
        qubits = rng.choice(n, size=w, replace=False)
        labels = rng.integers(1, 4, size=w)
        x = z = 0
        for q, c in zip(qubits.tolist(), labels.tolist()):
            bit = 1 << (n - 1 - q)
            if c in (1, 2):
                x |= bit
            if c in (2, 3):
                z |= bit
        seen.setdefault((x, z), len(seen))
    keys = list(seen)
    return Observable(n, [k[0] for k in keys], [k[1] for k in keys],
                      perturbed_normal(seed, "random-local", terms))


def molecule_integrals(m: int, seed: int):
    """Seeded real one-body h_pq (symmetric) and two-body (pq|rs) (8-fold
    symmetric) integrals over m spatial orbitals.  Low orbitals are bound
    more tightly and the Coulomb terms dominate, so the Hartree-Fock string
    1..10..0 is a sensible reference."""
    h1 = 0.1 * perturbed_normal(seed, f"molecule-h1-{m}", (m, m))
    h1 = 0.5 * (h1 + h1.T) + np.diag(-2.0 + 0.5 * np.arange(m))
    g = 0.05 * perturbed_normal(seed, f"molecule-g-{m}", (m, m, m, m))
    for perm in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        g = 0.5 * (g + g.transpose(perm))
    for p in range(m):
        for r in range(m):
            g[p, p, r, r] += 0.4 + 0.1 * (p == r)
    return h1, g


def molecule_like(n: int, seed: int) -> Observable:
    """Jordan-Wigner transform of the spin-conserving Hamiltonian
    H = sum h_pq a+_p a_q + 1/2 sum (pq|rs) a+_p a+_r a_s a_q over n // 2
    spatial orbitals (spin orbital 2p + s), integrals from
    ``molecule_integrals``."""
    m = n // 2
    h1, g = molecule_integrals(m, seed)

    # a+_p = (X^x Z^{z0} + X^x Z^{z1}) / 2 and a_p = (X^x Z^{z0} - X^x Z^{z1}) / 2
    # with x = bit p, z0 = the qubits left of p, z1 = z0 | bit p
    def ladder(p, dagger):
        bit = 1 << (n - 1 - p)
        z0 = ((1 << n) - 1) ^ ((bit << 1) - 1)
        sign = 0.5 if dagger else -0.5
        return [(bit, z0, 0.5), (bit, z0 | bit, sign)]

    acc: dict = {}

    def add_product(ops, coeff):
        terms = [(0, 0, coeff)]
        for p, dagger in ops:
            nxt = []
            for xa, za, ca in terms:
                for xb, zb, cb in ladder(p, dagger):
                    s = -1.0 if (za & xb).bit_count() & 1 else 1.0
                    nxt.append((xa ^ xb, za ^ zb, ca * cb * s))
            terms = nxt
        for xm, zm, c in terms:
            acc[(xm, zm)] = acc.get((xm, zm), 0.0) + c

    spins = [(p, s) for p in range(m) for s in range(2)]
    for (p, sp) in spins:
        for (q, sq) in spins:
            if sp == sq and h1[p, q] != 0.0:
                add_product([(2 * p + sp, True), (2 * q + sq, False)],
                            h1[p, q])
    for (p, sp) in spins:
        for (q, sq) in spins:
            if sp != sq:
                continue
            for (r, sr) in spins:
                for (s, ss) in spins:
                    if sr != ss:
                        continue
                    a, b = 2 * p + sp, 2 * r + sr
                    c, d = 2 * s + ss, 2 * q + sq
                    if a == b or c == d:
                        continue
                    add_product([(a, True), (b, True), (c, False),
                                 (d, False)], 0.5 * g[p, q, r, s])

    c0 = 0.0
    xs, zs, cs = [], [], []
    for (xm, zm), c in sorted(acc.items()):
        # X^x Z^z = (-i)^{|x&z|} times the labelled string
        k = (xm & zm).bit_count() % 4
        val = c * (-1j) ** k
        if abs(val) < 1e-12:
            continue
        if abs(val.imag) > 1e-12:
            raise ArithmeticError("non-Hermitian Jordan-Wigner residue")
        if xm == 0 and zm == 0:
            c0 = val.real
            continue
        xs.append(xm)
        zs.append(zm)
        cs.append(val.real)
    return Observable(n, xs, zs, cs, c0)


# -- states, biases, references ------------------------------------------

def random_state(n: int, seed: int) -> np.ndarray:
    rng = rng_for(seed, "state")
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return amps / np.linalg.norm(amps)


def concentrated_beta(n: int, seed: int, floor: float = 0.02) -> dict:
    """Dirichlet(1/2, 1/2, 1/2) rows (fixed), perturbed, floored,
    renormalised."""
    rows = rng_for(FIXED, "beta").dirichlet([0.5, 0.5, 0.5], size=n)
    rows = rows * np.exp(PERTURBATION * rng_for(seed, "beta").standard_normal(
        rows.shape))
    rows = np.maximum(rows / rows.sum(axis=1, keepdims=True), floor)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return {"n": n, "rows": rows.tolist()}


def multireference(components) -> dict:
    """{"type": "multi"} JSON with real amplitudes normalised to 1."""
    norm = float(np.sqrt(sum(a * a for _, a in components)))
    return {"type": "multi", "components": [
        {"bits": bits, "amplitude": [a / norm, 0.0]}
        for bits, a in components]}


def multireference_amplitudes(ref: dict, n: int) -> np.ndarray:
    amps = np.zeros(1 << n, dtype=complex)
    for comp in ref["components"]:
        re, im = comp["amplitude"]
        amps[int(comp["bits"], 2)] = complex(re, im)
    return amps


def dump_json(data) -> bytes:
    return (json.dumps(data, indent=1) + "\n").encode()
