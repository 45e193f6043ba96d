"""Dense statevector engine and reference-state expectations.

Basis index convention: the bitstring b1 b2 ... bn is read as a
big-endian integer, so qubit 1 (leftmost in the Pauli text form) is the
most significant bit.  Pauli application is a bit-indexed amplitude
permutation with sign/phase factors; no 2^n x 2^n matrix is formed.

``lanczos_ground`` is the one routine that needs scipy (ARPACK's
``eigsh``).  It imports it where the iterative solve starts, after the
qubit limit is checked and past the dense path of dimension <= 32, so a
command that does not solve for a ground state never loads scipy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ObservableSum, SizeLimitError
from .pauli import I, X, Y, Z, PauliError, PauliString

_NORM_TOL = 1e-10


class StateError(ValueError):
    pass


class ConvergenceError(RuntimeError):
    """Eigensolver failed to reach the requested residual."""

    def __init__(self, message, best_residual=None):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray  # 2^n complex

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise StateError(
                f"expected {1 << self.n} amplitudes, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm):    # a NaN or infinite amplitude
            raise StateError("amplitudes must be finite")
        if abs(norm - 1.0) > _NORM_TOL:
            raise StateError(f"state not normalized: |v| = {norm!r}")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_bits(cls, bits: str) -> "StateVector":
        n = len(bits)
        amps = np.zeros(1 << n, dtype=complex)
        amps[int(bits, 2)] = 1.0
        return cls(n, amps)

    def pauli_traces(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """<v| S |v> for the strings S = i^{|x & z|} X^x Z^z given by
        uint64 masks: one Walsh-Hadamard transform per distinct X-mask."""
        return _statevector_traces(self.amplitudes, x, z)


@dataclass(frozen=True)
class SingleReference:
    """Product state (1/2^n) tensor_i (I + m_i Z), m_i = +-1."""

    signs: tuple

    def __post_init__(self):
        if not self.signs or any(m not in (1, -1) for m in self.signs):
            raise StateError("signs must be a nonempty tuple of +-1")

    @property
    def n(self) -> int:
        return len(self.signs)

    @classmethod
    def from_bits(cls, bits: str) -> "SingleReference":
        return cls(tuple(1 - 2 * int(b) for b in bits))

    @property
    def bits(self) -> str:
        return "".join("0" if m == 1 else "1" for m in self.signs)

    def pauli_traces(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """tr(rho S) for the strings S = i^{|x & z|} X^x Z^z given by
        uint64 masks; a one-component reference."""
        return _reference_traces([self.bits], [1.0], x, z)


@dataclass(frozen=True)
class MultiReference:
    """Superposition sum_k lambda_k |b^(k)> over distinct bitstrings."""

    bitstrings: tuple  # of str
    amplitudes: tuple  # of complex

    def __post_init__(self):
        if len(self.bitstrings) != len(self.amplitudes) or not self.bitstrings:
            raise StateError("need matching, nonempty bitstrings/amplitudes")
        n = len(self.bitstrings[0])
        if any(len(b) != n for b in self.bitstrings):
            raise StateError("bitstrings must share one length")
        if len(set(self.bitstrings)) != len(self.bitstrings):
            raise StateError("bitstrings must be pairwise distinct")
        total = sum(abs(a) ** 2 for a in self.amplitudes)
        if not np.isfinite(total):
            raise StateError("amplitudes must be finite")
        if abs(total - 1.0) > _NORM_TOL:
            raise StateError(f"amplitudes not normalized: sum |l|^2 = {total!r}")

    @property
    def n(self) -> int:
        return len(self.bitstrings[0])

    def pauli_traces(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """tr(rho S) for the strings S = i^{|x & z|} X^x Z^z given by
        uint64 masks, looking up each component's partner: O(K) per
        string.  An imaginary part above 1e-9 signals a phase bug and
        raises ValueError."""
        return _reference_traces(self.bitstrings, self.amplitudes, x, z)


def load_reference(path):
    """Reference-state JSON: single basis state or multi-reference list."""
    with open(path) as fh:
        data = json.load(fh)
    return reference_from_dict(data)


def reference_from_dict(data):
    if not isinstance(data, dict):
        raise StateError("reference must be a JSON object")
    kind = data.get("type")
    try:
        if kind == "single":
            return SingleReference.from_bits(data["bits"])
        if kind == "multi":
            bits = tuple(c["bits"] for c in data["components"])
            amps = tuple(complex(c["amplitude"][0], c["amplitude"][1])
                         for c in data["components"])
            return MultiReference(bits, amps)
    except KeyError as exc:
        raise StateError(f"{kind} reference has no {exc} key") from None
    except (IndexError, TypeError) as exc:
        raise StateError(f"malformed {kind} reference: {exc}") from None
    raise StateError(f"unknown reference type {kind!r}")


# -- Pauli application --------------------------------------------------

def apply_pauli_raw(x: int, z: int, amps: np.ndarray) -> np.ndarray:
    """P|v> on a raw amplitude array (not necessarily normalized), for
    the string P with masks (x, z)."""
    dim = amps.shape[0]
    idx = np.arange(dim, dtype=np.uint64)
    src = idx ^ np.uint64(x)
    # P = i^{|x&z|} X^x Z^z and X^x Z^z |j> = (-1)^{z.j} |j ^ x>
    phase = 1j ** ((x & z).bit_count() % 4)
    signs = 1.0 - 2.0 * (np.bitwise_count(src & np.uint64(z)) & 1)
    return phase * signs * amps[src]


def apply_observable_raw(h: ObservableSum, amps: np.ndarray) -> np.ndarray:
    out = h.identity_coefficient * amps
    for x, z, a in zip(h.x.tolist(), h.z.tolist(), h.coeffs.tolist()):
        out += a * apply_pauli_raw(x, z, amps)
    return out


# -- expectations --------------------------------------------------------

def observable_expectation(h: ObservableSum, v: StateVector) -> float:
    if h.n != v.n:
        raise PauliError(f"qubit count mismatch: {h.n} vs {v.n}")
    traces = v.pauli_traces(h.x, h.z)
    return h.identity_coefficient + float(h.coeffs @ traces)


# -- trace oracles of the state kinds ------------------------------------

_PHASES = np.array([1, 1j, -1, -1j])
_TRANSFORM_BLOCK = 1 << 16   # amplitudes per batch of transforms


def walsh_hadamard(g: np.ndarray) -> np.ndarray:
    """Transform the rows of the C-contiguous (rows, 2^m) array ``g`` in
    place, g[r, s] <- sum_j g[r, j] (-1)^{popcount(j & s)}, and return it."""
    rows, dim = g.shape
    half = 1
    while half < dim:
        pairs = g.reshape(rows, -1, 2, half)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        diff = lo - hi
        lo += hi
        hi[...] = diff
        half *= 2
    return g


def _statevector_traces(amps: np.ndarray, x: np.ndarray,
                        z: np.ndarray) -> np.ndarray:
    # With g[j] = conj(v[j ^ x]) v[j], <v| X^x Z^z |v> is the transform
    # sum_j g[j] (-1)^{z.j} of g evaluated at z.
    dim = amps.shape[0]
    xs, which = np.unique(x, return_inverse=True)
    order = np.argsort(which, kind="stable")
    bounds = np.searchsorted(which[order], np.arange(xs.size + 1))
    idx = np.arange(dim, dtype=np.uint64)
    out = np.empty(x.shape[0])
    batch = max(1, _TRANSFORM_BLOCK // dim)
    for start in range(0, xs.size, batch):
        stop = min(start + batch, xs.size)
        g = walsh_hadamard(amps[idx[None, :] ^ xs[start:stop, None]].conj()
                           * amps)
        sel = order[bounds[start]:bounds[stop]]
        phase = _PHASES[np.bitwise_count(x[sel] & z[sel]) & 3]
        out[sel] = (phase * g[which[sel] - start, z[sel]]).real
    return out


def _reference_traces(bitstrings, amplitudes, x: np.ndarray,
                      z: np.ndarray) -> np.ndarray:
    # S |b_k> = i^{|x&z|} (-1)^{z.b_k} |b_k ^ x>, so component k pairs
    # with the component l whose bits are b_k ^ x, if there is one
    bits = np.array([int(b, 2) for b in bitstrings], dtype=np.uint64)
    lam = np.asarray(amplitudes, dtype=complex)
    order = np.argsort(bits)
    target = bits[None, :] ^ x[:, None]
    pos = np.minimum(np.searchsorted(bits[order], target), bits.size - 1)
    partner = order[pos]
    signs = 1.0 - 2.0 * (np.bitwise_count(z[:, None] & bits) & 1)
    terms = np.where(bits[partner] == target,
                     lam[partner].conj() * lam * signs, 0.0)
    vals = _PHASES[np.bitwise_count(x & z) & 3] * terms.sum(axis=1)
    residue = np.abs(vals.imag)
    if np.any(residue > 1e-9):
        raise ValueError(
            f"density expectation has imaginary residue {residue.max()!r}")
    return vals.real


# -- ground states -------------------------------------------------------

LANCZOS_QUBIT_LIMIT = 20  # qubits of a statevector; tested up to 16


def check_statevector_qubits(n: int):
    """Raise SizeLimitError if a 2^n statevector is above the limit."""
    if n > LANCZOS_QUBIT_LIMIT:
        raise SizeLimitError(
            f"a {n}-qubit statevector is above the limit of "
            f"{LANCZOS_QUBIT_LIMIT} qubits")


def lanczos_ground(h: ObservableSum, tolerance: float = 1e-10,
                   max_iterations: int = 200, seed: int = 0):
    """Minimal eigenpair of H by matrix-free Lanczos iteration.

    Returns (energy, StateVector) with residual ||Hv - Ev|| <= tolerance.
    The start vector is drawn deterministically from the seed; for tiny
    dimensions a dense solve replaces the iteration.
    """
    check_statevector_qubits(h.n)
    dim = 1 << h.n
    rng = np.random.Generator(np.random.Philox(key=seed))

    if dim <= 32:
        dense = np.zeros((dim, dim), dtype=complex)
        basis = np.eye(dim, dtype=complex)
        for j in range(dim):
            dense[:, j] = apply_observable_raw(h, basis[:, j])
        evals, evecs = np.linalg.eigh(dense)
        energy = float(evals[0])
        vec = evecs[:, 0]
        # seeded gauge: align with the random probe for reproducibility
        probe = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        overlap = np.vdot(vec, probe)
        if abs(overlap) > 1e-12:
            vec = vec * (overlap / abs(overlap))
        state = StateVector(h.n, vec / np.linalg.norm(vec))
        return energy, state

    # imported here, so that only the eigensolve loads scipy
    from scipy.sparse.linalg import LinearOperator, eigsh

    op = LinearOperator(
        (dim, dim),
        matvec=lambda x: apply_observable_raw(h, np.asarray(x, dtype=complex)),
        dtype=complex,
    )
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    ncv = min(dim - 1, max(20, min(200, max_iterations)))
    try:
        evals, evecs = eigsh(op, k=1, which="SA", v0=v0, tol=tolerance / 10,
                             maxiter=max(max_iterations * 10, 1000), ncv=ncv)
    except Exception as exc:  # ArpackNoConvergence and friends
        raise ConvergenceError(f"Lanczos failed to converge: {exc}") from exc
    energy = float(evals[0])
    vec = evecs[:, 0]
    vec = vec / np.linalg.norm(vec)
    residual = np.linalg.norm(apply_observable_raw(h, vec) - energy * vec)
    if residual > max(tolerance, 1e-12):
        raise ConvergenceError(
            f"residual {residual:.3e} above tolerance {tolerance:.3e}",
            best_residual=float(residual))
    return energy, StateVector(h.n, vec)


# -- measurement-basis rotations ----------------------------------------

_SQ2 = 1.0 / np.sqrt(2.0)
# Map the X / Y eigenbases onto the computational basis.
BASIS_ROTATIONS = {
    X: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    Y: np.array([[_SQ2, -1j * _SQ2], [_SQ2, 1j * _SQ2]], dtype=complex),
    Z: np.eye(2, dtype=complex),
}


def rotate_to_basis(amps: np.ndarray, basis: PauliString) -> np.ndarray:
    """Amplitudes in the frame where measuring basis P is a Z measurement."""
    n = basis.n
    a = amps.reshape((2,) * n)
    for i in range(n):
        code = basis.label(i)
        if code in (I, Z):
            continue
        u = BASIS_ROTATIONS[code]
        a = np.moveaxis(np.tensordot(u, a, axes=([1], [i])), 0, i)
    return a.reshape(-1)


def born_probabilities(v: StateVector, basis: PauliString) -> np.ndarray:
    probs = np.abs(rotate_to_basis(v.amplitudes, basis)) ** 2
    return probs / probs.sum()
