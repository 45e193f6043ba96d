"""Exact algebra of n-qubit Pauli strings.

Strings are stored as two n-bit integer masks (x-part, z-part) so that
products, supports and commutation checks are word-parallel.  Qubit 1 of
the text form (leftmost character) maps to the most significant bit of
each mask, matching the big-endian basis-index convention used by the
statevector engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# Label codes, ordered I < X < Y < Z for deterministic tie-breaking.
I, X, Y, Z = 0, 1, 2, 3
LABEL_CHARS = "IXYZ"

# code -> (x bit, z bit)
_CODE_TO_BITS = {I: (0, 0), X: (1, 0), Y: (1, 1), Z: (0, 1)}
_BITS_TO_CODE = {v: k for k, v in _CODE_TO_BITS.items()}
_CODE_OF_BITS = np.array([[I, Z], [X, Y]])   # indexed [x bit, z bit]


class PauliError(ValueError):
    """Malformed Pauli string or incompatible operands."""


@dataclass(frozen=True, order=False)
class PauliString:
    """An n-qubit tensor product over {I, X, Y, Z} without phase."""

    n: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n < 1:
            raise PauliError(f"qubit count must be positive, got {self.n}")
        full = (1 << self.n) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise PauliError("mask bits outside the qubit range")

    # -- construction ------------------------------------------------

    @classmethod
    def from_labels(cls, labels) -> "PauliString":
        labels = list(labels)
        n = len(labels)
        x = z = 0
        for i, code in enumerate(labels):
            xb, zb = _CODE_TO_BITS[code]
            bit = 1 << (n - 1 - i)
            x |= xb * bit
            z |= zb * bit
        return cls(n, x, z)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        try:
            codes = [LABEL_CHARS.index(c) for c in text.upper()]
        except ValueError:
            bad = next(c for c in text.upper() if c not in LABEL_CHARS)
            raise PauliError(f"invalid Pauli character {bad!r} in {text!r}") from None
        if not codes:
            raise PauliError("empty Pauli string")
        return cls.from_labels(codes)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    # -- views -------------------------------------------------------

    def label(self, i: int) -> int:
        """Label code on qubit i (0-based, leftmost qubit is 0)."""
        bit = self.n - 1 - i
        return _BITS_TO_CODE[((self.x_mask >> bit) & 1, (self.z_mask >> bit) & 1)]

    def labels(self) -> tuple:
        return tuple(self.label(i) for i in range(self.n))

    def to_text(self) -> str:
        return "".join(LABEL_CHARS[c] for c in self.labels())

    def __str__(self) -> str:
        return self.to_text()

    # Lexicographic order in labels with I < X < Y < Z.
    def _sort_key(self):
        return self.labels()

    def __lt__(self, other: "PauliString") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "PauliString") -> bool:
        return self._sort_key() <= other._sort_key()

    # -- structure ---------------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def support(self) -> set:
        m = self.support_mask
        return {i for i in range(self.n) if (m >> (self.n - 1 - i)) & 1}

    def weight(self) -> int:
        return self.support_mask.bit_count()

    def is_identity(self) -> bool:
        return self.support_mask == 0

    def is_full_weight(self) -> bool:
        return self.support_mask == (1 << self.n) - 1


@dataclass(frozen=True)
class PhasedPauli:
    """i**phase_exponent times a Pauli string."""

    phase_exponent: int  # mod 4
    string: PauliString

    def phase(self) -> complex:
        return 1j ** self.phase_exponent


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise PauliError(f"qubit count mismatch: {p.n} vs {q.n}")


def product(p: PauliString, q: PauliString) -> PhasedPauli:
    """Matrix product P.Q = i^k S, computed qubit-wise via masks.

    Writing each single-qubit Pauli as i^(x&z) X^x Z^z, the phase
    exponent accumulates popcounts only; no per-qubit loop is needed.
    """
    _check_same_n(p, q)
    x3 = p.x_mask ^ q.x_mask
    z3 = p.z_mask ^ q.z_mask
    k = (
        (p.x_mask & p.z_mask).bit_count()
        + (q.x_mask & q.z_mask).bit_count()
        + 2 * (p.z_mask & q.x_mask).bit_count()
        - (x3 & z3).bit_count()
    ) % 4
    return PhasedPauli(k, PauliString(p.n, x3, z3))


def label_codes(x_masks: np.ndarray, z_masks: np.ndarray,
                n: int) -> np.ndarray:
    """(count, n) label codes of the n-qubit strings given by uint64
    masks, qubit 1 first."""
    shift = np.arange(n - 1, -1, -1, dtype=np.uint64)
    one = np.uint64(1)
    return _CODE_OF_BITS[(x_masks[:, None] >> shift) & one,
                         (z_masks[:, None] >> shift) & one]


def support(q: PauliString) -> set:
    return q.support()


def weight(q: PauliString) -> int:
    return q.weight()


def qubitwise_commute(q: PauliString, r: PauliString) -> bool:
    """True iff on every qubit the labels are equal or one is identity."""
    _check_same_n(q, r)
    both = q.support_mask & r.support_mask
    differ = (q.x_mask ^ r.x_mask) | (q.z_mask ^ r.z_mask)
    return both & differ == 0


def agrees_with_basis(q: PauliString, p: PauliString) -> bool:
    """True iff Q_i in {I, P_i} for every qubit; P must be full-weight."""
    _check_same_n(q, p)
    if not p.is_full_weight():
        raise PauliError("basis operator must be full-weight")
    differ = (q.x_mask ^ p.x_mask) | (q.z_mask ^ p.z_mask)
    return differ & q.support_mask == 0


def f_factor(p: PauliString, q: PauliString, beta) -> float:
    """Product over qubits of the inverse-probability weight f_i.

    f_i = 1 where either label is I, 1/beta_i(P_i) where the non-I
    labels match, 0 otherwise.  A vanishing beta entry at a matched
    position yields factor 0 (the reciprocal-as-zero convention).
    """
    _check_same_n(p, q)
    rows = beta.rows
    out = 1.0
    for i in range(p.n):
        a, b = p.label(i), q.label(i)
        if a == I or b == I:
            continue
        if a != b:
            return 0.0
        prob = rows[i, a - 1]
        if prob <= 0.0:
            return 0.0
        out *= 1.0 / prob
    return out


# Dense 2x2 matrices, used by oracles and the statevector engine.
PAULI_MATRICES = {
    I: np.eye(2, dtype=complex),
    X: np.array([[0, 1], [1, 0]], dtype=complex),
    Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    Z: np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_matrix(p: PauliString) -> np.ndarray:
    """2^n x 2^n dense matrix; for small-n oracles only."""
    return reduce(np.kron, (PAULI_MATRICES[c] for c in p.labels()))
