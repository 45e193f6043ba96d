"""Exact algebra of n-qubit Pauli strings.

Strings are stored as two n-bit integer masks (x-part, z-part) so that
supports, basis agreement and the term tables' products and
compatibility tests are word-parallel.  Qubit 1 of the text form
(leftmost character) maps to the most significant bit of each mask,
matching the big-endian basis-index convention used by the statevector
engine.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    # -- structure ---------------------------------------------------

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def is_identity(self) -> bool:
        return self.support_mask == 0

    def is_full_weight(self) -> bool:
        return self.support_mask == (1 << self.n) - 1


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise PauliError(f"qubit count mismatch: {p.n} vs {q.n}")


def label_codes(x_masks: np.ndarray, z_masks: np.ndarray,
                n: int) -> np.ndarray:
    """(count, n) label codes of the n-qubit strings given by uint64
    masks, qubit 1 first."""
    shift = np.arange(n - 1, -1, -1, dtype=np.uint64)
    one = np.uint64(1)
    return _CODE_OF_BITS[(x_masks[:, None] >> shift) & one,
                         (z_masks[:, None] >> shift) & one]


def agrees_with_basis(q: PauliString, p: PauliString) -> bool:
    """True iff Q_i in {I, P_i} for every qubit; P must be full-weight."""
    _check_same_n(q, p)
    if not p.is_full_weight():
        raise PauliError("basis operator must be full-weight")
    differ = (q.x_mask ^ p.x_mask) | (q.z_mask ^ p.z_mask)
    return differ & q.support_mask == 0
