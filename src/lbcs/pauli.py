"""n-qubit Pauli strings as masks, label codes and text.

A string is two n-bit integer masks (x-part, z-part), so that supports
and the term tables' products and compatibility tests are word-parallel.
Qubit 1 of the text form (leftmost character) maps to the most
significant bit of each mask, matching the big-endian basis-index
convention of the statevector engine.  ``PauliString`` holds one basis or
parsed line; the text of term-table rows comes from ``label_texts``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Label codes, ordered I < X < Y < Z for deterministic tie-breaking.
I, X, Y, Z = 0, 1, 2, 3
LABEL_CHARS = "IXYZ"

_CODE_TO_BITS = {I: (0, 0), X: (1, 0), Y: (1, 1), Z: (0, 1)}
_CODE_OF_BITS = np.array([[I, Z], [X, Y]])   # indexed [x bit, z bit]
_CHAR_OF_CODE = np.frombuffer(LABEL_CHARS.encode(), dtype=np.uint8)


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

    @classmethod
    def from_labels(cls, labels) -> "PauliString":
        labels = list(labels)
        x = z = 0
        for code in labels:
            xb, zb = _CODE_TO_BITS[code]
            x, z = 2 * x + xb, 2 * z + zb
        return cls(len(labels), x, z)

    @classmethod
    def from_text(cls, text: str) -> "PauliString":
        try:
            codes = [LABEL_CHARS.index(c) for c in text.upper()]
        except ValueError:
            bad = next(c for c in text.upper() if c not in LABEL_CHARS)
            raise PauliError(f"invalid Pauli character {bad!r} in {text!r}") from None
        return cls.from_labels(codes)

    def label(self, i: int) -> int:
        """Label code on qubit i (0-based, leftmost qubit is 0)."""
        bit = self.n - 1 - i
        return int(_CODE_OF_BITS[(self.x_mask >> bit) & 1,
                                 (self.z_mask >> bit) & 1])

    def labels(self) -> tuple:
        return tuple(self.label(i) for i in range(self.n))

    def to_text(self) -> str:
        return "".join(LABEL_CHARS[c] for c in self.labels())

    __str__ = to_text

    @property
    def support_mask(self) -> int:
        return self.x_mask | self.z_mask

    def is_identity(self) -> bool:
        return self.support_mask == 0

    def is_full_weight(self) -> bool:
        return self.support_mask == (1 << self.n) - 1


def label_codes(x_masks: np.ndarray, z_masks: np.ndarray,
                n: int) -> np.ndarray:
    """(count, n) label codes of the n-qubit strings given by uint64
    masks, qubit 1 first."""
    shift = np.arange(n - 1, -1, -1, dtype=np.uint64)
    one = np.uint64(1)
    return _CODE_OF_BITS[(x_masks[:, None] >> shift) & one,
                         (z_masks[:, None] >> shift) & one]


def label_texts(labels: np.ndarray) -> list:
    """The text of each row of (count, n) label codes, qubit 1 first."""
    chars = _CHAR_OF_CODE[labels]
    return chars.view(f"S{chars.shape[1]}").ravel().astype(str).tolist()
