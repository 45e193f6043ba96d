"""Pauli-sum observables: the term table, parsing and the l1 norm.

``ObservableSum`` holds H's traceless terms once, as read-only arrays in
canonical order, and its compatible term pairs; every estimator, cost,
sampler and the term graph read them.  File format: one term per line,
``<coefficient> <pauli-string>``; ``#`` starts a comment, blank lines
are ignored.  The identity coefficient is kept apart from the terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .pauli import X, Y, Z, PauliString, label_codes

MAX_QUBITS = 64  # the term tables pack x and z masks into uint64
PAIR_LIMIT = 1 << 25     # compatible term pairs a <= j of one term table
_PAIR_BLOCK = 1 << 18    # term pairs compared at once


class SizeLimitError(RuntimeError):
    """An input whose tables would exceed a fixed size limit."""


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True, eq=False)
class ObservableSum:
    """H = identity_coefficient * I + sum_t coeffs[t] * P_t: the term table.

    Term t is the traceless string P_t with uint64 masks (x[t], z[t]).
    The constructor sums duplicate strings in input order, drops zero
    sums and sorts the terms into canonical order: descending |coeff|,
    then the Pauli order I < X < Y < Z of the labels, qubit 1 first.
    Derived per instance: ``labels`` (terms, n) label codes, ``supp`` =
    x | z, and ``needed`` (n, 3), True where some term carries label
    X, Y or Z on a qubit.  The compatible term pairs ``pairs`` are
    enumerated on first use and kept.  All arrays are read-only.  A term
    is its row index; ``label_texts`` spells it only for files and errors.
    """

    n: int
    x: np.ndarray
    z: np.ndarray
    coeffs: np.ndarray
    identity_coefficient: float = 0.0
    labels: np.ndarray = field(init=False, repr=False)
    supp: np.ndarray = field(init=False, repr=False)
    needed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        masks = np.stack([np.asarray(self.x, dtype=np.uint64),
                          np.asarray(self.z, dtype=np.uint64)], axis=1)
        if np.any((masks == 0).all(axis=1)):
            raise HamiltonianFormatError(
                "identity term must live in identity_coefficient")
        if not 1 <= self.n <= MAX_QUBITS or np.any(
                masks & ~np.uint64((1 << self.n) - 1)):
            raise HamiltonianFormatError(f"masks do not fit {self.n} qubits")
        keys, inverse = np.unique(masks, axis=0, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=self.coeffs,
                           minlength=len(keys))
        bad = np.flatnonzero(~np.isfinite(sums))
        if bad.size:
            raise HamiltonianFormatError(
                f"bad coefficient {sums[bad[0]]} for "
                f"{PauliString(self.n, *keys[bad[0]].tolist())}")
        if not math.isfinite(self.identity_coefficient):
            raise HamiltonianFormatError(
                f"bad identity coefficient {self.identity_coefficient}")
        keys, sums = keys[sums != 0.0], sums[sums != 0.0]
        labels = label_codes(keys[:, 0], keys[:, 1], self.n)
        order = np.lexsort((*labels.T[::-1], -np.abs(sums)))
        x, z = keys[order, 0], keys[order, 1]
        labels = labels[order]
        table = {
            "x": x, "z": z, "coeffs": sums[order], "labels": labels,
            "supp": x | z,
            "needed": np.stack([(labels == w).any(axis=0)
                                for w in (X, Y, Z)], axis=1),
        }
        for name, value in table.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def num_terms(self) -> int:
        return self.coeffs.size

    @cached_property
    def pairs(self):
        """Read-only int32 (a, j), a <= j, in row-major order: the term
        pairs with no qubit carrying two different non-identity labels,
        ((x_a ^ x_j) | (z_a ^ z_j)) & supp_a & supp_j = 0.  Computed on
        first use about ``_PAIR_BLOCK`` term pairs at a time, keeping the
        hits; past ``PAIR_LIMIT`` hits it raises SizeLimitError."""
        count, x, z, supp = self.num_terms(), self.x, self.z, self.supp
        rows = max(1, _PAIR_BLOCK // max(count, 1))
        parts, found = [np.zeros((2, 0), dtype=np.int32)], 0
        for s in range(0, count, rows):
            a = slice(s, s + rows)
            miss = (x[a, None] ^ x[s:]) | (z[a, None] ^ z[s:])
            miss &= supp[a, None] & supp[s:]
            hits = np.array(np.nonzero(np.triu(miss == 0)), np.int32)
            found += hits.shape[1]
            if found > PAIR_LIMIT:
                raise SizeLimitError(f"{count} terms make more compatible "
                                     f"pairs than the limit of {PAIR_LIMIT}")
            parts.append(hits + s)
        pairs = np.concatenate(parts, axis=1)
        pairs.setflags(write=False)
        return pairs[0], pairs[1]


def parse_observable(text: str) -> ObservableSum:
    """Parse the text format; duplicate strings are summed, zeros dropped.
    Every string must have the same length as the first."""
    n = None
    xs, zs, coeffs = [], [], []
    identity = 0.0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise HamiltonianFormatError(
                f"expected '<coefficient> <pauli-string>', got {raw!r}", lineno)
        coeff_text, pauli_text = parts
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise HamiltonianFormatError(
                f"bad coefficient {coeff_text!r}", lineno) from None
        if not math.isfinite(coeff):
            raise HamiltonianFormatError(
                f"non-finite coefficient {coeff_text!r}", lineno)
        if n is None:
            n = len(pauli_text)
        if n > MAX_QUBITS:
            raise HamiltonianFormatError(
                f"{n} qubits exceed the limit of {MAX_QUBITS}", lineno)
        if len(pauli_text) != n:
            raise HamiltonianFormatError(
                f"string {pauli_text!r} has length {len(pauli_text)}, "
                f"expected {n}", lineno)
        try:
            q = PauliString.from_text(pauli_text)
        except ValueError as exc:
            raise HamiltonianFormatError(str(exc), lineno) from None
        if q.is_identity():
            identity += coeff
        else:
            xs.append(q.x_mask)
            zs.append(q.z_mask)
            coeffs.append(coeff)
    if n is None:
        raise HamiltonianFormatError("no terms found")
    return ObservableSum(n, np.array(xs, dtype=np.uint64),
                         np.array(zs, dtype=np.uint64),
                         np.array(coeffs, dtype=float), identity)


def load_observable(path) -> ObservableSum:
    with open(path) as fh:
        return parse_observable(fh.read())


def l1_norm(h: ObservableSum) -> float:
    """l1 norm of the traceless coefficients (identity excluded)."""
    return float(np.abs(h.coeffs).sum())
