"""Pauli-sum observables: parsing, canonical serialization, coefficient stats.

File format: one term per line, ``<coefficient> <pauli-string>``; ``#``
starts a comment, blank lines are ignored.  The all-identity coefficient
is stored separately from the traceless terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliString, label_codes

MAX_QUBITS = 64  # the term tables pack x and z masks into uint64


class HamiltonianFormatError(ValueError):
    """Malformed Hamiltonian text; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class ObservableSum:
    """H = identity_coefficient * I + sum_Q alpha_Q Q over traceless Q."""

    n: int
    terms: dict  # PauliString -> float, no zeros, no identity
    identity_coefficient: float = 0.0

    def __post_init__(self):
        for q, a in self.terms.items():
            if q.n != self.n:
                raise HamiltonianFormatError(
                    f"term {q} has {q.n} qubits, expected {self.n}")
            if q.is_identity():
                raise HamiltonianFormatError(
                    "identity term must live in identity_coefficient")
            if a == 0.0 or not math.isfinite(a):
                raise HamiltonianFormatError(f"bad coefficient {a} for {q}")

    def sorted_terms(self):
        """Descending |alpha|, ties broken by the Pauli total order."""
        items = list(self.terms.items())
        labels = label_codes(
            np.array([q.x_mask for q, _ in items], dtype=np.uint64),
            np.array([q.z_mask for q, _ in items], dtype=np.uint64), self.n)
        size = np.abs(np.array([a for _, a in items], dtype=float))
        return [items[t] for t in np.lexsort((*labels.T[::-1], -size))]

    def num_terms(self) -> int:
        return len(self.terms)

    def scaled(self, c: float) -> "ObservableSum":
        return ObservableSum(
            self.n,
            {q: c * a for q, a in self.terms.items()},
            c * self.identity_coefficient,
        )


def parse_observable(text: str) -> ObservableSum:
    """Parse the text format; duplicate strings are summed, zeros dropped.
    Every string must have the same length as the first."""
    n = None
    acc: dict[PauliString, float] = {}
    identity = 0.0
    seen_any = False
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
        seen_any = True
        if q.is_identity():
            identity += coeff
        else:
            acc[q] = acc.get(q, 0.0) + coeff
    if not seen_any:
        raise HamiltonianFormatError("no terms found")
    terms = {q: a for q, a in acc.items() if a != 0.0}
    return ObservableSum(n, terms, identity)


def load_observable(path) -> ObservableSum:
    with open(path) as fh:
        return parse_observable(fh.read())


def serialize_observable(h: ObservableSum) -> str:
    """Canonical text: identity first if nonzero, then descending |alpha|."""
    lines = []
    if h.identity_coefficient != 0.0:
        lines.append(f"{h.identity_coefficient!r} {'I' * h.n}")
    for q, a in h.sorted_terms():
        lines.append(f"{a!r} {q.to_text()}")
    return "\n".join(lines) + "\n"


def l1_norm(h: ObservableSum) -> float:
    """l1 norm of the traceless coefficients (identity excluded)."""
    return sum(abs(a) for a in h.terms.values())


def gamma_distribution(h: ObservableSum) -> dict:
    """Probabilities proportional to |alpha_P| over traceless terms."""
    norm = l1_norm(h)
    if norm <= 0.0:
        raise HamiltonianFormatError(
            "gamma distribution undefined: no traceless terms")
    gamma = {q: abs(a) / norm for q, a in h.terms.items()}
    total = sum(gamma.values())
    return {q: p / total for q, p in gamma.items()}
