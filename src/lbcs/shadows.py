"""Randomized Pauli-measurement estimators and their exact variance.

The uniform protocol is the special case beta_i = (1/3, 1/3, 1/3) of the
locally-biased one; both share the inverse-probability estimator

    nu = sum_Q alpha_Q f(P, Q, beta) mu(P, supp(Q)).

Monte Carlo sampling uses a counter-based Philox generator keyed by the
run seed, consumed in a fixed order (all basis draws, then all outcome
draws), so results are reproducible bit-for-bit.  ``run_protocol`` streams
shots in chunks of ``_SAMPLER_CHUNK``: it reads each chunk's uniforms at
their place in that order, draws its bases as uint8 label codes, draws
every shot's outcome qubit by qubit from the basis-rotated amplitudes
(``sample_outcome_indices``), and evaluates the estimates with uint64 mask
algebra over H's term table.  Three caps fix its working set: the basis
uniforms are drawn about ``_LABEL_BLOCK`` at a time, a trie level holds
at most ``_TRIE_AMPLITUDES`` amplitudes of child blocks at once (more are
walked in batches of whole subtrees), and an estimate table at most
``_ESTIMATE_ENTRIES`` shot-term entries (more are taken a slice of shots
at a time).  None of them changes a float.  Its differential reference,
one ``measure_state`` and ``single_shot_estimate`` per shot, lives in
``tests/oracles.py``.

Every routine here reads the terms from the arrays of ``ObservableSum``
(masks, coefficients, label codes, supports), in its canonical order.
Exact second moments have one engine.  A ``PairTable`` holds the
compatible term pairs ``ObservableSum.pairs`` with their product strings,
matched positions and weights; the state enters only through the traces
tr(rho S) of those products, from the state's own oracle
(``pauli_traces`` of StateVector, SingleReference, MultiReference); a
``SecondMoment`` then sums weight * f(beta) * trace and its row
numerators -beta * dC/dbeta.  ``exact_variance``, the three optimizer
costs and their Lagrange rows, and the grouping variances are short
functions over it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict

import numpy as np

from .hamiltonian import ObservableSum
from .pauli import X, Y, Z, LABEL_CHARS, PauliError
from .states import (BASIS_ROTATIONS, MultiReference, SingleReference,
                     SizeLimitError, StateVector)

ZERO_PROBABILITY = 1e-12  # beta entries below this count as exact zeros


class DivergenceError(ValueError):
    """A needed beta entry vanishes, so the single-shot variance diverges."""

    def __init__(self, qubit: int, label: int):
        super().__init__(
            f"beta({LABEL_CHARS[label]}) vanishes on qubit {qubit + 1} but a "
            f"Hamiltonian term is supported there; the variance diverges")
        self.qubit = qubit
        self.label = label


@dataclass(frozen=True)
class BetaDistribution:
    """Per-qubit probability triples over (X, Y, Z)."""

    n: int
    rows: np.ndarray  # (n, 3), row sums 1

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        if rows.shape != (self.n, 3):
            raise ValueError(f"expected shape ({self.n}, 3), got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValueError("beta entries must be finite")
        if np.any(rows < 0):
            raise ValueError("beta entries must be nonnegative")
        bad = np.abs(rows.sum(axis=1) - 1.0) > 1e-12
        if np.any(bad):
            raise ValueError(
                f"beta rows must sum to 1; qubit {int(np.argmax(bad)) + 1} "
                f"sums to {rows[np.argmax(bad)].sum()!r}")
        rows = rows.copy()
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    def to_dict(self) -> dict:
        return {"n": self.n, "rows": self.rows.tolist()}

    @classmethod
    def from_dict(cls, data) -> "BetaDistribution":
        if not isinstance(data, dict):
            raise ValueError("beta must be a JSON object")
        try:
            return cls(int(data["n"]), np.asarray(data["rows"], dtype=float))
        except KeyError as exc:
            raise ValueError(f"beta has no {exc} key") from None
        except TypeError as exc:
            raise ValueError(f"malformed beta: {exc}") from None

    @classmethod
    def load(cls, path) -> "BetaDistribution":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def uniform_beta(n: int) -> BetaDistribution:
    return BetaDistribution(n, np.full((n, 3), 1.0 / 3.0))


@dataclass(frozen=True)
class EstimateReport:
    mean: float
    variance: float             # single-shot sample variance
    shots: int
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


# -- sampling ------------------------------------------------------------

_LABEL_BLOCK = 1 << 16   # uniforms of one block of basis draws


def sample_basis_labels(beta: BetaDistribution, shots: int,
                        rng: np.random.Generator) -> np.ndarray:
    """(shots, n) uint8 label codes in {X, Y, Z}, drawn independently per
    qubit.  Shot s reads the uniforms s*n .. s*n + n - 1 of the stream and
    takes label 1 + #{c in (cum X, cum Y) : c <= u} on each qubit, where
    cum is the qubit's beta CDF.  The uniforms are drawn about
    ``_LABEL_BLOCK`` at a time, in whole rows."""
    cum = np.cumsum(beta.rows, axis=1)
    labels = np.empty((shots, beta.n), dtype=np.uint8)
    rows = max(1, _LABEL_BLOCK // max(beta.n, 1))
    for start in range(0, shots, rows):
        block = labels[start:start + rows]
        u = rng.random(block.shape)
        block[...] = 1
        block += u >= cum[:, 0]
        block += u >= cum[:, 1]
    return labels


def sample_outcomes(probs: np.ndarray, u: np.ndarray) -> np.ndarray:
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def divergent_positions(h: ObservableSum,
                        beta: BetaDistribution) -> np.ndarray:
    """(qubit, label - 1) rows where beta vanishes but some term needs it."""
    return np.argwhere(h.needed & (beta.rows <= ZERO_PROBABILITY))


def _check_divergence(h: ObservableSum, beta: BetaDistribution):
    bad = divergent_positions(h, beta)
    if bad.size:
        raise DivergenceError(int(bad[0, 0]), int(bad[0, 1]) + 1)


def reciprocal(beta: BetaDistribution) -> np.ndarray:
    """1/beta, with entries at or below ZERO_PROBABILITY mapped to 0."""
    ok = beta.rows > ZERO_PROBABILITY
    return np.where(ok, 1.0 / np.where(ok, beta.rows, 1.0), 0.0)


def inverse_factors(matched: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """prod_i inv[i, matched[i] - 1] over the qubits with matched[i] > 0,
    per column of the (n, m) label-code array ``matched``."""
    ext = np.hstack([np.ones((inv.shape[0], 1)), inv])
    out = np.ones(matched.shape[1])
    for i, codes in enumerate(matched):
        out *= ext[i, codes]
    return out


# -- Monte Carlo protocol ------------------------------------------------

# Shots per chunk of every sampler; reports do not depend on it, nor on
# the two caps of run_protocol below.
_SAMPLER_CHUNK = 1 << 15
_TRIE_AMPLITUDES = 1 << 14    # amplitudes of one batch of trie nodes
_ESTIMATE_ENTRIES = 1 << 16   # shots x terms entries of one estimate table
_BELOW_ONE = np.nextafter(1.0, 0.0)
_ROTATIONS = np.stack([BASIS_ROTATIONS[code] for code in (X, Y, Z)])
# |c0|^2 = |r00|^2 |lo|^2 + |r01|^2 |hi|^2 + 2 Re(conj(r00) r01 <lo, hi>)
_LO_WEIGHT = np.abs(_ROTATIONS[:, 0, 0]) ** 2
_HI_WEIGHT = np.abs(_ROTATIONS[:, 0, 1]) ** 2
_CROSS_WEIGHT = 2.0 * _ROTATIONS[:, 0, 0].conj() * _ROTATIONS[:, 0, 1]


def _rng_at(seed: int, offset: int) -> np.random.Generator:
    """The run's Philox stream with its first ``offset`` doubles consumed."""
    bits = np.random.Philox(key=seed)
    bits.advance(offset // 4)    # one counter step yields four doubles
    rng = np.random.Generator(bits)
    rng.random(offset % 4)
    return rng


def sample_outcome_indices(amps: np.ndarray, labels: np.ndarray,
                           u: np.ndarray) -> np.ndarray:
    """Outcome index of each shot, drawn qubit by qubit.

    Shot s measures qubit i in basis ``labels[s, i]`` and inverts the
    big-endian Born CDF at ``u[s]``.  That CDF factorises most
    significant qubit first, so the shots walk a trie whose nodes are
    the amplitude blocks of outcome prefixes.  At level k a node's halves
    lo, hi give the bit-0 mass of every basis label in closed form; the
    bit is ``u >= p0 / (p0 + p1)``, u is rescaled into the chosen branch,
    and each (node, label, bit) taken by some shot becomes a node of
    level k + 1: its block is row ``bit`` of the label's 2x2 rotation
    applied to (lo, hi).  Where a level's child blocks would hold more
    than ``_TRIE_AMPLITUDES`` amplitudes, the children are split into
    consecutive batches and each batch's shots walk on alone; subtrees
    share no node, so every shot sees the same floats either way.  A
    uniform within rounding of a CDF boundary may take the other branch
    than ``sample_outcomes(born_probabilities(...), u)`` does.
    """
    shots = labels.shape[0]
    out = np.empty(shots, dtype=np.uint64)
    _walk_trie(amps[None, :], np.zeros(shots, dtype=np.int32), labels,
               np.arange(shots, dtype=np.int32), u,
               np.zeros(shots, dtype=np.uint64), 0, out)
    return out


def _walk_trie(blocks, node, labels, shot, u, idx, level, out):
    """Walk the shots ``shot``, which sit at rows ``node`` of ``blocks``
    with outcome prefix ``idx``, from qubit ``level`` to the leaves, and
    write their outcome indices to ``out[shot]``."""
    n = labels.shape[1]
    for k in range(level, n):
        half = blocks.shape[1] // 2
        lo, hi = blocks[:, :half], blocks[:, half:]
        nlo = np.vecdot(lo, lo).real
        nhi = np.vecdot(hi, hi).real
        p0 = (np.outer(nlo, _LO_WEIGHT) + np.outer(nhi, _HI_WEIGHT)
              + np.outer(np.vecdot(lo, hi), _CROSS_WEIGHT).real)
        label = labels[shot, k] - 1
        t = p0[node, label] / (nlo + nhi)[node]
        bit = u >= t
        u = np.where(bit, u - t, u) / np.where(bit, 1.0 - t, t)
        u = np.minimum(u, _BELOW_ONE)
        idx = (idx << np.uint64(1)) | bit
        if k == n - 1:
            break
        child, node = np.unique(6 * node + 2 * label + bit,
                                return_inverse=True)
        node = node.astype(np.int32)     # as narrow as the shot indices
        rows = _ROTATIONS.reshape(6, 2)[child % 6]
        parent = child // 6
        batch = max(1, _TRIE_AMPLITUDES // half)
        if child.size <= batch:
            blocks = rows[:, :1] * lo[parent] + rows[:, 1:] * hi[parent]
            continue
        order = np.argsort(node, kind="stable")
        node, shot, u, idx = node[order], shot[order], u[order], idx[order]
        firsts = range(0, child.size, batch)
        bounds = np.searchsorted(node, np.append(firsts, child.size))
        for c0, s0, s1 in zip(firsts, bounds[:-1], bounds[1:]):
            c = slice(c0, c0 + batch)
            kids = rows[c, :1] * lo[parent[c]] + rows[c, 1:] * hi[parent[c]]
            _walk_trie(kids, node[s0:s1] - c0, labels, shot[s0:s1],
                       u[s0:s1], idx[s0:s1], k + 1, out)
        return
    out[shot] = idx


def _chunk_estimates(h: ObservableSum, weights: np.ndarray,
                     labels: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Single-shot estimates less the identity coefficient, by mask algebra.

    Term Q agrees with basis P iff ((x_P ^ x_Q) | (z_P ^ z_Q)) & supp_Q
    is zero (tested with x and z packed into one word), and then adds
    weight * (-1)^parity(outcome & supp_Q).  The (shots x terms) table is
    taken ``_ESTIMATE_ENTRIES // terms`` shots at a time.
    """
    count = h.num_terms()
    n = np.uint64(h.n)
    one = np.uint64(1)
    x_b = np.zeros(labels.shape[0], dtype=np.uint64)
    z_b = np.zeros(labels.shape[0], dtype=np.uint64)
    for codes in labels.T:      # qubit 1 ends as the most significant bit
        x_b <<= one
        x_b |= codes != Z
        z_b <<= one
        z_b |= codes != X
    basis = (x_b << n) | z_b
    term_masks = (h.x << n) | h.z
    supp = (h.supp << n) | h.supp
    step = max(1, _ESTIMATE_ENTRIES // max(count, 1))
    parts = []
    for start in range(0, labels.shape[0], step):
        miss = basis[start:start + step, None] ^ term_masks
        miss &= supp
        shot, term = np.divmod(np.flatnonzero(miss == 0), count)
        signs = 1.0 - 2.0 * (np.bitwise_count(outcomes[start + shot]
                                              & h.supp[term]) & 1)
        parts.append(np.bincount(shot, weights=signs * weights[term],
                                 minlength=miss.shape[0]))
    return np.concatenate(parts)


def _sequential_sum(total: float, values: np.ndarray) -> float:
    """total + values[0] + values[1] + ..., added left to right, so a sum
    over consecutive chunks does not depend on where they split."""
    return float(np.cumsum(np.concatenate(([total], values)))[-1])


def run_protocol(h: ObservableSum, v: StateVector, beta: BetaDistribution,
                 shots: int, seed: int) -> EstimateReport:
    """Algorithm: S rounds of biased basis draws and single-qubit readout.

    With uniform beta this is plain classical shadows.  Shots run in
    chunks of ``_SAMPLER_CHUNK``.  A chunk's outcomes are drawn qubit by
    qubit (``sample_outcome_indices``), whose trie levels are walked in
    batches of at most ``_TRIE_AMPLITUDES`` amplitudes, and its estimates
    come from mask algebra over the terms, at most ``_ESTIMATE_ENTRIES``
    shot-term entries at a time; so the working set grows with neither
    ``shots`` nor the number of terms.  The stream is the one a single
    draw would consume: all ``shots x n`` basis uniforms, then all
    ``shots`` outcome uniforms; each chunk reads its share of both at
    their place in that order.

    Each shot's estimate equals the per-shot reference path of
    ``tests/oracles.py`` (``measure_state`` + ``single_shot_estimate``)
    on the same uniforms, up to rounding.  The one exception is a uniform
    within rounding of a CDF boundary, which may in principle take the
    other outcome.  Mean and variance come from
    sums of the estimates less the identity coefficient, added left to
    right, so the report does not depend on the chunk size.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if h.n != v.n or beta.n != h.n:
        raise PauliError("qubit count mismatch")
    # a term needing a zero-probability label would never agree with a
    # drawn basis and drop out of the mean unnoticed
    _check_divergence(h, beta)
    weights = h.coeffs * inverse_factors(h.labels.T, reciprocal(beta))

    basis_rng = make_rng(seed)
    outcome_rng = _rng_at(seed, shots * h.n)
    s1 = s2 = 0.0
    for start in range(0, shots, _SAMPLER_CHUNK):
        size = min(_SAMPLER_CHUNK, shots - start)
        labels = sample_basis_labels(beta, size, basis_rng)
        outcomes = sample_outcome_indices(v.amplitudes, labels,
                                          outcome_rng.random(size))
        dev = _chunk_estimates(h, weights, labels, outcomes)
        s1 = _sequential_sum(s1, dev)
        s2 = _sequential_sum(s2, dev * dev)

    mean = h.identity_coefficient + s1 / shots
    var = max((s2 - s1 * s1 / shots) / (shots - 1), 0.0) if shots > 1 else 0.0
    return EstimateReport(mean, var, shots, seed)


# -- pair table and second moment ---------------------------------------

class PairTable:
    """Qubit-wise compatible term pairs (a, j), a <= j: ``h.pairs`` or a
    subset of it.

    The product Q_a Q_j is the string with masks (x, z) = (x_a ^ x_j,
    z_a ^ z_j) and phase 1.  ``matched[i]`` is the label both terms carry
    on qubit i, or 0 where they do not share one, so f(Q_a, Q_j, beta) is
    ``inverse_factors(matched, 1/beta)``.  ``weight`` is
    mult * alpha_a * alpha_j * scale with mult = 1 on the diagonal and 2
    off it, so a sum over the table is a sum over ordered pairs.
    """

    def __init__(self, h: ObservableSum, a: np.ndarray, j: np.ndarray,
                 scale=1.0):
        self.x = h.x[a] ^ h.x[j]
        self.z = h.z[a] ^ h.z[j]
        self.weight = (np.where(a == j, 1.0, 2.0) * h.coeffs[a]
                       * h.coeffs[j] * scale)
        self.matched = np.empty((h.n, a.size), dtype=np.uint8)
        for i, labels in enumerate(h.labels.T):
            self.matched[i] = np.where(labels[a] == labels[j], labels[a], 0)

    def moment(self, state) -> "SecondMoment":
        """The second moment on ``state``; its traces are taken once."""
        return SecondMoment(self.matched,
                            self.weight * state.pauli_traces(self.x, self.z))


class SecondMoment:
    """sum_p c_p f_p(beta) over a table, with c_p = weight * tr(rho Q_a Q_j)
    and f_p the product of 1/beta over the pair's matched positions.

    Both methods take the reciprocal rows ``inv`` = 1/beta.  The row
    numerators num[i, w - 1] = sum of c_p f_p over the pairs matched on
    (i, w) equal -beta * dC/dbeta, the ratio the Lagrange update uses.
    """

    def __init__(self, matched: np.ndarray, coeffs: np.ndarray):
        self.matched = matched
        self.coeffs = coeffs

    def value(self, inv: np.ndarray) -> float:
        return float(self.coeffs @ inverse_factors(self.matched, inv))

    def numerators(self, inv: np.ndarray) -> np.ndarray:
        mass = self.coeffs * inverse_factors(self.matched, inv)
        return np.stack([np.bincount(codes, weights=mass, minlength=4)[1:]
                         for codes in self.matched])


def exact_variance(h: ObservableSum, state, beta: BetaDistribution) -> float:
    """Single-shot variance of the biased-shadow estimator on ``state``.

    The second moment sum_{Q,R} f(Q,R,beta) a_Q a_R tr(rho QR) over the
    compatible pairs (f = 0 on the others) minus the squared mean.  The
    identity coefficient cancels between the two moments and is dropped
    from both.
    """
    if not isinstance(state, (StateVector, SingleReference, MultiReference)):
        raise TypeError(f"unsupported state type {type(state).__name__}")
    if beta.n != h.n or state.n != h.n:
        raise PauliError("qubit count mismatch")
    _check_divergence(h, beta)
    if h.num_terms() == 0:
        return 0.0
    second = PairTable(h, *h.pairs).moment(state).value(reciprocal(beta))
    mean0 = h.coeffs @ state.pauli_traces(h.x, h.z)
    return float(second - mean0 ** 2)
