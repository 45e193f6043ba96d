"""Baseline estimators: l1 term sampling and LDF commuting-group sampling.

Both draw a measurement basis per shot, read out single qubits, and
rescale by the inverse sampling weight.  Grouping colors the term graph
greedily, largest degree first.  Its edges join the pairs that are not
qubit-wise commuting (XX and YY commute but clash); it is stored as their
complement, the pair list ``h.pairs`` the variances also read.  Colors
become collections of term indices, each checked against and measured in
one shared full-weight basis; term text exists only in scheme files and
error messages.

Both samplers stream shots in chunks of ``_SAMPLER_CHUNK``, so memory
does not grow with the shot count.  Each consumes the run seed's Philox
stream in a fixed order: all term (or collection) uniforms, then all
outcome uniforms, each chunk reading its share of both.  A shot's
estimate depends only on its term and sign, or on its collection and
outcome index, so a chunk only counts those pairs; the report comes from
the exact counts and does not depend on the chunk size.  The grouping
sampler tabulates each collection's estimate over all 2^n outcomes once
(a Walsh-Hadamard transform), keeps each basis's Born CDF and a bucket
guide to it, and draws every shot's outcome by one bucketed inversion of
those CDFs; these take K * 2^n entries each (the guide K * (2^n + 1)
int32 ones), and above ``TABLE_ENTRY_LIMIT`` it raises SizeLimitError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hamiltonian import HamiltonianFormatError, ObservableSum, l1_norm
from .pauli import I, Z, PauliError, PauliString, label_texts
from .shadows import (_SAMPLER_CHUNK, EstimateReport, PairTable,
                      SizeLimitError, _rng_at, make_rng, sample_outcomes)
from .states import (StateVector, born_probabilities, observable_expectation,
                     walsh_hadamard)


# Entries of the grouping tables (and of the CDFs): groups x 2^n
TABLE_ENTRY_LIMIT = 1 << 24


class GroupingError(ValueError):
    """A grouping scheme that is malformed or does not fit H."""


@dataclass(frozen=True)
class TermGraph:
    """H's traceless terms in term-table order with their (V, n) label
    codes; edges join the terms that are not qubit-wise commuting.  The
    compatible neighbours of a are neighbours[indptr[a]:indptr[a + 1]]."""

    labels: np.ndarray
    indptr: np.ndarray
    neighbours: np.ndarray

    def degrees(self) -> np.ndarray:
        return len(self.labels) - 1 - np.diff(self.indptr)

    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    def edge_count(self) -> int:
        return int(self.degrees().sum()) // 2


def build_term_graph(h: ObservableSum) -> TermGraph:
    a, j = h.pairs
    off = a != j
    key = np.concatenate([j[off], a[off]], dtype=np.int64)
    key <<= 32      # (row, neighbour) in one word, sorted row-major
    key[:key.size // 2] |= a[off]
    key[key.size // 2:] |= j[off]
    key.sort()
    rows = np.arange(h.num_terms() + 1, dtype=np.int64) << 32
    return TermGraph(h.labels, np.searchsorted(key, rows), key.astype(np.int32))


def ldf_coloring(graph: TermGraph) -> list:
    """Greedy coloring in decreasing-degree order; ties broken by the
    Pauli total order.  Guarantees at most 1 + max degree colors.
    Returns each color's term indices, in Pauli order.  A vertex takes
    the first color all of whose members are compatible neighbours."""
    count = len(graph.labels)
    color = np.full(count, -1)
    sizes = np.zeros(count + 1, dtype=np.int64)
    used = 0
    for i in np.lexsort((*graph.labels.T[::-1], -graph.degrees())):
        near = color[graph.neighbours[graph.indptr[i]:graph.indptr[i + 1]]]
        # bin 0 counts the uncolored neighbours; color `used` is free
        seen = np.bincount(near + 1, minlength=used + 2)[1:]
        color[i] = c = int(np.argmax(seen == sizes[:used + 1]))
        sizes[c] += 1
        used = max(used, c + 1)
    pauli = np.lexsort(graph.labels.T[::-1])
    members = pauli[np.argsort(color[pauli], kind="stable")]
    return np.split(members, np.cumsum(sizes[:used - 1])) if used else []


def representative_basis(h: ObservableSum, members) -> PauliString:
    """The full-weight basis every listed term agrees with; free qubits
    get Z."""
    labels = h.labels[members]
    top = labels.max(axis=0, initial=I)
    low = np.where(labels == I, Z + 1, labels).min(axis=0, initial=Z + 1)
    bad = (top != I) & (low != top)
    if np.any(bad):
        raise GroupingError(
            f"conflicting labels on qubit {int(np.argmax(bad)) + 1}: "
            f"collection is not qubit-wise commuting")
    return PauliString.from_labels(np.where(top == I, Z, top).tolist())


def _owners(collections):
    """(collection index, term index) of each member, in member order."""
    sizes = [len(members) for members in collections]
    terms = np.concatenate([np.zeros(0, dtype=np.int64), *collections])
    return np.repeat(np.arange(len(sizes)), sizes), terms


def collection_l1(h: ObservableSum, collections) -> np.ndarray:
    """l1 mass sum_t |alpha_t| of each collection's terms, added in
    member order."""
    owner, terms = _owners(collections)
    return np.bincount(owner, weights=np.abs(h.coeffs[terms]),
                       minlength=len(collections))


def kappa_weights(h: ObservableSum, collections) -> np.ndarray:
    """kappa(C) = l1 mass of the collection over the total l1 norm."""
    norm = l1_norm(h)
    if norm <= 0:
        raise GroupingError("no traceless mass to distribute")
    if sum(len(members) for members in collections) != h.num_terms():
        raise GroupingError("collections do not partition the traceless terms")
    kappa = collection_l1(h, collections) / norm
    return kappa / kappa.sum()


@dataclass(frozen=True, eq=False)
class GroupingScheme:
    """A partition of H's terms into collections: collection k holds the
    term indices ``collections[k]``, is measured in the full-weight basis
    ``bases[k]`` and drawn with probability ``kappa[k]``."""

    h: ObservableSum
    collections: tuple        # of int64 term-index arrays into h
    bases: tuple              # of full-weight h.n-qubit PauliString
    kappa: np.ndarray

    def __post_init__(self):
        if not (len(self.collections) == len(self.bases) == len(self.kappa)):
            raise GroupingError("collections, bases and kappa must align")
        kappa = np.asarray(self.kappa, dtype=float)
        # written so that a NaN entry fails the test
        if not (np.all(kappa >= 0) and abs(kappa.sum() - 1.0) <= 1e-12):
            raise GroupingError("kappa must be a probability vector")
        h = self.h
        for k, basis in enumerate(self.bases):
            if basis.n != h.n or not basis.is_full_weight():
                raise GroupingError(f"basis {k} ({basis}) is not a "
                                    f"full-weight {h.n}-qubit string")
        collections = tuple(np.asarray(members, dtype=np.int64)
                            for members in self.collections)
        owner, terms = _owners(collections)
        idle = (np.bincount(owner, minlength=len(kappa)) > 0) & (kappa == 0)
        if np.any(idle):
            raise GroupingError(f"collection {np.argmax(idle)} is nonempty "
                                f"but has zero sampling weight")
        bx, bz = np.array([(b.x_mask, b.z_mask) for b in self.bases],
                          dtype=np.uint64)[owner].T
        miss = ((h.x[terms] ^ bx) | (h.z[terms] ^ bz)) & h.supp[terms]
        if np.any(miss):
            i = np.argmax(miss != 0)
            raise GroupingError(f"{label_texts(h.labels)[terms[i]]} does not "
                                f"agree with its basis {self.bases[owner[i]]}")
        times = np.bincount(terms, minlength=h.num_terms())
        if np.any(times != 1):
            t = np.argmax(times != 1)
            raise GroupingError(f"scheme lists term {label_texts(h.labels)[t]}"
                                f" {times[t]} times, not once")
        object.__setattr__(self, "collections", collections)
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def of_collections(cls, h: ObservableSum, collections) -> "GroupingScheme":
        """Collections measured in representative bases, drawn by l1 mass."""
        bases = tuple(representative_basis(h, members)
                      for members in collections)
        return cls(h, tuple(collections), bases, kappa_weights(h, collections))

    @property
    def k_groups(self) -> int:
        return len(self.collections)

    def to_dict(self) -> dict:
        texts = label_texts(self.h.labels)
        return {
            "collections": [[texts[t] for t in members]
                            for members in self.collections],
            "bases": [b.to_text() for b in self.bases],
            "kappa": self.kappa.tolist(),
        }

    @classmethod
    def from_dict(cls, data, h: ObservableSum) -> "GroupingScheme":
        """The scheme of a JSON object, its strings resolved against H's
        terms through one text -> term index map."""
        if not isinstance(data, dict):
            raise GroupingError("scheme must be a JSON object")
        index = dict(zip(label_texts(h.labels), range(h.num_terms())))

        def text(entry) -> str:
            if not isinstance(entry, str):
                raise GroupingError(f"scheme entry {entry!r} is not a Pauli "
                                    f"string")
            return entry.upper()

        try:
            collections = tuple(tuple(map(text, coll))
                                for coll in data["collections"])
            bases = tuple(PauliString.from_text(text(b))
                          for b in data["bases"])
            kappa = np.asarray(data["kappa"], dtype=float)
        except KeyError as exc:
            raise GroupingError(f"scheme has no {exc} key") from None
        except TypeError as exc:
            raise GroupingError(f"malformed scheme: {exc}") from None
        if not bases:
            raise GroupingError("scheme has no bases")
        if kappa.ndim != 1:
            raise GroupingError("kappa must be a list of numbers")
        try:
            rows = tuple(np.array([index[q] for q in coll], dtype=np.int64)
                         for coll in collections)
        except KeyError as exc:
            raise GroupingError(f"scheme string {exc.args[0]} is not a term "
                                f"of the {h.n}-qubit Hamiltonian") from None
        return cls(h, rows, bases, kappa)

    @classmethod
    def load(cls, path, h: ObservableSum) -> "GroupingScheme":
        with open(path) as fh:
            return cls.from_dict(json.load(fh), h)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def build_grouping(h: ObservableSum) -> GroupingScheme:
    """LDF coloring plus representatives and l1 sampling weights."""
    return GroupingScheme.of_collections(h, ldf_coloring(build_term_graph(h)))


# -- l1 sampling ----------------------------------------------------------

def l1_exact_variance(h: ObservableSum, v: StateVector) -> float:
    """Closed form: l1 norm squared minus the squared traceless mean."""
    mean0 = observable_expectation(h, v) - h.identity_coefficient
    return l1_norm(h) ** 2 - mean0 ** 2


def _histogram_report(counts: np.ndarray, values: np.ndarray, offset: float,
                      shots: int, seed: int) -> EstimateReport:
    """Report of ``shots`` estimates offset + values[i], each drawn
    counts[i] times.  The counts are exact, so the report does not depend
    on how the shots were split into chunks; mean and variance are two
    passes over the histogram."""
    weights = counts.astype(float)
    mean0 = float(weights @ values) / shots
    var = (float(weights @ (values - mean0) ** 2) / (shots - 1)
           if shots > 1 else 0.0)
    return EstimateReport(offset + mean0, var, shots, seed)


def l1_protocol(h: ObservableSum, v: StateVector, shots: int,
                seed: int) -> EstimateReport:
    """Draw a term from gamma per shot, measure only its support, and
    rescale by the l1 norm and coefficient sign.

    The estimator depends on the measured bits only through the product
    mu(P, supp(P)), whose exact two-point law has mean tr(rho P); the
    product is sampled directly from that law: +1 when the shot's sign
    uniform is below (1 + tr(rho P)) / 2.  The stream holds all term
    uniforms (terms in the Pauli total order), then all sign uniforms.
    Shots run ``_SAMPLER_CHUNK`` at a time, each chunk reading its share
    of both and counting its (term, sign) pairs, so memory does not grow
    with ``shots``.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if h.n != v.n:
        raise PauliError("qubit count mismatch")
    norm = l1_norm(h)
    if norm <= 0.0:
        raise HamiltonianFormatError(
            "gamma distribution undefined: no traceless terms")
    order = np.lexsort(h.labels.T[::-1])          # the Pauli total order
    probs = np.abs(h.coeffs[order]) / norm
    p_plus = 0.5 * (1.0 + v.pauli_traces(h.x[order], h.z[order]))

    term_rng = make_rng(seed)
    sign_rng = _rng_at(seed, shots)
    counts = np.zeros(2 * h.num_terms(), dtype=np.int64)   # [term, mu > 0]
    for start in range(0, shots, _SAMPLER_CHUNK):
        size = min(_SAMPLER_CHUNK, shots - start)
        which = sample_outcomes(probs, term_rng.random(size))
        plus = sign_rng.random(size) < p_plus[which]
        np.add.at(counts, 2 * which + plus, 1)
    scale = norm * np.sign(h.coeffs[order])
    values = np.stack([-scale, scale], axis=1).ravel()
    return _histogram_report(counts, values, h.identity_coefficient, shots,
                             seed)


# -- grouping estimator ---------------------------------------------------

def _check_scheme_of(h: ObservableSum, scheme: GroupingScheme):
    if scheme.h is not h:
        raise GroupingError("the scheme was built for another Hamiltonian")


def _group_tables(h: ObservableSum, scheme: GroupingScheme, v: StateVector):
    """(tables, cdfs), both (K, 2^n).  tables[k, o] is the estimate less
    the identity coefficient of a collection-k shot with outcome o:
    sum_t alpha_t / kappa_k (-1)^parity(o & supp_t), the Walsh-Hadamard
    transform of the weights placed at the members' support masks (members
    of one collection agree with one basis, so their masks differ).
    cdfs[k] is the Born CDF of basis k, its last entry set to 1.  Above
    ``TABLE_ENTRY_LIMIT`` entries, which also bounds the int32 guide that
    ``_cdf_guide`` builds from the CDFs, the call raises SizeLimitError
    before allocating them."""
    entries = scheme.k_groups << h.n
    if entries > TABLE_ENTRY_LIMIT:
        raise SizeLimitError(
            f"{scheme.k_groups} groups on {h.n} qubits need {entries} "
            f"table entries, above the limit of {TABLE_ENTRY_LIMIT}")
    tables = np.zeros((scheme.k_groups, 1 << h.n))
    cdfs = np.ones_like(tables)    # an empty collection reads outcome 0
    for k, terms in enumerate(scheme.collections):
        if not terms.size:
            continue
        tables[k, h.supp[terms]] = h.coeffs[terms] / scheme.kappa[k]
        cdfs[k] = np.cumsum(born_probabilities(v, scheme.bases[k]))
        cdfs[k, -1] = 1.0
    return walsh_hadamard(tables), cdfs


def _cdf_guide(cdfs: np.ndarray) -> np.ndarray:
    """(K, 2^n + 1) int32 bucket guide of the (K, 2^n) CDFs: guide[k, b]
    is the flat index into ``cdfs`` of the outcome that
    searchsorted(cdfs[k], b / 2^n, side="right") gives, clipped to the
    last outcome, so every entry lies in row k."""
    count, size = cdfs.shape
    grid = np.arange(size + 1) / size      # exact: size is a power of two
    guide = np.empty((count, size + 1), dtype=np.int32)
    for k, cdf in enumerate(cdfs):
        guide[k] = np.minimum(np.searchsorted(cdf, grid, side="right"),
                              size - 1)
        guide[k] += k * size
    return guide


def _invert_cdfs(flat_cdf: np.ndarray, guide: np.ndarray, which: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Flat index k * 2^n + searchsorted(cdfs[k], u, side="right") of each
    shot, with k = ``which`` and u in [0, 1); ``flat_cdf`` is the
    raveled CDFs and ``guide`` their ``_cdf_guide``.

    Bucket b = floor(u * 2^n) (exact, as 2^n is a power of two) brackets
    the outcome between guide[k, b] and guide[k, b + 1].  A shot whose
    CDF exceeds u at the lower end takes it; the others bisect the rest
    of their bracket in at most n vectorized passes, so a long run of
    zero-probability outcomes costs no linear walk.  Every comparison is
    the ``cdf > u`` that searchsorted makes, so the outcomes equal its."""
    b = (u * (guide.shape[1] - 1)).astype(np.int64)
    out = guide[which, b]
    rest = np.flatnonzero(flat_cdf[out] <= u)
    lo = out[rest] + 1          # the outcome lies in [lo, hi]
    hi = guide[which[rest], b[rest] + 1]
    ur = u[rest]
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        above = flat_cdf[mid] > ur
        np.copyto(hi, mid, where=above)
        np.copyto(lo, mid + 1, where=~above)
    out[rest] = lo
    return out


def grouping_protocol(h: ObservableSum, scheme: GroupingScheme,
                      v: StateVector, shots: int, seed: int) -> EstimateReport:
    """Per shot: pick a collection from kappa, measure all qubits in its
    representative basis, average the inverse-kappa-weighted group sum.

    The stream holds all collection uniforms, then all outcome uniforms.
    Shots run ``_SAMPLER_CHUNK`` at a time, each chunk reading its share
    of both, so memory does not grow with ``shots``.  A chunk's shots take
    their outcomes, whatever their collections, by one bucketed inversion
    of the Born CDFs (``_invert_cdfs`` over the guide of ``_cdf_guide``),
    and the chunk adds to the counts of (collection, outcome) pairs.  A
    pair's estimate is one entry of the collection's table
    (``_group_tables``).  The tables, CDFs and counts hold K * 2^n entries
    each and the guide K * (2^n + 1) int32 entries; above
    ``TABLE_ENTRY_LIMIT`` the call raises SizeLimitError before allocating
    them.  The CDFs and the guide are released before the report.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if h.n != v.n:
        raise PauliError("qubit count mismatch")
    _check_scheme_of(h, scheme)
    tables, cdfs = _group_tables(h, scheme, v)
    guide = _cdf_guide(cdfs)

    group_rng = make_rng(seed)
    outcome_rng = _rng_at(seed, shots)
    counts = np.zeros(tables.size, dtype=np.int64)   # [which, outcome]
    for start in range(0, shots, _SAMPLER_CHUNK):
        size = min(_SAMPLER_CHUNK, shots - start)
        which = sample_outcomes(scheme.kappa, group_rng.random(size))
        np.add.at(counts, _invert_cdfs(cdfs.ravel(), guide, which,
                                       outcome_rng.random(size)), 1)
    del cdfs, guide             # the report reads only tables and counts
    return _histogram_report(counts, tables.ravel(), h.identity_coefficient,
                             shots, seed)


def grouping_exact_variance_both(h: ObservableSum, scheme: GroupingScheme,
                                 v: StateVector):
    """Both closed-form variance expressions for the grouping estimator.

    With A_k and B_k the first and second moments of collection k's sum
    sum_q alpha_q mu_q in its basis, the first is
    sum_k B_k/kappa_k - (sum_k A_k)^2, the exact single-shot variance of
    the kappa-sampled estimator.  The second is the covariance form
    sum_k (B_k - A_k^2)/kappa_k: N times the variance of the mean when
    N_k = kappa_k N shots go to collection k (ignoring the rounding of
    kappa_k N).  Their gap is the kappa-weighted dispersion of the
    per-group conditional means,

        first - second = sum_k kappa_k (A_k/kappa_k - sum_j A_j)^2 >= 0,

    which is zero only when every A_k/kappa_k equals tr(rho H_0).
    """
    _check_scheme_of(h, scheme)
    group = np.empty(h.num_terms(), dtype=np.int64)
    owner, terms = _owners(scheme.collections)
    group[terms] = owner
    # members of one collection agree qubit-wise: their pairs are in h.pairs
    a, j = h.pairs
    same = group[a] == group[j]
    a, j = a[same], j[same]
    table = PairTable(h, a, j, scale=1.0 / scheme.kappa[group[a]])
    pair_sum = float(table.weight @ v.pauli_traces(table.x, table.z))
    singles = h.coeffs * v.pauli_traces(h.x, h.z)
    means = np.bincount(group, weights=singles, minlength=scheme.k_groups)
    used = np.bincount(group, minlength=scheme.k_groups) > 0
    mean0 = singles.sum()
    first = pair_sum - mean0 ** 2
    second = pair_sum - float(means[used] ** 2 @ (1.0 / scheme.kappa[used]))
    return first, second


def grouping_exact_variance(h: ObservableSum, scheme: GroupingScheme,
                            v: StateVector) -> float:
    return grouping_exact_variance_both(h, scheme, v)[0]
