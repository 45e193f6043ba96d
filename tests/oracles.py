"""Independent brute-force oracles used to pin expected values.

Everything here is built from dense matrices and exhaustive enumeration,
deliberately avoiding the library's bitmask fast paths, so oracle and
implementation can disagree when one of them is wrong.  The reference
samplers at the end are the differential references of the streamed
ones: they read the same uniforms, all shots at once, and the per-shot
path (``measure_state`` + ``single_shot_estimate``) one shot at a time.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from lbcs import (BetaDistribution, ObservableSum, StateVector,
                  parse_observable)
from lbcs.pauli import I, PauliError, PauliString
from lbcs.shadows import sample_basis_labels, sample_outcomes
from lbcs.states import born_probabilities

I2 = np.eye(2, dtype=complex)
SIGMA = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
CODE_TO_CHAR = "IXYZ"


def dense_from_text(text):
    return reduce(np.kron, (SIGMA[c] for c in text))


# -- term tables through their text ---------------------------------------

def observable(n, terms, identity=0.0):
    """The ObservableSum of {PauliString: coefficient}, through the text
    format (repr round-trips every float)."""
    lines = [f"{float(identity)!r} {'I' * n}"]
    lines += [f"{float(a)!r} {q.to_text()}" for q, a in terms.items()]
    return parse_observable("\n".join(lines))


def term_string(h, t):
    """The PauliString of term t, from its masks."""
    return PauliString(h.n, int(h.x[t]), int(h.z[t]))


def term_dict(h):
    """{PauliString: coefficient} of H's terms, in term-table order."""
    return {term_string(h, t): float(a) for t, a in enumerate(h.coeffs)}


def term_texts(h):
    return [term_string(h, t).to_text() for t in range(h.num_terms())]


def apply_pauli(q, amps):
    """q|v> through the mask matvec ``states.apply_pauli_raw``."""
    from lbcs.states import apply_pauli_raw

    return apply_pauli_raw(q.x_mask, q.z_mask, amps)


def reference_statevector(ref):
    """The statevector of a SingleReference or MultiReference."""
    if hasattr(ref, "signs"):
        return StateVector.from_bits(ref.bits)
    amps = np.zeros(1 << ref.n, dtype=complex)
    for bits, lam in zip(ref.bitstrings, ref.amplitudes):
        amps[int(bits, 2)] = lam
    return StateVector(ref.n, amps)


def dense_observable(h):
    dim = 1 << h.n
    mat = h.identity_coefficient * np.eye(dim, dtype=complex)
    for q, a in term_dict(h).items():
        mat = mat + a * dense_from_text(q.to_text())
    return mat


def outcome_probability(v, basis_text, signs):
    """<v| prod_i (I + s_i W_i)/2 |v> via dense projectors."""
    proj = reduce(np.kron, ((I2 + s * SIGMA[w]) / 2.0
                            for w, s in zip(basis_text, signs)))
    return float(np.real(np.vdot(v, proj @ v)))


def _f_value(basis_text, term_text, beta_rows):
    out = 1.0
    for i, (p, q) in enumerate(zip(basis_text, term_text)):
        if p == "I" or q == "I":
            continue
        if p != q:
            return 0.0
        prob = beta_rows[i]["XYZ".index(p)]
        if prob <= 0.0:
            return 0.0
        out *= 1.0 / prob
    return out


def shadow_moments(h, v, beta_rows):
    """Exhaustive (E[nu], E[nu^2]) of the biased-shadow estimator.

    Enumerates all 3^n bases weighted by the product bias and all 2^n
    sign patterns weighted by projector probabilities.
    """
    n = h.n
    terms = [(q.to_text(), a) for q, a in term_dict(h).items()]
    e1 = e2 = 0.0
    for basis in itertools.product("XYZ", repeat=n):
        basis_text = "".join(basis)
        p_basis = 1.0
        for i, w in enumerate(basis):
            p_basis *= beta_rows[i]["XYZ".index(w)]
        if p_basis == 0.0:
            continue
        for signs in itertools.product((1, -1), repeat=n):
            p_out = outcome_probability(v, basis_text, signs)
            if p_out == 0.0:
                continue
            nu = h.identity_coefficient
            for text, a in terms:
                f = _f_value(basis_text, text, beta_rows)
                if f == 0.0:
                    continue
                mu = 1
                for i, c in enumerate(text):
                    if c != "I":
                        mu *= signs[i]
                nu += a * f * mu
            w = p_basis * p_out
            e1 += w * nu
            e2 += w * nu * nu
    return e1, e2


def shadow_variance(h, v, beta_rows):
    e1, e2 = shadow_moments(h, v, beta_rows)
    return e2 - e1 * e1


def l1_moments(h, v):
    """Exhaustive moments of the l1-sampled estimator."""
    terms = term_dict(h)
    norm = sum(abs(a) for a in terms.values())
    e1 = e2 = 0.0
    for q, a in terms.items():
        gamma = abs(a) / norm
        text = q.to_text()
        # pad free qubits with Z; the estimator ignores them
        basis_text = "".join(c if c != "I" else "Z" for c in text)
        for signs in itertools.product((1, -1), repeat=h.n):
            p_out = outcome_probability(v, basis_text, signs)
            mu = 1
            for i, c in enumerate(text):
                if c != "I":
                    mu *= signs[i]
            nu = h.identity_coefficient + norm * np.sign(a) * mu
            w = gamma * p_out
            e1 += w * nu
            e2 += w * nu * nu
    return e1, e2


def _group_sum_law(h, coll, basis_text, v):
    """Yield (probability, sum_q alpha_q mu_q) over the outcomes of one
    group (term indices) read out in its basis."""
    for signs in itertools.product((1, -1), repeat=h.n):
        p_out = outcome_probability(v, basis_text, signs)
        if p_out == 0.0:
            continue
        total = 0.0
        for t in coll:
            mu = 1
            for i, c in enumerate(term_string(h, t).to_text()):
                if c != "I":
                    mu *= signs[i]
            total += h.coeffs[t] * mu
        yield p_out, total


def grouping_moments(h, scheme, v):
    """Exhaustive moments of the kappa-sampled grouping estimator."""
    e1 = e2 = 0.0
    for k, coll in enumerate(scheme.collections):
        kappa = float(scheme.kappa[k])
        if kappa == 0.0:
            continue
        basis_text = scheme.bases[k].to_text()
        for p_out, total in _group_sum_law(h, coll, basis_text, v):
            nu = h.identity_coefficient + total / kappa
            w = kappa * p_out
            e1 += w * nu
            e2 += w * nu * nu
    return e1, e2


def grouping_allocated_moments(h, scheme, v):
    """Exhaustive per-group (A_k, Var_k) of the traceless group sum.

    A_k and Var_k are the mean and variance of sum_q alpha_q mu_q over
    collection k measured in its basis.  With N_k = kappa_k N shots given
    to group k, N times the variance of the grouping mean is
    sum_k Var_k / kappa_k.
    """
    means = np.zeros(len(scheme.collections))
    variances = np.zeros(len(scheme.collections))
    for k, coll in enumerate(scheme.collections):
        basis_text = scheme.bases[k].to_text()
        m1 = m2 = 0.0
        for p_out, total in _group_sum_law(h, coll, basis_text, v):
            m1 += p_out * total
            m2 += p_out * total * total
        means[k] = m1
        variances[k] = m2 - m1 * m1
    return means, variances


def strings_qubitwise_commute(s, t):
    """Character-level check, independent of the bitmask implementation."""
    return all(a == "I" or b == "I" or a == b for a, b in zip(s, t))


def string_agrees_with_basis(s, basis):
    """Character-level: every non-identity label of s is basis's label."""
    return all(a == "I" or a == b for a, b in zip(s, basis))


def coloring_is_proper(h, collections):
    for coll in collections:
        texts = [term_string(h, t).to_text() for t in coll]
        for a in range(len(texts)):
            for b in range(a + 1, len(texts)):
                if not strings_qubitwise_commute(texts[a], texts[b]):
                    return False
    return True


def product_state_density(signs):
    return reduce(np.kron, ((I2 + m * SIGMA["Z"]) / 2.0 for m in signs))


# -- random instances -----------------------------------------------------

def random_hamiltonian(rng, n, max_terms, include_identity=True,
                       zero_free_beta_safe=False):
    count = int(rng.integers(1, max_terms + 1))
    terms = {}
    tries = 0
    while len(terms) < count and tries < 100:
        tries += 1
        labels = rng.integers(0, 4, size=n)
        if not labels.any():
            continue
        q = PauliString.from_labels([int(c) for c in labels])
        terms[q] = float(rng.uniform(-1, 1)) or 0.5
    ident = float(rng.uniform(-1, 1)) if include_identity else 0.0
    return observable(n, terms, ident)


def random_state(rng, n):
    from lbcs import StateVector

    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(n, amps / np.linalg.norm(amps))


def random_beta(rng, n, min_entry=0.05):
    from lbcs import BetaDistribution

    rows = rng.uniform(min_entry, 1.0, size=(n, 3))
    return BetaDistribution(n, rows / rows.sum(axis=1, keepdims=True))


def random_signs(rng, n):
    return tuple(int(s) for s in rng.choice([1, -1], size=n))


def masks(strings):
    """uint64 (x, z) mask arrays of the Pauli strings, for ``pauli_traces``."""
    return (np.array([q.x_mask for q in strings], dtype=np.uint64),
            np.array([q.z_mask for q in strings], dtype=np.uint64))


# -- reference samplers ---------------------------------------------------

def _sample_index(probs, u):
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def _report(estimates, shots, seed):
    from lbcs import EstimateReport

    var = float(estimates.var(ddof=1)) if shots > 1 else 0.0
    return EstimateReport(float(estimates.mean()), var, shots, seed)


def basis_labels_at_once(beta, shots, rng):
    """(shots, n) int64 label codes from one (shots, n) block of uniforms,
    inverting each qubit's beta CDF; the differential reference of the
    blocked ``shadows.sample_basis_labels``."""
    u = rng.random((shots, beta.n))
    labels = np.empty((shots, beta.n), dtype=np.int64)
    for i in range(beta.n):
        cum = np.cumsum(beta.rows[i])
        cum[-1] = 1.0
        labels[:, i] = np.searchsorted(cum, u[:, i], side="right") + 1
    return labels


def chunk_estimates_by_products(h, weights, labels, outcomes):
    """``shadows._chunk_estimates`` with the basis words packed through
    (shots x n) uint64 products of the label codes and the bit places,
    and the whole (shots x terms) table at once."""
    from lbcs.pauli import X, Z

    n = np.uint64(h.n)
    place = np.uint64(1) << np.arange(h.n - 1, -1, -1, dtype=np.uint64)
    x_b = ((labels != Z) * place).sum(axis=1, dtype=np.uint64)
    z_b = ((labels != X) * place).sum(axis=1, dtype=np.uint64)
    miss = ((x_b << n) | z_b)[:, None] ^ ((h.x << n) | h.z)
    miss &= (h.supp << n) | h.supp
    shot, term = np.nonzero(miss == 0)
    signs = 1.0 - 2.0 * (np.bitwise_count(outcomes[shot] & h.supp[term]) & 1)
    return np.bincount(shot, weights=signs * weights[term],
                       minlength=labels.shape[0])


def l1_reference(h, v, shots, seed):
    """The l1 sampler holding all shots at once: draw every term index from
    gamma = |alpha| / l1 norm (terms sorted by text, the Pauli total
    order), then every sign uniform; a shot's sign is +1 with probability
    (1 + <v|P|v>) / 2."""
    from lbcs import l1_norm

    coeffs = term_dict(h)
    terms = sorted(coeffs, key=PauliString.to_text)
    probs = np.array([abs(coeffs[q]) for q in terms]) / l1_norm(h)
    signs = np.array([np.sign(coeffs[q]) for q in terms])
    means = v.pauli_traces(*masks(terms))
    rng = np.random.Generator(np.random.Philox(key=seed))
    which = _sample_index(probs, rng.random(shots))
    u = rng.random(shots)
    mu = np.where(u < 0.5 * (1.0 + means[which]), 1.0, -1.0)
    estimates = h.identity_coefficient + l1_norm(h) * signs[which] * mu
    return _report(estimates, shots, seed)


def grouping_reference(h, scheme, v, shots, seed):
    """The grouping sampler holding all shots at once: draw every
    collection from kappa, then every outcome uniform; a shot of
    collection k inverts the Born CDF of its basis and sums
    alpha_q / kappa_k * (-1)^parity(outcome & supp q) over the members,
    through a (shots_k x terms_k) sign matrix."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    which = _sample_index(scheme.kappa.copy(), rng.random(shots))
    u = rng.random(shots)
    estimates = np.empty(shots)
    for k in np.unique(which):
        sel = np.nonzero(which == k)[0]
        coll = scheme.collections[k]
        if not coll.size:
            estimates[sel] = h.identity_coefficient
            continue
        probs = born_probabilities(v, scheme.bases[k])
        outcomes = _sample_index(probs, u[sel]).astype(np.uint64)
        weights = h.coeffs[coll] / scheme.kappa[k]
        masks = h.supp[coll]
        signs = 1.0 - 2.0 * (np.bitwise_count(outcomes[:, None] & masks) & 1)
        estimates[sel] = h.identity_coefficient + signs @ weights
    return _report(estimates, shots, seed)


# -- per-shot reference path ----------------------------------------------

@dataclass(frozen=True)
class MeasurementRecord:
    basis: PauliString          # full-weight
    outcomes: tuple             # n values of +-1

    def __post_init__(self):
        if not self.basis.is_full_weight():
            raise PauliError("measurement basis must be full-weight")
        if len(self.outcomes) != self.basis.n:
            raise ValueError("one outcome per qubit required")


def sample_basis(beta: BetaDistribution,
                 rng: np.random.Generator) -> PauliString:
    return PauliString.from_labels(sample_basis_labels(beta, 1, rng)[0])


def measure_state(v: StateVector, basis: PauliString,
                  rng: np.random.Generator) -> MeasurementRecord:
    """One projective measurement of every qubit in the given bases."""
    if v.n != basis.n:
        raise PauliError(f"qubit count mismatch: {v.n} vs {basis.n}")
    probs = born_probabilities(v, basis)
    idx = int(sample_outcomes(probs, rng.random(1))[0])
    outcomes = tuple(
        1 - 2 * ((idx >> (v.n - 1 - i)) & 1) for i in range(v.n))
    return MeasurementRecord(basis, outcomes)


def single_shot_estimate(h: ObservableSum, record: MeasurementRecord,
                         beta: BetaDistribution) -> float:
    if h.n != record.basis.n:
        raise PauliError("qubit count mismatch between H and record")
    total = h.identity_coefficient
    for q, a in term_dict(h).items():
        f = f_factor(record.basis, q, beta)
        if f == 0.0:
            continue
        mu = 1
        for i, c in enumerate(q.to_text()):
            if c != "I":
                mu *= record.outcomes[i]
        total += a * f * mu
    return total


def _check_same_n(p: PauliString, q: PauliString):
    if p.n != q.n:
        raise PauliError(f"qubit count mismatch: {p.n} vs {q.n}")


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
