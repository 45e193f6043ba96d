"""Cost functions for measurement-bias tuning and their fixed-point solver.

Every cost is the estimator's traceless second moment, evaluated by the
pair-table engine of ``shadows`` on a classical stand-in for the state:
the diagonal cost keeps only the diagonal pairs (trace 1; convex and
state-independent), the full cost takes every compatible pair on a
single computational-basis reference, and the multi-reference cost on a
superposition of K of them (K = 1 gives the full cost).  The table and
its traces are built once per optimization; an iteration recomputes only
the inverse-probability factors.

Minimization iterates a damped Lagrange fixed point:
beta <- (1 - step) * beta + step * closed(beta), where closed(beta)
normalizes each qubit's row numerators -beta * dC/dbeta.  For all three
costs a fixed point with positive rows (no entry floored) has dC/dbeta
constant along each row: it is a KKT point of the cost on the product
of simplices.  Only the diagonal cost is convex, so only there is such a
point certainly the global minimum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .hamiltonian import ObservableSum
from .shadows import (BetaDistribution, PairTable, SecondMoment,
                      divergent_positions, reciprocal, uniform_beta)
from .states import MultiReference, SingleReference

FLOOR = 1e-9   # lowest beta entry an update keeps; below 10x it ends at 0


class DivergenceWarning(UserWarning):
    """A beta entry vanished at a position some term needs; the reported
    cost is finite by convention but the true variance is infinite."""


@dataclass(frozen=True)
class OptimizerConfig:
    step: float = 0.5
    tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if not 0.0 < self.step < 1.0:
            raise ValueError("step must lie in (0, 1)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class OptimizeResult:
    beta: BetaDistribution
    cost: float
    iterations: int
    converged: bool
    kkt_residual: float
    floored_updates: int
    untouched_qubits: tuple

    def to_dict(self) -> dict:
        return {
            "beta": self.beta.to_dict(),
            "cost": self.cost,
            "iterations": self.iterations,
            "converged": self.converged,
            "kkt_residual": self.kkt_residual,
            "floored_updates": self.floored_updates,
            "untouched_qubits": list(self.untouched_qubits),
        }


# -- the costs as second moments -----------------------------------------

def _cost_moment(h: ObservableSum, reference=None) -> SecondMoment:
    """A cost as a second moment: over the diagonal pairs (product I,
    trace 1) without a reference (diag), over every compatible pair on
    the reference state otherwise (full, multiref)."""
    if reference is None:
        return SecondMoment(h.labels.T, h.coeffs ** 2)
    if reference.n != h.n:
        raise ValueError("reference state size mismatch")
    return PairTable(h, *h.pairs).moment(reference)


def _evaluate(h: ObservableSum, moment: SecondMoment,
              beta: BetaDistribution) -> float:
    if divergent_positions(h, beta).size:
        warnings.warn(
            "beta vanishes at a position used by a Hamiltonian term; the "
            "reported cost under-reports an infinite variance",
            DivergenceWarning, stacklevel=3)
    return moment.value(reciprocal(beta))


def cost_diag(h: ObservableSum, beta: BetaDistribution) -> float:
    """Convex diagonal cost: sum_Q alpha_Q^2 prod_supp 1/beta."""
    return _evaluate(h, _cost_moment(h), beta)


def cost_full(h: ObservableSum, ref: SingleReference,
              beta: BetaDistribution) -> float:
    """Influential-pair cost: the second moment on the reference state."""
    return _evaluate(h, _cost_moment(h, ref), beta)


def cost_multiref(h: ObservableSum, ref: MultiReference,
                  beta: BetaDistribution) -> float:
    """The second moment on the multi-component reference state; equals
    cost_full for one component."""
    return _evaluate(h, _cost_moment(h, ref), beta)


# -- the Lagrange rows ---------------------------------------------------

def _rows_from_num(num: np.ndarray, current: np.ndarray, floor: float):
    """The closed-form rows num / (row sum), with (rows, row sums, count
    of negative entries).  A qubit whose row sums to 0 keeps its
    ``current`` row; entries below ``floor`` (negative numerators come
    from sign-flipped cross terms) are raised to it and the row is
    renormalized."""
    den = num.sum(axis=1)
    rows = current.copy()
    floored = 0
    for i in range(num.shape[0]):
        if den[i] == 0.0:
            continue
        row = num[i] / den[i]
        if np.any(row < floor):
            floored += int(np.count_nonzero(row < 0))
            row = np.maximum(row, floor)
            row = row / row.sum()
        rows[i] = row
    return rows, den, floored


# -- damped fixed-point iteration ----------------------------------------

def optimize(h: ObservableSum, cost_kind: str,
             config: OptimizerConfig = OptimizerConfig(),
             reference=None) -> OptimizeResult:
    """Minimize the selected cost by damped fixed-point iteration.

    cost_kind is "diag", "full" (needs a SingleReference) or "multiref"
    (needs a MultiReference).  Convergence is measured as the infinity
    norm of the beta change.  Non-convergence returns the best iterate
    with converged=False rather than raising.
    """
    required = {"diag": None, "full": SingleReference,
                "multiref": MultiReference}
    if cost_kind not in required:
        raise ValueError(f"unknown cost kind {cost_kind!r}")
    kind = required[cost_kind]
    if kind is not None and not isinstance(reference, kind):
        raise ValueError(f"{cost_kind} cost requires a {kind.__name__}")
    moment = _cost_moment(h, None if kind is None else reference)

    beta = uniform_beta(h.n)
    floored_total = 0
    converged = False
    iterations = 0
    untouched = ()
    for iterations in range(1, config.max_iterations + 1):
        num = moment.numerators(reciprocal(beta))
        target, den, floored = _rows_from_num(num, beta.rows, FLOOR)
        floored_total += floored
        untouched = tuple(int(i) for i in np.nonzero(den == 0.0)[0])
        new_rows = (1.0 - config.step) * beta.rows + config.step * target
        new_rows = new_rows / new_rows.sum(axis=1, keepdims=True)
        change = float(np.max(np.abs(new_rows - beta.rows)))
        beta = BetaDistribution(h.n, new_rows)
        if change < config.tolerance:
            converged = True
            break

    # final cleanup: zero entries indistinguishable from the floor
    rows = beta.rows.copy()
    rows[rows < 10.0 * FLOOR] = 0.0
    sums = rows.sum(axis=1, keepdims=True)
    rows = np.where(sums > 0, rows / np.where(sums == 0, 1.0, sums),
                    beta.rows)
    beta = BetaDistribution(h.n, rows)

    num = moment.numerators(reciprocal(beta))
    target, den, _ = _rows_from_num(num, beta.rows, 0.0)
    supported = den > 0
    if np.any(supported):
        kkt = float(np.max(np.abs(target[supported] - beta.rows[supported])))
    else:
        kkt = 0.0

    return OptimizeResult(
        beta=beta,
        cost=_evaluate(h, moment, beta),
        iterations=iterations,
        converged=converged,
        kkt_residual=kkt,
        floored_updates=floored_total,
        untouched_qubits=untouched,
    )
