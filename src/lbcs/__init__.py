"""Locally-biased classical shadows: estimators, baselines, bias optimizer."""

__version__ = "0.1.0"

from .pauli import PauliString
from .hamiltonian import (ObservableSum, parse_observable, load_observable,
                          l1_norm)
from .states import (StateVector, SingleReference, MultiReference,
                     lanczos_ground, load_reference)
from .shadows import (BetaDistribution, EstimateReport, uniform_beta,
                      run_protocol, exact_variance)
from .baselines import (TermGraph, GroupingScheme, build_term_graph,
                        ldf_coloring, representative_basis, kappa_weights,
                        build_grouping, l1_protocol, l1_exact_variance,
                        grouping_protocol, grouping_exact_variance,
                        grouping_exact_variance_both)
from .optimizer import (OptimizerConfig, OptimizeResult, cost_full,
                        cost_diag, cost_multiref, optimize)
