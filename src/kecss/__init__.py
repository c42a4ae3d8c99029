"""Exact LP-rounding solvers for k-edge-connected network design.

Solvers return exact rational costs and per-iteration traces; a
certification layer re-verifies connectivity, cost bounds, and the
structural properties (laminar tight families, uncrossing identities,
token-count bounds) of every extreme point encountered.
"""

from .graphs import (Edge, Multigraph, complete_graph, crossing, cuts_below, cycle_graph,
                     edge_connectivity, make_graph, min_cut, vertices)
from .lp import (BasicOptimum, LpInfeasible, LpInstance, LpRow, LpUnbounded,
                 instance, row, solve, solve_lazy)
from .requirements import DegreeState, Requirement
from .separation import (Cut, Feasible, ScaledPoint, SeparationVerdict, Violated,
                         mixed_capacities, separate_fast)
from .certify import (CertificationError, LaminarBasis, UncrossWitness, VerifyReport,
                      extract_laminar, small_boundary_set, tight_sets,
                      uncross_witness, verify)
from .rounding import (InfeasibleInstance, IterationRecord, RoundingTrace,
                       Solution, approximation_factor, bicriteria, kecsm,
                       kecss, kecss_even, md_kecsm, md_kecss)

__version__ = "0.1.0"
