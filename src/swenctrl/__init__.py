"""Structural controllability of switched linear ensemble systems.

Decides, from the sparsity pattern alone, whether q sparse subsystems sharing
one control input can be steered simultaneously with at most k switches;
computes the minimal switch count that works for every ensemble size; and
cross-validates every decision with brute-force and exact-rank referees.
"""

__version__ = "0.1.0"

from .decide import (
    CrosscheckReport,
    check_structural,
    compute_kstar,
    crosscheck,
    recheck_certificate,
    witness_from_cut,
)
from .errors import ConsistencyError, ParseError, ScaleError
from .flow import (
    FlowAssignment,
    FlowNetwork,
    build_lifted_network,
    build_small_network,
    lift_flow,
    max_flow,
    min_cut,
    project_flow,
    verify_flow,
)
from .graph import (
    NeighborSets,
    brute_force_check,
    core_condition_holds,
    in_neighbor_sets,
    kstar_brute,
    reachability_check,
)
from .oracle import (
    RankReport,
    controllability_rank,
    monte_carlo_controllable,
    oracle_agreement,
)
from .pattern import (
    EnsembleInstance,
    SparsityPattern,
    lift_ensemble,
    parse_pattern,
    random_pattern,
    sample_instance,
    serialize_pattern,
)
from .results import KStarResult, Verdict

__all__ = [
    "ConsistencyError",
    "CrosscheckReport",
    "EnsembleInstance",
    "FlowAssignment",
    "FlowNetwork",
    "KStarResult",
    "NeighborSets",
    "ParseError",
    "RankReport",
    "ScaleError",
    "SparsityPattern",
    "Verdict",
    "__version__",
    "brute_force_check",
    "build_lifted_network",
    "build_small_network",
    "check_structural",
    "compute_kstar",
    "controllability_rank",
    "core_condition_holds",
    "crosscheck",
    "in_neighbor_sets",
    "kstar_brute",
    "lift_ensemble",
    "lift_flow",
    "max_flow",
    "min_cut",
    "monte_carlo_controllable",
    "oracle_agreement",
    "parse_pattern",
    "project_flow",
    "random_pattern",
    "reachability_check",
    "recheck_certificate",
    "sample_instance",
    "serialize_pattern",
    "verify_flow",
    "witness_from_cut",
]
