"""Structural controllability of switched linear ensemble systems.

Decides, from the sparsity pattern alone, whether q sparse subsystems sharing
one control input can be steered simultaneously with at most k switches;
computes the minimal switch count that works for every ensemble size; and
cross-validates every decision with brute-force and exact-rank referees.

The public names below are imported from their modules on first use
(PEP 562), so importing one module, such as the CLI, does not load the rest.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("check_structural", "compute_kstar"),
    "decide": ("CrosscheckReport", "crosscheck", "recheck_certificate", "witness_from_cut"),
    "errors": ("ConsistencyError", "ParseError", "ScaleError"),
    "flow": ("FlowAssignment", "FlowNetwork", "build_lifted_network", "build_small_network",
             "lift_flow", "max_flow", "min_cut", "project_flow", "verify_flow"),
    "graph": ("brute_force_check", "core_condition_holds", "kstar_brute", "reachability_check"),
    "oracle": ("RankReport", "controllability_rank", "monte_carlo_controllable",
               "oracle_agreement"),
    "pattern": ("EnsembleInstance", "SparsityPattern", "parse_pattern", "random_pattern",
                "sample_instance", "serialize_pattern"),
    "results": ("KStarResult", "Verdict"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "__version__"])


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule not imported yet
        return import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
