"""Graph entropies over orbit and functional distributions, with a
verifiable catalog of Renyi/Shannon bound checks.

Public names resolve on first access (PEP 562), each from the submodule
that _SUBMODULES lists it under, so ``import graphent`` loads no submodule
and no numpy, and a CLI stage pays only for the modules it runs.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = {
    "errors": (
        "CapacityError",
        "DomainError",
        "GraphEntropyError",
        "ParseError",
        "ValidationError",
    ),
    "graph": (
        "UNREACHABLE",
        "DistanceData",
        "Graph",
        "distance_matrix",
        "generate_graph",
        "parse_edge_list",
        "write_edge_list",
    ),
    "harness": (
        "DEFAULT_ALPHA_GRID",
        "FunctionalTemplate",
        "SweepConfig",
        "SweepReport",
        "generate_corpus",
        "run_sweep",
        "summarize_report",
    ),
    "inequalities": (
        "BoundReport",
        "LemmaCheck",
        "class_closed_forms",
        "connected_functional_bounds",
        "jensen_gap_bound",
        "lemma_checks",
        "ordering_bound",
        "thm1_refined_bound",
        "thm3_partition_vs_functional",
        "thm4_scaled_dominance",
        "thm5_additive_dominance",
        "thm6_convex_combination",
    ),
    "measures": (
        "Distribution",
        "DistributionStats",
        "FunctionalSpec",
        "FunctionalValues",
        "default_coefficients",
        "distribution_from_values",
        "distribution_stats",
        "functional_values",
        "partition_distribution",
        "renyi_entropy",
        "shannon_entropy",
    ),
    "orbits": ("OrbitPartition", "brute_force_orbits", "vertex_orbits"),
}

_EXPORTS = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
