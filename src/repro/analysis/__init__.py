"""Measurement and verification helpers.

These modules do not participate in the protocols; they *judge* them:
computing minimum vertex covers of disruption graphs (the quantity
Definition 1's ``d``-disruptability is phrased in), building disruption
graphs from protocol outcomes, estimating success probabilities, and fitting
measured round counts against the paper's asymptotic claims.

The pure-stdlib members (:mod:`~repro.analysis.vertex_cover`,
:mod:`~repro.analysis.disruption`, :mod:`~repro.analysis.stats`) are
imported eagerly — they sit on the trial hot path.  The numpy/networkx
ones (:mod:`~repro.analysis.graphs`, :mod:`~repro.analysis.theory`,
:mod:`~repro.analysis.complexity`) load lazily on first attribute
access: ``import repro`` happens once per sweep coordinator (whose
forked workers inherit it) and per remote ``python -m repro worker``,
and those third-party imports were more than a third of its cost
without ever being needed to *run* a trial.
"""

from .vertex_cover import (
    greedy_matching,
    greedy_matching_cover,
    has_cover_at_most,
    min_vertex_cover,
    vertex_cover_number,
)
from .disruption import (
    disruptability,
    disruptability_histogram,
    disruption_graph,
)
from .stats import (
    empirical_rate,
    meets_whp,
    min_informative_trials,
    wilson_interval,
)

# Lazily-resolved names (PEP 562), keyed to their defining submodule.
_LAZY_ATTRS = {
    "fit_power_law": "complexity",
    "scaling_ratios": "complexity",
    "is_k_connected": "graphs",
    "matching_lower_bound": "graphs",
    "node_connectivity": "graphs",
    "triangle_count": "graphs",
    "feedback_miss_probability": "theory",
    "feedback_repetitions_for_target": "theory",
    "gossip_miss_probability": "theory",
    "hopping_miss_probability": "theory",
    "union_bound_failure": "theory",
}


def __getattr__(name: str):
    module_name = _LAZY_ATTRS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        )
    import importlib

    value = getattr(
        importlib.import_module(f".{module_name}", __name__), name
    )
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_ATTRS))


__all__ = [
    "disruptability",
    "disruptability_histogram",
    "disruption_graph",
    "empirical_rate",
    "feedback_miss_probability",
    "feedback_repetitions_for_target",
    "fit_power_law",
    "gossip_miss_probability",
    "hopping_miss_probability",
    "is_k_connected",
    "matching_lower_bound",
    "meets_whp",
    "min_informative_trials",
    "node_connectivity",
    "triangle_count",
    "union_bound_failure",
    "greedy_matching",
    "greedy_matching_cover",
    "has_cover_at_most",
    "min_vertex_cover",
    "scaling_ratios",
    "vertex_cover_number",
    "wilson_interval",
]
