"""Measurement helpers: vertex covers, disruptability and statistics.

Minimum vertex covers of disruption graphs (the quantity Definition 1's
``d``-disruptability is phrased in), disruption graphs built from
protocol outcomes, and success-rate estimates.  Result classes, sweep
reports and the exchange loops' greedy matching use them.  The test
oracles (graph checks, the paper's closed-form curves, growth fits) live
with the tests, in ``tests/oracles.py``.
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

__all__ = [
    "disruptability",
    "disruptability_histogram",
    "disruption_graph",
    "empirical_rate",
    "meets_whp",
    "min_informative_trials",
    "greedy_matching",
    "greedy_matching_cover",
    "has_cover_at_most",
    "min_vertex_cover",
    "vertex_cover_number",
    "wilson_interval",
]
