"""Test oracles: the yardsticks the paper's claims are judged by.

No protocol runs these; they judge runs from outside, so they live with
the tests and ``repro`` itself needs nothing beyond the standard library.
numpy and networkx are test dependencies, imported here only.

* Graph checks (networkx).  The paper's constructions make structural
  claims we can verify directly: the leader spanner is ``(t+1)``-connected
  (Section 6 calls it a "(t+1)-leader spanner" describing a sparse
  t+1-connected graph); disruption graphs produced by the triangle attack
  consist of ``t`` edge-disjoint triangles; and the exact vertex-cover
  solver can be cross-checked against networkx's matching-based bounds.
* Closed-form theory curves (numpy, vectorized for sweep tables).  The
  paper's w.h.p. claims rest on simple per-round success probabilities,
  so measurements can be compared against exact theory rather than only
  against asymptotic shapes:

  - feedback listening (Figure 1): a non-witness hears a ``<true, r>``
    frame with probability ``(C - t) / C`` per repetition — it must pick
    one of the ``C - t`` unjammed feedback channels;
  - key-derived hopping (Sections 6-7): the blind adversary hits the hop
    with probability ``t / C`` per round;
  - gossip epochs (Section 5.6): a listener needs transmitter and
    listener on the same unjammed channel — probability ``(C - t) / C^2``.

* Growth fits (``math`` only).  The evaluation artifacts of this paper
  are complexity rows (Figure 3) and theorem-shaped bounds, so
  "reproducing a figure" means measuring round counts over a parameter
  sweep and checking that the growth *shape* matches — e.g. that f-AME
  rounds grow linearly in ``|E|`` and that the ``C >= 2t`` variant beats
  the ``C = t+1`` variant by roughly the predicted ``t^2 / t·log``
  ratios: a log-log least-squares power-law fit and ratio tables.
* The spoof detector: which deliveries of a kept trace came from the
  adversary alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, TypeVar

import networkx as nx
import numpy as np

from repro.radio.messages import Jam, Message
from repro.radio.trace import ExecutionTrace, RoundRecord

V = TypeVar("V", bound=Hashable)


# -- graph checks --------------------------------------------------------


def to_undirected_graph(edges: Iterable[tuple[V, V]]) -> "nx.Graph":
    """Build an undirected networkx graph from (possibly directed) pairs."""
    graph = nx.Graph()
    graph.add_edges_from(edges)
    return graph


def node_connectivity(edges: Iterable[tuple[V, V]]) -> int:
    """Vertex connectivity of the undirected support of ``edges``."""
    graph = to_undirected_graph(edges)
    if graph.number_of_nodes() < 2:
        return 0
    return nx.node_connectivity(graph)


def is_k_connected(edges: Iterable[tuple[V, V]], k: int) -> bool:
    """Whether the undirected support is ``k``-vertex-connected."""
    return node_connectivity(edges) >= k


def matching_lower_bound(edges: Iterable[tuple[V, V]]) -> int:
    """Maximum-matching size — a lower bound on the vertex cover.

    König's theorem makes it exact on bipartite graphs; in general
    ``matching <= min-cover <= 2 * matching``.  Used to sanity-check the
    exact FPT solver in :mod:`repro.analysis.vertex_cover`.
    """
    graph = to_undirected_graph(edges)
    return len(nx.max_weight_matching(graph, maxcardinality=True))


def triangle_count(edges: Iterable[tuple[V, V]]) -> int:
    """Number of distinct triangles in the undirected support."""
    graph = to_undirected_graph(edges)
    return sum(nx.triangles(graph).values()) // 3


# -- closed-form theory curves --------------------------------------------


def feedback_miss_probability(
    repetitions: int | np.ndarray, channels: int, t: int
) -> np.ndarray:
    """P(a listener misses a true slot for all ``repetitions`` rounds)."""
    reps = np.asarray(repetitions, dtype=float)
    per_round = (channels - t) / channels
    return np.power(1.0 - per_round, reps)


def feedback_repetitions_for_target(
    target_miss: float, channels: int, t: int
) -> int:
    """Smallest repetition count pushing the miss probability below target."""
    if not 0 < target_miss < 1:
        raise ValueError("target_miss must be in (0, 1)")
    per_round = (channels - t) / channels
    return int(np.ceil(np.log(target_miss) / np.log(1.0 - per_round)))


def hopping_miss_probability(
    rounds: int | np.ndarray, channels: int, t: int
) -> np.ndarray:
    """P(the keyless adversary jams the hop every round of an epoch)."""
    rr = np.asarray(rounds, dtype=float)
    per_round = 1.0 - t / channels
    return np.power(1.0 - per_round, rr)


def gossip_miss_probability(
    rounds: int | np.ndarray, channels: int, t: int
) -> np.ndarray:
    """P(one listener never catches a gossip epoch's frame)."""
    rr = np.asarray(rounds, dtype=float)
    per_round = (channels - t) / (channels * channels)
    return np.power(1.0 - per_round, rr)


def union_bound_failure(per_party: float, parties: int) -> float:
    """Union bound: P(any of ``parties`` independent listeners fails)."""
    return float(min(1.0, per_party * parties))


# -- growth fits ------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawFit:
    """Result of fitting ``y ≈ coefficient * x ** exponent``."""

    exponent: float
    coefficient: float
    r_squared: float


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Least-squares fit of ``log y = a log x + b``.

    Requires at least two strictly positive points.  Returns the exponent
    ``a``, coefficient ``e^b``, and the coefficient of determination on the
    log-log scale.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    pts = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pts) < 2:
        raise ValueError("need at least two positive points")
    lx = [math.log(x) for x, _ in pts]
    ly = [math.log(y) for _, y in pts]
    n = len(pts)
    mean_x = sum(lx) / n
    mean_y = sum(ly) / n
    sxx = sum((x - mean_x) ** 2 for x in lx)
    if sxx == 0:
        raise ValueError("xs are all equal; cannot fit")
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(lx, ly))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(lx, ly)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ly)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(exponent=slope, coefficient=math.exp(intercept), r_squared=r2)


def scaling_ratios(ys: Sequence[float]) -> list[float]:
    """Successive ratios ``y[i+1] / y[i]`` — a quick growth-shape probe."""
    if len(ys) < 2:
        return []
    return [b / a for a, b in zip(ys, ys[1:]) if a > 0]


def normalized_cost(
    ys: Sequence[float], predictions: Sequence[float]
) -> list[float]:
    """Measured cost divided by the theory prediction, point by point.

    A flat sequence (constant ratio) indicates the measured data matches the
    predicted shape up to the constant the theory leaves unspecified.
    """
    if len(ys) != len(predictions):
        raise ValueError("length mismatch")
    return [y / p for y, p in zip(ys, predictions) if p > 0]


# -- the spoof detector -----------------------------------------------------


def was_spoofed(record: RoundRecord, channel: int) -> bool:
    """True when the message ``record`` delivered on ``channel``
    originated solely from the adversary."""
    msg = record.delivered.get(channel)
    if msg is None:
        return False
    if record.honest_transmitters(channel):
        return False
    return any(
        not isinstance(tx.payload, Jam) and tx.payload == msg
        for tx in record.adversary_transmissions
        if tx.channel == channel
    )


def spoofed_deliveries(trace: ExecutionTrace) -> list[tuple[int, int, Message]]:
    """All successful spoofs in ``trace`` as ``(round, channel, message)``
    triples."""
    return [
        (record.index, channel, msg)
        for record in trace
        for channel, msg in record.delivered.items()
        if msg is not None and was_spoofed(record, channel)
    ]
