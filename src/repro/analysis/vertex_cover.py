"""Minimum vertex cover — the metric behind ``d``-disruptability.

Definition 1 measures an AME protocol's resilience by the minimum vertex
cover of the *disruption graph* (the failed pairs).  Minimum vertex cover is
NP-hard in general, but the covers arising here are small (``<= 2t``), so the
classic FPT branch-and-bound — pick an uncovered edge, branch on which
endpoint joins the cover — runs in ``O(2^k · |E|)`` and is exact.

The functions accept edges as iterables of 2-tuples; direction is ignored
(a cover must touch every edge regardless of orientation), matching the
paper's use of vertex cover on the directed disruption graph.
"""

from __future__ import annotations

from typing import Hashable, Iterable, TypeVar

V = TypeVar("V", bound=Hashable)


def _normalize(edges: Iterable[tuple[V, V]]) -> list[tuple[V, V]]:
    """Deduplicate edges ignoring orientation and drop self-loops.

    A self-loop would force its vertex into every cover; the disruption
    graphs produced by AME protocols never contain them (pairs are distinct
    nodes), so we treat them as caller error.
    """
    seen: set[frozenset[V]] = set()
    out: list[tuple[V, V]] = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u!r}, {v!r}) has no vertex-cover meaning here")
        key = frozenset((u, v))
        if key not in seen:
            seen.add(key)
            out.append((u, v))
    return out


def _cover_at_most(edges: list[tuple[V, V]], k: int) -> set[V] | None:
    """Return a cover of size <= k, or None.  Classic FPT branching."""
    if not edges:
        return set()
    if k == 0:
        return None
    u, v = edges[0]
    for pick in (u, v):
        remaining = [e for e in edges if pick not in e]
        sub = _cover_at_most(remaining, k - 1)
        if sub is not None:
            sub.add(pick)
            return sub
    return None


def has_cover_at_most(edges: Iterable[tuple[V, V]], k: int) -> bool:
    """Decide whether the graph has a vertex cover of size at most ``k``."""
    if k < 0:
        return False
    return _cover_at_most(_normalize(edges), k) is not None


def min_vertex_cover(edges: Iterable[tuple[V, V]]) -> set[V]:
    """Return one minimum vertex cover (exact).

    Searches sizes ``0, 1, 2, ...`` with the FPT routine; the doubling of a
    lower bound from a greedy matching prunes the search start.
    """
    normalized = _normalize(edges)
    if not normalized:
        return set()
    # A maximal matching of size m forces cover size >= m.
    lower = len(greedy_matching(normalized))
    for k in range(lower, 2 * lower + 1):
        cover = _cover_at_most(normalized, k)
        if cover is not None:
            return cover
    raise AssertionError("unreachable: 2*matching always covers")


def vertex_cover_number(edges: Iterable[tuple[V, V]]) -> int:
    """Size of the minimum vertex cover."""
    return len(min_vertex_cover(edges))


def greedy_matching(
    edges: Iterable[tuple[V, V]], limit: int | None = None
) -> list[tuple[V, V]]:
    """Scan ``edges`` in order and keep each one that shares no vertex
    with those kept, stopping at ``limit`` edges: a maximal matching when
    ``limit`` is ``None``, and the vertex-disjoint batch a deterministic
    exchange schedules on ``limit`` channels."""
    matched: set[V] = set()
    matching: list[tuple[V, V]] = []
    for u, v in edges:
        if len(matching) == limit:
            break
        if u not in matched and v not in matched:
            matching.append((u, v))
            matched.update((u, v))
    return matching


def greedy_matching_cover(edges: Iterable[tuple[V, V]]) -> set[V]:
    """The classic 2-approximation: both endpoints of a maximal matching.

    Useful as a fast upper bound when exact covers are not required (e.g.
    progress displays inside long benchmark sweeps).
    """
    cover: set[V] = set()
    for u, v in greedy_matching(_normalize(edges)):
        cover.update((u, v))
    return cover
