"""Game state: a directed graph plus the starred set ``S``.

Items of a proposal are :class:`NodeItem` or :class:`EdgeItem`; keeping them
as small frozen dataclasses (rather than bare ints/tuples) makes proposals
self-describing and prevents a node id from being confused with an edge.

f-AME keeps one canonical :class:`GameGraph` for all ``n`` node replicas.
Invariant 1 of Theorem 6 (every honest node holds the same game state) is
guarded where replicas could part, by
:func:`repro.fame.protocol.referee_vote` on each move's grants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Union

from ..errors import ConfigurationError


@dataclass(frozen=True)
class NodeItem:
    """A proposal item asking to *star* ``node`` (recruit surrogates)."""

    node: int

    def __repr__(self) -> str:
        return f"N({self.node})"


@dataclass(frozen=True)
class EdgeItem:
    """A proposal item asking to deliver the edge ``source -> dest``."""

    source: int
    dest: int

    @property
    def pair(self) -> tuple[int, int]:
        """The edge as an ordered pair."""
        return (self.source, self.dest)

    def __repr__(self) -> str:
        return f"E({self.source}->{self.dest})"


Item = Union[NodeItem, EdgeItem]


@dataclass
class GameGraph:
    """Mutable state of one starred-edge removal game.

    Attributes
    ----------
    vertices:
        The fixed vertex set ``V`` (node ids).
    edges:
        The current edge set ``E`` — shrinks as the referee grants edges.
    starred:
        The starred set ``S`` — grows as the referee grants nodes.
    """

    vertices: frozenset[int]
    edges: set[tuple[int, int]] = field(default_factory=set)
    starred: set[int] = field(default_factory=set)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[int, int]], vertices: Iterable[int] | None = None
    ) -> "GameGraph":
        """Build a game graph from ordered pairs, inferring vertices.

        Raises :class:`~repro.errors.ConfigurationError` for self-loops or
        edges touching vertices outside an explicitly-given vertex set.
        """
        edge_set = set()
        inferred: set[int] = set()
        for v, w in pairs:
            if v == w:
                raise ConfigurationError(f"self-edge ({v}, {w}) not allowed")
            edge_set.add((v, w))
            inferred.update((v, w))
        vertex_set = frozenset(vertices) if vertices is not None else frozenset(inferred)
        if not inferred <= vertex_set:
            raise ConfigurationError(
                f"edges touch vertices outside V: {sorted(inferred - vertex_set)}"
            )
        return cls(vertices=vertex_set, edges=edge_set)

    def copy(self) -> "GameGraph":
        """Deep copy (the frozen vertex set is shared)."""
        return GameGraph(
            vertices=self.vertices,
            edges=set(self.edges),
            starred=set(self.starred),
        )

    # ------------------------------------------------------------------

    def sources(self) -> set[int]:
        """Vertices that are the source of at least one remaining edge."""
        return {v for v, _ in self.edges}

    def remove_edge(self, edge: tuple[int, int]) -> None:
        """Remove a granted edge; raises KeyError if absent."""
        self.edges.remove(edge)

    def star(self, node: int) -> None:
        """Add a granted node to ``S``."""
        if node not in self.vertices:
            raise ConfigurationError(f"cannot star unknown vertex {node}")
        self.starred.add(node)
