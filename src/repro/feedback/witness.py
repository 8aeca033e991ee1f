"""Witness assignments for the feedback routine.

Figure 1 assumes a partition ``W`` assigning a set of witnesses to each
feedback slot, and uses ``rank(p_i, W[r])`` to map each witness of the active
slot onto a distinct feedback channel.  This module provides that rank
function and a validated container for the assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError


def rank(node: int, witnesses: Sequence[int]) -> int:
    """Position of ``node`` within its witness set (0-based).

    Figure 1's ``rank(pi, W[r])``; determines which feedback channel the
    witness occupies.  Raises when the node is not a witness of the set.
    """
    try:
        return list(witnesses).index(node)
    except ValueError as exc:
        raise ConfigurationError(f"node {node} is not in witness set") from exc


def check_disjoint(sets: Sequence[Sequence[int]]) -> None:
    """Raise :class:`ConfigurationError` unless each witness set lists
    distinct nodes and the sets are pairwise disjoint.

    A node listed twice leaves one of its set's feedback channels without
    an honest broadcaster, and a spoofed frame sent there is decoded.
    """
    seen: set[int] = set()
    for r, witness_set in enumerate(sets):
        if len(set(witness_set)) != len(witness_set):
            raise ConfigurationError(f"witness set {r} has duplicates")
        overlap = seen & set(witness_set)
        if overlap:
            raise ConfigurationError(
                f"witness sets overlap on nodes {sorted(overlap)}"
            )
        seen.update(witness_set)


@dataclass(frozen=True)
class WitnessAssignment:
    """A validated witness partition for one feedback invocation.

    Attributes
    ----------
    sets:
        ``sets[r]`` is the ordered witness tuple for feedback slot ``r``.
        Each must have exactly as many members as there are feedback
        channels (one broadcaster per channel — the occupancy that makes
        spoofing impossible), and sets must be pairwise disjoint.
    channels:
        The channel ids used for feedback broadcasts.
    """

    sets: tuple[tuple[int, ...], ...]
    channels: tuple[int, ...]

    def __post_init__(self) -> None:
        for r, witness_set in enumerate(self.sets):
            if len(witness_set) != len(self.channels):
                raise ConfigurationError(
                    f"witness set {r} has {len(witness_set)} members; "
                    f"needs exactly {len(self.channels)} (one per channel)"
                )
        check_disjoint(self.sets)

    @property
    def slots(self) -> int:
        """Number of feedback slots (channels being reported on)."""
        return len(self.sets)

    def witnesses_of(self, slot: int) -> tuple[int, ...]:
        """The witness tuple for ``slot``."""
        return self.sets[slot]
