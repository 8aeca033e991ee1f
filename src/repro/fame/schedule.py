"""Deterministic transmission-round scheduling (Section 5.4).

Given a legal game proposal, every node must derive the *same* mapping of
items onto channels — who broadcasts, who listens, which surrogates stand in
for busy sources, and which free nodes witness each channel.  The mapping is
a pure function of the proposal, the starred set, and the (shared) surrogate
table, so identical local game states yield identical schedules (Invariant 1
of Theorem 6).

Scheduling rules, in order:

1. item ``i`` of the proposal gets channel ``i``;
2. the destination of every edge item listens on its edge's channel;
3. a source broadcasts its own edge when it is free (not a listener) and the
   edge is its first (lowest channel); every other edge of that source is
   broadcast by a *surrogate* — the lowest-id holder of the source's message
   vector not otherwise involved in the round (possible only for starred
   sources; Invariant 2 guarantees them at least ``3(t+1)`` holders);
4. each in-use channel is assigned a witness group of ``3(t+1)`` free nodes
   (lowest ids first) who listen on it; the leading members of each group
   double as the feedback witness set ``W[c]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from ..errors import ScheduleError
from ..feedback.witness import WitnessAssignment
from ..game.graph import EdgeItem, Item, NodeItem
from .config import FameConfig, witness_group_size


@dataclass(frozen=True)
class ChannelAssignment:
    """What happens on one channel during the transmission round.

    Attributes
    ----------
    channel:
        The channel id.
    item:
        The proposal item the channel carries.
    broadcaster:
        The node transmitting (for edges: the source or its surrogate).
    source:
        Whose message vector is transmitted (equals ``broadcaster`` except
        when a surrogate stands in).
    listener:
        The destination scheduled to receive, or ``None`` for node items
        (whose receivers are the channel's witnesses).
    """

    channel: int
    item: Item
    broadcaster: int
    source: int
    listener: int | None


@dataclass(frozen=True)
class TransmissionSchedule:
    """The full deterministic plan for one message-transmission round.

    ``witness_groups[i]`` lists the ``3(t+1)`` listeners recruited for
    ``channels_in_use[i]``; ``feedback_sets[i]`` is the leading slice of that
    group used as the feedback witness set for slot ``i``.
    """

    config: FameConfig
    assignments: tuple[ChannelAssignment, ...]
    witness_groups: tuple[tuple[int, ...], ...]
    feedback_sets: tuple[tuple[int, ...], ...]

    @property
    def channels_in_use(self) -> tuple[int, ...]:
        """Channels carrying proposal items, in slot order."""
        return tuple(a.channel for a in self.assignments)

    def assignment_for_slot(self, slot: int) -> ChannelAssignment:
        """The channel assignment reported on by feedback slot ``slot``."""
        return self.assignments[slot]

    def broadcasters(self) -> set[int]:
        """All nodes transmitting this round."""
        return {a.broadcaster for a in self.assignments}

    def listeners(self) -> dict[int, int]:
        """Map of scheduled listener -> channel (destinations + witnesses)."""
        out: dict[int, int] = {}
        for a in self.assignments:
            if a.listener is not None:
                out[a.listener] = a.channel
        for group, assignment in zip(self.witness_groups, self.assignments):
            for w in group:
                out[w] = assignment.channel
        return out

    def involved(self) -> set[int]:
        """Every node with a scheduled role this round."""
        out = self.broadcasters()
        out.update(self.listeners())
        for a in self.assignments:
            out.add(a.source)
        return out

    def serial_witness_assignment(self) -> WitnessAssignment:
        """The :class:`WitnessAssignment` for the serial feedback routine."""
        return WitnessAssignment(
            sets=self.feedback_sets,
            channels=tuple(range(self.config.feedback_channels)),
        )

    def meta_schedule(self) -> dict[str, Any]:
        """Public round metadata (the adversary may see all of this).

        The adversary knows the protocol and the public history, so the
        deterministic schedule is already within its knowledge; exposing it
        on the round metadata is what lets schedule-aware strategies mount
        the worst-case attack the analysis assumes.
        """
        return {
            "channels_in_use": self.channels_in_use,
            "assignments": {
                a.channel: {
                    "kind": "node" if isinstance(a.item, NodeItem) else "edge",
                    "broadcaster": a.broadcaster,
                    "source": a.source,
                    "listener": a.listener,
                }
                for a in self.assignments
            },
        }


def recruit_witnesses(
    n: int, busy: set[int], count: int, group_size: int
) -> tuple[tuple[int, ...], ...]:
    """``count`` witness groups of ``group_size`` nodes each, recruited
    from the nodes of ``range(n)`` outside ``busy``, lowest ids first.

    Raises
    ------
    ScheduleError:
        If fewer than ``count * group_size`` nodes are free.
    """
    free = [node for node in range(n) if node not in busy]
    needed = group_size * count
    if len(free) < needed:
        raise ScheduleError(
            f"population too small for witness groups: need {needed} free "
            f"nodes, have {len(free)} (n={n})"
        )
    return tuple(
        tuple(free[i * group_size : (i + 1) * group_size])
        for i in range(count)
    )


def build_schedule(
    config: FameConfig,
    proposal: Sequence[Item],
    starred: frozenset[int] | set[int],
    surrogate_holders: Mapping[int, Sequence[int]],
) -> TransmissionSchedule:
    """Derive the transmission schedule for ``proposal``.

    Parameters
    ----------
    config:
        The validated f-AME configuration.
    proposal:
        A legal game proposal (Restrictions 1-4 already checked).
    starred:
        The current starred set ``S``.
    surrogate_holders:
        For each starred node ``v``, the nodes known to hold ``v``'s message
        vector (the witness group of ``v``'s starring round).

    Raises
    ------
    ScheduleError:
        If a source needs a surrogate but is not starred, has no free
        holder, or the population cannot fill the witness groups.
    """
    if len(proposal) > config.proposal_size:
        raise ScheduleError(
            f"proposal has {len(proposal)} items; regime allows at most "
            f"{config.proposal_size}"
        )

    # Nodes with fixed roles: broadcasters-to-be, listeners, idle sources.
    listener_of: dict[int, int] = {}
    node_items: list[tuple[int, NodeItem]] = []
    edge_items: list[tuple[int, EdgeItem]] = []
    for channel, item in enumerate(proposal):
        if isinstance(item, NodeItem):
            node_items.append((channel, item))
        elif isinstance(item, EdgeItem):
            edge_items.append((channel, item))
            listener_of[item.dest] = channel
        else:  # pragma: no cover - guarded by check_proposal upstream
            raise ScheduleError(f"unknown proposal item {item!r}")

    involved: set[int] = set(listener_of)
    involved.update(item.node for _, item in node_items)
    involved.update(item.source for _, item in edge_items)

    assignments: list[ChannelAssignment | None] = [None] * len(proposal)
    for channel, item in node_items:
        assignments[channel] = ChannelAssignment(
            channel=channel,
            item=item,
            broadcaster=item.node,
            source=item.node,
            listener=None,
        )

    # Group edges by source; the source itself broadcasts its first edge
    # when it is not scheduled to listen, surrogates take the rest.
    edges_by_source: dict[int, list[tuple[int, EdgeItem]]] = {}
    for channel, item in edge_items:
        edges_by_source.setdefault(item.source, []).append((channel, item))

    surrogates_used: set[int] = set()
    for source in sorted(edges_by_source):
        entries = sorted(edges_by_source[source], key=lambda e: e[0])
        source_free = source not in listener_of
        for idx, (channel, item) in enumerate(entries):
            if idx == 0 and source_free:
                broadcaster = source
            else:
                if source not in starred:
                    raise ScheduleError(
                        f"source {source} needs a surrogate (busy or "
                        "repeated) but is not starred"
                    )
                holders = sorted(surrogate_holders.get(source, ()))
                if not holders:
                    raise ScheduleError(
                        f"starred source {source} has no recorded "
                        "surrogate holders"
                    )
                choice = next(
                    (
                        h
                        for h in holders
                        if h not in involved and h not in surrogates_used
                    ),
                    None,
                )
                if choice is None:
                    raise ScheduleError(
                        f"no free surrogate available for source {source}"
                    )
                broadcaster = choice
                surrogates_used.add(choice)
            assignments[channel] = ChannelAssignment(
                channel=channel,
                item=item,
                broadcaster=broadcaster,
                source=source,
                listener=item.dest,
            )

    final = [a for a in assignments if a is not None]
    if len(final) != len(proposal):  # pragma: no cover - internal invariant
        raise ScheduleError("internal error: unassigned proposal items")

    witness_groups = recruit_witnesses(
        config.n,
        involved | surrogates_used,
        len(final),
        witness_group_size(config.t),
    )
    fb_size = (
        max(1, 2 * config.t)
        if config.parallel_feedback
        else config.feedback_channels
    )
    feedback_sets = tuple(group[:fb_size] for group in witness_groups)

    return TransmissionSchedule(
        config=config,
        assignments=tuple(final),
        witness_groups=witness_groups,
        feedback_sets=feedback_sets,
    )
