"""The synchronous radio network simulator.

:class:`RadioNetwork` resolves rounds by the contract of Section 3 of the
paper:

* every honest node transmits, listens or sleeps;
* the adversary — asked *after* the honest actions are fixed but shown only
  past history plus deterministic public metadata — submits up to ``t``
  transmissions on distinct channels;
* per channel: exactly one transmission ⇒ listeners decode it (if it is a
  message rather than noise); zero or several ⇒ listeners hear nothing.
  Listeners cannot distinguish silence, collision, and pure noise.

One method implements that rule: :meth:`RadioNetwork.execute_schedule`,
which takes precompiled rounds (:class:`CompiledRound`).  A round carries
its listeners in one form only: a node tuple plus a ``bytes`` *hop row*
whose ``i``-th byte is the channel the ``i``-th listener tunes to, so a
compiler can slice whole rows out of a hop matrix and the engine checks and
settles a row with a few C-level ``bytes`` operations instead of a visit
per listener.  Channel ids are therefore bytes, and
:func:`~repro.params.validate_model` caps ``C`` at 256.  Every protocol
compiles its rounds; :meth:`RadioNetwork.execute_round`, which compiles a
per-node action map into one round, resolves it there and fans the result
out per listener, serves only the tests' per-node oracle and the
benchmark tracer.

Two kinds of epoch sit on that resolver at the end of this module, each
submitted as one :meth:`RadioNetwork.execute_schedule` call:

* *keyed epochs* (Sections 6-7): senders repeat AEAD-sealed frames on a
  key-derived hop pattern the receivers share.  :func:`run_hopped_epoch`
  runs one, :func:`first_opened` keeps the first frame that
  authenticates, and :func:`keyed_epoch_rounds` is their length;
* *private-hop epochs* (every oblivious phase): each node hops on its own
  private coins, handed out by its :class:`~repro.rng.HopStream`.
  :func:`private_hop_rows` is the one place they are laid out as hop
  rows, :func:`hit_row` the one read-back, and :func:`run_gossip_epoch`
  the epoch of one sender among listeners.  :func:`draw_in_step` is the
  one other draw: an oblivious jammer's, off a generator it keeps.

The adversary's one-round observation delay is enforced structurally: the
view object handed to the adversary contains the trace of *completed* rounds
only, alongside the current round's public ``meta`` (which the adversary
could derive itself, since protocols are known and their deterministic
schedule depends only on public history).  A strategy whose moves depend on
nothing but its own coins and those metas may therefore decide a whole
schedule up front: :meth:`RadioNetwork.execute_schedule` asks its
:meth:`~repro.adversary.base.Adversary.plan_schedule` once, with the metas
of the rounds that will run, and the strategy draws its coins in the order
per-round :meth:`~repro.adversary.base.Adversary.act` calls would, so a
planned run is byte-identical to one that acts round by round.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Mapping,
    Sequence,
    TypeVar,
)

from ..errors import ConfigurationError, CryptoError, ProtocolViolation
from ..params import ProtocolParameters, DEFAULT_PARAMETERS, validate_model
from ..rng import BlockDrawer, HopStream
from .actions import Action, Listen, Sleep, Transmit
from .messages import Jam, Message, Transmission
from .metrics import NetworkMetrics, frame_size
from .trace import ExecutionTrace, RoundRecord, SparseDelivered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..adversary.base import Adversary


@dataclass(frozen=True)
class RoundMeta:
    """Public, deterministic annotations attached to a round.

    ``phase`` labels the protocol phase (for metrics and adversaries);
    ``schedule`` optionally exposes the deterministic broadcast schedule of
    the round.  Exposing the schedule is not a leak: the paper's adversary
    knows the protocol and all past randomness, so anything deterministic
    given public history is already in its knowledge.
    """

    phase: str = ""
    schedule: Mapping[str, Any] | None = None
    extra: Mapping[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten into the dict stored on the round record."""
        out: dict[str, Any] = {"phase": self.phase}
        if self.schedule is not None:
            out["schedule"] = self.schedule
        out.update(self.extra)
        return out


@dataclass(frozen=True)
class AdversaryView:
    """Everything the adversary may legitimately observe before acting.

    Attributes
    ----------
    n, channels, t:
        The public model parameters.
    round_index:
        Index of the round about to be resolved.
    history:
        The full trace of completed rounds — including every honest node's
        past actions and random choices, per the paper's assumption that
        "at the end of each round, the adversary learns all random choices
        made in all completed rounds".
    meta:
        The current round's public metadata (phase, deterministic schedule).
    """

    n: int
    channels: int
    t: int
    round_index: int
    history: ExecutionTrace
    meta: RoundMeta


_Settled = tuple[
    dict[int, list["Message | Jam"]],
    dict[int, "Message | None"],
    int,
    int,
    int,
]
"""A template resolved on its own (:meth:`RadioNetwork._settle_template`)."""

_LISTEN_ON = tuple(Listen(channel) for channel in range(256))
"""One prebuilt ``Listen`` per byte-sized channel id, which row expansion
(:meth:`CompiledRound.as_actions`, for trace records) shares."""


@dataclass(frozen=True)
class CompiledRound:
    """One precompiled round of a :class:`RoundSchedule`.

    Attributes
    ----------
    transmits:
        ``node -> Transmit``.  Rounds that share a *static transmitter
        template* (e.g. the witnesses of one feedback slot, identical over
        every repetition) may reference the **same** mapping object — the
        engine validates each distinct mapping once, not once per round.
    listeners:
        The listening node ids.  Rounds of one repetition loop share one
        tuple, so the engine validates it (ids in range, no duplicates,
        disjoint from the template) once per
        :meth:`RadioNetwork.execute_schedule` call.
    hops:
        The *hop row*: ``hops[i]`` is the channel ``listeners[i]`` listens
        on.  A row is plain ``bytes``, so :func:`private_hop_rows` slices
        whole rows out of a hop matrix in C; settlement is ``channel in
        hops`` and a fold marks hitting listeners with one
        :func:`hit_row`.
    meta:
        Round metadata (:class:`RoundMeta`): its phase, the published
        schedule and extras.
    """

    transmits: Mapping[int, Transmit]
    listeners: tuple[int, ...]
    hops: bytes
    meta: RoundMeta

    @classmethod
    def make(
        cls,
        transmits: Mapping[int, Transmit],
        groups: Mapping[int, Sequence[int]],
        meta: RoundMeta | None = None,
    ) -> "CompiledRound":
        """Build a round from ``channel -> listeners`` groups, flattened in
        group order."""
        listeners: list[int] = []
        hops = bytearray()
        for channel, group in groups.items():
            if not isinstance(channel, int) or not 0 <= channel < 256:
                raise ProtocolViolation(
                    f"listeners grouped on invalid channel {channel!r} "
                    "(channel ids are bytes)"
                )
            listeners += group
            hops += bytes((channel,)) * len(group)
        return cls(
            transmits, tuple(listeners), bytes(hops), meta or RoundMeta()
        )

    @property
    def listens(self) -> dict[int, list[int]]:
        """Read-only view: ``channel -> listeners`` in row order (a fresh
        dict per access; channels without listeners are absent)."""
        groups: dict[int, list[int]] = {}
        for node, channel in zip(self.listeners, self.hops):
            groups.setdefault(channel, []).append(node)
        return groups

    def as_actions(self) -> dict[int, Action]:
        """Expand into the per-node action map of the classic interface:
        transmitters, then listeners in row order."""
        actions: dict[int, Action] = dict(self.transmits)
        actions.update(
            zip(self.listeners, map(_LISTEN_ON.__getitem__, self.hops))
        )
        return actions


class RoundSchedule:
    """A precompiled, data-independent batch of rounds.

    Protocols whose round structure is *oblivious* — fixed repetition
    loops, deterministic sweeps, precomputed random hop sequences — compile
    the whole loop once and submit it through
    :meth:`RadioNetwork.execute_schedule`.  The engine then resolves each
    round at a cost proportional to the transmitters and the *touched*
    channels, plus a few C-level passes over the hop row: no listener
    costs a Python-level step unless a trace record is being built.

    A schedule is a plain value (picklable when its messages are), which is
    what makes it a unit of work that can later be fanned out to worker
    processes.
    """

    __slots__ = ("rounds",)

    def __init__(self, rounds: Iterable[CompiledRound]) -> None:
        self.rounds = tuple(rounds)

    def __len__(self) -> int:
        return len(self.rounds)

    def __iter__(self) -> Iterator[CompiledRound]:
        return iter(self.rounds)


class RadioNetwork:
    """Round-based simulator for the multi-channel radio model.

    Parameters
    ----------
    n:
        Number of honest nodes, with ids ``0 .. n-1``.
    channels:
        Number of channels ``C``; channels are ids ``0 .. C-1``.
    t:
        Adversary budget: distinct channels it may transmit on per round.
    adversary:
        Strategy object implementing
        :class:`repro.adversary.base.Adversary`; ``None`` means no adversary.
    params:
        Protocol constants (used here only for the round cap).
    keep_trace:
        When ``False``, round records are not retained (metrics still are);
        long benchmark runs use this to bound memory.  Note that adversaries
        needing history force ``keep_trace=True``.
    """

    def __init__(
        self,
        n: int,
        channels: int,
        t: int,
        adversary: "Adversary | None" = None,
        *,
        params: ProtocolParameters = DEFAULT_PARAMETERS,
        keep_trace: bool = True,
    ) -> None:
        validate_model(n, channels, t)
        self.n = n
        self.channels = channels
        self.t = t
        self.params = params
        self.adversary = adversary
        self._keep_trace = keep_trace
        if adversary is not None and adversary.needs_history and not keep_trace:
            raise ConfigurationError(
                "adversary requires history but keep_trace=False"
            )
        self.trace = ExecutionTrace()
        self.metrics = NetworkMetrics()
        self._round_index = 0

    @property
    def round_index(self) -> int:
        """Index of the next round to execute."""
        return self._round_index

    # ------------------------------------------------------------------

    def _validate_adversary(self, txs: Sequence[Transmission]) -> None:
        seen: set[int] = set()
        for tx in txs:
            if not 0 <= tx.channel < self.channels:
                raise ProtocolViolation(
                    f"adversary used invalid channel {tx.channel}"
                )
            if tx.channel in seen:
                raise ProtocolViolation(
                    f"adversary transmitted twice on channel {tx.channel}"
                )
            seen.add(tx.channel)
        if len(seen) > self.t:
            raise ProtocolViolation(
                f"adversary transmitted on {len(seen)} channels; budget t={self.t}"
            )

    # ------------------------------------------------------------------

    def _adversary_view(self, meta: RoundMeta) -> AdversaryView:
        """A fresh frozen view for the round about to resolve."""
        return AdversaryView(
            n=self.n,
            channels=self.channels,
            t=self.t,
            round_index=self._round_index,
            history=self.trace,
            meta=meta,
        )

    def execute_round(
        self,
        actions: Mapping[int, Action],
        meta: RoundMeta | None = None,
    ) -> dict[int, Message | None]:
        """Resolve one round given per-node actions.

        No protocol calls this: every one compiles its rounds.  It is the
        per-node oracle the tests resolve rounds through, and a binding the
        benchmark tracer wraps.

        ``actions`` may be *sparse*: nodes absent from the mapping sleep,
        and explicit :class:`Sleep` entries are accepted but not recorded.
        The map is compiled into one :class:`CompiledRound` and resolved by
        :meth:`execute_schedule`, so validation, adversary interaction,
        metrics and trace records are those of the compiled path.

        Returns a dict mapping every *listening* node to what it received
        (``None`` for silence/collision/noise).  Nodes that transmitted or
        slept are absent from the result.
        """
        transmits: dict[int, Transmit] = {}
        groups: dict[int, list[int]] = {}
        for node, action in actions.items():
            if isinstance(action, Listen):
                groups.setdefault(action.channel, []).append(node)
            elif isinstance(action, Transmit):
                transmits[node] = action
            elif not isinstance(action, Sleep):
                raise ProtocolViolation(
                    f"node {node} submitted unknown action {action!r}"
                )
            elif not 0 <= node < self.n:
                raise ProtocolViolation(f"unknown node id {node}")
        compiled = CompiledRound.make(transmits, groups, meta)
        (heard,) = self.execute_schedule(RoundSchedule((compiled,)))
        return {
            node: heard.get(channel)
            for node, channel in zip(compiled.listeners, compiled.hops)
        }

    def execute_rounds(
        self,
        batch: Iterable[tuple[Mapping[int, Action], RoundMeta | None]],
    ) -> list[dict[int, Message | None]]:
        """Resolve ``(actions, meta)`` pairs back-to-back, each exactly as
        by :meth:`execute_round`; returns the per-listener results in order."""
        return [self.execute_round(actions, meta) for actions, meta in batch]

    # ------------------------------------------------------------------
    # The resolver.
    # ------------------------------------------------------------------

    def _validate_shared(
        self,
        cr: CompiledRound,
        validated: set[object],
        listener_sets: dict[int, set[int]],
    ) -> None:
        """Validate the parts a repetition loop shares across its rounds.

        The transmitter template, the listener tuple, and their
        disjointness (one action per node per round: a node may listen at
        most once and may not both transmit and listen) are each checked
        once per :meth:`execute_schedule` call, keyed by object identity —
        the schedule keeps them alive, so ids are stable for the duration
        of the call.
        """
        transmits, listeners = cr.transmits, cr.listeners
        if id(transmits) not in validated:
            for node, action in transmits.items():
                if not 0 <= node < self.n:
                    raise ProtocolViolation(f"unknown node id {node}")
                if not isinstance(action, Transmit):
                    raise ProtocolViolation(
                        f"compiled transmit map holds {action!r} for node "
                        f"{node}; only Transmit actions belong there"
                    )
                if not 0 <= action.channel < self.channels:
                    raise ProtocolViolation(
                        f"node {node} used invalid channel {action.channel} "
                        f"(C={self.channels})"
                    )
            validated.add(id(transmits))
        members = listener_sets.get(id(listeners))
        if members is None:
            # set/min/max run at C speed; only dig for the per-node
            # culprit on failure.
            members = set(listeners)
            if len(members) != len(listeners):
                raise ProtocolViolation(
                    "compiled round schedules a node to listen twice"
                )
            if members and not (0 <= min(members) and max(members) < self.n):
                bad = next(n for n in listeners if not 0 <= n < self.n)
                raise ProtocolViolation(f"unknown node id {bad}")
            listener_sets[id(listeners)] = members
        if not members.isdisjoint(transmits):
            bad = min(members.intersection(transmits))
            raise ProtocolViolation(
                f"node {bad} is scheduled to both transmit and listen"
            )
        validated.add((id(transmits), id(listeners)))

    def _plan(
        self, rounds: Sequence[CompiledRound]
    ) -> Sequence[Sequence[Transmission]] | None:
        """The adversary's moves for the rounds of ``rounds`` that run
        before the round cap, from its ``plan_schedule`` hook (looked up by
        name, so duck-typed adversaries without one simply act), or
        ``None`` when it acts round by round."""
        plan = getattr(self.adversary, "plan_schedule", None)
        cap = self.params.max_rounds
        runnable = len(rounds)
        if cap is not None:
            runnable = min(runnable, cap - self._round_index)
        if plan is None or runnable <= 0:
            return None
        metas = [cr.meta for cr in rounds[:runnable]]
        moves = plan(self._adversary_view(metas[0]), metas)
        if moves is not None and len(moves) != runnable:
            raise ProtocolViolation(
                f"adversary planned {len(moves)} moves for {runnable} rounds"
            )
        return moves

    @staticmethod
    def _settle_template(transmits: Mapping[int, Transmit]) -> _Settled:
        """Resolve a transmitter template on its own: ``(senders,
        delivered, deliveries, collisions, payload_units)``, where
        ``senders`` maps each touched channel to its payloads and
        ``delivered`` holds the message a lone decodable payload delivers
        (``None`` for noise or a collision), in first-touch order."""
        senders: dict[int, list[Message | Jam]] = {}
        units = 0
        for action in transmits.values():
            senders.setdefault(action.channel, []).append(action.message)
            units += frame_size(action.message)
        delivered: dict[int, Message | None] = {}
        deliveries = collisions = 0
        for channel, payloads in senders.items():
            if len(payloads) == 1 and isinstance(payloads[0], Message):
                delivered[channel] = payloads[0]
                deliveries += 1
            else:
                delivered[channel] = None
                if len(payloads) >= 2:
                    collisions += 1
        return senders, delivered, deliveries, collisions, units

    def execute_schedule(
        self, schedule: "RoundSchedule"
    ) -> list[dict[int, Message]]:
        """Resolve a precompiled :class:`RoundSchedule`, round by round.

        This is the one place a round is resolved: the round cap,
        validation, adversary interaction, the single-transmitter rule,
        metrics (payloads included) and trace records all live here;
        :meth:`execute_round` submits one-round schedules.

        Work is split by what varies.  Each distinct transmitter template,
        listener tuple and (template, listeners) pair is validated once per
        call (:meth:`_validate_shared`), and each template is resolved once
        (:meth:`_settle_template`); per round the hop row is checked with
        one length comparison and one C-level ``translate``, and only the
        adversary's channels are folded into the template's resolution,
        on a copy.

        The adversary is asked once per call first: if its
        :meth:`~repro.adversary.base.Adversary.plan_schedule` returns the
        moves of every round that runs before the round cap (given their
        public metas only, never the compiled rounds), no round asks it
        again; each distinct planned move is validated the first time a
        round uses it, so a bad move raises at the same round as when
        acting.  Otherwise it acts once per round.

        Returns one dict per round mapping **channel** to the message
        decoded on it, containing entries only for channels that (a) had at
        least one listener (``channel in hops``) and (b) delivered a
        message.  Callers fan results out to their listeners themselves
        (they compiled the rows, so they know them) — this is what lets a
        round with ``n`` listeners on silent or collided channels resolve
        without any per-listener work.  Retained records hold the per-node
        action map of :meth:`CompiledRound.as_actions`, built only when
        records are kept.
        """
        validated: set[object] = set()
        listener_sets: dict[int, set[int]] = {}
        settled: dict[int, _Settled] = {}
        adversary = self.adversary
        keep_records = self._keep_trace or (
            adversary is not None and adversary.needs_history
        )
        max_rounds = self.params.max_rounds
        metrics = self.metrics
        on_air = bytes(range(self.channels))
        rounds = schedule.rounds
        moves = None if adversary is None else self._plan(rounds)
        checked_moves: set[int] = set()
        outputs: list[dict[int, Message]] = []

        for index, cr in enumerate(rounds):
            if max_rounds is not None and self._round_index >= max_rounds:
                raise ProtocolViolation(
                    f"round cap exceeded ({max_rounds} rounds); "
                    "likely a non-terminating configuration"
                )
            transmits, listeners, hops = cr.transmits, cr.listeners, cr.hops
            if (id(transmits), id(listeners)) not in validated:
                self._validate_shared(cr, validated, listener_sets)
            if len(hops) != len(listeners):
                raise ProtocolViolation(
                    f"hop row holds {len(hops)} hops for "
                    f"{len(listeners)} listeners"
                )
            if hops.translate(None, on_air):
                raise ProtocolViolation(
                    f"listener hops to invalid channel {max(hops)} "
                    f"(C={self.channels})"
                )

            adversary_txs: Sequence[Transmission] = ()
            if moves is not None:
                adversary_txs = moves[index]
                if id(adversary_txs) not in checked_moves:
                    self._validate_adversary(adversary_txs)
                    checked_moves.add(id(adversary_txs))
            elif adversary is not None:
                adversary_txs = tuple(
                    adversary.act(self._adversary_view(cr.meta))
                )
                self._validate_adversary(adversary_txs)

            resolution = settled.get(id(transmits))
            if resolution is None:
                resolution = settled[id(transmits)] = self._settle_template(
                    transmits
                )
            senders, delivered, deliveries, collisions, units = resolution
            # Fold the adversary's channels (distinct, validated) into the
            # template's resolution: alone on a channel it delivers a
            # spoof or noise; next to one honest payload it makes a new
            # collision; on a collided channel it changes nothing.
            if adversary_txs:
                delivered = dict(delivered)
                for tx in adversary_txs:
                    channel = tx.channel
                    honest = senders.get(channel)
                    if honest is None:
                        if isinstance(tx.payload, Message):
                            delivered[channel] = tx.payload
                            deliveries += 1
                            metrics.spoofs_delivered += 1
                        else:
                            delivered[channel] = None
                    elif len(honest) == 1:
                        if delivered[channel] is not None:
                            deliveries -= 1
                            delivered[channel] = None
                        collisions += 1

            metrics.rounds += 1
            metrics.honest_transmissions += len(transmits)
            metrics.listens += len(listeners)
            metrics.payload_units += units
            metrics.adversary_transmissions += len(adversary_txs)
            metrics.deliveries += deliveries
            metrics.collisions += collisions
            if cr.meta.phase:
                metrics.note_phase(cr.meta.phase)

            if keep_records:
                self.trace.append(
                    RoundRecord(
                        index=self._round_index,
                        actions=cr.as_actions(),
                        adversary_transmissions=tuple(adversary_txs),
                        delivered=SparseDelivered(delivered, self.channels),
                        meta=cr.meta.as_dict(),
                    )
                )
            self._round_index += 1

            # Lazy listener settlement: only channels that both carried a
            # decodable message and have listeners produce an entry.
            heard: dict[int, Message] = {}
            if deliveries:
                for channel, msg in delivered.items():
                    if msg is not None and channel in hops:
                        heard[channel] = msg
            outputs.append(heard)
        return outputs


# ----------------------------------------------------------------------
# Epochs: keyed (Sections 6-7), then private-hop (Sections 5, 6 and 8).
# ----------------------------------------------------------------------

T = TypeVar("T")


def keyed_epoch_rounds(
    network: RadioNetwork, channel_aware: bool = False
) -> int:
    """Real rounds in one keyed epoch on ``network``: the paper's base
    ``Θ(t log n)``, or with ``channel_aware`` the Section 7 parenthetical's
    ``Θ(log n)`` at ``C >= 2t``, where the keyless adversary hits the hop
    with probability at most 1/2 per round."""
    params = network.params
    if channel_aware:
        return params.hopping_epoch_rounds(
            network.n, network.channels, network.t
        )
    return params.dissemination_epoch_rounds(network.n, network.t)


def run_hopped_epoch(
    network: RadioNetwork,
    hops: Sequence[int],
    frames: Sequence[Mapping[int, Message]],
    listeners: tuple[int, ...],
    meta: RoundMeta,
) -> list[Message | None]:
    """Run one keyed epoch and return the message decoded on each hop.

    Round ``r`` has every sender of ``frames[r]`` (``sender -> frame``)
    transmit on ``hops[r]`` and every node of ``listeners`` tuned there.
    The whole epoch goes to ``network.execute_schedule`` as one schedule,
    so anything wrapping that method sees it as one unit.  Entry ``r`` of
    the result is ``None`` when round ``r``'s hop carried silence, a
    collision or noise.
    """
    width = len(listeners)
    heard = network.execute_schedule(
        RoundSchedule(
            CompiledRound(
                {s: Transmit(hop, frame) for s, frame in senders.items()},
                listeners,
                bytes((hop,)) * width,
                meta,
            )
            for hop, senders in zip(hops, frames)
        )
    )
    return [per_round.get(hop) for hop, per_round in zip(hops, heard)]


def first_opened(
    heard: Iterable[Message | None],
    kind: str,
    open_payload: Callable[[Any], T | None],
) -> T | None:
    """The first non-``None`` ``open_payload(frame.payload)`` over the
    frames of ``kind`` in ``heard``, in round order.

    ``open_payload`` is the receiver's acceptance rule: it returns
    ``None`` for a frame it declines (a replay, a stale generation) and
    raises :class:`~repro.errors.CryptoError`, :class:`TypeError` or
    :class:`ValueError` for a forged or malformed one; either way the scan
    moves on.  Nothing after the accepted frame is opened.
    """
    for frame in heard:
        if frame is None or frame.kind != kind:
            continue
        try:
            opened = open_payload(frame.payload)
        except (CryptoError, TypeError, ValueError):
            continue
        if opened is not None:
            return opened
    return None


_HIT_TABLES = tuple(
    bytes(channel) + b"\x01" + bytes(255 - channel) for channel in range(256)
)


def private_hop_rows(
    groups: Iterable[tuple[Iterable[HopStream], Sequence[int]]],
    rounds: int,
) -> list[bytes]:
    """Per-round hop rows for nodes hopping on private coins: each group
    pairs hop streams over ``range(len(channels))`` with the channel ids
    their values index; each stream hands out ``rounds`` values (byte for
    byte a ``choice(channels)`` per round; see :mod:`repro.rng`), laid out
    stream-major in group order, so row ``r`` is ``matrix[r::rounds]``."""
    matrix = bytearray()
    for streams, channels in groups:
        width = len(channels)
        positions = bytearray()
        for stream in streams:
            if stream.n != width:
                raise ConfigurationError(
                    f"hop stream over range({stream.n}) laid out on "
                    f"{width} channels"
                )
            positions += stream.take(rounds)
        matrix += positions.translate(bytes(channels).ljust(256, b"\0"))
    hops = bytes(matrix)
    return [hops[r::rounds] for r in range(rounds)]


def draw_in_step(rng: random.Random, n: int, count: int) -> bytes:
    """``count`` values of a ``rng.choice(range(n))`` loop, leaving ``rng``
    exactly where that loop would: the draw for a generator its owner
    keeps using (an oblivious jammer's), which a
    :class:`~repro.rng.HopStream` could not draw ahead of."""
    return bytes(BlockDrawer(n).draw(rng, count))


def hit_row(row: bytes, channel: int) -> bytes:
    """One byte per listener of ``row``: ``1`` on ``channel``, else ``0``."""
    return row.translate(_HIT_TABLES[channel])


def run_gossip_epoch(
    network: RadioNetwork,
    sender: int,
    frame: Message | None,
    listeners: tuple[int, ...],
    streams: Mapping[int, HopStream] | Sequence[HopStream],
    rounds: int,
    meta: RoundMeta,
) -> list[tuple[bytes, dict[int, Message]]]:
    """Run one epoch in which ``sender`` transmits ``frame`` and
    ``listeners`` listen, each node on fresh hops off its hop stream
    ``streams[node]`` (over ``range(network.channels)``); returns each
    round's hop row and ``channel -> message`` heard, from one
    :meth:`RadioNetwork.execute_schedule` call.  A ``None`` frame leaves
    the sender silent, drawing nothing."""
    channels = range(network.channels)
    rows = private_hop_rows(
        [([streams[node] for node in listeners], channels)], rounds
    )
    templates: list[dict[int, Transmit]] = [{}] * rounds
    if frame is not None:
        templates = [
            {sender: Transmit(hop[0], frame)}
            for hop in private_hop_rows([([streams[sender]], channels)], rounds)
        ]
    heard = network.execute_schedule(
        RoundSchedule(
            CompiledRound(template, listeners, row, meta)
            for template, row in zip(templates, rows)
        )
    )
    return list(zip(rows, heard))
