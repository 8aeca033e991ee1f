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
:func:`~repro.params.validate_model` caps ``C`` at 256.
:meth:`RadioNetwork.execute_round` is a thin adapter for protocols that
think in per-node action maps: it compiles the map into one round,
resolves it there and fans the result out per listener.

Everything Sections 6-7 build after the group key is one *keyed epoch*:
senders repeat AEAD-sealed frames over a key-derived hop pattern while
the receivers sit on the same hops, and a receiver keeps the first frame
that authenticates.  :func:`run_hopped_epoch` compiles and submits such an
epoch (one :meth:`RadioNetwork.execute_schedule` call) and returns what
was decoded on each round's hop; :func:`first_opened` applies a caller's
open-and-check rule to those frames in order and stops at the first one
it accepts.  :func:`keyed_epoch_rounds` is the epoch length they share.

The adversary's one-round observation delay is enforced structurally: the
view object handed to the adversary contains the trace of *completed* rounds
only, alongside the current round's public ``meta`` (which the adversary
could derive itself, since protocols are known and their deterministic
schedule depends only on public history).
"""

from __future__ import annotations

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


_LISTEN_ON = tuple(Listen(channel) for channel in range(256))
"""``Listen`` flyweight per byte-sized channel id, for row expansion."""


def hop_table(channels: Sequence[int]) -> bytes:
    """The :meth:`bytes.translate` table sending hop *position* ``i`` to
    channel ``channels[i]``.

    Hop samplers draw positions within a channel list; one ``translate``
    of a whole hop matrix with this table turns them into channel ids.
    """
    return bytes(channels).ljust(256, b"\0")


HIT_TABLES = tuple(
    bytes(channel) + b"\x01" + bytes(255 - channel) for channel in range(256)
)
"""``row.translate(HIT_TABLES[c])`` marks with ``1`` the listeners of a
hop row that are on channel ``c`` (and with ``0`` everyone else)."""


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
        on.  A row is plain ``bytes``, so a compiler that lays hop
        sequences out listener-major slices round ``r``'s row out of the
        matrix in C (``matrix[r::repetitions]``); settlement is
        ``channel in hops`` and a fold marks hitting listeners with one
        ``hops.translate(...)``.
    meta:
        Round metadata, exactly as for :meth:`RadioNetwork.execute_round`.
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
        # One shared view instance, reused across rounds for adversaries
        # that declare ``reusable_view`` (see Adversary.reusable_view).
        self._shared_view: AdversaryView | None = None

    @property
    def round_index(self) -> int:
        """Index of the next round to execute."""
        return self._round_index

    # ------------------------------------------------------------------

    def _validate_adversary(self, txs: list[Transmission]) -> None:
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
        """The view handed to the adversary for the round about to resolve.

        Adversaries that declare :attr:`~repro.adversary.base.Adversary.
        reusable_view` get **one** view object whose ``round_index`` and
        ``meta`` are advanced in place each round (the population fields
        are constant and ``history`` is the live trace, which mutates as
        rounds complete) — removing the last per-round allocation on
        adversarial hot paths.  Everyone else gets a fresh frozen view.
        """
        if getattr(self.adversary, "reusable_view", False):
            view = self._shared_view
            if view is None:
                view = AdversaryView(
                    n=self.n,
                    channels=self.channels,
                    t=self.t,
                    round_index=self._round_index,
                    history=self.trace,
                    meta=meta,
                )
                self._shared_view = view
            else:
                object.__setattr__(view, "round_index", self._round_index)
                object.__setattr__(view, "meta", meta)
            return view
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

    def execute_schedule(
        self, schedule: "RoundSchedule"
    ) -> list[dict[int, Message]]:
        """Resolve a precompiled :class:`RoundSchedule`, round by round.

        This is the one place a round is resolved: the round cap,
        validation, adversary interaction, the single-transmitter rule,
        metrics (payloads included) and trace records all live here;
        :meth:`execute_round` submits one-round schedules.

        Validation is split by what varies.  Each distinct transmitter
        template, listener tuple and (template, listeners) pair is checked
        once per call (:meth:`_validate_shared`); per round only the hop
        row is checked, with one length comparison and one C-level
        ``translate`` for hops outside ``0 .. C-1``.

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
        # Payload accounting per distinct transmitter template: a static
        # template shared by every repetition of a transfer is sized once
        # (same id-keyed caching as validation), so per-round bookkeeping
        # stays O(1) even for large knowledge frames.
        template_sizes: dict[int, int] = {}
        keep_records = self._keep_trace or (
            self.adversary is not None and self.adversary.needs_history
        )
        max_rounds = self.params.max_rounds
        metrics = self.metrics
        on_air = bytes(range(self.channels))
        outputs: list[dict[int, Message]] = []

        for cr in schedule.rounds:
            if max_rounds is not None and self._round_index >= max_rounds:
                raise ProtocolViolation(
                    f"round cap exceeded ({max_rounds} rounds); "
                    "likely a non-terminating configuration"
                )
            listeners, hops = cr.listeners, cr.hops
            if (id(cr.transmits), id(listeners)) not in validated:
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

            adversary_txs: list[Transmission] = []
            if self.adversary is not None:
                adversary_txs = list(
                    self.adversary.act(self._adversary_view(cr.meta))
                )
                self._validate_adversary(adversary_txs)

            # Channel resolution over touched channels only: exactly one
            # decodable transmission delivers (a spoof when it was the
            # adversary's); anything else is silence or a collision.
            transmitters: dict[int, list[Message | Jam]] = {}
            for action in cr.transmits.values():
                transmitters.setdefault(action.channel, []).append(
                    action.message
                )
            adversary_channels: set[int] = set()
            for tx in adversary_txs:
                adversary_channels.add(tx.channel)
                transmitters.setdefault(tx.channel, []).append(tx.payload)
            delivered: dict[int, Message | None] = {}
            deliveries = 0
            for channel, payloads in transmitters.items():
                if len(payloads) == 1 and isinstance(payloads[0], Message):
                    delivered[channel] = payloads[0]
                    deliveries += 1
                    if channel in adversary_channels:
                        metrics.spoofs_delivered += 1
                else:
                    delivered[channel] = None
                    if len(payloads) >= 2:
                        metrics.collisions += 1

            payload_units = template_sizes.get(id(cr.transmits))
            if payload_units is None:
                payload_units = sum(
                    frame_size(action.message)
                    for action in cr.transmits.values()
                )
                template_sizes[id(cr.transmits)] = payload_units

            metrics.rounds += 1
            metrics.honest_transmissions += len(cr.transmits)
            metrics.listens += len(listeners)
            metrics.payload_units += payload_units
            metrics.adversary_transmissions += len(adversary_txs)
            metrics.deliveries += deliveries
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
# Keyed epochs (Sections 6-7).
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
