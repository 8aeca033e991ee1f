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
which takes precompiled repetition loops (:class:`CompiledRound`).  A
loop is one transmitter template heard by one listener tuple for
``len(rows)`` rounds, and a single round is a loop of one.  Listeners
come in one form only: a node tuple plus, per round, a ``bytes`` *hop
row* whose ``i``-th byte is the channel the ``i``-th listener tunes to, so
a compiler can slice whole rows out of a hop matrix and the engine checks
and folds rows with C-level ``bytes`` operations instead of a visit per
listener.  Channel ids are therefore bytes, and
:func:`~repro.params.validate_model` caps ``C`` at 256.

When the adversary has planned its moves, or there is none, a schedule
resolves in bulk: each distinct template is settled once, each distinct
(template, move) pair is folded once, and the counters of each distinct
(loop, move) pair are added once, times its number of rounds.  An
adversary that acts sees every completed round before its move, so its
schedules resolve round by round through the same settle-and-fold code,
and so does a schedule that would fault, which raises at the faulting
round.  Either way the result (:class:`Heard`) builds a round's
``channel -> message`` map only when it is read, and folds who heard
what over a whole loop in bulk (:meth:`Heard.reached`).

Every protocol compiles its rounds; :meth:`RadioNetwork.execute_round`,
which compiles a per-node action map into one round, resolves it there
and fans the result out per listener, serves only the tests' per-node
oracle and the benchmark tracer.

Two kinds of epoch sit on that resolver at the end of this module, each
submitted as one :meth:`RadioNetwork.execute_schedule` call:

* *keyed epochs* (Sections 6-7): each sender repeats one AEAD-sealed
  frame, sealed once per epoch, on a key-derived hop pattern the
  receivers share.  :func:`run_hopped_epoch` runs one as at most ``C``
  distinct rounds (one per hop channel, reused whenever the hop returns
  to it), :func:`first_opened` keeps the first frame that authenticates,
  and :func:`keyed_epoch_rounds` is their length;
* *private-hop epochs* (every oblivious phase): each node hops on its own
  private counter-mode coins, handed out by its
  :class:`~repro.rng.HopStream`.  :func:`private_hop_rows` is the one
  place they are laid out as hop rows, :func:`hit_row` the one per-round
  read-back, and :func:`run_gossip_epoch` the epoch of one sender among
  listeners.  :func:`draw_in_step` is the one other draw: an oblivious
  jammer's, off a generator it keeps.

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
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from operator import attrgetter
from types import MappingProxyType
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
from .trace import ExecutionTrace, RoundRecord

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

_Folded = tuple[dict[int, "Message | None"], int, int, int]
"""A settled template with one adversary move folded in
(:meth:`RadioNetwork._fold_move`)."""

_LISTEN_ON = tuple(Listen(channel) for channel in range(256))
"""One prebuilt ``Listen`` per byte-sized channel id, which row expansion
(:meth:`CompiledRound.as_actions`) shares."""

_ROWS = attrgetter("rows")
_META = attrgetter("meta")

T = TypeVar("T")


@dataclass(frozen=True)
class CompiledRound:
    """One precompiled repetition loop: ``len(rows)`` rounds of one
    transmitter template, one listener tuple and one meta.  A single round
    is a loop of one row, and a schedule is the list of its loops
    (:meth:`RadioNetwork.execute_schedule`).

    Attributes
    ----------
    transmits:
        ``node -> Transmit``, the same in every round of the loop.  Loops
        that share a *static transmitter template* may reference the
        **same** mapping object — the engine validates and settles each
        distinct mapping once per call.
    listeners:
        The listening node ids.  The engine validates a tuple (ids in
        range, no duplicates, disjoint from the template) once per
        :meth:`RadioNetwork.execute_schedule` call.
    rows:
        One *hop row* per round: ``rows[r][i]`` is the channel
        ``listeners[i]`` listens on in round ``r``.  A row is plain
        ``bytes``, so :func:`private_hop_rows` slices whole rows out of a
        hop matrix in C, and the engine checks them (``channel in row``,
        one ``translate`` over the joined rows) and folds their hearers
        (:meth:`Heard.reached`) without a visit per listener.
    meta:
        Round metadata (:class:`RoundMeta`), the same in every round of
        the loop: its phase, the published schedule and extras.
    """

    transmits: Mapping[int, Transmit]
    listeners: tuple[int, ...]
    rows: Sequence[bytes]
    meta: RoundMeta

    @classmethod
    def make(
        cls,
        transmits: Mapping[int, Transmit],
        groups: Mapping[int, Sequence[int]],
        meta: RoundMeta | None = None,
    ) -> "CompiledRound":
        """Build a single round from ``channel -> listeners`` groups,
        flattened in group order."""
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
            transmits, tuple(listeners), (bytes(hops),), meta or RoundMeta()
        )

    @property
    def hops(self) -> bytes:
        """The hop row of a single round (a loop of one)."""
        (row,) = self.rows
        return row

    def repetition(self, row: bytes) -> "CompiledRound":
        """The single round of this loop that hops on ``row`` (one of its
        :attr:`rows`): the loop itself when it is one round, else a new
        one-row round sharing its template, listeners and meta."""
        if len(self.rows) == 1:
            return self
        return CompiledRound(self.transmits, self.listeners, (row,), self.meta)

    def as_actions(self) -> dict[int, Action]:
        """Expand a single round into the per-node action map of the
        classic interface: transmitters, then listeners in row order, built
        afresh per call (:attr:`RoundRecord.actions` reads it; the resolver
        never does)."""
        actions: dict[int, Action] = dict(self.transmits)
        actions.update(
            zip(self.listeners, map(_LISTEN_ON.__getitem__, self.hops))
        )
        return actions


def _each_round(values: Iterable[T], counts: list[int]) -> list[T]:
    """``values[i]`` once per round of loop ``i`` (``counts[i]`` times),
    in order; a schedule of one-round loops takes them as they are."""
    if counts.count(1) == len(counts):
        return list(values)
    return list(chain.from_iterable(map(repeat, values, counts)))


def _heard(delivered: Mapping[int, Message | None], row: bytes) -> dict[int, Message]:
    """One round's ``channel -> message``: the channels that delivered a
    message and that some listener of ``row`` sat on."""
    heard: dict[int, Message] = {}
    for channel, message in delivered.items():
        if message is not None and channel in row:
            heard[channel] = message
    return heard


def _or_rows(joined: bytes, width: int) -> int:
    """The bitwise OR of the ``width``-byte rows joined back to back in
    ``joined``, as a little-endian ``int``: the rows' big int is folded
    onto its lowest row by halving, a few C-level passes in all."""
    bits = int.from_bytes(joined, "little")
    span = 8 * width
    count = len(joined) // width
    while count > 1:
        half = count // 2
        bits = (bits & ((1 << half * span) - 1)) | (bits >> half * span)
        count -= half
    return bits


class Heard:
    """What one :meth:`RadioNetwork.execute_schedule` call delivered.

    Iterating it yields one ``channel -> message`` map per round, in round
    order, built when read: a channel is present when it delivered a
    message and at least one of the round's listeners sat on it.  Callers
    fan results out to their listeners themselves (they compiled the rows,
    so they know them), which is what lets a round whose listeners sit on
    silent or collided channels resolve without any per-listener work.
    :meth:`reached` folds a whole loop at once.  ``len`` is the number of
    rounds, and it compares equal to a list of the same maps.

    It keeps each round's touched-channel delivery map, the engine's own:
    rounds that share a template and a move share one.
    """

    __slots__ = ("_loops", "_maps", "_starts")

    def __init__(
        self,
        loops: Sequence[CompiledRound],
        maps: list[Mapping[int, Message | None]],
    ) -> None:
        self._loops = loops
        self._maps = maps
        self._starts: list[int] | None = None

    def __len__(self) -> int:
        return len(self._maps)

    def __iter__(self) -> Iterator[dict[int, Message]]:
        rows = chain.from_iterable(map(_ROWS, self._loops))
        return map(_heard, self._maps, rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Heard, list)):
            return list(self) == list(other)
        return NotImplemented

    def reached(self, loop: int) -> list[tuple[Message, int]]:
        """Who heard what over the rounds of ``loop`` (its index in the
        schedule): each message delivered to at least one of its
        listeners, with the OR of the :func:`hit_row` masks of the rounds
        and channels that delivered it, as a little-endian ``int`` (byte
        ``i`` is ``1`` when ``listeners[i]`` heard it at least once).

        Each delivered (channel, message) pair of the loop's distinct
        delivery maps gets one bit of a listener's byte, eight pairs per
        pass: each row is translated by its map's table (one ``translate``
        over the joined rows when the loop has one map), and the rows are
        OR-folded at once (:func:`_or_rows`).
        """
        cr = self._loops[loop]
        width = len(cr.listeners)
        if self._starts is None:
            self._starts = list(
                accumulate(map(len, map(_ROWS, self._loops)), initial=0)
            )
        maps = self._maps[self._starts[loop] : self._starts[loop + 1]]
        if not width or not maps:
            return []
        ids = list(map(id, maps))
        outcomes = dict(zip(ids, maps))
        delivering: dict[tuple[int, int], Message] = {}
        for outcome in outcomes.values():
            for channel, message in outcome.items():
                if message is not None:
                    delivering.setdefault((channel, id(message)), message)
        pairs = [(channel, message) for (channel, _), message in delivering.items()]
        ones = int.from_bytes(b"\x01" * width, "little")
        reached: dict[int, list] = {}  # id(message) -> [message, mask]
        for first in range(0, len(pairs), 8):
            batch = pairs[first : first + 8]
            tables: dict[int, bytearray] = {}
            for key, outcome in outcomes.items():
                table = tables[key] = bytearray(256)
                for bit, (channel, message) in enumerate(batch):
                    if outcome.get(channel) is message:
                        table[channel] = 1 << bit
            if len(tables) == 1:
                (table,) = tables.values()
                joined = b"".join(cr.rows).translate(table)
            else:
                joined = b"".join(
                    map(bytes.translate, cr.rows, map(tables.__getitem__, ids))
                )
            bits = _or_rows(joined, width)
            for bit, (_, message) in enumerate(batch):
                mask = (bits >> bit) & ones
                if mask:
                    entry = reached.get(id(message))
                    if entry is None:
                        reached[id(message)] = [message, mask]
                    else:
                        entry[1] |= mask
        return [(message, mask) for message, mask in reached.values()]


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
        long benchmark runs use this to bound memory.  An adversary that
        reads history (``needs_history``) needs ``keep_trace=True``: with
        ``False`` the constructor raises
        :class:`~repro.errors.ConfigurationError`.
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
        (heard,) = self.execute_schedule((compiled,))
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
        self, loops: Sequence[CompiledRound], counts: list[int]
    ) -> Sequence[Sequence[Transmission]] | None:
        """The adversary's moves, one per round, for the rounds of
        ``loops`` (``counts[i]`` rounds each) that run before the round
        cap, from its ``plan_schedule`` hook (looked up by name, so
        duck-typed adversaries without one simply act), or ``None`` when
        it acts round by round."""
        plan = getattr(self.adversary, "plan_schedule", None)
        if plan is None:
            return None
        metas = _each_round(map(_META, loops), counts)
        cap = self.params.max_rounds
        if cap is not None:
            del metas[max(cap - self._round_index, 0) :]
        if not metas:
            return None
        moves = plan(self._adversary_view(metas[0]), metas)
        if moves is not None and len(moves) != len(metas):
            raise ProtocolViolation(
                f"adversary planned {len(moves)} moves for {len(metas)} rounds"
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

    @staticmethod
    def _fold_move(
        settled: _Settled, transmissions: Sequence[Transmission]
    ) -> _Folded:
        """Fold one adversary move (distinct, validated channels) into a
        settled template: ``(delivered, deliveries, collisions, spoofs)``.

        Alone on a channel the adversary delivers a spoof or noise; next
        to one honest payload it makes a new collision; on a collided
        channel it changes nothing.  An empty move returns the template's
        own delivery map, which is why a round's map is read-only.
        """
        senders, delivered, deliveries, collisions, _units = settled
        spoofs = 0
        if transmissions:
            delivered = dict(delivered)
            for tx in transmissions:
                channel = tx.channel
                honest = senders.get(channel)
                if honest is None:
                    if isinstance(tx.payload, Message):
                        delivered[channel] = tx.payload
                        deliveries += 1
                        spoofs += 1
                    else:
                        delivered[channel] = None
                elif len(honest) == 1:
                    if delivered[channel] is not None:
                        deliveries -= 1
                        delivered[channel] = None
                    collisions += 1
        return delivered, deliveries, collisions, spoofs

    def execute_schedule(self, loops: Iterable[CompiledRound]) -> Heard:
        """Resolve a precompiled schedule: ``loops``, its
        :class:`CompiledRound` repetition loops in order, whose rounds run
        back to back (any iterable; it is read once).

        This is the one place a round is resolved: the round cap,
        validation, adversary interaction, the single-transmitter rule,
        metrics (payloads included) and trace records all live here;
        :meth:`execute_round` submits one-round schedules.

        The adversary is asked once per call first: its
        :meth:`~repro.adversary.base.Adversary.plan_schedule` gets the
        public metas of the rounds that run before the round cap (never
        the compiled rounds).  If it returns their moves, or there is no
        adversary, and no round would fault (:meth:`_resolves_whole`),
        the schedule resolves in bulk (:meth:`_resolve_planned`): work
        per loop and per distinct (loop, move) pair, plus C-level passes
        over the hop rows, and no step per round.  Otherwise it resolves
        round by round (:meth:`_resolve_each`), the adversary taking its
        planned moves or acting before each round, shown every completed
        one; a fault — a round over the cap, a bad shared part, a
        malformed row, a bad move — then raises at the round that meets
        it, after every round before it counted.  Both paths validate
        each distinct template, listener tuple and (template, listeners)
        pair once per call (:meth:`_validate_shared`), settle each
        template once (:meth:`_settle_template`) and fold moves with
        :meth:`_fold_move`.

        Returns a :class:`Heard`: per round, in order, the
        ``channel -> message`` map of the channels that delivered a
        message and had a listener, built when read; and per loop, in
        bulk, who heard what (:meth:`Heard.reached`).  A retained
        :class:`RoundRecord`, built only when records are kept, holds the
        submitted round itself (a repetition of a longer loop gets its own
        one-row round, :meth:`CompiledRound.repetition`) and a read-only
        view of the round's touched-channel map.
        """
        loops = tuple(loops)
        counts = list(map(len, map(_ROWS, loops)))
        moves = None
        if self.adversary is not None:
            moves = self._plan(loops, counts)
            if moves is None:
                return self._resolve_each(loops)
        heard = self._resolve_planned(loops, counts, moves)
        if heard is None:
            heard = self._resolve_each(loops, moves)
        return heard

    def _resolve_each(
        self,
        loops: Sequence[CompiledRound],
        moves: Sequence[Sequence[Transmission]] | None = None,
    ) -> Heard:
        """Resolve every round of ``loops`` one at a time, the reference
        resolution.  The adversary's move for each round is its planned
        one from ``moves`` (each distinct move validated the first time a
        round uses it), or, without a plan, its ``act`` shown every
        completed round; with no adversary it is empty.  Each check runs
        at its round, so a fault raises there, after every earlier round
        counted.  Rounds with the same template and move share one folded
        delivery map."""
        adversary = self.adversary
        validated: set[object] = set()
        listener_sets: dict[int, set[int]] = {}
        settled: dict[int, _Settled] = {}
        checked_moves: set[int] = set()
        folds: dict[tuple[int, ...], tuple] = {}
        keep_records = self._keep_trace or (
            adversary is not None and adversary.needs_history
        )
        max_rounds = self.params.max_rounds
        metrics = self.metrics
        on_air = bytes(range(self.channels))
        maps: list[Mapping[int, Message | None]] = []
        for cr in loops:
            transmits, listeners, meta = cr.transmits, cr.listeners, cr.meta
            for row in cr.rows:
                if max_rounds is not None and self._round_index >= max_rounds:
                    raise ProtocolViolation(
                        f"round cap exceeded ({max_rounds} rounds); "
                        "likely a non-terminating configuration"
                    )
                if (id(transmits), id(listeners)) not in validated:
                    self._validate_shared(cr, validated, listener_sets)
                if len(row) != len(listeners):
                    raise ProtocolViolation(
                        f"hop row holds {len(row)} hops for "
                        f"{len(listeners)} listeners"
                    )
                if row.translate(None, on_air):
                    raise ProtocolViolation(
                        f"listener hops to invalid channel {max(row)} "
                        f"(C={self.channels})"
                    )
                move: Sequence[Transmission] = ()
                if moves is not None:
                    move = moves[len(maps)]
                    if id(move) not in checked_moves:
                        self._validate_adversary(move)
                        checked_moves.add(id(move))
                elif adversary is not None:
                    move = tuple(adversary.act(self._adversary_view(meta)))
                    self._validate_adversary(move)
                resolution = settled.get(id(transmits))
                if resolution is None:
                    resolution = settled[id(transmits)] = (
                        self._settle_template(transmits)
                    )
                # Rounds that repeat a template and a move (the same
                # transmission objects) share one fold.  Its entry keeps
                # the move alive, so the ids in its key name the same
                # objects for the whole call.
                fold_key = (id(transmits), *map(id, move))
                entry = folds.get(fold_key)
                if entry is None:
                    folded = self._fold_move(resolution, move)
                    entry = folds[fold_key] = (
                        folded,
                        MappingProxyType(folded[0]),
                        move,
                    )
                (delivered, deliveries, collisions, spoofs), view, _ = entry
                metrics.rounds += 1
                metrics.honest_transmissions += len(transmits)
                metrics.listens += len(listeners)
                metrics.payload_units += resolution[4]
                metrics.adversary_transmissions += len(move)
                metrics.deliveries += deliveries
                metrics.collisions += collisions
                metrics.spoofs_delivered += spoofs
                if meta.phase:
                    metrics.note_phase(meta.phase)
                if keep_records:
                    self.trace.append(
                        RoundRecord(
                            self._round_index,
                            cr.repetition(row),
                            tuple(move),
                            view,
                        )
                    )
                self._round_index += 1
                maps.append(delivered)
        return Heard(loops, maps)

    def _resolves_whole(
        self,
        loops: Iterable[CompiledRound],
        rounds: int,
        moves: Iterable[Sequence[Transmission]],
    ) -> bool:
        """Whether ``rounds`` rounds of the distinct ``loops`` and
        ``moves`` would resolve without a fault: none crosses the round
        cap, and each loop (its shared parts, then its rows, in C-level
        passes) and each move passes its checks."""
        cap = self.params.max_rounds
        if cap is not None and self._round_index + rounds > cap:
            return False
        validated: set[object] = set()
        listener_sets: dict[int, set[int]] = {}
        on_air = bytes(range(self.channels))
        try:
            for cr in loops:
                rows = cr.rows
                if not rows:
                    continue
                if (id(cr.transmits), id(cr.listeners)) not in validated:
                    self._validate_shared(cr, validated, listener_sets)
                width = len(cr.listeners)
                joined = b"".join(rows)
                if (
                    len(joined) != width * len(rows)
                    or max(map(len, rows)) != width
                    or joined.translate(None, on_air)
                ):
                    return False
            for move in moves:
                self._validate_adversary(move)
        except ProtocolViolation:
            return False
        return True

    def _resolve_planned(
        self,
        loops: Sequence[CompiledRound],
        counts: list[int],
        moves: Sequence[Sequence[Transmission]] | None,
    ) -> Heard | None:
        """Resolve ``loops`` (``counts[i]`` rounds each) in bulk, the
        adversary's ``moves`` (one per round) known up front (``None``:
        no adversary), or return ``None``, having changed nothing, when
        some round would fault (:meth:`_resolves_whole`).

        Rounds are counted per distinct (loop, move) pair at C level;
        each pair's template and move are folded once, and every counter
        is added once, times the pair's rounds (``rounds_by_phase`` in
        the order of the rounds).  Records are built only when kept.
        """
        loop_of = dict(zip(map(id, loops), loops))
        keys: list = _each_round(map(id, loops), counts)
        move_of: dict[int, Sequence[Transmission]] = {}
        if moves is not None:
            ids = list(map(id, moves))
            move_of = dict(zip(ids, moves))
            keys = list(zip(keys, ids))
        if not self._resolves_whole(
            loop_of.values(), sum(counts), move_of.values()
        ):
            return None
        settled: dict[int, _Settled] = {}
        folds: dict[tuple[int, int], _Folded] = {}
        outcomes: dict[object, Mapping[int, Message | None]] = {}
        phases = self.metrics.rounds_by_phase
        honest = listens = units = jams = 0
        deliveries = collisions = spoofs = 0
        for key, count in Counter(keys).items():
            if moves is None:
                cr, move_key, move = loop_of[key], 0, ()
            else:
                cr, move_key = loop_of[key[0]], key[1]
                move = move_of[move_key]
            transmits = cr.transmits
            resolution = settled.get(id(transmits))
            if resolution is None:
                resolution = settled[id(transmits)] = self._settle_template(
                    transmits
                )
            folded = folds.get((id(transmits), move_key))
            if folded is None:
                folded = folds[id(transmits), move_key] = self._fold_move(
                    resolution, move
                )
            outcomes[key] = folded[0]
            honest += len(transmits) * count
            listens += len(cr.listeners) * count
            units += resolution[4] * count
            jams += len(move) * count
            deliveries += folded[1] * count
            collisions += folded[2] * count
            spoofs += folded[3] * count
            if cr.meta.phase:
                phases[cr.meta.phase] = phases.get(cr.meta.phase, 0) + count
        metrics = self.metrics
        metrics.rounds += len(keys)
        metrics.honest_transmissions += honest
        metrics.listens += listens
        metrics.payload_units += units
        metrics.adversary_transmissions += jams
        metrics.deliveries += deliveries
        metrics.collisions += collisions
        metrics.spoofs_delivered += spoofs
        if self._keep_trace or (
            self.adversary is not None and self.adversary.needs_history
        ):
            views = {key: MappingProxyType(d) for key, d in outcomes.items()}
            rounds = zip(
                _each_round(loops, counts),
                chain.from_iterable(map(_ROWS, loops)),
                keys,
            )
            for offset, (cr, row, key) in enumerate(rounds):
                self.trace.append(
                    RoundRecord(
                        self._round_index + offset,
                        cr.repetition(row),
                        () if moves is None else tuple(move_of[key[1]]),
                        views[key],
                    )
                )
        self._round_index += len(keys)
        return Heard(loops, list(map(outcomes.__getitem__, keys)))


# ----------------------------------------------------------------------
# Epochs: keyed (Sections 6-7), then private-hop (Sections 5, 6 and 8).
# ----------------------------------------------------------------------


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
    senders: Mapping[int, Message],
    listeners: tuple[int, ...],
    meta: RoundMeta,
) -> Iterator[Message | None]:
    """Run one keyed epoch; the result yields the message decoded on each
    hop, in round order.

    Round ``r`` has every sender of ``senders`` (``sender -> frame``, one
    frame for the whole epoch) transmit on ``hops[r]`` and every node of
    ``listeners`` tuned there.  The epoch builds one
    :class:`CompiledRound` per distinct hop channel and reuses it each
    time the hop returns there, so
    :meth:`RadioNetwork.execute_schedule` validates and settles at most
    ``C`` templates per epoch.  The whole epoch goes to
    ``network.execute_schedule`` as one list of loops, so anything
    wrapping that method sees it as one unit it can index and re-read.
    Entry ``r`` of the result is ``None`` when round ``r``'s hop carried
    silence, a collision or noise.

    The epoch resolves before this returns, but a round's entry is read
    only when the result reaches it, so a reader that stops at the first
    frame it accepts (:func:`first_opened`) builds no per-round map for
    the rounds after it.
    """
    width = len(listeners)
    on_channel = {
        hop: CompiledRound(
            {s: Transmit(hop, frame) for s, frame in senders.items()},
            listeners,
            (bytes((hop,)) * width,),
            meta,
        )
        for hop in dict.fromkeys(hops)
    }
    heard = network.execute_schedule(list(map(on_channel.__getitem__, hops)))
    return (per_round.get(hop) for hop, per_round in zip(hops, heard))


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
    their values index; each stream hands out its next ``rounds`` values
    (one uniform channel index per round; see :mod:`repro.rng`), laid out
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
    keeps using (an oblivious jammer's, which also feeds ``sample``), so
    a counter-mode :class:`~repro.rng.HopStream` cannot stand in."""
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
    if frame is None:
        loops = [CompiledRound({}, listeners, rows, meta)]
    else:
        sends = private_hop_rows([([streams[sender]], channels)], rounds)
        loops = [
            CompiledRound({sender: Transmit(hop[0], frame)}, listeners, (row,), meta)
            for hop, row in zip(sends, rows)
        ]
    heard = network.execute_schedule(loops)
    return list(zip(rows, heard))
