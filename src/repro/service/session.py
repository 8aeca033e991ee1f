"""An application-facing session over the long-lived channel (Section 7).

:class:`SecureSession` wires the whole paper together: it establishes the
group key with :mod:`repro.groupkey` (one-time ``Θ(n t^3 log n)``-round
setup), opens a :class:`~repro.service.emulated_channel.LongLivedChannel`,
and offers a queued send/broadcast API in which each emulated round carries
one message — the simple collision-free schedule the emulated broadcast
channel needs.

Any pair can communicate whenever it chooses (unlike single-shot f-AME),
each exchange costing ``Θ(t log n)`` real rounds.

The session also supports **dynamic re-keying** (the introduction's
motivation: "it might be useful to be able to re-key dynamically, for
example, after the detection of a compromised device"): a surviving
complete leader distributes a fresh group key over the Part 1 pairwise
keys, skipping the compromised members, who can neither receive their
(unscheduled) epoch nor decrypt anyone else's.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field
from itertools import combinations
from typing import Any, Iterable, Sequence

from ..crypto.dh import DEFAULT_GROUP, DhGroup
from ..crypto.hashes import derive_key
from ..crypto.hopping import ChannelHopper
from ..crypto.stream import AuthenticatedCipher, Ciphertext, nonce_from_counter
from ..errors import ConfigurationError
from ..groupkey.protocol import GroupKeyProtocol
from ..groupkey.result import GroupKeyResult
from ..radio.messages import Message
from ..radio.network import (
    RadioNetwork,
    RoundMeta,
    first_opened,
    keyed_epoch_rounds,
    run_hopped_epoch,
)
from ..rng import RngRegistry
from .emulated_channel import Delivery, LongLivedChannel

REKEY_KIND = "rekey-frame"


def _int_ids(ids: Iterable[Any], what: str) -> tuple[int, ...]:
    """``ids`` as a tuple, each exactly an ``int`` — ``"1"``, ``True``
    and ``2.9`` raise :class:`ConfigurationError` instead of being
    coerced into (or compared equal to) a member nobody named."""
    ids = tuple(ids)
    if any(type(v) is not int for v in ids):
        raise ConfigurationError(f"{what} must be int, got {ids!r:.80}")
    return ids


@dataclass(frozen=True)
class RekeyReport:
    """Outcome of one re-keying operation.

    ``excluded`` are the members deliberately skipped (the compromised
    set); ``dropped`` are members that *should* have survived but did not
    receive the fresh key — their Part 1 pair key with the distributor
    was never established, or the adversary won every round of their
    dissemination epoch.  The two sets are disjoint and together account
    for every node that left ``members``: nobody vanishes silently.
    """

    generation: int
    distributor: int
    members: tuple[int, ...]
    excluded: tuple[int, ...]
    rounds: int
    dropped: tuple[int, ...] = ()


class PresharedPairKeys(Mapping):
    """The pairwise keys of a preshared group, each derived when first read.

    ``keys[frozenset((a, b))]`` for two distinct members ``a < b`` is
    ``derive_key(secret, "preshared-pair", a, b)``, derived once and kept.
    Opening a session derives none of the ``n(n-1)/2`` keys, and a re-key
    reads only the distributor's ``n - 1``.  ``del keys[pair]`` revokes a
    pair: it then reads as a key that was never established.
    """

    def __init__(self, secret: bytes, members: Iterable[int]) -> None:
        self._secret = secret
        self._members = frozenset(members)
        self._derived: dict[frozenset[int], bytes] = {}
        self._revoked: set[frozenset[int]] = set()

    def _check(self, pair: frozenset[int]) -> None:
        if (
            not isinstance(pair, frozenset)
            or len(pair) != 2
            or not pair <= self._members
            or pair in self._revoked
        ):
            raise KeyError(pair)

    def __getitem__(self, pair: frozenset[int]) -> bytes:
        key = self._derived.get(pair)
        if key is None:
            self._check(pair)
            a, b = sorted(pair)
            key = derive_key(self._secret, "preshared-pair", a, b)
            self._derived[pair] = key
        return key

    def __delitem__(self, pair: frozenset[int]) -> None:
        self._check(pair)
        self._derived.pop(pair, None)
        self._revoked.add(pair)

    def __iter__(self) -> Iterator[frozenset[int]]:
        pairs = map(frozenset, combinations(sorted(self._members), 2))
        return (pair for pair in pairs if pair not in self._revoked)

    def __len__(self) -> int:
        n = len(self._members)
        return n * (n - 1) // 2 - len(self._revoked)


@dataclass(frozen=True)
class PresharedSetup:
    """Key material provisioned out of band (no Part 1-3 run).

    Stand-in for :class:`~repro.groupkey.result.GroupKeyResult` when the
    group secret was established offline (the paper's setup runs once;
    a serving deployment re-opens sessions against stored material).
    Pairwise keys are derived from the group secret per unordered pair,
    on first use (:class:`PresharedPairKeys`), so
    :meth:`SecureSession.rekey` works identically: every member can act
    as distributor (``completed_leaders`` is the whole membership).
    """

    group_key: bytes
    members: tuple[int, ...]
    pairwise_keys: PresharedPairKeys
    completed_leaders: tuple[int, ...]

    def holders(self) -> list[int]:
        """Interface parity with ``GroupKeyResult.holders()``."""
        return list(self.members)


@dataclass
class SessionStats:
    """Accounting for one session."""

    setup_rounds: int = 0
    emulated_rounds: int = 0
    real_rounds: int = 0
    sent: int = 0
    delivered: int = 0
    undelivered: int = 0
    inboxes: dict[int, list[Delivery]] = field(default_factory=dict)


class SecureSession:
    """Setup-once, communicate-forever secure group communication.

    Parameters
    ----------
    network:
        The radio network.
    rng:
        Honest randomness registry.
    group:
        Diffie-Hellman group for the setup phase.

    Usage
    -----
    >>> session = SecureSession(network, rng)      # doctest: +SKIP
    ...                                            # setup: group key
    >>> session.send(3, b"hello")                  # enqueue
    >>> session.flush()                            # one emulated round each
    """

    def __init__(
        self,
        network: RadioNetwork,
        rng: RngRegistry | None = None,
        *,
        group: DhGroup = DEFAULT_GROUP,
    ) -> None:
        self.network = network
        self.rng = rng or RngRegistry(seed=0)
        start = network.metrics.rounds
        self.setup: GroupKeyResult | PresharedSetup = GroupKeyProtocol(
            network, self.rng, group=group
        ).run()
        key = self.setup.group_key
        if key is None:
            raise ConfigurationError(
                "setup failed: no leader completed the pairwise phase"
            )
        self._attach(
            key,
            self.setup.holders(),
            setup_rounds=network.metrics.rounds - start,
        )

    @classmethod
    def from_preshared(
        cls,
        network: RadioNetwork,
        group_key: bytes,
        members: Sequence[int],
        rng: RngRegistry | None = None,
    ) -> "SecureSession":
        """Open a session over an out-of-band group secret (no setup run).

        The ``Θ(n t^3 log n)`` group-key establishment runs once; a
        long-lived deployment (the ``repro.serve`` daemon) re-opens
        sessions against stored key material instead of re-running it per
        session.  Pairwise keys for :meth:`rekey` are derived from the
        group secret per unordered member pair when a re-key first needs
        one, every member counts as a complete leader, and
        ``setup_rounds`` is zero.  Traffic, flush, inbox, and re-keying
        semantics are identical to a set-up session.  A member id that is
        not an ``int`` raises :class:`ConfigurationError`.
        """
        member_ids = tuple(sorted(set(_int_ids(members, "member ids"))))
        secret = bytes(group_key)
        self = cls.__new__(cls)
        self.network = network
        self.rng = rng or RngRegistry(seed=0)
        self.setup = PresharedSetup(
            group_key=secret,
            members=member_ids,
            pairwise_keys=PresharedPairKeys(secret, member_ids),
            completed_leaders=member_ids,
        )
        self._attach(secret, member_ids, setup_rounds=0)
        return self

    def _attach(
        self, key: bytes, members: Iterable[int], *, setup_rounds: int
    ) -> None:
        """Bind the session to its first channel (shared constructor tail)."""
        self.members = list(members)
        self.channel = LongLivedChannel(self.network, key, self.members)
        self.stats = SessionStats(
            setup_rounds=setup_rounds,
            inboxes={m: [] for m in self.members},
        )
        self._queue: deque[tuple[int, bytes]] = deque()
        self._generation = 0

    # ------------------------------------------------------------------

    def send(self, sender: int, payload: bytes) -> None:
        """Enqueue a broadcast from ``sender`` (one emulated round each)."""
        _int_ids((sender,), "sender id")
        if sender not in self.channel.members:
            raise ConfigurationError(f"node {sender} is not a member")
        if not isinstance(payload, (bytes, bytearray)):
            raise ConfigurationError("payload must be bytes")
        self._queue.append((sender, bytes(payload)))
        self.stats.sent += 1

    def pending(self) -> int:
        """Messages waiting to be flushed."""
        return len(self._queue)

    def flush(self, max_rounds: int | None = None) -> list[Delivery]:
        """Drain the queue, one message per emulated round.

        ``max_rounds`` budgets the emulated rounds **of this call**: a
        session that has already run any number of rounds still drains up
        to ``max_rounds`` messages per invocation, so repeated budgeted
        flushes make progress.  (The budget used to be compared against
        the lifetime ``stats.emulated_rounds``, silently draining nothing
        once the session had ever run that many rounds.)

        Returns the deliveries observed by receivers (deduplicated per
        emulated round: one entry per receiving member).
        """
        out: list[Delivery] = []
        start = self.network.metrics.rounds
        used = 0
        while self._queue:
            if max_rounds is not None and used >= max_rounds:
                break
            used += 1
            sender, payload = self._queue.popleft()
            deliveries = self.channel.run_round({sender: payload})
            self.stats.emulated_rounds += 1
            got_any = False
            for member, delivery in deliveries.items():
                if delivery is not None:
                    got_any = True
                    self.stats.inboxes[member].append(delivery)
                    out.append(delivery)
            if got_any:
                self.stats.delivered += 1
            else:
                self.stats.undelivered += 1
        self.stats.real_rounds += self.network.metrics.rounds - start
        return out

    def idle_round(self) -> None:
        """Run one silent emulated round (keeps the hop pattern advancing)."""
        self.channel.run_round({})
        self.stats.emulated_rounds += 1

    def inbox(
        self, member: int, *, include_former: bool = False
    ) -> list[Delivery]:
        """All authenticated deliveries ``member`` has received.

        Membership is checked against the **current** members, not the
        historical inbox keys: a node excluded or dropped by a re-key is
        no longer a member even though its pre-rekey inbox survives.
        Reading a former member's history requires the explicit
        ``include_former=True``; a node that was never a member raises
        regardless.
        """
        if member not in self.stats.inboxes:
            raise ConfigurationError(f"node {member} is not a member")
        if member not in self.members and not include_former:
            raise ConfigurationError(
                f"node {member} is a former member (excluded or dropped "
                "by a re-key); pass include_former=True to read its "
                "historical inbox"
            )
        return list(self.stats.inboxes[member])

    # ------------------------------------------------------------------
    # Dynamic re-keying.
    # ------------------------------------------------------------------

    def rekey(self, compromised: Iterable[int]) -> RekeyReport:
        """Exclude ``compromised`` members and switch to a fresh group key.

        The smallest non-compromised complete leader draws a fresh key and
        sends it to every remaining member over that pair's Part 1
        pairwise key — one ``Θ(t log n)`` keyed epoch per member
        (:func:`~repro.radio.network.run_hopped_epoch`, one frame sealed
        once per epoch and repeated on every hop), so the whole operation
        costs ``Θ(n t^2 log n)`` rounds (a Part 2 rerun, much cheaper than
        a full setup).  Compromised
        members have no epoch scheduled and hold none of the other pairs'
        keys, so the new group key is information they never see; the old
        channel is torn down immediately.

        A surviving member that nevertheless missed the fresh key — its
        pair key with the distributor was never established, or its whole
        epoch was jammed — is reported in :attr:`RekeyReport.dropped`
        (disjoint from ``excluded``), and frames carrying a stale
        generation number are rejected outright.  Queued messages from
        members that left (excluded or dropped) can no longer be sent:
        they leave the queue and count as ``stats.undelivered``.  An id
        that is not an ``int`` (``"1"``, ``True``, ``2.9``) raises
        :class:`ConfigurationError` before any side effect.
        """
        compromised = _int_ids(compromised, "compromised node ids")
        excluded = frozenset(compromised)
        pair_keys = self.setup.pairwise_keys
        candidates = [
            v for v in self.setup.completed_leaders if v not in excluded
        ]
        if not candidates:
            raise ConfigurationError(
                "no non-compromised complete leader available to re-key"
            )
        distributor = min(candidates)
        self._generation += 1
        generation = self._generation
        new_key = bytes(
            self.rng.stream("rekey", generation).randbytes(32)
        )

        start = self.network.metrics.rounds
        epoch_rounds = keyed_epoch_rounds(self.network)
        new_members = [distributor]
        dropped: list[int] = []
        recipients = [
            m
            for m in self.channel.members
            if m != distributor and m not in excluded
        ]
        for epoch_index, member in enumerate(recipients):
            pair_key = pair_keys.get(frozenset((distributor, member)))
            if pair_key is None:
                # Never established in Part 1: the distributor has no
                # private channel to this member, so it cannot receive
                # the fresh key.  Accounted for in ``dropped``.
                dropped.append(member)
                continue
            hops = ChannelHopper(
                pair_key,
                self.network.channels,
                label=("rekey", generation, distributor, member),
            ).sequence(0, epoch_rounds)
            cipher = AuthenticatedCipher(pair_key)
            sealed = cipher.encrypt(
                new_key, nonce_from_counter(generation, epoch_index), b"rekey"
            )
            frame = Message(
                REKEY_KIND, distributor, (generation, sealed.as_tuple())
            )
            heard = run_hopped_epoch(
                self.network,
                hops,
                {distributor: frame},
                (member,),
                RoundMeta(
                    phase="rekey",
                    extra={"generation": generation, "member": member},
                ),
            )

            def open_key(contents: Any) -> bytes | None:
                frame_gen, sealed = contents
                if frame_gen != generation:
                    # Stale generation: a replayed rekey frame from an
                    # earlier epoch must never vouch for the current one,
                    # whatever it decrypts to.
                    return None
                opened = cipher.decrypt(
                    Ciphertext.from_tuple(sealed), associated=b"rekey"
                )
                # The generation is not authenticated: an older frame
                # relabelled as current still opens, to the old key.
                return opened if opened == new_key else None

            if first_opened(heard, REKEY_KIND, open_key) is not None:
                new_members.append(member)
            else:
                # The adversary won every round of this member's epoch:
                # it survives the compromise but missed the new key.
                dropped.append(member)

        self.members = sorted(new_members)
        self.channel = LongLivedChannel(self.network, new_key, self.members)
        for m in self.members:
            self.stats.inboxes.setdefault(m, [])
        queued = len(self._queue)
        self._queue = deque(
            entry for entry in self._queue if entry[0] in self.members
        )
        self.stats.undelivered += queued - len(self._queue)
        return RekeyReport(
            generation=generation,
            distributor=distributor,
            members=tuple(self.members),
            excluded=tuple(sorted(excluded)),
            rounds=self.network.metrics.rounds - start,
            dropped=tuple(sorted(dropped)),
        )
