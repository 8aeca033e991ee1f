"""Point-to-point secure channels over pairwise keys (Section 8, Q4).

The paper asks whether more efficient point-to-point primitives exist.
Once Part 1 of the group-key protocol has established pairwise keys, any
pair can skip the group machinery entirely: the two nodes derive a private
channel-hopping pattern from their pairwise key and exchange authenticated
ciphertexts over it.  Each exchange costs one hopping epoch —
``Θ(t log n)`` rounds at ``C = t + 1``, dropping to ``Θ(log n)`` at
``C >= 2t`` (``channel_aware_epochs=True``) — and involves *only the two
endpoints*: everyone else sleeps, so many pairwise channels can run
back-to-back without coordination.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..crypto.hashes import canonical_encode
from ..crypto.hopping import ChannelHopper
from ..crypto.stream import AuthenticatedCipher, Ciphertext, nonce_from_counter
from ..errors import ConfigurationError, CryptoError
from ..radio.actions import Transmit
from ..radio.messages import Message
from ..radio.network import (
    CompiledRound,
    RadioNetwork,
    RoundMeta,
    RoundSchedule,
)

PAIRWISE_KIND = "pairwise-frame"


@dataclass(frozen=True)
class PairwiseDelivery:
    """One authenticated reception on a pairwise channel."""

    exchange: int
    sender: int
    payload: bytes


class PairwiseChannel:
    """A private channel between two nodes sharing a pairwise key.

    Parameters
    ----------
    network:
        The radio network.
    key:
        The shared pairwise key (from Part 1 of the group-key protocol,
        or any other key agreement).
    a, b:
        The two endpoints.
    channel_aware_epochs:
        Use the ``Θ(log n)`` epoch length when ``C >= 2t`` (Section 7's
        parenthetical) instead of the base ``Θ(t log n)``.
    """

    def __init__(
        self,
        network: RadioNetwork,
        key: bytes,
        a: int,
        b: int,
        *,
        channel_aware_epochs: bool = False,
    ) -> None:
        if not isinstance(key, (bytes, bytearray)) or len(key) < 16:
            raise ConfigurationError("pairwise key must be at least 16 bytes")
        if a == b:
            raise ConfigurationError("a pairwise channel needs two endpoints")
        for node in (a, b):
            if not 0 <= node < network.n:
                raise ConfigurationError(f"endpoint {node} out of range")
        self.network = network
        self.endpoints = (min(a, b), max(a, b))
        self._hopper = ChannelHopper(
            bytes(key), network.channels, label=("pairwise", *self.endpoints)
        )
        self._cipher = AuthenticatedCipher(bytes(key))
        self._channel_aware = channel_aware_epochs
        self._exchange = 0
        self._cursor = 0

    @property
    def exchange_index(self) -> int:
        """Index of the next exchange epoch."""
        return self._exchange

    def epoch_length(self) -> int:
        """Real rounds per exchange."""
        if self._channel_aware:
            return self.network.params.hopping_epoch_rounds(
                self.network.n, self.network.channels, self.network.t
            )
        return self.network.params.dissemination_epoch_rounds(
            self.network.n, self.network.t
        )

    def _associated(self, sender: int, exchange: int) -> bytes:
        return canonical_encode(("pairwise", *self.endpoints, sender, exchange))

    def send(self, sender: int, payload: bytes) -> PairwiseDelivery | None:
        """One exchange epoch: ``sender`` transmits, the peer listens.

        Returns the peer's authenticated delivery, or ``None`` when the
        adversary won every round of the epoch (probability ``(t/C)^epoch``
        — negligible at the default constants).
        """
        if sender not in self.endpoints:
            raise ConfigurationError(f"{sender} is not an endpoint")
        if not isinstance(payload, (bytes, bytearray)):
            raise ConfigurationError("payload must be bytes")
        receiver = (
            self.endpoints[0]
            if sender == self.endpoints[1]
            else self.endpoints[1]
        )
        exchange = self._exchange
        sealed = self._cipher.encrypt(
            bytes(payload),
            nonce=nonce_from_counter(exchange, sender),
            associated=self._associated(sender, exchange),
        )
        frame = Message(
            kind=PAIRWISE_KIND,
            sender=sender,
            payload=(sender, exchange, sealed.as_tuple()),
        )
        # The epoch is a fixed hop sequence with a static frame: compile
        # it once and submit it as one batch.
        meta = RoundMeta(phase="pairwise", extra={"exchange": exchange})
        epoch: list[CompiledRound] = []
        hops: list[int] = []
        listeners = (receiver,)
        for _ in range(self.epoch_length()):
            channel = self._hopper.channel(self._cursor)
            self._cursor += 1
            epoch.append(
                CompiledRound(
                    transmits={sender: Transmit(channel, frame)},
                    listeners=listeners,
                    hops=bytes((channel,)),
                    meta=meta,
                )
            )
            hops.append(channel)
        heard = self.network.execute_schedule(RoundSchedule(epoch))

        delivery: PairwiseDelivery | None = None
        for channel, per_round in zip(hops, heard):
            if delivery is not None:
                continue  # the epoch ran to its end regardless (lockstep)
            got = per_round.get(channel)
            if got is None or got.kind != PAIRWISE_KIND:
                continue
            try:
                claimed_sender, claimed_exchange, sealed_tuple = got.payload
                if claimed_exchange != exchange:
                    continue  # replay from another epoch
                opened = self._cipher.decrypt(
                    Ciphertext.from_tuple(sealed_tuple),
                    associated=self._associated(claimed_sender, exchange),
                )
            except (CryptoError, TypeError, ValueError):
                continue
            delivery = PairwiseDelivery(
                exchange=exchange, sender=claimed_sender, payload=opened
            )
        self._exchange += 1
        return delivery
