"""Point-to-point secure channels over pairwise keys (Section 8, Q4).

The paper asks whether more efficient point-to-point primitives exist.
Once Part 1 of the group-key protocol has established pairwise keys, any
pair can skip the group machinery entirely: the two nodes derive a private
channel-hopping pattern from their pairwise key and exchange authenticated
ciphertexts over it.  Each exchange costs one hopping epoch —
``Θ(t log n)`` rounds at ``C = t + 1``, dropping to ``Θ(log n)`` at
``C >= 2t`` (``channel_aware_epochs=True``) — and involves *only the two
endpoints*: everyone else sleeps, so many pairwise channels can run
back-to-back without coordination.  An exchange is one keyed epoch
(:func:`~repro.radio.network.run_hopped_epoch`) whose receiver keeps the
first frame that authenticates for this exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..crypto.hashes import canonical_encode
from ..crypto.hopping import ChannelHopper
from ..crypto.stream import AuthenticatedCipher, Ciphertext, nonce_from_counter
from ..errors import ConfigurationError
from ..radio.messages import Message
from ..radio.network import (
    RadioNetwork,
    RoundMeta,
    first_opened,
    keyed_epoch_rounds,
    run_hopped_epoch,
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

    def epoch_length(self) -> int:
        """Real rounds per exchange (see
        :func:`~repro.radio.network.keyed_epoch_rounds`)."""
        return keyed_epoch_rounds(self.network, self._channel_aware)

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
        a, b = self.endpoints
        receiver = a if sender == b else b
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
        epoch = self.epoch_length()
        hops = self._hopper.sequence(self._cursor, epoch)
        self._cursor += epoch
        heard = run_hopped_epoch(
            self.network,
            hops,
            {sender: frame},
            (receiver,),
            RoundMeta(phase="pairwise", extra={"exchange": exchange}),
        )

        def open_frame(contents: Any) -> PairwiseDelivery | None:
            claimed_sender, claimed_exchange, sealed_tuple = contents
            if claimed_exchange != exchange:
                return None  # replay from another epoch
            opened = self._cipher.decrypt(
                Ciphertext.from_tuple(sealed_tuple),
                associated=self._associated(claimed_sender, exchange),
            )
            return PairwiseDelivery(exchange, claimed_sender, opened)

        delivery = first_opened(heard, PAIRWISE_KIND, open_frame)
        self._exchange += 1
        return delivery
