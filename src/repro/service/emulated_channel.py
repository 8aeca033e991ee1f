"""Emulating a secure broadcast channel from a group key (Section 7).

One *emulated round* costs ``Θ(t log n)`` real rounds: the group derives the
round's channel-hopping pattern from the shared key, the (single) broadcaster
repeats its encrypted message on the pattern, and everyone else listens on
the pattern.  The adversary, keyless, sees each hop as uniform — jamming
``t`` of ``C`` channels blind fails with probability ``(C - t)/C`` per real
round, so the message lands with high probability.  Ciphertexts are
authenticated (encrypt-then-MAC) with the emulated round number and sender
id as associated data, which kills spoofing *and* replay across rounds.

Guarantees (with high probability, matching Section 7):

* **t-Reliability** — every key holder receives a sole broadcaster's
  message; at most the ``t`` nodes without the key are excluded;
* **Secrecy** — transmitted frames are ciphertexts under the group key;
* **Authentication** — a receiver accepts ``m`` from ``v`` only if ``v``
  sealed ``m`` for this emulated round.

Like a real broadcast channel, two concurrent broadcasters collide and
nobody delivers — scheduling is the application's job (see
:class:`repro.service.session.SecureSession`).

An emulated round is one keyed epoch
(:func:`~repro.radio.network.run_hopped_epoch`).  Every listening member
sits on the same hop, so all of them hear the same frames: each frame is
opened once, and the first that authenticates is the one
:class:`Delivery` every listener gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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

SERVICE_KIND = "service-frame"


@dataclass(frozen=True)
class Delivery:
    """One authenticated reception on the emulated channel."""

    emulated_round: int
    sender: int
    payload: bytes


class LongLivedChannel:
    """The emulated secure channel bound to one group key.

    Parameters
    ----------
    network:
        The radio network to emulate over.
    group_key:
        The shared secret from :mod:`repro.groupkey` (>= 16 bytes).
    members:
        Nodes holding the key; only they can send or receive.  Non-members
        sleep through service rounds (they are the at-most-``t`` nodes the
        reliability guarantee concedes).
    """

    def __init__(
        self,
        network: RadioNetwork,
        group_key: bytes,
        members: Sequence[int],
        *,
        channel_aware_epochs: bool = False,
    ) -> None:
        if not isinstance(group_key, (bytes, bytearray)) or len(group_key) < 16:
            raise ConfigurationError("group key must be at least 16 bytes")
        self.network = network
        self.members = sorted(set(int(m) for m in members))
        if not all(0 <= m < network.n for m in self.members):
            raise ConfigurationError("member id out of range")
        if len(self.members) < 2:
            raise ConfigurationError("need at least two members")
        self._hopper = ChannelHopper(
            bytes(group_key), network.channels, label="service"
        )
        self._cipher = AuthenticatedCipher(bytes(group_key))
        self._channel_aware = channel_aware_epochs
        self._emulated_round = 0
        self._real_round_cursor = 0

    # ------------------------------------------------------------------

    @property
    def emulated_round(self) -> int:
        """Index of the next emulated round."""
        return self._emulated_round

    def epoch_length(self) -> int:
        """Real rounds per emulated round (see
        :func:`~repro.radio.network.keyed_epoch_rounds`): ``Θ(t log n)``,
        or ``Θ(log n)`` at ``C >= 2t`` with ``channel_aware_epochs``."""
        return keyed_epoch_rounds(self.network, self._channel_aware)

    def _associated(self, sender: int, emulated_round: int) -> bytes:
        return canonical_encode(("service", sender, emulated_round))

    def seal(self, sender: int, payload: bytes, emulated_round: int) -> Ciphertext:
        """Encrypt-and-authenticate ``payload`` for one emulated round."""
        return self._cipher.encrypt(
            payload,
            nonce=nonce_from_counter(emulated_round, sender),
            associated=self._associated(sender, emulated_round),
        )

    def run_round(
        self, broadcasts: Mapping[int, bytes]
    ) -> dict[int, Delivery | None]:
        """Execute one emulated round.

        Parameters
        ----------
        broadcasts:
            Map of sender member -> payload bytes.  An empty map emulates a
            silent round; two or more senders collide (like a real channel)
            and nobody delivers.

        Returns
        -------
        Per listening member, the authenticated :class:`Delivery` (or
        ``None`` for silence/disruption/forgery).
        """
        for sender in broadcasts:
            if sender not in self.members:
                raise ConfigurationError(
                    f"node {sender} is not a channel member"
                )
        er = self._emulated_round
        sealed = {
            sender: Message(
                kind=SERVICE_KIND,
                sender=sender,
                payload=(sender, er, self.seal(sender, payload, er).as_tuple()),
            )
            for sender, payload in broadcasts.items()
        }
        listeners = tuple(m for m in self.members if m not in broadcasts)
        epoch = self.epoch_length()
        hops = self._hopper.sequence(self._real_round_cursor, epoch)
        self._real_round_cursor += epoch
        heard = run_hopped_epoch(
            self.network,
            hops,
            sealed,
            listeners,
            RoundMeta(phase="service", extra={"emulated_round": er}),
        )

        def open_frame(contents: Any) -> Delivery | None:
            claimed_sender, claimed_round, sealed_tuple = contents
            if claimed_round != er:
                return None  # replay from another emulated round
            opened = self._cipher.decrypt(
                Ciphertext.from_tuple(sealed_tuple),
                associated=self._associated(claimed_sender, er),
            )
            return Delivery(er, claimed_sender, opened)

        # Every listener sits on the hop, so all of them hear the same
        # frames: open each once and hand every listener the result.
        delivery = first_opened(heard, SERVICE_KIND, open_frame)
        self._emulated_round += 1
        return {m: delivery for m in listeners}
