"""A spoofing adversary: forges plausible-looking protocol messages.

Spoofing is the second disruption mode of Section 3: by transmitting a fake
message on an otherwise-empty channel, the adversary makes listeners decode
incorrect information.  Against f-AME's fully-scheduled transmission rounds
a spoof can only collide (every channel is occupied by an honest broadcaster),
which is exactly the paper's authentication argument — this adversary lets the
tests demonstrate that.

Against *randomized* phases (gossip epochs, feedback listening) the spoofer
guesses channels and injects forged frames built by a caller-supplied factory.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Sequence

from ..radio.messages import Message, Transmission
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView

ForgeFn = Callable[["AdversaryView", int], Message | None]
"""Builds a forged message for a given (view, channel); ``None`` ⇒ jam noise
is not sent on that channel at all."""


def _default_forge(view: "AdversaryView", channel: int) -> Message:
    """A generic forgery: claims to be from node 0 with junk payload."""
    return Message(kind="spoof", sender=0, payload=("forged", view.round_index))


class SpoofingAdversary(Adversary):
    """Transmits forged messages on up to ``t`` channels per round.

    Parameters
    ----------
    rng:
        Adversary-private randomness.
    forge:
        Factory producing the forged :class:`Message` per channel.  Protocol
        -specific attacks (e.g. forging well-formed feedback ``<true, r>``
        frames) supply their own factory.
    target_scheduled:
        When ``True`` and the round metadata exposes a schedule with a set of
        in-use channels, the spoofer prefers channels *not* in use (where a
        forgery could be decoded); otherwise it picks uniformly at random.
    """

    def __init__(
        self,
        rng: random.Random,
        forge: ForgeFn = _default_forge,
        *,
        target_scheduled: bool = True,
    ) -> None:
        self._rng = rng
        self._forge = forge
        self._target_scheduled = target_scheduled

    def _candidate_channels(self, view: "AdversaryView") -> list[int]:
        all_channels = list(range(view.channels))
        if not self._target_scheduled:
            return all_channels
        schedule = view.meta.schedule or {}
        in_use = schedule.get("channels_in_use")
        if in_use is None:
            return all_channels
        free = [c for c in all_channels if c not in set(in_use)]
        # Prefer free channels, but spend leftover budget on in-use ones
        # (there a forgery collides, which is still disruption).
        used = [c for c in all_channels if c in set(in_use)]
        return free + used

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        budget = min(view.t, view.channels)
        candidates = self._candidate_channels(view)
        if len(candidates) > budget:
            if self._target_scheduled and view.meta.schedule is not None:
                candidates = candidates[:budget]
            else:
                candidates = self._rng.sample(candidates, budget)
        out: list[Transmission] = []
        for channel in candidates:
            forged = self._forge(view, channel)
            if forged is not None:
                out.append(Transmission(channel, forged))
        return tuple(out)
