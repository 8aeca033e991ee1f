"""The absent adversary: transmits nothing, ever.

Useful as a baseline (protocols must of course succeed without interference)
and for measuring the intrinsic round cost of a protocol separate from the
cost interference induces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..radio.messages import Transmission
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView, RoundMeta


class NullAdversary(Adversary):
    """Does nothing each round."""

    reusable_view = True

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        return ()

    def plan_schedule(
        self, view: "AdversaryView", metas: Sequence["RoundMeta"]
    ) -> list[tuple[Transmission, ...]]:
        return [()] * len(metas)
