"""The worst-case jammer against deterministic schedules.

f-AME's message-transmission rounds follow a schedule every node (and
therefore the adversary, who knows the protocol and the public history)
computes deterministically.  The strongest the model allows is to jam ``t``
of the ``t+1`` scheduled channels every such round, leaving the referee to
grant exactly one item per game move — the slowest progress the analysis of
Theorem 6 permits.

The :class:`ScheduleAwareJammer` implements that attack with pluggable victim
selection, and optionally spends its budget during feedback rounds too
(where it can only slow listeners down, never corrupt the outcome — the
witness occupancy argument of Lemma 5).
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import is_
from typing import TYPE_CHECKING, Collection, Mapping, Sequence

from ..errors import ConfigurationError
from ..radio.messages import JAM, Transmission
from .base import Adversary
from .jammers import sample_jams

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView, RoundMeta

VICTIM_POLICIES = ("prefix", "suffix", "random", "victims")


class ScheduleAwareJammer(Adversary):
    """Jams ``t`` of the channels the current schedule says are in use.

    Parameters
    ----------
    rng:
        Adversary-private randomness (used by the ``random`` policy and for
        feedback-round jamming).
    policy:
        Victim selection among the scheduled channels:

        * ``"prefix"`` — jam the lowest-numbered in-use channels (leaves the
          last scheduled item to succeed each move);
        * ``"suffix"`` — jam the highest-numbered;
        * ``"random"`` — jam a random ``t``-subset of the in-use channels;
        * ``"victims"`` — jam channels whose scheduled item involves a node
          in ``victims`` first, then fill the budget by the prefix rule.
    victims:
        Node ids to persecute under the ``"victims"`` policy.
    jam_feedback:
        When ``True``, also jam ``t`` random channels during rounds whose
        phase starts with ``"feedback"``, maximising listener delay.

    Its moves depend on its coins and the round's meta alone, so it plans
    any schedule whose rounds share one meta object.
    """

    def __init__(
        self,
        rng: random.Random,
        policy: str = "prefix",
        *,
        victims: Collection[int] = (),
        jam_feedback: bool = True,
    ) -> None:
        if policy not in VICTIM_POLICIES:
            raise ConfigurationError(
                f"unknown policy {policy!r}; pick from {VICTIM_POLICIES}"
            )
        self._rng = rng
        self._policy = policy
        self._victims = frozenset(victims)
        self._jam_feedback = jam_feedback

    # ------------------------------------------------------------------

    def _pick_scheduled(
        self, view: "AdversaryView", schedule: Mapping, in_use: list[int]
    ) -> list[int]:
        budget = min(view.t, len(in_use))
        if budget == 0:
            return []
        if self._policy == "prefix":
            return sorted(in_use)[:budget]
        if self._policy == "suffix":
            return sorted(in_use)[-budget:]
        # "victims": channels touching a victim first.
        assignments = schedule.get("assignments", {})

        def touches_victim(channel: int) -> bool:
            info = assignments.get(channel, {})
            involved = {
                info.get("broadcaster"),
                info.get("listener"),
                info.get("source"),
            }
            return bool(involved & self._victims)

        preferred = sorted(c for c in in_use if touches_victim(c))
        rest = sorted(c for c in in_use if not touches_victim(c))
        return (preferred + rest)[:budget]

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        return self.plan_schedule(view, (view.meta,))[0]

    def plan_schedule(
        self, view: "AdversaryView", metas: Sequence["RoundMeta"]
    ) -> list[tuple[Transmission, ...]] | None:
        """Plans a schedule whose rounds share one meta object; rounds
        with differing metas keep acting round by round."""
        meta = metas[0]
        if not all(map(is_, metas, repeat(meta))):
            return None
        rounds = len(metas)
        schedule = meta.schedule or {}
        in_use = list(schedule.get("channels_in_use", ()))
        if in_use:
            if self._policy == "random":
                budget = min(view.t, len(in_use))
                return sample_jams(self._rng, in_use, budget, rounds)
            targets = self._pick_scheduled(view, schedule, in_use)
            return [tuple(Transmission(c, JAM) for c in targets)] * rounds
        if self._jam_feedback and str(meta.phase).startswith("feedback"):
            budget = min(view.t, view.channels)
            return sample_jams(self._rng, range(view.channels), budget, rounds)
        return [()] * rounds
