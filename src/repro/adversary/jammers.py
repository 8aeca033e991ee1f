"""Generic jamming strategies.

These adversaries only inject noise (:class:`~repro.radio.messages.Jam`), so
they can disrupt but never spoof.  They exercise the protocols' resilience
claims without needing any protocol-specific knowledge.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Sequence

from ..errors import ConfigurationError
from ..radio.messages import JAM, Transmission
from ..radio.network import draw_in_step
from .base import Adversary

if TYPE_CHECKING:  # pragma: no cover
    from ..radio.network import AdversaryView, RoundMeta


_JAM_ON = tuple(Transmission(channel, JAM) for channel in range(256))
"""One prebuilt jam per byte-sized channel id: :class:`ReactiveJammer`'s
moves share them, so an acted round allocates no transmission."""


def sample_jams(
    rng: random.Random, population: Sequence[int], count: int, rounds: int
) -> list[tuple[Transmission, ...]]:
    """``rounds`` moves, move ``r`` jamming ``rng.sample(population,
    count)`` as drawn in round ``r`` of a per-round loop.

    ``sample(population, 1)`` is one ``_randbelow(len(population))``, the
    draw under ``choice``, so a one-channel schedule is one
    :func:`~repro.radio.network.draw_in_step` block draw of indices (same
    values, same final generator state) with one shared move per index;
    from two rounds on that beats a ``sample`` call per round.
    """
    if count == 0:
        return [()] * rounds
    if count == 1 and rounds > 1 and len(population) <= 256:
        singles = [(Transmission(c, JAM),) for c in population]
        return [singles[i] for i in draw_in_step(rng, len(singles), rounds)]
    return [
        tuple(Transmission(c, JAM) for c in rng.sample(population, count))
        for _ in range(rounds)
    ]


class RandomJammer(Adversary):
    """Jams ``t`` uniformly random channels each round.

    Parameters
    ----------
    rng:
        Adversary-private randomness stream.
    intensity:
        Fraction of the per-round budget actually used, in ``(0, 1]``.
        ``intensity=0.5`` with ``t=4`` jams 2 channels per round; any
        positive intensity jams at least one.

    Reads neither history nor metadata, so it plans whole schedules.
    """

    def __init__(self, rng: random.Random, intensity: float = 1.0) -> None:
        if not 0.0 < intensity <= 1.0:
            raise ConfigurationError("intensity must be in (0, 1]")
        self._rng = rng
        self._intensity = intensity

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        return self.plan_schedule(view, (view.meta,))[0]

    def plan_schedule(
        self, view: "AdversaryView", metas: Sequence["RoundMeta"]
    ) -> list[tuple[Transmission, ...]]:
        budget = min(view.t, view.channels)
        count = max(1, round(budget * self._intensity)) if budget else 0
        return sample_jams(self._rng, range(view.channels), count, len(metas))


class SweepJammer(Adversary):
    """Deterministically sweeps a jamming window across the channel space.

    Round ``r`` jams channels ``(r*stride + i) mod C`` for ``i < t``.  A
    predictable but full-budget disruptor: useful for deterministic
    regression tests of disruption handling.  It plans whole schedules.
    """

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ConfigurationError("stride must be >= 1")
        self._stride = stride

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        return self.plan_schedule(view, (view.meta,))[0]

    def plan_schedule(
        self, view: "AdversaryView", metas: Sequence["RoundMeta"]
    ) -> list[tuple[Transmission, ...]]:
        budget = min(view.t, view.channels)
        # A round's window depends on its index mod C: build one period.
        period = []
        for k in range(min(len(metas), view.channels)):
            base = ((view.round_index + k) * self._stride) % view.channels
            channels = {(base + i) % view.channels for i in range(budget)}
            period.append(
                tuple(Transmission(c, JAM) for c in sorted(channels))
            )
        return [period[k % len(period)] for k in range(len(metas))]


class ReactiveJammer(Adversary):
    """Jams the channels that carried the most recent honest activity.

    Implements the one-round-delayed eavesdropper the model allows: it
    inspects the last ``window`` completed rounds, scores channels by how
    many honest transmissions they carried, and jams the top ``t``, ties
    broken by preferring lower channel ids.  Only when none of those
    ``t`` channels scored at all (no activity in the window) does it jam
    ``t`` random channels instead.  Scoring reads each record's
    transmitter template, so a move costs O(window × transmitters).
    """

    needs_history = True

    def __init__(self, rng: random.Random, window: int = 4) -> None:
        if window < 1:
            raise ConfigurationError("window must be >= 1")
        self._rng = rng
        self._window = window

    def act(self, view: "AdversaryView") -> Sequence[Transmission]:
        scores = [0] * view.channels
        history = view.history
        start = max(0, len(history) - self._window)
        for idx in range(start, len(history)):
            for action in history[idx].round.transmits.values():
                scores[action.channel] += 1
        ranked = sorted(range(view.channels), key=lambda c: (-scores[c], c))
        budget = min(view.t, view.channels)
        targets = ranked[:budget]
        # If there has been no activity, fall back to random jamming.
        if all(scores[c] == 0 for c in targets):
            targets = self._rng.sample(range(view.channels), budget)
        return tuple(map(_JAM_ON.__getitem__, targets))
