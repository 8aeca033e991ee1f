"""Per-round node actions: transmit, listen, or sleep.

The model (Section 3) allows a node one action per round on one channel.
These small frozen dataclasses make protocol round-functions explicit and
easily assertable in tests.  No protocol submits them: protocols compile
rounds (:class:`~repro.radio.network.CompiledRound`), and per-node actions
appear only in trace records and in the tests' per-node oracle.  They are
plain values, compared and hashed by their fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .messages import Message


@dataclass(frozen=True)
class Transmit:
    """Broadcast ``message`` on ``channel`` this round."""

    channel: int
    message: Message


@dataclass(frozen=True)
class Listen:
    """Tune to ``channel`` and receive whatever single transmission succeeds."""

    channel: int


@dataclass(frozen=True)
class Sleep:
    """Do nothing this round (neither transmit nor receive)."""


SLEEP = Sleep()
"""A ready-made :class:`Sleep`."""

Action = Union[Transmit, Listen, Sleep]
