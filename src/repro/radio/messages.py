"""Message and jamming payload types for the radio model.

A :class:`Message` is what a listener decodes when a transmission succeeds.
Crucially — per Section 3 of the paper — the ``sender`` field is a *claim*,
not a fact: communication is unauthenticated, so a spoofing adversary can put
any node id in ``sender``.  Protocol code must never trust it except when the
round's broadcast schedule makes spoofing impossible (the paper's first
insight: on a fully scheduled round, an adversary transmission can only cause
a collision, never a spoof).

:class:`Jam` models undecodable noise.  A jam never reaches a listener as a
message; its only effect is to collide with concurrent transmissions (or to
occupy an otherwise-empty channel with noise, which listeners cannot
distinguish from silence because the model has no collision detection).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class Message:
    """A decodable radio frame.

    Attributes
    ----------
    kind:
        Protocol-level frame type, e.g. ``"ame-data"``, ``"feedback-true"``.
        Using explicit kinds lets receivers discard frames that cannot belong
        to the current phase.
    sender:
        The *claimed* origin.  Never authenticated by the channel itself.
    payload:
        Arbitrary protocol content.  Must be treated as attacker-controlled
        unless the schedule authenticates the round.
    """

    kind: str
    sender: int | None = None
    payload: Any = None

    def __repr__(self) -> str:  # compact, trace-friendly
        return f"Message({self.kind!r}, from={self.sender}, {self.payload!r})"


def payload_fields(payload: Any, *types: type | None) -> tuple | None:
    """``payload`` when it is a hashable tuple of one field per type, each
    of exactly that type (``None``: any); else ``None``.  Receivers read
    unauthenticated payloads through it, so a forged one is skipped."""
    if type(payload) is not tuple or len(payload) != len(types) or any(
        kind is not None and type(value) is not kind
        for value, kind in zip(payload, types)
    ):
        return None
    try:
        hash(payload)
    except TypeError:
        return None
    return payload


DELTA_KIND = "knowledge-delta"
"""Frame kind carrying a :class:`DeltaFrame` payload."""


@dataclass(frozen=True)
class DeltaFrame:
    """Digest/delta encoding of a knowledge broadcast.

    The parallel feedback merge historically shipped a full ``slot -> flag``
    map in every frame, paying O(frame) message size per transmission.  A
    delta frame ships the same *information* in compressed form:

    ``tag``
        The transfer identifier (merge-tree level and direction), exactly as
        on the historical full-frame encoding — receivers discard frames
        from other transfers.
    ``digest``
        Digest of the frame's full slot coverage
        (:func:`~repro.fame.digests.slot_set_digest`).  Receivers check the
        true slots against it and drop a frame whose slots do not match.
    ``true_slots``
        The delta payload: exactly the slots whose flag is true — the only
        entries that can ever change a receiver's output set ``D``.  False
        flags are never shipped; a frame's knowledge is the slot set itself.

    Like every radio payload, all fields are attacker-influencable unless
    the round's broadcast schedule makes spoofing impossible; the digest is
    an integrity check against encoding bugs and forged deltas, not an
    authenticator.
    """

    tag: Any
    digest: bytes
    true_slots: tuple[int, ...]

    def wire_size(self) -> int:
        """Wire size in the units of :func:`repro.radio.metrics.payload_size`:
        the tag's own units, one for the (constant-size) digest and one per
        true slot."""
        from .metrics import payload_size

        return payload_size(self.tag) + 1 + len(self.true_slots)

    def __repr__(self) -> str:  # compact, trace-friendly
        return (
            f"DeltaFrame({self.tag!r}, true={self.true_slots!r}, "
            f"digest={self.digest[:4].hex()}…)"
        )


@dataclass(frozen=True)
class Jam:
    """Undecodable noise injected by the adversary.

    The ``note`` is metadata for traces/debugging only; it is never visible
    to honest nodes.
    """

    note: str = ""

    def __repr__(self) -> str:
        return f"Jam({self.note!r})" if self.note else "Jam()"


JAM = Jam()
"""A shared default jam payload, for adversaries that don't annotate jams."""


@dataclass(frozen=True)
class Transmission:
    """An (channel, payload) pair offered to the medium in one round."""

    channel: int
    payload: Message | Jam = field(default=JAM)
