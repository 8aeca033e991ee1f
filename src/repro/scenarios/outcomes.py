"""Typed outcomes for attack scenarios.

Every registered scenario declares exactly one *expected* outcome from
this taxonomy, and its runner returns one *observed* outcome; the
scenario passes iff the two compare equal.  The taxonomy separates the
three ways an attack can end:

* **contained** — the attack happened and a named mechanism absorbed it:
  :class:`AttackRejected` (a forged/replayed/misaddressed frame was
  refused), :class:`KeyMismatchDetected` (a re-key honestly reported the
  members it could not bring forward instead of silently keeping them on
  a stale key), :class:`SessionAborted` (the serve layer refused with a
  typed failure code), :class:`WhpBoundHolds` (the paper's
  disruptability bound survived the attack);
* **safety failure** — :class:`SafetyViolated`: something *wrong* was
  accepted (a garbled payload delivered as authentic, a stale key
  treated as fresh, an undetected colluder);
* **liveness failure** — :class:`LivenessLost`: nothing wrong was
  accepted, but an expected delivery never happened.

Safety and liveness are asserted *separately* (following the
stabilizing-consensus impossibility literature: conflating the two
hides which guarantee an attack actually broke): an attack that
suppresses delivery while every forgery is rejected is a
:class:`LivenessLost`, never a :class:`SafetyViolated` — and some
scenarios (e.g. a corrupt garbling source) *expect* a safety failure,
because the paper's model concedes it and charges it to the ``2t``
cover instead.

Outcomes are frozen dataclasses with value equality, and they round-trip
through :func:`encode_outcome`/:func:`decode_outcome` as plain tuples of
scalars, so they ride the serve wire protocol and sweep
``TrialResult.detail`` as ``Any`` values of the :mod:`repro.dispatch.wire`
codec (scalars, ``bytes`` and tuples of them), which no scenario class
has to be known to decode.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

from ..errors import ScenarioError

__all__ = [
    "Outcome",
    "AttackRejected",
    "KeyMismatchDetected",
    "SessionAborted",
    "WhpBoundHolds",
    "SafetyViolated",
    "LivenessLost",
    "OUTCOME_TYPES",
    "encode_outcome",
    "decode_outcome",
    "classify",
    "bound_outcome",
]


@dataclass(frozen=True)
class Outcome:
    """Base class: outcomes compare by value and name their kind."""

    KIND: ClassVar[str] = ""

    def describe(self) -> str:
        """Human-readable one-liner (``kind(field=value, ...)``)."""
        parts = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{self.KIND}({parts})"


@dataclass(frozen=True)
class AttackRejected(Outcome):
    """The attack's frames were refused by a named mechanism.

    ``mechanism`` names the defence that absorbed the attack (e.g.
    ``"mac-associated-data"``, ``"emulated-round-binding"``) so two
    rejection scenarios with different defences stay distinguishable.
    """

    KIND: ClassVar[str] = "attack-rejected"

    mechanism: str


@dataclass(frozen=True)
class KeyMismatchDetected(Outcome):
    """A re-key honestly reported the members it could not re-key.

    ``victims`` are the members that ended the operation *detectably*
    keyless (``RekeyReport.dropped``) instead of silently continuing on
    a stale key — the detection the paper's re-keying motivation asks
    for.
    """

    KIND: ClassVar[str] = "key-mismatch-detected"

    victims: tuple[int, ...]


@dataclass(frozen=True)
class SessionAborted(Outcome):
    """The serve layer refused the attack with a typed failure code.

    ``code`` is drawn from :data:`repro.serve.protocol.FAILURE_CODES`;
    matching on the code (never the message) keeps the expectation
    stable across wording changes.
    """

    KIND: ClassVar[str] = "session-aborted"

    code: str


@dataclass(frozen=True)
class WhpBoundHolds(Outcome):
    """The protocol ran under attack and its disruptability bound held.

    ``bound`` is the claimed cover bound (``t`` for Definition 1,
    ``2t`` for the Byzantine-hardened variant).
    """

    KIND: ClassVar[str] = "whp-bound-holds"

    bound: int


@dataclass(frozen=True)
class SafetyViolated(Outcome):
    """Something wrong was *accepted*: the named invariant failed."""

    KIND: ClassVar[str] = "safety-violated"

    invariant: str


@dataclass(frozen=True)
class LivenessLost(Outcome):
    """Nothing wrong was accepted, but the named delivery never came."""

    KIND: ClassVar[str] = "liveness-lost"

    service: str


OUTCOME_TYPES: dict[str, type] = {
    cls.KIND: cls
    for cls in (
        AttackRejected,
        KeyMismatchDetected,
        SessionAborted,
        WhpBoundHolds,
        SafetyViolated,
        LivenessLost,
    )
}
"""Outcome classes keyed by wire kind."""

_SAFETY_FAILURE_KINDS = frozenset({SafetyViolated.KIND})
_LIVENESS_FAILURE_KINDS = frozenset({LivenessLost.KIND})


def classify(outcome: Outcome) -> str:
    """``"safety-failure"``, ``"liveness-failure"``, or ``"contained"``."""
    if outcome.KIND in _SAFETY_FAILURE_KINDS:
        return "safety-failure"
    if outcome.KIND in _LIVENESS_FAILURE_KINDS:
        return "liveness-failure"
    return "contained"


def encode_outcome(outcome: Outcome) -> tuple:
    """``(kind, field, ...)`` — scalars and tuples only, wire-safe."""
    return (outcome.KIND,) + tuple(
        getattr(outcome, f.name) for f in fields(outcome)
    )


def decode_outcome(row: tuple) -> Outcome:
    """Rebuild an outcome from :func:`encode_outcome` output."""
    if not isinstance(row, (tuple, list)) or not row:
        raise ScenarioError(f"malformed outcome row: {row!r}")
    kind, *values = row
    cls = OUTCOME_TYPES.get(kind)
    if cls is None:
        raise ScenarioError(
            f"unknown outcome kind {kind!r}; "
            f"known: {sorted(OUTCOME_TYPES)}"
        )
    names = [f.name for f in fields(cls)]
    if len(values) != len(names):
        raise ScenarioError(
            f"outcome {kind!r} takes {len(names)} fields, got {len(values)}"
        )
    coerced = [
        tuple(v) if isinstance(v, list) else v for v in values
    ]
    return cls(**dict(zip(names, coerced)))


def bound_outcome(bound: int, cover: int) -> Outcome:
    """The observed outcome of a disruptability-bound scenario.

    The bound holding is the contained outcome; the bound failing means
    the protocol *granted* deliveries it should not have (or lost ones
    it guaranteed) beyond what the adversary model concedes — a safety
    failure of the w.h.p. claim for this execution.
    """
    if cover <= bound:
        return WhpBoundHolds(bound=bound)
    return SafetyViolated(invariant=f"disruptability {cover} > bound {bound}")
