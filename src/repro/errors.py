"""Exception hierarchy for the :mod:`repro` package.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause.  The
sub-classes separate the three broad failure domains: configuration problems
(caller error), protocol-rule violations (the simulation detected behaviour
that the paper's model forbids), and simulation-state problems (the whp
guarantees of the paper were violated in a particular random execution).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """Raised when caller-supplied parameters are invalid or inconsistent.

    Examples: ``t >= C``, a population too small for the witness assignment
    (the paper requires ``n > 3(t+1)^2 + 2(t+1)``), or a malformed edge set.
    """


class ProtocolViolation(ReproError):
    """Raised when a component breaks the rules of the model.

    Examples: an adversary attempting to transmit on more than ``t`` channels
    in a round, a node transmitting and listening simultaneously, or a game
    proposal violating Restrictions 1-4 of the starred-edge removal game.
    """


class GameRuleViolation(ProtocolViolation):
    """Raised when a starred-edge-removal-game move is illegal."""


class ScheduleError(ProtocolViolation):
    """Raised when a proposal cannot be mapped onto channels.

    Examples: a proposal whose source must both broadcast and listen without
    being starred (so no surrogate is available), or a population too small
    to fill every witness group.  Proposals produced by the greedy strategy
    on a validated configuration are always schedulable; this error flags
    hand-crafted proposals or mis-sized populations.
    """


class SimulationDiverged(ReproError):
    """Raised when the distributed simulation loses consistency.

    f-AME relies on a with-high-probability agreement (Lemma 5) between all
    nodes on the referee's response.  When an execution falls into the low
    probability failure event and node states diverge, the driver raises this
    exception (or records it, depending on
    :attr:`repro.params.ProtocolParameters.strict_consistency`).
    """


class DispatchError(ReproError):
    """Raised when a trial-dispatch backend cannot complete its batch.

    Examples: every socket worker died with trials still queued, a frame
    exceeded the wire-size cap, or the coordinator sat idle past its
    timeout with results outstanding.  Completed trials are never lost to
    this error — anything already journalled stays journalled, so a
    ``--resume`` picks up where the failed batch stopped.
    """


class JournalRejected(DispatchError, ConfigurationError):
    """Raised when ``--resume`` refuses a sweep journal: another journal or
    randomness version, a corrupt interior line, or a record of the wrong
    shape or bounds (the message names the line).  A
    :class:`ConfigurationError` too, so the CLI exits 2 with one line."""


class ServiceError(ReproError):
    """A typed failure from the key-service layer (:mod:`repro.serve`).

    Carries a machine-readable ``code`` (``busy``, ``unknown-session``,
    ``not-a-member``, ``bad-request``, ...; the catalog lives in
    :mod:`repro.serve.protocol`) so daemon failure frames round-trip the
    wire as data, never as raw exceptions: the daemon maps every
    service-layer refusal to exactly one ``fail`` frame, and
    :class:`~repro.serve.client.ServiceClient` re-raises it as this type
    with the code intact.
    """

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"{code}: {message}")
        self.code = code
        self.detail = message


class ScenarioError(ConfigurationError):
    """Raised for attack-scenario registry misuse (:mod:`repro.scenarios`).

    Examples: looking up a scenario name that was never registered,
    registering two scenarios under one name, or declaring a scenario
    without a typed expected outcome.  A :class:`ConfigurationError`
    subtype so sweep/CLI surfaces that already map configuration
    problems to exit code 2 keep doing so for scenario workloads.
    """


class CryptoError(ReproError):
    """Raised for failures in the from-scratch crypto substrate.

    Examples: ciphertext authentication failure, invalid Diffie-Hellman
    public value (out of range or degenerate), or malformed key material.
    """
