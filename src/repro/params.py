"""Protocol parameters: every Θ(·) constant in the paper, made explicit.

The paper states round counts asymptotically — ``Θ(C/(C-t) · log n)``
repetitions inside communication-feedback, ``Θ(t log n)``-round dissemination
epochs, and so on — leaving multiplicative constants to the Chernoff-bound
arguments.  A reproduction has to pick concrete constants.  This module
gathers all of them in one dataclass with documented defaults chosen so the
empirical failure rate in our test suite stays below ``1/n`` (the usual
"with high probability" target), while keeping simulations fast.

Section 5.4's model-size precondition, ``n > 3(t+1)^2 + 2(t+1)`` for the
witness assignment, is :func:`min_population`; f-AME's configuration
enforces it (:meth:`~repro.fame.config.FameConfig.min_nodes_required`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError


def min_population(t: int) -> int:
    """Smallest ``n`` the paper's witness assignment supports for a given ``t``.

    Section 5.4 requires ``n > 3(t+1)^2 + 2(t+1)``; we return the smallest
    integer satisfying the strict inequality.
    """
    return 3 * (t + 1) ** 2 + 2 * (t + 1) + 1


def log2n(n: int) -> float:
    """``log2(n)`` guarded to be at least 1, as used in round-count formulas."""
    return max(1.0, math.log2(max(2, n)))


@dataclass(frozen=True)
class ProtocolParameters:
    """Tunable constants for every Θ(·) in the paper.

    Attributes
    ----------
    feedback_factor:
        Multiplier on the ``C/(C-t) · log2 n`` repetition count of the inner
        loop of communication-feedback (Figure 1, line 5).  The Chernoff
        argument of Lemma 5 needs the exponent to beat ``log n``; ``3.0``
        gives a comfortable margin at simulation sizes.
    dissemination_factor:
        Multiplier on the ``t · log2 n`` epoch length used in Part 2 of the
        group-key protocol and in the long-lived service (Sections 6-7).
    gossip_epoch_factor:
        Multiplier on the ``t^2 · log2 n`` epoch length of the message-gossip
        phase (Section 5.6) and of Part 3 of the group-key protocol.
    strict_consistency:
        When ``True``, the f-AME driver raises
        :class:`repro.errors.SimulationDiverged` the moment node-local game
        states diverge (the low-probability failure event of Lemma 5).  When
        ``False`` it records the event in the trace and resynchronises from
        the majority view, which is what a deployed system would log.
    max_rounds:
        Hard safety cap on simulated radio rounds, so a buggy configuration
        cannot spin forever.  ``None`` disables the cap.
    """

    feedback_factor: float = 3.0
    dissemination_factor: float = 4.0
    gossip_epoch_factor: float = 3.0
    strict_consistency: bool = True
    max_rounds: int | None = 20_000_000

    def validate(self) -> "ProtocolParameters":
        """Check internal consistency; returns ``self`` for chaining."""
        if self.feedback_factor <= 0:
            raise ConfigurationError("feedback_factor must be positive")
        if self.dissemination_factor <= 0:
            raise ConfigurationError("dissemination_factor must be positive")
        if self.gossip_epoch_factor <= 0:
            raise ConfigurationError("gossip_epoch_factor must be positive")
        if self.max_rounds is not None and self.max_rounds <= 0:
            raise ConfigurationError("max_rounds must be positive or None")
        return self

    # ------------------------------------------------------------------
    # Concrete round counts
    # ------------------------------------------------------------------

    def feedback_repetitions(self, n: int, channels: int, t: int) -> int:
        """Inner-loop repetitions of Figure 1: ``Θ(C/(C-t) · log n)``.

        For ``C = t + 1`` this is ``Θ(t log n)`` per channel and therefore
        ``Θ(t^2 log n)`` for a whole invocation (Lemma 5).
        """
        if channels <= t:
            raise ConfigurationError(
                f"feedback needs C > t (got C={channels}, t={t})"
            )
        ratio = channels / (channels - t)
        return max(1, math.ceil(self.feedback_factor * ratio * log2n(n)))

    def dissemination_epoch_rounds(self, n: int, t: int) -> int:
        """Length of one ``Θ(t log n)`` pairwise dissemination epoch."""
        return max(1, math.ceil(self.dissemination_factor * (t + 1) * log2n(n)))

    def hopping_epoch_rounds(self, n: int, channels: int, t: int) -> int:
        """Channel-aware epoch length for key-derived hopping (Sections 6-7).

        A keyless adversary jamming ``t`` of ``C`` channels blind hits the
        hop with probability ``t / C`` per round, so the epoch needs
        ``Θ(log n / log(C / t))`` rounds for w.h.p. delivery.  At the
        minimum ``C = t + 1`` this reduces to the paper's ``Θ(t log n)``;
        at ``C >= 2t`` it falls to ``Θ(log n)`` — the improvement the paper
        notes parenthetically in Section 7 ("for C >= 2t, the number of
        required real rounds would fall to O(log n)").
        """
        if channels <= t:
            raise ConfigurationError(
                f"hopping needs C > t (got C={channels}, t={t})"
            )
        if t == 0:
            return max(1, math.ceil(self.dissemination_factor * log2n(n)))
        # log base (C / t) of n, scaled by the dissemination constant.
        denom = math.log2(channels / t)
        if denom <= 0:  # pragma: no cover - guarded by channels > t
            raise ConfigurationError("non-positive hop advantage")
        return max(
            1, math.ceil(self.dissemination_factor * log2n(n) / denom)
        )

    def gossip_epoch_rounds(self, n: int, t: int) -> int:
        """Length of one ``Θ(t^2 log n)`` gossip/reporting epoch."""
        return max(
            1, math.ceil(self.gossip_epoch_factor * (t + 1) ** 2 * log2n(n))
        )

    def agreement_group_size(self, t: int) -> int:
        """Size of the reporter set S in Part 3 of Section 6: ``2t + 1``."""
        return 2 * t + 1


DEFAULT_PARAMETERS = ProtocolParameters().validate()


def validate_model(n: int, channels: int, t: int) -> None:
    """Validate the basic model constraints of Sections 3-4.

    Parameters
    ----------
    n: number of nodes.
    channels: number of channels ``C`` (paper: ``C > 1``; the engine holds
        channel ids as bytes, so ``C <= 256``).
    t: adversary strength, channels disrupted per round (paper: ``t < C``).

    Each size must be exactly an ``int``: ``8.0``, ``"8"`` and ``True``
    are refused, never coerced.
    """
    for name, value in (("n", n), ("C", channels), ("t", t)):
        if type(value) is not int:
            raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if n < 2:
        raise ConfigurationError(f"need at least 2 nodes, got n={n}")
    if channels < 2:
        raise ConfigurationError(f"need C > 1 channels, got C={channels}")
    if channels > 256:
        raise ConfigurationError(
            f"at most 256 channels are supported (hop rows hold channel "
            f"ids as bytes), got C={channels}"
        )
    if t < 0:
        raise ConfigurationError(f"adversary strength t must be >= 0, got {t}")
    if t >= channels:
        raise ConfigurationError(
            f"the model requires t < C (got t={t}, C={channels}); "
            "with t >= C no communication is possible"
        )
